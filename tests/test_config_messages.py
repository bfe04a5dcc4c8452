"""The whole text of every configuration error, one config per raise site.

Other tests match fragments of these messages; this table pins them byte
for byte, so a rewrite of the reader cannot change what a user is told.
"""

import pytest

from semigeo.config import load_config
from semigeo.errors import ConfigError

# four lines of chart, so a fifth line is the first one a case adds
CHART2 = "[chart]\nn = 2\nx1_max = 1.0\nh1 = 0.5\n"
CHART3 = "[chart]\nn = 3\nx1_max = 1.0\nh1 = 0.5\n"
FIELDS2 = CHART2 + "[fields]\n"
FIELDS3 = CHART3 + "[fields]\n"

CASES = {
    # lines and sections
    "not-utf8": (b"[chart]\nn = \xff\n", "line 2: byte 0xff is not UTF-8"),
    "unbalanced-quotes": (FIELDS2 + 'g.1.1 = "1\n', "line 6: unbalanced quotes"),
    "quote-in-comment": (CHART2 + 'e = 0  # "\n', "line 5: e: expected +1 or -1, got '0'"),
    "malformed-header": ("[chart\nn = 2\n", "line 1: malformed section header '[chart'"),
    "unknown-section": (
        "[grid]\nn = 2\n",
        "line 1: unknown section [grid]; expected one of [run], [chart], [tolerances], [fields]",
    ),
    "before-section": ("n = 2\n[chart]\n", "line 1: assignment before any section header"),
    "missing-key": ("[chart]\n= 2\n", "line 2: missing key before '='"),
    "missing-value": ("[chart]\nn =   # none\n", "line 2: n: missing value after '='"),
    "not-assignment": (
        "[chart]\n  just words  # here\n",
        "line 2: expected 'key = value', got 'just words'",
    ),
    "equals-in-quotes": (
        FIELDS2 + '"g.1.1 = 1"\n',
        "line 6: expected 'key = value', got '\"g.1.1 = 1\"'",
    ),
    # [run]
    "run-unknown-key": ("[run]\nmodus = forward\n", "line 2: unknown [run] key 'modus'"),
    "run-twice": ("[run]\nout = a\nout = b\n", "line 3: out given twice"),
    "run-mode": (
        "[run]\nmode = backward\n",
        "line 2: mode: expected one of forward, reconstruct-metric, reconstruct-connection, "
        "roundtrip-metric, roundtrip-connection, check-chart, got 'backward'",
    ),
    # [chart] keys
    "chart-unknown-key": (CHART2 + "volume = 3\n", "line 5: unknown [chart] key 'volume'"),
    "chart-unknown-dotted": (CHART2 + "n.2 = 3\n", "line 5: unknown [chart] key 'n.2'"),
    "chart-twice": ("[chart]\nn = 2\nn = 3\nx1_max = 1.0\nh1 = 0.5\n", "line 3: n given twice"),
    "axis-twice": (
        CHART3 + "transverse_res.2 = 5\ntransverse_res.02 = 7\n",
        "line 6: transverse_res.02 given twice",
    ),
    "axis-not-int": (
        CHART3 + "transverse_box.x = 0, 1\n",
        "line 5: transverse_box.x: expected an integer, got 'x'",
    ),
    "missing-n": ("[chart]\nx1_max = 1.0\nh1 = 0.5\n", "[chart] is missing required key 'n'"),
    "missing-x1-max": ("[chart]\nn = 2\nh1 = 0.5\n", "[chart] is missing required key 'x1_max'"),
    "missing-h1": ("[chart]\nn = 2\nx1_max = 1.0\n", "[chart] is missing required key 'h1'"),
    # [chart] values
    "n-not-int": (
        "[chart]\nn = two\nx1_max = 1.0\nh1 = 0.5\n",
        "line 2: n: expected an integer, got 'two'",
    ),
    "n-float": (
        "[chart]\nn = 2.0\nx1_max = 1.0\nh1 = 0.5\n",
        "line 2: n: expected an integer, got '2.0'",
    ),
    "n-floor": ("[chart]\nn = 1\nx1_max = 1.0\nh1 = 0.5\n", "line 2: n: must be >= 2, got 1"),
    "x1-min-number": (
        "[chart]\nx1_min = low\nn = 2\nx1_max = 1.0\nh1 = 0.5\n",
        "line 2: x1_min: expected a number, got 'low'",
    ),
    "x1-max-number": (
        "[chart]\nn = 2\nx1_max = big\nh1 = 0.5\n",
        "line 3: x1_max: expected a number, got 'big'",
    ),
    "h1-number": (
        "[chart]\nn = 2\nx1_max = 1.0\nh1 = 1e\n",
        "line 4: h1: expected a number, got '1e'",
    ),
    "e-not-int": (CHART2 + "e = +\n", "line 5: e: expected an integer, got '+'"),
    "e-sign": (CHART2 + "e = 0\n", "line 5: e: expected +1 or -1, got '0'"),
    "res-not-int": (
        CHART2 + "transverse_res = 9.5\n",
        "line 5: transverse_res: expected an integer, got '9.5'",
    ),
    "axis-res-not-int": (
        CHART3 + "transverse_res.03 = nine\n",
        "line 5: transverse_res.3: expected an integer, got 'nine'",
    ),
    "box-parts": (
        CHART2 + "transverse_box = 0, 1, 2\n",
        "line 5: transverse_box: expected 'low, high', got '0, 1, 2'",
    ),
    "box-number": (
        CHART2 + "transverse_box = 0, one\n",
        "line 5: transverse_box: expected a number, got 'one'",
    ),
    "axis-box-parts": (
        CHART3 + "transverse_box.2 = 1\n",
        "line 5: transverse_box.2: expected 'low, high', got '1'",
    ),
    "global-and-axis": (
        CHART3 + "transverse_box = 0, 1\ntransverse_box.3 = 0, 2\ntransverse_box.2 = 0, 2\n",
        "line 6: transverse_box: give either one global value or per-axis values, not both",
    ),
    "axis-low": (
        CHART3 + "transverse_res.1 = 5\n",
        "line 5: transverse_res.1: transverse axis must be in 2..3",
    ),
    "axis-high": (
        CHART3 + "transverse_box.4 = 0, 1\n",
        "line 5: transverse_box.4: transverse axis must be in 2..3",
    ),
    # [chart] values the chart itself rejects
    "chart-range": (
        "[chart]\nn = 2\nx1_min = 0.5\nx1_max = 1.0\nh1 = 0.1\n",
        "[chart]: x1 range must be finite and contain 0, got [0.5, 1.0]",
    ),
    "chart-inf": (
        "[chart]\nn = 2\nx1_max = inf\nh1 = 0.1\n",
        "[chart]: x1 range must be finite and contain 0, got [0.0, inf]",
    ),
    "chart-h1-nan": (
        "[chart]\nn = 2\nx1_max = 1.0\nh1 = NaN\n",
        "[chart]: h1 must be positive and finite, got nan",
    ),
    "chart-h1-negative": (
        "[chart]\nn = 2\nx1_max = 1.0\nh1 = -0.5\n",
        "[chart]: h1 must be positive and finite, got -0.5",
    ),
    "chart-box-empty": (
        CHART2 + "transverse_box = 1, 1\n",
        "[chart]: transverse interval [1.0, 1.0] is empty or not finite",
    ),
    "chart-box-infinite": (
        CHART3 + "transverse_box.3 = -Infinity, 0\n",
        "[chart]: transverse interval [-inf, 0.0] is empty or not finite",
    ),
    "chart-res": (
        CHART3 + "transverse_res.3 = 2\n",
        "[chart]: transverse_res needs 2 entries, each >= 3, got (33, 2)",
    ),
    "chart-res-global": (
        CHART3 + "transverse_res = -1\n",
        "[chart]: transverse_res needs 2 entries, each >= 3, got (-1, -1)",
    ),
    # [tolerances]
    "tolerance-unknown-key": (
        CHART2 + "[tolerances]\nslack = 1\n",
        "line 6: unknown [tolerances] key 'slack'",
    ),
    "tolerance-twice": (
        CHART2 + "[tolerances]\nroundtrip_tol = 1e-6\nroundtrip_tol = 1e-7\n",
        "line 7: roundtrip_tol given twice",
    ),
    "tolerance-number": (
        CHART2 + "[tolerances]\nroundtrip_tol = small\n",
        "line 6: roundtrip_tol: expected a number, got 'small'",
    ),
    "tolerance-zero": (
        CHART2 + "[tolerances]\ndegeneracy_tol = 0\n",
        "line 6: degeneracy_tol: must be finite and > 0, got '0'",
    ),
    "tolerance-negative": (
        CHART2 + "[tolerances]\nblowup_threshold = -1e6\n",
        "line 6: blowup_threshold: must be finite and > 0, got '-1e6'",
    ),
    "tolerance-inf": (
        CHART2 + "[tolerances]\nstep_growth_limit = +inf\n",
        "line 6: step_growth_limit: must be finite and > 0, got '+inf'",
    ),
    "tolerance-nan": (
        CHART2 + "[tolerances]\nstage_slope_ratio = nan\n",
        "line 6: stage_slope_ratio: must be finite and > 0, got 'nan'",
    ),
    # [fields]
    "field-family": (
        FIELDS2 + 'b.2.2 = "1"\n',
        "line 6: unknown field family 'b'; "
        "expected one of A, Gtilde, a, g, gamma, gammatilde, gtilde",
    ),
    "field-arity": (FIELDS2 + 'g.1.1.1 = "1"\n', "line 6: g.1.1.1: family 'g' takes 2 indices"),
    "field-index-int": (
        FIELDS2 + 'g.1.one = "1"\n',
        "line 6: g.1.one: expected an integer, got 'one'",
    ),
    "field-index-low": (FIELDS2 + 'gtilde.1.2 = "1"\n', "line 6: gtilde.1.2: index 1 outside 2..2"),
    "field-index-high": (FIELDS2 + 'g.1.3 = "1"\n', "line 6: g.1.3: index 3 outside 1..2"),
    "field-A-last": (
        FIELDS2 + 'A.2.1.1 = "1"\n',
        "line 6: A.2.1.1: the last index may not be 1 (those components vanish identically)",
    ),
    "field-symmetric-twice": (
        FIELDS3 + 'a.2.3 = "1"\na.3.2 = "2"\n',
        "line 7: a.3.2: component already set on line 6 (symmetric orderings name the same slot)",
    ),
    "field-unquoted": (
        FIELDS2 + "g.1.1 = 1\n",
        "line 6: g.1.1: expression values must be double-quoted",
    ),
    "field-inner-quote": (
        FIELDS2 + 'g.1.1 = "1" + "2"\n',
        "line 6: g.1.1: expression values must be double-quoted",
    ),
    "field-syntax": (
        FIELDS2 + 'g.1.1 = "cos("\n',
        "line 6: g.1.1: unexpected end of expression (at position 4)",
    ),
    "field-variable": (
        FIELDS2 + 'g.2.2 = "x3"\n',
        "line 6: g.2.2: variable x3 out of range for dimension 2 (at position 0)",
    ),
    "field-symbol": (
        FIELDS2 + 'g.2.2 = "2 * y"\n',
        "line 6: g.2.2: unknown symbol 'y' (at position 4)",
    ),
    "field-number-exponent": (
        FIELDS2 + 'g.2.2 = "1e"\n',
        "line 6: g.2.2: unexpected token 'e' (at position 1)",
    ),
    "field-number-infinite": (
        FIELDS2 + 'g.2.2 = "1e999"\n',
        "line 6: g.2.2: number '1e999' is not finite (at position 0)",
    ),
    "field-nesting": (
        FIELDS2 + 'g.2.2 = "' + "(" * 901 + "x2" + ")" * 901 + '"\n',
        "line 6: g.2.2: expression nested too deeply (at position 900)",
    ),
    "field-height": (
        # the 901-term sum is 901 nodes high, built at the end of the text
        FIELDS2 + 'g.2.2 = "' + "+".join(["x2"] * 901) + '"\n',
        "line 6: g.2.2: expression nested too deeply (at position 2702)",
    ),
    "field-character": (
        FIELDS2 + 'g.2.2 = "x2 . 2"\n',
        "line 6: g.2.2: unexpected character '.' (at position 3)",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_whole_message(tmp_path, case):
    text, message = CASES[case]
    path = tmp_path / "run.cfg"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message
