"""One small named config per behaviour, its bytes pinned by digest.

Each config runs in-process through ``cli.main`` like the fuzz corpus
(``record_digests.run_case``) and must leave the exit code, stderr and
artifacts recorded in ``named_digests.json``.  Together they cover every
mode, evaluation errors met mid-march, an error in a subexpression two
components share, a field too deep to load, numerical stops, a shot
that leaves the tube and a missed gate.
"""

import pytest
from record_digests import NAMED_DIGESTS, digest, load, mismatch_message, run_case

from semigeo.cli import read_report


def _chart(n, lo, hi, h1, res, box="0.0, 1.0", e="1"):
    lines = ["[chart]", f"n = {n}", f"x1_min = {lo}", f"x1_max = {hi}", f"h1 = {h1}"]
    if e is not None:
        lines.append(f"e = {e}")
    return "\n".join(lines + [f"transverse_res = {res}", f"transverse_box = {box}", ""])


def _fields(*lines):
    return "[fields]\n" + "".join(f"{line}\n" for line in lines)


SPHERE = _fields('gtilde.2.2 = "1"', 'Gtilde.2.2 = "0"', 'a.2.2 = "-cos(x1)^2"')
SPHERE_CHART = _chart(2, 0.0, 1.0, 0.01, 5)
BAND = _fields('A.2.1.2 = "-1"', 'A.1.2.2 = "cos(x1)^2"')
CHECK = _fields('g.1.1 = "1"', 'g.2.2 = "cos(x1)^2"')


def _metric_source(source, hi=1.0, h1=0.25):
    return _chart(2, 0.0, hi, h1, 5) + SPHERE.replace('"-cos(x1)^2"', f'"{source}"')


# name: (mode, config text, expected exit code)
NAMED = {
    "forward": (
        "forward",
        _chart(3, -0.2, 0.2, 0.05, 3)
        + _fields('g.1.1 = "1"', 'g.2.2 = "1 + x1*x2"', 'g.3.3 = "cos(x3)^2"'),
        0,
    ),
    "reconstruct-metric": ("reconstruct-metric", SPHERE_CHART + SPHERE, 0),
    "roundtrip-metric": ("roundtrip-metric", SPHERE_CHART + SPHERE, 0),
    "reconstruct-connection": (
        "reconstruct-connection",
        _chart(2, -0.5, 0.5, 0.01, 5, e=None) + BAND,
        0,
    ),
    "roundtrip-connection": (
        "roundtrip-connection",
        _chart(2, -0.5, 0.5, 0.01, 5, e=None) + BAND,
        0,
    ),
    "check-chart": ("check-chart", _chart(2, 0.0, 1.0, 0.01, 9) + CHECK, 0),
    "log-mid-march": ("reconstruct-metric", _metric_source("log(0.5 - x1)"), 2),
    "sqrt-mid-march": ("reconstruct-metric", _metric_source("-sqrt(0.6 - x1)"), 2),
    "division-by-zero-mid-march": ("reconstruct-metric", _metric_source("1/(x1 - 0.5)"), 2),
    "operator-overflow-mid-march": (
        "reconstruct-metric",
        _metric_source("-(1e160*x1)*(1e160*x1)"),
        2,
    ),
    # log(0.5 - x1) is one subtree of both trees; a(2, 2) is read first
    "shared-failing-subexpression": (
        "reconstruct-metric",
        _chart(3, 0.0, 1.0, 0.25, 3)
        + _fields(
            'gtilde.2.2 = "1"',
            'gtilde.3.3 = "1"',
            'a.2.2 = "-cos(x1)^2 + 0*log(0.5 - x1)"',
            'a.3.3 = "log(0.5 - x1)*x2"',
        ),
        2,
    ),
    # the source exists only for x1 <= 1.6, past the blow-up at pi/2
    "stop-blowup": (
        "reconstruct-connection",
        _chart(2, 0.0, 2.0, 0.002, 3, e=None)
        + _fields('A.2.1.2 = "-1"', 'A.1.1.2 = "0*sqrt(1.6 - x1)"'),
        3,
    ),
    "stop-degenerate": (
        "reconstruct-metric",
        _chart(2, 0.0, 2.0, 0.001, 5)
        + SPHERE.replace('"0"', '"-2"').replace('"-cos(x1)^2"', '"0"'),
        3,
    ),
    # g_11 = 1 + x2^2 + 3 x1 x2 bends the x1 lines out of |x2| <= 0.3
    "shot-leaves-tube": (
        "check-chart",
        _chart(2, 0.0, 1.0, 0.01, 9, box="-0.3, 0.3")
        + _fields('g.1.1 = "1 + x2^2 + 3*x2*x1"', 'g.2.2 = "1 + x1^2"'),
        0,
    ),
    # -cos(x1)^2 is four nodes high and each "+ 0" adds one: 901 is past
    # expr.MAX_DEPTH, refused while the config loads, before any output
    "deep-sum": ("reconstruct-metric", _metric_source("-cos(x1)^2" + " + 0" * 897), 2),
    # transverse_res = 4 cannot be halved, so the gate is roundtrip_tol alone
    "gate-miss": ("roundtrip-metric", _chart(2, 0.0, 1.0, 0.01, 4) + SPHERE, 4),
}


@pytest.fixture(scope="module")
def recorded():
    return load(NAMED_DIGESTS)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_config(tmp_path, recorded, name):
    mode, text, expected = NAMED[name]
    code, stderr, out = run_case(mode, text, tmp_path)
    assert code == expected, stderr
    if name == "shot-leaves-tube":
        assert "left the tube" in (out / "report.txt").read_text()
    if name.startswith("stop-"):
        assert read_report(out / "report.txt")["status"] != "Complete"
    running = digest(code, stderr, out)
    assert running == recorded["digests"][name], mismatch_message(name, recorded, running)
