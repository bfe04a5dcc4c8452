"""Line-oriented run configuration.

Format: ``key = value`` lines under bracketed section headers.  Four
sections exist:

* ``[run]``      mode and output directory (both optional; the command
                 line can supply or override them)
* ``[chart]``    tube geometry: n, x1_min, x1_max, h1, e, transverse
                 resolution and box (globally or per axis, e.g.
                 ``transverse_res.2 = 17``)
* ``[tolerances]`` blowup_threshold, degeneracy_tol, roundtrip_tol,
                 step_growth_limit, stage_slope_ratio; each finite and > 0
* ``[fields]``   tensor components as dotted keys with double-quoted
                 expression values, e.g. ``a.2.2 = "-cos(x1)^2"``; the
                 index ranges are those of ``grid_field.FAMILIES``

``#`` starts a comment outside quotes.  Unknown sections, unknown keys,
repeated keys, and symmetric components given twice are all errors: a
typo must never silently become a zero field.

Numbers are ASCII decimal literals, as in expressions (``expr.NUMBER``)
with an optional sign; integers are ASCII digits.  Other digits, such as
``٢`` or ``１``, and ``_`` separators are errors.  ``inf``, ``infinity``
and ``nan`` (any case) are read, and then rejected by the finiteness
checks of the chart and the tolerances.

The sections are read in the order [run], [chart], [tolerances],
[fields], and each reports its first error: in [run], [chart] and
[tolerances] an unknown or repeated key, in file order, before any
value; then the values, [chart]'s in the order of the keys above.
"""

import math
import re
from dataclasses import dataclass, field as dataclass_field

from .curvature import DEGENERACY_TOL
from .errors import ConfigError, FieldSyntaxError, InvalidSpec
from .expr import NUMBER, parse_field
from .grid_field import FAMILIES, ChartSpec
from .ode import GuardConfig

MODES = (
    "forward",
    "reconstruct-metric",
    "reconstruct-connection",
    "roundtrip-metric",
    "roundtrip-connection",
    "check-chart",
)

_SECTIONS = ("run", "chart", "tolerances", "fields")

_RUN_KEYS = ("mode", "out")

_CHART_KEYS = ("n", "x1_min", "x1_max", "h1", "e", "transverse_res", "transverse_box")

_TOLERANCE_KEYS = (
    "blowup_threshold",
    "degeneracy_tol",
    "roundtrip_tol",
    "step_growth_limit",
    "stage_slope_ratio",
)

_MODE_INPUTS = {
    "forward": ("g", "gamma"),
    "reconstruct-metric": ("gtilde", "Gtilde", "a"),
    "roundtrip-metric": ("gtilde", "Gtilde", "a"),
    "reconstruct-connection": ("gammatilde", "A"),
    "roundtrip-connection": ("gammatilde", "A"),
    "check-chart": ("g", "gamma"),
}


@dataclass
class Tolerances:
    """Numerical thresholds; the guard and degeneracy defaults are the library's."""

    blowup_threshold: float = GuardConfig.blowup_threshold
    degeneracy_tol: float = DEGENERACY_TOL
    roundtrip_tol: float = 1e-6
    step_growth_limit: float = GuardConfig.step_growth_limit
    stage_slope_ratio: float = GuardConfig.stage_slope_ratio

    def guards(self):
        return GuardConfig(
            blowup_threshold=self.blowup_threshold,
            step_growth_limit=self.step_growth_limit,
            stage_slope_ratio=self.stage_slope_ratio,
        )


@dataclass
class RunConfig:
    """Parsed configuration: chart, tolerances, and field assignments.

    ``fields`` maps family name to {canonical index tuple: parsed
    expression}.  ``e_given`` records whether the axial sign was written
    explicitly (metric reconstruction refuses to guess it).
    """

    chart: ChartSpec
    mode: str = None
    out: str = None
    e_given: bool = False
    tolerances: Tolerances = dataclass_field(default_factory=Tolerances)
    fields: dict = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------- tokenizing


def _unquoted(line, char):
    """Offset of the first ``char`` outside double quotes, or None."""
    start = 0
    for k, part in enumerate(line.split('"')):
        at = part.find(char) if k % 2 == 0 else -1
        if at >= 0:
            return start + at
        start += len(part) + 1
    return None


def _tokenize(text):
    """Map each section name to its (line_no, key, value) assignments."""
    sections = {name: [] for name in _SECTIONS}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw[: _unquoted(raw, "#")]
        if line.count('"') % 2:
            raise ConfigError("unbalanced quotes", line=line_no)
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"malformed section header {stripped!r}", line=line_no)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    line=line_no,
                )
            section = name
            continue
        if section is None:
            raise ConfigError("assignment before any section header", line=line_no)
        at = _unquoted(line, "=")
        if at is None:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=line_no)
        key, value = line[:at].strip(), line[at + 1 :].strip()
        if not key:
            raise ConfigError("missing key before '='", line=line_no)
        if not value:
            raise ConfigError(f"{key}: missing value after '='", line=line_no)
        sections[section].append((line_no, key, value))
    return sections


# ------------------------------------------------------------------ values

# blanks around an integer are skipped, as in the key ``g. 2.2``
_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
# with the words float() reads, so the finiteness checks can name them
_FLOAT = re.compile(rf"[+-]?(?:{NUMBER}|infinity|inf|nan)", re.ASCII | re.IGNORECASE)


def _parse_int(value, key, line_no):
    if not _INT.fullmatch(value):
        raise ConfigError(f"{key}: expected an integer, got {value!r}", line=line_no)
    return int(value)


def _parse_float(value, key, line_no):
    if not _FLOAT.fullmatch(value):
        raise ConfigError(f"{key}: expected a number, got {value!r}", line=line_no)
    return float(value)


def _parse_sign(value, key, line_no):
    sign = _parse_int(value, key, line_no)
    if sign not in (-1, 1):
        raise ConfigError(f"{key}: expected +1 or -1, got {value!r}", line=line_no)
    return sign


def _parse_mode(value, key, line_no):
    if value not in MODES:
        raise ConfigError(
            f"{key}: expected one of {', '.join(MODES)}, got {value!r}", line=line_no
        )
    return value


def _parse_tolerance(value, key, line_no):
    number = _parse_float(value, key, line_no)
    if not 0.0 < number < math.inf:
        raise ConfigError(f"{key}: must be finite and > 0, got {value!r}", line=line_no)
    return number


def _unquote(value, key, line_no):
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"' and '"' not in value[1:-1]:
        return value[1:-1]
    raise ConfigError(
        f"{key}: expression values must be double-quoted", line=line_no
    )


def _parse_interval(value, key, line_no):
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'low, high', got {value!r}", line=line_no)
    return (
        _parse_float(parts[0].strip(), key, line_no),
        _parse_float(parts[1].strip(), key, line_no),
    )


# ------------------------------------------------------------------ sections

# [chart] keys that may also be given per transverse axis, with their
# parser and the value of an axis given neither way
_PER_AXIS = {
    "transverse_res": (_parse_int, 33),
    "transverse_box": (_parse_interval, (0.0, 1.0)),
}

_REQUIRED = object()


def _keyed(entries, section, keys):
    """{key: (value, line_no)} for one section's assignments, in file order.

    A per-axis key such as ``transverse_res.2`` is keyed (base, axis), so
    ``transverse_res.02`` repeats it.
    """
    keyed = {}
    for line_no, key, value in entries:
        base, _, suffix = key.partition(".")
        if suffix and base in keys and base in _PER_AXIS:
            slot = (base, _parse_int(suffix, key, line_no))
        elif key in keys:
            slot = key
        else:
            raise ConfigError(f"unknown [{section}] key {key!r}", line=line_no)
        if slot in keyed:
            raise ConfigError(f"{key} given twice", line=line_no)
        keyed[slot] = (value, line_no)
    return keyed


def _get(keyed, key, parse, default=_REQUIRED):
    """``key``'s value read by ``parse``, or ``default`` when it is absent."""
    if key not in keyed:
        if default is _REQUIRED:
            # only [chart] has required keys
            raise ConfigError(f"[chart] is missing required key {key!r}")
        return default
    value, line_no = keyed[key]
    name = key if isinstance(key, str) else f"{key[0]}.{key[1]}"
    return parse(value, name, line_no)


def _read_chart(entries):
    chart = _keyed(entries, "chart", _CHART_KEYS)
    n = _get(chart, "n", _parse_int)
    if n < 2:
        raise ConfigError(f"n: must be >= 2, got {n}", line=chart["n"][1])
    x1_min = _get(chart, "x1_min", _parse_float, 0.0)
    x1_max = _get(chart, "x1_max", _parse_float)
    h1 = _get(chart, "h1", _parse_float)
    e = _get(chart, "e", _parse_sign, 1)

    axes = range(2, n + 1)
    # every per-axis key is checked before any per-axis value is read
    for base in _PER_AXIS:
        slots = [
            (key[1], line_no)
            for key, (_, line_no) in chart.items()
            if isinstance(key, tuple) and key[0] == base
        ]
        if slots and base in chart:
            raise ConfigError(
                f"{base}: give either one global value or per-axis values, not both",
                line=min(line_no for _, line_no in slots),
            )
        for axis, line_no in slots:
            if axis not in axes:
                raise ConfigError(
                    f"{base}.{axis}: transverse axis must be in 2..{n}", line=line_no
                )
    per_axis = []
    for base, (parse, default) in _PER_AXIS.items():
        whole = _get(chart, base, parse, default)
        per_axis.append(tuple(_get(chart, (base, axis), parse, whole) for axis in axes))
    res, box = per_axis

    try:
        spec = ChartSpec(
            n=n,
            x1_range=(x1_min, x1_max),
            h1=h1,
            transverse_box=box,
            transverse_res=res,
            e=e,
        )
    except InvalidSpec as err:
        raise ConfigError(f"[chart]: {err}")
    return spec, "e" in chart


def _read_fields(entries, n):
    fields = {}
    first_line = {}
    for line_no, key, value in entries:
        parts = key.split(".")
        family = parts[0]
        if family not in FAMILIES:
            raise ConfigError(
                f"unknown field family {family!r}; expected one of "
                + ", ".join(sorted(FAMILIES)),
                line=line_no,
            )
        layout = FAMILIES[family]
        if len(parts) - 1 != len(layout.first):
            raise ConfigError(
                f"{key}: family {family!r} takes {len(layout.first)} indices", line=line_no
            )
        idx = tuple(_parse_int(p, key, line_no) for p in parts[1:])
        for slot, (v, lo) in enumerate(zip(idx, layout.first)):
            if not lo <= v <= n:
                if family == "A" and slot == 2 and v == 1:
                    raise ConfigError(
                        f"{key}: the last index may not be 1 (those components "
                        "vanish identically)",
                        line=line_no,
                    )
                raise ConfigError(
                    f"{key}: index {v} outside {lo}..{n}", line=line_no
                )
        canonical = layout.canonical(idx)
        slots = fields.setdefault(family, {})
        if canonical in slots:
            other = first_line[(family, canonical)]
            raise ConfigError(
                f"{key}: component already set on line {other} "
                "(symmetric orderings name the same slot)",
                line=line_no,
            )
        text = _unquote(value, key, line_no)
        try:
            slots[canonical] = parse_field(text, n)
        except FieldSyntaxError as err:
            raise ConfigError(f"{key}: {err}", line=line_no)
        first_line[(family, canonical)] = line_no
    return fields


def load_config(path):
    """Parse a configuration file into a RunConfig.

    Raises ConfigError (with the 1-based line number when one applies)
    on any unknown, repeated, malformed, or conflicting entry, and on a
    file that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bytes before the first bad one decode, so lines count as _tokenize counts them
        line = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"byte {data[err.start]:#04x} is not UTF-8", line=line) from None
    sections = _tokenize(text)
    run = _keyed(sections["run"], "run", _RUN_KEYS)
    mode = _get(run, "mode", _parse_mode, None)
    out = _get(run, "out", lambda value, _key, _line_no: value, None)
    chart, e_given = _read_chart(sections["chart"])
    keyed = _keyed(sections["tolerances"], "tolerances", _TOLERANCE_KEYS)
    tolerances = Tolerances(**{key: _get(keyed, key, _parse_tolerance) for key in keyed})
    return RunConfig(
        chart=chart,
        mode=mode,
        out=out,
        e_given=e_given,
        tolerances=tolerances,
        fields=_read_fields(sections["fields"], chart.n),
    )


# ------------------------------------------------------------- mode checking


def validate_for_mode(config, mode):
    """Cross-check a parsed config against the requested run mode.

    Returns the effective mode.  Raises ConfigError when the config names
    a different mode, uses field families the mode does not read, or
    (for metric reconstruction) leaves the axial sign implicit.
    """
    if mode is None:
        mode = config.mode
    if mode is None:
        raise ConfigError("no mode: give one on the command line or in [run]")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if config.mode is not None and config.mode != mode:
        raise ConfigError(
            f"config says mode = {config.mode} but the run asks for {mode}"
        )
    allowed = _MODE_INPUTS[mode]
    for family in sorted(config.fields):
        if family not in allowed:
            raise ConfigError(
                f"field family {family!r} is not used by mode {mode} "
                f"(expected only: {', '.join(allowed)})"
            )
    if mode in ("reconstruct-metric", "roundtrip-metric") and not config.e_given:
        raise ConfigError(f"{mode} needs an explicit e in [chart]")
    if mode in ("forward", "check-chart"):
        if not config.fields:
            raise ConfigError(f"{mode} needs a g or gamma field family")
        if mode == "forward" and len(config.fields) > 1:
            raise ConfigError("forward takes either g or gamma, not both")
    return mode


def defaulted_components(config, mode):
    """Names of the mode's components that will default to 0, sorted.

    Symmetric slots are reported once, in canonical (sorted) index order;
    the forced axial-axial connection slots are not listed because no
    configuration may set them to anything but 0.
    """
    n = config.chart.n
    out = []
    for family in _MODE_INPUTS[mode]:
        if family in ("g", "gamma") and family not in config.fields:
            # alternative input families: absent means the other one is used
            continue
        given = config.fields.get(family, {})
        for idx in FAMILIES[family].slots(n):
            if family in ("gamma", "gammatilde") and idx[1] == idx[2] == 1:
                continue
            if idx not in given:
                out.append(family + "." + ".".join(str(v) for v in idx))
    return sorted(out)

