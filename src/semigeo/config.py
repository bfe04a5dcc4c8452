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
"""

import math
from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigError, FieldSyntaxError, InvalidSpec
from .expr import parse_field
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
    """Numerical thresholds with their documented defaults."""

    blowup_threshold: float = 1e6
    degeneracy_tol: float = 1e-10
    roundtrip_tol: float = 1e-6
    step_growth_limit: float = 10.0
    stage_slope_ratio: float = 5.0

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


def _strip_comment(line):
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _split_assignment(line, line_no):
    quoted = False
    for pos, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "=" and not quoted:
            key = line[:pos].strip()
            value = line[pos + 1 :].strip()
            if not key:
                raise ConfigError("missing key before '='", line=line_no)
            if not value:
                raise ConfigError(f"{key}: missing value after '='", line=line_no)
            return key, value
    raise ConfigError(f"expected 'key = value', got {line.strip()!r}", line=line_no)


def _tokenize(text):
    """Yield (line_no, section, key, value) for every assignment."""
    section = None
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
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
        key, value = _split_assignment(line, line_no)
        entries.append((line_no, section, key, value))
    return entries


# ------------------------------------------------------------------ values


def _parse_int(value, key, line_no):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}", line=line_no)


def _parse_float(value, key, line_no):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", line=line_no)


def _parse_sign(value, key, line_no):
    sign = _parse_int(value, key, line_no)
    if sign not in (-1, 1):
        raise ConfigError(f"{key}: expected +1 or -1, got {value!r}", line=line_no)
    return sign


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


def _read_chart(entries):
    plain = {}
    per_axis = {"transverse_res": {}, "transverse_box": {}}
    for line_no, _, key, value in entries:
        base, _, suffix = key.partition(".")
        if suffix and base in per_axis:
            axis = _parse_int(suffix, key, line_no)
            if axis in per_axis[base]:
                raise ConfigError(f"{key} given twice", line=line_no)
            per_axis[base][axis] = (value, line_no)
            continue
        if key not in _CHART_KEYS:
            raise ConfigError(f"unknown [chart] key {key!r}", line=line_no)
        if key in plain:
            raise ConfigError(f"{key} given twice", line=line_no)
        plain[key] = (value, line_no)

    def require(key):
        if key not in plain:
            raise ConfigError(f"[chart] is missing required key {key!r}")
        return plain[key]

    value, line_no = require("n")
    n = _parse_int(value, "n", line_no)
    if n < 2:
        raise ConfigError(f"n: must be >= 2, got {n}", line=line_no)

    x1_min = 0.0
    if "x1_min" in plain:
        value, line_no = plain["x1_min"]
        x1_min = _parse_float(value, "x1_min", line_no)
    value, line_no = require("x1_max")
    x1_max = _parse_float(value, "x1_max", line_no)
    value, line_no = require("h1")
    h1 = _parse_float(value, "h1", line_no)

    e_given = "e" in plain
    if e_given:
        value, line_no = plain["e"]
        e = _parse_sign(value, "e", line_no)
    else:
        e = 1

    for base, slots in per_axis.items():
        if slots and base in plain:
            line_no = min(entry[1] for entry in slots.values())
            raise ConfigError(
                f"{base}: give either one global value or per-axis values, not both",
                line=line_no,
            )
        for axis, (_, line_no) in slots.items():
            if not 2 <= axis <= n:
                raise ConfigError(
                    f"{base}.{axis}: transverse axis must be in 2..{n}", line=line_no
                )

    def per_axis_values(base, parse, default):
        out = []
        for axis in range(2, n + 1):
            if axis in per_axis[base]:
                value, line_no = per_axis[base][axis]
                out.append(parse(value, f"{base}.{axis}", line_no))
            else:
                out.append(default)
        return tuple(out)

    if per_axis["transverse_res"]:
        res = per_axis_values("transverse_res", _parse_int, 33)
    elif "transverse_res" in plain:
        value, line_no = plain["transverse_res"]
        res = _parse_int(value, "transverse_res", line_no)
    else:
        res = 33

    if per_axis["transverse_box"]:
        box = per_axis_values("transverse_box", _parse_interval, (0.0, 1.0))
    elif "transverse_box" in plain:
        value, line_no = plain["transverse_box"]
        box = (_parse_interval(value, "transverse_box", line_no),) * (n - 1)
    else:
        box = None

    try:
        chart = ChartSpec(
            n=n,
            x1_range=(x1_min, x1_max),
            h1=h1,
            transverse_box=box,
            transverse_res=res,
            e=e,
        )
    except InvalidSpec as err:
        raise ConfigError(f"[chart]: {err}")
    return chart, e_given


def _read_fields(entries, n):
    fields = {}
    first_line = {}
    for line_no, _, key, value in entries:
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
    on any unknown, repeated, malformed, or conflicting entry.
    """
    with open(path, encoding="utf-8") as fh:
        entries = _tokenize(fh.read())

    by_section = {name: [] for name in _SECTIONS}
    for entry in entries:
        by_section[entry[1]].append(entry)

    mode = None
    out = None
    seen = set()
    for line_no, _, key, value in by_section["run"]:
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown [run] key {key!r}", line=line_no)
        if key in seen:
            raise ConfigError(f"{key} given twice", line=line_no)
        seen.add(key)
        if key == "mode":
            if value not in MODES:
                raise ConfigError(
                    f"mode: expected one of {', '.join(MODES)}, got {value!r}",
                    line=line_no,
                )
            mode = value
        else:
            out = value

    chart, e_given = _read_chart(by_section["chart"])

    tolerances = Tolerances()
    seen = set()
    for line_no, _, key, value in by_section["tolerances"]:
        if key not in _TOLERANCE_KEYS:
            raise ConfigError(f"unknown [tolerances] key {key!r}", line=line_no)
        if key in seen:
            raise ConfigError(f"{key} given twice", line=line_no)
        seen.add(key)
        number = _parse_float(value, key, line_no)
        if not 0.0 < number < math.inf:
            raise ConfigError(f"{key}: must be finite and > 0, got {value!r}", line=line_no)
        setattr(tolerances, key, number)

    fields = _read_fields(by_section["fields"], chart.n)

    return RunConfig(
        chart=chart,
        mode=mode,
        out=out,
        e_given=e_given,
        tolerances=tolerances,
        fields=fields,
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

