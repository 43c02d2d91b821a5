"""Config-file grammar, validation, and defaulting.

The format is a line-based key-value tree with mandatory unit suffixes on
every dimensional quantity (frequencies are cyclic: "kappa = 26 kHz" means
kappa/2pi = 26 kHz). Sections group related keys; scan axes live under
[scan]. Example:

    [resonator]
    omega_r = 6 GHz
    L_r     = 2 nH
    kappa   = 26 kHz

    [loop]
    r_loop  = 0.4 um
    I_p     = 800 nA
    Delta   = 6 GHz

    [scan]
    axis r_loop = linspace 0.1 um to 1.0 um points 32
    axis tau    = list 0.5, 5, 10, 15, 20 us

    [output]
    products = spectrum, peaks

Bare numbers are accepted only for dimensionless keys; a dimensional key
without a unit is a validation error, as is a unit of the wrong dimension.
The value parsers raise without a location; _parse_from adds it, so every
error of a value starts with `line N: ` or with `override key=value: `.
The full grammar, key table and defaults are documented in the README;
AXES defines the scan axes, and ScanConfig.point applies an axis value.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from numbers import Real
from typing import get_args

from .couplings import LoopParams, NVParams, ResonatorParams, static_bias_field
from .errors import NonpositiveDistance, ParseError, SpinbusError, ValidationError
from .model import (
    NVMode,
    NVRelaxation,
    PCQRelaxation,
    RateConvention,
    SpectrumMode,
    validate_weights,
)
from .units import TWO_PI, UNIT_TABLE, to_unit


def _n_fock(text: str) -> int | None:
    return None if text == "adaptive" else int(text)


def _weights(text: str) -> tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 3:
        raise ValidationError("weights needs exactly three entries")
    return tuple(_parse_fraction(t) for t in tokens)


def _d_rule(text: str) -> str | float:
    if text == "r_loop":
        return text
    d = parse_quantity(text, "length")
    if not d > 0.0:
        raise NonpositiveDistance(f"d_rule must be positive, got {text!r}")
    return d


def _products(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


# (section, key) -> (kind, default, echo unit). The key names the field it
# sets in ResonatorParams, LoopParams, NVParams, SolverSettings or
# ScanConfig. A string kind is a UNIT_TABLE dimension: the value needs a unit
# of it, and frequencies, cyclic in the config, are stored angular. A
# callable kind parses a bare value. The default, in config units, is given
# only where no dataclass field default applies; value-dependent defaults
# (zeta, Delta, B_bias) are set in build_scan_config. --echo shows the keys
# in table order, a frequency cyclic as <key>/2pi, and a unitless value as
# stored; Q (a cross-check of kappa) and products have no echo unit.
KEY_TABLE: dict[tuple[str, str], tuple] = {
    ("resonator", "omega_r"): ("frequency", 6e9, "GHz"),
    ("resonator", "L_r"): ("inductance", 2e-9, "nH"),
    ("resonator", "kappa"): ("frequency", 26e3, "kHz"),
    ("resonator", "Q"): (float, None, None),
    ("resonator", "zeta"): ("frequency", None, "kHz"),
    ("loop", "r_loop"): ("length", 0.4e-6, "um"),
    ("loop", "I_p"): ("current", 600e-9, "nA"),
    ("loop", "Delta"): ("frequency", None, "GHz"),
    ("loop", "n_turns"): (int, None, ""),
    ("loop", "Phi_x"): ("flux", None, "Phi0"),
    ("loop", "T1_pcq"): ("time", None, "us"),
    ("loop", "T2_pcq"): ("time", None, "us"),
    ("nv", "D"): ("frequency", None, "MHz"),
    ("nv", "slope"): ("slope", None, "GHz/T"),
    ("nv", "B_bias"): ("field", None, "G"),
    ("nv", "T1_nv"): ("time", None, "ms"),
    ("nv", "T2_nv"): ("time", None, "us"),
    ("solver", "n_fock"): (_n_fock, None, ""),
    ("solver", "n_fock_start"): (int, None, ""),
    ("solver", "n_fock_max"): (int, None, ""),
    ("solver", "truncation_tol"): (float, None, ""),
    ("solver", "rate_convention"): (str, None, ""),
    ("solver", "nv_relaxation"): (str, None, ""),
    ("solver", "pcq_relaxation"): (str, None, ""),
    ("solver", "nv_mode"): (str, None, ""),
    ("solver", "weights"): (_weights, None, ""),
    ("solver", "spectrum_mode"): (str, None, ""),
    ("solver", "grid_points"): (int, None, ""),
    ("solver", "grid_span_kappa"): (float, None, ""),
    ("solver", "dip_fraction"): (float, None, ""),
    ("solver", "d_rule"): (_d_rule, None, "um"),
    ("output", "products"): (_products, None, None),
}

# Scan axes: name -> (dimension of the values, {loop field: scale}). A value
# sets each field to itself, times the base loop's field the scale names if
# any (epsilon sets T2_pcq = epsilon * T1_pcq). d sets no loop field: it is
# the loop-conductor distance, in place of the d rule.
AXES: dict[str, tuple[str, dict[str, str | None]]] = {
    **{key: (KEY_TABLE[("loop", key)][0], {key: None})
       for key in ("r_loop", "I_p", "T1_pcq", "T2_pcq")},
    "n_turns": ("none", {"n_turns": None}),
    "tau": ("time", {"T1_pcq": None, "T2_pcq": None}),
    "epsilon": ("none", {"T2_pcq": "T1_pcq"}),
    "d": ("length", {}),
}

_NUMBER_UNIT = re.compile(
    r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z][A-Za-z0-9/]*)?$"
)
_FRACTION = re.compile(r"^(\d+)\s*/\s*(\d+)$")


def parse_quantity(text: str, dimension: str) -> float:
    """Parse '<number> [unit]' into SI, enforcing the key's dimension."""
    text = text.strip()
    m = _NUMBER_UNIT.match(text)
    if not m:
        raise ParseError(f"cannot parse quantity {text!r}")
    return _in_si(m, dimension)


def _in_si(m: re.Match, dimension: str, unit: str = "") -> float:
    """The SI value of a _NUMBER_UNIT match, with `unit` for a bare number."""
    text = m.group(0)
    value = float(m.group(1))
    unit = m.group(2) or unit
    if dimension == "none":
        if unit:
            raise ValidationError(f"dimensionless key given unit {unit!r}")
        return value
    if not unit:
        raise ValidationError(f"physical quantity {text!r} needs a unit")
    if unit not in UNIT_TABLE:
        raise ParseError(f"unknown unit {unit!r}")
    dim, factor = UNIT_TABLE[unit]
    if dim != dimension:
        raise ValidationError(
            f"unit {unit!r} has dimension {dim!r}, expected {dimension!r}")
    return value * factor


def _parse_fraction(token: str) -> float:
    m = _FRACTION.match(token)
    if m:
        return float(m.group(1)) / float(m.group(2))
    return float(token)


@dataclass(frozen=True)
class ScanAxis:
    """One swept parameter: SI values plus the unit the config used."""

    name: str
    values: tuple[float, ...]
    unit: str = ""

    def __post_init__(self):
        if self.name not in AXES:
            raise ValidationError(
                f"unknown scan axis {self.name!r}; valid: "
                f"{sorted(AXES)}"
            )
        if len(self.values) == 0:
            raise ValidationError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs with their documented defaults."""

    n_fock: int | None = None          # None = adaptive
    n_fock_start: int = 4
    n_fock_max: int = 30
    truncation_tol: float = 1e-3
    rate_convention: str = "cyclic"
    nv_relaxation: str = "as_printed"
    pcq_relaxation: str = "lowering"
    nv_mode: str = "sectors"
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    spectrum_mode: str = "incoherent"
    grid_points: int = 2001
    grid_span_kappa: float = 20.0
    dip_fraction: float = 0.1
    d_rule: str | float = "r_loop"     # or the distance in meters

    def __post_init__(self):
        for key, allowed in (("rate_convention", RateConvention),
                             ("nv_relaxation", NVRelaxation),
                             ("pcq_relaxation", PCQRelaxation),
                             ("nv_mode", NVMode),
                             ("spectrum_mode", SpectrumMode)):
            value = getattr(self, key)
            if value not in get_args(allowed):
                raise ValidationError(f"bad {key} {value!r}")
        if self.n_fock is not None and self.n_fock < 2:
            raise ValidationError("n_fock must be at least 2")
        if self.n_fock_start < 2:
            raise ValidationError("n_fock_start must be at least 2")
        if self.n_fock_max < self.n_fock_start + 2:
            # the truncation search compares N with N + 2
            raise ValidationError(
                "n_fock_max must be at least n_fock_start + 2")
        if not self.truncation_tol > 0.0:
            raise ValidationError("truncation_tol must be positive")
        if not self.grid_span_kappa > 0.0:
            raise ValidationError("grid_span_kappa must be positive")
        if self.grid_points < 16:
            raise ValidationError("grid_points must be at least 16")
        if not 0.0 < self.dip_fraction < 1.0:
            raise ValidationError("dip_fraction must lie in (0, 1)")
        if self.d_rule != "r_loop":
            if not isinstance(self.d_rule, Real) or isinstance(self.d_rule, bool):
                raise ValidationError(f"bad d_rule {self.d_rule!r}")
            if not self.d_rule > 0.0:
                raise NonpositiveDistance(
                    f"d_rule must be positive, got {self.d_rule!r}")
        validate_weights(self.weights)

    def distance_for(self, r_loop: float) -> float:
        return r_loop if self.d_rule == "r_loop" else self.d_rule


@dataclass(frozen=True)
class ScanConfig:
    """Fully validated, fully defaulted scan description."""

    resonator: ResonatorParams
    loop: LoopParams
    nv: NVParams
    solver: SolverSettings
    axes: tuple[ScanAxis, ...] = ()
    products: tuple[str, ...] = ("couplings",)
    config_hash: str = ""

    def __post_init__(self):
        for p in self.products:
            if p not in ("couplings", "spectrum", "peaks"):
                raise ValidationError(f"unknown product {p!r}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate scan axes")

    def point(self, axis: str, value: float) -> tuple[LoopParams, float]:
        """(loop, d) at one scan point: the base loop with the fields AXES
        gives for `axis` set from `value`, and the distance d, `value` on a
        d axis and the d rule's otherwise. An unknown axis, or a value
        LoopParams rejects (n_turns = 1.5, T2 > 2 T1), is a ValidationError."""
        if axis not in AXES:
            raise ValidationError(
                f"axis {axis!r} not usable in a spectrum scan")
        changes = {field: value if scale is None
                   else value * getattr(self.loop, scale)
                   for field, scale in AXES[axis][1].items()}
        loop = _construct(replace, self.loop, **changes)
        d = value if axis == "d" else self.solver.distance_for(loop.r_loop)
        return loop, d

    def describe(self) -> str:
        """Echo of the resolved configuration in presentation units."""
        lines = []
        for (section, key), (kind, _, unit) in KEY_TABLE.items():
            if unit is None:
                continue
            if f"[{section}]" not in lines:
                lines.append(f"[{section}]")
            label = f"{key}/2pi" if kind == "frequency" else key
            held = getattr(getattr(self, section), key)
            lines.append(f"  {label} = {_echo_value(section, key, held)}")
        lines.append("[scan]")
        for ax in self.axes:
            shown = ", ".join(f"{to_unit(v, ax.unit):.6g}" for v in ax.values[:6])
            if len(ax.values) > 6:
                shown += ", ..."
            lines.append(f"  axis {ax.name} = [{shown}] {ax.unit or '(1)'}")
        lines.append("[output]")
        lines.append(f"  products = {', '.join(self.products)}")
        return "\n".join(lines)


def _echo_value(section: str, key: str, value) -> str:
    """A value as held, as config text that _parse_value reads back to it."""
    kind, _, unit = KEY_TABLE[(section, key)]
    if value is None:             # n_fock
        return "adaptive"
    if isinstance(value, tuple):  # weights
        return " ".join(_shortest(v, v, _parse_fraction) for v in value)
    if not isinstance(value, float):
        return str(value)
    suffix = f" {unit}" if unit else ""
    shown = to_unit(value / TWO_PI if kind == "frequency" else value, unit)
    return _shortest(value, shown, lambda text: _parse_value(
        section, key, text + suffix)) + suffix


def _shortest(value: float, shown: float, parse) -> str:
    """`shown` to the fewest significant digits, 6 or more, that `parse`
    reads back to `value` (17 if none do)."""
    for digits in range(6, 18):
        text = f"{shown:.{digits}g}"
        if parse(text) == value:
            break
    return text


_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")
_SECTIONS = {section for section, _ in KEY_TABLE} | {"scan"}


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


# A value's source is its line number, or the text of the override that set
# it ("override key=value"); axis specs are (name, spec text, source).
Source = int | str
AxisSpecs = list[tuple[str, str, Source]]


def parse_config_text(text: str) -> tuple[dict, AxisSpecs]:
    """First stage: the raw (section, key) -> (value text, source) tree.

    Returns (tree, axis specs); semantic validation happens in
    build_scan_config so CLI overrides can edit the tree in between.
    """
    tree: dict[tuple[str, str], tuple[str, Source]] = {}
    axes: AxisSpecs = []
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            raise ParseError("key outside of any [section]", line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ParseError(f"empty value for key {key!r}", line_no)
        if section == "scan":
            if not key.startswith("axis "):
                raise ParseError("scan section entries look like "
                                 "'axis <name> = <spec>'", line_no)
            axes.append((key[5:].strip(), value, line_no))
            continue
        if (section, key) not in KEY_TABLE:
            raise ParseError(f"unknown key {key!r} in section [{section}]",
                             line_no)
        tree[(section, key)] = (value, line_no)
    return tree, axes


def _parse_axis_spec(name: str, spec: str) -> ScanAxis:
    if name not in AXES:
        raise ValidationError(f"unknown scan axis {name!r}")
    dim = AXES[name][0]
    parts = spec.split(None, 1)
    kind = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if kind == "linspace":
        m = re.match(r"^(.*?)\s+to\s+(.*?)\s+points\s+(\d+)$", rest)
        if not m:
            raise ParseError(
                "linspace axis looks like 'linspace <lo> to <hi> points <n>'")
        lo = parse_quantity(m.group(1), dim)
        hi = parse_quantity(m.group(2), dim)
        n = int(m.group(3))
        if n < 1:
            raise ValidationError("axis needs at least one point")
        if n == 1:
            values = (lo,)
        else:
            step = (hi - lo) / (n - 1)
            values = tuple(lo + k * step for k in range(n))
        unit = _unit_of(m.group(2))
        return ScanAxis(name, values, unit)
    if kind == "list":
        tokens = [t.strip() for t in rest.split(",") if t.strip()]
        if not tokens:
            raise ParseError("empty axis list")
        # a bare value takes the last value's unit: "0.5, 5, 20 us", so the
        # last value is checked first
        matches = {}
        for t in tokens[-1:] + tokens[:-1]:
            matches[t] = _NUMBER_UNIT.match(t)
            if not matches[t]:
                raise ParseError(f"cannot parse axis value {t!r}")
        unit = matches[tokens[-1]].group(2) or ""
        values = tuple(_in_si(matches[t], dim, unit) for t in tokens)
        return ScanAxis(name, values, unit)
    raise ParseError(f"axis spec must start with 'linspace' or 'list', "
                     f"got {kind!r}")


def _unit_of(text: str) -> str:
    m = _NUMBER_UNIT.match(text.strip())
    return (m.group(2) or "") if m else ""


def _stored(kind, value):
    """A value in config units as its field stores it: SI, with angular
    frequencies."""
    return TWO_PI * value if kind == "frequency" else value


def _parse_value(section: str, key: str, raw: str):
    kind, _, _ = KEY_TABLE[(section, key)]
    if isinstance(kind, str):
        return _stored(kind, parse_quantity(raw, kind))
    try:
        return kind(raw)
    except SpinbusError:
        raise
    except ValueError:
        raise ParseError(f"cannot parse {key}={raw!r}") from None


def _parse_from(source: Source, parse, *args):
    """parse(*args) for a value from `source`, the one place that says where
    a bad value came from: its error gets `line N: ` in front for config
    line N (a ParseError also gets line_no = N), or the override's own text,
    `override key=value: `."""
    try:
        return parse(*args)
    except SpinbusError as exc:
        if isinstance(source, str):
            raise exc.in_context(source) from None
        error = exc.in_context(f"line {source}")
        if isinstance(error, ParseError):
            error.line_no = source
        raise error from None


def _construct(build, *args, **values):
    try:
        return build(*args, **values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def build_scan_config(tree: dict, axis_specs: AxisSpecs
                      ) -> ScanConfig:
    """Second stage: defaults, unit conversion, invariant validation.

    Only the keys the config sets are passed on, so every other field keeps
    its dataclass default or its KEY_TABLE default.
    """
    values: dict[str, dict] = {section: {} for section, _ in KEY_TABLE}
    for (section, key), (kind, default, _) in KEY_TABLE.items():
        if default is not None:
            values[section][key] = _stored(kind, default)
    for (section, key), (raw, source) in tree.items():
        values[section][key] = _parse_from(source, _parse_value, section, key,
                                           raw)

    values["resonator"].setdefault("zeta", 2.0 * values["resonator"]["kappa"])
    resonator = _construct(ResonatorParams, **values["resonator"])

    values["loop"].setdefault("Delta", resonator.omega_r)
    loop = _construct(LoopParams, **values["loop"])

    # B_bias defaults to the half-flux-quantum bias field of the loop
    values["nv"].setdefault("B_bias", static_bias_field(loop))
    nv = _construct(NVParams, **values["nv"])

    axes = tuple(_parse_from(source, _parse_axis_spec, name, spec)
                 for name, spec, source in axis_specs)
    canonical = _canonical_text(tree, axis_specs)
    config_hash = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    return ScanConfig(resonator=resonator, loop=loop, nv=nv,
                      solver=SolverSettings(**values["solver"]), axes=axes,
                      config_hash=config_hash, **values["output"])


def _canonical_text(tree: dict, axis_specs: AxisSpecs) -> str:
    entries = sorted((f"{s}.{k}", v) for (s, k), (v, _) in tree.items())
    lines = [f"{k} = {v}" for k, v in entries]
    lines += [f"scan.axis.{name} = {spec}" for name, spec in
              sorted((name, spec) for name, spec, _ in axis_specs)]
    return "\n".join(lines)


def apply_overrides(tree: dict, axis_specs: AxisSpecs,
                    overrides: list[str]) -> tuple[dict, list]:
    """Apply CLI 'key=value' overrides to the raw tree.

    A key naming a declared scan axis (e.g. tau=20us on a tau scan)
    collapses that axis to a single point; 'section.key' addresses a tree
    entry directly; a bare key resolves to its unique section, or becomes a
    new single-point axis for axis-only names like tau/epsilon.
    """
    tree = dict(tree)
    axis_specs = list(axis_specs)
    for ov in overrides:
        if "=" not in ov:
            raise ValidationError(f"override {ov!r} must look like key=value")
        key, _, value = ov.partition("=")
        key = key.strip()
        value = value.strip()
        source = f"override {key}={value}"
        axis_declared = any(n == key for n, _, _ in axis_specs)
        if key in AXES and axis_declared:
            axis_specs = [(n, s, ln) for n, s, ln in axis_specs if n != key]
            axis_specs.append((key, f"list {value}", source))
            continue
        if "." in key:
            section, _, k = key.partition(".")
        else:
            matches = [(s, kk) for (s, kk) in KEY_TABLE if kk == key]
            if len(matches) == 1:
                section, k = matches[0]
            elif key in AXES:
                axis_specs.append((key, f"list {value}", source))
                continue
            else:
                raise ValidationError(
                    f"override key {key!r} is ambiguous or unknown; "
                    f"use section.key")
        if (section, k) not in KEY_TABLE:
            raise ValidationError(f"unknown override target {section}.{k}")
        tree[(section, k)] = (value, source)
    return tree, axis_specs


def load_config(path: str, overrides: list[str] | None = None) -> ScanConfig:
    """Parse, override, validate; errors carry line/field information."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    return load_config_text(text, overrides)


def load_config_text(text: str, overrides: list[str] | None = None) -> ScanConfig:
    tree, axis_specs = parse_config_text(text)
    if overrides:
        tree, axis_specs = apply_overrides(tree, axis_specs, overrides)
    return build_scan_config(tree, axis_specs)
