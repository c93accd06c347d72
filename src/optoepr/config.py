"""Flat key=value configuration with explicit unit suffixes.

One pair per line, ``#`` comments, a ``defaults: paper`` directive that
preloads the default operating point, and command-line ``--set key=value``
overrides that replace file values.  Linear-frequency keys (``_hz``) are
converted by 2*pi and drive powers (``_w``) to drive amplitudes
(:func:`~optoepr.params.power_to_amplitude`) at this boundary; everything
downstream is angular and holds the drive as amplitudes.

The drive can be given two ways (mutually exclusive):

* target style - ``target_alpha``, ``target_delta_hz`` (or ``_rads``) and
  one of ``target_d_over_gamma`` / ``target_d_hz`` / ``target_d_rads``; the
  loader back-solves detunings and amplitudes for that operating point.
* direct style - ``delta1_*``/``delta2_*`` bare detunings, stored as given,
  or ``omega_l_*``/``omega_lp_*`` laser frequencies, converted once to
  detunings (:func:`~optoepr.params.detunings`), plus either
  ``drive_omega1_rads``/``drive_omega2_rads`` or ``p1_w``/``p2_w``.

Serialization writes the fully resolved configuration in direct style, with
the detunings (``delta*_rads``) and amplitudes (``drive_omega*_rads``) the
drive holds whichever style it was loaded from, to 17 significant digits,
which round-trips binary64 exactly, so parse(serialize(config)) == config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, ParseError, UnitError, UnknownKey
from .params import (TWO_PI, DriveSpec, PhysicalParams, detunings, gamma_m_from_q,
                     power_to_amplitude)
from .steady_state import operating_point_params

FORMATS = ("csv", "jsonlines")

_HZ = TWO_PI

# key -> (internal quantity, conversion factor to angular/SI units)
_PHYSICAL_KEYS = {
    "omega_p_hz": ("omega_p", _HZ), "omega_p_rads": ("omega_p", 1.0),
    "omega_m_hz": ("omega_m", _HZ), "omega_m_rads": ("omega_m", 1.0),
    "gamma_hz": ("gamma", _HZ), "gamma_rads": ("gamma", 1.0),
    "gamma_m_hz": ("gamma_m", _HZ), "gamma_m_rads": ("gamma_m", 1.0),
    "q_factor": ("q_factor", 1.0),
    "nu_hz": ("nu", _HZ), "nu_rads": ("nu", 1.0),
    "eta": ("eta", 1.0),
    "temperature_k": ("T", 1.0),
    "radius_m": ("R", 1.0),
    "n0": ("n0", 1.0),
    "target_alpha": ("target_alpha", 1.0),
    "target_delta_hz": ("target_delta", _HZ), "target_delta_rads": ("target_delta", 1.0),
    "target_d_hz": ("target_d", _HZ), "target_d_rads": ("target_d", 1.0),
    "target_d_over_gamma": ("target_d_over_gamma", 1.0),
    "delta1_hz": ("delta1", _HZ), "delta1_rads": ("delta1", 1.0),
    "delta2_hz": ("delta2", _HZ), "delta2_rads": ("delta2", 1.0),
    "omega_l_hz": ("omega_l", _HZ), "omega_l_rads": ("omega_l", 1.0),
    "omega_lp_hz": ("omega_lp", _HZ), "omega_lp_rads": ("omega_lp", 1.0),
    "drive_omega1_rads": ("drive_omega1", 1.0),
    "drive_omega2_rads": ("drive_omega2", 1.0),
    "p1_w": ("p1", 1.0),
    "p2_w": ("p2", 1.0),
}
_RUN_KEYS = ("format", "out")

# The key serialize_config writes each field of PhysicalParams and of its DriveSpec under.
_CANONICAL_KEYS = (
    ("omega_p", "omega_p_rads"), ("omega_m", "omega_m_rads"), ("gamma", "gamma_rads"),
    ("gamma_m", "gamma_m_rads"), ("nu", "nu_rads"), ("eta", "eta"), ("T", "temperature_k"),
    ("R", "radius_m"), ("n0", "n0"), ("Delta_1", "delta1_rads"), ("Delta_2", "delta2_rads"),
    ("omega_1", "drive_omega1_rads"), ("omega_2", "drive_omega2_rads"),
)

# Stems that exist only with a unit suffix, in key order; used to distinguish
# UnitError from UnknownKey.
_SUFFIXED_STEMS = tuple(dict.fromkeys(
    stem for stem, _, unit in (key.rpartition("_") for key in _PHYSICAL_KEYS)
    if unit in ("hz", "rads", "k", "m", "w")))

PAPER_DEFAULTS = {
    "omega_p_hz": "3.0e14",
    "omega_m_hz": "73.5e6",
    "gamma_hz": "3.2e6",
    "q_factor": "30000",
    "nu_hz": "1.0e8",
    "eta": "1.0e-4",
    "temperature_k": "300.0",
    "radius_m": "38.0e-6",
    "n0": "1.45",
    "target_alpha": "1000.0",
    "target_delta_hz": "1.0e7",
    "target_d_over_gamma": "0.07",
}


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    output_path: str | None = None
    format: str = "csv"


def _classify(key: str):
    if key in _PHYSICAL_KEYS:
        return _PHYSICAL_KEYS[key]
    if key in _RUN_KEYS:
        return (key, None)
    for stem in _SUFFIXED_STEMS:
        if key == stem or (key.startswith(stem + "_") and key not in _PHYSICAL_KEYS):
            valid = sorted(k for k, (f, _) in _PHYSICAL_KEYS.items() if k.startswith(stem))
            raise UnitError(f"key {key!r} needs a unit suffix; valid spellings: {', '.join(valid)}")
    raise UnknownKey(f"unknown configuration key {key!r}")


def _parse_pairs(text: str):
    """Raw (key, value, line_no) pairs plus whether the paper-defaults directive appeared."""
    pairs = []
    use_paper = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        stripped = line.replace(" ", "").replace("\t", "")
        if stripped in ("defaults:paper", "defaults=paper"):
            use_paper = True
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"expected key = value, got {line!r}", line_no)
        pairs.append((key, value, line_no))
    return pairs, use_paper


def parse_config(text: str, flag_overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a configuration document with optional flag overrides.

    ``flag_overrides`` replace file values (and paper defaults); duplicate
    keys inside the file or inside the overrides are rejected.
    """
    pairs, use_paper = _parse_pairs(text)

    resolved: dict[str, str] = dict(PAPER_DEFAULTS) if use_paper else {}
    seen: dict[str, int] = {}
    for key, value, line_no in pairs:
        _classify(key)
        if key in seen:
            raise ParseError(f"duplicate key {key!r} (first at line {seen[key]})", line_no)
        seen[key] = line_no
        resolved[key] = value

    for key, value in (flag_overrides or {}).items():
        _classify(key)
        resolved[key] = str(value)

    fields: dict[str, float] = {}
    run: dict[str, str] = {}
    for key, value in resolved.items():
        name, factor = _classify(key)
        if factor is None:
            run[name] = value
            continue
        try:
            number = float(value)
        except ValueError:
            raise ParseError(f"key {key!r}: cannot parse {value!r} as a number",
                             seen.get(key))
        if not math.isfinite(number):
            raise ParameterError(f"key {key!r}: {value!r} is not a finite number")
        if name in fields:
            other = [k for k in resolved if _PHYSICAL_KEYS.get(k, (None,))[0] == name and k != key]
            raise ParseError(f"quantity {name!r} given more than once ({key!r} and {other})")
        fields[name] = number * factor

    fmt = run.get("format", "csv")
    if fmt not in FORMATS:
        raise ParseError(f"format must be one of {FORMATS}, got {fmt!r}")
    params = _build_params(fields)
    return RunConfig(params=params, output_path=run.get("out"), format=fmt)


def _require(fields: dict, *names: str):
    missing = [n for n in names if n not in fields]
    if missing:
        raise ParseError(f"missing required configuration: {', '.join(missing)}")


def _build_params(fields: dict[str, float]) -> PhysicalParams:
    _require(fields, "omega_p", "omega_m", "gamma", "nu", "eta", "T", "R", "n0")
    if ("gamma_m" in fields) == ("q_factor" in fields):
        raise ParseError("exactly one of gamma_m_* or q_factor must be given")
    gamma_m = (fields["gamma_m"] if "gamma_m" in fields
               else gamma_m_from_q(fields["omega_m"], fields["q_factor"]))

    target_keys = {"target_alpha", "target_delta", "target_d", "target_d_over_gamma"} & set(fields)
    direct_keys = {"delta1", "delta2", "omega_l", "omega_lp",
                   "drive_omega1", "drive_omega2", "p1", "p2"} & set(fields)
    if target_keys and direct_keys:
        raise ParseError("target-style and direct-style drive keys cannot be mixed")

    common = dict(
        omega_p=fields["omega_p"], omega_m=fields["omega_m"], gamma=fields["gamma"],
        gamma_m=gamma_m, nu=fields["nu"], eta=fields["eta"], T=fields["T"],
        R=fields["R"], n0=fields["n0"],
    )

    if target_keys:
        _require(fields, "target_alpha", "target_delta")
        if ("target_d" in fields) == ("target_d_over_gamma" in fields):
            raise ParseError("exactly one of target_d_* or target_d_over_gamma must be given")
        target_d = fields.get("target_d", fields.get("target_d_over_gamma", 0.0) * fields["gamma"])
        placeholder = DriveSpec(-common["omega_m"], common["omega_m"], 0.0, 0.0)
        base = PhysicalParams(drive=placeholder, **common)
        return operating_point_params(base, target_alpha=fields["target_alpha"],
                                      target_delta=fields["target_delta"], target_d=target_d)

    if "omega_l" in fields or "omega_lp" in fields:
        _require(fields, "omega_l", "omega_lp")
        if "delta1" in fields or "delta2" in fields:
            raise ParseError("give laser frequencies as omega_l/omega_lp or delta1/delta2, not both")
        delta_1, delta_2 = detunings(fields["omega_l"], fields["omega_lp"], common["omega_p"],
                                     common["nu"])
    else:
        _require(fields, "delta1", "delta2")
        delta_1, delta_2 = fields["delta1"], fields["delta2"]
    has_amp = "drive_omega1" in fields or "drive_omega2" in fields
    has_pow = "p1" in fields or "p2" in fields
    if has_amp == has_pow:
        raise ParseError("give either drive_omega1/2_rads or p1/2_w, not both/neither")
    if has_amp:
        _require(fields, "drive_omega1", "drive_omega2")
        return PhysicalParams(drive=DriveSpec(delta_1, delta_2, fields["drive_omega1"],
                                              fields["drive_omega2"]), **common)
    _require(fields, "p1", "p2")
    # the powers convert with gamma only once the undriven cavity has validated it
    unpowered = PhysicalParams(drive=DriveSpec(delta_1, delta_2, 0.0, 0.0), **common)
    omega_1, omega_2 = (power_to_amplitude(fields[p], omega_L, unpowered.gamma)
                        for p, omega_L in zip(("p1", "p2"), unpowered.laser_frequencies()))
    return unpowered.scaled(drive=DriveSpec(delta_1, delta_2, omega_1, omega_2))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize_config(config: RunConfig) -> str:
    """Canonical direct-style text; parse(serialize(c)) reproduces c exactly."""
    fields = {**vars(config.params), **vars(config.params.drive)}
    lines = ["# optoepr configuration (canonical form)"]
    lines += [f"{key} = {_fmt(fields[name])}" for name, key in _CANONICAL_KEYS]
    lines.append(f"format = {config.format}")
    if config.output_path:
        lines.append(f"out = {config.output_path}")
    return "\n".join(lines) + "\n"


def paper_default_config() -> RunConfig:
    """The default operating point as a ready-to-run configuration."""
    return parse_config("defaults: paper\n")
