"""Declarative run configuration: sectioned plain-text format.

The format is INI-like and intentionally strict: unknown keys and
duplicate keys are hard errors with line numbers, so configs stay
archivable and diffable.  parse_config validates every constraint and
reports all violations at once.

    [grid]
    r_max = 400.0
    n_cells = 8000

    [data]
    family = gaussian
    amplitude = 0.01
    ...

[data] has one family, the charged Gaussian phi0 = amplitude *
exp(-(r/width)^2) with phi0_dot = i * phidot_scale * phi0 and
ar = ar_dot = 0; family names it and accepts only gaussian.

run_config_hash gives the reproducibility hash embedded in every output
file header.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .core import Weights
from .evolution import SchemeParams, slice_step, time_grid
from .grid import RadialGrid


class ConfigError(ValueError):
    """Malformed or invalid configuration; message lists every problem."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


_SCHEMA = {
    "grid": {
        "r_max": (float, 400.0),
        "n_cells": (int, 8000),
        "ghost_count": (int, 2),
    },
    "data": {
        "family": (str, "gaussian"),          # the only family
        "amplitude": (float, 0.01),
        "width": (float, 1.0),
        "phidot_scale": (float, 1.0),          # phi0_dot = i * scale * phi0
    },
    "weights": {
        "s": (float, 0.9),
        "gamma": (float, 0.4),
    },
    "scheme": {
        "cfl": (float, 0.5),
        "t_end": (float, 320.0),
        "boundary": (str, "sommerfeld"),
        "monitor_stride": (int, 40),
    },
    "extraction": {
        "q_rays": (list, [-20.0, 0.0, 20.0]),
        "q_min": (float, -30.0),
        "q_max": (float, 30.0),
        "q_spacing_cells": (int, 2),
        "t_fracs": (list, [0.3125, 0.5, 0.65, 0.8, 0.9, 1.0]),
    },
    "interior": {
        "y_list": (list, [0.1, 0.3, 0.5]),
        "t_list": (list, [100.0, 200.0, 300.0]),
    },
    "output": {
        "directory": (str, "out"),
        "seed": (int, 12345),
    },
}


@dataclass
class RunConfig:
    grid: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    scheme: dict = field(default_factory=dict)
    extraction: dict = field(default_factory=dict)
    interior: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return getattr(self, name)


def default_config() -> RunConfig:
    cfg = RunConfig()
    for sec, keys in _SCHEMA.items():
        getattr(cfg, sec).update({k: v for k, (_, v) in keys.items()})
    return cfg


def _coerce(sec: str, key: str, raw: str, lineno: int, errors: list):
    typ, _ = _SCHEMA[sec][key]
    raw = raw.strip()
    try:
        if typ is list:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return typ(raw)
    except ValueError:
        errors.append(f"line {lineno}: cannot parse {sec}.{key} = {raw!r} as {typ.__name__}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem."""
    cfg = default_config()
    errors: list[str] = []
    seen: set[tuple[str, str]] = set()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, raw = (tok.strip() for tok in stripped.split("=", 1))
        # a key of an unknown section is named too, with its line
        if key not in _SCHEMA.get(section, ()):
            errors.append(f"line {lineno}: unknown key {section}.{key}")
            continue
        if (section, key) in seen:
            errors.append(f"line {lineno}: duplicate key {section}.{key}")
            continue
        seen.add((section, key))
        val = _coerce(section, key, raw, lineno, errors)
        if val is not None:
            cfg.section(section)[key] = val
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _non_finite(cfg: RunConfig) -> list[str]:
    """A message for each float key and list key holding a nan or an
    infinity: a nan fails every comparison and an infinity passes some, so
    no other rule can judge either."""
    errs = []
    for sec, keys in _SCHEMA.items():
        for key, (typ, _) in keys.items():
            val = cfg.section(sec)[key]
            if typ in (float, list) and not all(map(math.isfinite, val if typ is list else [val])):
                errs.append(f"{sec}.{key} must be finite, got {val}")
    return errs


def validate_config(cfg: RunConfig) -> list[str]:
    """Every constraint violation, each naming its key.

    Every float and every list entry must be finite.  A key holding a nan
    or an infinity gets one message, and those messages are all that is
    returned: no bound can judge either value.  The run's step (and each
    slice's) is computed only from positive values.  The grid, weights and
    scheme bounds are those of RadialGrid, Weights and SchemeParams; the
    rules below them are the config's own.
    """
    g, sch = cfg.grid, cfg.scheme
    errs = _non_finite(cfg)
    if errs:
        return errs
    dt = None       # the run's step, when the grid and scheme give one
    if min(g["r_max"], g["n_cells"], sch["cfl"], sch["t_end"]) > 0:
        _, dt = time_grid(sch["t_end"], sch["cfl"] * g["r_max"] / g["n_cells"])

    def step_of(t):     # the step of the slice at t (t itself without a step)
        return t if dt is None else slice_step(t, dt)
    errs += [f"grid.{e}" for e in RadialGrid.problems(**g)]
    errs += [f"weights.{e}" for e in Weights.problems(**cfg.weights)]
    errs += [f"scheme.{e}" for e in SchemeParams(**sch).validate(g["r_max"])]
    if sch["cfl"] > 0.9:
        errs.append(f"scheme.cfl must be <= 0.9, got {sch['cfl']}")
    if cfg.data["family"] != "gaussian":
        errs.append(f"data.family must be gaussian, got {cfg.data['family']!r}")
    if not cfg.data["width"] > 0.0:
        errs.append(f"data.width must be positive, got {cfg.data['width']}")
    ext = cfg.extraction
    if ext["q_min"] >= ext["q_max"]:
        errs.append("extraction.q_min must be < q_max")
    if ext["q_spacing_cells"] < 1:
        errs.append("extraction.q_spacing_cells must be >= 1")
    elif g["r_max"] > 0 and g["n_cells"] > 0:
        dq = ext["q_spacing_cells"] * g["r_max"] / g["n_cells"]
        if dq > ext["q_max"] - ext["q_min"]:
            errs.append(f"extraction.q_spacing_cells * r_max / n_cells = {dq} "
                        f"exceeds q_max - q_min = {ext['q_max'] - ext['q_min']} "
                        "(the radiation table needs two q nodes)")
    if not all(0.0 < f <= 1.0 for f in ext["t_fracs"]):
        errs.append("extraction.t_fracs must lie in (0, 1]")
    if len({step_of(f * sch["t_end"]) for f in ext["t_fracs"]}) < 2:
        errs.append("extraction.t_fracs needs entries on at least two steps "
                    f"(the radiation table needs two slices), got {ext['t_fracs']}")
    if ext["q_rays"] and min(ext["q_rays"]) < ext["q_min"]:
        errs.append(f"extraction.q_rays entry {min(ext['q_rays'])} lies below "
                    f"extraction.q_min = {ext['q_min']}, where the radiation table starts")
    for y in cfg.interior["y_list"]:
        if not (0.0 < y < 1.0):
            errs.append(f"interior.y_list entries must lie in (0, 1), got {y}")
    for t in cfg.interior["t_list"]:
        if t <= 0.0:
            errs.append(f"interior.t_list entries must be positive, got {t}")
        elif t > sch["t_end"]:
            errs.append(f"interior.t_list entry {t} exceeds t_end = {sch['t_end']}")
    # a repeated y, or two times on one step (one slice), gives two equal
    # errors, and the interior check asks the error to fall strictly in t
    ys, ts = cfg.interior["y_list"], cfg.interior["t_list"]
    for key, entries, keys in (("y_list", ys, ys),
                               ("t_list", ts, [step_of(t) for t in ts])):
        repeated = sorted({v for v, k in zip(entries, keys) if keys.count(k) > 1})
        if repeated:
            errs.append(f"interior.{key} repeats the entries {repeated}")
    # a slice is the state of the nearest step, up to dt / 2 late
    if ys and ts and dt is not None and max(ys) * (max(ts) + 0.5 * dt) > g["r_max"]:
        errs.append(f"interior.y_list entry {max(ys)} times interior.t_list "
                    f"entry {max(ts)} (+ dt/2 = {0.5 * dt:g}) lies beyond "
                    f"grid.r_max = {g['r_max']}")
    return errs


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form (sorted keys), also the hashing input."""
    lines = []
    for sec in sorted(_SCHEMA):
        lines.append(f"[{sec}]")
        d = cfg.section(sec)
        for key in sorted(_SCHEMA[sec]):
            v = d[key]
            if isinstance(v, list):
                v = ", ".join(f"{x:.17g}" for x in v)
            elif isinstance(v, float):
                v = f"{v:.17g}"
            lines.append(f"{key} = {v}")
        lines.append("")
    return "\n".join(lines)


def run_config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]
