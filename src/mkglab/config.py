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

run_config_hash gives the reproducibility hash embedded in every output
file header.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Malformed or invalid configuration; message lists every problem."""


_SCHEMA = {
    "grid": {
        "r_max": (float, 400.0),
        "n_cells": (int, 8000),
        "ghost_count": (int, 2),
    },
    "data": {
        "family": (str, "gaussian"),          # gaussian | bump | polygauss | file
        "amplitude": (float, 0.01),
        "width": (float, 1.0),
        "power": (int, 2),                     # polygauss even power
        "phi0_file": (str, ""),
        "phidot_file": (str, ""),
        "phidot_scale": (float, 1.0),          # phi0_dot = i * scale * profile
        "ar_family": (str, "none"),            # none | polygauss | file
        "ar_amplitude": (float, 0.0),
        "ar_width": (float, 1.0),
        "ar_power": (int, 1),                  # odd power keeps ar odd
        "ar_file": (str, ""),
        "ardot_amplitude": (float, 0.0),
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
        "stencil_spacing_cells": (int, 2),
        "domain_frac": (float, 0.95),
    },
    "interior": {
        "y_list": (list, [0.1, 0.3, 0.5]),
        "t_list": (list, [100.0, 200.0, 300.0]),
    },
    "tolerances": {
        "quad_abs": (float, 1e-8),
        "tail_rel": (float, 1e-8),
        "al_limit_rel": (float, 0.05),
        "interior_rel": (float, 0.10),
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
    tolerances: dict = field(default_factory=dict)
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
            if not raw:
                return []
            return [float(tok) for tok in raw.replace(",", " ").split()]
        if typ is int:
            v = int(raw)
            return v
        if typ is float:
            return float(raw)
        return raw
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
                section = None
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, raw = (tok.strip() for tok in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
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
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Every constraint violation, exhaustively."""
    errs = []
    g, w, sch = cfg.grid, cfg.weights, cfg.scheme
    if g["r_max"] <= 0:
        errs.append(f"grid.r_max must be positive, got {g['r_max']}")
    if g["n_cells"] < 16:
        errs.append(f"grid.n_cells must be >= 16, got {g['n_cells']}")
    if g["ghost_count"] < 2:
        errs.append(f"grid.ghost_count must be >= 2, got {g['ghost_count']}")
    if not (0.5 < w["s"] < 1.0):
        errs.append(f"weights.s must satisfy 1/2 < s < 1, got {w['s']}")
    if not (0.0 < w["gamma"]):
        errs.append(f"weights.gamma must be positive, got {w['gamma']}")
    elif not (w["s"] + w["gamma"] < 1.5):
        errs.append(
            f"weights must satisfy s + gamma < 3/2, got {w['s'] + w['gamma']}")
    if not (0.0 < sch["cfl"] <= 0.9):
        errs.append(f"scheme.cfl must satisfy 0 < cfl <= 0.9, got {sch['cfl']}")
    if sch["boundary"] not in ("sommerfeld", "none"):
        errs.append(f"scheme.boundary must be sommerfeld or none, got {sch['boundary']!r}")
    if sch["boundary"] == "none" and sch["t_end"] > 0.9 * g["r_max"]:
        errs.append(
            f"causality shield: t_end = {sch['t_end']} > 0.9 r_max = "
            f"{0.9 * g['r_max']} requires a boundary condition")
    if sch["t_end"] <= 0:
        errs.append(f"scheme.t_end must be positive, got {sch['t_end']}")
    if sch["monitor_stride"] < 1:
        errs.append("scheme.monitor_stride must be >= 1")
    fam = cfg.data["family"]
    if fam not in ("gaussian", "bump", "polygauss", "file"):
        errs.append(f"data.family must be gaussian|bump|polygauss|file, got {fam!r}")
    if fam == "file" and not cfg.data["phi0_file"]:
        errs.append("data.family = file requires data.phi0_file")
    if not cfg.data["width"] > 0.0:
        errs.append(f"data.width must be positive, got {cfg.data['width']}")
    if cfg.data["ar_family"] not in ("none", "polygauss", "file"):
        errs.append(f"data.ar_family must be none|polygauss|file, got {cfg.data['ar_family']!r}")
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
    if ext["stencil_spacing_cells"] < 1:
        errs.append("extraction.stencil_spacing_cells must be >= 1, got "
                    f"{ext['stencil_spacing_cells']}")
    if not all(0.0 < f <= 1.0 for f in ext["t_fracs"]):
        errs.append("extraction.t_fracs must lie in (0, 1]")
    if len(set(ext["t_fracs"])) < 2:
        errs.append("extraction.t_fracs needs at least two distinct entries "
                    f"(the radiation table needs two slices), got {ext['t_fracs']}")
    if not (0.0 < ext["domain_frac"] <= 1.0):
        errs.append("extraction.domain_frac must lie in (0, 1]")
    for y in cfg.interior["y_list"]:
        if not (0.0 < y < 1.0):
            errs.append(f"interior.y_list entries must lie in (0, 1), got {y}")
    for t in cfg.interior["t_list"]:
        if t <= 0.0:
            errs.append(f"interior.t_list entries must be positive, got {t}")
        elif t > sch["t_end"]:
            errs.append(f"interior.t_list entry {t} exceeds t_end = {sch['t_end']}")
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
