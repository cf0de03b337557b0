"""Command-line driver.

Subcommands:
    run <config>              full pipeline, outputs + report
    converge <config> -N     refinement study (JSON on stdout, progress on stderr)
    oracle <case>             wave-oracle self tests (mms|agreement|positivity|all)
    asys <config>             asymptotic-system run + weak-null certificate
    report <dir>              re-render a stored report

Exit codes: 0 all checks passed, 1 some check failed, 2 bad input (an
unreadable or rejected config or report, a bad argument, or an output
directory that cannot be made).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import asymptotic_system as asys_mod
from .config import ConfigError, default_config, parse_config, run_config_hash
from .pipeline import (Check, agreement_check, convergence_study, gate,
                       mms_check, run_pipeline, write_failed_marker)
from .wave_oracle import RadialSource, solve_inhom_radial

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return parse_config(f.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _out_dir(path: str) -> str:
    """path, made a directory; exit 2 when it cannot be (a file is there)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"cannot make output directory {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    return path


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    out_dir = _out_dir(args.out or cfg.output["directory"])
    try:
        report = run_pipeline(cfg, out_dir=out_dir, progress=print,
                              full_criteria=args.full,
                              module_checks=not args.quick)
    except Exception as exc:
        write_failed_marker(out_dir, exc)
        print(f"PIPELINE FAILED: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _print_report(report.to_dict())
    return EXIT_PASS if report.all_passed() else EXIT_FAIL


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    # stdout holds only the study's JSON; the per-level progress goes to stderr
    study = convergence_study(cfg, levels=args.levels,
                              progress=lambda msg: print(msg, file=sys.stderr))
    print(json.dumps(study, indent=1, default=str))
    ok = not study["flags"] and all(
        info.get("status") == "ok" for info in study["levels"])
    return EXIT_PASS if ok else EXIT_FAIL


def _positivity_check() -> Check:
    """Duhamel solution of a positive source stays >= 0 at nine points."""
    src = RadialSource(F=lambda t, r: np.exp(-((t - 1) ** 2) - (r - 2.0) ** 2))
    neg = min(solve_inhom_radial(src, t, r, fast=True)
              for t in (1.0, 3.0, 6.0) for r in (0.5, 2.0, 5.0))
    return gate("oracle_positivity", neg)


# mms and agreement are the pipeline's checks, agreement with its seed
ORACLES = {
    "mms": mms_check,
    "agreement": lambda: agreement_check(default_config().output["seed"]),
    "positivity": _positivity_check,
}


def cmd_oracle(args) -> int:
    rows = [check().row() for name, check in ORACLES.items()
            if args.case in (name, "all")]
    for row in rows:
        _print_check(row)
    return EXIT_PASS if all(row["passed"] for row in rows) else EXIT_FAIL


def cmd_asys(args) -> int:
    cfg = _load_config(args.config)
    amp = cfg.data["amplitude"]
    q_grid = np.linspace(cfg.extraction["q_min"], cfg.extraction["q_max"], 1201)
    phi0 = amp * np.exp(-q_grid ** 2) * (q_grid / 2.0 + 0.25j)
    a_l = amp ** 2 * np.sqrt(np.pi / 2.0) / 8.0
    st = asys_mod.AsymState.from_phi0(q_grid, phi0, A_L_param=a_l)
    try:
        # the step count is checked before s_end / ds is rounded below
        asys_mod._step_count(st.s, args.s_end, args.ds)
        _, hist = asys_mod.integrate(
            st, args.s_end, args.ds,
            record_every=max(1, int(round(args.s_end / (10.0 * args.ds)))))
        cert = asys_mod.weak_null_certificate(hist, args.ds)
    except ValueError as exc:
        print(f"asys: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    path = os.path.join(_out_dir(args.out or cfg.output["directory"]), "asys.csv")
    with open(path, "w") as f:
        f.write(f"# mkglab asys output, config_hash={run_config_hash(cfg)}\n")
        f.write("q,s,absP,Re_Phi,Im_Phi,A_Lbar\n")
        for stt in hist:
            phi = stt.phi()
            alb = stt.A_Lbar()
            for i in range(0, len(q_grid), 40):
                f.write(f"{q_grid[i]:.17g},{stt.s:.17g},{abs(stt.P[i]):.17g},"
                        f"{phi[i].real:.17g},{phi[i].imag:.17g},{alb[i]:.17g}\n")
    print(json.dumps(cert, indent=1))
    print(f"wrote {path}")
    return EXIT_PASS if cert["passed"] else EXIT_FAIL


def cmd_report(args) -> int:
    path = os.path.join(args.dir, "report.json")
    try:
        with open(path, encoding="utf-8") as f:
            rep = json.load(f)
    except (OSError, ValueError) as exc:    # ValueError: not JSON, not UTF-8
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(rep, dict):
        print(f"{path} holds no JSON object", file=sys.stderr)
        return EXIT_CONFIG
    missing = _missing_report_key(rep)
    if missing:
        print(f"{path} is not a report: it lacks {missing}", file=sys.stderr)
        return EXIT_CONFIG
    _print_report(rep)
    return EXIT_PASS if rep.get("all_passed") else EXIT_FAIL


def _missing_report_key(rep: dict) -> str | None:
    """The first value _print_report reads that rep lacks (or holds as no
    number where it formats one), named by its path; None when it has all."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    for key in ("config_hash", "charge_Q", "checks"):
        if key not in rep:
            return key
    if not number(rep["charge_Q"]):
        return "a number at charge_Q"
    if not isinstance(rep["checks"], list):
        return "a list at checks"
    for i, c in enumerate(rep["checks"]):
        if not isinstance(c, dict):
            return f"an object at checks[{i}]"
        for key in ("id", "passed", "measured", "tolerance", "description"):
            if key not in c:
                return f"checks[{i}].{key}"
        for key in ("measured", "tolerance"):
            if not number(c[key]):
                return f"a number at checks[{i}].{key}"
    return None


def _print_report(rep: dict) -> None:
    print(f"config hash: {rep['config_hash']}")
    print(f"charge Q = {rep['charge_Q']:.10e}")
    for c in rep["checks"]:
        _print_check(c)
    print("ALL PASSED" if rep.get("all_passed") else "SOME CHECKS FAILED")


def _print_check(c: dict) -> None:
    status = "PASS" if c["passed"] else "FAIL"
    print(f"[{status}] {c['id']}: measured {c['measured']:.6g} "
          f"(tolerance {c['tolerance']:.6g}) - {c['description']}")


def _level_count(text: str) -> int:
    """--levels as an int >= 2: an order needs two levels."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"needs >= 2 levels, got {n}")
    return n


def _positive_float(text: str) -> float:
    """--s-end and --ds as a finite float > 0."""
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"needs a positive finite number, got {text}")
    return x


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mkglab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run the full pipeline")
    pr.add_argument("config")
    pr.add_argument("--out", default=None)
    pr.add_argument("--full", action="store_true",
                    help="include the domain-doubling envelope companion run")
    pr.add_argument("--quick", action="store_true",
                    help="skip the oracle/kernel/convergence spot checks")
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("converge", help="grid refinement study")
    pc.add_argument("config")
    pc.add_argument("--levels", "-N", type=_level_count, default=3)
    pc.set_defaults(func=cmd_converge)

    po = sub.add_parser("oracle", help="wave-oracle self tests")
    po.add_argument("case", nargs="?", default="all", choices=(*ORACLES, "all"))
    po.set_defaults(func=cmd_oracle)

    pa = sub.add_parser("asys", help="asymptotic-system run")
    pa.add_argument("config")
    pa.add_argument("--s-end", type=_positive_float, default=50.0)
    pa.add_argument("--ds", type=_positive_float, default=1e-2)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_asys)

    pp = sub.add_parser("report", help="re-render a stored report")
    pp.add_argument("dir")
    pp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
