"""Command-line front end.

Subcommands:
  run <config.json>          integrate a flow scenario, write trajectory.csv
                             and summary.json (exit 0 Converged, 2
                             Concentrated, 3 TimeLimit, 4 StepFailure,
                             64 config error)
  constants --n N [--json PATH]
  morse <data.json>          hypothesis gate (exit 0 satisfied / 1 not / 64)
  bubble --p COORDS --eps E [--n N] [--J J] [--out PATH]
  selftest [--n N]           named invariant suite, N = 1 or 2
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import load_scenario
from .errors import ConfigError, CRFlowError, IndexOutOfRange, TruncationLoss
from .flow import Termination, is_json_number, run as run_flow
from .morse import CriticalPoint, MorseData, sbc_check, theorem_gate

EXIT_BY_STATUS = {
    Termination.CONVERGED: 0,
    Termination.CONCENTRATED: 2,
    Termination.TIME_LIMIT: 3,
    Termination.STEP_FAILURE: 4,
}


def _fmt(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "nan"
    return f"{x:.17g}"


def _csv_header(n):
    cols = ["t", "E", "E_f", "alpha", "F2", "G2", "kw_residual", "abs_P", "eps"]
    for i in range(1, n + 2):
        cols.append(f"theta_{i}_re")
        cols.append(f"theta_{i}_im")
    cols += ["max_u", "mass_concentration"]
    return cols


def write_trajectory_csv(path, records, n):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(n)) + "\n")
        for rec in records:
            d = rec.diagnostics
            row = [rec.t, d.E, d.E_f, d.alpha, d.F2, d.G2, d.kw_residual,
                   float(np.linalg.norm(d.P)), rec.eps]
            theta = rec.theta if rec.theta is not None else [None] * (n + 1)
            for i in range(n + 1):
                t_i = theta[i]
                row.append(None if t_i is None else float(np.real(t_i)))
                row.append(None if t_i is None else float(np.imag(t_i)))
            row += [d.max_u, d.mass_concentration]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_number(entry, key, kind=(int, float)):
    """entry[key] if it is a JSON number, as an int for kind int and a float
    otherwise: int() would take 2.9 as 2 and true as 1, float() true as 1.0
    and "1.2" as 1.2."""
    value = entry[key]
    if not is_json_number(value, kind):
        want = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {want}, got {value!r}")
    return value if kind is int else float(value)


def _load_morse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    pts = tuple(
        CriticalPoint(index=_json_number(p, "index", int),
                      laplacian_sign=_json_number(p, "laplacian_sign", int),
                      f_value=_json_number(p, "f_value"),
                      location=tuple(p["location"]) if p.get("location") else None)
        for p in raw["critical_points"])
    return MorseData(n=_json_number(raw, "n", int), critical_points=pts,
                     f_max=_json_number(raw, "f_max"),
                     f_min=_json_number(raw, "f_min"))


def cmd_run(args):
    try:
        scenario = load_scenario(args.config)
        basis, f, u0 = scenario.build()
    except (ConfigError, CRFlowError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    outdir = args.output_dir or "."
    os.makedirs(outdir, exist_ok=True)     # an unwritable path fails before the flow
    try:
        result = run_flow(u0, f, scenario.flow)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    write_trajectory_csv(os.path.join(outdir, "trajectory.csv"),
                         result.records, scenario.n)
    summary = {
        "status": result.status.value,
        "message": result.message,
        "t_final": result.final_state.t,
        "E_f_final": result.final_state.diagnostics.E_f,
        "F2_final": result.final_state.diagnostics.F2,
        "max_u_final": result.final_state.diagnostics.max_u,
        "mass_concentration_final":
            result.final_state.diagnostics.mass_concentration,
    }
    if result.shadow_point is not None:
        summary["shadow_point"] = [[float(np.real(c)), float(np.imag(c))]
                                   for c in result.shadow_point]
        summary["f_at_shadow"] = result.f_at_shadow
        summary["grad_f_at_shadow"] = result.grad_f_at_shadow
        summary["sub_laplacian_f_at_shadow"] = result.lap_f_at_shadow
    fmax, fmin = float(f.values.max()), float(f.values.min())
    summary["f_ratio"] = fmax / fmin
    summary["sbc"] = sbc_check(fmax, fmin, scenario.n)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_BY_STATUS[result.status]


def cmd_constants(args):
    from .constants import all_constants

    if not 1 <= args.n <= 4:
        print("usage error: --n must be in [1, 4]", file=sys.stderr)
        return 64
    rows = all_constants(args.n)
    print(f"bubble-expansion constants, n = {args.n}, closed form")
    print(f"{'name':<5} {'value':>22} {'error est':>12}  positive")
    for est in rows:
        print(f"{est.name:<5} {est.value:>22.15g} {est.abs_error_estimate:>12.3e}"
              f"  {str(est.value > 0).lower()}")
    if args.json:
        payload = [
            {"name": est.name, "n": est.n, "value": est.value,
             "abs_error_estimate": est.abs_error_estimate,
             "positive": est.value > 0, "method": est.method}
            for est in rows]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_morse(args):
    try:
        data = _load_morse_file(args.data)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError,
            IndexOutOfRange, CRFlowError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 64
    report = theorem_gate(data)
    for line in report.lines():
        print(line)
    return 0 if report.satisfied else 1


def cmd_bubble(args):
    from .conformal import bubble
    from .spectral import build_basis

    try:
        coords = [float(v) for v in args.p.split(",")]
    except ValueError:
        print("usage error: --p expects comma-separated reals "
              "(re1,im1,...,re_{n+1},im_{n+1})", file=sys.stderr)
        return 64
    if len(coords) != 2 * (args.n + 1):
        print(f"usage error: --p needs {2 * (args.n + 1)} numbers for n = {args.n}",
              file=sys.stderr)
        return 64
    p = np.array(coords[0::2]) + 1j * np.array(coords[1::2])
    norm = np.linalg.norm(p)
    if abs(norm - 1.0) > 1e-9:
        print("usage error: --p must be a unit vector", file=sys.stderr)
        return 64
    try:
        basis = build_basis(args.n, args.J)
        field = bubble(p, args.eps, basis)
    except TruncationLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CRFlowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    path = args.out or "bubble.csv"
    with open(path, "w", encoding="utf-8") as fh:
        head = []
        for i in range(1, args.n + 2):
            head += [f"x_{i}_re", f"x_{i}_im"]
        head += ["weight", "u"]
        fh.write(",".join(head) + "\n")
        for node, w, val in zip(basis.nodes, basis.weights, field.values):
            row = []
            for c in node:
                row += [c.real, c.imag]
            row += [w, val]
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path} ({len(basis.nodes)} grid values)")
    return 0


def cmd_selftest(args):
    from .selftest import run_all

    if args.n not in (1, 2):
        print("usage error: --n must be 1 or 2", file=sys.stderr)
        return 64
    checks = run_all(n=args.n)
    worst = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<24} {detail}")
        if not ok:
            worst = 1
    return worst


def build_parser():
    ap = argparse.ArgumentParser(prog="crflow",
                                 description="Webster curvature flow laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a flow scenario")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("constants", help="bubble-expansion constants table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("morse", help="hypothesis gate on a critical-point file")
    p.add_argument("data")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("bubble", help="export bubble field values as CSV")
    p.add_argument("--p", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--J", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bubble)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:      # an output path that cannot be written
        print(f"usage error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
