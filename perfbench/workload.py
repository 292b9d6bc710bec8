"""One crflow benchmark workload, run as a closed-loop client in its own process.

`run.py` starts this file with the BLAS thread cap already in the
environment.  It imports crflow from the checkout's `src/`, times set-up and
operations, checks every output, and prints one JSON object as its last line:

  {"attempted": int, "failed": int, "metrics": {name: value}, "env": {...}}

Modes:
  --trace 0   end-to-end metrics: wall_s, setup_s, peak_rss_mb
  --trace 1   one operation with every traced layer wrapped; per-layer metrics
  --probe-steps K
              the first K accepted phase-1 steps of `concentrate`; reports the
              inclusive seconds per flow.step call at this process's thread cap
              (part of the traced run; --seconds and --trace do not apply)
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import crflow  # noqa: E402

if Path(crflow.__file__).resolve().parent != (SRC / "crflow").resolve():
    raise SystemExit(f"crflow imported from {crflow.__file__}, not from {SRC}")

import crflow.cli  # noqa: E402
import crflow.config  # noqa: E402
import crflow.conformal  # noqa: E402
import crflow.constants  # noqa: E402
import crflow.critical_points  # noqa: E402
import crflow.flow  # noqa: E402
import crflow.morse  # noqa: E402
import crflow.normalization  # noqa: E402
import crflow.presets  # noqa: E402
import crflow.spectral  # noqa: E402
from crflow.flow import FlowConfig, Termination  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 6          # extra set-ups per run, so setup_s is a median of >= 7
EF_SLACK = 1e-10        # criterion-4 monotonicity gate


def _monotone_problem(values, what):
    rises = np.diff(np.asarray(values, dtype=float))
    if rises.size and rises.max() > EF_SLACK:
        return [f"{what} rose by {rises.max():.3e} > {EF_SLACK:g}"]
    return []


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> inputs, op(inputs) -> outputs, check -> problems
# ---------------------------------------------------------------------------

# the two FlowConfigs of acceptance criterion 9
PHASE1 = dict(dt_init=0.1, t_max=30.0, record_every=400, blowup_factor=np.inf,
              mass_threshold=2.0, compute_shadow=False, max_steps=6000,
              wall_time_cap=300.0)
PHASE2 = dict(dt_init=0.05, t_max=30.0, record_every=100, blowup_factor=2.45,
              mass_threshold=0.9, concentration_rho=1.1, compute_shadow=True,
              max_steps=4000, wall_time_cap=240.0)


def phase_rotation(basis, seed):
    """Grid permutation `perm` with nodes[perm] = nodes * w^a, w = e^{2 pi i/M}.

    The grid is a simplex rule times M uniform phases per coordinate, so a
    seeded phase shift (a_0, .., a_n) of every coordinate maps it onto itself
    and values[perm] are the values of the rotated field."""
    M = 2 * basis.J + 5
    shifts = np.random.default_rng(seed).integers(0, M, size=basis.n + 1)
    perm = np.arange(len(basis.nodes)).reshape((-1,) + (M,) * (basis.n + 1))
    for axis, shift in enumerate(shifts, start=1):
        perm = np.roll(perm, -shift, axis=axis)
    perm = perm.ravel()
    if not np.allclose(basis.nodes[perm], basis.nodes * np.exp(2j * np.pi * shifts / M)):
        raise RuntimeError("quadrature grid is not a product of uniform phases")
    return perm


class Concentrate:
    """One run of the criterion-9 pipeline at n=1, J=8 on the two-peak f.

    The initial factor is criterion 9's first bubble.  The seed rotates f and
    u0 together by a phase shift that maps the grid onto itself, so each seed
    poses the same discrete problem in another frame: the inputs change, the
    amount of work does not.  Other initial factors took from about 2000 to
    more than 6000 phase-1 steps to reach t=30; criterion 9's random factor
    for seed 3 stops at max_steps=6000 before t=30."""

    def setup(self, seed):
        basis = crflow.spectral.build_basis(1, 8)
        f = crflow.presets.f_two_peak(basis)
        rng = np.random.default_rng(42)
        p = rng.normal(size=2) + 1j * rng.normal(size=2)
        p /= np.linalg.norm(p)
        u0 = crflow.flow.volume_renormalize(
            crflow.conformal.bubble(p, 0.45, basis, residual_tol=0.5))
        perm = phase_rotation(basis, seed)
        return (crflow.spectral.Field.from_values(basis, f.real_values[perm]),
                crflow.spectral.Field.from_values(basis, u0.real_values[perm]))

    def op(self, inputs):
        f, u0 = inputs
        data, _ = crflow.critical_points.find_critical_points(f)
        gate = crflow.morse.theorem_gate(data)
        if gate.k is None or gate.satisfied:
            return gate, None, None
        r1 = crflow.flow.run(u0, f, FlowConfig(**PHASE1))
        r2 = crflow.flow.run(r1.final_state.u, f, FlowConfig(**PHASE2))
        return gate, r1, r2

    def check(self, inputs, out):
        gate, r1, r2 = out
        if r1 is None:
            return [f"gate k={gate.k} satisfied={gate.satisfied}: "
                    "no solvable k with the hypotheses unmet"]
        problems = []
        if r1.status is Termination.STEP_FAILURE or r1.final_state.t < PHASE1["t_max"]:
            problems.append(f"phase 1 ended {r1.status.value} at "
                            f"t={r1.final_state.t:.3f}: {r1.message}")
        if r2.status is not Termination.CONCENTRATED or r2.shadow_point is None:
            problems.append(f"phase 2 ended {r2.status.value} "
                            f"(shadow point {r2.shadow_point is not None})")
        elif not r2.lap_f_at_shadow <= 0:
            problems.append(f"Lap_b f = {r2.lap_f_at_shadow:.3e} > 0 at the shadow")
        problems += _monotone_problem(
            [rec.diagnostics.E_f for rec in r1.records + r2.records], "E_f")
        return problems


class ConvergeN2:
    """`crflow run` on an n=2, J=4 scenario with constant f, in-process."""

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        # seeds converge after 15-24 steps; with record_every 12 every seed
        # records at step 12 and at the end, so each run makes the same three
        # diagnostics calls (with 20, a seed converging at step 20 makes two)
        scenario = {"n": 2, "J": 4, "f_spec": "constant",
                    "u0_spec": {"type": "random", "amplitude": 0.08},
                    "seed": seed, "dt_init": 0.1, "record_every": 12,
                    "compute_shadow": True}
        path = self.workdir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        sc = crflow.config.load_scenario(str(path))
        basis, f, _ = sc.build()
        # criterion-6 bound; only numbers are kept, so the op builds its own basis
        kw_bound = 1e-6 * float(f.real_values.max()) * basis.vol
        return path, sc.flow.tol_converge, kw_bound

    def op(self, inputs):
        path = inputs[0]
        return crflow.cli.main(["run", str(path), "--output-dir",
                                str(self.workdir / "out")])

    def check(self, inputs, code):
        _, tol, kw_bound = inputs
        lines = (self.workdir / "out" / "trajectory.csv").read_text(
            encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        problems = []
        if code != 0:
            problems.append(f"crflow run exited {code}, expected 0 (Converged)")
        last = rows[-1]
        if not last["F2"] < tol:
            problems.append(f"final F2 {last['F2']:.3e} >= tol_converge {tol:g}")
        if not last["kw_residual"] <= kw_bound:
            problems.append(f"final kw_residual {last['kw_residual']:.3e} > "
                            f"{kw_bound:.3e}")
        return problems + _monotone_problem([r["E_f"] for r in rows], "E_f column")


# `crflow constants --n N` at the default refinement, computed at commit
# 840d214; criterion 7 bounds refinement drift by 1e-6 relative.
REFERENCE = {
    (1, 'A1'): 9.869604401088717, (1, 'A2'): 2.467401100266802, (1, 'A3'): 2.4674011002695706,
    (1, 'A4'): 78.95683520878278, (1, 'A5'): 35.911349565426384, (1, 'A6'): 19.73920880217317,
    (2, 'A1'): 10.335425560099846, (2, 'A2'): 1.2919281950119887, (2, 'A3'): 0.9689461462573575,
    (2, 'A4'): 124.02510672121522, (2, 'A5'): 90.406282483372, (2, 'A6'): 15.503138340147894,
    (3, 'A1'): 8.117424252833388, (3, 'A2'): 0.676452021069416, (3, 'A3'): 0.25366950790077725,
    (3, 'A4'): 129.8787880453359, (3, 'A5'): 118.93537442689015, (3, 'A6'): 10.823232337111195,
    (4, 'A1'): 5.100328079754639, (4, 'A2'): 0.3187705049846108, (4, 'A3'): 0.049807891403396504,
    (4, 'A4'): 102.00656159509957, (4, 'A5'): 107.35895893602883, (4, 'A6'): 6.375410099693131,
}
REFERENCE_RTOL = 1e-6
DEFICIT_EPS = (0.2, 0.1, 0.05)


class Constants:
    """The constants table for n=1..4, its Monte Carlo cross-check for n=1,2
    (criterion 7) and the criterion-8 deficit ratios.  The seed only orders
    the table and the cross-check; the values it computes do not depend on it."""

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        # what every `crflow constants` invocation pays before computing:
        # a fresh interpreter importing the package
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); import crflow"],
                       check=True, cwd=ROOT)
        rng = np.random.default_rng(seed)
        argvs = {int(n): ["constants", "--n", str(n), "--json",
                          str(self.workdir / f"constants-n{n}.json")]
                 for n in rng.permutation([1, 2, 3, 4])}
        pairs = [(n, name) for n in (1, 2) for name in crflow.constants.NAMES]
        return argvs, [pairs[i] for i in rng.permutation(len(pairs))]

    def op(self, inputs):
        argvs, pairs = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {n: crflow.cli.main(argv) for n, argv in argvs.items()}
        mc = {key: crflow.constants.monte_carlo_constant(key[1], key[0])
              for key in pairs}
        ratios = [crflow.normalization.shadow_deficit_ratio(eps, 2)
                  for eps in DEFICIT_EPS]
        return codes, mc, ratios

    def check(self, inputs, out):
        codes, mc, ratios = out
        problems = [f"crflow constants --n {n} exited {c}"
                    for n, c in codes.items() if c != 0]
        table = {}
        for n, argv in inputs[0].items():
            for row in json.loads(Path(argv[-1]).read_text(encoding="utf-8")):
                table[(n, row["name"])] = row["value"]
        for (n, name), ref in REFERENCE.items():
            value = table.get((n, name))
            if value is None or not value > 0:
                problems.append(f"{name}(n={n}) = {value} is not positive")
            elif abs(value - ref) > REFERENCE_RTOL * abs(ref):
                problems.append(f"{name}(n={n}) = {value!r} differs from the "
                                f"reference {ref!r} by more than {REFERENCE_RTOL:g}")
        for (n, name), (value, se) in mc.items():
            if abs(value - table[(n, name)]) > 3.0 * se:
                problems.append(f"{name}(n={n}) Monte Carlo off by "
                                f"{(value - table[(n, name)]) / se:.1f} sigma")
        target = 4.0 * crflow.spectral.sphere_volume_cached(2) * table[(2, "A3")]
        errs = [abs(r - target) / target for r in ratios]
        if not (errs[0] > errs[1] > errs[2] and errs[2] < 0.05):
            problems.append(f"deficit ratios {ratios} do not approach "
                            f"4 vol A3 = {target} monotonically")
        return problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": commit}


def attempt(wl, inputs):
    """Run one operation and its checks; returns (seconds, problems)."""
    t0 = perf_counter()
    try:
        problems = wl.check(inputs, wl.op(inputs))
    except Exception:
        problems = ["raised:\n" + traceback.format_exc()]
    return perf_counter() - t0, problems


def report_problems(problems):
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)


def measure(wl, seed, seconds):
    """Closed loop: a fresh set-up, then one operation, at least once and then
    while the next operation is expected to end within `seconds`."""
    setups, walls = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl.setup(seed)
        setups.append(perf_counter() - t0)
    attempted = failed = 0
    t_loop = last = perf_counter()
    longest = 0.0
    while attempted == 0 or last + longest - t_loop <= seconds:
        t0 = perf_counter()
        inputs = wl.setup(seed)
        setups.append(perf_counter() - t0)
        wall, problems = attempt(wl, inputs)
        attempted += 1
        longest = max(longest, wall)
        if problems:
            failed += 1
            report_problems(problems)
        else:
            walls.append(wall)
        last = perf_counter()
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if walls:
        metrics["wall_s"] = statistics.median(walls)
    return attempted, failed, metrics


def traced(wl, seed, spans_path):
    """One set-up and one operation with every layer wrapped.  The output
    checks run in a span of their own, `bench.check`, so that the operation's
    self time is what it does outside every layer."""
    tracer = Tracer()
    tracer.install()
    wl.check = tracer.wrap("bench.check", wl.check)
    try:
        with tracer.span("setup"):
            inputs = wl.setup(seed)
        first = len(tracer.spans)
        t0 = perf_counter()
        with tracer.span("op"):
            _, problems = attempt(wl, inputs)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    times = tracer.layer_times()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = times[layer][0]
        metrics[layer + ".s"] = times[layer][1]
    metrics["bench.check.s"] = times["bench.check"][1]
    accepted = times["flow.step"][0] - counts["flow.step.raised"]
    metrics["flow.accepted_steps"] = accepted
    metrics["flow.step.halvings"] = counts["flow.step.halvings"]
    metrics["flow.step.bytes_per_step"] = (
        counts["flow.step.matrix_bytes"] / accepted if accepted else 0)
    metrics["spectral.basis_bytes"] = counts["spectral.basis_bytes"]
    mc_calls = times["flow.mass_concentration"][0]
    metrics["flow.mass_concentration.useful_frac"] = (
        counts["flow.mass_concentration.useful"] / mc_calls if mc_calls else 0.0)
    metrics["normalization.find_centering.iterations"] = \
        counts["normalization.find_centering.iterations"]
    metrics["normalization.find_centering.failures"] = (
        counts["normalization.find_centering.failures"]
        + counts["normalization.find_centering.raised"])
    op_spans = tracer.spans[first:]
    overhead = sum(rec[5] for rec in op_spans)
    metrics["trace.spans"] = len(op_spans)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = overhead / (wall - overhead)
    metrics["trace.unwrapped_frac"] = times["op"][1] / wall
    return problems, metrics


def probe_steps(seed, steps):
    """Inclusive seconds per flow.step over the first `steps` phase-1 steps."""
    f, u0 = Concentrate().setup(seed)
    tracer = Tracer()
    tracer.install()
    try:
        crflow.flow.run(u0, f, FlowConfig(**dict(PHASE1, max_steps=steps)))
    finally:
        tracer.uninstall()
    calls, _, inclusive = tracer.layer_times()["flow.step"]
    return inclusive / calls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("concentrate", "converge-n2", "constants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe-steps", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True,
                    help="directory for scratch files and the span dump")
    args = ap.parse_args(argv)
    result = {"env": environment()}
    if args.probe_steps:
        result["step_s"] = probe_steps(args.seed, args.probe_steps)
        print(json.dumps(result))
        return 0
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        wl = {"concentrate": Concentrate,
              "converge-n2": lambda: ConvergeN2(workdir),
              "constants": lambda: Constants(workdir)}[args.workload]()
        if args.trace:
            problems, metrics = traced(
                wl, args.seed, args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            report_problems(problems)
            result.update(attempted=1, failed=int(bool(problems)), metrics=metrics)
        else:
            attempted, failed, metrics = measure(wl, args.seed, args.seconds)
            result.update(attempted=attempted, failed=failed, metrics=metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
