"""crflow benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload {concentrate,converge-n2,constants}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding `src/crflow`
and `BENCHMARK.json`).  The workload runs in a child process (workload.py)
whose BLAS pools are capped at nproc, the variables FLOW_THREADS sets.  The
last line of standard output is

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

with the `end_to_end` metrics of BENCHMARK.json for --trace 0 and its
`per_layer` metrics for --trace 1.  The lines before it record the
environment and a readable summary, including fail_frac = failed/attempted.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
RUN_LIMIT_S = 175.0
PROBE_STEPS = 300
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "FLOW_THREADS")
PROBE_METRICS = ("flow.step.ms_1thread", "flow.step.ms_capped",
                 "flow.step.serial_share")


class ChildFailed(Exception):
    pass


def child(args, threads, deadline):
    """Run workload.py with `threads` BLAS threads; returns its JSON result."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *args,
                             "--out", str(OUT)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"workload.py {' '.join(args)} passed the "
                          f"{RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"workload.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def serial_share(ms_1, ms_p, p):
    """Amdahl serial fraction s from T_p / T_1 = s + (1 - s) / p; with one
    core nothing runs in parallel, so everything counts as serial."""
    if p < 2:
        return 1.0
    return (p * ms_p / ms_1 - 1.0) / (p - 1.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("concentrate", "converge-n2", "constants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "crflow" / "__init__.py").is_file():
        print(f"error: no crflow sources under {ROOT / 'src'}; run from the root "
              "of a crflow checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    try:
        res = child(common, nproc, deadline)
        metrics = res["metrics"]
        if args.trace:
            probe = dict.fromkeys(PROBE_METRICS, 0.0)
            if args.workload == "concentrate":
                # the serial share of flow.step: the same steps at 1 and at
                # nproc threads
                steps = ["--probe-steps", str(PROBE_STEPS)]
                ms_1 = 1e3 * child(common + steps, 1, deadline)["step_s"]
                ms_p = 1e3 * child(common + steps, nproc, deadline)["step_s"]
                probe = dict(zip(PROBE_METRICS,
                                 (ms_1, ms_p, serial_share(ms_1, ms_p, nproc))))
            metrics.update(probe)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)} "
              f"({failed} of {attempted} operations failed)", file=sys.stderr)
        return 1
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: fail_frac {failed}/{attempted} = "
          f"{failed / attempted:g}; "
          + ", ".join(f"{name} {metrics[name]:.6g} {unit}"
                      for name, unit in declared.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
