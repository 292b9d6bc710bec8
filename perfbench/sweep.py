"""Run perfbench/run.py over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 --trace 0 \
        --out perfbench/baseline/untraced.json

--workloads defaults to BENCHMARK.json's workloads; converge-n2, which is not
one of them, runs only when named here.

For every workload and metric it records the value per seed, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median, the
figure the benchmark's bounds are checked against.  Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    summary = {}
    for workload in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["env"] = json.loads(lines[0].partition(" ")[2])
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace or k in ("trace.wall_s", "flow.accepted_steps")),
                flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "values": values}
        summary[workload] = {"runs": runs, "metrics": metrics}
        if not args.trace:
            for name, m in metrics.items():
                print(f"  {name}: median {m['median']:.6g} {m['unit']}, "
                      f"spread {m['spread']:.4f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
