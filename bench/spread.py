"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload finite-n --seeds 0-9 [--seconds 30] [--out spread.json]

Runs `bench/run.py` once per seed, one run after another, and prints for
each metric the median, the quartiles and the distance between the quartiles
as a share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json.  `--out` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{name:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} {bounds.get(name, '-'):>6}")
    raw = [r["detail"]["raw_wall_s"]["q1_median_q3"][1] for r in runs]
    q1, _, q3 = statistics.quantiles(raw, n=4)
    print(f"{'(raw wall_s)':<14} {statistics.median(raw):12.6g} {q1:12.6g} {q3:12.6g} "
          f"{(q3 - q1) / statistics.median(raw):8.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
