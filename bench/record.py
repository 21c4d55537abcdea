"""Record the reference values the benchmark compares every run against.

    python3 bench/record.py --seeds 0-31

Runs one full-size batch of every workload for each seed, requires every
value check to pass, and writes the values to bench/reference.json.  A later
run on a recorded seed fails any solve whose values moved by more than
1e-12 relative.  Re-record only in a change that says why the values moved.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins BLAS threads before numpy loads
from spread import seed_list


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-31"))
    args = ap.parse_args(argv)
    run.load_program()
    from workloads import NAMES, REL_TOL

    values = {}
    for name in NAMES:
        values[name] = {}
        for seed in args.seeds:
            workdir = run.make_workdir(f"record-{name}")
            try:
                wl = run.build_workload(name, seed, "full", workdir)
                res = wl.check(wl.run_batch())
            finally:
                run.remove_workdir(workdir)
            if res.failures:
                sys.exit(f"{name} seed {seed}: checks failed: {res.failures}")
            values[name][str(seed)] = res.values
            print(f"{name} seed {seed}: {len(res.values)} values", flush=True)
    # one line per workload and seed keeps the file short and its diffs readable
    body = ",\n".join(
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(f"   {json.dumps(seed)}: {json.dumps(vals, sort_keys=True)}" for seed, vals in per_seed.items())
        + "\n  }"
        for name, per_seed in values.items()
    )
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "rel_tol": {REL_TOL!r},\n "scale": "full",\n "values": {{\n{body}\n }}\n}}\n')
    json.loads(run.REFERENCE.read_text(encoding="utf-8"))  # must parse back
    return 0


if __name__ == "__main__":
    sys.exit(main())
