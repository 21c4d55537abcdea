"""detpower benchmark driver.

    python3 bench/run.py --workload exponent-search --seed 0 --seconds 30 --trace 0

One process on one thread (BLAS pools are pinned to 1 below, before numpy
loads), acting as a single closed-loop client: each solve is issued when the
previous one returns.  A run repeats the workload's fixed batch of solves
for `--seconds` seconds and checks every computed value.

`--trace 0` reports the end-to-end metrics: `setup_s` (median of several
fresh interpreters, each importing the package, writing the seeded inputs
and running one warm-up solve), `wall_s` (median batch time, scaled to the
box's reference speed by `SpeedProbe`) and `peak_rss_mb`.  `--trace 1` alternates untraced and traced batches and
reports the per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
details (quartiles, failures, machine record).  Run it from the root of a
checkout: it imports `detpower` from `src/` and exits 2 if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy is imported only after this point, so its BLAS pool starts with one thread
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
PROBES = {"full": 7, "tiny": 2}
PROBE_TIMEOUT_S = 120


def load_program():
    """Import detpower from this checkout's src/, or exit 2 without a result."""
    pkg = ROOT / "src" / "detpower"
    missing = [p for p in (pkg / "__init__.py", ROOT / "data" / "povm_commuting.json") if not p.is_file()]
    if missing:
        print(f"error: {missing[0]} not found; run from a detpower checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import detpower
    from detpower import cli  # noqa: F401  (loads io and the CLI)

    if Path(detpower.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported detpower from {detpower.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def machine_record():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PINS},
    }


def make_workdir(tag):
    """Per-process directory for the generated inputs, inside the checkout."""
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def remove_workdir(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


def build_workload(name, seed, scale, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, ROOT, scale)


def setup_probe(args):
    """Child side of one set-up sample: build the inputs, warm up, stamp the clock."""
    workdir = make_workdir("probe")
    try:
        wl = build_workload(args.workload, args.seed, args.scale, workdir)
        wl.warm_up()
        print(f"{time.monotonic():.9f}")
    finally:
        remove_workdir(workdir)


def measure_setup(args, n):
    """Fresh interpreter to end of the first solve, n times.  CLOCK_MONOTONIC
    is system-wide, so the child's stamp compares with the parent's."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


class SpeedProbe:
    """Scales measured times to the box's reference speed.

    The speed of this shared box drifts by 20-30% within seconds to minutes,
    and a fixed Python loop slows down with the program.  So a short fixed
    kernel (small numpy calls in a Python loop, allocation-free so the
    program's heap state cannot change its speed) is timed between solves,
    and as a phase of PHASE samples before and after each batch.  A batch's
    time is scaled by REFERENCE_S over the kernel time averaged across the
    batch, each solve weighted by its duration.  REFERENCE_S is the kernel's
    time on the reference box (2-vCPU Intel Xeon) at its usual speed, so
    scaled times read as seconds on that box.
    """

    REFERENCE_S = 0.005
    PHASE = 15

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 8)
        self._buf = np.empty(8)
        self.phases = []

    def _kernel(self):
        np, x, buf, acc = self._np, self._x, self._buf, 0.0
        for i in range(1500):
            np.multiply(x, i * 1e-3, out=buf)
            np.exp(buf, out=buf)
            acc += float(buf.sum()) + (i % 7) * 0.5
        return acc

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def phase(self):
        self.phases.append(statistics.median(self.sample() for _ in range(self.PHASE)))
        return self.phases[-1]

    def scaled(self, times, points):
        """Total of `times` at reference speed; points[i] and points[i+1] are
        the kernel times just before and after times[i]."""
        total = sum(times)
        kernel = sum(t * (a + b) / 2 for t, a, b in zip(times, points, points[1:])) / total
        return total * self.REFERENCE_S / kernel


def load_reference(workload, seed, scale):
    if scale != "full" or not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["values"].get(workload, {}).get(str(seed))


class Tally:
    """Attempted and failed solves over all batches, with the first reasons."""

    def __init__(self, reference):
        self.reference = reference
        self.first_values = None
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.extra = {}

    def add(self, wl, outcomes):
        res = wl.check(outcomes)
        from workloads import close

        for label, vals in res.values.items():
            for key, expected in (("reference", (self.reference or {}).get(label)),
                                  ("first batch", (self.first_values or {}).get(label))):
                if expected is not None and (
                    len(expected) != len(vals) or not all(close(a, b) for a, b in zip(vals, expected))
                ):
                    res.fail(label, f"values {vals} differ from the {key} {expected}")
        if self.first_values is None:
            self.first_values = res.values
        self.attempted += len(outcomes)
        self.failed += len(res.failures)
        for label, reason in res.failures.items():
            self.reasons.setdefault(label, reason)
        for key, value in res.extra.items():
            self.extra[key] = max(self.extra.get(key, value), value)


def run_untraced(wl, tally, seconds, speed):
    """Batches until `seconds` are used; returns raw and speed-scaled batch times."""
    raw, scaled = [], []
    start = time.perf_counter()
    before = speed.phase()
    while True:
        points = [before]
        outcomes = wl.run_batch(between_solves=lambda: points.append(speed.sample()))
        before = speed.phase()
        points.append(before)
        times = [oc.seconds for oc in outcomes]
        raw.append(sum(times))
        scaled.append(speed.scaled(times, points))
        tally.add(wl, outcomes)
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            return raw, scaled


def run_traced(wl, tally, seconds):
    """Alternate untraced and traced batches; returns both lists of batch times
    and the tracer.  Times here are raw: the overhead is a ratio within the run."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        outcomes = wl.run_batch()
        plain.append(sum(oc.seconds for oc in outcomes))
        tally.add(wl, outcomes)

        tracer.install()
        try:
            idx = tracer.begin_batch()
            outcomes = wl.run_batch()
            tracer.end_batch(idx)
        finally:
            tracer.uninstall()
        span = tracer.spans[idx]
        traced.append(span[2] - span[1])
        tally.add(wl, outcomes)
        if time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
            return plain, traced, tracer


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics, each per traced batch (totals divided by the batch count)."""
    from tracer import LAYERS

    nb = len(traced)
    calls, incl, self_t = tracer.summary()
    c = tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value / nb if unit not in ("ratio", "evals/solve") else value, "unit": unit}

    for fn in ("core.eig_hermitian", "channel.induced_probs", "channel.chernoff_exponent",
               "channel.hoeffding_exponent", "channel.relative_entropy", "finite.block_log_err"):
        put(f"{fn}.calls", calls[fn], "count")
        put(f"{fn}.self_s", self_t[fn], "s")
    for fn in ("core.validate_povm", "optimize.single_shot_power", "finite.sequence_distribution",
               "finite.ml_error_probability", "finite.brute_force_grouping", "finite.best_product_pair",
               "finite.sweep_x", "finite.empirical_rate", "adaptive.optimal_adaptive",
               "adaptive.evaluate_strategy", "io.load_json_file", "io.povm_from_json"):
        put(f"{fn}.s", incl[fn], "s")
    put("core.DensityMatrix.calls", calls["core.DensityMatrix"], "count")
    put("channel.ClassicalDistribution.calls", c["channel.ClassicalDistribution.calls"], "count")
    put("channel.phi_evals", c["channel.phi_evals"], "count")
    put("channel.phi_solves", c["channel.phi_solves"], "count")
    put("channel.phi_evals_per_solve",
        c["channel.phi_evals"] / c["channel.phi_solves"] if c["channel.phi_solves"] else 0.0, "evals/solve")
    objective_calls = 0.0
    for phase in ("basis_scan", "restarts"):
        put(f"optimize.{phase}.s", c[f"optimize.{phase}.s"], "s")
        put(f"optimize.{phase}.objective_calls", c[f"optimize.{phase}.objective_calls"], "count")
        objective_calls += c[f"optimize.{phase}.objective_calls"]
    put("optimize.golden_section_min.calls", calls["optimize.golden_section_min"], "count")
    put("optimize.improving_evals_frac",
        c["optimize.improving_evals"] / objective_calls if objective_calls else 0.0, "ratio")
    put("optimize.restart_gain", c["optimize.restart_gain"], "nats")
    put("optimize.single_shot_power.groupings", c["optimize.single_shot_power.groupings"], "count-computed")
    put("finite.sequence_distribution.bytes_computed", c["finite.sequence_distribution.bytes_computed"], "B-computed")
    put("finite.block_log_err.bytes_computed", c["finite.block_log_err.bytes_computed"], "B-computed")
    put("adaptive.optimal_adaptive.leaves_computed", c["adaptive.optimal_adaptive.leaves_computed"], "count-computed")
    put("cli.main.self_s", self_t["cli.main"], "s")
    # accounting: the layers' self times plus the driver's own time make up the traced batch time
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, t in self_t.items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += t
    for layer, t in by_layer.items():
        put(f"layer.{layer}.self_s", t, "s")
    put("driver.self_s", self_t["driver.batch"], "s")
    put("trace.wall_s", incl["driver.batch"], "s")
    put("trace.spans", len(tracer.spans), "count")
    untraced = statistics.median(plain)
    put("trace.overhead_frac", (statistics.median(traced) - untraced) / untraced, "ratio")
    return m


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("exponent-search", "finite-n", "wide-detector"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is the smoke-test profile")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup = [] if args.trace else measure_setup(args, PROBES[args.scale])
    workdir = make_workdir(args.workload)
    try:
        wl = build_workload(args.workload, args.seed, args.scale, workdir)
        wl.warm_up()
        reference = load_reference(args.workload, args.seed, args.scale)
        tally = Tally(reference)
        # one untimed batch first, so every timed batch starts from the same
        # process state (allocator thresholds, numpy and scipy lazy set-up)
        tally.add(wl, wl.run_batch())
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "client": "closed loop, 1 client, 1 thread",
            "solves_per_batch": len(wl.solves),
            "reference": "compared at rel 1e-12" if reference else "no recorded values for this seed",
        }
        if args.trace:
            plain, traced, tracer = run_traced(wl, tally, args.seconds)
            metrics = layer_metrics(tracer, plain, traced)
            detail["batches"] = {"untraced": len(plain), "traced": len(traced)}
            detail["untraced_wall_s"] = quartiles(plain)
            detail["traced_wall_s"] = quartiles(traced)
        else:
            speed = SpeedProbe()
            raw, times = run_untraced(wl, tally, args.seconds, speed)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            detail["batches"] = len(times)
            for name, samples in (("wall_s", times), ("raw_wall_s", raw), ("setup_s", setup)):
                detail[name] = {"q1_median_q3": quartiles(samples), "spread": spread(samples), "n": len(samples)}
            detail["speed_probe_s"] = {"q1_median_q3": quartiles(speed.phases), "n": len(speed.phases),
                                       "reference_s": speed.REFERENCE_S}
        detail["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio",
                                 "failed": tally.failed, "attempted": tally.attempted}
        if "closed_form_gap" in tally.extra:
            from workloads import GAP_TOL

            detail["closed_form_gap"] = {"value": tally.extra["closed_form_gap"], "unit": "nats",
                                         "tolerance": GAP_TOL}
        detail["failures"] = dict(list(tally.reasons.items())[:10])
        detail["machine"] = machine_record()
    finally:
        remove_workdir(workdir)

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
