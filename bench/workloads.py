"""The three benchmark workloads: seeded inputs, batches of solves, value checks.

A workload is prepared once per process (its constructor): it draws its
inputs from the seed and writes the POVM and candidate files the CLI reads.
A batch (`Workload.run_batch`) issues its solves one after another, each
when the previous one has returned, and keeps every raw output.
`Workload.check` parses those outputs afterwards, so parsing and checking
stay outside the timed region.

Solves go through `detpower.cli.main(argv)` wherever the README has a command
for them; library calls are used for `empirical_rate`, `single_shot_power`
and the wide-detector session, which reuses one `Povm` object across calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

NAMES = ("exponent-search", "finite-n", "wide-detector")

# Sizes of each workload; "tiny" is the smoke-test profile.
SCALES = {
    "full": {
        "exponent-search": {"restarts": 2, "random_restarts": 2},
        "finite-n": {
            "sweeps": (400, 600),
            "ml_n": (3, 18, 20, 12),
            "pattern_n": 10,
            "adaptive_cands_n": 4,
            "rate_n": (10**4, 10**5),
        },
        "wide-detector": {"wide_m": 11, "mid_m": 8, "fib_m": 12},
    },
    "tiny": {
        "exponent-search": {"restarts": 0, "random_restarts": 0},
        "finite-n": {
            "sweeps": (30, 40),
            "ml_n": (3, 6, 8, 5),
            "pattern_n": 4,
            "adaptive_cands_n": 2,
            "rate_n": (10**2, 10**3),
        },
        "wide-detector": {"wide_m": 5, "mid_m": 4, "fib_m": 6},
    },
}

# Known values and the tolerances the checks use.
COMMUTING = (0.4, 0.2)  # data/povm_commuting.json: diag(0.4, 0.2) / diag(0.6, 0.8)
SG_PURITY = 0.62  # data/povm_noisy_sg_062.json
ADAPTIVE_N3 = 0.336
ML_N3 = 0.352
PATTERN_N3 = 0.344
HOEFFDING_RATE = 0.05
REL_TOL = 1e-12  # ROADMAP aim 1: values unchanged within 1e-12 relative
GAP_TOL = 1e-9  # largest accepted shortfall of a searched exponent below its closed form


def close(a, b, rel=REL_TOL):
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def random_povm(rng, d, m):
    """Random full-rank POVM: random PSD operators normalized by their sum."""
    mats = []
    for _ in range(m):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g @ g.conj().T)
    evals, evecs = np.linalg.eigh(sum(mats))
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in mats]


def random_pure_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _matrix_json(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def write_povm(path, elements):
    d = len(elements[0])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": d, "elements": [_matrix_json(e) for e in elements]}, fh)


def write_states(path, states):
    d = len(states[0])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": d, "states": [_matrix_json(s) for s in states]}, fh)


def fibonacci_elements(m):
    """Covariant-qubit discretization with m nodes, as element arrays."""
    from detpower import fibonacci_covariant_discretization

    return [np.array(e) for e in fibonacci_covariant_discretization(m).to_povm().elements]


@dataclass
class Solve:
    label: str
    call: object  # (batch context) -> raw output


@dataclass
class Outcome:
    label: str
    raw: object = None
    error: str | None = None
    seconds: float = 0.0


@dataclass
class CheckResult:
    values: dict = field(default_factory=dict)  # label -> list of floats
    failures: dict = field(default_factory=dict)  # label -> reason
    extra: dict = field(default_factory=dict)

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)


def _cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    from detpower import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_solve(label, argv):
    return Solve(label, lambda ctx: _cli(argv))


class Workload:
    name = ""

    def __init__(self, seed, workdir, root, scale):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.size = SCALES[scale][self.name]
        self.rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.solves = []

    def warm_up(self):
        raise NotImplementedError

    def begin_batch(self):
        """Objects the solves of one batch share; built inside the timed batch."""
        return {}

    def run_batch(self, between_solves=None):
        """Issue every solve in turn; `between_solves` runs between two solves, untimed."""
        clock = time.perf_counter
        ctx = self.begin_batch()
        outcomes = []
        for solve in self.solves:
            if outcomes and between_solves is not None:
                between_solves()
            t0 = clock()
            try:
                oc = Outcome(solve.label, solve.call(ctx))
            except Exception as exc:  # a failed solve is counted, not fatal
                oc = Outcome(solve.label, error=f"{type(exc).__name__}: {exc}")
            oc.seconds = clock() - t0
            outcomes.append(oc)
        return outcomes

    def parse(self, outcome, res):
        """Values of one solve's output; the CLI must exit 0 with a JSON report."""
        code, text = outcome.raw
        if code != 0:
            res.fail(outcome.label, f"exit code {code}")
            return None
        return json.loads(text)["results"]

    def check(self, outcomes):
        res = CheckResult()
        for oc in outcomes:
            if oc.error is not None:
                res.fail(oc.label, oc.error)
                continue
            try:
                vals = self.values(oc, res)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                res.fail(oc.label, f"unreadable output: {exc}")
                continue
            if vals is not None:
                if not all(isinstance(v, float) and not math.isnan(v) for v in vals):
                    res.fail(oc.label, f"non-numeric value in {vals}")
                res.values[oc.label] = vals
        self.cross_check(res)
        return res

    def values(self, outcome, res):
        raise NotImplementedError

    def cross_check(self, res):
        raise NotImplementedError

    def within(self, res, label, lo, hi):
        v = res.values.get(label)
        if v is not None and not lo <= v[0] <= hi:
            res.fail(label, f"value {v[0]} outside [{lo}, {hi}]")

    def expect(self, res, label, target):
        v = res.values.get(label)
        if v is not None and not close(v[0], target):
            res.fail(label, f"value {v[0]!r} != expected {target!r}")

    def at_most(self, res, label, lower_label, upper_label):
        lo, hi = res.values.get(lower_label), res.values.get(upper_label)
        if lo is not None and hi is not None and lo[0] > hi[0] * (1 + REL_TOL):
            res.fail(label, f"{lower_label} = {lo[0]!r} exceeds {upper_label} = {hi[0]!r}")


class ExponentSearch(Workload):
    """Dual Chernoff/Stein/Hoeffding searches through `detpower exponent`.

    The bundled detectors are searched at the fixed search seed 0, as in the
    README, so their work is the same for every workload seed; the seed draws
    a random d=3, m=4 detector and its search seed.
    """

    name = "exponent-search"

    def __init__(self, seed, workdir, root, scale):
        super().__init__(seed, workdir, root, scale)
        from detpower import commuting_zeta, noisy_sg_zeta

        data = root / "data"
        self.files = {
            "commuting": str(data / "povm_commuting.json"),
            "noisy_sg": str(data / "povm_noisy_sg_062.json"),
            "random_d3": str(workdir / "povm_random_d3.json"),
        }
        write_povm(self.files["random_d3"], random_povm(self.rng, 3, 4))
        self.closed = {"commuting": commuting_zeta(*COMMUTING), "noisy_sg": noisy_sg_zeta(SG_PURITY)}
        r = str(self.size["restarts"])
        for det in ("commuting", "noisy_sg"):
            f = self.files[det]
            self.solves += [
                _cli_solve(f"{det}/chernoff", ["exponent", f, "--kind", "chernoff", "--restarts", r, "--seed", "0"]),
                _cli_solve(f"{det}/stein", ["exponent", f, "--kind", "stein", "--restarts", r, "--seed", "0"]),
                _cli_solve(
                    f"{det}/hoeffding",
                    ["exponent", f, "--kind", "hoeffding", "--rate", str(HOEFFDING_RATE), "--restarts", r, "--seed", "0"],
                ),
            ]
        f, r, s = self.files["random_d3"], str(self.size["random_restarts"]), str(seed)
        self.solves += [
            _cli_solve("random_d3/chernoff", ["exponent", f, "--kind", "chernoff", "--restarts", r, "--seed", s]),
            _cli_solve("random_d3/stein", ["exponent", f, "--kind", "stein", "--restarts", r, "--seed", s]),
            _cli_solve(
                "noisy_sg/chernoff_mixed",
                ["exponent", self.files["noisy_sg"], "--kind", "chernoff", "--mixed", "--restarts", "0", "--seed", "0"],
            ),
        ]

    def warm_up(self):
        return _cli(["validate", self.files["random_d3"]])

    def values(self, oc, res):
        results = self.parse(oc, res)
        if results is None:
            return None
        (entry,) = results.values()
        return [float(entry["value"])]

    def cross_check(self, res):
        gaps = []
        for label, vals in res.values.items():
            if not (math.isfinite(vals[0]) and vals[0] >= 0.0):
                res.fail(label, f"exponent {vals[0]} is not finite and nonnegative")
        for label, det in (
            ("commuting/chernoff", "commuting"),
            ("noisy_sg/chernoff", "noisy_sg"),
            ("noisy_sg/chernoff_mixed", "noisy_sg"),
        ):
            v = res.values.get(label)
            if v is None:
                continue
            closed = self.closed[det]
            gap = closed - v[0]
            gaps.append(gap)
            if v[0] > closed * (1 + REL_TOL):
                res.fail(label, f"searched {v[0]!r} exceeds the closed form {closed!r}")
            if gap > GAP_TOL:
                res.fail(label, f"searched {v[0]!r} is {gap:.3e} below the closed form")
        for det in ("commuting", "noisy_sg", "random_d3"):
            self.at_most(res, f"{det}/chernoff", f"{det}/chernoff", f"{det}/stein")
        for det in ("commuting", "noisy_sg"):
            self.at_most(res, f"{det}/hoeffding", f"{det}/hoeffding", f"{det}/stein")
        if gaps:
            res.extra["closed_form_gap"] = max(gaps)


class FiniteN(Workload):
    """Exact finite-n errors and adaptive trees through `detpower finite` and
    `detpower adaptive`, plus library `empirical_rate`, on the bundled
    commuting detector and a seeded commuting detector diag(p, q)."""

    name = "finite-n"

    def __init__(self, seed, workdir, root, scale):
        super().__init__(seed, workdir, root, scale)
        size = self.size
        p = float(self.rng.uniform(0.3, 0.7))
        q = float(self.rng.uniform(0.05, p - 0.2))
        self.seeded_elements = [np.diag([p, q]).astype(complex), np.diag([1 - p, 1 - q]).astype(complex)]
        bundled = str(root / "data" / "povm_commuting.json")
        seeded = str(workdir / "povm_diag.json")
        cands = str(workdir / "candidates4.json")
        strategy = str(root / "data" / "strategy_feedback.json")
        write_povm(seeded, self.seeded_elements)
        write_states(cands, [random_pure_state(self.rng, 2) for _ in range(4)])
        self.seeded_file = seeded
        n400, n600 = size["sweeps"]
        ml3, ml18, ml20, ml_seeded = size["ml_n"]

        def finite(label, f, n, mode, *more):
            return _cli_solve(label, ["finite", f, "--n", str(n), "--mode", mode, *more])

        self.solves = [
            finite("bundled/sweep", bundled, n400, "sweep", "--points", "61"),
            finite("seeded/sweep", seeded, n600, "sweep", "--points", "61"),
            finite("bundled/ml_n3", bundled, ml3, "ml"),
            # the accepted set of an ML grouping is held as a frozenset, so the
            # large-n ML solves use the bundled detector to keep memory seed-independent
            finite("bundled/ml", bundled, ml18, "ml"),
            finite("bundled/ml_n20", bundled, ml20, "ml"),
            finite("seeded/ml", seeded, ml_seeded, "ml"),
            finite("bundled/ml_n4", bundled, 4, "ml"),
            finite("bundled/brute_n4", bundled, 4, "brute"),
            finite("seeded/ml_n4", seeded, 4, "ml"),
            finite("seeded/brute_n4", seeded, 4, "brute"),
            finite("bundled/pattern_n3", bundled, 3, "pattern"),
            finite("bundled/pattern", bundled, size["pattern_n"], "pattern"),
            _cli_solve("bundled/adaptive_n3", ["adaptive", bundled, "--n", "3"]),
            _cli_solve("bundled/strategy", ["adaptive", bundled, "--strategy", strategy]),
            _cli_solve(
                "bundled/adaptive_cands",
                ["adaptive", bundled, "--n", str(size["adaptive_cands_n"]), "--candidates", cands],
            ),
        ]
        for n in size["rate_n"]:
            self.solves.append(Solve(f"seeded/empirical_rate_{n}", self._rate_call(n)))

    def _rate_call(self, n):
        def call(ctx):
            import detpower

            return detpower.empirical_rate(ctx["seeded"], n)

        return call

    def begin_batch(self):
        import detpower

        return {"seeded": detpower.Povm(tuple(self.seeded_elements))}

    def warm_up(self):
        return _cli(["validate", self.seeded_file])

    def values(self, oc, res):
        if oc.label.startswith("seeded/empirical_rate"):
            return [float(oc.raw)]
        results = self.parse(oc, res)
        if results is None:
            return None
        if "curve" in results:
            curve = results["curve"]["value"]
            p_err = [float(row[1]) for row in curve]
            rates = [float(row[2]) for row in curve]
            if not all(0.0 <= e <= 0.5 for e in p_err) or not all(r >= 0.0 for r in rates):
                res.fail(oc.label, "curve has an error outside [0, 0.5] or a negative rate")
            i = int(np.argmin(p_err))
            return [min(p_err), float(curve[i][0]), p_err[0], p_err[-1], math.fsum(p_err), math.fsum(rates)]
        return [float(results["p_err"]["value"])]

    def cross_check(self, res):
        for label, vals in res.values.items():
            if label.startswith("seeded/empirical_rate"):
                if not (math.isfinite(vals[0]) and vals[0] > 0.0):
                    res.fail(label, f"rate {vals[0]} is not finite and positive")
            else:
                self.within(res, label, 0.0, 0.5)
        for det in ("bundled", "seeded"):
            ml, brute = res.values.get(f"{det}/ml_n4"), res.values.get(f"{det}/brute_n4")
            if ml is not None and brute is not None and not close(ml[0], brute[0]):
                res.fail(f"{det}/brute_n4", f"brute {brute[0]!r} != ml {ml[0]!r} at n=4")
        self.expect(res, "bundled/ml_n3", ML_N3)
        self.expect(res, "bundled/pattern_n3", PATTERN_N3)
        self.expect(res, "bundled/adaptive_n3", ADAPTIVE_N3)
        self.expect(res, "bundled/strategy", ADAPTIVE_N3)


class WideDetector(Workload):
    """Library session on wide detectors: each `Povm` is built once per batch
    and reused by `validate_povm`, `single_shot_power` and the basis-scan-only
    exponent searches (`restarts=0`)."""

    name = "wide-detector"
    CALLS = {
        "wide": ("valid", "single_shot", "stein"),
        "mid": ("valid", "single_shot", "stein", "chernoff"),
        "fib": ("single_shot",),
    }

    def __init__(self, seed, workdir, root, scale):
        super().__init__(seed, workdir, root, scale)
        size = self.size
        self.elements = {
            "wide": random_povm(self.rng, 4, size["wide_m"]),
            "mid": random_povm(self.rng, 4, size["mid_m"]),
            "fib": fibonacci_elements(size["fib_m"]),
        }
        for det, calls in self.CALLS.items():
            self.solves += [Solve(f"{det}/{call}", self._call(det, call)) for call in calls]

    @staticmethod
    def _call(det, call):
        def run(ctx):
            import detpower as dp

            p = ctx[det]
            if call == "valid":
                return dp.validate_povm(p).valid
            if call == "single_shot":
                return dp.single_shot_power(p).value
            search = dp.zeta_stein if call == "stein" else dp.zeta_chernoff
            return search(p, dp.SearchOptions(restarts=0)).value

        return run

    def begin_batch(self):
        import detpower as dp

        return {det: dp.Povm(tuple(elems)) for det, elems in self.elements.items()}

    def warm_up(self):
        import detpower as dp

        return dp.validate_povm(dp.Povm(tuple(self.elements["mid"]))).valid

    def values(self, oc, res):
        return [float(oc.raw)]

    def cross_check(self, res):
        for det in ("wide", "mid"):
            if res.values.get(f"{det}/valid", [1.0])[0] != 1.0:
                res.fail(f"{det}/valid", "validate_povm rejected a valid POVM")
            stein = res.values.get(f"{det}/stein")
            if stein is not None and not (math.isfinite(stein[0]) and stein[0] > 0.0):
                res.fail(f"{det}/stein", f"Stein exponent {stein[0]} is not finite and positive")
        for det in ("wide", "mid", "fib"):
            self.within(res, f"{det}/single_shot", 0.0, 0.5)
        self.at_most(res, "mid/chernoff", "mid/chernoff", "mid/stein")


WORKLOADS = {cls.name: cls for cls in (ExponentSearch, FiniteN, WideDetector)}
