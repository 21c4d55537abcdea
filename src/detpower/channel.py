"""Classical distributions induced by a measurement and their error exponents.

The scalar functionals (phi, Chernoff, relative entropy, Hoeffding) act on a
pair of outcome distributions; the quantum side enters only through
induced_distribution and candidate_probs.  A ClassicalDistribution is the one
checked container, for one distribution or an (..., m) stack of them: it is
checked once, when it is built, and every functional trusts it and checks
any other input.  Its rows, taken by indexing, are not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TOL_COMPLETE, TOL_TRACE, DensityMatrix, Povm
from .errors import DomainError, StructuralError

NEG_CLAMP = 1e-12
SUM_TOL = 1e-9

_INVPHI = (math.sqrt(5) - 1) / 2  # 1/golden ratio
# chernoff_rows' screen: at most this many Newton steps per row, and the
# cut's margin as a share of max(1, |cut|)
SCREEN_STEPS = 32
SCREEN_MARGIN = 1e-9


def induced_sum_tol(d: int) -> float:
    """How far from 1 the outcome probabilities tr(E_k rho) may sum for a
    detector and a state on C^d that pass validation.

    The sum is tr rho + tr(R rho) with R = sum_k E_k - I.  validate_povm
    bounds R entrywise by TOL_COMPLETE, so its operator norm by d
    TOL_COMPLETE, and DensityMatrix bounds |tr rho - 1| by TOL_TRACE; so the
    sum is 1 within TOL_TRACE + d TOL_COMPLETE (1 + TOL_TRACE).  SUM_TOL on
    top covers round-off and clipped negatives, as for any distribution.
    """
    return SUM_TOL + TOL_TRACE + d * TOL_COMPLETE * (1 + TOL_TRACE)


@dataclass(frozen=True, eq=False)
class ClassicalDistribution:
    """One distribution over m outcomes, or an (..., m) stack of them.

    Each row must be finite, have no entry below -NEG_CLAMP and sum to 1
    within sum_tol: SUM_TOL, or induced_sum_tol(d) for the rows a detector
    induces.  probs is a read-only copy with the entries below 0 clipped to
    0.  A failing stack raises the DomainError of its first failing row in C
    order.  Indexing a stack over its leading axes gives its rows as
    distributions without checking them again.
    """

    probs: np.ndarray
    sum_tol: float = SUM_TOL

    def __post_init__(self):
        raw = np.ascontiguousarray(self.probs, dtype=float)
        low = np.minimum.reduce(raw, axis=-1, initial=0.0)
        p = np.maximum(raw, 0.0)  # a new array, so the caller's stays untouched
        sums = np.add.reduce(p, axis=-1)
        # a non-finite entry makes its row's min -inf or its sum NaN or inf
        ok = (low >= -NEG_CLAMP) & (abs(sums - 1.0) <= self.sum_tol)
        if not ok.all():
            k = np.unravel_index(np.argmin(ok), ok.shape)  # the first failing row
            if not np.all(np.isfinite(raw[k])):
                raise DomainError("distribution has non-finite entries")
            if low[k] < -NEG_CLAMP:
                raise DomainError(f"negative probability {low[k]:.3e}")
            raise DomainError(f"probabilities sum to {sums[k]}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return len(self.probs)

    def __getitem__(self, k):
        *stack, m = self.probs.shape
        if not stack:
            raise TypeError("a single distribution has no rows")
        rows = self.probs.reshape(-1, m)[np.arange(math.prod(stack)).reshape(stack)[k]]
        rows.setflags(write=False)
        sub = object.__new__(ClassicalDistribution)  # checked as part of this stack
        object.__setattr__(sub, "probs", rows)
        object.__setattr__(sub, "sum_tol", self.sum_tol)
        return sub


@dataclass(frozen=True)
class ExponentValue:
    """A nonnegative error exponent (nats), possibly infinite, with its optimal s."""

    value: float
    optimizer_s: float | None = None

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)


def _probs(dist) -> np.ndarray:
    """The probs of a ClassicalDistribution, or of one built from the flattened input."""
    return dist.probs if isinstance(dist, ClassicalDistribution) else ClassicalDistribution(np.ravel(dist)).probs


def _pair(p_dist, q_dist):
    """Both distributions as checked 1-D arrays of one length."""
    p, q = _probs(p_dist), _probs(q_dist)
    if p.ndim != 1 or p.shape != q.shape:
        raise StructuralError(f"need two distributions of one length, got shapes {p.shape} and {q.shape}")
    return p, q


def induced_probs(p: Povm, rho_mat: np.ndarray) -> np.ndarray:
    """tr(E_k rho) for every outcome, clamped at 0.  Raw-array fast path.

    A (..., d, d) stack of states gives (..., m); each row has the floats of
    the single-state call on that state.  A state is read in C order whatever
    its layout, so equal states give equal floats.
    """
    rho_mat = np.ascontiguousarray(rho_mat)
    if rho_mat.ndim == 2:
        out = np.einsum("kij,ji->k", p.stacked(), rho_mat).real
    else:
        out = _trace_rows(p.stacked(), rho_mat)
    return np.maximum(out, 0.0)


def _trace_rows(elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re tr(E_k rho) for a stack of states, summed in einsum("kij,ji->k")'s order.

    That einsum, on a C-ordered rho, sums Re(E_kij rho_ji) = Re E Re rho -
    Im E Im rho over j from zero for each i, then those sums over i from zero.
    Other summation orders, "...ji,ij->..." among them, move the last bit.
    Each term is an (outcomes, states) array, states innermost, and every sum
    starts from +0.0, as einsum's does, so no -0.0 appears.
    """
    d = rho.shape[-1]
    states = rho.reshape(-1, d, d)
    er, ei = (np.moveaxis(x, 0, -1)[..., None] for x in (elements.real, elements.imag))  # (i, j, k, 1)
    rr, ri = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in (states.real, states.imag))  # (j, i, n)
    out = np.zeros((len(elements), len(states)))
    inner, t, u = np.empty_like(out), np.empty_like(out), np.empty_like(out)
    for i in range(d):
        inner.fill(0.0)
        for j in range(d):
            np.multiply(er[i, j], rr[j, i], out=t)
            np.multiply(ei[i, j], ri[j, i], out=u)
            t -= u
            inner += t
        out += inner
    return np.ascontiguousarray(out.T).reshape(rho.shape[:-2] + elements.shape[:1])


def induced_distribution(p: Povm, rho: DensityMatrix) -> ClassicalDistribution:
    if p.dim != rho.dim:
        raise StructuralError(f"POVM dimension {p.dim} != state dimension {rho.dim}")
    return ClassicalDistribution(induced_probs(p, rho.mat), induced_sum_tol(p.dim))


def candidate_probs(p: Povm, states) -> ClassicalDistribution:
    """The induced distributions of the DensityMatrix states, as one checked
    (len(states), m) stack whose row k holds induced_probs(p, states[k].mat).

    Refuses a state whose dimension is not the POVM's with StructuralError.
    """
    states = tuple(states)
    for k, c in enumerate(states):
        if c.dim != p.dim:
            raise StructuralError(f"candidate state {k} has dimension {c.dim}, the POVM {p.dim}")
    mats = np.array([c.mat for c in states]).reshape(-1, p.dim, p.dim)
    return ClassicalDistribution(induced_probs(p, mats), induced_sum_tol(p.dim))


def phi(s: float, p_dist, q_dist) -> float:
    """log sum_k P_k^s Q_k^(1-s), the log of the Chernoff overlap.

    Terms with P_k = 0 or Q_k = 0 drop out (endpoint convention x^0 = 1 for
    x > 0, 0^s = 0 for s > 0).  Returns -inf when the supports are disjoint.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")
    p, q = _pair(p_dist, q_dist)
    if not np.any((p > 0) & (q > 0)):
        return -math.inf
    return _phi_evaluator(p, q)(s)


def golden_section_min(f, a: float, b: float, xtol: float = 1e-12):
    """Minimize a unimodal scalar function on [a, b]; returns (x, f(x))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(d - c) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def _phi_evaluator(p: np.ndarray, q: np.ndarray):
    """Fast phi(s) closure with logs precomputed on the common support.

    Each call writes s*lp, (1-s)*lq, their sum and its exp into two scratch
    arrays the closure owns, with the ufuncs and order of
    log(sum(exp(s*lp + (1-s)*lq))), so the floats are the same.  Because of
    those buffers, one closure must not be shared across threads.
    """
    mask = (p > 0) & (q > 0)
    lp = np.log(p[mask])
    lq = np.log(q[mask])
    t = np.empty_like(lp)
    u = np.empty_like(lq)

    def f(s: float) -> float:
        np.multiply(s, lp, out=t)
        np.multiply(1.0 - s, lq, out=u)
        np.add(t, u, out=t)
        np.exp(t, out=t)
        return min(float(np.log(np.add.reduce(t))), 0.0)

    return f


def chernoff_exponent(p_dist, q_dist) -> ExponentValue:
    """-min_s phi(s), the best symmetric error-probability decay rate."""
    p, q = _pair(p_dist, q_dist)
    if not np.any((p > 0) & (q > 0)):
        return ExponentValue(math.inf, None)
    obj = _phi_evaluator(p, q)
    # phi is convex in s, so golden section on [0, 1] is reliable
    s_star, f_star = golden_section_min(obj, 0.0, 1.0, xtol=1e-12)
    f_star = min(f_star, obj(0.0), obj(1.0))
    return ExponentValue(float(max(-f_star, 0.0) + 0.0), float(np.clip(s_star, 0.0, 1.0)))


def relative_entropy(p_dist, q_dist) -> float:
    """D(P||Q) in nats; +inf when supp(P) is not contained in supp(Q)."""
    p, q = _pair(p_dist, q_dist)
    sup = p > 0
    if np.any(sup & (q == 0)):
        return math.inf
    return max(float(np.sum(p[sup] * (np.log(p[sup]) - np.log(q[sup])))), 0.0)


# Row forms: one call scores every row pair (P[k], Q[k]) of two (L, m) stacks
# of distributions and gives the floats of the per-pair function.  The rows
# are grouped by the size c of their common support, and each kernel runs on
# the (n, c) blocks of those entries, in outcome order: the arrays the
# per-pair function reduces, on which np.log, np.exp and
# np.add.reduce(axis=1) round like their 1-D calls.  Rows padded with zeros
# would not: from 8 entries on add.reduce sums in 8 lanes, so a zero moves
# the last bit.


def _support_blocks(p_rows, q_rows):
    """Both stacks' probs, checked, each row's common support size, and the blocks.

    A block (rows, P block, Q block) lists, in order, the rows whose P and
    Q are both positive on c >= 1 outcomes, and holds their (len(rows), c)
    entries there; a block of zero-free rows is taken without a mask.  A row
    with disjoint supports, of size 0, is in no block.
    """
    P, Q = (x if isinstance(x, ClassicalDistribution) else ClassicalDistribution(x) for x in (p_rows, q_rows))
    p, q = P.probs, Q.probs
    if p.shape != q.shape or p.ndim != 2:
        raise StructuralError(f"row stacks of shapes {p.shape} and {q.shape}")
    sizes = np.count_nonzero(support := (p > 0) & (q > 0), axis=1)
    blocks = []
    for c in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():  # the sizes c >= 1 that occur
        rows = np.flatnonzero(sizes == c)
        on = slice(None) if c == p.shape[1] else support[rows]
        blocks.append((rows, p[rows][on].reshape(-1, c), q[rows][on].reshape(-1, c)))
    return p, q, sizes, blocks


def _phi_rows(s: np.ndarray, lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """_phi_evaluator's phi at s[k] for each row k of the logs; s is a column."""
    t = s * lp
    t += (1.0 - s) * lq
    np.exp(t, out=t)
    f = np.log(np.add.reduce(t, axis=1, keepdims=True))
    return np.minimum(f, 0.0)  # log never gives -0.0 or NaN here, so this is min(f, 0.0)


def _golden_rows(lp: np.ndarray, lq: np.ndarray, xtol: float = 1e-12):
    """golden_section_min(phi_k, 0, 1, xtol) for every row k, in lockstep.

    Each row takes the same branch and the same probe points as the scalar
    loop and leaves it when its own |d - c| <= xtol.  Returns the columns
    (s_k, phi_k(s_k)).
    """
    n = len(lp)
    s_out, f_out = np.empty((n, 1)), np.empty((n, 1))
    live = np.arange(n)
    a, b = np.zeros((n, 1)), np.ones((n, 1))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _phi_rows(c, lp, lq), _phi_rows(d, lp, lq)
    while len(live):
        go = np.abs(d - c) > xtol
        if not go.all():
            stop = ~go[:, 0]
            x = (a[stop] + b[stop]) / 2
            s_out[live[stop]] = x
            f_out[live[stop]] = _phi_rows(x, lp[stop], lq[stop])
            keep = go[:, 0]
            live, a, b, c, d, fc, fd, lp, lq = (v[keep] for v in (live, a, b, c, d, fc, fd, lp, lq))
        left = fc < fd  # the scalar loop's branch: keep [a, d], else [c, b]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        w = _INVPHI * (b - a)
        x = np.where(left, b - w, a + w)
        fx = _phi_rows(x, lp, lq)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return s_out, f_out


def _tilted_rows(s: np.ndarray, lp: np.ndarray, lq: np.ndarray, llr: np.ndarray):
    """_tilted's phi, phi' and phi'' of every row k at s[k], from (m, n) logs with row k in column k.

    _tilted's formulas, with each sum taken down the short axis of outcomes
    and the exponent as lq + s llr.  The floats are not _tilted's: they only
    bound the rows' exponents, where the cancellation that form can bring
    when Q_k << P_k, a few ulps of |log Q_k| <= 745, stays far inside the
    screen's margin.
    """
    w = s * llr
    w += lq
    top = w.max(axis=0)
    w -= top
    np.exp(w, out=w)
    z = w.sum(axis=0)
    u = w * llr
    mean = u.sum(axis=0) / z
    np.subtract(llr, mean, out=u)
    u *= u
    u *= w
    return top + np.log(z), mean, u.sum(axis=0) / z


def _exponent_bounds(lp: np.ndarray, lq: np.ndarray, floor: float):
    """Bounds lo_k <= C_k <= hi_k on the Chernoff exponent C_k = max_s g_k(s),
    g_k = -phi_k, of every row of the (n, m) logs, and chernoff_rows' cut.

    g is concave (Chernoff 1952), so at any s in [0, 1] g(s) <= C, and the
    tangent there bounds g from above: C <= g(s) + max(g'(s)(1 - s),
    -g'(s) s), its largest value on [0, 1].  lo and hi are the best of these
    over the points a row visits: s = 1/2, then safeguarded Newton steps on
    phi'(s) = 0, kept inside the bracket where phi' changes sign and
    bisecting it when a step leaves it (or phi'' is 0).  The gap hi - lo,
    at most |phi'(s)|, closes as s nears the maximizer.  The cut is
    max(floor, max lo) less the margin SCREEN_MARGIN * max(1, |cut|).  A row
    steps only while it is undecided: while its hi, clamped at 0 as the
    values are, reaches the cut and its gap exceeds the margin, for at most
    SCREEN_STEPS steps.  lo and hi are the true bounds within round-off.
    """
    n = len(lp)
    lp, lq = np.ascontiguousarray(lp.T), np.ascontiguousarray(lq.T)
    llr = lp - lq
    lo, hi = np.full(n, -math.inf), np.full(n, math.inf)
    live, a, b, s = np.arange(n), np.zeros(n), np.ones(n), np.full(n, 0.5)
    for _ in range(SCREEN_STEPS):
        f, df, d2f = _tilted_rows(s, lp, lq, llr)
        lo[live] = np.maximum(lo[live], -f)
        hi[live] = np.minimum(hi[live], -f + np.maximum(-df * (1.0 - s), df * s))
        best = max(floor, lo.max())
        margin = SCREEN_MARGIN * max(1.0, abs(best)) if math.isfinite(best) else 0.0
        go = (np.maximum(hi[live], 0.0) >= best - margin) & (hi[live] - lo[live] > margin)
        if not go.any():
            break
        live, lp, lq, llr, a, b, s, df, d2f = (v[..., go] for v in (live, lp, lq, llr, a, b, s, df, d2f))
        a, b = np.where(df < 0.0, s, a), np.where(df < 0.0, b, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = s - df / d2f
        s = np.where((a <= step) & (step <= b), step, (a + b) / 2)
    return lo, hi, best - margin


def chernoff_rows(p_rows, q_rows, floor: float | None = None):
    """chernoff_exponent(P[k], Q[k]) for every row k, with the same floats.

    Returns the float arrays (values, s), with s NaN where optimizer_s is
    None: a row with disjoint supports gives (inf, NaN).  Each support-size
    block runs golden_section_min's iteration in lockstep on its rows, then
    takes the same min over s = 0 and 1, the same clamp and the same clip.

    With a floor, only the rows that can still reach the largest value or
    the floor are scored; the others give (-inf, NaN).  The screen covers
    every row with one cut rule: the cut is the largest of floor, inf if
    some row is disjoint, and every row's certified lower bound
    (_exponent_bounds), less SCREEN_MARGIN * max(1, |cut|) when the cut is
    finite.  A row is dropped when its certified upper bound, clamped at 0
    as the values are, lies below the cut.  Each block's bounds give the cut
    of its own rows, and the cut less its margin rises with the cut, so the
    largest of those is the one cut.  The margin is a thousand times the
    bounds' and the values' round-off (a few ulps of |log P_k| <= 745), so a
    dropped row's value lies below floor or below the value of the row with
    the best lower bound.  A scan that takes the first largest value, and
    needs it only when it beats floor, so reports what it would without the
    floor, and every row that is scored keeps its floats.
    """
    *_, sizes, blocks = _support_blocks(p_rows, q_rows)
    values, s_star = np.where(sizes == 0, math.inf, -math.inf), np.full(len(sizes), math.nan)
    blocks = [(rows, np.log(pb), np.log(qb)) for rows, pb, qb in blocks]
    if floor is not None:  # a disjoint row's inf is a lower bound too
        bounds = [_exponent_bounds(lp, lq, floor if sizes.all() else math.inf) for _, lp, lq in blocks]
        cut = max((c for *_, c in bounds), default=math.inf)
    for k, (rows, lp, lq) in enumerate(blocks):
        if floor is not None:
            keep = np.maximum(bounds[k][1], 0.0) >= cut
            rows, lp, lq = rows[keep], lp[keep], lq[keep]
        s, f = _golden_rows(lp, lq)
        f = np.minimum(f, _phi_rows(np.zeros_like(s), lp, lq))
        f = np.minimum(f, _phi_rows(np.ones_like(s), lp, lq))
        values[rows] = np.maximum(-f[:, 0], 0.0) + 0.0
        s_star[rows] = np.clip(s[:, 0], 0.0, 1.0)
    return values, s_star


def _pair_rows(pair):
    """The row form of a per-pair objective pair(P, Q) -> ExponentValue.

    rows(P, Q, floor) calls pair(P[k], Q[k]) on each row pair of two stacks
    and returns the float arrays (values, s), with s NaN where optimizer_s
    is None.  It takes the scan's floor, as chernoff_rows does, and ignores it.
    """

    def rows(P, Q, floor=None):
        scores = np.empty((len(P), 2))
        for k in range(len(P)):
            ev = pair(P[k], Q[k])
            scores[k] = ev.value, math.nan if ev.optimizer_s is None else ev.optimizer_s
        return scores[:, 0], scores[:, 1]

    return rows


def relative_entropy_rows(p_rows, q_rows) -> np.ndarray:
    """relative_entropy(P[k], Q[k]) for every row k, with the same floats."""
    p, q, _, blocks = _support_blocks(p_rows, q_rows)
    out = np.empty(len(p))
    for rows, pb, qb in blocks:
        d = np.add.reduce(pb * (np.log(pb) - np.log(qb)), axis=1)
        out[rows] = np.where(0.0 > d, 0.0, d)  # max(d, 0.0), keeping a -0.0 as max does
    out[np.flatnonzero((p > 0) & (q == 0)) // p.shape[1]] = math.inf  # rows where supp P is not in supp Q
    return out


def _tilted(s: float, lp: np.ndarray, lq: np.ndarray, llr: np.ndarray):
    """phi(s), phi'(s) and phi''(s) from the logs of P and Q on the common support.

    phi' and phi'' are the mean and variance of llr = lp - lq under the
    tilted law R_s = P^s Q^(1-s) / exp(phi(s)).
    """
    t = s * lp + (1.0 - s) * lq  # not lq + s * llr, which cancels when Q_k << P_k
    top = t.max()
    w = np.exp(t - top)
    z = float(w.sum())
    mean = float(w @ llr) / z
    var = float(w @ (llr - mean) ** 2) / z
    return float(top + math.log(z)), mean, var


def hoeffding_exponent(p_dist, q_dist, r: float) -> ExponentValue:
    """sup_s [-s r - phi(s)] / (1 - s), the type-II exponent under an
    exponential type-I constraint at rate r.

    Solved in tilted form (Blahut 1974; Csiszar-Korner): the optimal s in
    (0, 1) is the root of h(s) = r - D(R_s||P) = r + phi(s) + (1-s) phi'(s),
    which increases in s with slope (1-s) phi''(s), and the exponent is
    D(R_s||Q) = s phi'(s) - phi(s) there.  The root is found by Newton steps
    kept inside a shrinking bracket, with bisection when a step leaves it
    or stalls.  If r >= D(R_0||P) the optimum is s = 0 and the exponent is
    -phi(0), which is 0 when supp Q lies in supp P.  If r < -log P(supp Q)
    the supremum diverges as s -> 1 and the exponent is +inf.
    """
    if not r >= 0.0:  # also refuses NaN
        raise DomainError(f"constraint rate r must be nonnegative, got {r}")
    p, q = _pair(p_dist, q_dist)
    mask = (p > 0) & (q > 0)
    if not np.any(mask):
        return ExponentValue(math.inf, None)
    if np.any(p[q == 0] > 0) and r < -math.log(p[mask].sum()):
        return ExponentValue(math.inf, 1.0)
    if r == 0.0:
        # the supremum is the s -> 1 limit, phi'(1) = D(P||Q)
        return ExponentValue(relative_entropy(p_dist, q_dist), 1.0)

    lp, lq = np.log(p[mask]), np.log(q[mask])
    llr = lp - lq
    f, df, _ = _tilted(0.0, lp, lq, llr)
    if r + f + df >= 0.0:
        return ExponentValue(max(-f, 0.0) + 0.0, 0.0)  # +0.0 normalizes -0.0

    lo, hi, s, step, prev = 0.0, 1.0, 0.5, 1.0, 1.0
    for _ in range(100):  # a guard: the step tests end the loop, in ~10 steps for moderate r
        f, df, d2f = _tilted(s, lp, lq, llr)
        h = r + f + (1.0 - s) * df
        if h < 0.0:
            lo = s
        else:
            hi = s
        slope = (1.0 - s) * d2f
        dx = h / slope if slope > 0.0 else math.inf
        # a Newton step that does not halve the step before last is stalled:
        # near the root only round-off in h does that, so s is a root to
        # working precision; far from it, bisect
        stalled = abs(dx) > 0.5 * prev
        if abs(dx) <= 1e-15 or (stalled and abs(dx) <= 1e-9):
            break
        nxt = s - dx
        if stalled or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        prev, step = step, abs(nxt - s)
        if step <= 1e-15:
            break
        s = nxt
    return ExponentValue(max(s * df - f, 0.0) + 0.0, s)
