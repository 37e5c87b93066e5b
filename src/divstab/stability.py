"""Stability layer: norms of divisorial measures, one-sided Danskin derivatives,
beta and delta invariants, and the variational Monge-Ampere solver.

A norm is the Legendre transform sup_t g(t), g(t) = S_L(t) - <xi, t>.  g is
concave and invariant under t -> t + c 1, so the engine works in the reduced
shifts u = t[1:] - t[0] on the box [-hi, hi]^(d-1), hi = max gamma + 1, and
evaluates g at min t_i = 0.  Each evaluation of the exact value and
supergradient of S (`expected_order_S_grad`) is a cutting plane.  A projected
Newton ascent on the exact Hessian of S (`expected_order_hessian`, asked once
at each accepted point), then Kelley cutting-plane steps, run until the
bound certified by convex weights on the planes is within the tolerance of
the best value.  The Newton step solves (-H + rho I) p = s on the free
coordinates: rho = 0 where -H is positive definite, its Cholesky pivots
above 1e-9 of its largest diagonal, else rho starts at |s|_2 and doubles
until -H + rho I is; zero curvature steps a unit length along s.
The ascent starts at 0, or, when the non-trivial atoms of the measure share
one centre, at the exact maximizer if the backend solves for it
(`GeometryModel.one_valuation_maximizer`): there the first plane is flat
and certifies alone, else the ascent goes on from that point.
The evaluations, the ascent and the single-plane bounds run on Python
floats; the Kelley LP is solved exactly on their ints (`core._solve`).
A solve, the result and the exact gradient of S at its maximizer, is kept
in the memo of L by (measure, options) (`_kept_norm`): `norm`, `ma_solve`,
`beta`, `danskin_derivative` and the probe read it, and none solves again.
The two one-sided Danskin derivatives agree at the one reported maximizer:
both are the backend's derivative of S along H there (`order_derivative`).
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence

from .core import (
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    GeometryModel,
    Valuation,
    _dot,
    _integral,
    _recent,
    _solve,
    gamma_threshold,
)
from .filtrations import (
    FiltrationSpec,
    expected_order_hessian,
    expected_order_S,
    expected_order_S_grad,
    one_per_centre,
)

PROBE_SEMANTICS = (
    "finite-instance evidence only: an instability witness is definitive, "
    "but the absence of one does not prove stability"
)


@dataclass(frozen=True)
class OptimizerOptions:
    """Tolerance of the norm engine: a norm is converged when its certified
    gap, the cutting-plane upper bound minus the value, is at most `tol`."""

    tol: float = 1e-9


@dataclass(frozen=True)
class NormResult:
    """The norm `value`, g at the one reported maximizer (min t_i = 0), and
    `gap`, a certified bound on the true norm minus `value`."""

    value: float
    maximizers: tuple[tuple[float, ...], ...]
    box_bound: float
    gap: float
    converged: bool


@dataclass(frozen=True)
class BetaReport:
    entropy_term: Fraction
    derivative_term: float
    beta: float
    norm: float
    stability_ratio: Optional[float]


@dataclass(frozen=True)
class MASolution:
    """`measure_out` is the exact supergradient of S at `t_star`; the atoms in
    `flat_directions` tie in one order function, so their shares are not unique."""

    t_star: tuple[float, ...]
    measure_out: tuple[float, ...]
    residual: float
    flat_directions: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class ProbeEntry:
    measure: DivisorialMeasure
    norm: float
    beta: BetaReport


@dataclass(frozen=True)
class ProbeReport:
    entries: tuple[ProbeEntry, ...]
    min_ratio: Optional[float]
    witness: Optional[str]
    unstable: bool
    threshold: float
    semantics: str = PROBE_SEMANTICS


# -- concave maximization engine -------------------------------------------

# budgets: evaluations of the ascent (it crawls at a kink of g) and Kelley
# steps after it; the ascent ends when a shortened step is shorter than this
# in every coordinate
_ASCENT_EVALS, _KELLEY_STEPS, _LEAST_STEP = 50, 30, 1e-6


class _Certified(Exception):
    """The planes certify the tolerance: no further evaluation is needed."""


class _Planes:
    """The evaluations (u, g(u), supergradient s) of a concave g on the box
    [-hi, hi]^dim, each a cutting plane g(u_k) + s_k . (u - u_k) >= g(u),
    the best point, and the least bound on sup g certified so far; raises
    _Certified once that bound is within `tol` of the best value.  Points
    and slopes are kept as tuples of floats.  A single plane bounds g by
    offset + hi |s|_1; all of them together by the optimal value of the
    Kelley LP (`refine`), solved exactly and rounded up.
    Each bound is raised by `slack`, 4 ulps of hi, for the rounding of g,
    whose terms S and <xi, t> are below 2 hi: at an exact maximizer the
    plane is flat, and g rounded to nearest can fall below sup g.
    """

    def __init__(self, g, hi, tol):
        self.g, self.hi, self.tol, self.slack = g, hi, tol, 4 * math.ulp(hi)
        self.us, self.values, self.slopes, self.offsets = [], [], [], []
        self.best, self.bound = 0, math.inf

    def __call__(self, u):
        value, grad = self.g(u)
        grad = tuple(map(float, grad))
        offset = value - _dot(grad, u)
        self.us.append(u)
        self.values.append(value)
        self.slopes.append(grad)
        self.offsets.append(offset)
        if value > self.values[self.best]:
            self.best = len(self.values) - 1
        self.lower(offset + self.hi * sum(map(abs, grad)))
        return value, grad

    def lower(self, top):
        self.bound = min(self.bound, top + self.slack)
        if self.bound - self.values[self.best] <= self.tol:
            raise _Certified

    def refine(self):
        """Lower the bound to the maximum of the cutting-plane model on the
        box, rounded up, and return its maximizer, the next Kelley point.

        That maximum is min lam . offsets + hi |S^T lam|_1 over convex lam, in
        standard form on dim + 1 rows: a column (s_k, 1) at cost offset_k per
        plane, and columns (+-e_i, 0) at cost hi that carry |S^T lam|.  The
        floats are binary rationals, so each row and the costs are ints over
        one denominator each, and a revised simplex with Bland's rule, from
        the best single plane, solves each basis exactly (`_solve`).  The
        maximizer is minus the multipliers of the slope rows, in the box by
        dual feasibility.
        """
        n, dim = len(self.slopes), len(self.slopes[0])
        ints, scales = zip(*[(row, q) for (row,), q in (_integral([s]) for s in zip(*self.slopes))])
        units = [(i, sign * scale) for sign in (1, -1) for i, scale in enumerate(scales)]
        columns = list(zip(*ints, [1] * n)) + [tuple(e * (j == i) for j in range(dim)) + (0,) for i, e in units]
        (cost,), den = _integral([self.offsets + [self.hi] * (2 * dim)])
        k = min(range(n), key=lambda k: self.offsets[k] + self.hi * sum(map(abs, self.slopes[k])))
        # e_i carries -s_ki for a slope below 0, -e_i for one above
        basis = [k] + [n + i + dim * (self.slopes[k][i] > 0) for i in range(dim)]
        while True:
            # y, x, step: d = det B (either sign) times the multipliers, the
            # basic solution, the direction; Bland: the least improving column enters
            B = [columns[j] for j in basis]
            d, y = _solve(B, [cost[j] for j in basis])
            entering = next((j for j, a in enumerate(columns) if (cost[j] * d - _dot(a, y)) * d < 0), None)
            if entering is None:
                break
            _, x, step = _solve(list(zip(*B)), [0] * dim + [1], columns[entering])
            # the dual holds u = 0, so the LP is bounded and some row leaves:
            # of the rows that leave first, the least basic index
            rows = [i for i in range(dim + 1) if step[i] * d > 0]
            basis[min(rows, key=lambda i: (Fraction(x[i], step[i]), basis[i]))] = entering
        # the optimal value is the multiplier of the convexity row
        top = Fraction(y[-1], d * den)
        self.lower(float(top) if float(top) >= top else math.nextafter(float(top), math.inf))
        return tuple(float(Fraction(-scale * v, d * den)) for scale, v in zip(scales, y))


def _ascend(planes, u, hi, hessian=None):
    """Projected Newton ascent on g from the point u until the planes
    certify, the evaluation budget is spent, the step does not ascend or a
    shortened step falls below `_LEAST_STEP`.

    A coordinate is free unless it sits at a bound with the supergradient s
    pointing out of the box.  At each accepted point the Hessian H of g is
    asked once (`hessian(u)`; None: zero curvature), and the step p solves
    (-H + rho I) p = s on the free coordinates, 0 on the others, clipped to
    the box (`_damped_newton`).  rho is 0 where -H is positive definite,
    its Cholesky pivots above 1e-9 of its largest diagonal; else it starts
    at |s|_2 and doubles until -H + rho I is, so zero curvature steps a
    unit length along s.  The step is accepted when g(u + p) >= g(u) +
    1e-4 s . p; else it is shortened to the secant root of the directional
    supergradient, within [0.1, 0.5] of its length.  Vectors are tuples of
    floats and matrices lists of rows: in the dimensions of a norm, arrays
    cost more than the arithmetic.
    """
    value, s = planes(u)
    while len(planes.us) < _ASCENT_EVALS:
        free = [i for i, (x, si) in enumerate(zip(u, s)) if not ((x <= -hi and si < 0) or (x >= hi and si > 0))]
        step = _damped_newton(hessian(u) if hessian else None, s, free)
        p = tuple(min(max(x + d, -hi), hi) - x for x, d in zip(u, step))
        if _dot(s, p) <= 0:
            return
        while True:
            slope = _dot(s, p)
            trial = tuple(map(add, u, p))
            new, s_new = planes(trial)
            if new >= value + 1e-4 * slope:
                break
            if len(planes.us) >= _ASCENT_EVALS:
                return
            # the secant root is past 0.5 of the step when the drop is below 2 slope
            shrink = max(slope / max(slope - _dot(s_new, p), 2.0 * slope), 0.1)
            p = tuple(shrink * x for x in p)
            # below this scale the Armijo test compares values that differ
            # by the rounding of S; the Kelley steps take over
            if max(map(abs, p)) < _LEAST_STEP:
                return
        u, value, s = trial, new, s_new


def _damped_newton(H, s, free):
    """The solution p of (-H + rho I) p = s on the coordinates `free`, 0 on
    the others, for the symmetric H (None: 0): rho = 0 if the Cholesky
    pivots of -H stay above 1e-9 of its largest diagonal, else the least of
    |s|_2, 2 |s|_2, 4 |s|_2, ... for which those of -H + rho I do, s taken
    on the free coordinates; p = 0 if no finite rho does."""
    p, b = [0.0] * len(s), [s[i] for i in free]
    size = math.hypot(*b)
    if not size:
        return p
    A = [[-H[i][j] for j in free] + [c] for i, c in zip(free, b)] if H else [[0.0] * len(b) + [c] for c in b]
    rho = 0.0
    while (x := _solve_definite(A, rho)) is None:
        rho = 2.0 * rho if rho else size
        if rho == math.inf:  # H is not finite: no step, and the ascent ends
            return p
    for i, v in zip(free, x):
        p[i] = v
    return p


def _solve_definite(A, rho):
    """x with (A + rho I) x = b for the rows of A augmented by b, A
    symmetric, by elimination without row exchanges, whose pivots are those
    of the Cholesky factorization; None unless each is above 1e-9 of the
    largest diagonal of A + rho I."""
    n = len(A)
    m = [row[:] for row in A]
    for i, row in enumerate(m):
        row[i] += rho
    least = 1e-9 * max([row[i] for i, row in enumerate(m)])
    for k, top in enumerate(m):
        if not (least > 0 and top[k] > least):
            return None
        for row in m[k + 1:]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = m[k]
        x[k] = (row[n] - sum([row[j] * x[j] for j in range(k + 1, n)])) / row[k]
    return x


def _certified_max(g, dim, hi, tol, start=None, hessian=None):
    """(u, bound): the best evaluated point of the concave g on [-hi, hi]^dim
    and a certified upper bound on sup g; `g(u)` takes a tuple of floats and
    returns the value and a supergradient, `hessian(u)` the Hessian of g
    there as rows (None: zero curvature).  A projected Newton ascent
    (`_ascend`) runs from `start` (default 0) until the planes certify
    `tol`; its step solves (-H + rho I) p = s, rho = 0 where -H is positive
    definite, else |s|_2 doubled until -H + rho I is.  Then Kelley steps,
    from all the planes of the ascent, until the planes certify or their
    budget is spent."""
    planes = _Planes(g, hi, tol)
    with suppress(_Certified):
        _ascend(planes, (0.0,) * dim if start is None else start, hi, hessian)
        for _ in range(_KELLEY_STEPS):
            planes(planes.refine())
    return planes.us[planes.best], planes.bound


# -- norms ------------------------------------------------------------------


def norm(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    options: OptimizerOptions = OptimizerOptions(),
) -> NormResult:
    """sup over shifts t of S_L(t) - <xi, t>; nonnegative, zero on the trivial measure."""
    return _kept_norm(model, L, mu, options)[0]


def _kept_norm(model, L, mu, options) -> tuple[NormResult, tuple[float, ...]]:
    """(the norm of mu, the exact gradient of S at its maximizer), kept in the
    memo of L for the last 8 (measure, options) asked (`_recent`); an error,
    such as L not big, is kept by no memo and raised again on every call."""
    memo = model._memo_of(L)
    kept = memo["norms"] = _recent(memo.get("norms", ()), (mu, options), 8, _maximize, model, L, mu, options)
    return kept[0][1]


def _maximize(model, L, mu, options):
    """(NormResult, grad S), grad S from the evaluation of S that gave the value."""
    if not model.is_big(L):
        raise GeometryError("norm requires a big class")
    support = mu.support
    gammas = [float(gamma_threshold(model, L, v)) for v in support if not v.is_trivial]
    hi = max(gammas, default=0.0) + 1.0
    xi = [float(m) for m in mu.masses]

    def g(spec):
        s, grad = expected_order_S_grad(model, L, spec)
        return s - _dot(xi, spec.shifts), grad

    def lowest_at_zero(u):
        # 0.0 - low, not -low: the least shift is +0.0, and so is any other zero
        shift = 0.0 - min(0.0, *u)
        return (shift, *(shift + x for x in u))

    # g is invariant under t -> t + c 1: it is evaluated where the result is
    # reported, at min t_i = 0, so the value at the result is not recomputed;
    # the Hessian is asked at evaluated points only, on their filtrations
    evaluated = {}

    def reduced(u):
        spec = FiltrationSpec(support, lowest_at_zero(u))
        value, grad = g(spec)
        evaluated[u] = value, spec, grad
        return value, list(map(sub, grad[1:], xi[1:]))

    def curvature(u):
        # the Hessian of g is that of S, in the coordinates of u
        H = expected_order_hessian(model, L, evaluated[u][1])
        return [row[1:] for row in H[1:]]

    t, bound, value = (0.0,) * len(xi), -math.inf, None
    if len(xi) > 1:
        start = _closed_form_start(model, L, mu)
        u, bound = _certified_max(reduced, len(xi) - 1, hi, options.tol, start, curvature)
        value, spec, grad = evaluated[u]
        t = spec.shifts
        # past hi above the least shift a valuation is inactive, and lowering
        # its shift to hi does not lower g
        if max(t) > hi:
            t, value = tuple(min(x, hi) for x in t), None
    if value is None:
        value, grad = g(FiltrationSpec(support, t))
    gap = max(bound - value, 0.0)
    return NormResult(value=value, maximizers=(t,), box_bound=hi, gap=gap, converged=gap <= options.tol), grad


def _closed_form_start(model, L, mu):
    """The exact maximizer of g, as reduced shifts, when the non-trivial
    atoms of mu share one centre and the backend solves for it
    (`GeometryModel.one_valuation_maximizer`): the trivial atoms at y, the
    centre's at 0, their masses summed.  None otherwise."""
    centres = {v.centre for v in mu.support if not v.is_trivial}
    if len(centres) != 1:
        return None
    v = next(v for v in mu.support if not v.is_trivial)
    y = model.one_valuation_maximizer(L, v, sum((m for w, m in mu.atoms if w.is_trivial), Fraction(0)))
    if y is None:
        return None
    t = [y if w.is_trivial else 0.0 for w in mu.support]
    return tuple(x - t[0] for x in t[1:])


# -- Danskin derivatives ----------------------------------------------------


def _danskin(model, L, mu, H, side, options) -> tuple[NormResult, float]:
    """The norm of mu and its one-sided derivative along H, on one atom per
    centre (`one_per_centre`).  No check that L +- sH stays big is needed:
    the big cone is open, so once `norm` has found L big, L + sH is big for
    all small enough |s|.  At the one reported maximizer both sides are the
    backend's derivative along H itself: -d(-H) is d(H) bit for bit on both
    backends (the surface one is linear in H and negates exactly, the toric
    central differences swap their two sides), up to the sign of a zero."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    result = _kept_norm(model, L, mu, options)[0]
    support, t, _ = one_per_centre(mu.support, result.maximizers[0])
    return result, model.order_derivative(L, support, t, H)


def danskin_derivative(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    H: DivisorClass,
    side: str = "right",
    options: OptimizerOptions = OptimizerOptions(),
) -> float:
    """One-sided derivative of ||mu||_{L+sH} at s=0: `model.order_derivative`
    at the one reported maximizer, exact when the argmax is that point.  Both
    sides agree there: each is the backend's one derivative along H at that
    point, as -d(-H) is d(H) bit for bit; `side` is still checked."""
    return _danskin(model, L, mu, H, side, options)[1]


# -- beta / delta -----------------------------------------------------------


def beta(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    options: OptimizerOptions = OptimizerOptions(),
) -> BetaReport:
    """Entropy term plus the left derivative of the norm in the canonical direction."""
    result, derivative = _danskin(model, L, mu, model.canonical_class, "left", options)
    entropy = sum(
        (m * v.log_discrepancy for v, m in mu.atoms), Fraction(0)
    )
    b = float(entropy) + derivative
    ratio = b / result.value if result.value > 0 else None
    return BetaReport(
        entropy_term=entropy,
        derivative_term=derivative,
        beta=b,
        norm=result.value,
        stability_ratio=ratio,
    )


def delta_anticanonical(
    model: GeometryModel, candidates: Sequence[Valuation]
) -> tuple[float, Valuation]:
    """min over candidates of A(E) / S_{-K}(E); below 1 certifies instability."""
    minus_k = -model.canonical_class
    if not model.is_big(minus_k):
        raise GeometryError("the anticanonical class is not big")
    if not candidates:
        raise GeometryError("empty candidate set")
    best: Optional[tuple[float, Valuation]] = None
    for v in candidates:
        if v.is_trivial:
            raise GeometryError("candidates must be non-trivial valuations")
        s = expected_order_S(model, minus_k, FiltrationSpec((v,), (0.0,)))
        if s <= 0:
            raise GeometryError(f"candidate {v.name!r} has nonpositive expected order")
        ratio = float(v.log_discrepancy) / s
        if best is None or ratio < best[0]:
            best = (ratio, v)
    return best


# -- Monge-Ampere solver ----------------------------------------------------


def ma_solve(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    options: OptimizerOptions = OptimizerOptions(),
) -> MASolution:
    """Prescribe mu as the gradient measure of S at the variational optimum.

    Reads the kept solve of `norm`; the output measure is the exact
    supergradient of S at the reported maximizer, from the evaluation that
    gave the norm's value.  S sees atoms of one valuation, one
    `Valuation.centre`, only through their least shift, so S has a kink
    where their shifts tie: their coordinates are flagged, and the group's
    mass is split in proportion to mu, an element of the superdifferential
    at the tie.
    """
    result, grad = _kept_norm(model, L, mu, options)
    (t_star,) = result.maximizers
    xi = [float(m) for m in mu.masses]
    measure = list(grad)
    groups: dict[object, list[int]] = {}
    for i, v in enumerate(mu.support):
        groups.setdefault(v.centre, []).append(i)
    flats = []
    for group in groups.values():
        if len(group) > 1:
            flats += group
            mass, total = (math.fsum(x[i] for i in group) for x in (measure, xi))
            # a group without mass in mu keeps the exact supergradient
            for i in group:
                measure[i] = mass * xi[i] / total if total else measure[i]
    return MASolution(
        t_star=t_star,
        measure_out=tuple(measure),
        residual=max(abs(g - x) for g, x in zip(measure, xi)),
        flat_directions=tuple(sorted(flats)),
        value=result.value,
    )


# -- stability probe --------------------------------------------------------


def divisorial_stability_probe(
    model: GeometryModel,
    L: DivisorClass,
    measures: Sequence[DivisorialMeasure],
    epsilon: float = 0.0,
    options: OptimizerOptions = OptimizerOptions(),
) -> ProbeReport:
    """beta versus epsilon * norm over a finite family of measures.

    A measure with beta < epsilon * norm is a definitive instability witness;
    an empty violation list is evidence of stability, never proof.
    """
    entries = []
    min_ratio: Optional[float] = None
    witness: Optional[str] = None
    for mu in measures:
        rep = beta(model, L, mu, options=options)
        entries.append(ProbeEntry(measure=mu, norm=rep.norm, beta=rep))
        if rep.stability_ratio is None:
            continue
        if min_ratio is None or rep.stability_ratio < min_ratio:
            min_ratio = rep.stability_ratio
        if rep.beta < epsilon * rep.norm - 1e-9 and witness is None:
            witness = "+".join(v.name for v in mu.support)
    return ProbeReport(
        entries=tuple(entries),
        min_ratio=min_ratio,
        witness=witness,
        unstable=witness is not None,
        threshold=epsilon,
    )
