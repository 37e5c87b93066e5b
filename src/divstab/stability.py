"""Stability layer: norms of divisorial measures, one-sided Danskin derivatives,
beta and delta invariants, and the variational Monge-Ampere solver.

A norm is the Legendre transform sup_t g(t), g(t) = S_L(t) - <xi, t>.  g is
concave and invariant under t -> t + c 1, so the engine works in the reduced
shifts u = t[1:] - t[0] on the box [-hi, hi]^(d-1), hi = max gamma + 1, and
evaluates g at min t_i = 0.  Each evaluation of the exact value and
supergradient of S (`expected_order_S_grad`) is a cutting plane.  A projected
BFGS ascent, a stencil around its best point and Kelley cutting-plane steps
run until the bound certified by convex weights on the planes is within the
tolerance of the best value.  The evaluations, the ascent, the stencil and
the bound of each plane run on tuples of Python floats; numpy is used only
where planes are weighed together: the least-squares weights of the stencil
and the small simplex of the Kelley steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    GeometryModel,
    Valuation,
    _dot,
    gamma_threshold,
)
from .filtrations import FiltrationSpec, expected_order_S, expected_order_S_grad
from .surface import SurfaceModel

PROBE_SEMANTICS = (
    "finite-instance evidence only: an instability witness is definitive, "
    "but the absence of one does not prove stability"
)


@dataclass(frozen=True)
class OptimizerOptions:
    """Tolerance of the norm engine: a norm is converged when its certified
    gap, the cutting-plane upper bound minus the value, is at most `tol`."""

    tol: float = 1e-9


# looser tolerance for large randomized property sweeps
FAST_OPTIONS = OptimizerOptions(tol=1e-8)


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

# budgets: evaluations of the ascent (it crawls at a kink of g), Kelley steps
# after it, and simplex pivots per cutting-plane LP; the stencil points lie
# this far from the best point of the ascent
_ASCENT_EVALS, _KELLEY_STEPS, _PIVOTS, _STENCIL = 50, 30, 500, 1e-6


class _Certified(Exception):
    """The planes certify the tolerance: no further evaluation is needed."""


class _Planes:
    """The evaluations (u, g(u), supergradient s) of a concave g on the box
    [-hi, hi]^dim, each a cutting plane g(u_k) + s_k . (u - u_k) >= g(u),
    the best point, and the least bound on sup g certified so far; raises
    _Certified once that bound is within `tol` of the best value.  Points
    and slopes are kept as tuples of floats.  Convex weights on the planes
    bound g by the maximum of their combination over the box, in closed form
    (`weigh`), whatever the rounding of the weights or of the LP that found
    them; a single plane bounds it by offset + hi |s|_1.
    """

    def __init__(self, g, hi, tol):
        self.g, self.hi, self.tol = g, hi, tol
        self.us, self.values, self.slopes, self.offsets = [], [], [], []
        self.best, self.bound = 0, math.inf

    def __call__(self, u):
        u = tuple(map(float, u))
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
        self.bound = min(self.bound, top)
        if self.bound - self.values[self.best] <= self.tol:
            raise _Certified

    def weigh(self, rows, lam):
        lam = lam / lam.sum()
        slope = lam @ np.array(self.slopes)[rows]
        self.lower(float(lam @ np.array(self.offsets)[rows] + self.hi * np.abs(slope).sum()))

    def balance(self, rows, free):
        """Weigh the planes so that their slopes cancel off the box boundary."""
        free = np.array(free, dtype=bool)
        A = np.vstack([np.array(self.slopes)[rows][:, free].T, np.ones(len(rows))])
        lam = np.linalg.lstsq(A, np.r_[np.zeros(free.sum()), 1.0], rcond=None)[0]
        if lam.min() >= 0.0:
            self.weigh(rows, lam)

    def refine(self):
        """Weigh by the optimal weights of the cutting-plane model and return
        its maximizer on the box, the next Kelley point.

        The weights solve min lam . offsets + hi |S^T lam|_1 over convex lam,
        in standard form on dim + 1 rows: a column (s_k, 1) at cost offset_k
        per plane, and columns (+-e_i, 0) at cost hi that carry |S^T lam|.
        A revised simplex with Bland's rule starts from the best single plane;
        the maximizer is minus the multipliers of the slope rows.
        """
        S = np.array(self.slopes)
        n, dim = S.shape
        eye = np.eye(dim)
        A = np.vstack([np.hstack([S.T, eye, -eye]), np.r_[np.ones(n), np.zeros(2 * dim)]])
        cost = np.r_[self.offsets, np.full(2 * dim, self.hi)]
        rhs = np.r_[np.zeros(dim), 1.0]
        k = int(np.argmin(cost[:n] + self.hi * np.abs(S).sum(axis=1)))
        # e_i carries -s_ki for a slope below 0, -e_i for one above
        basis = [k] + [n + i + dim * int(S[k, i] > 0) for i in range(dim)]
        for _ in range(_PIVOTS):
            B = A[:, basis]
            try:
                x = np.linalg.solve(B, rhs)
                y = np.linalg.solve(B.T, cost[basis])
            except np.linalg.LinAlgError as err:
                raise ConvergenceError("cutting-plane LP basis is singular") from err
            entering = np.flatnonzero(cost - y @ A < -1e-13)
            if not entering.size:
                break
            # B is the matrix that was just solved with, so it is not singular
            d = np.linalg.solve(B, A[:, entering[0]])
            rows = np.flatnonzero(d > 1e-12)
            if not rows.size:
                raise ConvergenceError("cutting-plane LP is unbounded")
            ratios = x[rows] / d[rows]
            # Bland: of the rows that leave first, the least basic index
            ties = rows[ratios <= ratios.min() + 1e-15]
            basis[min(ties, key=basis.__getitem__)] = int(entering[0])
        else:
            raise ConvergenceError(f"cutting-plane LP took more than {_PIVOTS} pivots")
        rows, lam = zip(*((j, xj) for j, xj in zip(basis, x) if j < n))
        self.weigh(list(rows), np.maximum(lam, 0.0))
        return np.clip(-y[:dim], -self.hi, self.hi)


def _ascend(planes, dim, hi):
    """Projected BFGS ascent on g from 0 until the planes certify, the
    evaluation budget is spent, the step does not ascend or a shortened step
    falls below the stencil spacing.

    A coordinate is free unless it sits at a bound with the supergradient s
    pointing out of the box.  The step p moves the free coordinates along
    H s and is clipped to the box.  It is accepted when
    g(u + p) >= g(u) + 1e-4 s . p; else it is shortened to the secant root of
    the directional supergradient, within [0.1, 0.5] of its length.  H is the
    identity, scaled by p . y / y . y at the first update and then updated by
    BFGS on -g.  Vectors are tuples of floats and H a list of rows: in the
    dimensions of a norm, arrays cost more than the arithmetic.
    """
    u = (0.0,) * dim
    value, s = planes(u)
    H = [[float(i == j) for j in range(dim)] for i in range(dim)]
    scaled = False
    while len(planes.us) < _ASCENT_EVALS:
        free = [not ((x <= -hi and si < 0) or (x >= hi and si > 0)) for x, si in zip(u, s)]
        sf = [si if f else 0.0 for si, f in zip(s, free)]
        p = tuple(
            min(max(x + _dot(row, sf), -hi), hi) - x if f else 0.0
            for x, row, f in zip(u, H, free)
        )
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
            # the stencil probes this scale next; below it the Armijo test
            # compares values that differ by the rounding of S
            if max(map(abs, p)) < _STENCIL:
                return
        y = tuple(map(sub, s, s_new))
        py = _dot(p, y)
        if py > 0:
            if not scaled:
                scale = py / _dot(y, y)
                H, scaled = [[scale * h for h in row] for row in H], True
            # H - (H y p' + p y' H) / py + (1 + y' H y / py) p p' / py
            w = [_dot(row, y) for row in H]
            c = 1.0 + _dot(y, w) / py
            H = [
                [h - (wi * pj + pi * wj) / py + c * pi * pj / py for h, wj, pj in zip(row, w, p)]
                for row, wi, pi in zip(H, w, p)
            ]
        u, value, s = trial, new, s_new


def _certified_max(g, dim, hi, tol):
    """(u, bound): the best evaluated point of the concave g on [-hi, hi]^dim
    and a certified upper bound on sup g; `g(u)` takes a tuple of floats and
    returns the value and a supergradient.  A projected BFGS ascent runs
    until the planes certify `tol`; then a stencil of planes around its best
    point; then Kelley steps, until their budget is spent or the
    cutting-plane LP fails."""
    planes = _Planes(g, hi, tol)
    try:
        _ascend(planes, dim, hi)
        # neighbours of the best point along directions that positively span
        # the space, e_i and -1: 0 is in the hull of their slopes at a maximizer
        best, first = planes.us[planes.best], len(planes.us)
        for i in range(dim):
            planes(best[:i] + (min(best[i] + _STENCIL, hi),) + best[i + 1 :])
        planes(tuple(max(x - _STENCIL, -hi) for x in best))
        planes.balance(list(range(first, first + dim + 1)), [abs(x) < hi for x in best])
        for _ in range(_KELLEY_STEPS):
            try:
                u = planes.refine()
            except ConvergenceError:
                # the LP failed: the planes still bound sup g, and the gap says how well
                break
            planes(u)
    except _Certified:
        pass
    return planes.us[planes.best], planes.bound


# -- norms ------------------------------------------------------------------


def norm(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    options: OptimizerOptions = OptimizerOptions(),
) -> NormResult:
    """sup over shifts t of S_L(t) - <xi, t>; nonnegative, zero on the trivial measure."""
    if not model.is_big(L):
        raise GeometryError("norm requires a big class")
    gammas = [float(gamma_threshold(model, L, v)) for v in mu.support if not v.is_trivial]
    hi = max(gammas, default=0.0) + 1.0
    xi = [float(m) for m in mu.masses]

    def g(t):
        s, grad = expected_order_S_grad(model, L, FiltrationSpec(mu.support, t))
        return s - _dot(xi, t), list(map(sub, grad, xi))

    def lowest_at_zero(u):
        # 0.0 - low, not -low: the least shift is +0.0, and so is any other zero
        shift = 0.0 - min(0.0, *u)
        return (shift, *(shift + x for x in u))

    # g is invariant under t -> t + c 1: it is evaluated where the result is
    # reported, at min t_i = 0, so the value at the result is not recomputed
    values = {}

    def reduced(u):
        value, grad = g(lowest_at_zero(u))
        values[u] = value
        return value, grad[1:]

    t, bound, value = (0.0,) * len(xi), -math.inf, None
    if len(xi) > 1:
        u, bound = _certified_max(reduced, len(xi) - 1, hi, options.tol)
        t, value = lowest_at_zero(u), values[u]
        # past hi above the least shift a valuation is inactive, and lowering
        # its shift to hi does not lower g
        if max(t) > hi:
            t, value = tuple(min(x, hi) for x in t), None
    if value is None:
        value = g(t)[0]
    gap = max(bound - value, 0.0)
    return NormResult(
        value=value,
        maximizers=(t,),
        box_bound=hi,
        gap=gap,
        converged=gap <= options.tol,
    )


def norm_enlarged_support_check(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    extra: Sequence[Valuation],
    tol: float = 1e-6,
    options: OptimizerOptions = OptimizerOptions(),
) -> bool:
    """The norm is unchanged by adding zero-mass valuations to the support."""
    names = {v.name for v in mu.support}
    for v in extra:
        if v.name in names:
            raise GeometryError(f"valuation {v.name!r} already supports the measure")
    base = norm(model, L, mu, options=options)
    if not extra:
        return True
    enlarged = DivisorialMeasure(mu.atoms + tuple((v, Fraction(0)) for v in extra))
    big = norm(model, L, enlarged, options=options)
    return abs(base.value - big.value) <= tol


# -- Danskin derivatives ----------------------------------------------------


def _grad_S_direction(model, L, support, shifts, H) -> float:
    """d/ds S_{L+sH}(t) at s=0 with t fixed."""
    spec = FiltrationSpec(tuple(support), tuple(shifts))
    if isinstance(model, SurfaceModel):
        problem = model._compiled(L, spec.support)
        t0, lam_max, iv, ih = problem.integrals(spec.shifts, problem.pulled([H]))
        if lam_max <= t0:
            return 0.0
        vol = problem.volume
        # P_L . H from the decomposition the problem kept: L is not decomposed again
        plh = float(model.pairing(problem.positive, H))
        return (2.0 / vol) * (float(ih[0]) - (plh / vol) * iv)
    # Richardson-extrapolated central differences in the L direction
    def diff(eps: Fraction) -> float:
        up = expected_order_S(model, L + eps * H, spec)
        dn = expected_order_S(model, L + (-eps) * H, spec)
        return (up - dn) / (2.0 * float(eps))

    e = Fraction(1, 1000)
    d1 = diff(e)
    d2 = diff(e / 2)
    return (4.0 * d2 - d1) / 3.0


def _danskin(model, L, mu, H, side, options, check=True) -> tuple[NormResult, float]:
    """The norm of mu and its one-sided derivative along H.  The check on
    L +- eps H, if `check`, runs first: the derivative reads the norm's memo."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sign = 1 if side == "right" else -1
    if check and not model.is_big(L + Fraction(sign, 10**6) * H):
        if not model.is_big(L):
            raise GeometryError("norm requires a big class")
        raise GeometryError("direction leaves the big cone at first order")
    result = norm(model, L, mu, options=options)
    (t,) = result.maximizers
    return result, sign * _grad_S_direction(model, L, mu.support, t, sign * H)


def danskin_derivative(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    H: DivisorClass,
    side: str = "right",
    options: OptimizerOptions = OptimizerOptions(),
) -> float:
    """One-sided derivative of ||mu||_{L+sH} at s=0: grad S at the one
    reported maximizer, exact when the argmax is that point."""
    return _danskin(model, L, mu, H, side, options)[1]


# -- beta / delta -----------------------------------------------------------


def beta(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    options: OptimizerOptions = OptimizerOptions(),
) -> BetaReport:
    """Entropy term plus the left derivative of the norm in the canonical direction."""
    return _beta(model, L, mu, options, check=True)


def _beta(model, L, mu, options, check) -> BetaReport:
    result, derivative = _danskin(model, L, mu, model.canonical_class, "left", options, check)
    entropy = sum(
        (m * v.log_discrepancy for v, m in mu.atoms), Fraction(0)
    )
    b = float(entropy) + derivative
    ratio = b / result.value if result.value > 1e-9 else None
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
    grad_tol: float = 1e-6,
    options: OptimizerOptions = OptimizerOptions(),
) -> MASolution:
    """Prescribe mu as the gradient measure of S at the variational optimum.

    Maximizes the same functional as `norm`; the output measure is the
    symmetric-difference gradient of S at the best shift vector, with kink
    coordinates (one-sided slopes disagreeing) flagged, not hidden.
    """
    result = norm(model, L, mu, options=options)
    t_star = list(result.maximizers[0])
    support = mu.support
    xi = [float(m) for m in mu.masses]

    def S(t):
        return expected_order_S(model, L, FiltrationSpec(support, tuple(t)))

    h = 1e-5
    center = S(t_star)
    grads = []
    flats = []
    for i in range(len(t_star)):
        tp, tm = list(t_star), list(t_star)
        tp[i] += h
        tm[i] -= h
        fwd = (S(tp) - center) / h
        bwd = (center - S(tm)) / h
        if abs(fwd - bwd) > 10.0 * grad_tol:
            flats.append(i)
        grads.append(0.5 * (fwd + bwd))
    residual = max(abs(g - x) for g, x in zip(grads, xi))
    return MASolution(
        t_star=tuple(t_star),
        measure_out=tuple(grads),
        residual=residual,
        flat_directions=tuple(flats),
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
        # L - 1e-6 K is checked once: it would empty the memo of L each time
        rep = _beta(model, L, mu, options, check=not entries)
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
