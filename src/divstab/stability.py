"""Stability layer: norms of divisorial measures, one-sided Danskin derivatives,
beta and delta invariants, and the variational Monge-Ampere solver.

Everything here maximizes the concave functional g(t) = S_L(t) - <xi, t> over
the normalized box [0, max gamma + 1]^|support|; concavity makes any local
optimum global, and translation invariance of g lets maximizers be reported
with min t_i = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    GeometryModel,
    Valuation,
    gamma_threshold,
)
from .filtrations import FiltrationSpec, expected_order_S
from .surface import SurfaceModel

PROBE_SEMANTICS = (
    "finite-instance evidence only: an instability witness is definitive, "
    "but the absence of one does not prove stability"
)


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget of the multi-start ascent + coordinate golden-section engine."""

    n_starts: int = 3
    max_iters: int = 30
    golden_cycles: int = 3
    t_tol: float = 1e-6
    eps_argmax: float = 1e-5
    cluster_radius: float = 1e-4
    grad_step: float = 1e-5


# cheaper budget for large randomized property sweeps; fine to ~1e-8 in value
FAST_OPTIONS = OptimizerOptions(n_starts=2, max_iters=12, golden_cycles=2, t_tol=1e-5)


@dataclass(frozen=True)
class NormResult:
    value: float
    maximizers: tuple[tuple[float, ...], ...]
    box_bound: float
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(fun, lo, hi, tol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def _normalize(t: list[float], hi: float) -> list[float]:
    m = min(t)
    return [min(max(x - m, 0.0), hi) for x in t]


def _ascend(g, t, hi, opts: OptimizerOptions):
    """Projected supergradient ascent with backtracking steps."""
    dim = len(t)
    val = g(t)
    step = hi / 4.0
    h = opts.grad_step
    for _ in range(opts.max_iters):
        grad = []
        for i in range(dim):
            tp, tm = list(t), list(t)
            tp[i] += h
            tm[i] -= h
            grad.append((g(tp) - g(tm)) / (2.0 * h))
        gn = max(abs(x) for x in grad)
        if gn < 1e-12:
            break
        moved = False
        while step > opts.t_tol / 4.0:
            cand = [
                min(max(t[i] + step * grad[i] / gn, 0.0), hi) for i in range(dim)
            ]
            cv = g(cand)
            if cv > val + 1e-14:
                t, val = cand, cv
                step *= 1.3
                moved = True
                break
            step /= 2.0
        if not moved:
            break
    return t, val


def _refine(g, t, val, hi, opts: OptimizerOptions):
    dim = len(t)
    for _ in range(opts.golden_cycles):
        before = val
        for i in range(dim):

            def fun(x, i=i):
                cand = list(t)
                cand[i] = x
                return g(cand)

            xi, vi = _golden(fun, 0.0, hi, opts.t_tol)
            if vi >= val:
                t = list(t)
                t[i] = xi
                val = vi
        if val - before < 1e-13:
            break
    return t, val


def _cluster(points, radius):
    reps: list[list[float]] = []
    for p in points:
        if all(max(abs(a - b) for a, b in zip(p, r)) > radius for r in reps):
            reps.append(p)
    return reps


def _maximize(g, dim, hi, rng, opts: OptimizerOptions):
    starts = [[0.0] * dim, [hi / 2.0] * dim]
    while len(starts) < opts.n_starts:
        starts.append([float(x) for x in rng.uniform(0.0, hi, dim)])
    finals = []
    for s in starts[: max(opts.n_starts, 2)]:
        t, val = _ascend(g, s, hi, opts)
        t, val = _refine(g, t, val, hi, opts)
        t = _normalize(t, hi)
        finals.append((g(t), t))
    finals.sort(key=lambda p: -p[0])
    best = finals[0][0]
    near = [t for v, t in finals if v >= best - opts.eps_argmax]
    reps = _cluster(near, opts.cluster_radius)
    return best, reps


# -- norms ------------------------------------------------------------------


def _box_bound(model, L, support) -> float:
    gammas = [
        float(gamma_threshold(model, L, v)) for v in support if not v.is_trivial
    ]
    return (max(gammas) + 1.0) if gammas else 1.0


def _objective(model, L, mu: DivisorialMeasure, quad_tol: float):
    support = mu.support
    xi = [float(m) for m in mu.masses]

    def g(t):
        s = expected_order_S(
            model, L, FiltrationSpec(support, tuple(t)), tol=quad_tol
        )
        return s - sum(x * ti for x, ti in zip(xi, t))

    return g


def norm(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    quad_tol: float = 1e-9,
    seed: int = 0,
    options: OptimizerOptions = OptimizerOptions(),
) -> NormResult:
    """sup over shifts t of S_L(t) - <xi, t>; nonnegative, zero on the trivial measure."""
    if not model.is_big(L):
        raise GeometryError("norm requires a big class")
    hi = _box_bound(model, L, mu.support)
    g = _objective(model, L, mu, quad_tol)
    rng = np.random.default_rng(seed)
    best, reps = _maximize(g, len(mu.support), hi, rng, options)
    return NormResult(
        value=best,
        maximizers=tuple(tuple(r) for r in reps),
        box_bound=hi,
        converged=True,
    )


def norm_enlarged_support_check(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    extra: Sequence[Valuation],
    tol: float = 1e-6,
    quad_tol: float = 1e-9,
    seed: int = 0,
    options: OptimizerOptions = OptimizerOptions(),
) -> bool:
    """The norm is unchanged by adding zero-mass valuations to the support."""
    names = {v.name for v in mu.support}
    for v in extra:
        if v.name in names:
            raise GeometryError(f"valuation {v.name!r} already supports the measure")
    base = norm(model, L, mu, quad_tol=quad_tol, seed=seed, options=options)
    if not extra:
        return True
    enlarged = DivisorialMeasure(
        mu.atoms + tuple((v, Fraction(0)) for v in extra)
    )
    big = norm(model, L, enlarged, quad_tol=quad_tol, seed=seed, options=options)
    return abs(base.value - big.value) <= tol


# -- Danskin derivatives ----------------------------------------------------


def _grad_S_direction(model, L, support, shifts, H, quad_tol) -> float:
    """d/ds S_{L+sH}(t) at s=0 with t fixed."""
    spec = FiltrationSpec(tuple(support), tuple(shifts))
    if isinstance(model, SurfaceModel):
        problem = model._compiled(L, spec.support)
        t0, lam_max, iv, ih = problem.integrals(spec.shifts, direction=H)
        if lam_max <= t0:
            return 0.0
        vol = float(problem.volume)
        plh = float(problem.positive_product(H))
        return (2.0 / vol) * (ih - (plh / vol) * iv)
    # Richardson-extrapolated central differences in the L direction
    def diff(eps: Fraction) -> float:
        up = expected_order_S(model, L + eps * H, spec, tol=quad_tol)
        dn = expected_order_S(model, L + (-eps) * H, spec, tol=quad_tol)
        return (up - dn) / (2.0 * float(eps))

    e = Fraction(1, 1000)
    d1 = diff(e)
    d2 = diff(e / 2)
    return (4.0 * d2 - d1) / 3.0


def _danskin_from(model, L, mu, H, side, result: NormResult, quad_tol) -> float:
    if side == "left":
        return -_danskin_from(model, L, mu, -H, "right", result, quad_tol)
    if side != "right":
        raise ValueError("side must be 'left' or 'right'")
    eps = Fraction(1, 10**6)
    if not model.is_big(L + eps * H):
        raise GeometryError("direction leaves the big cone at first order")
    if not result.maximizers:
        raise ConvergenceError("no maximizers available for the Danskin derivative")
    values = [
        _grad_S_direction(model, L, mu.support, t, H, quad_tol)
        for t in result.maximizers
    ]
    return max(values)


def danskin_derivative(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    H: DivisorClass,
    side: str = "right",
    quad_tol: float = 1e-9,
    seed: int = 0,
    options: OptimizerOptions = OptimizerOptions(),
) -> float:
    """One-sided derivative of ||mu||_{L+sH} at s=0: extremum of grad S over the argmax."""
    result = norm(model, L, mu, quad_tol=quad_tol, seed=seed, options=options)
    return _danskin_from(model, L, mu, H, side, result, quad_tol)


# -- beta / delta -----------------------------------------------------------


def beta(
    model: GeometryModel,
    L: DivisorClass,
    mu: DivisorialMeasure,
    quad_tol: float = 1e-9,
    seed: int = 0,
    options: OptimizerOptions = OptimizerOptions(),
) -> BetaReport:
    """Entropy term plus the left derivative of the norm in the canonical direction."""
    result = norm(model, L, mu, quad_tol=quad_tol, seed=seed, options=options)
    entropy = sum(
        (m * v.log_discrepancy for v, m in mu.atoms), Fraction(0)
    )
    derivative = _danskin_from(
        model, L, mu, model.canonical_class, "left", result, quad_tol
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
    model: GeometryModel,
    candidates: Sequence[Valuation],
    quad_tol: float = 1e-9,
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
        s = expected_order_S(
            model, minus_k, FiltrationSpec((v,), (0.0,)), tol=quad_tol
        )
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
    quad_tol: float = 1e-9,
    grad_tol: float = 1e-6,
    seed: int = 0,
    options: OptimizerOptions = OptimizerOptions(),
) -> MASolution:
    """Prescribe mu as the gradient measure of S at the variational optimum.

    Maximizes the same functional as `norm`; the output measure is the
    symmetric-difference gradient of S at the best shift vector, with kink
    coordinates (one-sided slopes disagreeing) flagged, not hidden.
    """
    result = norm(model, L, mu, quad_tol=quad_tol, seed=seed, options=options)
    t_star = list(result.maximizers[0])
    support = mu.support
    xi = [float(m) for m in mu.masses]

    def S(t):
        return expected_order_S(
            model, L, FiltrationSpec(support, tuple(t)), tol=quad_tol
        )

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
    quad_tol: float = 1e-9,
    seed: int = 0,
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
        rep = beta(model, L, mu, quad_tol=quad_tol, seed=seed, options=options)
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
