"""Divisorial filtrations of section rings.

A filtration is a finite valuation support plus a shift vector t; its key
invariant is the expected vanishing order

    S(t) = t0 + vol(L)^{-1} Integral_{t0}^{lam_max} vol(L - Sum max(lam - t_i, 0) E_i) dlam

with t0 = min t_i and lam_max = min_i (gamma_i + t_i).  On a surface the
volume is quadratic on each Zariski chamber and integrated chamber by chamber;
on a toric model S is the mean over the section polytope P_L of
min_i (order_i + t_i), integrated exactly cell by cell.  The same quantity is
approximated at finite level k from jumping numbers of toric monomial bases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GeometryError, GeometryModel, DivisorClass, Valuation, gamma_threshold
from .quadrature import integrate
from .surface import SurfaceModel
from .toric import ToricModel


@dataclass(frozen=True)
class FiltrationSpec:
    """Support valuations and shifts t, one shift per valuation."""

    support: tuple[Valuation, ...]
    shifts: tuple[float, ...]

    @staticmethod
    def make(pairs: Sequence[tuple[Valuation, object]]) -> "FiltrationSpec":
        return FiltrationSpec(
            tuple(v for v, _ in pairs), tuple(t for _, t in pairs)
        )

    def __post_init__(self):
        if not self.support:
            raise GeometryError("filtration support is empty")
        if len(self.support) != len(self.shifts):
            raise GeometryError("support and shift vector lengths differ")
        if not all(map(math.isfinite, self.shifts)):
            raise GeometryError(f"shifts must be finite, got {self.shifts}")
        names = [v.name for v in self.support]
        if len(set(names)) != len(names):
            raise GeometryError("filtration support contains repeated valuations")

    def shifted(self, offset) -> "FiltrationSpec":
        return FiltrationSpec(self.support, tuple(t + offset for t in self.shifts))


@dataclass(frozen=True)
class JumpingProfile:
    """Sorted jumping values at level k and their normalized mean."""

    k: int
    jumping_values: tuple[float, ...]
    volume: float


def integration_range(
    model: GeometryModel, L: DivisorClass, spec: FiltrationSpec
):
    """(t0, lam_max, nontrivial (valuation, shift) pairs, threshold breakpoints).

    lam_max is the smallest level at which the twisted volume vanishes: the
    least gamma_i + t_i, capped by the least shift of a trivial valuation.
    """
    t0 = min(float(t) for t in spec.shifts)
    nontrivial = [
        (v, float(t)) for v, t in zip(spec.support, spec.shifts) if not v.is_trivial
    ]
    if not nontrivial:
        return t0, t0, nontrivial, set()
    gammas = [float(gamma_threshold(model, L, v)) for v, _ in nontrivial]
    lam_max = min(g + t for g, (_, t) in zip(gammas, nontrivial))
    # a trivial valuation admits no section past its shift: hard cutoff
    for v, t in zip(spec.support, spec.shifts):
        if v.is_trivial:
            lam_max = min(lam_max, float(t))
    breaks = {t for _, t in nontrivial} | {
        g + t for g, (_, t) in zip(gammas, nontrivial)
    }
    return t0, lam_max, nontrivial, breaks


def expected_order_S(
    model: GeometryModel,
    L: DivisorClass,
    spec: FiltrationSpec,
    tol: float = 1e-9,
    method: str = "auto",
) -> float:
    """Expected vanishing order of L along the filtration; translation equivariant.

    With method="auto", surfaces integrate the volume in closed form on each
    Zariski chamber, walked in floats by the routine that gives gamma exactly,
    on the compiled problem for (L, support), so new shifts only walk chambers;
    toric models integrate min_i of the shifted orders over the section
    polytope cell by cell (`ToricModel.expected_order`) and return the exact
    value rounded once to float.  method="quadrature" is the reference: it
    runs adaptive composite Gauss-Legendre to `tol`, seeded at the shift and
    threshold breakpoints, over the model's `twist_evaluator`; `tol` has no
    other use.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}; expected 'auto' or 'quadrature'")
    if method == "auto" and isinstance(model, ToricModel):
        return float(model.expected_order(L, spec.support, spec.shifts)[0])
    if isinstance(model, SurfaceModel):
        # compiling resolves the realization: a mixed support raises for every t
        problem = model._compiled(L, spec.support)
        if method == "auto":
            return problem.expected_order(spec.shifts, gradient=False)[0]
        vol_L = problem.volume
    else:
        vol_L = model.volume(L)
    if vol_L <= 0:
        raise GeometryError("expected vanishing order requires a big class")

    t0, lam_max, nontrivial, breaks = integration_range(model, L, spec)
    if not nontrivial or lam_max <= t0:
        return t0

    shifts = [t for _, t in nontrivial]
    evaluator = model.twist_evaluator(L, [v for v, _ in nontrivial])

    def integrand(lam: float) -> float:
        return evaluator([max(lam - t, 0.0) for t in shifts])

    value = integrate(integrand, t0, lam_max, breaks, tol=tol)
    return t0 + value / float(vol_L)


def expected_order_S_grad(
    model: GeometryModel, L: DivisorClass, spec: FiltrationSpec
) -> tuple[float, tuple[float, ...]]:
    """(S, grad_t S) of L along the filtration from one exact evaluation: S
    bit for bit `expected_order_S(model, L, spec)`, the gradient an exact
    supergradient of the concave S rounded to floats, summing to 1 (see
    `_SurfaceProblem.expected_order`, `ToricModel.expected_order`)."""
    if isinstance(model, ToricModel):
        value, grad = model.expected_order(L, spec.support, spec.shifts)
        return float(value), tuple(float(x) for x in grad)
    if not isinstance(model, SurfaceModel):
        raise GeometryError("exact gradients of S need a surface or toric model")
    value, grad = model._compiled(L, spec.support).expected_order(spec.shifts)
    return value, tuple(grad)


def _jumping_values(model, L, spec: FiltrationSpec, k: int) -> np.ndarray:
    """min over the support of order + k t, per lattice point of k P_L, on a
    toric model, from the orders kept with that basis (`ToricModel._level_orders`)."""
    if not isinstance(model, ToricModel):
        raise GeometryError("finite-level jumping numbers need a toric model")
    if not len(model.lattice_points(L, k)):
        raise GeometryError("no sections at this level")
    values = None
    for v, t in zip(spec.support, spec.shifts):
        lam = model._level_orders(L, k, v) + k * float(t)
        # np.minimum returns its second argument on ties, like min() its first
        values = lam if values is None else np.minimum(lam, values)
    return values


def filtration_volume_finite_k(
    model: GeometryModel, L: DivisorClass, spec: FiltrationSpec, k: int
) -> JumpingProfile:
    """Jumping numbers of the level-k sections; k^{-1} volume converges to S.
    Each valuation's orders are read once per (L, k), kept with the basis;
    numpy sorts as sorted(reverse=True) would, as no value is NaN or -0.0."""
    values = np.sort(_jumping_values(model, L, spec, k))[::-1].tolist()
    return JumpingProfile(k, tuple(values), sum(values) / len(values))


def d_infinity(
    model: GeometryModel,
    L: DivisorClass,
    spec_a: FiltrationSpec,
    spec_b: FiltrationSpec,
    k: int,
) -> float:
    """Max gap of jumping values over the shared monomial basis at level k,
    each valuation's orders read once per (L, k) for both filtrations."""
    va = _jumping_values(model, L, spec_a, k)
    vb = _jumping_values(model, L, spec_b, k)
    return float(np.abs(va - vb).max())


def restriction_inequality_check(
    model: GeometryModel,
    L: DivisorClass,
    superset_spec: FiltrationSpec,
    subset_support: Sequence[Valuation],
    tol: float = 1e-9,
) -> tuple[bool, tuple[float, float]]:
    """Dropping constraints can only increase the expected order.

    Returns (holds, (value with full support, value with the subset)), where
    `holds` allows the full value to exceed the subset's by `tol`.
    """
    by_name = {v.name: (v, t) for v, t in zip(superset_spec.support, superset_spec.shifts)}
    pairs = []
    for v in subset_support:
        if v.name not in by_name:
            raise GeometryError(f"valuation {v.name!r} is not in the filtration support")
        pairs.append(by_name[v.name])
    sub_spec = FiltrationSpec.make(pairs)
    full = expected_order_S(model, L, superset_spec)
    sub = expected_order_S(model, L, sub_spec)
    return full <= sub + tol, (full, sub)
