"""Divisorial filtrations of section rings.

A filtration is a finite valuation support plus a shift vector t; its key
invariant is the expected vanishing order

    S(t) = t0 + vol(L)^{-1} Integral_{t0}^{lam_max} vol(L - Sum max(lam - t_i, 0) E_i) dlam

with t0 = min t_i and lam_max = min_i (gamma_i + t_i).  Each backend
evaluates S and its gradient in the shifts in one call
(`GeometryModel.expected_order`), and its Hessian in another
(`GeometryModel.order_hessian`), on one atom per centre (`one_per_centre`).
The same quantity is approximated at finite level k from the jumping numbers
a backend gives (`GeometryModel.jumping_values`), on toric monomial bases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GeometryError, GeometryModel, DivisorClass, Valuation, gamma_threshold


@dataclass(frozen=True)
class FiltrationSpec:
    """Support valuations and shifts t, one shift per valuation."""

    support: tuple[Valuation, ...]
    shifts: tuple[float, ...]

    @staticmethod
    def make(pairs: Sequence[tuple[Valuation, object]]) -> "FiltrationSpec":
        return FiltrationSpec(tuple([v for v, _ in pairs]), tuple([t for _, t in pairs]))

    def __post_init__(self):
        if not self.support:
            raise GeometryError("filtration support is empty")
        if len(self.support) != len(self.shifts):
            raise GeometryError("support and shift vector lengths differ")
        if not all(map(math.isfinite, self.shifts)):
            raise GeometryError(f"shifts must be finite, got {self.shifts}")
        if len({v.name for v in self.support}) != len(self.support):
            raise GeometryError("filtration support contains repeated valuations")

    def shifted(self, offset) -> "FiltrationSpec":
        return FiltrationSpec(self.support, tuple([t + offset for t in self.shifts]))


@dataclass(frozen=True)
class JumpingProfile:
    """Sorted jumping values at level k and their normalized mean."""

    k: int
    jumping_values: tuple[float, ...]
    volume: float


def one_per_centre(support, shifts):
    """(support, shifts, kept): the atoms a backend sees, the first
    least-shifted atom of each centre (`Valuation.centre`), and `kept`, their
    indices in `support`, or None when every centre is distinct and nothing
    is dropped.  Atoms with one centre are one valuation, whose filtrations
    at several shifts meet in that at the least, so the others enter S, its
    gradient (0) and its derivatives in L nowhere."""
    if len(support) < 2 or len({v.centre for v in support}) == len(support):
        return support, shifts, None
    first = {}
    for i, (v, t) in enumerate(zip(support, shifts)):
        if t < shifts[first.setdefault(v.centre, i)]:
            first[v.centre] = i
    kept = sorted(first.values())
    return tuple(support[i] for i in kept), tuple(shifts[i] for i in kept), kept


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


def expected_order_S(model: GeometryModel, L: DivisorClass, spec: FiltrationSpec) -> float:
    """Expected vanishing order of L along the filtration; translation
    equivariant: the backend's one exact evaluation on one atom per centre
    (`one_per_centre`), rounded to float, the value of
    `expected_order_S_grad`."""
    support, shifts, _ = one_per_centre(spec.support, spec.shifts)
    return float(model.expected_order(L, support, shifts)[0])


def expected_order_S_grad(
    model: GeometryModel, L: DivisorClass, spec: FiltrationSpec
) -> tuple[float, tuple[float, ...]]:
    """(S, grad_t S) of L along the filtration from one exact evaluation of
    the backend (`GeometryModel.expected_order`) on one atom per centre
    (`one_per_centre`), the gradient an exact supergradient of the concave
    S, summing to 1, both rounded to float."""
    support, shifts, kept = one_per_centre(spec.support, spec.shifts)
    value, grad = model.expected_order(L, support, shifts)
    if kept is not None:
        grad, part = [0] * len(spec.support), grad
        for i, g in zip(kept, part):
            grad[i] = g
    return float(value), tuple(map(float, grad))


def expected_order_hessian(model: GeometryModel, L: DivisorClass, spec: FiltrationSpec) -> list:
    """The Hessian of S in the shifts, rows of floats, from one call of the
    backend (`GeometryModel.order_hessian`) on one atom per centre
    (`one_per_centre`), expanded as the gradient is: an atom that is not
    kept has a row and a column of zeros."""
    support, shifts, kept = one_per_centre(spec.support, spec.shifts)
    H = model.order_hessian(L, support, shifts)
    if kept is None:
        return H
    full = [[0.0] * len(spec.support) for _ in spec.support]
    for i, row in zip(kept, H):
        for j, h in zip(kept, row):
            full[i][j] = h
    return full


def filtration_volume_finite_k(
    model: GeometryModel, L: DivisorClass, spec: FiltrationSpec, k: int
) -> JumpingProfile:
    """Jumping numbers of the level-k sections; k^{-1} volume converges to S.
    Each valuation's orders are read once per (L, k), kept with the basis;
    the values and their mean are those of `_level_values`."""
    values, mean = _level_values(model, L, spec, k)
    return JumpingProfile(int(k), tuple(values.tolist()), mean)


def _level_values(model: GeometryModel, L: DivisorClass, spec: FiltrationSpec, k: int):
    """(values, mean): the jumping values of level k in descending order, one
    read-only float array from one numpy sort, which orders as
    sorted(reverse=True) would, as no value is NaN or -0.0; and their mean,
    the left-to-right sum of that order (one sequential accumulate, not a
    pairwise or compensated sum) over its length."""
    values = np.sort(model.jumping_values(L, k, spec.support, spec.shifts))[::-1]
    values.flags.writeable = False
    return values, float(np.add.accumulate(values)[-1]) / len(values)


def d_infinity(
    model: GeometryModel,
    L: DivisorClass,
    spec_a: FiltrationSpec,
    spec_b: FiltrationSpec,
    k: int,
) -> float:
    """Max gap of jumping values over the shared monomial basis at level k,
    each valuation's orders read once per (L, k) for both filtrations."""
    va, vb = (model.jumping_values(L, k, spec.support, spec.shifts) for spec in (spec_a, spec_b))
    return float(np.abs(va - vb).max())


def restriction_inequality_check(
    model: GeometryModel,
    L: DivisorClass,
    superset_spec: FiltrationSpec,
    subset_support: Sequence[Valuation],
) -> tuple[bool, tuple[float, float]]:
    """Dropping constraints can only increase the expected order.

    Returns (holds, (value with full support, value with the subset)), where
    `holds` allows the full value to exceed the subset's by 1e-9, the
    rounding of the two values.
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
    return full <= sub + 1e-9, (full, sub)
