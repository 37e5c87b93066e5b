"""Divisor-class arithmetic and the volume-oracle contract shared by all backends.

Class coordinates and intersection-theoretic quantities are exact rationals
(`fractions.Fraction`); only integrals, suprema over shift vectors and
irrational surface thresholds use floating point, each with an explicit
tolerance or a stated rounding.  What a model derives from a class depends
on that class alone, so a model keeps one memo: that of the last class asked.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence


class GeometryError(Exception):
    """A query that is geometrically ill-posed (not big, bad model data, ...)."""


class BasisMismatchError(GeometryError):
    """Divisor classes from different class lattices were combined."""


class NotPseudoeffectiveError(GeometryError):
    """No valid Zariski decomposition / empty section polytope region."""


class ConvergenceError(Exception):
    """An iterative numerical routine failed to meet its tolerance."""


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, 'p/q' strings and floats (binary rationals, so
    the conversion is exact) to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class DivisorClass:
    """A rational class in a declared numerical basis of divisor classes."""

    coefficients: tuple[Fraction, ...]
    basis_id: str

    @staticmethod
    def make(coeffs: Sequence, basis_id: str) -> "DivisorClass":
        return DivisorClass(tuple(as_fraction(c) for c in coeffs), basis_id)

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def _check(self, other: "DivisorClass") -> None:
        if self.basis_id != other.basis_id:
            raise BasisMismatchError(
                f"classes live in different lattices: {self.basis_id!r} vs {other.basis_id!r}"
            )
        if len(self.coefficients) != len(other.coefficients):
            raise BasisMismatchError("class lattice ranks differ")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
            self.basis_id,
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
            self.basis_id,
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coefficients), self.basis_id)

    def scale(self, c) -> "DivisorClass":
        c = as_fraction(c)
        return DivisorClass(tuple(c * a for a in self.coefficients), self.basis_id)

    def __rmul__(self, c) -> "DivisorClass":
        return self.scale(c)


@dataclass(frozen=True)
class Valuation:
    """A named divisorial valuation with a computable vanishing-order model.

    `order_model` is backend specific: a :class:`SurfaceRealization` for
    surface valuations, a primitive lattice vector (tuple of ints) for
    monomial valuations on a toric model, and ``None`` for the trivial
    valuation.
    """

    name: str
    log_discrepancy: Fraction
    is_trivial: bool = False
    order_model: object = None

    def __post_init__(self):
        object.__setattr__(self, "log_discrepancy", as_fraction(self.log_discrepancy))
        if self.log_discrepancy < 0:
            raise GeometryError(f"log discrepancy of {self.name!r} is negative")
        if self.is_trivial and self.log_discrepancy != 0:
            raise GeometryError("the trivial valuation has log discrepancy 0")


TRIVIAL_VALUATION = Valuation("trivial", Fraction(0), is_trivial=True)


@dataclass(frozen=True)
class DivisorialMeasure:
    """Finitely many (valuation, mass) atoms with masses summing to one."""

    atoms: tuple[tuple[Valuation, Fraction], ...]

    @staticmethod
    def make(pairs: Sequence[tuple[Valuation, object]]) -> "DivisorialMeasure":
        return DivisorialMeasure(tuple((v, as_fraction(m)) for v, m in pairs))

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for v, m in self.atoms:
            if m < 0 or m > 1:
                raise GeometryError(f"mass {m} of {v.name!r} outside [0, 1]")
            if v.name in seen:
                raise GeometryError(f"valuation {v.name!r} repeated in measure")
            seen.add(v.name)
            total += m
        if total != 1:
            raise GeometryError(f"masses sum to {total}, expected 1")

    @property
    def support(self) -> tuple[Valuation, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)


class GeometryModel(ABC):
    """Abstract volume oracle against a concrete variety model, with one memo
    (`_memo_of`): the results derived from the last class asked, by name."""

    name: str
    dimension: int
    class_rank: int
    canonical_class: DivisorClass
    named_valuations: Mapping[str, Valuation]  # read-only on bundled models

    def __init__(self):
        self.named_valuations = {}
        self._memo: tuple[tuple, dict] = ((), {})

    @property
    def basis_id(self) -> str:
        return self.name

    def divisor(self, coeffs: Sequence) -> DivisorClass:
        return DivisorClass.make(coeffs, self.basis_id)

    @abstractmethod
    def volume(self, D: DivisorClass) -> Fraction:
        """vol(D) as an exact rational; 0 off the pseudoeffective cone."""

    @abstractmethod
    def twisted_volume(self, L: DivisorClass, constraints: Sequence[tuple[Valuation, object]]):
        """vol of L twisted down by the given (valuation, coefficient) pairs.

        Exact when every coefficient is rational; trivial valuations are not
        allowed here (they constrain nothing and are handled upstream).
        """

    @abstractmethod
    def twist_evaluator(
        self, L: DivisorClass, valuations: Sequence[Valuation]
    ) -> Callable[[Sequence[float]], float]:
        """Float-valued closure c -> vol(L twisted by coefficients c), for the
        quadrature reference (`expected_order_S` with method="quadrature")
        only; the exact path is `twisted_volume`."""

    @abstractmethod
    def closed_form_threshold(self, L: DivisorClass, v: Valuation):
        """The exact pseudoeffective threshold of big L along v, which
        `gamma_threshold` keeps in the memo of L."""

    def is_big(self, D: DivisorClass) -> bool:
        return self.volume(D) > 0

    def add_valuation(self, v: Valuation) -> Valuation:
        if isinstance(self.named_valuations, MappingProxyType):
            raise GeometryError(f"model {self.name!r} is shared and read-only; add {v.name!r} to a new one")
        self.named_valuations[v.name] = v
        return v

    def _check_basis(self, D: DivisorClass) -> None:
        if D.basis_id != self.basis_id:
            raise BasisMismatchError(
                f"class in lattice {D.basis_id!r} queried against model {self.basis_id!r}"
            )

    def _memo_of(self, L: DivisorClass) -> dict:
        """The memo of L, emptied first unless L was the last class asked."""
        self._check_basis(L)
        if self._memo[0] != L.coefficients:
            self._memo = L.coefficients, {}
        return self._memo[1]


def is_big(model: GeometryModel, D: DivisorClass) -> bool:
    """True iff vol(D) > 0."""
    return model.is_big(D)


def gamma_threshold(model: GeometryModel, L: DivisorClass, v: Valuation):
    """Pseudoeffective threshold sup{g > 0 : twist(L, v, g) is big}, kept in
    the model's memo of L.

    Every backend answers exactly through `closed_form_threshold`: toric
    models read max - min of <., w> off the vertices of P_L, surfaces walk
    the Zariski chambers of L - g E_v.  The result is a Fraction, or a float
    where a surface threshold is an irrational quadratic root.
    """
    if v.is_trivial:
        raise GeometryError("pseudoeffective threshold undefined for the trivial valuation")
    memo = model._memo_of(L)
    hit = memo.get(("gamma", v))
    if hit is None:
        if not model.is_big(L):
            raise GeometryError("pseudoeffective threshold requires a big class")
        memo["gamma", v] = hit = model.closed_form_threshold(L, v)
    return hit


def _dot(a, b):
    return sum(map(mul, a, b))


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _solve(rows, b) -> tuple[int, list[int] | None]:
    """(d, y) with d = +-det(rows) and y = d x for the solution of rows x = b,
    by fraction-free (Bareiss) Gauss-Jordan elimination on the augmented
    integer matrix; (0, None) when singular.  Every division is exact."""
    m = [list(r) + [c] for r, c in zip(rows, b)]
    n, prev = len(m), 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0, None
            m[k], m[swap] = m[swap], m[k]
        pivot, row = m[k][k], m[k]
        for r in m:
            if r is not row:
                f = r[k]
                for j in range(k + 1, n + 1):
                    r[j] = (r[j] * pivot - f * row[j]) // prev
        prev = pivot
    return prev, [r[n] for r in m]
