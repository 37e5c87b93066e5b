"""Divisor-class arithmetic and the backend protocol shared by all models.

The filtration and stability layers read a model only through `GeometryModel`:
`volume`, `closed_form_threshold`, `expected_order`, `order_derivative`,
`order_hessian`, the optional `one_valuation_maximizer`, a closed-form
start for norms, and the optional `jumping_values` of a finite level.
Which atoms are one valuation is a property of the valuation, its `centre`,
not of a model: `filtrations.one_per_centre` merges them before any backend
sees them.
Class coordinates and intersection-theoretic quantities are exact rationals
(`fractions.Fraction`); only integrals, suprema over shift vectors and
irrational surface thresholds use floating point, each with an explicit
tolerance or a stated rounding; every exact linear solve is one
fraction-free elimination, `_eliminate`.  What a model derives from a class
depends on that class alone, so a model keeps the memos of its last 8
classes asked, under the recency rule of every bounded cache, `_recent`;
a memo holds the class's thresholds, the backend's records and the last 8
norms `stability` solved on it.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence


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

    def _check(self, other: "DivisorClass") -> None:
        if self.basis_id != other.basis_id:
            raise BasisMismatchError(
                f"classes live in different lattices: {self.basis_id!r} vs {other.basis_id!r}"
            )
        if len(self.coefficients) != len(other.coefficients):
            raise BasisMismatchError("class lattice ranks differ")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)), self.basis_id)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)), self.basis_id)

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

    `centre` names the prime divisor v is the order along: atoms with one
    centre are one valuation.  It is None if trivial, the vector w if
    monomial, the `centre` of an order model that has one (a surface curve
    of negative square), else v itself: two curves in one moving class differ.

    Valuations key the thresholds in a model's memo, so the hash of the
    fields, like the centre, is computed once, on first use: unpickling
    builds a surface valuation before its realization is filled in.
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

    @cached_property
    def _hash(self):
        return hash((self.name, self.log_discrepancy, self.is_trivial, self.order_model))

    @cached_property
    def centre(self):
        m = self.order_model
        return None if self.is_trivial else m if isinstance(m, tuple) else getattr(m, "centre", None) or self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a str hash differs between processes
        return Valuation, (self.name, self.log_discrepancy, self.is_trivial, self.order_model)


TRIVIAL_VALUATION = Valuation("trivial", Fraction(0), is_trivial=True)


@dataclass(frozen=True)
class DivisorialMeasure:
    """Finitely many (valuation, mass) atoms with masses summing to one."""

    atoms: tuple[tuple[Valuation, Fraction], ...]

    @staticmethod
    def make(pairs: Sequence[tuple[Valuation, object]]) -> "DivisorialMeasure":
        return DivisorialMeasure(tuple(pairs))

    def __post_init__(self):
        # each mass an exact rational (`as_fraction`); on their ints, the total
        # n / d over the lcm d of their denominators; a Fraction only for the message
        object.__setattr__(self, "atoms", tuple((v, as_fraction(m)) for v, m in self.atoms))
        n, d, seen = 0, 1, set()
        for v, m in self.atoms:
            p, q = m.numerator, m.denominator
            if p < 0 or p > q:
                raise GeometryError(f"mass {m} of {v.name!r} outside [0, 1]")
            if v.name in seen:
                raise GeometryError(f"valuation {v.name!r} repeated in measure")
            seen.add(v.name)
            common = math.lcm(d, q)
            n, d = n * (common // d) + p * (common // q), common
        if n != d:
            raise GeometryError(f"masses sum to {Fraction(n, d)}, expected 1")

    @property
    def support(self) -> tuple[Valuation, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)


class GeometryModel(ABC):
    """The backend protocol against a concrete variety model, with the memos
    (`_memo_of`) of its last 8 classes asked: the results derived from each, by name."""

    name: str
    dimension: int
    class_rank: int
    canonical_class: DivisorClass
    named_valuations: Mapping[str, Valuation]  # read-only on bundled models

    def __init__(self):
        self.named_valuations = {}
        self._memo, self._classes = (None, None), ((None, (None, None)),) * 8  # (key, _memo) per class kept

    @property
    def basis_id(self) -> str:
        return self.name

    def divisor(self, coeffs: Sequence) -> DivisorClass:
        D = DivisorClass.make(coeffs, self.basis_id)
        self._check_basis(D)
        return D

    @abstractmethod
    def volume(self, D: DivisorClass) -> Fraction:
        """vol(D) as an exact rational; 0 off the pseudoeffective cone."""

    @abstractmethod
    def closed_form_threshold(self, L: DivisorClass, v: Valuation):
        """The exact pseudoeffective threshold of big L along v, which
        `gamma_threshold` keeps in the memo of L."""

    @abstractmethod
    def expected_order(self, L: DivisorClass, support: Sequence[Valuation], shifts) -> tuple:
        """(S, grad_t S) of big L along the shifted support, one atom per
        centre, the gradient an exact supergradient of the concave S, summing to 1."""

    @abstractmethod
    def order_derivative(self, L: DivisorClass, support: Sequence[Valuation], shifts, H: DivisorClass) -> float:
        """d/ds S_{L+sH}(t) at s = 0 with t fixed; callers pass -H for the
        left derivative."""

    @abstractmethod
    def order_hessian(self, L: DivisorClass, support: Sequence[Valuation], shifts) -> list:
        """The exact Hessian of S in the shifts, one atom per centre, as rows
        of floats: symmetric, each row summing to 0, computed exactly and
        each entry rounded once."""

    def one_valuation_maximizer(self, L: DivisorClass, v: Valuation, trivial_mass: Fraction):
        """The shift y of the trivial valuation, with v at shift 0, that
        maximizes S - <xi, t> for the measure trivial_mass delta_triv +
        (1 - trivial_mass) delta_v: where vol(L - y E_v) = trivial_mass
        vol L, a float in [0, gamma].  None, the default, when the backend
        has no closed form; the norm engine then searches from 0."""
        return None

    def jumping_values(self, L: DivisorClass, k: int, support: Sequence[Valuation], shifts):
        """min over the support of order + k t per section of a level-k basis,
        one float array; the default raises: toric models have such a basis."""
        raise GeometryError("finite-level jumping numbers need a toric model")

    def is_big(self, D: DivisorClass) -> bool:
        return self.volume(D) > 0

    def add_valuation(self, v: Valuation) -> Valuation:
        if isinstance(self.named_valuations, MappingProxyType):
            raise GeometryError(f"model {self.name!r} is shared and read-only; add {v.name!r} to a new one")
        self.named_valuations[v.name] = v
        return v

    def __reduce_ex__(self, protocol):  # a bundled model (valuations read-only) pickles as its name
        from .models import bundled_model
        shared = isinstance(self.named_valuations, MappingProxyType)
        return (bundled_model, (self.name,)) if shared else super().__reduce_ex__(protocol)

    def __getstate__(self):  # the kept classes are derived data, and hold closures
        return {**self.__dict__, "_memo": (None, None), "_classes": ((None, (None, None)),) * 8}

    def _check_basis(self, D: DivisorClass) -> None:
        if D.basis_id != self.basis_id:
            raise BasisMismatchError(f"class in lattice {D.basis_id!r} queried against model {self.basis_id!r}")
        if len(D.coefficients) != self.class_rank:
            raise BasisMismatchError(f"class of rank {len(D.coefficients)} queried against model {self.basis_id!r} "
                                     f"of rank {self.class_rank}")

    def _memo_of(self, L: DivisorClass) -> dict:
        """The memo of L, of the last 8 classes asked in `_classes`, `_memo` the last."""
        if self._memo[0] != L.coefficients or L.basis_id != self.basis_id:
            self._memo = self._kept_class(L)
        return self._memo[1]

    def _kept_class(self, L: DivisorClass) -> tuple:
        """(coefficients, memo) of L, moved to the front of `_classes` (`_recent`), keyed by its lattice
        and the int ratios of its coefficients, which compare in C, unlike Fractions; a class enters once checked."""
        key = (L.basis_id, *[c.as_integer_ratio() for c in L.coefficients])
        self._classes = _recent(self._classes, key, 8, lambda: self._check_basis(L) or (L.coefficients, {}))
        return self._classes[0][1]


def _recent(entries: tuple, key, size: int, build, *args) -> tuple:
    """`entries`, (key, value) pairs compared (not hashed) by key, newest first, with that of `key`
    in front: moved there if kept, else (key, build(*args)) put there and the oldest dropped past `size`."""
    for i, entry in enumerate(entries):
        if entry[0] == key:
            return entries if not i else (entry, *entries[:i], *entries[i + 1:])
    return ((key, build(*args)), *entries[:size - 1])


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


def _float_sum(xs) -> float:
    """The floats xs summed left to right, each step rounded, so the same
    bits on every interpreter: CPython 3.12's `sum` of floats is compensated."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _integral(vectors):
    """(int tuples, q): rational tuples, or floats, over their least common denominator q."""
    ratios = [[c.as_integer_ratio() for c in v] for v in vectors]
    q = math.lcm(*[d for v in ratios for _, d in v])
    return tuple([tuple([n * (q // d) for n, d in v]) for v in ratios]), q


def _eliminate(m):
    """Fraction-free (Bareiss) Gauss-Jordan elimination, in place, on the int
    rows m = [A | B] of a square A, taking the first nonzero entry below a
    zero pivot: (pivots, exchanges), the leading minors of order 0, 1, ...,
    n of A with its rows exchanged and how many rows were exchanged, B ending
    as det(A) A^-1 B up to the sign (-1)^exchanges; None when A is singular.
    Every division is exact."""
    n, pivots, exchanges = len(m), [1], 0
    for k in range(n):
        row, prev = m[k], pivots[-1]
        if row[k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return None
            m[k], m[swap], exchanges = m[swap], row, exchanges + 1
            row = m[k]
        pivot, columns = row[k], range(k + 1, len(row))
        for r in m:
            if r is not row:
                f = r[k]
                for j in columns:
                    r[j] = (r[j] * pivot - f * row[j]) // prev
        pivots.append(pivot)
    return pivots, exchanges


def _solve(rows, *columns) -> tuple:
    """(d, y_1, ...) with d = det(rows) and y_i = d x for the solution of
    rows x = columns[i], by `_eliminate` on the int matrix augmented by the
    columns; (0, None, ...) when singular.  `_solve(rows)` is (det(rows),)."""
    m = [list(row) for row in rows]
    for b in columns:
        for r, c in zip(m, b):
            r.append(c)
    found = _eliminate(m)
    if found is None:
        return (0,) + (None,) * len(columns)
    pivots, exchanges = found
    sign, n = -1 if exchanges % 2 else 1, len(m)
    return (sign * pivots[-1], *[[sign * r[j] for r in m] for j in range(n, n + len(columns))])
