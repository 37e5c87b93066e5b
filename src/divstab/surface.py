"""Smooth projective surface backend: Néron–Severi lattice + Zariski decomposition.

The user declares the intersection form, the negative curves relevant to the
explored region, and extra `sample_curves` certifying nefness.  Wrong or
incomplete curve lists give wrong volumes; the bundled del Pezzo / Hirzebruch
models carry the full known lists.

One routine, `SurfaceModel._chamber`, finds the Zariski chamber of b + lam d
right of a point, where P is linear and vol = P^2 quadratic in lam: on
Fractions for `zariski` and the thresholds, on floats for S and its gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BasisMismatchError,
    ConvergenceError,
    DivisorClass,
    GeometryError,
    GeometryModel,
    NotPseudoeffectiveError,
    Valuation,
    as_fraction,
    gamma_threshold,
)


@dataclass(frozen=True)
class SurfaceRealization:
    """Where a surface valuation's order function is computed.

    `model` is the (possibly birational) surface carrying the prime divisor,
    `divisor` its class there, and `pullback` the rational matrix sending
    base-lattice coordinates to `model`'s lattice (None = identity, i.e. the
    valuation is realised on the base surface itself).
    """

    model: "SurfaceModel"
    divisor: DivisorClass
    base_id: str
    pullback: Optional[tuple[tuple[Fraction, ...], ...]] = None


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive_part: DivisorClass
    negative_part: tuple[tuple[DivisorClass, Fraction], ...]


class SurfaceModel(GeometryModel):
    dimension = 2

    def __init__(
        self,
        name: str,
        intersection_matrix: Sequence[Sequence],
        negative_curves: Sequence[Sequence] = (),
        canonical_class: Sequence = None,
        sample_curves: Sequence[Sequence] = (),
    ):
        super().__init__()
        self.name = name
        self.matrix = tuple(
            tuple(as_fraction(x) for x in row) for row in intersection_matrix
        )
        self.class_rank = len(self.matrix)
        for row in self.matrix:
            if len(row) != self.class_rank:
                raise GeometryError("intersection matrix is not square")
        for i in range(self.class_rank):
            for j in range(self.class_rank):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise GeometryError("intersection matrix is not symmetric")
        self._check_signature()

        self.negative_curves = tuple(self.divisor(c) for c in negative_curves)
        for C in self.negative_curves:
            if self.pairing(C, C) >= 0:
                raise GeometryError(
                    f"declared negative curve {C.coefficients} has self-intersection >= 0"
                )
        self.sample_curves = tuple(self.divisor(c) for c in sample_curves)
        if canonical_class is None:
            canonical_class = [0] * self.class_rank
        self.canonical_class = self.divisor(canonical_class)

        curves = tuple(C.coefficients for C in self.negative_curves)
        duals = tuple(self._image(C.coefficients) for C in self.negative_curves + self.sample_curves)
        gram = tuple(tuple(_dot(c, u) for u in duals) for c in curves)
        self._exact = _Lattice(curves, duals, gram, self.matrix, Fraction(0), 0)
        self._float = _Lattice(*(_floats(x) for x in self._exact[:4]), 0.0, 0.0)
        # the last compiled (L, support); see `_compiled`
        self._problem: Optional[_SurfaceProblem] = None

    def _check_signature(self):
        eig = np.linalg.eigvalsh(
            np.array([[float(x) for x in row] for row in self.matrix])
        )
        pos = int(np.sum(eig > 1e-9))
        neg = int(np.sum(eig < -1e-9))
        if pos != 1 or neg != self.class_rank - 1:
            raise GeometryError(
                f"intersection form has signature ({pos}, {neg}); "
                f"expected (1, {self.class_rank - 1})"
            )

    # -- exact pairing and Zariski decomposition ---------------------------

    def pairing(self, A: DivisorClass, B: DivisorClass) -> Fraction:
        self._check_basis(A)
        self._check_basis(B)
        return _dot(A.coefficients, self._image(B.coefficients))

    def _image(self, coeffs) -> tuple:
        """M coeffs, exactly, for the intersection matrix M."""
        return tuple(_dot(row, coeffs) for row in self.matrix)

    def curve_valuation(self, name: str, curve_coeffs: Sequence, log_discrepancy=1) -> Valuation:
        """Valuation ord_C along a prime divisor C realised on this surface."""
        real = SurfaceRealization(self, self.divisor(curve_coeffs), base_id=self.basis_id)
        return self.add_valuation(Valuation(name, as_fraction(log_discrepancy), order_model=real))

    def zariski(self, D: DivisorClass) -> ZariskiDecomposition:
        """Unique decomposition D = P + N (P nef against the declared curves,
        negative-definite N-support orthogonal to P), by iterated support growth.
        """
        self._check_basis(D)
        support, P, _ = self._chamber(self._exact, D.coefficients, (0,) * self.class_rank, 0)
        negative = tuple((self.negative_curves[i], a) for i, a, _ in support)
        return ZariskiDecomposition(DivisorClass(P, self.basis_id), negative)

    def _chamber(self, lat, b, d, x):
        """Zariski decomposition of b + lam d just right of lam = x, on
        coefficient tuples of the number type of the lattice data `lat`:
        (support, p0, p1) with P = p0 + lam p1 and support the (curve index,
        a0, a1) whose N-coefficient a0 + lam a1 is positive there.  Each
        c0 + lam c1 is signed at x+: by its value at x, then by its slope,
        each counting as 0 within lat.tol.  Raises NotPseudoeffectiveError
        off the psef cone at x+.
        """
        curves, duals, zero, tol = lat.curves, lat.duals, lat.zero, lat.tol
        support, a0, a1, p0, p1 = [], [], [], b, d

        def sign(c0, c1):
            c = c0 + x * c1
            return c if c > tol or c < -tol else (c1 if c1 > tol or c1 < -tol else 0)

        def pairs(dual):
            return sign(_dot(p0, dual, zero), _dot(p1, dual, zero))

        while violating := [
            i for i in range(len(curves)) if i not in support and pairs(duals[i]) < 0
        ]:
            support += violating
            gram = [[lat.gram[i][j] for j in support] for i in support]
            rhs = [[_dot(v, duals[i], zero) for i in support] for v in (b, d)]
            sol = _solve_negative_definite(gram, rhs, tol)
            if sol is None:
                raise NotPseudoeffectiveError(
                    f"no Zariski decomposition: Gram submatrix of curves "
                    f"{[self.negative_curves[i].coefficients for i in support]} is not negative definite"
                )
            a0, a1 = sol
            # P = v - sum a_i C_i for (v, a) = (b, a0) and (d, a1)
            columns = list(zip(*(curves[i] for i in support)))
            p0, p1 = (
                tuple(vk - _dot(a, col, zero) for vk, col in zip(v, columns)) for v, a in zip((b, d), sol)
            )
        for C, dual in zip(self.sample_curves, duals[len(curves):]):
            if pairs(dual) < 0:
                raise NotPseudoeffectiveError(
                    f"candidate positive part pairs negatively with declared curve "
                    f"{C.coefficients}"
                )
        if any(sign(u, w) < 0 for u, w in zip(a0, a1)):
            raise NotPseudoeffectiveError(
                "a negative-part coefficient is forced negative; class is not pseudoeffective"
            )
        return [(i, u, w) for i, u, w in zip(support, a0, a1) if sign(u, w) > 0], p0, p1

    def _step(self, lat, b, d, x):
        """(p0, p1, M p0, M p1, wall) on the chamber of b + lam d just right
        of x (`_chamber`), with wall the least root past x of an N-coefficient
        or an off-support curve pairing (None: no wall); None when b + lam d
        is not pseudoeffective at x+."""
        try:
            support, p0, p1 = self._chamber(lat, b, d, x)
        except NotPseudoeffectiveError:
            return None
        zero, inside = lat.zero, {i for i, _, _ in support}
        lines = [(u, w) for _, u, w in support] + [
            (_dot(p0, c, zero), _dot(p1, c, zero)) for i, c in enumerate(lat.duals) if i not in inside
        ]
        wall = min((-c0 / c1 for c0, c1 in lines if c1 < -lat.tol), default=None)
        Mp0, Mp1 = (tuple(_dot(row, p, zero) for row in lat.matrix) for p in (p0, p1))
        return p0, p1, Mp0, Mp1, wall

    def volume(self, D: DivisorClass) -> Fraction:
        try:
            dec = self.zariski(D)
        except NotPseudoeffectiveError:
            return Fraction(0)
        return self.pairing(dec.positive_part, dec.positive_part)

    def positive_product_against(self, D: DivisorClass, H: DivisorClass) -> Fraction:
        """<D> . H = positive part of D paired with H.  Requires D big."""
        if not self.is_big(D):
            raise GeometryError("positive product requires a big class")
        dec = self.zariski(D)
        return self.pairing(dec.positive_part, H)

    # -- realization plumbing ---------------------------------------------

    def resolve_realization(self, valuations: Sequence[Valuation]):
        """Common birational model carrying all the given surface valuations.

        Returns (model, pull) with pull an exact linear map on coefficient
        tuples from this model's lattice into the realization lattice.
        """
        reals: list[SurfaceRealization] = []
        for v in valuations:
            if v.is_trivial:
                continue
            r = v.order_model
            if not isinstance(r, SurfaceRealization):
                raise GeometryError(f"valuation {v.name!r} is not a surface valuation")
            if r.base_id != self.basis_id:
                raise BasisMismatchError(
                    f"valuation {v.name!r} is declared over base {r.base_id!r}, "
                    f"not {self.basis_id!r}"
                )
            reals.append(r)
        if not reals:
            return self, lambda coeffs: coeffs
        models = {id(r.model) for r in reals}
        if len(models) > 1:
            raise GeometryError(
                "valuations realised on different birational models cannot be combined"
            )
        target = reals[0].model
        mats = {r.pullback for r in reals}
        if len(mats) > 1:
            raise GeometryError("inconsistent pullback maps among valuations")
        mat = reals[0].pullback
        if mat is None:
            if target is not self:
                raise GeometryError("missing pullback map to the realization model")
            return self, lambda coeffs: coeffs
        return target, lambda coeffs: tuple(_dot(row, coeffs) for row in mat)

    def twisted_volume(self, L: DivisorClass, constraints):
        self._check_basis(L)
        vals = [v for v, _ in constraints]
        target, pull = self.resolve_realization(vals)
        cls = DivisorClass.make(pull(L.coefficients), target.basis_id)
        for v, c in constraints:
            if v.is_trivial:
                raise GeometryError("trivial valuation cannot twist a class")
            cls = cls - as_fraction(c) * v.order_model.divisor
        return target.volume(cls)

    def twist_evaluator(self, L, valuations):
        target, pull = self.resolve_realization(valuations)
        base = _floats(pull(L.coefficients))
        divs = [None if v.is_trivial else _floats(v.order_model.divisor.coefficients) for v in valuations]

        def evaluate(cs: Sequence[float]) -> float:
            vec = base
            for c, e in zip(cs, divs):
                if c and e:
                    vec = tuple(u - c * w for u, w in zip(vec, e))
            return target.volume_float(vec)

        return evaluate

    # -- float chamber walk ------------------------------------------------

    def _float_lattice(self, *vectors) -> "_Lattice":
        """The float lattice data, 0 within 1e-12 of the largest coordinate (or 1)."""
        scale = max(1.0, *(abs(c) for vec in vectors for c in vec))
        return self._float._replace(tol=1e-12 * scale)

    def volume_float(self, vec) -> float:
        """vol of the class with these float coordinates: `_step` at d = 0."""
        b = _floats(vec)
        step = self._step(self._float_lattice(b), b, (0.0,) * len(b), 0.0)
        return 0.0 if step is None else max(_dot(step[0], step[2], 0.0), 0.0)

    def _line_integrals(self, b, d, x0, x1, rows=None):
        """Integrals of vol(b + x d) and of P_x . h, for each float tuple h in
        `rows` (None: no h), over [x0, x1], by the float chamber walk (`_step`).

        The positive part is linear in x on each chamber, so vol is quadratic
        and all integrals are closed-form per chamber.  Stops at the first
        non-pseudoeffective point, past which vol stays 0 when -d is effective.
        """
        lat = self._float_lattice(b, [c * max(abs(x0), abs(x1)) for c in d])
        total_v, total_h = 0.0, None if rows is None else [0.0] * len(rows)
        x = x0
        while x < x1:
            step = self._step(lat, b, d, x)
            if step is None:
                break
            p0, p1, Mp0, Mp1, wall = step
            wall = x1 if wall is None or wall > x1 else wall
            if wall <= x:
                raise ConvergenceError(f"chamber walk stalled at lam = {x!r}")
            q0, q1, q2 = _dot(p0, Mp0, 0.0), 2.0 * _dot(p0, Mp1, 0.0), _dot(p1, Mp1, 0.0)
            total_v += q0 * (wall - x) + q1 * (wall * wall - x * x) / 2.0 + q2 * (wall**3 - x**3) / 3.0
            if rows is not None:
                total_h = [
                    acc + (_dot(r, Mp0, 0.0) * (wall - x) + _dot(r, Mp1, 0.0) * ((wall * wall - x * x) / 2.0))
                    for acc, r in zip(total_h, rows)
                ]
            x = wall
        return total_v, total_h

    def twist_integrals(self, L, valuations, shifts, lam0, lam1, direction=None):
        """Exact integrals along lam -> L - sum max(lam - t_i, 0) D_i over [lam0, lam1].

        Returns (integral of vol, integral of P . direction); the second is 0
        when no direction is given.  Stops early once the path leaves the
        pseudoeffective cone (vol is then identically 0 onward).
        """
        problem = self._compiled(L, valuations)
        ts = [float(t) for v, t in zip(valuations, shifts) if not v.is_trivial]
        if direction is None:
            return problem.walk(ts, lam0, lam1)[0], 0.0
        iv, ih = problem.walk(ts, lam0, lam1, problem.pulled([direction]), [-math.inf])
        return iv, ih[0]

    def closed_form_threshold(self, L: DivisorClass, v: Valuation):
        """Exact pseudoeffective threshold of big L along v: walk the Zariski
        chambers of pull(L) - lam E_v up from 0, P linear and vol = P^2 on
        each, until the next chamber is not pseudoeffective or vol reaches 0
        before the wall (the first root of an N-coefficient or a pairing)."""
        self._check_basis(L)
        if v.is_trivial:
            raise GeometryError("pseudoeffective threshold undefined for the trivial valuation")
        target, pull = self.resolve_realization([v])
        b, d = pull(L.coefficients), tuple(-c for c in v.order_model.divisor.coefficients)
        x = Fraction(0)
        while (step := target._step(target._exact, b, d, x)) is not None:
            p0, p1, Mp0, Mp1, wall = step
            root = _first_root(_dot(p0, Mp0), 2 * _dot(p0, Mp1), _dot(p1, Mp1), x, wall)
            if root is not None:
                return root
            if wall is None:
                raise GeometryError(f"threshold of {v.name!r} is unbounded: no declared curve bounds it")
            x = wall
        return x

    def _compiled(self, L: DivisorClass, support: Sequence[Valuation]) -> "_SurfaceProblem":
        """The compiled problem of (L, support), reusing the last one when
        both compare equal; one slot, so memory does not grow with L."""
        support = tuple(support)
        problem = self._problem
        if problem is None or problem.L != L or problem.support != support:
            problem = self._problem = _SurfaceProblem(self, L, support)
        return problem


class _SurfaceProblem:
    """One (L, support) on a surface, compiled once for repeated `S` calls.

    Holds the exact Zariski decomposition of L (so vol(L) and <L>.H cost
    nothing per call), the realization of the support with L pulled back to
    float coordinates, and the float divisors of the non-trivial valuations.
    Building it resolves the realization, so a support realised on several
    birational models raises here, whatever the shifts.  The thresholds
    gamma_i are computed on the first `integrals` call, which needs L big.
    """

    def __init__(self, model: SurfaceModel, L: DivisorClass, support: tuple):
        self.model = model
        self.L = L
        self.support = support
        try:
            self.positive_part = model.zariski(L).positive_part
            self.volume = model.pairing(self.positive_part, self.positive_part)
        except NotPseudoeffectiveError:
            self.positive_part = None
            self.volume = Fraction(0)
        self._nontrivial = [i for i, v in enumerate(support) if not v.is_trivial]
        self._trivial = [i for i, v in enumerate(support) if v.is_trivial]
        self._gammas: Optional[list[float]] = None
        self.target, self._pull = model.resolve_realization(support)
        self._base = _floats(self._pull(L.coefficients))
        self._divs = [_floats(support[i].order_model.divisor.coefficients) for i in self._nontrivial]

    def positive_product(self, H: DivisorClass) -> Fraction:
        """<L> . H, exact."""
        return self.model.pairing(self.positive_part, H)

    def pulled(self, classes) -> list:
        """The classes pulled back to the realization, one float tuple each."""
        return [_floats(self._pull(D.coefficients)) for D in classes]

    def integrals(self, shifts, rows=None):
        """(t0, lam_max, integral of vol, integrals of P . h) over the range
        [t0, lam_max] of the filtration with these shifts, one per support
        valuation; all 0 when the range is empty.  With the list of float
        tuples `rows` (else there is no h), h runs over its rows, then over
        the divisor E_i of each non-trivial valuation, integrated from t_i on.
        """
        ts = [float(t) for t in shifts]
        t0 = min(ts)
        active = [ts[i] for i in self._nontrivial]
        starts = None
        if rows is not None:
            rows, starts = [*rows, *self._divs], [-math.inf] * len(rows) + active
        if self._gammas is None:
            self._gammas = [
                float(gamma_threshold(self.model, self.L, self.support[i])) for i in self._nontrivial
            ]
        # a trivial valuation admits no section past its shift: hard cutoff
        lam_max = min([g + t for g, t in zip(self._gammas, active)] + [ts[i] for i in self._trivial])
        if lam_max <= t0:
            return t0, lam_max, 0.0, None if rows is None else [0.0] * len(rows)
        return (t0, lam_max, *self.walk(active, t0, lam_max, rows, starts))

    def expected_order(self, shifts, gradient=True):
        """(S, grad S) at these shifts from one walk (grad None without
        `gradient`).  For a non-trivial v_i, dS/dt_i = (2 / vol L) times the
        integral of P . E_i from t_i to lam_max.  The least-shifted trivial
        valuation, whose cap binds when the range is empty, takes 1 minus the
        others; other trivial ones 0.
        """
        if self.volume <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        t0, lam_max, iv, ih = self.integrals(shifts, [] if gradient else None)
        vol = float(self.volume)
        value = float(t0 + iv / vol) if lam_max > t0 else t0
        if not gradient:
            return value, None
        grad = [0.0] * len(self.support)
        for i, x in zip(self._nontrivial, ih):
            grad[i] = 2.0 * x / vol
        if self._trivial:
            grad[min(self._trivial, key=lambda i: float(shifts[i]))] = 1.0 - math.fsum(grad)
        return value, grad

    def walk(self, ts, lam0, lam1, rows=None, starts=None):
        """(integral of vol, integrals of P . h) over [lam0, lam1], with `ts`
        the float shifts of the non-trivial valuations and h the float
        tuples in `rows` (None: no h), row j integrated from `starts[j]` on:
        one chamber walk per piece between consecutive cuts, which are the
        shifts themselves, so `t <= p` is exact."""
        cuts = sorted({lam0, lam1} | {t for t in ts if lam0 < t < lam1})
        total_v, total_h = 0.0, None if rows is None else [0.0] * len(rows)
        for p, q in zip(cuts, cuts[1:]):
            b, d = self._base, (0.0,) * len(self._base)
            for t, e in zip(ts, self._divs):
                if t <= p:
                    b = tuple(u + t * w for u, w in zip(b, e))
                    d = tuple(u - w for u, w in zip(d, e))
            iv, ih = self.target._line_integrals(b, d, p, q, rows)
            total_v += iv
            if rows is not None:
                total_h = [acc + (x if s <= p else 0.0) for acc, x, s in zip(total_h, ih, starts)]
        return total_v, total_h


class _Lattice(NamedTuple):
    """The data `SurfaceModel._chamber` works on, in one number type: negative
    curves C, M C for them and then for the sample curves, the C_i . C_j, the
    matrix M, the zero, and `tol`, within which a quantity counts as 0."""

    curves: tuple
    duals: tuple
    gram: tuple
    matrix: tuple
    zero: object
    tol: float


def _floats(x):
    """A tuple of numbers, or of such tuples, as floats."""
    return tuple(_floats(y) if isinstance(y, tuple) else float(y) for y in x)


def _dot(a, b, zero=Fraction(0)):
    # the zero start keeps an all-zero product in the number type: exact
    # data gives Fraction(0), never the int 0
    return sum((x * y for x, y in zip(a, b) if x and y), zero)


def _solve_negative_definite(gram, columns, tol):
    """The solutions of gram X = c, one per column c, by elimination without
    row exchanges; None unless gram is negative definite (every pivot < -tol)."""
    n = len(gram)
    rows = [list(row) + [c[i] for c in columns] for i, row in enumerate(gram)]
    for k in range(n):
        if rows[k][k] >= -tol:
            return None
        for r in range(n):
            if r != k and rows[r][k]:
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return [[rows[i][n + j] / rows[i][i] for i in range(n)] for j in range(len(columns))]


def _first_root(q0, q1, q2, x, wall):
    """Least root in (x, wall] of q0 + q1 lam + q2 lam^2, given q(x) > 0 (wall
    None: no wall); a Fraction when the discriminant is a rational square."""
    disc = q1 * q1 - 4 * q2 * q0
    # q must fall from x to a real root: not rising, not past a convex vertex;
    # that root is at most the wall if q(wall) <= 0 or the vertex is
    if disc < 0 or (q2 == 0 and q1 >= 0) or (q2 > 0 and -q1 <= 2 * q2 * x):
        return None
    if wall is not None and q0 + wall * (q1 + wall * q2) > 0:
        if not (q2 > 0 and -q1 <= 2 * q2 * wall):
            return None
    if q2 == 0:
        return -q0 / q1
    s = _fraction_sqrt(disc)
    if s is not None:
        return (-q1 - s) / (2 * q2)
    s = math.sqrt(disc)
    # the same root, in the form without cancellation between q1 and s
    return (-q1 - s) / (2 * q2) if q1 > 0 else 2 * q0 / (-q1 + s)


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(rn, rd) if Fraction(rn * rn, rd * rd) == x else None


def zariski(model: SurfaceModel, D: DivisorClass) -> ZariskiDecomposition:
    return model.zariski(D)
