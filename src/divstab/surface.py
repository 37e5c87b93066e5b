"""Smooth projective surface backend: Néron–Severi lattice + Zariski decomposition.

The user declares the intersection form, the negative curves relevant to the
explored region, and extra `sample_curves` certifying nefness.  Wrong or
incomplete curve lists give wrong volumes; the bundled del Pezzo / Hirzebruch
models carry the full known lists.

One routine, `SurfaceModel._chamber`, finds the Zariski chamber of b + lam d
right of a point, where P is linear and vol = P^2 quadratic in lam, and the
pairings of P that give its walls.  It runs fraction-free on int tuples over
one positive scale, with no tolerance: points and walls are int pairs, so
the threshold walk builds one Fraction, the threshold.  It keeps its
chambers, each with the quadratic vol on it, so S and grad S of a support
with one non-trivial valuation integrate them in closed form and search no
chamber (`_SurfaceProblem.expected_order`).  Other supports, and the Danskin
rows, walk the same chambers exactly (`_SurfaceProblem.walk`): float shifts
are binary rationals, so they sit over one int denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .core import (
    BasisMismatchError,
    DivisorClass,
    GeometryError,
    GeometryModel,
    NotPseudoeffectiveError,
    Valuation,
    _dot,
    _solve,
    as_fraction,
    gamma_threshold,
)


@dataclass(frozen=True)
class SurfaceRealization:
    """Where a surface valuation's order function is computed.

    `model` is the (possibly birational) surface carrying the prime divisor,
    `divisor` its class there, and `pullback` the rational matrix sending
    base-lattice coordinates to `model`'s lattice (None = identity, i.e. the
    valuation is realised on the base surface itself).  `ints` (`_integral`)
    are the coefficients of `divisor`, kept from construction.
    """

    model: "SurfaceModel"
    divisor: DivisorClass
    base_id: str
    pullback: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "ints", _integral((self.divisor.coefficients,)))


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
        matrix, sigma = _integral(self.matrix)
        signature = _signature(matrix)
        if signature != (1, self.class_rank - 1):
            raise GeometryError(f"intersection form has signature {signature}; expected (1, {self.class_rank - 1})")

        self.negative_curves = tuple(self.divisor(c) for c in negative_curves)
        self.sample_curves = tuple(self.divisor(c) for c in sample_curves)
        curves, kappa = _integral([C.coefficients for C in self.negative_curves + self.sample_curves])
        duals = tuple(_image(matrix, c) for c in curves)
        curves = curves[: len(self.negative_curves)]
        gram = tuple(tuple(_dot(c, u) for u in duals[: len(curves)]) for c in curves)
        for i, C in enumerate(self.negative_curves):
            if gram[i][i] >= 0:
                raise GeometryError(f"declared negative curve {C.coefficients} has self-intersection >= 0")
        if canonical_class is None:
            canonical_class = [0] * self.class_rank
        self.canonical_class = self.divisor(canonical_class)

        self._exact = _Lattice(curves, duals, gram, matrix, sigma, kappa)

    # -- exact pairing and Zariski decomposition ---------------------------

    def pairing(self, A: DivisorClass, B: DivisorClass) -> Fraction:
        self._check_basis(A)
        self._check_basis(B)
        (a, b), q = _integral((A.coefficients, B.coefficients))
        return Fraction(_dot(a, _image(self._exact.matrix, b)), q * q * self._exact.sigma)

    def curve_valuation(self, name: str, curve_coeffs: Sequence, log_discrepancy=1) -> Valuation:
        """Valuation ord_C along a prime divisor C realised on this surface."""
        real = SurfaceRealization(self, self.divisor(curve_coeffs), base_id=self.basis_id)
        return self.add_valuation(Valuation(name, as_fraction(log_discrepancy), order_model=real))

    def zariski(self, D: DivisorClass) -> ZariskiDecomposition:
        """Unique decomposition D = P + N (P nef against the declared curves,
        negative-definite N-support orthogonal to P), by iterated support growth.
        """
        return self._decomposition(D)[0]

    def _decomposition(self, D: DivisorClass):
        """(Zariski decomposition, vol) of D, kept in the memo of D beside its
        ints (`_reduced`); off the psef cone, its error message, raised afresh
        on each query."""
        memo, lat = self._memo_of(D), self._exact
        ((b,), q), hit = _reduced(memo, D)
        if hit is None:
            try:
                support, p0, _, scale, _ = self._chamber(lat, b, (0,) * len(b), q, (0, 1))
                P = DivisorClass(tuple(Fraction(c, scale) for c in p0), self.basis_id)
                N = tuple((self.negative_curves[i], Fraction(lat.kappa * a, scale)) for i, a, _ in support)
                hit = ZariskiDecomposition(P, N), Fraction(_dot(p0, _image(lat.matrix, p0)), scale**2 * lat.sigma)
            except NotPseudoeffectiveError as e:
                hit = str(e)
            memo["zariski"] = ((b,), q), hit
        if isinstance(hit, str):
            raise NotPseudoeffectiveError(hit)
        return hit

    def _chamber(self, lat, b, d, q, x):
        """Zariski decomposition of (b + lam d) / q right of lam = xn / xd, for
        int tuples b, d, x = (xn, xd) and ints q, xd > 0: (support, p0, p1,
        scale, lines) with P = (p0 + lam p1) / scale, support the (curve
        index, a0, a1) whose N-coefficient lat.kappa (a0 + lam a1) / scale is
        positive at x+, and lines the pairings (p0 . u, p1 . u) with the dual
        u of each curve outside the support, negative then sample curves.
        Each (c0 + lam c1) / scale is signed at x+, in the pass that pairs it,
        by xd c0 + xn c1, else by c1, exactly.  Raises
        NotPseudoeffectiveError off the psef cone at x+."""
        curves, duals, n = lat.curves, lat.duals, len(lat.curves)
        xn, xd = x
        support, p0, p1, scale = [], b, d, q
        while True:
            # P against each curve outside the support, once per support
            lines, violating = [], []
            for i in range(n):
                if i not in support:
                    c0, c1 = sum(map(mul, p0, duals[i])), sum(map(mul, p1, duals[i]))
                    lines.append((c0, c1))
                    if (c < 0) if (c := xd * c0 + xn * c1) else (c1 < 0):
                        violating.append(i)
            if not support:
                first = lines  # b and d against each curve
            if not violating:
                break
            support += violating
            gram = [[lat.gram[i][j] for j in support] for i in support]
            sol = _solve_negative_definite(gram, list(zip(*(first[i] for i in support))))
            if sol is None:
                raise NotPseudoeffectiveError(
                    f"no Zariski decomposition: Gram submatrix of curves "
                    f"{[self.negative_curves[i].coefficients for i in support]} is not negative definite"
                )
            g, (a0, a1) = sol
            scale = q * g
            # P = (g v - sum a_i C_i) / scale for (v, a) = (b, a0) and (d, a1)
            columns = list(zip(*(curves[i] for i in support)))
            p0, p1 = (
                tuple(g * vk - _dot(a, col) for vk, col in zip(v, columns)) for v, a in zip((b, d), (a0, a1))
            )
        for C, dual in zip(self.sample_curves, duals[n:]):
            c0, c1 = sum(map(mul, p0, dual)), sum(map(mul, p1, dual))
            if (c < 0) if (c := xd * c0 + xn * c1) else (c1 < 0):
                raise NotPseudoeffectiveError(
                    f"candidate positive part pairs negatively with declared curve "
                    f"{C.coefficients}"
                )
            lines.append((c0, c1))
        if not support:
            return [], p0, p1, scale, lines
        signs = [c if (c := xd * u + xn * w) else w for u, w in zip(a0, a1)]
        if any(s < 0 for s in signs):
            raise NotPseudoeffectiveError(
                "a negative-part coefficient is forced negative; class is not pseudoeffective"
            )
        return [(i, u, w) for i, u, w, s in zip(support, a0, a1, signs) if s > 0], p0, p1, scale, lines

    def _step(self, lat, b, d, q, x):
        """(p0, p1, M p0, M p1, scale, wall) on the chamber of (b + lam d) / q
        right of x (`_chamber`), M = lat.matrix, and wall the least root past
        x of an N-coefficient or of a pairing in `lines` (None: no wall): the
        int pair (c0, -c1) of the least -c0 / c1, by cross-multiplication.
        None when the class is not psef at x+."""
        try:
            support, p0, p1, scale, lines = self._chamber(lat, b, d, q, x)
        except NotPseudoeffectiveError:
            return None
        wall = None
        for c0, c1 in lines + [(u, w) for _, u, w in support]:
            if c1 < 0 and (wall is None or c0 * wall[1] < -c1 * wall[0]):
                wall = c0, -c1
        return p0, p1, _image(lat.matrix, p0), _image(lat.matrix, p1), scale, wall

    def volume(self, D: DivisorClass) -> Fraction:
        try:
            return self._decomposition(D)[1]
        except NotPseudoeffectiveError:
            return Fraction(0)

    def positive_product_against(self, D: DivisorClass, H: DivisorClass) -> Fraction:
        """<D> . H = positive part of D paired with H.  Requires D big."""
        if not self.is_big(D):
            raise GeometryError("positive product requires a big class")
        return self.pairing(self.zariski(D).positive_part, H)

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
        if len({id(r.model) for r in reals}) > 1:
            raise GeometryError("valuations realised on different birational models cannot be combined")
        if len({r.pullback for r in reals}) > 1:
            raise GeometryError("inconsistent pullback maps among valuations")
        target, mat = reals[0].model, reals[0].pullback
        if mat is None:
            if target is not self:
                raise GeometryError("missing pullback map to the realization model")
            return self, lambda coeffs: coeffs
        return target, lambda coeffs: tuple(_dot(row, coeffs) for row in mat)

    def twisted_volume(self, L: DivisorClass, constraints):
        self._check_basis(L)
        target, pull = self.resolve_realization([v for v, _ in constraints])
        cls = DivisorClass.make(pull(L.coefficients), target.basis_id)
        for v, c in constraints:
            if v.is_trivial:
                raise GeometryError("trivial valuation cannot twist a class")
            cls = cls - as_fraction(c) * v.order_model.divisor
        return target.volume(cls)

    def twist_evaluator(self, L, valuations):
        target, pull = self.resolve_realization(valuations)
        base = tuple(map(float, pull(L.coefficients)))
        divs = [None if v.is_trivial else tuple(map(float, v.order_model.divisor.coefficients)) for v in valuations]

        def evaluate(cs: Sequence[float]) -> float:
            vec = base
            for c, e in zip(cs, divs):
                if c and e:
                    vec = tuple(u - c * w for u, w in zip(vec, e))
            return target.volume_float(vec)

        return evaluate

    # -- S and its derivatives -----------------------------------------------

    def volume_float(self, vec) -> float:
        """vol of the class with these float coordinates, binary rationals:
        the exact `_step` at d = 0, rounded once, and kept in no memo."""
        lat, ((b,), q) = self._exact, _integral((tuple(Fraction(float(c)) for c in vec),))
        step = self._step(lat, b, (0,) * len(b), q, (0, 1))
        return 0.0 if step is None else _dot(step[0], step[2]) / (step[4] ** 2 * lat.sigma)

    def twist_integrals(self, L, valuations, shifts, lam0, lam1, direction=None):
        """Exact integrals along lam -> L - sum max(lam - t_i, 0) D_i over [lam0, lam1].

        Returns (integral of vol, integral of P . direction); the second is 0
        when no direction is given.  Stops early once the path leaves the
        pseudoeffective cone (vol is then identically 0 onward).
        """
        problem = self._compiled(L, valuations)
        ts = [float(t) for v, t in zip(valuations, shifts) if not v.is_trivial]
        rows = [] if direction is None else problem.pulled([direction])
        iv, ih = problem.walk(ts, lam0, lam1, rows)
        return iv, ih[0] if rows else 0.0

    def closed_form_threshold(self, L: DivisorClass, v: Valuation):
        """Exact pseudoeffective threshold of big L along v: walk the Zariski
        chambers of pull(L) - lam E_v up from 0, P linear and vol = P^2 on
        each, until the next chamber is not pseudoeffective or vol reaches 0
        before the wall (the first root of an N-coefficient or a pairing).

        It walks the ints of L and E_v, lam an int pair, and builds one
        Fraction, the threshold.  The chambers walked stay in the memo of L,
        under ("chambers", v), next to the threshold that `gamma_threshold`
        keeps: one float tuple (start, end, c0, c1, c2) per chamber, vol(L -
        lam E_v) = c0 + c1 lam + c2 lam^2 on [start, end], each an exact
        ratio rounded once, and the last end the threshold."""
        memo = self._memo_of(L)
        if v.is_trivial:
            raise GeometryError("pseudoeffective threshold undefined for the trivial valuation")
        target, pull = self.resolve_realization([v])
        lat, ((e,), qe) = target._exact, v.order_model.ints
        (b,), qb = _reduced(memo, L)[0] if v.order_model.pullback is None else _integral((pull(L.coefficients),))
        b, d, q = tuple(c * qe for c in b), tuple(-c * qb for c in e), qb * qe
        x, chambers = (0, 1), []
        while (step := target._step(lat, b, d, q, x)) is not None:
            p0, p1, Mp0, Mp1, scale, wall = step
            coeffs, unit = (_dot(p0, Mp0), 2 * _dot(p0, Mp1), _dot(p1, Mp1)), scale**2 * lat.sigma
            root = _first_root(*coeffs, unit, x, wall)
            if root is None and wall is None:
                raise GeometryError(f"threshold of {v.name!r} is unbounded: no declared curve bounds it")
            start, x = x, wall if root is None else root
            end = x if isinstance(x, float) else x[0] / x[1]
            chambers.append((start[0] / start[1], end, *(c / unit for c in coeffs)))
            if root is not None:
                break
        memo["chambers", v] = tuple(chambers)
        return x if isinstance(x, float) else Fraction(*x)

    def expected_order(self, L: DivisorClass, support, shifts) -> tuple[float, list[float]]:
        """(S, grad_t S) in floats from the problem compiled for (L, support):
        new shifts redo only the integral (`_SurfaceProblem.expected_order`).
        Trivial valuations alone compile nothing: S is the least shift."""
        if all(v.is_trivial for v in support):
            if not self.is_big(L):
                raise GeometryError("expected vanishing order requires a big class")
            ts = [float(t) for t in shifts]
            return min(ts), [float(i == ts.index(min(ts))) for i in range(len(ts))]
        return self._compiled(L, support).expected_order(shifts)

    def order_derivative(self, L: DivisorClass, support, shifts, H: DivisorClass) -> float:
        """d/ds S_{L+sH}(t) at s = 0 from one walk of the compiled problem:
        (2 / vol) (integral of P . H - (P_L . H / vol) integral of vol), 0
        for trivial valuations alone."""
        if all(v.is_trivial for v in support):
            self._check_basis(L)
            return 0.0
        problem = self._compiled(L, support)
        t0, lam_max, iv, ih = problem.integrals(shifts, problem.pulled([H]))
        if lam_max <= t0:
            return 0.0
        vol = problem.volume
        # P_L . H from the decomposition the problem kept: L is not decomposed again
        plh = float(self.pairing(problem.positive, H))
        return (2.0 / vol) * (float(ih[0]) - (plh / vol) * iv)

    def _compiled(self, L: DivisorClass, support: Sequence[Valuation]) -> "_SurfaceProblem":
        """The compiled problem of (L, support), kept in the memo of L for the
        last support, which is compared, not hashed."""
        support = tuple(support)
        memo = self._memo_of(L)
        problem = memo.get("problem")
        if problem is None or problem.support != support:
            problem = memo["problem"] = _SurfaceProblem(self, L, support)
        return problem


class _SurfaceProblem:
    """One (L, support) on a surface, compiled once for repeated `S` calls.

    Holds vol(L) as a float and the positive part of L (None unless L is
    big), the realization of the support, and, from the first `walk`, L
    pulled back to it with the divisors of the non-trivial valuations, as
    int tuples over one denominator.  Building it resolves the realization, so a support
    realised on several birational models raises here, whatever the
    shifts.  The thresholds gamma_i are computed on first use
    (`thresholds`), which needs L big.  With one non-trivial valuation v,
    the problem also holds the chambers of v's gamma walk
    (`SurfaceModel.closed_form_threshold`), and `S` and its gradient
    integrate them in closed form; other supports walk the chambers
    exactly (`walk`).
    """

    def __init__(self, model: SurfaceModel, L: DivisorClass, support: tuple):
        self.model, self.L, self.support = model, L, support
        try:
            dec, vol = model._decomposition(L)
        except NotPseudoeffectiveError:
            dec, vol = None, 0
        self.volume = float(vol)
        self.positive = dec.positive_part if self.volume > 0 else None
        self._nontrivial = [i for i, v in enumerate(support) if not v.is_trivial]
        self._trivial = [i for i, v in enumerate(support) if v.is_trivial]
        self._gammas = self._chambers = self._ints = None  # set by `thresholds` and `walk`
        self.target, self._pull = model.resolve_realization(support)

    def pulled(self, classes) -> list:
        """The classes pulled back to the realization, one float tuple each."""
        return [tuple(map(float, self._pull(D.coefficients))) for D in classes]

    def thresholds(self) -> list:
        """The float thresholds gamma_i of the non-trivial valuations, computed
        once.  With one, its chambers are read from the memo of L right after
        `gamma_threshold` has put them there, and kept here: by a later call,
        another class may have replaced that memo."""
        if self._gammas is None:
            gammas = [gamma_threshold(self.model, self.L, self.support[i]) for i in self._nontrivial]
            if len(gammas) == 1:
                self._chambers = self.model._memo_of(self.L)["chambers", self.support[self._nontrivial[0]]]
            self._gammas = [float(g) for g in gammas]
        return self._gammas

    def integrals(self, shifts, rows):
        """(t0, lam_max, integral of vol, integrals of P . h) over the range
        [t0, lam_max] of the filtration with these shifts, one per support
        valuation; all 0 when the range is empty.  h runs over the float
        tuples in the list `rows`, then over the divisor E_i of each
        non-trivial valuation, integrated from t_i on (`walk`).
        """
        ts = [float(t) for t in shifts]
        t0 = min(ts)
        active = [ts[i] for i in self._nontrivial]
        # a trivial valuation admits no section past its shift: hard cutoff
        lam_max = min([g + t for g, t in zip(self.thresholds(), active)] + [ts[i] for i in self._trivial])
        if lam_max <= t0:
            return t0, lam_max, 0.0, [0.0] * (len(rows) + len(active))
        return (t0, lam_max, *self.walk(active, t0, lam_max, rows))

    def expected_order(self, shifts):
        """(S, grad S) at these shifts.  For a non-trivial v_i, dS/dt_i =
        (2 / vol L) times the integral of P . E_i from t_i to lam_max.  The
        least-shifted trivial valuation, whose cap binds when the range is
        empty, takes 1 minus the others; other trivial ones 0.

        With one non-trivial v, at shift t, and tau the least trivial shift
        (inf if none), nothing is walked: S = t + F(y) / vol L and dS/dt =
        1 - vol(L - y E) / vol L, for y = min(gamma, tau - t) and F the
        integral of vol(L - mu E) over [0, y], from the chambers of the
        gamma walk; d vol(L - mu E) / d mu = -2 P . E gives the gradient.
        Other supports take both from one walk (`integrals`).
        """
        vol = self.volume
        if vol <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        grad = [0.0] * len(self.support)
        if len(self._nontrivial) == 1:
            (i,), (gamma,) = self._nontrivial, self.thresholds()
            ts = [float(s) for s in shifts]
            y = min(gamma, min([ts[j] for j in self._trivial], default=math.inf) - ts[i])
            if y > 0:
                integral, drop = _chamber_integral(self._chambers, y)
                # vol(L - gamma E) = 0
                value, grad[i] = ts[i] + integral / vol, 1.0 if y == gamma else drop / vol
            else:
                value = min(ts)
        else:
            t0, lam_max, iv, ih = self.integrals(shifts, [])
            value = t0 + iv / vol if lam_max > t0 else t0
            for i, x in zip(self._nontrivial, ih):
                grad[i] = 2.0 * x / vol
        if self._trivial:
            grad[min(self._trivial, key=lambda i: float(shifts[i]))] = 1.0 - math.fsum(grad)
        return value, grad

    def walk(self, ts, lam0, lam1, rows):
        """(integral of vol, integrals of P . h) over [lam0, lam1] along
        lam -> L - sum max(lam - t_i, 0) E_i, `ts` the shifts of the
        non-trivial valuations, h the float tuples in the list `rows`, then
        each E_i, integrated from t_i on.  Floats are binary rationals: over
        their common denominator D, the ends and shifts are ints mu = D lam,
        and the class is (b + mu d) / (q D) for int tuples b, d, which E_i
        joins at its mu.  Each chamber (`SurfaceModel._step`) is integrated
        in closed form up to its wall or the next shift, from exact int
        ratios rounded once.  The path only subtracts effective divisors, so
        where vol is exactly 0 at an end (P = 0, or P nef with P^2 = 0) it
        stays 0: the walk ends there, and no chamber search fails."""
        target, lat = self.target, self.target._exact
        if self._ints is None:  # built here: S on one non-trivial valuation walks nothing
            divs = (self.support[i].order_model.divisor.coefficients for i in self._nontrivial)
            self._ints = _integral((self._pull(self.L.coefficients), *divs))
        (base, *divs), q = self._ints
        ratios = [x.as_integer_ratio() for x in (lam0, lam1, *ts)]
        D = math.lcm(*(r for _, r in ratios))
        # each event: (mu, lam as a float, index of its E_i), lam1 last
        (m0, xf), (m1, f1), *ms = ((n * (D // r), n / r) for n, r in ratios)
        events = [*sorted((m, f, i) for i, (m, f) in enumerate(ms) if m < m1), (m1, f1, None)]
        # E_i is a row over q: its integral is divided by q at the end
        h, rows = len(rows), [*rows, *divs]
        live = list(range(h))  # the rows integrated from here on
        b, d = tuple(D * c for c in base), (0,) * len(base)
        total_v, total_h = 0.0, [0.0] * len(rows)
        xn, xd, k = m0, 1, 0
        while xn < m1 * xd:
            while events[k][0] * xd <= xn:
                m, _, i = events[k]
                b = tuple(u + m * w for u, w in zip(b, divs[i]))
                d = tuple(u - w for u, w in zip(d, divs[i]))
                live.append(h + i)
                k += 1
            step = target._step(lat, b, d, q * D, (xn, xd))
            if step is None:  # vol > 0 at x, so only an incomplete curve list gets here
                break
            p0, p1, Mp0, Mp1, scale, wall = step
            m, ef, _ = events[k]
            if wall is None or m * wall[1] <= wall[0]:
                xn, xd = m, 1
            else:
                (xn, xd), ef = wall, wall[0] / (wall[1] * D)
            # P = (p0 + mu p1) / scale and vol = (k0 + 2 k1 mu + k2 mu^2) / (scale den), mu = D lam;
            # D divides scale, so den1 = den / D and s1 = scale / D are ints
            k0, k1, k2 = _dot(p0, Mp0), _dot(p0, Mp1), _dot(p1, Mp1)
            s1 = scale // D
            den, den1 = scale * lat.sigma, s1 * lat.sigma
            span, half = ef - xf, (ef * ef - xf * xf) / 2.0
            total_v += k0 / (scale * den) * span + 2 * k1 / (scale * den1) * half + k2 / (s1 * den1) * (ef**3 - xf**3) / 3.0
            # the integral of M P over the chamber, in floats: h . r is that of P . h
            r = [c0 / den * span + c1 / den1 * half for c0, c1 in zip(Mp0, Mp1)]
            for j in live:
                total_h[j] += sum(map(mul, rows[j], r))
            if k0 * xd * xd + xn * (2 * k1 * xd + k2 * xn) == 0:
                break
            xf = ef
        return total_v, [*total_h[:h], *(x / q for x in total_h[h:])]


class _Lattice(NamedTuple):
    """`SurfaceModel._chamber`'s data in ints, for M = sigma (intersection matrix)
    and C = kappa (curve) with least common denominators sigma, kappa: negative
    curves C, M C for them and the sample curves, C_i M C_j, M, sigma, kappa."""

    curves: tuple
    duals: tuple
    gram: tuple
    matrix: tuple
    sigma: int
    kappa: int


def _integral(vectors):
    """(int tuples, q): rational tuples over their least common denominator q."""
    q = math.lcm(*(c.denominator for v in vectors for c in v))
    return tuple(tuple(c.numerator * (q // c.denominator) for c in v) for v in vectors), q


def _reduced(memo, D):
    """D's record in `memo`, its memo: (`_integral` of D, `_decomposition`'s result or None)."""
    if "zariski" not in memo:
        memo["zariski"] = _integral((D.coefficients,)), None
    return memo["zariski"]


def _image(matrix, v) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in matrix])


def _signature(m) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric int matrix: count the sign of
    a pivot p, go on with |p| times its Schur complement; on a zero diagonal,
    row_k += row_j and col_k += col_j first, for m_kj != 0 (pivot 2 m_kj)."""
    pos = neg = 0
    while m:
        k = next((i for i, row in enumerate(m) if row[i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a), (None, None))
            if k is None:
                break
            m = [[a + (r == k) * m[j][c] + (c == k) * row[j] for c, a in enumerate(row)] for r, row in enumerate(m)]
        p = m[k][k]
        pos, neg, s = pos + (p > 0), neg + (p < 0), 1 if p > 0 else -1
        m = [[s * (p * a - row[k] * m[k][c]) for c, a in enumerate(row) if c != k] for r, row in enumerate(m) if r != k]
    return pos, neg


def _solve_negative_definite(gram, columns):
    """(g, xs) with g > 0 and gram x = g c for each column c and its x in xs;
    None unless the int matrix gram is negative definite: its leading minors,
    each the d of one `_solve`, alternate in sign.  gram is symmetric, so row
    i of g gram^-1 is (-1)^n y_i for `_solve(gram, e_i) = (det, y_i)`, in
    ints, and x keeps the type of c."""
    n = len(gram)
    minors = [(-1) ** k * _solve([row[:k] for row in gram[:k]], [0] * k)[0] for k in range(1, n + 1)]
    if min(minors) <= 0:
        return None
    sign = (-1) ** n
    ginv = [[sign * y for y in _solve(gram, [int(r == i) for r in range(n)])[1]] for i in range(n)]
    return minors[-1], [[_dot(row, c) for row in ginv] for c in columns]


def _first_root(q0, q1, q2, unit, x, wall):
    """Least root in (x, wall] of (q0 + q1 lam + q2 lam^2) / unit, ints q, unit > 0,
    given q(x) > 0, for int pairs x = (n, d) and wall (None: no wall), each
    n / d with d > 0: an int pair if the discriminant is a square, else a float."""
    disc, (xn, xd) = q1 * q1 - 4 * q2 * q0, x
    # q must fall from x to a real root: not rising, not past a convex vertex;
    # that root is at most the wall if q(wall) <= 0 or the vertex is
    if disc < 0 or (q2 == 0 and q1 >= 0) or (q2 > 0 and -q1 * xd <= 2 * q2 * xn):
        return None
    if wall is not None:
        wn, wd = wall
        if q0 * wd * wd + wn * (q1 * wd + wn * q2) > 0 and not (q2 > 0 and -q1 * wd <= 2 * q2 * wn):
            return None
    if q2 == 0:
        return q0, -q1
    s = math.isqrt(disc)
    if s * s == disc:
        return (-q1 - s, 2 * q2) if q2 > 0 else (q1 + s, -2 * q2)
    # in floats from q / unit, each rounded once, in the form without cancellation
    s = math.sqrt(disc / (unit * unit))
    return (-q1 / unit - s) / (2 * q2 / unit) if q1 > 0 else 2 * q0 / unit / (-q1 / unit + s)


def _chamber_integral(chambers, y):
    """(integral of vol over [0, y], vol(0) - vol(y)) for 0 < y <= the last
    end of `closed_form_threshold`'s chambers, on each of which vol = c0 +
    c1 mu + c2 mu^2; both summed chamber by chamber, as `walk` does."""
    total = drop = 0.0
    for start, end, c0, c1, c2 in chambers:
        x = min(end, y)
        total += c0 * (x - start) + c1 * (x * x - start * start) / 2.0 + c2 * (x**3 - start**3) / 3.0
        drop -= c1 * (x - start) + c2 * (x * x - start * start)
        if y <= end:
            break
    return total, drop


def zariski(model: SurfaceModel, D: DivisorClass) -> ZariskiDecomposition:
    return model.zariski(D)
