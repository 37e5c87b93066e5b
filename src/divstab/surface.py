"""Smooth projective surface backend: Néron–Severi lattice + Zariski decomposition.

The user declares the intersection form, the negative curves relevant to the
explored region, and extra `sample_curves` certifying nefness.  Wrong or
incomplete curve lists give wrong volumes; the bundled del Pezzo / Hirzebruch
models carry the full known lists.

One routine, `SurfaceModel._chamber`, finds the Zariski chamber of b + lam d
right of a point, where P is linear and vol = P^2 quadratic in lam, and the
pairings of P that give its walls.  It runs fraction-free on int tuples over
one positive scale, with no tolerance: points and walls are int pairs, so
the threshold walk builds one Fraction, the threshold, and a class keeps
its decomposition as ints, whose Fractions `zariski` builds on first ask.
One loop, `_walk`, walks the chambers of a path for gamma and S alike: each
ends at its wall, at the next shift or at the first root of vol, where the
walk stops, so no chamber integrates a negative vol.  It emits one record
per chamber, vol and M P on it in floats with vol's exact quadratic, and
one function, `_integrate`, integrates any list of records: vol, P . h and
P . E_i give S, grad S and d_L S.  As S(t + c) = S(t) + c, the chambers
depend only on the shifts relative to the least non-trivial one, and a
compiled problem walks each once (`_SurfaceProblem.records`), so a later S
there is one key, one lookup and one integral; the gamma walk is the one of
a lone non-trivial valuation, and its exact quadratics give the root of
vol(L - y E) = xi_0 vol L (`SurfaceModel.one_valuation_maximizer`).
Float shifts are binary rationals, so a walk sits over one int
denominator.  Each record names its chamber's Zariski support N, on which
d P / d t_j is the projection Pi_N E_j off the span of N
(Bauer-Küronya-Szemberg), so the exact Hessian of S
(`_SurfaceProblem.order_hessian`), a sum of chamber lengths times E_i .
Pi_N E_j and the terms of the moving end of the range, reads the walk too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from .core import (
    BasisMismatchError,
    DivisorClass,
    GeometryError,
    GeometryModel,
    NotPseudoeffectiveError,
    Valuation,
    _dot,
    _eliminate,
    _integral,
    _recent,
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
    are the coefficients of `divisor`, and `pull_ints` the rows of
    `pullback` (None for the identity), kept from construction.  `centre`
    (`Valuation.centre`) keys `model`, `pullback` and `divisor` if the divisor
    has negative square, so is the only effective divisor in its class; else
    None.  It keys the model by id: it is computed on first use, not pickled.
    """

    model: "SurfaceModel"
    divisor: DivisorClass
    base_id: str
    pullback: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "ints", _integral((self.divisor.coefficients,)))
        object.__setattr__(self, "pull_ints", None if self.pullback is None else _integral(self.pullback))

    @cached_property
    def centre(self):  # a str key: it hashes once, so merging atoms costs one set per S
        rigid = self.model.pairing(self.divisor, self.divisor) < 0
        return f"{id(self.model)} {self.pullback} {self.divisor.coefficients}" if rigid else None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "centre"}


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
        self.matrix = tuple(tuple(as_fraction(x) for x in row) for row in intersection_matrix)
        self.class_rank = len(self.matrix)
        if any(len(row) != self.class_rank for row in self.matrix):
            raise GeometryError("intersection matrix is not square")
        if self.matrix != tuple(zip(*self.matrix)):
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
            # distinct curves meet nonnegatively; a curve declared twice meets itself negatively
            for j in range(i):
                if gram[i][j] < 0:
                    raise GeometryError(f"declared negative curves {_shown(self.negative_curves[j])} and {_shown(C)} "
                                        f"meet negatively: they are not two distinct curves")
        self.canonical_class = self.divisor([0] * self.class_rank if canonical_class is None else canonical_class)

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
        negative-definite N-support orthogonal to P), by iterated support growth;
        its Fractions are built from the ints of `_decomposition` on first ask.
        """
        if (hit := self._decomposition(D))[4] is None:
            _, support, p0, scale, _ = hit
            N = tuple([(self.negative_curves[i], Fraction(self._exact.kappa * a, scale)) for i, a, _ in support])
            hit[4] = ZariskiDecomposition(DivisorClass(tuple([Fraction(c, scale) for c in p0]), self.basis_id), N)
        return hit[4]

    def _decomposition(self, D: DivisorClass):
        """[vol, support, p0, scale, decomposition] of D, kept in the memo of D
        beside its ints (`_reduced`): P = p0 / scale, N = sum kappa a C_i /
        scale over `_chamber`'s support (i, a, _), the decomposition None
        until `zariski` builds it; off the psef cone, its error message, raised
        afresh on each query.  A positive part of negative square (no nef class
        has one: Hodge index) raises GeometryError: a declared curve is missing."""
        memo, lat = self._memo_of(D), self._exact
        ((b,), q), hit = _reduced(memo, D)
        if hit is None:
            try:
                support, p0, _, scale, _ = self._chamber(lat, b, (0,) * len(b), q, (0, 1))
                square = _dot(p0, _image(lat.matrix, p0))
                vol = Fraction(square, scale**2 * lat.sigma)
                if square < 0:
                    raise GeometryError(f"the positive part of class {_shown(D)} has square {vol}: "
                                        f"the declared curves are incomplete")
                hit = [vol, support, p0, scale, None]
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
                raise NotPseudoeffectiveError(f"no Zariski decomposition: Gram submatrix of curves "
                                              f"{[self.negative_curves[i].coefficients for i in support]} "
                                              f"is not negative definite")
            g, (a0, a1) = sol
            scale = q * g
            # P = (g v - sum a_i C_i) / scale for (v, a) = (b, a0) and (d, a1)
            columns = list(zip(*(curves[i] for i in support)))
            p0, p1 = [
                tuple([g * vk - sum(map(mul, a, col)) for vk, col in zip(v, columns)]) for v, a in ((b, a0), (d, a1))
            ]
        for C, dual in zip(self.sample_curves, duals[n:]):
            c0, c1 = sum(map(mul, p0, dual)), sum(map(mul, p1, dual))
            if (c < 0) if (c := xd * c0 + xn * c1) else (c1 < 0):
                raise NotPseudoeffectiveError(f"candidate positive part pairs negatively with declared curve "
                                              f"{C.coefficients}")
            lines.append((c0, c1))
        if not support:
            return [], p0, p1, scale, lines
        signs = [c if (c := xd * u + xn * w) else w for u, w in zip(a0, a1)]
        if any(s < 0 for s in signs):
            raise NotPseudoeffectiveError("a negative-part coefficient is forced negative; class is not pseudoeffective")
        return [(i, u, w) for i, u, w, s in zip(support, a0, a1, signs) if s > 0], p0, p1, scale, lines

    def _step(self, lat, b, d, q, x):
        """(p0, p1, M p0, M p1, scale, wall, N) on the chamber of (b + lam d)
        / q right of x (`_chamber`), M = lat.matrix, wall the least root past
        x of an N-coefficient or of a pairing in `lines` (None: no wall): the
        int pair (c0, -c1) of the least -c0 / c1, by cross-multiplication, and
        N `_chamber`'s support.  None when the class is not psef at x+."""
        try:
            support, p0, p1, scale, lines = self._chamber(lat, b, d, q, x)
        except NotPseudoeffectiveError:
            return None
        wall = None
        for c0, c1 in lines + [(u, w) for _, u, w in support]:
            if c1 < 0 and (wall is None or c0 * wall[1] < -c1 * wall[0]):
                wall = c0, -c1
        Mp0, Mp1 = zip(*[(sum(map(mul, row, p0)), sum(map(mul, row, p1))) for row in lat.matrix])
        return p0, p1, Mp0, Mp1, scale, wall, support

    def volume(self, D: DivisorClass) -> Fraction:
        try:
            return self._decomposition(D)[0]
        except NotPseudoeffectiveError:
            return Fraction(0)

    def positive_product_against(self, D: DivisorClass, H: DivisorClass) -> Fraction:
        """<D> . H = positive part of D paired with H, kept in the memo of D
        for the last 4 H asked (`_recent`).  Requires D big."""
        if not self.is_big(D):
            raise GeometryError("positive product requires a big class")
        memo = self._memo_of(D)
        kept = memo["products"] = _recent(memo.get("products", ()), H, 4, lambda: self.pairing(self.zariski(D).positive_part, H))
        return kept[0][1]

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
                raise BasisMismatchError(f"valuation {v.name!r} is declared over base {r.base_id!r}, "
                                         f"not {self.basis_id!r}")
            reals.append(r)
        if not reals:
            return self, lambda coeffs: coeffs
        target, mat = reals[0].model, reals[0].pullback
        if any(r.model is not target for r in reals):
            raise GeometryError("valuations realised on different birational models cannot be combined")
        if any(r.pullback != mat for r in reals):
            raise GeometryError("inconsistent pullback maps among valuations")
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
        the exact `_step` at d = 0, rounded once, and kept in no memo.  A
        positive part of negative square raises GeometryError, as in `volume`."""
        lat, ((b,), q) = self._exact, _integral((tuple(Fraction(float(c)) for c in vec),))
        step = self._step(lat, b, (0,) * len(b), q, (0, 1))
        if step is None:
            return 0.0
        vol = _dot(step[0], step[2]) / (step[4] ** 2 * lat.sigma)
        if vol < 0:
            raise GeometryError(f"the positive part of class {list(map(float, vec))} has square {vol}: "
                                f"the declared curves are incomplete")
        return vol

    def twist_integrals(self, L, valuations, shifts, lam0, lam1, direction=None):
        """Exact integrals along lam -> L - sum max(lam - t_i, 0) D_i over [lam0, lam1].

        Returns (integral of vol, integral of P . direction); the second is 0
        when no direction is given.  Stops early once the path leaves the
        pseudoeffective cone (vol is then identically 0 onward).
        """
        problem = self._compiled(L, valuations)
        ts = [float(t) for v, t in zip(valuations, shifts) if not v.is_trivial]
        rows = [] if direction is None else problem.pulled([direction])
        iv, ih, _ = _integrate(problem.walk(ts, lam0, lam1), float(lam1 - lam0), rows, ())
        return iv, ih[0] if rows else 0.0

    def closed_form_threshold(self, L: DivisorClass, v: Valuation):
        """Exact pseudoeffective threshold of big L along v: where the walk
        (`_walk`) of pull(L) - lam E_v up from 0 ends, at the first root of
        vol or where the class leaves the psef cone.

        It walks the ints of L and E_v, lam an int pair, and builds one
        Fraction, the threshold.  The chambers walked stay in the memo of L,
        under ("chambers", v), next to the threshold that `gamma_threshold`
        keeps: their records, the last end the threshold."""
        memo = self._memo_of(L)
        if v.is_trivial:
            raise GeometryError("pseudoeffective threshold undefined for the trivial valuation")
        target, _ = self.resolve_realization([v])
        (e,), qe = v.order_model.ints
        (b,), qb = _reduced(memo, L)[0]
        b, qb = _pulled(v.order_model, b, qb)
        chambers, x = _walk(target, tuple([c * qe for c in b]), tuple([-c * qb for c in e]), qb * qe, (0, 1))
        if x is None:
            raise GeometryError(f"threshold of {v.name!r} is unbounded: no declared curve bounds it")
        memo["chambers", v] = chambers
        return x if isinstance(x, float) else Fraction(*x)

    def expected_order(self, L: DivisorClass, support, shifts) -> tuple[float, list[float]]:
        """(S, grad_t S) in floats (`_SurfaceProblem.expected_order`)."""
        return self._compiled(L, support).expected_order(shifts)

    def order_derivative(self, L: DivisorClass, support, shifts, H: DivisorClass) -> float:
        """d/ds S_{L+sH}(t) at s = 0 (`_SurfaceProblem.order_derivative`)."""
        return self._compiled(L, support).order_derivative(shifts, H)

    def order_hessian(self, L: DivisorClass, support, shifts) -> list:
        """The exact Hessian of S in the shifts (`_SurfaceProblem.order_hessian`)."""
        return self._compiled(L, support).order_hessian(shifts)

    def one_valuation_maximizer(self, L: DivisorClass, v: Valuation, trivial_mass) -> float:
        """The y with vol(L - y E_v) = trivial_mass vol L, on the exact
        quadratics of v's gamma walk (`closed_form_threshold`), where vol
        falls: the least root (`_first_root`) in the first chamber that
        reaches the target, exact and rounded once; 0 when the target is vol L."""
        gamma_threshold(self, L, v)  # puts v's chambers in the memo of L
        if trivial_mass >= 1:
            return 0.0
        n, m = (trivial_mass * self.volume(L)).as_integer_ratio()
        for *_, ((k0, k1, k2), unit, start, end, _) in self._memo_of(L)["chambers", v]:
            # vol - target = (m (k0 + k1 y + k2 y^2) - n unit) / (m unit)
            root = _first_root(m * k0 - n * unit, m * k1, m * k2, m * unit, start, None if isinstance(end, float) else end)
            if root is not None:
                return root if isinstance(root, float) else root[0] / root[1]

    def _compiled(self, L: DivisorClass, support: Sequence[Valuation]) -> "_SurfaceProblem":
        """The compiled problem of (L, support), kept in the memo of L for the
        last 4 supports (`_recent`), which are compared, not hashed."""
        memo, support = self._memo_of(L), tuple(support)
        if not (kept := memo.get("problems")) or kept[0][0] != support:
            kept = memo["problems"] = _recent(kept or (), support, 4, _SurfaceProblem, self, L, support)
        return kept[0][1]


class _SurfaceProblem:
    """One (L, support) on a surface, compiled once for repeated `S` calls.

    Holds vol(L), exact and as a float, the realization of the support,
    and, from first use (`ints`), L pulled back to it with the divisors of
    the non-trivial valuations, as int tuples over one denominator.
    Building it resolves the realization, so a support realised on several
    birational models raises here, whatever the shifts.  The thresholds
    gamma_i are computed on first use (`thresholds`), which needs L big.
    `records` picks each call's chambers from a walk kept by its shifts
    relative to the least non-trivial one, which `_integrate` integrates
    for `S`, its gradient and its derivative in L, and `order_hessian` reads.
    """

    def __init__(self, model: SurfaceModel, L: DivisorClass, support: tuple):
        self.model, self.L, self.support = model, L, support
        self._vol = vol = model.volume(L)
        self.volume = float(vol)
        self._nontrivial = tuple([i for i, v in enumerate(support) if not v.is_trivial])
        self._trivial = tuple([i for i, v in enumerate(support) if v.is_trivial])
        self._free = self._trivial or tuple(range(len(support)))  # the gradient rule's candidates
        self._gammas = self._ints = None  # set on first use
        self._kept, self._projections = (), {}
        self.target, self._pull = model.resolve_realization(support)

    def pulled(self, classes) -> list:
        """The classes pulled back to the realization, one float tuple each."""
        return [tuple(map(float, self._pull(D.coefficients))) for D in classes]

    def ints(self):
        """((L, E_1, ...), q): L pulled back and the divisors of the
        non-trivial valuations as int tuples over one denominator q, built
        on first use."""
        if self._ints is None:
            reals = [self.support[i].order_model for i in self._nontrivial]
            (b,), qb = _integral((self.L.coefficients,))
            b, qb = _pulled(reals[0], b, qb) if reals else (b, qb)
            q = math.lcm(qb, *[r.ints[1] for r in reals])
            divs = [tuple([c * (q // qe) for c in e]) for (e,), qe in (r.ints for r in reals)]
            self._ints = (tuple([c * (q // qb) for c in b]), *divs), q
        return self._ints

    def thresholds(self) -> list:
        """The float thresholds gamma_i of the non-trivial valuations, computed
        once.  With one, its gamma walk, in the memo of L right after
        `gamma_threshold`, is put in front of the kept walks as that of the
        relative shifts (0,) (`records`): later, the class may have left the
        model's kept classes."""
        if self._gammas is None:
            model, L, live = self.model, self.L, [self.support[i] for i in self._nontrivial]
            self._gammas = [float(gamma_threshold(model, L, v)) for v in live]
            if len(live) == 1:
                self._kept = _recent(self._kept, (0.0,), 2, lambda: model._memo_of(L)["chambers", live[0]])
        return self._gammas

    def records(self, ts):
        """(t0, chambers, hi, rel) at the float shifts `ts`, t0 the least:
        the chambers of the range in lam - a up to hi = min(tau - a, gamma_i
        + t_i - a), a the least non-trivial shift and tau the least trivial
        one, and the relative shifts rel = t_i - a, which key the walk: 0.0
        for the least, floats where the difference is exact (math.fsum),
        else Fractions, which equal and hash as such a float would.  A new
        key is walked once, to the end of vol, whatever tau, and the last
        two walks asked are kept (`_recent`): `_integrate` and
        `order_hessian` clip them.
        With no non-trivial valuation, or tau <= a, the range is empty."""
        gammas = self._gammas if self._gammas is not None else self.thresholds()
        at = [ts[i] for i in self._nontrivial]
        a = min(at) if at else math.inf
        rel = [t - a for t in at]
        # a trivial valuation admits no section past its shift: hard cutoff
        tau = min([ts[i] for i in self._trivial]) if self._trivial else math.inf
        t0, hi = a if a <= tau else tau, min([tau - a, *map(add, gammas, rel)])
        if not hi > 0:
            return t0, [], hi, rel
        key = tuple(rel if len(rel) < 2 else [r if not r or not math.fsum((t, -a, -r))
                                              else Fraction(t) - Fraction(a) for t, r in zip(at, rel)])
        if not (kept := self._kept) or kept[0][0] != key:
            kept = self._kept = _recent(kept, key, 2, self.walk, at, a, math.inf)
        return t0, kept[0][1], hi, rel

    def expected_order(self, shifts):
        """(S, grad S) at these shifts, dS/dt_i = (2 / vol L) times the
        integral of P . E_i for a non-trivial v_i (`records`).  As S(t + c)
        = S(t) + c, the least-shifted trivial valuation, whose cap binds when
        the range is empty, or with none the least-shifted one, takes 1 minus
        the others; other trivial ones 0."""
        vol = self.volume
        if vol <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        ts = list(map(float, shifts))
        t0, chambers, hi, rel = self.records(ts)
        iv, _, ie = _integrate(chambers, hi, (), rel, self.ints)
        grad = [0.0] * len(ts)
        for i, x in zip(self._nontrivial, ie):
            grad[i] = 2.0 * x / vol
        free = self._free[0] if len(self._free) < 2 else min(self._free, key=ts.__getitem__)
        grad[free] = 0.0
        grad[free] = 1.0 - math.fsum(grad)
        return t0 + iv / vol, grad

    def order_hessian(self, shifts):
        """The Hessian of S at these shifts from the chambers of `records`.
        For non-trivial v_i != v_j it is (2 / vol L) times the integral of
        E_i . Pi_N E_j over the range where both are live, Pi_N the
        projection off the span of the chamber's support N (`_projection`),
        plus the motion of the end of the range: where vol reaches 0, (P .
        E_i)(P . E_j) / (P . E), E the sum of the live E_k; where the least
        trivial shift caps it, P . E_i pairs v_i with that trivial atom.  The
        diagonal makes each row sum to 0, as S(t + c) = S(t) + c.  The terms
        are exact int pairs (n, d) summed over their least common
        denominator, and each entry is rounded once, by one true division;
        an irrational root of vol ends the range at its float."""
        if self.volume <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        ts = list(map(float, shifts))
        chambers, live = self.records(ts)[1], self._nontrivial
        H = [[0.0] * len(ts) for _ in ts]
        if not chambers:  # the range is empty
            return H
        # records run in mu = D (lam - a), D a power of 2: the integrals are
        # summed in mu, so the terms at the end of the range enter D times,
        # and all are divided by D
        D, a = chambers[-1][-1][-1], min(map(ts.__getitem__, live))
        # (mu, k, i) for v_i, the k-th non-trivial atom, sorted by its
        # relative shift mu, an int as D is a multiple of its denominator;
        # the first `on` of them are live
        lows = sorted([(n // d, k, i) for k, i in enumerate(live) for n, d in [_difference(ts[i], a, D)]])
        tau = min(self._trivial, key=ts.__getitem__, default=None)
        cap = None if tau is None else _difference(ts[tau], a, D)
        # the terms (i, j, n, d) of the entries i < j: n / d, d != 0
        terms, on = [], 0
        for record in chambers:
            exact = record[-1]
            an, ad = exact[2]
            # every mu is an int pair (n, d), d > 0, compared by cross-multiplication
            if cap is not None and cap[0] * ad <= an * cap[1]:
                break
            x = exact[3]
            bn, bd = x.as_integer_ratio() if isinstance(x, float) else x
            if cap is not None and cap[0] * bd < bn * cap[1]:
                (bn, bd), x = cap, None
            while on < len(lows) and lows[on][0] * ad <= an:
                on += 1
            if on > 1:
                pi, sn, sd = self._projection(tuple([c[0] for c in record[-2]])), bn * ad - an * bd, bd * ad
                for (_, k, i), (_, l, j) in combinations(lows[:on], 2):
                    a, b = pi[k][l]
                    terms.append((i, j, sn * a, sd * b) if i < j else (j, i, sn * a, sd * b))
            last = record, bn, bd, x
        (_, _, _, _, _, Mp0, Mp1, den0, _, _, exact), bn, bd, x = last
        (_, *divs), q = self.ints()
        # P . E_i at mu = bn / bd over one denominator: M P = (Mp0 + mu Mp1) / den0
        den = den0 * q * bd
        pe = {i: _dot(Mp0, divs[k]) * bd + bn * _dot(Mp1, divs[k]) for _, k, i in lows[:on]}
        # x is None where the cap ends the range
        if x is not None and _vanishes(exact):
            fall = sum(pe.values())
            if fall:
                terms += [(i, j, D * pe[i] * pe[j], fall * den) for i, j in combinations(sorted(pe), 2)]
        elif x is None or cap is not None and bn * cap[1] == cap[0] * bd:
            terms += [(min(i, tau), max(i, tau), D * p, den) for i, p in pe.items()]
        # over one denominator, 2 / (D vol L) times each entry, and the
        # diagonal minus the sum of its row
        common, off, rows = math.lcm(*[d for *_, d in terms]), {}, [0] * len(ts)
        for i, j, n, d in terms:
            n *= common // d
            off[i, j] = off.get((i, j), 0) + n
            rows[i] += n
            rows[j] += n
        vn, vd = self._vol.as_integer_ratio()
        num, den = 2 * vd, D * vn * common
        for (i, j), n in off.items():
            H[i][j] = H[j][i] = num * n / den
        for i, n in enumerate(rows):
            if n:
                H[i][i] = -num * n / den
        return H

    def _projection(self, N):
        """E_i . Pi_N E_j, as int pairs (n, d), for the divisors E_i of the
        non-trivial valuations, Pi_N the projection off the span of the
        curves N (Bauer-Küronya-Szemberg): E_i . E_j - (C_N . E_i)^T G_N^-1
        (C_N . E_j), G_N their Gram matrix, exact from one
        `_solve_negative_definite` on the columns C_N . E_j, and kept per N."""
        hit = self._projections.get(N)
        if hit is None:
            lat, ((_, *divs), q) = self.target._exact, self.ints()
            columns = [[_dot(lat.duals[c], e) for c in N] for e in divs]
            g, xs = _solve_negative_definite([[lat.gram[i][j] for j in N] for i in N], columns) if N else (1, columns)
            den, images = g * lat.sigma * q * q, [_image(lat.matrix, e) for e in divs]
            hit = self._projections[N] = [
                [(g * _dot(ei, mej) - _dot(ci, xj), den) for mej, xj in zip(images, xs)]
                for ei, ci in zip(divs, columns)
            ]
        return hit

    def order_derivative(self, shifts, H):
        """d/ds S_{L+sH}(t) at s = 0: (2 / vol) (integral of P . H - (P_L . H /
        vol) integral of vol) over the range of the filtration (`records`);
        0 on an empty range, whatever L."""
        _, chambers, hi, _ = self.records(list(map(float, shifts)))
        if not chambers:
            return 0.0
        iv, (ih,), _ = _integrate(chambers, hi, self.pulled([H]), ())
        plh, vol = float(self.model.positive_product_against(self.L, H)), self.volume
        return (2.0 / vol) * (ih - (plh / vol) * iv)

    def walk(self, ts, lam0, lam1):
        """The chambers crossed on [lam0, lam1] by lam -> L - sum max(lam -
        t_i, 0) E_i, `ts` the shifts of the non-trivial valuations, as
        `_integrate` records (`_walk`) in lam - lam0.  Floats are binary
        rationals: over their common denominator D, the shifts and lam1 are
        ints mu = D (lam - lam0), and the class is (b + mu d) / (q D) for int
        tuples b, d, which E_i joins at its mu.  lam1 caps the walk unless it
        is inf, as only `twist_integrals` asks; `records` walks to the end."""
        (base, *divs), q = self.ints()
        if lam1 <= lam0:
            return []
        capped = lam1 < math.inf
        ratios = [x.as_integer_ratio() for x in [lam0, *ts] + [lam1] * capped]
        D = math.lcm(*[r for _, r in ratios])
        m0, *ms = [n * (D // r) for n, r in ratios]
        m1 = ms.pop() - m0 if capped else math.inf
        events = sorted([(m - m0, e) for m, e in zip(ms, divs) if m - m0 < m1]) + [(m1, None)] * capped
        return _walk(self.target, tuple([D * c for c in base]), (0,) * len(base), q * D, (0, 1), events, D)[0]


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


def _vanishes(exact) -> bool:
    """Whether vol is 0 at the end of a chamber, from the exact part of its
    record (`_walk`): an irrational root, or an int pair where it is 0."""
    (k0, k1, k2), _, _, x, _ = exact
    return isinstance(x, float) or k0 * x[1] * x[1] + x[0] * (k1 * x[1] + k2 * x[0]) == 0


def _difference(x, y, D):
    """D (x - y), exact for floats x, y, as an int pair (n, d), d > 0."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    return D * (xn * yd - yn * xd), xd * yd


def _pulled(real, b, q):
    """The int tuple b over q of a base class pulled back by the realization
    `real` (`pull_ints`), over its least denominator: the ints `_integral`
    gives of the pulled Fractions."""
    if real.pull_ints is None:
        return b, q
    rows, p = real.pull_ints
    ints = [_dot(row, b) for row in rows]
    g = math.gcd(p * q, *ints)
    return tuple([c // g for c in ints]), p * q // g


def _reduced(memo, D):
    """D's record in `memo`, its memo: (`_integral` of D, `_decomposition`'s result or None)."""
    if "zariski" not in memo:
        memo["zariski"] = _integral((D.coefficients,)), None
    return memo["zariski"]


def _shown(D) -> str:
    """The coefficients of D as a list of rationals, for messages."""
    return f"[{', '.join(map(str, D.coefficients))}]"


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
    None unless the int matrix gram is negative definite: `_eliminate` on
    [gram | I] exchanges no row and its k-th pivot, the leading minor of
    order k, has the sign (-1)^k.  Its right block ends as det(gram)
    gram^-1, so (-1)^n times it is g gram^-1 for g = |det gram|, in ints; x
    keeps the type of c."""
    n = len(gram)
    m = [list(row) + [int(r == i) for r in range(n)] for i, row in enumerate(gram)]
    # a singular gram has no pivots; else those of even order must be > 0, of odd order < 0
    pivots, exchanges = _eliminate(m) or ([0], 0)
    if exchanges or min(pivots[::2]) <= 0 or max(pivots[1::2], default=-1) >= 0:
        return None
    sign = (-1) ** n
    ginv = [[sign * y for y in r[n:]] for r in m]
    return sign * pivots[-1], [[_dot(row, c) for row in ginv] for c in columns]


def _first_root(q0, q1, q2, unit, x, wall):
    """Least root in (x, wall] of (q0 + q1 lam + q2 lam^2) / unit, ints q, unit > 0,
    given q(x) > 0, for int pairs x = (n, d) and wall (None: no wall), each
    n / d with d > 0: an int pair if the discriminant is a square, else a float."""
    # the root is at most the wall if q(wall) <= 0 or a convex vertex is,
    # and q must fall from x to it: not rising, not past a convex vertex
    if wall is not None:
        wn, wd = wall
        if q0 * wd * wd + wn * (q1 * wd + wn * q2) > 0 and not (q2 > 0 and -q1 * wd <= 2 * q2 * wn):
            return None
    xn, xd = x
    if (q2 == 0 and q1 >= 0) or (q2 > 0 and -q1 * xd <= 2 * q2 * xn) or (disc := q1 * q1 - 4 * q2 * q0) < 0:
        return None
    if q2 == 0:
        return q0, -q1
    s = math.isqrt(disc)
    if s * s == disc:
        return (-q1 - s, 2 * q2) if q2 > 0 else (q1 + s, -2 * q2)
    # in floats from q / unit, each rounded once, in the form without cancellation
    s = math.sqrt(disc / (unit * unit))
    return (-q1 / unit - s) / (2 * q2 / unit) if q1 > 0 else 2 * q0 / unit / (-q1 / unit + s)


def _walk(target, b, d, q, x, events=(), D=1):
    """(records, end): the chambers of (b + mu d) / q on `target` from the int
    pair mu = x on, one `_integrate` record each in lam = mu / D, the last
    end an int pair but for an irrational root (None: a chamber with
    neither wall nor root).  At each sorted event (m, e) the int tuple e
    joins the path at mu = m (b += m e, d -= e); e None, last, caps it.  A
    chamber (`SurfaceModel._step`) ends at the least of its wall, the next
    event and the first root of vol (`_first_root`), and its record ends
    with its support N, `_chamber`'s, and the exact ((k0, k1, k2), unit,
    start, end, D) of vol = (k0 + k1 mu + k2 mu^2) / unit on it.  The walk
    stops at a root, at the cap, or where the class is not psef: the path
    only subtracts effective divisors, so vol stays 0 past its first root,
    and no record holds a negative vol."""
    lat, chambers, k, n, end = target._exact, [], 0, len(events), x[0] / (x[1] * D)
    while True:
        while k < n and events[k][0] * x[1] <= x[0]:
            m, e = events[k]
            if e is None:
                return chambers, x
            b, d, k = tuple([u + m * w for u, w in zip(b, e)]), tuple(map(sub, d, e)), k + 1
        if (step := target._step(lat, b, d, q, x)) is None:
            return chambers, x
        p0, p1, Mp0, Mp1, scale, wall, support = step
        if k < n and (wall is None or events[k][0] * wall[1] <= wall[0]):
            wall = events[k][0], 1
        # P = (p0 + mu p1) / scale, mu = D lam: D divides scale, so s1 = scale / D is an int
        k0, k1, k2 = coeffs = sum(map(mul, p0, Mp0)), 2 * sum(map(mul, p0, Mp1)), sum(map(mul, p1, Mp1))
        den, s1 = scale * lat.sigma, scale // D
        unit, den1 = scale * den, s1 * lat.sigma
        root = _first_root(k0, k1, k2, unit, x, wall)
        if root is None and wall is None:
            return chambers, None
        start, x, lo = x, wall if root is None else root, end
        end = x / D if isinstance(x, float) else x[0] / (x[1] * D)
        chambers.append((lo, end, k0 / unit, k1 / (scale * den1), k2 / (s1 * den1),
                         Mp0, Mp1, den, den1, support, (coeffs, unit, start, x, D)))
        if root is not None:
            return chambers, x


def _integrate(chambers, hi, rows, ts, ints=None):
    """(integral of vol, integrals of P . h for h in `rows`, integrals of P .
    E_i from ts[i] on) over the chamber records (start, end, c0, c1, c2, Mp0,
    Mp1, den0, den1, N, exact) up to hi: vol = c0 + c1 x + c2 x^2 and M P = Mp0
    / den0 + x Mp1 / den1 on [start, end].  -d vol / dx = 2 P . E, E the sum
    of the live E_i, and vol is flat before the least shift: the first
    least-shifted E_i takes half the fall of vol less the others (a lone one
    all of it, with no list of others), which pair with M P where live: M P
    is integrated for `rows` or where two or more E_i are live, and only
    then is `ints` (`_SurfaceProblem.ints`) asked for the E_i as int tuples
    over q (no ts: no E_i)."""
    total_v = rise = 0.0
    total_h, total_e = [0.0] * len(rows), [0.0] * len(ts)
    first = ts.index(min(ts)) if len(ts) > 1 else 0
    others = [(i, t) for i, t in enumerate(ts) if i != first] if len(ts) > 1 else ()
    (_, *divs), q = ints() if others else ((None,), 1)
    for start, end, c0, c1, c2, Mp0, Mp1, den0, den1, _, _ in chambers:
        if hi <= start:
            break
        x = hi if hi < end else end
        span, half = x - start, (x * x - start * start) / 2.0
        total_v += c0 * span + c1 * half + c2 * (x**3 - start**3) / 3.0
        rise += c1 * span / 2 + c2 * half
        live = others and [i for i, t in others if t <= start]
        if rows or live:
            # the integral of M P over the chamber, in floats
            r = [a / den0 * span + b / den1 * half for a, b in zip(Mp0, Mp1)]
            for j, h in enumerate(rows):
                total_h[j] += sum(map(mul, h, r))
            for i in live:
                total_e[i] += (pe := sum(map(mul, divs[i], r)) / q)
                rise += pe
    if ts:
        total_e[first] -= rise
    return total_v, total_h, total_e


def zariski(model: SurfaceModel, D: DivisorClass) -> ZariskiDecomposition:
    return model.zariski(D)
