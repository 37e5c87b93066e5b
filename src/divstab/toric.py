"""Smooth projective toric backend: rational section polytopes + monomial valuations.

Divisor classes are ray-coefficient vectors a_rho; the section polytope is
P_D = {m : <m, v_rho> >= -a_rho}.  Volumes are n! times the Euclidean volume
of P_D.  One kernel, `ToricModel._polytope`, finds the vertices of P_D, one
fraction-free solve each, or those of a cell cut from P_L, seeded by the
vertices of P_L, as int points over one denominator and triangulates it, all
in ints; volumes, thresholds and S derive from it, one Fraction per result.
Valuations are monomial: primitive lattice vectors w, whose order function is
linear on the monomial basis, anchored so that min over P_L is order 0; their
orders at level k are kept with the lattice points of k P_L.  The Hessian of
S in the shifts is that of semi-discrete optimal transport (Kitagawa-
Merigot-Thibert): the flux between two cells, the (n-1)-volume of the facet
they share over |w_i - w_j|, is rational, read from the triangulation of the
cell in the same kernel, and formed only when the Hessian is asked for.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Sequence

import numpy as np

from .core import (
    DivisorClass,
    GeometryError,
    GeometryModel,
    Valuation,
    _dot,
    _solve,
    as_fraction,
)

# the most rows `_box_points` builds for one level k, in the prefixes of the
# bounding box of k P_L and in its lattice points; a larger k is rejected
MAX_LEVEL_POINTS = 10**6


def _lattice_vector(xs, what: str) -> tuple[int, ...]:
    """xs as ints, numpy ints too; a float, str or bool entry is a GeometryError."""
    try:
        if not any(isinstance(x, bool) for x in xs):
            return tuple(map(operator.index, xs))
    except TypeError:
        pass
    raise GeometryError(f"{what} {xs!r} is not an integer vector")


class ToricModel(GeometryModel):
    """A smooth complete fan declared by its rays; divisors by ray coefficients."""

    def __init__(self, name: str, rays: Sequence[Sequence[int]]):
        super().__init__()
        self.name = name
        self.rays = tuple(_lattice_vector(r, "ray") for r in rays)
        if not self.rays:
            raise GeometryError("a toric model needs at least one ray")
        self.dimension = len(self.rays[0])
        for r in self.rays:
            if len(r) != self.dimension:
                raise GeometryError("rays of mixed dimension")
            if math.gcd(*(abs(x) for x in r)) != 1:
                raise GeometryError(f"ray {r} is not primitive")
        self.class_rank = len(self.rays)
        self._check_complete()
        # -K has coefficient 1 on every ray
        self.canonical_class = self.divisor([-1] * self.class_rank)

    def _check_complete(self):
        """Section polytopes are bounded iff the rays positively span the
        lattice, that is iff the cone {u : <u, rho> >= 0 for every ray} is
        {0}: cut by the box -1 <= u_i <= 1, its only vertex is then 0."""
        n = self.dimension
        box = [(tuple(sign * (i == j) for j in range(n)), -1) for i in range(n) for sign in (1, -1)]
        if self._polytope([(ray, 0) for ray in self.rays] + box)[0] != [(0,) * n]:
            raise GeometryError(
                "rays do not positively span the lattice; section polytopes unbounded"
            )

    # -- valuations ---------------------------------------------------------

    def monomial_valuation(self, name: str, w: Sequence[int]) -> Valuation:
        w = _lattice_vector(w, "valuation vector")
        return self.add_valuation(Valuation(name, self.log_discrepancy(w), order_model=w))

    def _maximal_cones(self) -> list[tuple[tuple[int, ...], ...]]:
        """The maximal cones as ray tuples: angularly adjacent pairs in 2-d,
        every n-subset of n + 1 rays; no other fan is fixed by its rays."""
        if self.dimension == 2:
            ordered = _order_polygon(self.rays)
            return list(zip(ordered, ordered[1:] + ordered[:1]))
        if len(self.rays) != self.dimension + 1:
            raise GeometryError(f"the cones of {self.name!r} are not determined by its rays")
        return list(itertools.combinations(self.rays, self.dimension))

    def log_discrepancy(self, w: Sequence[int]) -> Fraction:
        """Sum of the coordinates of w != 0 in the smooth cone of the fan holding it."""
        w = _lattice_vector(w, "valuation vector")
        if len(w) != self.dimension or not any(w):
            raise GeometryError(f"valuation vector {w} is not a nonzero vector of length {self.dimension}")
        for cone in self._maximal_cones():
            # the coordinates c of w = sum c_j ray_j, over d = +-det = +-1
            d, y = _solve(list(zip(*cone)), w)
            if abs(d) == 1 and all(d * c >= 0 for c in y):
                return Fraction(d * sum(y))
        raise GeometryError(f"vector {w} lies in no declared smooth cone")

    # -- polytope machinery -------------------------------------------------

    def _halfspaces(self, D: DivisorClass):
        """Constraints <m, normal> >= rhs for the section polytope of D."""
        self._check_basis(D)
        return [(ray, -a) for ray, a in zip(self.rays, D.coefficients)]

    def _polytope(self, halfspaces, seeds=None, facets=None):
        """(points, common, mass, first moment) of {m : <m, normal> >= rhs},
        for integer normals and rational rhs, in Python ints.

        The rhs are scaled to one denominator; each n-subset of halfspaces is
        solved by one `_solve`, the point kept in lowest homogeneous form
        (y, q) with m = y / q if it is feasible, with its tight constraints.
        `seeds`, the (points, common) of the polytope P of the first len(rays)
        halfspaces, replace their subsets, whose feasible points are P's vertices.
        The polytope is triangulated by coning each face from its first
        vertex over its facets, the maximal proper sets of face vertices
        tight at one constraint; simplices of fewer than n + 1 points (a flat
        polytope) are dropped.  The vertices are the int tuples `points` over
        one denominator `common`, in the order they are found.
        With `facets`, halfspace indices, a fifth entry holds the flux
        through each: the (n-1)-volume of the facet tight at it over the
        length of its normal a, the sum of |det(edges, a)| / ((n - 1)! |a|^2)
        over the simplices of the facet's triangulation.
        """
        n = self.dimension
        den = math.lcm(*(r.denominator for _, r in halfspaces))
        normals = [a for a, _ in halfspaces]
        rhs = [r.numerator * (den // r.denominator) for _, r in halfspaces]
        pairs, fixed = ([], -1) if seeds is None else ([(p, seeds[1]) for p in seeds[0]], len(self.rays))
        for subset in itertools.combinations(range(len(normals)), n):
            if subset[-1] >= fixed:
                d, y = _solve([normals[i] for i in subset], [rhs[i] for i in subset])
                if d:
                    pairs.append((y, d * den))
        tight = {}
        for y, q in pairs:
            g = math.gcd(q, *y) * (1 if q > 0 else -1)
            key = tuple(x // g for x in y), q // g
            if key not in tight:
                y, q = key
                slack = [den * _dot(a, y) - r * q for a, r in zip(normals, rhs)]
                feasible = min(slack) >= 0
                tight[key] = frozenset(i for i, s in enumerate(slack) if s == 0) if feasible else None
        verts = [key for key, t in tight.items() if t is not None]
        common = math.lcm(*(q for _, q in verts))
        points = [tuple(x * (common // q) for x in y) for y, q in verts]
        faces = {}

        def simplices(face):
            if len(face) == 1:
                return [face]
            if face not in faces:
                by_constraint = {}
                for v in face:
                    for i in tight[verts[v]]:
                        by_constraint.setdefault(i, []).append(v)
                facets = []
                for f in sorted({tuple(f) for f in by_constraint.values() if len(f) < len(face)},
                                key=len, reverse=True):
                    if not any(set(f) <= set(g) for g in facets):
                        facets.append(f)
                faces[face] = [(face[0],) + s for f in facets if face[0] not in f for s in simplices(f)]
            return faces[face]

        # points are ints over `common`: a simplex has volume |d| / (common^n n!)
        # and centroid the mean of its n + 1 points; divide once at the end
        mass, moment = 0, [0] * n
        for s in simplices(tuple(range(len(verts)))):
            if len(s) == n + 1:
                p0 = points[s[0]]
                d = abs(_solve([[a - b for a, b in zip(points[i], p0)] for i in s[1:]], [0] * n)[0])
                mass += d
                for r in range(n):
                    moment[r] += d * sum(points[i][r] for i in s)
        scale = common**n * math.factorial(n)
        found = points, common, Fraction(mass, scale), tuple(Fraction(m, scale * common * (n + 1)) for m in moment)
        if facets is None:
            return found
        fluxes = []
        for k in facets:
            a, flux = normals[k], 0
            for s in simplices(tuple(v for v, key in enumerate(verts) if k in tight[key])):
                if len(s) == n:
                    p0 = points[s[0]]
                    flux += abs(_solve([[x - y for x, y in zip(points[i], p0)] for i in s[1:]] + [a], [0] * n)[0])
            fluxes.append(Fraction(flux, common ** (n - 1) * math.factorial(n - 1) * _dot(a, a)))
        return (*found, fluxes)

    def polytope_vertices(self, D: DivisorClass) -> list[tuple[Fraction, ...]]:
        points, common = self._section_polytope(D)[:2]
        return sorted(tuple(Fraction(x, common) for x in p) for p in points)

    def _section_polytope(self, L: DivisorClass):
        """`_polytope` of P_L, kept in the memo of L."""
        memo = self._memo_of(L)
        hit = memo.get("polytope")
        if hit is None:
            hit = memo["polytope"] = self._polytope(self._halfspaces(L))
        return hit

    def _cell(self, L: DivisorClass, cuts, facets=None):
        """`_polytope` of P_L cut by `cuts`, seeded with the vertices of P_L;
        with `facets`, indices into `cuts`, the fluxes through them too."""
        return self._polytope(self._halfspaces(L) + cuts, self._section_polytope(L)[:2],
                              None if facets is None else [len(self.rays) + k for k in facets])

    # -- GeometryModel contract --------------------------------------------

    def volume(self, D: DivisorClass) -> Fraction:
        return math.factorial(self.dimension) * self._section_polytope(D)[2]

    def order_anchor(self, L: DivisorClass, w: Sequence[int]) -> Fraction:
        """min over P_L of <., w>; vanishing orders along w are measured from it."""
        memo = self._memo_of(L)
        hit = memo.get(("anchor", tuple(w)))
        if hit is None:
            points, common = self._section_polytope(L)[:2]
            if not points:
                raise GeometryError("empty section polytope has no order anchor")
            memo["anchor", tuple(w)] = hit = Fraction(min(_dot(w, p) for p in points), common)
        return hit

    def constrained_volume(self, L: DivisorClass, constraints) -> Fraction:
        """n! vol of P_L cut by <m, w_i> - min_{P_L}<., w_i> >= c_i."""
        cuts = []
        for w, c in constraints:
            w = _lattice_vector(w, "valuation vector")
            cuts.append((w, self.order_anchor(L, w) + as_fraction(c)))
        return math.factorial(self.dimension) * self._cell(L, cuts)[2]

    def _valuation_vector(self, v: Valuation) -> tuple[int, ...]:
        w = v.order_model
        if not (isinstance(w, tuple) and all(isinstance(x, int) for x in w)):
            raise GeometryError(f"valuation {v.name!r} is not a monomial valuation")
        return w

    def twisted_volume(self, L: DivisorClass, constraints) -> Fraction:
        cuts = []
        for v, c in constraints:
            if v.is_trivial:
                raise GeometryError("trivial valuation cannot twist a class")
            cuts.append((self._valuation_vector(v), c))
        return self.constrained_volume(L, cuts)

    def twist_evaluator(self, L, valuations) -> Callable[[Sequence[float]], float]:
        vecs = [
            None if v.is_trivial else self._valuation_vector(v) for v in valuations
        ]

        def evaluate(cs: Sequence[float]) -> float:
            cuts = [
                (w, c) for w, c in zip(vecs, cs) if w is not None and c > 0
            ]
            return float(self.constrained_volume(L, cuts))

        return evaluate

    def expected_order(self, L: DivisorClass, support, shifts) -> tuple[Fraction, list[Fraction]]:
        """Exact S of L along shifted monomial valuations, one per vector w,
        the mean over P_L of min_i f_i, f_i = <., w_i> - min_{P_L}<., w_i> +
        t_i (w = 0 for a trivial valuation), and dS/dt_i, the share of P_L in
        the cell of i.

        The first piece integrates over all of P_L; every other piece i adds
        the integral of f_i - f_1 over its cell, where f_i is least, and the
        first cell is what they leave.  Each integral is exact from a (mass,
        first moment) pair.
        """
        pieces = self._pieces(L, support, shifts)
        mass, moment = self._section_polytope(L)[2:4]
        (w1, c1), *rest = pieces
        total = _dot(w1, moment) + c1 * mass
        grad = [Fraction(int(i == 0)) for i in range(len(support))]
        for i, (wi, ci) in enumerate(rest, 1):
            cell_mass, cell_moment = self._cell(L, _cuts(pieces, i))[2:4]
            diff = [a - b for a, b in zip(wi, w1)]
            total += _dot(diff, cell_moment) + (ci - c1) * cell_mass
            grad[i] = cell_mass / mass
            grad[0] -= grad[i]
        return total / mass, grad

    def order_hessian(self, L: DivisorClass, support, shifts) -> list:
        """The exact Hessian of S in the shifts: for i != j, the flux between
        cells i and j, the (n-1)-volume of the facet they share over |w_i -
        w_j| (Kitagawa-Merigot-Thibert), over the Euclidean volume of P_L;
        each row sums to 0.  Cell i gives the facets it shares with the
        cells before it, as `_polytope`'s fluxes through its cuts, formed
        here only: each cell is cut again."""
        pieces = self._pieces(L, support, shifts)
        mass = self._section_polytope(L)[2]
        H = [[Fraction(0)] * len(pieces) for _ in pieces]
        for i in range(1, len(pieces)):
            # the cut of piece j < i is the j-th of `_cuts`
            for j, flux in enumerate(self._cell(L, _cuts(pieces, i), range(i))[4]):
                H[i][j] = H[j][i] = flux / mass
        for i, row in enumerate(H):
            row[i] = -sum(row)
        return [[float(h) for h in row] for row in H]

    def _pieces(self, L, support, shifts):
        """(w, c) per atom: f = <., w> + c is its order function at its
        shift, w = 0 for a trivial valuation.  L must be big."""
        if self._section_polytope(L)[2] <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        pieces = []
        for v, t in zip(support, shifts):
            if v.is_trivial:
                pieces.append(((0,) * self.dimension, Fraction(t)))
            else:
                w = self._valuation_vector(v)
                pieces.append((w, Fraction(t) - self.order_anchor(L, w)))
        return pieces

    def order_derivative(self, L: DivisorClass, support, shifts, H: DivisorClass) -> float:
        """d/ds S_{L+sH}(t) at s = 0: Richardson-extrapolated central
        differences of S, each rounded to float, at steps 1/1000 and 1/2000."""
        def diff(eps: Fraction) -> float:
            up, dn = (float(self.expected_order(L + e * H, support, shifts)[0]) for e in (eps, -eps))
            return (up - dn) / (2.0 * float(eps))

        d1, d2 = diff(Fraction(1, 1000)), diff(Fraction(1, 2000))
        return (4.0 * d2 - d1) / 3.0

    # -- section rings ------------------------------------------------------

    def section_basis(self, L: DivisorClass, k: int) -> list[tuple[int, ...]]:
        """Lattice points of k P_L, the monomial basis of the degree-k sections,
        in `itertools.product` order over the bounding box."""
        return list(zip(*self.lattice_points(L, k).T.tolist()))

    def lattice_points(self, L: DivisorClass, k: int) -> np.ndarray:
        """`section_basis(L, k)` as one read-only int64 array, kept in the memo
        of L for the last level k with the orders read on it (`_level_orders`)."""
        _check_level(k)
        memo = self._memo_of(L)
        if memo.get("points", (None,))[0] != k:
            memo["points"] = k, self._box_points(L, k), {}
            memo["points"][1].flags.writeable = False
        return memo["points"][1]

    def _level_orders(self, L: DivisorClass, k: int, v: Valuation) -> np.ndarray:
        """`monomial_orders` along v of `lattice_points(L, k)`, read once per
        valuation vector (None if trivial) and kept read-only with that basis."""
        basis, w = self.lattice_points(L, k), None if v.is_trivial else self._valuation_vector(v)
        orders = self._memo_of(L)["points"][2]
        if w not in orders:
            orders[w] = self.monomial_orders(L, k, v, basis)
            orders[w].flags.writeable = False
        return orders[w]

    def _box_points(self, L: DivisorClass, k: int) -> np.ndarray:
        """The lattice points of k P_L, scanned over its bounding box, which
        comes in ints from the vertex points over their denominator."""
        points, common = self._section_polytope(L)[:2]
        if not points:
            return np.empty((0, self.dimension), dtype=np.int64)
        coeffs = [k * a for a in L.coefficients]
        if any(c.denominator != 1 for c in coeffs):
            raise GeometryError(f"{k} L is not an integral class")
        # ceil(k min), floor(k max): hi >= lo - 1, so an axis with no integer scans nothing
        lo = [-(-k * min(x) // common) for x in zip(*points)]
        hi = [k * max(x) // common for x in zip(*points)]
        # every prefix m[:-1] of the box, in product order; <m, ray> >= -a
        # solved for m[-1] turns each ray into a bound c m[-1] >= need
        shape = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
        if math.prod(shape) > MAX_LEVEL_POINTS:
            raise GeometryError(f"level k = {k} scans {math.prod(shape)} box prefixes, over {MAX_LEVEL_POINTS}")
        # int64 must hold the prefixes, k a and the ray products m[:-1] . ray[:-1] (up to 2**62), and need (linear in
        # m, so extreme at the box corners) and the last axis (below 2**62); a box far below 2**61 skips the corners
        if max(map(abs, (*lo, *hi, *(c.numerator for c in coeffs)))) * max(sum(map(abs, r)) for r in self.rays) >= 2**61:
            prods = [[x * y for x, y in zip(m, r)] for m in itertools.product(*zip(lo[:-1], hi[:-1])) for r in self.rays]
            sizes = [*lo[:-1], *hi[:-1], *coeffs, *(sum(map(abs, t)) for t in prods)]
            needs = [lo[-1], hi[-1], *(c + sum(t) for t, c in zip(prods, itertools.cycle(coeffs)))]
            if max(map(abs, sizes)) > 2**62 or max(map(abs, needs)) >= 2**62:
                raise GeometryError(f"level k = {k} puts the box of k P_L past int64")
        prefix = np.indices(shape, dtype=np.int64).reshape(len(shape), math.prod(shape)).T
        prefix += np.array(lo[:-1], dtype=np.int64)
        rays = np.array(self.rays, dtype=np.int64)
        bound = np.array([-int(c) for c in coeffs], dtype=np.int64)
        need = bound - prefix @ rays[:, :-1].T
        c = rays[:, -1]
        up, down = c > 0, c < 0
        first = (-(-need[:, up] // c[up])).max(axis=1, initial=lo[-1])
        last = (need[:, down] // c[down]).min(axis=1, initial=hi[-1])
        last[(need[:, c == 0] > 0).any(axis=1)] = lo[-1] - 1
        counts = np.maximum(last - first + 1, 0)
        # each count first: the prefixes are at most MAX_LEVEL_POINTS, so the sum then fits int64
        if counts.max(initial=0) > MAX_LEVEL_POINTS or counts.sum() > MAX_LEVEL_POINTS:
            raise GeometryError(f"level k = {k} has over {MAX_LEVEL_POINTS} lattice points")
        # prefix i repeated counts[i] times, with m[-1] running first..last
        starts = np.repeat(first - np.cumsum(counts) + counts, counts)
        tail = starts + np.arange(counts.sum(), dtype=np.int64)
        return np.column_stack((np.repeat(prefix, counts, axis=0), tail))

    def _monomials(self, k: int, basis) -> np.ndarray:
        """`basis` as an integer array whose rows are monomials at level k."""
        _check_level(k)
        basis = np.asarray(basis)
        if basis.dtype.kind not in "iu":
            raise GeometryError("monomials must be integer lattice points")
        if basis.ndim != 2 or basis.shape[1] != self.dimension:
            raise GeometryError(f"monomials must be rows of length {self.dimension}")
        return basis

    def _order_numerators(self, L: DivisorClass, k: int, w, basis):
        """(n, q) with n / q the exact orders along w of the rows of `basis` at
        level k: <m, w> - k min_{P_L}<., w> over the common denominator q of
        the anchor.  n is int64 while every |n| and q stay below 2^53, so a
        float division of n by q is correctly rounded; Python ints otherwise.
        """
        basis = self._monomials(k, basis)
        p, q = (k * self.order_anchor(L, w)).as_integer_ratio()
        dots = basis.astype(np.int64, copy=False) @ np.array(w, dtype=np.int64)
        top = int(np.abs(dots).max(initial=0)) * q + abs(p)
        if max(top, q) >= 2**53:
            dots = dots.astype(object)
        return dots * q - p, q

    def monomial_orders(self, L: DivisorClass, k: int, v: Valuation, basis) -> np.ndarray:
        """Vanishing orders along v of the monomial sections in the rows of the
        integer array `basis` at level k, as floats equal to float(Fraction)."""
        if v.is_trivial:
            return np.zeros(len(self._monomials(k, basis)))
        n, q = self._order_numerators(L, k, self._valuation_vector(v), basis)
        return np.asarray(n / q, dtype=float)

    def monomial_order(self, L: DivisorClass, k: int, v: Valuation, m: Sequence[int]) -> Fraction:
        """Vanishing order along v of the monomial section m at level k."""
        if v.is_trivial:
            self._monomials(k, [m])
            return Fraction(0)
        n, q = self._order_numerators(L, k, self._valuation_vector(v), [m])
        return Fraction(int(n[0]), q)

    def closed_form_threshold(self, L: DivisorClass, v: Valuation) -> Fraction:
        """max - min of <., w> over the vertices of P_L, in ints over their
        denominator: past it the cut <m, w> - min >= g leaves no interior."""
        w = self._valuation_vector(v)
        anchor = self.order_anchor(L, w)  # first: it rejects an empty P_L
        points, common = self._section_polytope(L)[:2]
        return Fraction(max(_dot(w, p) for p in points), common) - anchor


def _cuts(pieces, i):
    """The cell of piece i: f_j - f_i >= 0 for every other piece j, in order."""
    wi, ci = pieces[i]
    return [(tuple(a - b for a, b in zip(wj, wi)), ci - cj) for j, (wj, cj) in enumerate(pieces) if j != i]


def _check_level(k):
    """Levels are positive ints, numpy integers included, not booleans."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
        raise GeometryError("level k must be a positive integer")


def _order_polygon(vectors):
    """Counterclockwise ordering of 2-d vectors by exact angular comparison
    about the origin."""

    def half(p):
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = p[0] * q[1] - q[0] * p[1]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(vectors, key=cmp_to_key(compare))

