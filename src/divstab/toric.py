"""Smooth projective toric backend: rational section polytopes + monomial valuations.

Divisor classes are ray-coefficient vectors a_rho; the section polytope is
P_D = {m : <m, v_rho> >= -a_rho}.  Volumes are n! times the Euclidean volume
of P_D, computed by exact vertex enumeration and triangulation.  Valuations
are monomial: primitive lattice vectors w, whose order function is linear on
the monomial basis, anchored so that min over P_L is order 0.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog

from .core import (
    DivisorClass,
    GeometryError,
    GeometryModel,
    Valuation,
    as_fraction,
    det_exact,
    solve_exact,
)


class ToricModel(GeometryModel):
    """A smooth complete fan declared by its rays; divisors by ray coefficients."""

    def __init__(self, name: str, rays: Sequence[Sequence[int]]):
        super().__init__()
        self.name = name
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
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
        self._vertex_cache: dict[tuple, tuple] = {}
        self._anchor_cache: dict[tuple, Fraction] = {}
        self._moment_cache: dict[tuple, tuple] = {}

    def _check_complete(self):
        """Section polytopes are bounded iff the rays positively span the lattice."""
        A_ub = -np.array(self.rays, dtype=float)
        b_ub = np.zeros(len(self.rays))
        for i in range(self.dimension):
            for sign in (1.0, -1.0):
                c = np.zeros(self.dimension)
                c[i] = -sign
                res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None))
                if res.status == 3:
                    raise GeometryError(
                        "rays do not positively span the lattice; section polytopes unbounded"
                    )

    # -- valuations ---------------------------------------------------------

    def monomial_valuation(self, name: str, w: Sequence[int]) -> Valuation:
        w = tuple(int(x) for x in w)
        return self.add_valuation(Valuation(name, self.log_discrepancy(w), order_model=w))

    def _maximal_cones(self) -> list[tuple[tuple[int, ...], ...]]:
        """The maximal cones as ray tuples: angularly adjacent pairs in 2-d,
        every n-subset of n + 1 rays; no other fan is fixed by its rays."""
        if self.dimension == 2:
            ordered = _order_polygon(self.rays, center=(0, 0))
            return list(zip(ordered, ordered[1:] + ordered[:1]))
        if len(self.rays) != self.dimension + 1:
            raise GeometryError(f"the cones of {self.name!r} are not determined by its rays")
        return list(itertools.combinations(self.rays, self.dimension))

    def log_discrepancy(self, w: Sequence[int]) -> Fraction:
        """Sum of the coordinates of w in the smooth cone of the fan holding it."""
        w = tuple(int(x) for x in w)
        for cone in self._maximal_cones():
            mat = [[Fraction(ray[r]) for ray in cone] for r in range(self.dimension)]
            if abs(det_exact(mat)) != 1:
                continue
            sol = solve_exact(mat, [Fraction(x) for x in w])
            if sol is not None and all(c >= 0 for c in sol):
                return sum(sol, Fraction(0))
        raise GeometryError(f"vector {w} lies in no declared smooth cone")

    # -- polytope machinery -------------------------------------------------

    def _halfspaces(self, D: DivisorClass):
        """Constraints <m, normal> >= rhs for the section polytope of D."""
        self._check_basis(D)
        return [
            ([Fraction(x) for x in ray], -a)
            for ray, a in zip(self.rays, D.coefficients)
        ]

    def _vertices(self, halfspaces) -> list[tuple[Fraction, ...]]:
        n = self.dimension
        verts: set[tuple[Fraction, ...]] = set()
        for subset in itertools.combinations(range(len(halfspaces)), n):
            mat = [halfspaces[i][0] for i in subset]
            rhs = [halfspaces[i][1] for i in subset]
            pt = solve_exact(mat, rhs)
            if pt is None:
                continue
            if all(
                sum(a * x for a, x in zip(normal, pt)) >= r
                for normal, r in halfspaces
            ):
                verts.add(tuple(pt))
        return sorted(verts)

    def polytope_vertices(self, D: DivisorClass) -> list[tuple[Fraction, ...]]:
        key = D.coefficients
        hit = self._vertex_cache.get(key)
        if hit is None:
            hit = tuple(self._vertices(self._halfspaces(D)))
            self._vertex_cache[key] = hit
        return list(hit)

    def _mass_moment(self, verts) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Euclidean volume and first moment (integral of m) of the convex hull
        of `verts`, summed exactly over a triangulation: the fan from one
        vertex of the ordered polygon in 2-d, Delaunay in higher dimension."""
        n = self.dimension
        simplices = []
        if len(verts) <= n:
            pass  # too few vertices for an n-simplex: no volume
        elif n == 1:
            simplices = [(min(verts), max(verts))]
        elif n == 2:
            ordered = _order_polygon(verts)
            simplices = [(ordered[0], p, q) for p, q in zip(ordered[1:], ordered[2:])]
        else:
            pts = np.array([[float(x) for x in v] for v in verts])
            if np.linalg.matrix_rank(pts - pts[0], tol=1e-9) == n:
                from scipy.spatial import Delaunay

                simplices = [[verts[i] for i in s] for s in Delaunay(pts).simplices]
        mass, moment = Fraction(0), [Fraction(0)] * n
        fact = math.factorial(n)
        for simplex in simplices:
            p0 = simplex[0]
            mat = [[p[r] - p0[r] for r in range(n)] for p in simplex[1:]]
            vol = abs(det_exact(mat)) / fact
            mass += vol
            # the centroid of a simplex is the mean of its vertices
            for r in range(n):
                moment[r] += vol * sum(p[r] for p in simplex) / (n + 1)
        return mass, tuple(moment)

    def _moments(self, L: DivisorClass) -> tuple[Fraction, tuple[Fraction, ...]]:
        """(mass, first moment) of P_L, computed once per class."""
        self._check_basis(L)
        key = L.coefficients
        hit = self._moment_cache.get(key)
        if hit is None:
            hit = self._mass_moment(self.polytope_vertices(L))
            self._moment_cache[key] = hit
        return hit

    # -- GeometryModel contract --------------------------------------------

    def volume(self, D: DivisorClass) -> Fraction:
        return math.factorial(self.dimension) * self._moments(D)[0]

    def order_anchor(self, L: DivisorClass, w: Sequence[int]) -> Fraction:
        """min over P_L of <., w>; vanishing orders along w are measured from it."""
        key = (L.coefficients, tuple(w))
        hit = self._anchor_cache.get(key)
        if hit is None:
            verts = self.polytope_vertices(L)
            if not verts:
                raise GeometryError("empty section polytope has no order anchor")
            hit = min(_dot(w, v) for v in verts)
            self._anchor_cache[key] = hit
        return hit

    def constrained_volume(self, L: DivisorClass, constraints) -> Fraction:
        """n! vol of P_L cut by <m, w_i> - min_{P_L}<., w_i> >= c_i."""
        halfspaces = self._halfspaces(L)
        for w, c in constraints:
            w = tuple(int(x) for x in w)
            anchor = self.order_anchor(L, w)
            halfspaces.append(([Fraction(x) for x in w], anchor + as_fraction(c)))
        mass, _ = self._mass_moment(self._vertices(halfspaces))
        return math.factorial(self.dimension) * mass

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
        """Exact S of L along shifted monomial valuations, the mean over P_L
        of min_i f_i, f_i = <., w_i> - min_{P_L}<., w_i> + t_i (w = 0 for a
        trivial valuation), and dS/dt_i, the share of P_L in the cell of i.

        Pieces with equal w keep the first least constant (the others get
        dS/dt_i = 0).  The first piece integrates over all of P_L; every other
        piece i adds the integral of f_i - f_1 over its cell, where f_i is
        least, and the first cell is what they leave.  Each integral is exact
        from a (mass, first moment) pair.
        """
        mass, moment = self._moments(L)
        if mass <= 0:
            raise GeometryError("expected vanishing order requires a big class")
        pieces: dict[tuple[int, ...], tuple[Fraction, int]] = {}
        for i, (v, t) in enumerate(zip(support, shifts)):
            if v.is_trivial:
                w, c = (0,) * self.dimension, Fraction(t)
            else:
                w = self._valuation_vector(v)
                c = Fraction(t) - self.order_anchor(L, w)
            if w not in pieces or c < pieces[w][0]:
                pieces[w] = (c, i)
        (w1, (c1, i1)), *rest = pieces.items()
        total = _dot(w1, moment) + c1 * mass
        grad = [Fraction(int(i == i1)) for i in range(len(support))]
        for wi, (ci, i) in rest:
            # the cell of piece i: f_j - f_i >= 0 for every other piece j
            cuts = [
                ([Fraction(a - b) for a, b in zip(wj, wi)], ci - cj)
                for wj, (cj, _) in pieces.items()
                if wj != wi
            ]
            cell_mass, cell_moment = self._mass_moment(
                self._vertices(self._halfspaces(L) + cuts)
            )
            diff = [a - b for a, b in zip(wi, w1)]
            total += _dot(diff, cell_moment) + (ci - c1) * cell_mass
            grad[i] = cell_mass / mass
            grad[i1] -= grad[i]
        return total / mass, grad

    # -- section rings ------------------------------------------------------

    def section_basis(self, L: DivisorClass, k: int) -> list[tuple[int, ...]]:
        """Lattice points of k P_L, the monomial basis of the degree-k sections,
        in `itertools.product` order over the bounding box."""
        return list(zip(*self.lattice_points(L, k).T.tolist()))

    def lattice_points(self, L: DivisorClass, k: int) -> np.ndarray:
        """The rows of `section_basis(L, k)` as one int64 array."""
        if k <= 0:
            raise GeometryError("level k must be a positive integer")
        empty = np.empty((0, self.dimension), dtype=np.int64)
        scaled = [tuple(k * x for x in v) for v in self.polytope_vertices(L)]
        if not scaled:
            return empty
        coeffs = [k * a for a in L.coefficients]
        if any(c.denominator != 1 for c in coeffs):
            raise GeometryError(f"{k} L is not an integral class")
        lo = [math.ceil(min(v[i] for v in scaled)) for i in range(self.dimension)]
        hi = [math.floor(max(v[i] for v in scaled)) for i in range(self.dimension)]
        if any(b < a for a, b in zip(lo, hi)):
            return empty
        # every prefix m[:-1] of the box, in product order; <m, ray> >= -a
        # solved for m[-1] turns each ray into a bound c m[-1] >= need
        shape = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
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
        # prefix i repeated counts[i] times, with m[-1] running first..last
        starts = np.repeat(first - np.cumsum(counts) + counts, counts)
        tail = starts + np.arange(counts.sum(), dtype=np.int64)
        return np.column_stack((np.repeat(prefix, counts, axis=0), tail))

    def _order_numerators(self, L: DivisorClass, k: int, w, basis):
        """(n, q) with n / q the exact orders along w of the rows of `basis` at
        level k: <m, w> - k min_{P_L}<., w> over the common denominator q of
        the anchor.  n is int64 while every |n| and q stay below 2^53, so a
        float division of n by q is correctly rounded; Python ints otherwise.
        """
        basis = np.asarray(basis)
        if basis.dtype.kind not in "iu":
            raise GeometryError("monomials must be integer lattice points")
        p, q = (k * self.order_anchor(L, w)).as_integer_ratio()
        dots = basis.astype(np.int64, copy=False).reshape(-1, self.dimension) @ np.array(
            w, dtype=np.int64
        )
        top = int(np.abs(dots).max(initial=0)) * q + abs(p)
        if max(top, q) >= 2**53:
            dots = dots.astype(object)
        return dots * q - p, q

    def monomial_orders(self, L: DivisorClass, k: int, v: Valuation, basis) -> np.ndarray:
        """Vanishing orders along v of the monomial sections in the rows of the
        integer array `basis` at level k, as floats equal to float(Fraction)."""
        if v.is_trivial:
            return np.zeros(len(basis))
        n, q = self._order_numerators(L, k, self._valuation_vector(v), basis)
        return np.asarray(n / q, dtype=float)

    def monomial_order(self, L: DivisorClass, k: int, v: Valuation, m: Sequence[int]) -> Fraction:
        """Vanishing order along v of the monomial section m at level k."""
        if v.is_trivial:
            return Fraction(0)
        n, q = self._order_numerators(L, k, self._valuation_vector(v), [m])
        return Fraction(int(n[0]), q)

    def closed_form_threshold(self, L: DivisorClass, v: Valuation) -> Fraction:
        """max - min of <., w> over the vertices of P_L: past it the cut
        <m, w> - min >= g leaves P_L with no interior."""
        w = self._valuation_vector(v)
        top = max(_dot(w, m) for m in self.polytope_vertices(L))
        return top - self.order_anchor(L, w)


def _order_polygon(verts, center=None):
    """Counterclockwise ordering of 2-d points by exact angular comparison
    about `center`, by default their centroid."""
    verts = list(verts)
    if len(verts) < 3:
        return verts
    if center is None:
        center = [sum(v[i] for v in verts) / len(verts) for i in (0, 1)]
    cx, cy = center

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (q[0] - cx) * (p[1] - cy)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(verts, key=cmp_to_key(compare))


def _dot(w, m) -> Fraction:
    return sum((a * x for a, x in zip(w, m)), Fraction(0))
