"""Smooth projective toric backend: rational section polytopes + monomial valuations.

Divisor classes are ray-coefficient vectors a_rho; the section polytope is
P_D = {m : <m, v_rho> >= -a_rho}.  Volumes are n! times the Euclidean volume of P_D.  One
kernel, `ToricModel._polytope`, finds the vertices of P_L, or of a cell cut from it and
seeded with P_L's vertices and tight masks, as int points over one denominator, and
triangulates it on those masks, all in ints; L keeps one record of them for volumes,
thresholds, S and lattice points, one Fraction per result, in its memo.  The triangulation
depends on the masks alone, and the ample classes of a fan share its combinatorial type, so
a model keeps those of the last 8 patterns, keyed by the masks in vertex order and the
halfspace count.  The fan keeps d A^-1 for each nonsingular basis A of rays, which the kernel
solves with, and reads completeness and its cones from them.  Valuations are monomial:
primitive lattice vectors w, whose order function is linear on the monomial basis,
anchored so that min over P_L is order 0; their orders at level k are kept with the
lattice points of k P_L, for the last 4 levels of L, at most MAX_LEVEL_POINTS points in all
per model.  The Hessian of S in the shifts is that of semi-discrete optimal
transport (Kitagawa-Merigot-Thibert): the flux between two cells, the (n-1)-volume of the
facet they share over |w_i - w_j|, is rational, read from the triangulation of the cell
in the same kernel, and formed only when the Hessian is asked for.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    DivisorClass,
    GeometryError,
    GeometryModel,
    Valuation,
    _dot,
    _eliminate,
    _recent,
    _solve,
    as_fraction,
)

# the most rows `_box_points` builds for one level k, in the prefixes of the
# bounding box of k P_L and in its lattice points; a larger k is rejected.
# The levels a model keeps hold at most as many points in all
MAX_LEVEL_POINTS = 10**6


def _lattice_vector(xs, what: str) -> tuple[int, ...]:
    """xs as ints, numpy ints too; a float, str or bool entry is a GeometryError."""
    try:
        if bool not in map(type, xs):
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
        for i, r in enumerate(self.rays):
            if len(r) != self.dimension:
                raise GeometryError("rays of mixed dimension")
            if math.gcd(*(abs(x) for x in r)) != 1:
                raise GeometryError(f"ray {r} is not primitive")
            if r in self.rays[:i]:
                raise GeometryError(f"ray {r} is repeated")
        self.class_rank = len(self.rays)
        # per nonsingular n-subset of rays, A its rows: (it, its bitmask, d = det A, the rows of the ints d A^-1)
        unit = [tuple(int(i == j) for j in range(self.dimension)) for i in range(self.dimension)]
        self._bases = tuple((subset, sum(1 << i for i in subset), d, [*zip(*columns)])
                            for subset in itertools.combinations(range(self.class_rank), self.dimension)
                            for d, *columns in [_solve([self.rays[i] for i in subset], *unit)] if d)
        self._check_complete()
        # the bitmasks of the (n-1)-subsets of rays, where a polytope of the rays has its edges; `_polytope`'s ring
        self._edges = tuple(sum(1 << i for i in h) for h in itertools.combinations(range(self.class_rank), self.dimension - 1))
        self._ring = ((None,),) * 8
        # `_box_points`' int64 fan, fixed in size: max l1 norm, then of the rays but the axes +-e_i (the bounding box keeps
        # those), last entry > 0 first, then < 0, then 0: indices, other entries as rows, counts > 0 and != 0, -|last entries|
        scan = [i for *_, i in sorted((r[-1] <= 0, r[-1] == 0, i) for i, r in enumerate(self.rays) if sum(map(abs, r)) > 1)]
        rays = np.array([self.rays[i] for i in scan], dtype=np.int64).reshape(len(scan), self.dimension)
        up, ends = sum(self.rays[i][-1] > 0 for i in scan), sum(self.rays[i][-1] != 0 for i in scan)
        self._fan = max(sum(map(abs, r)) for r in self.rays), scan, rays[:, :-1].T.copy(), up, ends, -abs(rays[:ends, -1])
        # -K has coefficient 1 on every ray
        self.canonical_class = self.divisor([-1] * self.class_rank)

    def _check_complete(self):
        """Section polytopes are bounded iff the rays positively span the
        lattice, that is (Caratheodory) iff each +-e_i is in the cone of some
        ray basis: its coordinates there, row i of d A^-1 over d, are >= 0."""
        for i in range(self.dimension):
            for sign in (1, -1):
                if not any(all(sign * d * c >= 0 for c in adj[i]) for *_, d, adj in self._bases):
                    raise GeometryError("rays do not positively span the lattice; section polytopes unbounded")

    # -- valuations ---------------------------------------------------------

    def monomial_valuation(self, name: str, w: Sequence[int]) -> Valuation:
        w = _lattice_vector(w, "valuation vector")
        return self.add_valuation(Valuation(name, self.log_discrepancy(w), order_model=w))

    def _vector(self, w, nonzero=False) -> tuple[int, ...]:
        """w as a lattice vector of the fan's dimension, nonzero if asked; else a GeometryError."""
        w = _lattice_vector(w, "valuation vector")
        if len(w) != self.dimension or nonzero and not any(w):
            raise GeometryError(f"valuation vector {w} is not a nonzero vector of length {self.dimension}")
        return w

    def log_discrepancy(self, w: Sequence[int]) -> Fraction:
        """Sum of the coordinates of w != 0 in the smooth cone of the fan
        holding it: of the unimodular ray bases, the one whose cone holds w
        and no other ray, that is the angularly adjacent pairs in 2-d and
        every n-subset of n + 1 rays; no other fan is fixed by its rays."""
        w, n = self._vector(w, nonzero=True), self.dimension
        if n > 2 and len(self.rays) != n + 1:
            raise GeometryError(f"the cones of {self.name!r} are not determined by its rays")
        for *_, d, adj in self._bases:
            if abs(d) == 1:
                # the coordinates c of u = sum c_j ray_j are u d A^-1 times d = +-1
                cols = [*zip(*adj)]
                y = [d * _dot(w, col) for col in cols]
                if min(y) >= 0 and sum(min(d * _dot(r, col) for col in cols) >= 0 for r in self.rays) == n:
                    return Fraction(sum(y))
        raise GeometryError(f"vector {w} lies in no declared smooth cone")

    # -- polytope machinery -------------------------------------------------

    def _halfspaces(self, D: DivisorClass):
        """Constraints <m, normal> >= rhs for the section polytope of D."""
        self._check_basis(D)
        return [(ray, -a) for ray, a in zip(self.rays, D.coefficients)]

    def _polytope(self, halfspaces, seeds=None, facets=None):
        """(points, common, mass, moment, tight) of {m : <m, normal> >= rhs},
        the rays' first, for integer normals and rational rhs, in Python ints.

        Each vertex is kept as (y, q), m = y / q in lowest terms, if feasible (tested up to the first negative
        slack): `tight` maps it to the bitmask of its tight halfspaces.  Unseeded, the ray subsets are the bases of
        `_bases`; `seeds`, the `tight` of the polytope P of the rays, stand for them: the cuts are tested on P's
        vertices, and n - 1 rays with one cut give the point where it strictly crosses the edge of P they are tight
        on.  Other n-subsets are solved by `_solve`.  `points` are the vertices over one denominator `common`.  A
        ring keeps the simplices (`_triangulate`) of the last 8 patterns, keyed by the masks in vertex order and the
        halfspace count (`_recent`), so a pattern met again only forms determinants.  n! vol = mass / common^n, moment /
        (common^(n+1) n! (n + 1)) is the integral of m, and with `facets` a sixth entry holds the int flux through
        each: (n-1)-vol / |a| = flux / (common^(n-1) (n-1)! |a|^2)."""
        n, rays, count = self.dimension, len(self.rays), len(halfspaces)
        ratios = [r.as_integer_ratio() for _, r in halfspaces]
        den = math.lcm(*(q for _, q in ratios))
        normals, rhs = [a for a, _ in halfspaces], [p * (den // q) for p, q in ratios]

        def keep(y, q, mask, start):  # y / q, q != 0, tight at `mask`, if no halfspace from `start` on is violated there
            g = math.gcd(q, *y) * (1 if q > 0 else -1)
            if (key := (tuple([x // g for x in y]), q // g)) not in tight:
                for i in range(start, count):
                    s = not mask >> i & 1 and den * _dot(normals[i], key[0]) - rhs[i] * key[1]  # False where known tight
                    if s < 0:
                        mask = None
                        break
                    mask |= (s == 0) << i
                tight[key] = mask

        if seeds is None:
            tight = {}
            for subset, mask, d, adj in self._bases:
                keep([_dot(row, b) for b in [[rhs[i] for i in subset]] for row in adj], d * den, mask, 0)
        else:  # the cuts at each vertex of P
            at_seeds = {(y, q): [den * _dot(a, y) - r * q for a, r in zip(normals[rays:], rhs[rays:])] for y, q in seeds}
            tight = {key: None if min(cuts, default=0) < 0 else seeds[key] | sum(1 << rays + i for i, s in enumerate(cuts) if not s)
                     for key, cuts in at_seeds.items()}
        for last in range(rays, count):
            for edge in self._edges if seeds is not None else ():
                ends = [(key, at_seeds[key][last - rays]) for key, m in seeds.items() if m & edge == edge]
                if len(ends) == 2 and ends[0][1] * ends[1][1] < 0:
                    ((yu, qu), su), ((yv, qv), sv) = ends  # the cut's slack s is 0 at (s_u v - s_v u) / (s_u - s_v)
                    keep([su * b - sv * a for a, b in zip(yu, yv)], su * qv - sv * qu, seeds[yu, qu] & seeds[yv, qv] | 1 << last, rays)
            for head in itertools.combinations(range(last), n - 1):
                if seeds is None or head and head[-1] >= rays:
                    if (solved := _solve([normals[i] for i in (*head, last)], [rhs[i] for i in (*head, last)]))[0]:
                        keep(solved[1], solved[0] * den, sum(1 << i for i in (*head, last)), 0)
        tight = {key: mask for key, mask in tight.items() if mask is not None}
        common = math.lcm(*(q for _, q in tight))
        points = [tuple([x * (common // q) for x in y]) for y, q in tight]
        pattern = count, *tight.values()
        self._ring = _recent(self._ring, pattern, 8, _triangulate, pattern[1:], count, n)
        simplices, faces = self._ring[0][1]

        def det(s, *rows):  # |det| of the edges of the simplex s from its first point, and `rows`; 0 if singular
            found = _eliminate([[a - b for a, b in zip(points[i], points[s[0]])] for i in s[1:]] + [[*r] for r in rows])
            return abs(found[0][-1]) if found else 0

        mass, moment = 0, [0] * n
        for s in simplices:
            d = det(s)
            mass += d
            moment = [m + d * x for m, x in zip(moment, map(sum, zip(*[points[i] for i in s])))]
        found = points, common, mass, moment, tight
        return found if facets is None else (*found, [sum(det(s, normals[k]) for s in faces[k]) for k in facets])

    def _record(self, L: DivisorClass):
        """(`_polytope` of P_L, its halfspaces, {w: `_anchor`}): L's one record in its memo."""
        memo = self._memo_of(L)
        if "polytope" not in memo:
            memo["polytope"] = self._polytope(halfspaces := self._halfspaces(L)), halfspaces, {}
        return memo["polytope"]

    @staticmethod
    def _anchor(record, w) -> int:
        """min over P_L of <., w>, as an int over the `common` of P_L."""
        (points, *_), _, anchors = record
        if w not in anchors:
            if not points:
                raise GeometryError("empty section polytope has no order anchor")
            anchors[w] = min(_dot(w, p) for p in points)
        return anchors[w]

    def polytope_vertices(self, D: DivisorClass) -> list[tuple[Fraction, ...]]:
        points, common = self._record(D)[0][:2]
        return sorted(tuple(Fraction(x, common) for x in p) for p in points)

    def _cell(self, record, cuts, facets=None):
        """`_polytope` of P_L cut by `cuts`, seeded from L's `record`, with fluxes through `facets` in `cuts`."""
        (*_, seeds), halfspaces, _ = record
        return self._polytope(halfspaces + cuts, seeds, None if facets is None else [len(self.rays) + k for k in facets])

    # -- GeometryModel contract --------------------------------------------

    def volume(self, D: DivisorClass) -> Fraction:
        _, common, mass, *_ = self._record(D)[0]
        return Fraction(mass, common**self.dimension)

    def is_big(self, D: DivisorClass) -> bool:
        return self._record(D)[0][2] > 0

    def order_anchor(self, L: DivisorClass, w: Sequence[int]) -> Fraction:
        """min over P_L of <., w>; vanishing orders along w are measured from it."""
        record = self._record(L)
        return Fraction(self._anchor(record, self._vector(w)), record[0][1])

    def constrained_volume(self, L: DivisorClass, constraints) -> Fraction:
        """n! vol of P_L cut by <m, w_i> - min_{P_L}<., w_i> >= c_i."""
        record = self._record(L)
        common, cuts = record[0][1], []
        for w, c in constraints:
            w = self._vector(w)
            anchor, (p, q) = self._anchor(record, w), as_fraction(c).as_integer_ratio()
            cuts.append((w, Fraction(anchor * q + p * common, common * q)))
        _, common, mass, *_ = self._cell(record, cuts)
        return Fraction(mass, common**self.dimension)

    def add_valuation(self, v: Valuation) -> Valuation:
        self._valuation_vector(v)  # once: a valuation held under its name is not checked again
        return super().add_valuation(v)

    def _valuation_vector(self, v: Valuation) -> tuple[int, ...]:
        if self.named_valuations.get(v.name) is v:
            return v.order_model
        if not isinstance(v.order_model, tuple):
            raise GeometryError(f"valuation {v.name!r} is not a monomial valuation")
        return self._vector(v.order_model)

    def twisted_volume(self, L: DivisorClass, constraints) -> Fraction:
        cuts = []
        for v, c in constraints:
            if v.is_trivial:
                raise GeometryError("trivial valuation cannot twist a class")
            cuts.append((self._valuation_vector(v), c))
        return self.constrained_volume(L, cuts)

    def twist_evaluator(self, L, valuations) -> Callable[[Sequence[float]], float]:
        vecs = [None if v.is_trivial else self._valuation_vector(v) for v in valuations]

        def evaluate(cs: Sequence[float]) -> float:
            cuts = [(w, c) for w, c in zip(vecs, cs) if w is not None and c > 0]
            return float(self.constrained_volume(L, cuts))

        return evaluate

    def expected_order(self, L: DivisorClass, support, shifts) -> tuple[Fraction, list[Fraction]]:
        """Exact S of L along shifted monomial valuations, one per vector w,
        the mean over P_L of min_i f_i, f_i = <., w_i> - min_{P_L}<., w_i> +
        t_i (w = 0 for a trivial valuation), and dS/dt_i, the share of P_L in
        the cell of i.

        The first piece integrates over all of P_L; every other piece i adds
        the integral of f_i - f_1 over its cell, where f_i is least, and the
        first cell is what they leave: int masses and moments, with the f_i
        over one D (`_pieces`), give one Fraction per value."""
        record = self._record(L)
        _, common, mass, moment, _ = record[0]
        pieces, D = self._pieces(record, support, shifts)
        n, (w1, g1), scale = self.dimension, pieces[0], common**self.dimension
        # S = num / (den D (n + 1) mass); the cells' n! volumes sum to part / whole
        num, den, part, whole, grad = D * _dot(w1, moment) + g1 * (n + 1) * common * mass, common, 0, 1, [None]
        for i, (wi, gi) in enumerate(pieces[1:], 1):
            _, c, cell_mass, cell_moment, _ = self._cell(record, _cuts(pieces, i, D))
            top, unit = c ** (n + 1), c**n
            diff = scale * (D * _dot([a - b for a, b in zip(wi, w1)], cell_moment) + (gi - g1) * (n + 1) * c * cell_mass)
            num, den = num * top + diff * den, den * top
            part, whole = part * unit + cell_mass * whole, whole * unit
            grad.append(Fraction(cell_mass * scale, unit * mass))
        grad[0] = Fraction(mass * whole - scale * part, mass * whole)
        return Fraction(num, den * D * (n + 1) * mass), grad

    def order_hessian(self, L: DivisorClass, support, shifts) -> list:
        """The exact Hessian of S in the shifts: for i != j, the flux between
        cells i and j, the (n-1)-volume of the facet they share over |w_i -
        w_j| (Kitagawa-Merigot-Thibert), over the Euclidean volume of P_L;
        each row sums to 0.  Cell i gives the facets it shares with the
        cells before it, as `_polytope`'s fluxes through its cuts, formed
        here only: each cell is cut again."""
        record = self._record(L)
        _, common, mass, *_ = record[0]
        pieces, D = self._pieces(record, support, shifts)
        n, H = self.dimension, [[Fraction(0)] * len(pieces) for _ in pieces]
        for i in range(1, len(pieces)):
            # the cut of piece j < i is the j-th of `_cuts`, its normal w_j - w_i
            _, c, *_, fluxes = self._cell(record, _cuts(pieces, i, D), range(i))
            for j, flux in enumerate(fluxes):
                a = [x - y for x, y in zip(pieces[j][0], pieces[i][0])]
                H[i][j] = H[j][i] = Fraction(flux * common**n * n, c ** (n - 1) * _dot(a, a) * mass)
        for i, row in enumerate(H):
            row[i] = -sum(row)
        return [[float(h) for h in row] for row in H]

    def _pieces(self, record, support, shifts):
        """((w, g) per atom, D): f = <., w> + g / D is its order function at its shift, w = 0 if
        trivial, D the `common` of P_L times the least denominator of the shifts.  L must be big."""
        _, common, mass, *_ = record[0]
        if not mass:
            raise GeometryError("expected vanishing order requires a big class")
        ratios = [(t if isinstance(t, float) else Fraction(t)).as_integer_ratio() for t in shifts]
        D = common * math.lcm(*(q for _, q in ratios))
        ws = [(0,) * self.dimension if v.is_trivial else self._valuation_vector(v) for v in support]
        return [(w, p * (D // q) - self._anchor(record, w) * (D // common)) for w, (p, q) in zip(ws, ratios)], D

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
        """`section_basis(L, k)` as one read-only int64 array (`_level`)."""
        return self._level(L, k)[1][0]

    def _level(self, L: DivisorClass, k: int):
        """(k, (read-only lattice points of k P_L, {w: orders})), of the last 4 levels of L in its
        memo (`_recent`).  A level read anew is kept, then the kept classes, the last first, keep
        their levels, newest first, while they hold at most MAX_LEVEL_POINTS points in all."""
        k, memo = _check_level(k), self._memo_of(L)
        if not (levels := memo.get("points")) or levels[0][0] != k:
            memo["points"] = levels = _recent(levels or (), k, 4, lambda: (self._box_points(L, k), {}))
            if (points := levels[0][1][0]).flags.writeable:  # just read: L and k come first
                points.flags.writeable = False
                room = MAX_LEVEL_POINTS
                for kept in [m for _, (_, m) in self._classes if m and "points" in m]:
                    kept["points"] = tuple([level for level in kept["points"] if (room := room - len(level[1][0])) >= 0])
        return levels[0]

    def _level_orders(self, L: DivisorClass, k: int, v: Valuation, level=None) -> np.ndarray:
        """`monomial_orders` along v of `lattice_points(L, k)` (`level`, if read), read once per
        valuation vector (None if trivial) and kept read-only with that basis."""
        _, (basis, orders) = level or self._level(L, k)
        w = None if v.is_trivial else self._valuation_vector(v)
        if w not in orders:
            orders[w] = self._orders(L, k, basis, w)
            orders[w].flags.writeable = False
        return orders[w]

    def jumping_values(self, L: DivisorClass, k: int, support, shifts) -> np.ndarray:
        """min over the support of order + k t per lattice point of k P_L, the level record read once."""
        level = (k, (basis, _)) = self._level(L, k)
        if not len(basis):
            raise GeometryError("no sections at this level")
        values, *rest = [self._level_orders(L, k, v, level) + k * float(t) for v, t in zip(support, shifts)]
        for lam in rest:  # np.minimum returns its second argument on ties, like min() its first
            values = np.minimum(lam, values)
        return values

    def _box_points(self, L: DivisorClass, k: int) -> np.ndarray:
        """The lattice points of k P_L, scanned over its bounding box, which
        comes in ints from the vertex points over their denominator."""
        points, common = self._record(L)[0][:2]
        if not points:
            return np.empty((0, self.dimension), dtype=np.int64)
        if any(k * a.numerator % a.denominator for a in L.coefficients):
            raise GeometryError(f"{k} L is not an integral class")
        coeffs = [k * a.numerator // a.denominator for a in L.coefficients]
        # ceil(k min), floor(k max): hi >= lo - 1, so an axis with no integer scans nothing
        lo = [-(-k * min(x) // common) for x in zip(*points)]
        hi = [k * max(x) // common for x in zip(*points)]
        # every prefix m[:-1] of the box, in product order; <m, ray> >= -a solved for m[-1] turns each ray into a
        # bound c m[-1] >= need: m[-1] >= ceil(need / c) = -(need // -c) if c > 0, <= need // c if c < 0, need <= 0 if 0
        shape = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
        if math.prod(shape) > MAX_LEVEL_POINTS:
            raise GeometryError(f"level k = {k} scans {math.prod(shape)} box prefixes, over {MAX_LEVEL_POINTS}")
        reach, scan, heads, up, ends, divisors = self._fan
        # int64 must hold the prefixes, k a and the ray products m[:-1] . ray[:-1] (up to 2**62), and need (linear in
        # m, so extreme at the box corners) and the last axis (below 2**62); a box far below 2**61 skips the corners
        if max(map(abs, (*lo, *hi, *coeffs))) * reach >= 2**61:
            prods = [[x * y for x, y in zip(m, r)] for m in itertools.product(*zip(lo[:-1], hi[:-1])) for r in self.rays]
            sizes = [*lo[:-1], *hi[:-1], *coeffs, *(sum(map(abs, t)) for t in prods)]
            needs = [lo[-1], hi[-1], *(c + sum(t) for t, c in zip(prods, itertools.cycle(coeffs)))]
            if max(map(abs, sizes)) > 2**62 or max(map(abs, needs)) >= 2**62:
                raise GeometryError(f"level k = {k} puts the box of k P_L past int64")
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo[:-1], hi[:-1])]
        columns = axes if len(axes) < 2 else [x[i] for x, i in zip(axes, np.unravel_index(np.arange(math.prod(shape)), shape))]
        need = np.array([[-coeffs[i] for i in scan]], dtype=np.int64) - sum(x[:, None] * h for x, h in zip(columns, heads))
        bound = need[:, :ends] // divisors
        low = bound[:, :up].min(axis=1, initial=-lo[-1]) if up else -lo[-1]  # -first
        last = bound[:, up:].min(axis=1, initial=hi[-1])
        if need.shape[1] > ends:
            last[(need[:, ends:] > 0).any(axis=1)] = lo[-1] - 1
        counts = np.maximum(last + low + 1, 0)
        # each count first: the prefixes are at most MAX_LEVEL_POINTS, so the sum then fits int64
        if counts.max(initial=0) > MAX_LEVEL_POINTS or (total := counts.sum()) > MAX_LEVEL_POINTS:
            raise GeometryError(f"level k = {k} has over {MAX_LEVEL_POINTS} lattice points")
        # prefix i repeated counts[i] times, with m[-1] running first..last
        points = np.empty((total, self.dimension), dtype=np.int64)
        for i, x in enumerate(columns):
            points[:, i] = x.repeat(counts)
        points[:, -1] = np.arange(total, dtype=np.int64) - (low + counts.cumsum() - counts).repeat(counts)
        return points

    def _monomials(self, k: int, basis) -> tuple[int, np.ndarray]:
        """(k, `basis`) as an int and an int64 array whose rows are monomials at level k."""
        k = _check_level(k)
        basis = np.asarray(basis)
        if basis.dtype.kind not in "iu":
            raise GeometryError("monomials must be integer lattice points")
        if basis.ndim != 2 or basis.shape[1] != self.dimension:
            raise GeometryError(f"monomials must be rows of length {self.dimension}")
        return k, basis.astype(np.int64, copy=False)

    def _order_numerators(self, L: DivisorClass, k: int, w, basis):
        """(n, q) with n / q the exact orders along w of the rows of the
        integer array `basis` at level k: <m, w> - k min_{P_L}<., w> over its
        least denominator q.  n is int64 while every |n| and q stay below
        2^53, so n / q is correctly rounded; Python ints otherwise."""
        record = self._record(L)
        anchor, common = k * self._anchor(record, w), record[0][1]
        p, q = anchor // math.gcd(anchor, common), common // math.gcd(anchor, common)
        dots = basis @ np.array(w, dtype=np.int64)
        top = int(np.abs(dots).max(initial=0)) * q + abs(p)
        if max(top, q) >= 2**53:
            dots = dots.astype(object)
        return dots * q - p, q

    def _orders(self, L: DivisorClass, k: int, basis, w) -> np.ndarray:
        """Orders along w (None if trivial) of the rows of `basis` at level k, equal to float(Fraction)."""
        if w is None:
            return np.zeros(len(basis))
        n, q = self._order_numerators(L, k, w, basis)
        return np.asarray(n / q, dtype=float)

    def monomial_orders(self, L: DivisorClass, k: int, v: Valuation, basis) -> np.ndarray:
        """Vanishing orders along v of the monomial sections in the rows of the
        integer array `basis` at level k, as floats equal to float(Fraction)."""
        w = None if v.is_trivial else self._valuation_vector(v)
        return self._orders(L, *self._monomials(k, basis), w)

    def monomial_order(self, L: DivisorClass, k: int, v: Valuation, m: Sequence[int]) -> Fraction:
        """Vanishing order along v of the monomial section m at level k."""
        w = None if v.is_trivial else self._valuation_vector(v)
        k, basis = self._monomials(k, [m])
        n, q = ((0,), 1) if w is None else self._order_numerators(L, k, w, basis)
        return Fraction(int(n[0]), q)

    def closed_form_threshold(self, L: DivisorClass, v: Valuation) -> Fraction:
        """max - min of <., w> over the vertices of P_L, in ints over their
        denominator: past it the cut <m, w> - min >= g leaves no interior."""
        w, record = self._valuation_vector(v), self._record(L)
        anchor, (points, common) = self._anchor(record, w), record[0][:2]  # the anchor first: it rejects an empty P_L
        return Fraction(max(_dot(w, p) for p in points) - anchor, common)


def _cuts(pieces, i, D):
    """The cell of piece i: f_j - f_i >= 0 for every other piece j, in order."""
    wi, gi = pieces[i]
    return [(tuple(a - b for a, b in zip(wj, wi)), Fraction(gi - gj, D)) for j, (wj, gj) in enumerate(pieces) if j != i]


def _triangulate(masks, count, n):
    """(n-simplices, per halfspace of `count` the (n-1)-simplices on it) from the vertices' tight masks in order: each face,
    a bitmask of vertices, is coned from its first vertex over its facets, its maximal proper sets tight at one halfspace."""
    on = [sum(1 << v for v, mask in enumerate(masks) if mask >> i & 1) for i in range(count)]
    faces = {}

    def simplices(face):
        low = face & -face
        if face & (face - 1) & (face - 2 * low) == 0:  # at most two vertices: no face between
            return [tuple(v for v in range(face.bit_length()) if face >> v & 1)]
        if face not in faces:
            cut = {face & f for f in on} - {0, face}
            faces[face] = [(low.bit_length() - 1,) + s for f in cut
                           if not f & low and not any(f | g == g != f for g in cut) for s in simplices(f)]
        return faces[face]

    return [s for s in simplices((1 << len(masks)) - 1) if len(s) == n + 1], [[s for s in simplices(f) if len(s) == n] for f in on]


def _check_level(k) -> int:
    """k as an int: levels are positive ints, numpy integers included, not booleans."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
        raise GeometryError("level k must be a positive integer")
    return int(k)
