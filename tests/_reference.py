"""Independent references for the exact kernels.

Toric: vertices by `Fraction` Gaussian elimination on every n-subset of
halfspaces, and (mass, first moment) summed over a triangulation, the fan of
the angularly ordered polygon in 2-d and scipy's Delaunay in higher
dimension.  The Delaunay route decides flatness with a float rank test
(tolerance 1e-9), so it is only trustworthy for polytopes of about unit size.

Toric fans: the log discrepancy of a monomial valuation on the maximal
cones found by exact angle comparison, and completeness by HiGHS.

Norm engine: the cutting-plane LP by HiGHS.

Surface: the Zariski chamber walk on `Fraction`s, with elimination on the
Gram matrix of the support, read off a model's declared intersection matrix
and curves; it gives the Zariski decomposition, the volume, the
pseudoeffective threshold, and `S` with its gradient in the shifts for
rational shifts.
"""
import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from divstab import GeometryError, NotPseudoeffectiveError


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fraction entries; None when singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def det_exact(m):
    """Determinant of a square matrix of Fraction entries."""
    n = len(m)
    m = [list(row) for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def vertices(n, halfspaces):
    """Sorted vertices of {m : <m, normal> >= rhs} as Fraction tuples."""
    halfspaces = [([Fraction(a) for a in normal], Fraction(r)) for normal, r in halfspaces]
    verts = set()
    for subset in itertools.combinations(range(len(halfspaces)), n):
        pt = solve_exact([halfspaces[i][0] for i in subset], [halfspaces[i][1] for i in subset])
        if pt is None:
            continue
        if all(sum(a * x for a, x in zip(normal, pt)) >= r for normal, r in halfspaces):
            verts.add(tuple(pt))
    return sorted(verts)


def order_polygon(verts):
    """Counterclockwise ordering of 2-d points about their centroid."""
    verts = list(verts)
    if len(verts) < 3:
        return verts
    cx, cy = [sum(v[i] for v in verts) / len(verts) for i in (0, 1)]

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (q[0] - cx) * (p[1] - cy)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(verts, key=cmp_to_key(compare))


def mass_moment(n, verts):
    """Euclidean volume and first moment of the convex hull of `verts`."""
    simplices = []
    if len(verts) <= n:
        pass  # too few vertices for an n-simplex: no volume
    elif n == 1:
        simplices = [(min(verts), max(verts))]
    elif n == 2:
        ordered = order_polygon(verts)
        simplices = [(ordered[0], p, q) for p, q in zip(ordered[1:], ordered[2:])]
    else:
        pts = np.array([[float(x) for x in v] for v in verts])
        if np.linalg.matrix_rank(pts - pts[0], tol=1e-9) == n:
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


def kelley_lp(slopes, offsets, hi):
    """max over u in [-hi, hi]^dim of min_k offsets_k + slopes_k . u, by
    HiGHS on the variables (u, z)."""
    n, dim = slopes.shape
    res = linprog(
        np.r_[np.zeros(dim), -1.0],
        A_ub=np.hstack([-slopes, np.ones((n, 1))]),
        b_ub=offsets,
        bounds=[(-hi, hi)] * dim + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"HiGHS failed: {res.message}")
    return -res.fun


def order_rays(vectors):
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


def log_discrepancy(name, rays, w):
    """The sum of the coordinates of w in the unimodular maximal cone holding
    it, by Fraction elimination, with the errors of `ToricModel`: the cones
    are the angularly adjacent pairs of rays in 2-d and every n-subset of
    n + 1 rays; no other fan is fixed by its rays."""
    n = len(w)
    if n == 2:
        ordered = order_rays(rays)
        cones = list(zip(ordered, ordered[1:] + ordered[:1]))
    elif len(rays) == n + 1:
        cones = list(itertools.combinations(rays, n))
    else:
        raise GeometryError(f"the cones of {name!r} are not determined by its rays")
    for cone in cones:
        columns = [[Fraction(r[i]) for r in cone] for i in range(n)]
        if abs(det_exact(columns)) == 1:
            c = solve_exact(columns, [Fraction(x) for x in w])
            if min(c) >= 0:
                return sum(c)
    raise GeometryError(f"vector {tuple(w)} lies in no declared smooth cone")


def positively_spans(rays):
    """True iff the rays positively span R^n: over the cone <u, ray> >= 0
    cut by the box |u_i| <= 1, the maximum of each +-u_i is 0, by HiGHS."""
    n = len(rays[0])
    for i in range(n):
        for sign in (1, -1):
            res = linprog(
                [-sign * (j == i) for j in range(n)],
                A_ub=-np.array(rays, dtype=float),
                b_ub=np.zeros(len(rays)),
                bounds=[(-1, 1)] * n,
                method="highs",
            )
            if res.status != 0:
                raise AssertionError(f"HiGHS failed: {res.message}")
            if -res.fun > 1e-9:
                return False
    return True


# -- surface: the Zariski chamber walk on Fractions ---------------------------


def _fdot(a, b):
    return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))


def _surface_solve(gram, columns):
    """The solutions of gram X = c, one per column c, by elimination without
    row exchanges; None unless gram is negative definite (every pivot < 0)."""
    n = len(gram)
    rows = [list(row) + [c[i] for c in columns] for i, row in enumerate(gram)]
    for k in range(n):
        if rows[k][k] >= 0:
            return None
        for r in range(n):
            if r != k and rows[r][k]:
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return [[rows[i][n + j] / rows[i][i] for i in range(n)] for j in range(len(columns))]


def surface_chamber(model, b, d, x):
    """Zariski decomposition of b + lam d just right of lam = x, for Fraction
    tuples b, d and a Fraction x: (support, p0, p1) with P = p0 + lam p1 and
    support the (curve index, a0, a1) whose N-coefficient a0 + lam a1 is
    positive there; NotPseudoeffectiveError off the psef cone at x+."""
    matrix = model.matrix
    curves = [C.coefficients for C in model.negative_curves]
    duals = [
        tuple(_fdot(row, C.coefficients) for row in matrix)
        for C in model.negative_curves + model.sample_curves
    ]
    support, a0, a1, p0, p1 = [], [], [], b, d

    def sign(c0, c1):
        c = c0 + x * c1
        return c if c else c1

    def pairs(dual):
        return sign(_fdot(p0, dual), _fdot(p1, dual))

    while violating := [
        i for i in range(len(curves)) if i not in support and pairs(duals[i]) < 0
    ]:
        support += violating
        gram = [[_fdot(curves[i], duals[j]) for j in support] for i in support]
        rhs = [[_fdot(v, duals[i]) for i in support] for v in (b, d)]
        sol = _surface_solve(gram, rhs)
        if sol is None:
            raise NotPseudoeffectiveError("Gram submatrix of the support is not negative definite")
        a0, a1 = sol
        columns = list(zip(*(curves[i] for i in support)))
        p0, p1 = (
            tuple(vk - _fdot(a, col) for vk, col in zip(v, columns)) for v, a in zip((b, d), sol)
        )
    for dual in duals[len(curves):]:
        if pairs(dual) < 0:
            raise NotPseudoeffectiveError("positive part pairs negatively with a sample curve")
    if any(sign(u, w) < 0 for u, w in zip(a0, a1)):
        raise NotPseudoeffectiveError("a negative-part coefficient is forced negative")
    return [(i, u, w) for i, u, w in zip(support, a0, a1) if sign(u, w) > 0], p0, p1


def surface_zariski(model, D):
    """(P, ((curve index, coefficient), ...)) of the Zariski decomposition of D."""
    zero = (Fraction(0),) * model.class_rank
    support, P, _ = surface_chamber(model, D.coefficients, zero, Fraction(0))
    return P, tuple((i, a) for i, a, _ in support)


def surface_volume(model, D):
    try:
        P, _ = surface_zariski(model, D)
    except NotPseudoeffectiveError:
        return Fraction(0)
    return _fdot(P, [_fdot(row, P) for row in model.matrix])


def surface_threshold(model, L, v):
    """The pseudoeffective threshold of big L along v: walk the chambers of
    pull(L) - lam E_v from 0 until vol = P^2 reaches 0 before the next wall,
    or the next chamber is not pseudoeffective."""
    target, pull = model.resolve_realization([v])
    b, d = pull(L.coefficients), tuple(-c for c in v.order_model.divisor.coefficients)
    matrix = target.matrix
    duals = [
        tuple(_fdot(row, C.coefficients) for row in matrix)
        for C in target.negative_curves + target.sample_curves
    ]
    x = Fraction(0)
    while True:
        try:
            support, p0, p1 = surface_chamber(target, b, d, x)
        except NotPseudoeffectiveError:
            return x
        inside = {i for i, _, _ in support}
        lines = [(u, w) for _, u, w in support] + [
            (_fdot(p0, c), _fdot(p1, c)) for i, c in enumerate(duals) if i not in inside
        ]
        wall = min((-c0 / c1 for c0, c1 in lines if c1 < 0), default=None)
        Mp0, Mp1 = ([_fdot(row, p) for row in matrix] for p in (p0, p1))
        root = _first_root(_fdot(p0, Mp0), 2 * _fdot(p0, Mp1), _fdot(p1, Mp1), x, wall)
        if root is not None:
            return root
        if wall is None:
            raise GeometryError("threshold is unbounded")
        x = wall


def surface_S_grad(model, L, support, shifts):
    """(S, grad_t S, chambers) of L along the filtration of these support
    valuations at these shifts, exactly: shifts enter as `Fraction(t)`.

    Walks the chambers of lam -> L - sum max(lam - t_i, 0) E_i up from the
    least shift, on the realization of the support, by `surface_chamber`.
    On each, P = p0 + lam p1, so vol = P^2 and P . E_i are polynomials and
    integrate exactly.  The walk stops at the least trivial shift, or where
    the class stops being big: the path only subtracts effective divisors,
    so vol stays 0 past it.  S = t0 + (integral of vol) / vol L; for
    non-trivial v_i, dS/dt_i = (2 / vol L) times the integral of P . E_i
    from t_i, the least-shifted trivial valuation takes 1 minus the rest,
    and other trivial ones 0.  `chambers` lists (lam, lam', the indices of
    the negative curves in N), one per chamber walked.
    """
    ts = [Fraction(t) for t in shifts]
    t0 = min(ts)
    target, pull = model.resolve_realization(support)
    base = tuple(Fraction(c) for c in pull(L.coefficients))
    divs = {i: v.order_model.divisor.coefficients for i, v in enumerate(support) if not v.is_trivial}
    trivial = [i for i, v in enumerate(support) if v.is_trivial]
    cap = min((ts[i] for i in trivial), default=None)
    matrix = target.matrix
    duals = [
        tuple(_fdot(row, C.coefficients) for row in matrix)
        for C in target.negative_curves + target.sample_curves
    ]
    vol_L = surface_volume(model, L)
    integral, moments, chambers = Fraction(0), {i: Fraction(0) for i in divs}, []
    x = t0
    while cap is None or x < cap:
        active = [i for i in divs if ts[i] <= x]
        b = tuple(c + sum(ts[i] * divs[i][k] for i in active) for k, c in enumerate(base))
        d = tuple(-sum(divs[i][k] for i in active) for k in range(len(base)))
        try:
            chamber, p0, p1 = surface_chamber(target, b, d, x)
        except NotPseudoeffectiveError:
            break
        Mp0, Mp1 = ([_fdot(row, p) for row in matrix] for p in (p0, p1))
        q0, q1, q2 = _fdot(p0, Mp0), 2 * _fdot(p0, Mp1), _fdot(p1, Mp1)
        if q0 + x * (q1 + x * q2) == 0:
            break
        inside = {i for i, _, _ in chamber}
        lines = [(u, w) for _, u, w in chamber] + [
            (_fdot(p0, c), _fdot(p1, c)) for i, c in enumerate(duals) if i not in inside
        ]
        ends = [-c0 / c1 for c0, c1 in lines if c1 < 0] + [t for t in ts if t > x]
        end = min(ends, default=None)
        if end is None:
            raise AssertionError("the walk has no end: no declared curve bounds it")
        if cap is not None:
            end = min(end, cap)
        if q0 + end * (q1 + end * q2) < 0:
            raise AssertionError("vol < 0 inside a chamber: the declared curves are incomplete")
        integral += q0 * (end - x) + q1 * (end**2 - x**2) / 2 + q2 * (end**3 - x**3) / 3
        for i in active:
            moments[i] += _fdot(divs[i], Mp0) * (end - x) + _fdot(divs[i], Mp1) * (end**2 - x**2) / 2
        chambers.append((x, end, sorted(inside)))
        x = end
    grad = [Fraction(0)] * len(support)
    for i, m in moments.items():
        grad[i] = 2 * m / vol_L
    if trivial:
        grad[min(trivial, key=lambda i: ts[i])] = 1 - sum(grad)
    return t0 + integral / vol_L, grad, chambers


def _first_root(q0, q1, q2, x, wall):
    """Least root in (x, wall] of q0 + q1 lam + q2 lam^2, given q(x) > 0 (wall
    None: no wall); a Fraction when the discriminant is a rational square."""
    disc = q1 * q1 - 4 * q2 * q0
    if disc < 0 or (q2 == 0 and q1 >= 0) or (q2 > 0 and -q1 <= 2 * q2 * x):
        return None
    if wall is not None and q0 + wall * (q1 + wall * q2) > 0:
        if not (q2 > 0 and -q1 <= 2 * q2 * wall):
            return None
    if q2 == 0:
        return -q0 / q1
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if Fraction(rn * rn, rd * rd) == disc:
        return (-q1 - Fraction(rn, rd)) / (2 * q2)
    s = math.sqrt(disc)
    return (-q1 - s) / (2 * q2) if q1 > 0 else 2 * q0 / (-q1 + s)
