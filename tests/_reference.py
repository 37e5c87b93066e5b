"""Independent reference for the toric polytope kernel: vertices by `Fraction`
Gaussian elimination on every n-subset of halfspaces, and (mass, first
moment) summed over a triangulation, the fan of the angularly ordered polygon
in 2-d and scipy's Delaunay in higher dimension.

The Delaunay route decides flatness with a float rank test (tolerance 1e-9),
so it is only trustworthy for polytopes of about unit size.
"""
import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
from scipy.spatial import Delaunay


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
