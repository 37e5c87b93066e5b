"""Independent references for the correctness check.

Nothing here calls the program.  Surfaces use the closed-form Zariski
decompositions of the four bundled surfaces; volumes, Zariski parts and
thresholds are exact rationals.  The expected vanishing order integrates the
volume piece by piece between chamber walls, where it is quadratic, so
Simpson's rule is exact on each piece; it runs in floats (the closed forms
take either), which keeps the only error at roundoff, far below the check's
tolerance, at a fiftieth of the cost.  Toric models build their section
polytopes from the fan (one vertex per maximal cone, valid for ample
classes) and get S exactly, as the mean over the polytope of the least
shifted order, integrated simplex by simplex.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TRIVIAL = "trivial"

# -- surfaces ---------------------------------------------------------------

# linear functionals whose sign pattern fixes the volume's quadratic piece;
# the first ones (PSEF) cut out the pseudoeffective cone
PSEF = {
    "p2": [(1,)],
    "p1xp1": [(1, 0), (0, 1)],
    "blp2": [(1, 0), (1, 1)],
    "f1": [(1, 0), (0, 1)],
}
WALLS = {
    "p2": [],
    "p1xp1": [],
    "blp2": [(0, 1)],
    "f1": [(-1, 1)],
}
# valuation -> (surface carrying the divisor, divisor class, log discrepancy)
SURFACE_DIVISORS = {
    "p2": {"line": ("p2", (1,), 1), "conic": ("p2", (2,), 1),
           "point_blowup": ("blp2", (0, 1), 2)},
    "blp2": {"ord_e": ("blp2", (0, 1), 1), "ord_line": ("blp2", (1, 0), 1),
             "ord_line_p": ("blp2", (1, -1), 1)},
    "p1xp1": {"ord_f1": ("p1xp1", (1, 0), 1), "ord_f2": ("p1xp1", (0, 1), 1),
              "ord_diag": ("p1xp1", (1, 1), 1)},
    "f1": {"ord_s": ("f1", (1, 0), 1), "ord_f": ("f1", (0, 1), 1),
           "ord_sf": ("f1", (1, 1), 1)},
}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _psef(name, D) -> bool:
    return all(_dot(f, D) >= 0 for f in PSEF[name])


def surface_zariski(name: str, D):
    """(positive part, ((curve, coefficient), ...)) or None off the psef
    cone; exact for rational D."""
    D = tuple(D)
    if not _psef(name, D):
        return None
    if name == "blp2" and D[1] > 0:
        return (D[0], 0 * D[1]), (((0, 1), D[1]),)
    if name == "f1" and D[1] < D[0]:
        return (D[1], D[1]), (((1, 0), D[0] - D[1]),)
    return D, ()


def surface_volume(name: str, D):
    dec = surface_zariski(name, D)
    if dec is None:
        return 0 * D[0]
    P = dec[0]
    if name == "p2":
        return P[0] * P[0]
    if name == "p1xp1":
        return 2 * P[0] * P[1]
    if name == "blp2":
        return P[0] * P[0] - P[1] * P[1]
    return 2 * P[0] * P[1] - P[0] * P[0]


def surface_gamma(name: str, D, divisor) -> Fraction:
    """sup{g : D - g divisor is big}: where D - g divisor leaves the psef cone."""
    return min(
        _dot(f, D) / _dot(f, divisor) for f in PSEF[name] if _dot(f, divisor) > 0
    )


def realize(name: str, valuations):
    """(surface, pullback map on classes) carrying all non-trivial valuations."""
    targets = {SURFACE_DIVISORS[name][v][0] for v in valuations}
    if len(targets) > 1:
        raise ValueError("valuations realised on different surfaces")
    target = targets.pop() if targets else name
    if target == name:
        return target, lambda D: tuple(Fraction(x) for x in D)
    # p2 -> blp2: the pullback of aH is aH
    return target, lambda D: (Fraction(D[0]), Fraction(0))


def surface_threshold(name: str, L, v: str) -> Fraction:
    target, pull = realize(name, [v])
    return surface_gamma(target, pull(L), SURFACE_DIVISORS[name][v][1])


def surface_S(name: str, L, support, shifts) -> float:
    """Expected vanishing order, integrated piece by piece in floats."""
    t = [float(x) for x in shifts]
    t0 = min(t)
    pairs = [(v, s) for v, s in zip(support, t) if v != TRIVIAL]
    caps = [s for v, s in zip(support, t) if v == TRIVIAL]
    if not pairs:
        return t0
    target, pull = realize(name, [v for v, _ in pairs])
    exact = pull(L)
    B = [float(x) for x in exact]
    divs = [(SURFACE_DIVISORS[name][v][1], s) for v, s in pairs]
    upper = min(float(surface_gamma(target, exact, d)) + s for d, s in divs)
    if caps:
        upper = min(upper, min(caps))
    if upper <= t0:
        return t0

    def cls(lam):
        out = list(B)
        for d, s in divs:
            if lam > s:
                out = [a - (lam - s) * x for a, x in zip(out, d)]
        return out

    def vol(lam):
        return surface_volume(target, cls(lam))

    cuts = {t0, upper} | {s for _, s in divs if t0 < s < upper}
    functionals = PSEF[target] + WALLS[target]
    pieces = sorted(cuts)
    for p, q in zip(pieces, pieces[1:]):
        dp, dq = cls(p), cls(q)
        for f in functionals:
            a, b = _dot(f, dp), _dot(f, dq)
            if (a < 0 < b) or (b < 0 < a):
                cuts.add(p + (q - p) * a / (a - b))
    pieces = sorted(cuts)
    integral = 0.0
    for p, q in zip(pieces, pieces[1:]):
        integral += (q - p) * (vol(p) + 4 * vol((p + q) / 2) + vol(q)) / 6
    return t0 + integral / float(surface_volume(target, exact))


# -- toric models -----------------------------------------------------------

# rays and maximal cones; 2-d cones are listed in angular order, so their
# vertices come out in cyclic order
FANS = {
    "p2_toric": ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
    "p1xp1_toric": ([(1, 0), (-1, 0), (0, 1), (0, -1)],
                    [(0, 2), (2, 1), (1, 3), (3, 0)]),
    "f1_toric": ([(1, 0), (0, 1), (-1, 1), (0, -1)],
                 [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "p3_toric": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                 [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
}
TORIC_VECTORS = {
    "p2_toric": {"e1": (1, 0), "e2": (0, 1), "e3": (-1, -1), "diag": (1, 1)},
    "p1xp1_toric": {"e1": (1, 0), "e2": (0, 1), "diag": (1, 1)},
    "f1_toric": {"e1": (1, 0), "e2": (0, 1)},
    "p3_toric": {"e1": (1, 0, 0), "e2": (0, 1, 0), "e3": (0, 0, 1), "e12": (1, 1, 0)},
}


def _det(rows) -> Fraction:
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return Fraction(a * d - b * c)
    (a, b, c), (d, e, f), (g, h, i) = rows
    return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def _cramer(rows, rhs):
    det = _det(rows)
    n = len(rows)
    out = []
    for col in range(n):
        swapped = [
            [rhs[r] if c == col else rows[r][c] for c in range(n)] for r in range(n)
        ]
        out.append(_det(swapped) / det)
    return tuple(out)


def toric_vertices(name: str, a):
    """Vertices of P_a = {m : <m, v_rho> >= -a_rho}, one per maximal cone."""
    rays, cones = FANS[name]
    return [
        _cramer([rays[i] for i in cone], [-Fraction(a[i]) for i in cone])
        for cone in cones
    ]


def _simplices(name: str, verts):
    """(Euclidean volume, vertices) of a triangulation of the polytope."""
    n = len(verts[0])
    if n == 3:
        rows = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
        return [(abs(_det(rows)) / 6, verts)]
    out = []
    for p, q in zip(verts[1:], verts[2:]):
        rows = [[x - y for x, y in zip(v, verts[0])] for v in (p, q)]
        out.append((abs(_det(rows)) / 2, [verts[0], p, q]))
    return out


def toric_volume(name: str, a) -> Fraction:
    verts = toric_vertices(name, a)
    n = len(verts[0])
    return math.factorial(n) * sum(v for v, _ in _simplices(name, verts))


def toric_threshold(name: str, a, v: str) -> Fraction:
    w = TORIC_VECTORS[name][v]
    values = [_dot(w, m) for m in toric_vertices(name, a)]
    return max(values) - min(values)


def _positive_integral(vol: Fraction, g) -> Fraction:
    """Integral of max(g, 0) over a simplex of volume `vol`, for g affine with
    values `g` at the vertices."""
    n1 = len(g)
    pos = [x for x in g if x > 0]
    neg = [x for x in g if x < 0]
    if not pos:
        return Fraction(0)
    if not neg:
        return vol * sum(g) / n1
    if len(pos) == 1:
        # the region g > 0 is a corner simplex at the positive vertex
        gp = pos[0]
        share = Fraction(1)
        for x in g:
            if x <= 0:
                share *= gp / (gp - x)
        return vol * share * gp / n1
    if len(neg) == 1:
        return vol * sum(g) / n1 + _positive_integral(vol, [-x for x in g])
    # two positive and two negative vertices: split the tetrahedron at the
    # zero of g on one mixed edge into two simpler ones
    i = next(k for k, x in enumerate(g) if x > 0)
    j = next(k for k, x in enumerate(g) if x < 0)
    lam = g[i] / (g[i] - g[j])
    near = [Fraction(0) if k == j else x for k, x in enumerate(g)]
    far = [Fraction(0) if k == i else x for k, x in enumerate(g)]
    return _positive_integral(vol * lam, near) + _positive_integral(vol * (1 - lam), far)


def _affine_pieces(name: str, a, support, shifts):
    """Affine functions m -> order along v + shift, as (w, constant)."""
    verts = toric_vertices(name, a)
    out = []
    for v, t in zip(support, shifts):
        w = TORIC_VECTORS[name][v]
        out.append((w, Fraction(t) - min(_dot(w, m) for m in verts)))
    return verts, out


def toric_S(name: str, a, support, shifts) -> Fraction:
    """Mean over P_a of min_i (order_i + t_i); at most two valuations."""
    verts, fns = _affine_pieces(name, a, support, shifts)
    if len(fns) > 2:
        raise ValueError("the toric reference handles at most two valuations")
    total = Fraction(0)
    volume = Fraction(0)
    (w1, c1) = fns[0]
    for vol, simplex in _simplices(name, verts):
        f1 = [_dot(w1, m) + c1 for m in simplex]
        piece = vol * sum(f1) / len(f1)
        if len(fns) == 2:
            w2, c2 = fns[1]
            diff = [x - (_dot(w2, m) + c2) for x, m in zip(f1, simplex)]
            piece -= _positive_integral(vol, diff)
        total += piece
        volume += vol
    return total / volume


def barycenter_S(name: str, a, v: str, t) -> Fraction:
    """One monomial valuation: S = <barycenter P, w> - min_P <., w> + t."""
    verts = toric_vertices(name, a)
    w = TORIC_VECTORS[name][v]
    mass = Fraction(0)
    moment = Fraction(0)
    for vol, simplex in _simplices(name, verts):
        mass += vol
        moment += vol * sum(_dot(w, m) for m in simplex) / len(simplex)
    return moment / mass - min(_dot(w, m) for m in verts) + Fraction(t)


def jumping_values(name: str, a, support, shifts, k: int) -> list[float]:
    """Level-k jumping values over the lattice points of k P_a, enumerated on
    an integer grid in the order of a lexicographic scan."""
    rays, _ = FANS[name]
    verts = toric_vertices(name, a)
    n = len(verts[0])
    lo = [math.ceil(min(k * v[i] for v in verts)) for i in range(n)]
    hi = [math.floor(max(k * v[i] for v in verts)) for i in range(n)]
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    bound = np.array([-k * int(x) for x in a], dtype=np.int64)
    pts = grid[np.all(grid @ np.array(rays, dtype=np.int64).T >= bound, axis=1)]
    best = None
    for v, t in zip(support, shifts):
        w = TORIC_VECTORS[name][v]
        anchor = int(min(_dot(w, m) for m in verts))
        vals = (pts @ np.array(w, dtype=np.int64) - k * anchor).astype(float) + k * float(t)
        best = vals if best is None else np.minimum(best, vals)
    return best.tolist()


# -- shared -------------------------------------------------------------------


def is_toric(name: str) -> bool:
    return name in FANS


def expected_order(name, L, support, shifts):
    if is_toric(name):
        return toric_S(name, L, support, shifts)
    return surface_S(name, L, support, shifts)


def threshold(name, L, v) -> Fraction:
    if is_toric(name):
        return toric_threshold(name, L, v)
    return surface_threshold(name, L, v)


def volume(name, L) -> Fraction:
    if is_toric(name):
        return toric_volume(name, L)
    return surface_volume(name, L)


def log_discrepancy(name, v) -> Fraction:
    if v == TRIVIAL:
        return Fraction(0)
    return Fraction(SURFACE_DIVISORS[name][v][2])


def objective(name, L, measure, t) -> float:
    """g(t) = S(t) - <xi, t>, the function a norm maximizes."""
    support = [v for v, _ in measure]
    s = float(expected_order(name, L, support, t))
    return s - sum(float(m) * x for (_, m), x in zip(measure, t))


def norm_reference(name, L, measure, tol=1e-11) -> float:
    """Exact norm for one atom (S at 0); for two atoms, golden-section search
    on the concave one-variable slice s -> g(0, s), which covers every shift
    by translation invariance."""
    support = [v for v, _ in measure]
    if len(measure) == 1:
        return float(expected_order(name, L, support, [0.0]))
    if len(measure) != 2:
        raise ValueError("the norm reference handles at most two atoms")
    gammas = [float(threshold(name, L, v)) for v in support if v != TRIVIAL]
    hi = max(gammas) + 1.0

    def h(s):
        return objective(name, L, measure, (0.0, s))

    a, b = -hi, hi
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = h(c), h(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = h(d)
    return max(fc, fd, h(0.5 * (a + b)))
