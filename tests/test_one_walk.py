"""One chamber walk for gamma and S on surfaces (`surface._walk`).

The gamma walk and the walk of S on several valuations are one loop: each
chamber ends at its wall, at the next shift or at the first root of vol,
where the walk stops.  So S never integrates the negative quadratic past
that root, and both callers give the same records on the same path."""
import math
import random
from fractions import Fraction

import pytest

import divstab as ds
from divstab.filtrations import FiltrationSpec, expected_order_S_grad
from divstab.surface import SurfaceModel

from _cases import random_big_class, surface_models


def open_lattice():
    """H^2 = 1, E^2 = -2, H the only declared curve: no negative curve, so
    P = D and vol = D^2 until its first root."""
    return SurfaceModel("open", [[1, 0], [0, -2]], sample_curves=[[1, 0]])


def test_two_valuation_S_stops_at_the_first_root_of_vol():
    # E and H + E at (0, 0) walk L - lam (H + 2E), as the one curve H + 2E does:
    # vol = (1 - lam)^2 - 8 lam^2 first vanishes at r = 1 / (1 + 2 sqrt 2)
    model = open_lattice()
    L = model.divisor([1, 0])
    e, he = model.curve_valuation("e", [0, 1]), model.curve_valuation("he", [1, 1])
    d = model.curve_valuation("d", [1, 2])
    two, grad = expected_order_S_grad(model, L, FiltrationSpec((e, he), (0, 0)))
    one, _ = expected_order_S_grad(model, L, FiltrationSpec((d,), (0,)))
    r = 1 / (1 + 2 * math.sqrt(2))
    assert abs(two - one) <= 1e-15, (two, one)
    assert abs(two - (r - r * r - 7 * r**3 / 3)) <= 1e-14, two
    assert min(grad) >= 0 and abs(math.fsum(grad) - 1) <= 2**-52, grad


def test_an_unbounded_threshold_still_raises():
    # -H is no effective curve: nothing bounds the walk of L - lam (-H)
    model = open_lattice()
    L = model.divisor([1, 0])
    e, neg = model.curve_valuation("e", [0, 1]), model.curve_valuation("neg", [-1, 0])
    with pytest.raises(ds.GeometryError, match="'neg'"):
        expected_order_S_grad(model, L, FiltrationSpec((e, neg), (0, 0)))


def test_twist_integrals_along_an_unbounded_path():
    # -H is no effective curve: L - lam (-H) never leaves the psef cone, so
    # the walk's last chamber has no end, and the integrals clip it at lam1;
    # past the shift 1/2, vol = (1 + s)^2 and P . H = 1 + s in s = lam - 1/2
    model = open_lattice()
    H = model.divisor([1, 0])
    neg = model.curve_valuation("neg", [-1, 0])
    assert model.twist_integrals(H, [neg], [0.5], 0.0, 2.0, direction=H) == (5.375, 3.125)


def test_gamma_and_S_walk_the_same_chambers():
    """The gamma walk kept in the memo of L against `_SurfaceProblem.walk`
    of the same path, lam in [0, gamma] at shift 0: the walk of S runs over
    a common denominator D, so M P, over another scale, agrees as a
    rational, and every float rounds the same rational once."""
    rng = random.Random(31)
    seen = {"pairs": 0, "walls": 0}
    for n in range(160):
        model = surface_models()[n % 4]
        L = random_big_class(model, rng)
        for v in model.named_valuations.values():
            gamma = ds.gamma_threshold(model, L, v)
            kept = model._memo_of(L)["chambers", v]
            walked = model._compiled(L, (v,)).walk([0.0], 0.0)
            assert len(kept) == len(walked), (model.name, L, v.name)
            for a, b in zip(kept, walked):
                assert a[:5] == b[:5], (model.name, L, v.name)
                # M P = Mp0 / den0 + lam Mp1 / den1
                for i in (5, 6):
                    assert [Fraction(x, a[i + 2]) for x in a[i]] == [Fraction(x, b[i + 2]) for x in b[i]]
            seen["pairs"] += 1
            seen["walls"] += len(kept) - 1
    assert seen["pairs"] == 480 and seen["walls"] >= 60, seen
