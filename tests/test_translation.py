"""S(t + c 1) = S(t) + c on surfaces, bit for bit.

S is built from the filtration alone, so its chambers depend only on the
relative shifts t_i - a, a the least non-trivial shift: a compiled problem
keeps its walk by them, and a translate reads that walk.  With least shift
0, S(t) is the integral over vol L alone, so S(t + c) is S(t) + c exactly,
and the gradient and the Hessian are the same floats."""
import math
import random

import pytest

import _reference as reference
import divstab as ds
from divstab import surface
from divstab.core import TRIVIAL_VALUATION
from divstab.filtrations import FiltrationSpec, expected_order_hessian, expected_order_S_grad

from _cases import random_big_class, surface_models


def supports(model, rng):
    """Two or three non-trivial valuations, on one realization, and a
    trivial atom three times in ten."""
    if model.name == "p2":
        pool = ["line", "conic"]
    else:
        pool = sorted(model.named_valuations)
    vals = [model.named_valuations[n] for n in rng.sample(pool, rng.randint(2, min(3, len(pool))))]
    if rng.random() < 0.3:
        vals.append(TRIVIAL_VALUATION)
    rng.shuffle(vals)
    return tuple(vals)


@pytest.fixture
def walks(monkeypatch):
    count = [0]
    walk = surface._walk

    def counting(*args):
        count[0] += 1
        return walk(*args)

    monkeypatch.setattr(surface, "_walk", counting)
    return count


def test_translate_reads_the_kept_walk(walks):
    rng = random.Random(5)
    seen = {"trivial": 0, "no_trivial": 0, "three": 0, "nonempty": 0}
    for n in range(240):
        model = surface_models()[n % 4]
        L = random_big_class(model, rng)
        support = supports(model, rng)
        ks = [rng.randint(0, 16) for _ in support]
        spec = FiltrationSpec(support, tuple((k - min(ks)) / 8 for k in ks))
        value, grad = expected_order_S_grad(model, L, spec)
        hessian = expected_order_hessian(model, L, spec)
        before = walks[0]
        c = rng.randint(-16, 16) / 8
        moved = spec.shifted(c)
        assert expected_order_S_grad(model, L, moved) == (value + c, grad), (model.name, L, spec, c)
        assert expected_order_hessian(model, L, moved) == hessian, (model.name, L, spec, c)
        assert walks[0] == before, (model.name, L, spec, c)
        seen["trivial" if TRIVIAL_VALUATION in support else "no_trivial"] += 1
        seen["three"] += sum(not v.is_trivial for v in support) == 3
        seen["nonempty"] += value != 0
    assert min(seen.values()) >= 40, seen



def test_a_rounded_relative_shift_keeps_its_own_walk(walks):
    # 0.7 - 0.1 and 0.7 - nextafter(0.1) round to one float, but the exact
    # relative shifts differ: each walks once, and a repeat walks nothing
    blp2 = ds.models._BUILDERS["blp2"]()
    L = blp2.divisor([3, -1])
    support = (blp2.named_valuations["ord_e"], blp2.named_valuations["ord_line"])
    a = math.nextafter(0.1, 1)
    assert 0.7 - 0.1 == 0.7 - a and math.fsum((0.7, -0.1, -(0.7 - 0.1))) != 0
    for v in support:  # the gamma walks
        ds.gamma_threshold(blp2, L, v)
    seen = []
    for shifts in [(0.1, 0.7), (a, 0.7), (a, 0.7)]:
        before = walks[0]
        value, grad = expected_order_S_grad(blp2, L, FiltrationSpec(support, shifts))
        ref_value, ref_grad, _ = reference.surface_S_grad(blp2, L, support, shifts)
        assert abs(value - float(ref_value)) <= 1e-14 and max(abs(g - float(r)) for g, r in zip(grad, ref_grad)) <= 1e-14
        seen.append(walks[0] - before)
    assert seen == [1, 1, 0]
