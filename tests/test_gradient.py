"""The exact supergradient of S in the shifts, `expected_order_S_grad`,
on both backends."""
import itertools
import random
from fractions import Fraction

import pytest

import divstab as ds
from divstab.core import TRIVIAL_VALUATION, gamma_threshold
from divstab.filtrations import FiltrationSpec, expected_order_S, expected_order_S_grad

from _cases import random_big_class, random_support, surface_models

TORIC_NAMES = ("p2_toric", "f1_toric", "p1xp1_toric")


def p3_model():
    p3 = ds.ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
    p3.monomial_valuation("e1", [1, 0, 0])
    p3.monomial_valuation("e12", [1, 1, 0])
    p3.monomial_valuation("e3", [0, 0, 1])
    return p3


def toric_case(model, rng):
    """A random big class on the rays, nef or not, and up to three monomial
    valuations, sometimes with the trivial one."""
    while True:
        L = model.divisor([Fraction(rng.randint(-1, 6), rng.randint(1, 3)) for _ in model.rays])
        if model.is_big(L):
            break
    names = sorted(model.named_valuations)
    support = [model.named_valuations[n] for n in rng.sample(names, rng.randint(1, min(3, len(names))))]
    if rng.random() < 0.4:
        support.append(TRIVIAL_VALUATION)
    rng.shuffle(support)
    return L, tuple(support)


def random_cases(seed, per_model):
    """(model, L, support, shifts) over every bundled surface, the bundled
    toric models and P^3; shifts are three-decimal, so not dyadic."""
    rng = random.Random(seed)
    toric = [ds.bundled_model(n) for n in TORIC_NAMES] + [p3_model()]
    for model in surface_models() + toric:
        for _ in range(per_model):
            if isinstance(model, ds.ToricModel):
                L, support = toric_case(model, rng)
            else:
                L, support = random_big_class(model, rng), random_support(model, rng)
            shifts = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in support)
            yield model, L, support, shifts


def breakpoints(model, L, support, shifts):
    """Every t_i (a trivial cap among them) and every gamma_j + t_j."""
    points = list(shifts)
    for v, t in zip(support, shifts):
        if not v.is_trivial:
            points.append(float(gamma_threshold(model, L, v)) + t)
    return points


def test_matches_central_differences_away_from_breakpoints():
    h, checked = 1e-6, 0
    for model, L, support, shifts in random_cases(61, 12):
        points = breakpoints(model, L, support, shifts)
        if any(abs(a - b) < 1e-4 for a, b in itertools.combinations(points, 2)):
            continue
        _, grad = expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
        for i in range(len(shifts)):
            up = list(shifts)
            dn = list(shifts)
            up[i] += h
            dn[i] -= h
            fd = (
                expected_order_S(model, L, FiltrationSpec(support, tuple(up)))
                - expected_order_S(model, L, FiltrationSpec(support, tuple(dn)))
            ) / (2 * h)
            assert abs(grad[i] - fd) < 1e-6, (model.name, support, shifts, i, grad, fd)
        checked += 1
    assert checked >= 40


def test_sums_to_one_and_S_is_bit_identical():
    for model, L, support, shifts in random_cases(67, 10):
        spec = FiltrationSpec(support, shifts)
        value, grad = expected_order_S_grad(model, L, spec)
        assert type(value) is float and all(type(x) is float for x in grad)
        assert len(grad) == len(support)
        assert abs(sum(grad) - 1.0) < 1e-12, (model.name, support, shifts, grad)
        assert min(grad) >= -1e-12
        assert value.hex() == expected_order_S(model, L, spec).hex()


def test_least_shifted_trivial_atom_takes_everything():
    rng = random.Random(71)
    for model, L, support, shifts in random_cases(73, 6):
        nontrivial = [v for v in support if not v.is_trivial]
        triv = ds.Valuation("other_trivial", 0, is_trivial=True)
        # the trivial atom strictly below every other shift, a second
        # trivial atom above it
        full = tuple(nontrivial) + (TRIVIAL_VALUATION, triv)
        t = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in nontrivial)
        low = min(t, default=1.0) - 0.25
        order = list(range(len(full)))
        rng.shuffle(order)
        spec = FiltrationSpec(
            tuple(full[i] for i in order), tuple((t + (low, low + 0.1))[i] for i in order)
        )
        _, grad = expected_order_S_grad(model, L, spec)
        unit = tuple(1.0 if v is TRIVIAL_VALUATION else 0.0 for v in spec.support)
        assert grad == unit, (model.name, spec, grad)


def test_trivial_cap_at_the_least_shift_binds():
    # at t = (0, 0) the trivial cap empties the range: S = 0 and the
    # supergradient is the trivial atom's unit vector, not ord_s's
    f1 = ds.bundled_model("f1")
    spec = FiltrationSpec((f1.named_valuations["ord_s"], TRIVIAL_VALUATION), (0.0, 0.0))
    assert expected_order_S_grad(f1, f1.divisor([2, 3]), spec) == (0.0, (0.0, 1.0))
    p2t = ds.bundled_model("p2_toric")
    spec = FiltrationSpec((p2t.named_valuations["e1"], TRIVIAL_VALUATION), (0.0, 0.0))
    assert expected_order_S_grad(p2t, p2t.divisor([0, 0, 3]), spec) == (0.0, (0.0, 1.0))


def test_duplicate_pieces_give_the_first_the_cell():
    p2t = ds.bundled_model("p2_toric")
    triv = ds.Valuation("other_trivial", 0, is_trivial=True)
    e1 = p2t.named_valuations["e1"]
    spec = FiltrationSpec((e1, TRIVIAL_VALUATION, triv), (0.0, 0.5, 0.5))
    value, grad = expected_order_S_grad(p2t, p2t.divisor([0, 0, 3]), spec)
    assert grad[2] == 0.0 and abs(grad[0] + grad[1] - 1.0) < 1e-15


def test_same_validation_as_expected_order_S():
    p2 = ds.bundled_model("p2")
    line = p2.named_valuations["line"]
    with pytest.raises(ds.GeometryError):
        expected_order_S_grad(p2, p2.divisor([-1]), FiltrationSpec((line,), (0.0,)))
    p2t = ds.bundled_model("p2_toric")
    with pytest.raises(ds.GeometryError):
        expected_order_S_grad(
            p2t, p2t.divisor([0, 0, -1]), FiltrationSpec((p2t.named_valuations["e1"],), (0.0,))
        )
    with pytest.raises(ds.GeometryError):
        # realised on two different models: rejected whatever the shifts
        expected_order_S_grad(
            p2, p2.divisor([3]),
            FiltrationSpec((line, p2.named_valuations["point_blowup"]), (0.0, 0.0)),
        )
