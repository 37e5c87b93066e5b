"""Surface S, grad_t S and the Danskin derivative on surfaces with several
negative curves, against the Fraction walk of tests/_reference.py: the
two-point blow-up of P^2 (three (-1)-curves) and dP6 (six).  Many of the
walks end before the range does, where vol is exactly 0 at a fibre-type
wall (P^2 = 0, P != 0); no chamber search fails there."""
import random
from fractions import Fraction

import pytest

import _reference as reference
import divstab as ds
from divstab.filtrations import FiltrationSpec, expected_order_S_grad
from divstab.surface import SurfaceModel

from test_chamber_kernel import two_point_blowup


def dp6():
    """P^2 blown up at three general points, basis (H, E1, E2, E3): the six
    (-1)-curves E_i and H - E_i - E_j span its effective cone."""
    model = SurfaceModel(
        "dp6",
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        negative_curves=[
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, -1, -1, 0], [1, -1, 0, -1], [1, 0, -1, -1],
        ],
        canonical_class=[-3, 1, 1, 1],
    )
    for name, coeffs in [
        ("e1", [0, 1, 0, 0]), ("e2", [0, 0, 1, 0]), ("e3", [0, 0, 0, 1]), ("l12", [1, -1, -1, 0]),
        ("l13", [1, -1, 0, -1]), ("l23", [1, 0, -1, -1]), ("h", [1, 0, 0, 0]), ("l1", [1, -1, 0, 0]),
    ]:
        model.curve_valuation(name, coeffs)
    return model


MODELS = (two_point_blowup(), dp6())


def big_class(model, rng):
    """a H + sum b_i E_i, a > 0: a positive b_i puts E_i in the negative part."""
    while True:
        D = model.divisor([Fraction(rng.randint(1, 24), rng.randint(1, 3))] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(model.class_rank - 1)
        ])
        if model.is_big(D):
            return D


def cases(seed, count):
    """(model, L, support, shifts, kind): two or three non-trivial
    valuations at dyadic or uniform float shifts in [0, 2]."""
    rng = random.Random(seed)
    for n in range(count):
        model = MODELS[n % len(MODELS)]
        support = tuple(rng.sample(list(model.named_valuations.values()), rng.choice((2, 3))))
        kind = rng.choice(("dyadic", "float"))
        draw = (lambda: rng.randint(0, 16) / 8) if kind == "dyadic" else (lambda: rng.uniform(0, 2))
        yield model, big_class(model, rng), support, tuple(draw() for _ in support), kind


def ends_at_fibre(model, L, support, shifts, chambers):
    """Whether the reference walk ends before lam_max, at a class whose
    positive part is not 0."""
    lam_max = min(Fraction(ds.gamma_threshold(model, L, v)) + Fraction(t) for v, t in zip(support, shifts))
    end = chambers[-1][1]
    if end >= lam_max:
        return False
    D = L
    for v, t in zip(support, shifts):
        D = D - max(end - Fraction(t), 0) * v.order_model.divisor
    return any(model.zariski(D).positive_part.coefficients)


def test_S_and_gradient_match_reference(searches):
    seen = dict.fromkeys(("dyadic", "float", "three", "non_nef", "fibre", "walls"), 0)
    for model, L, support, shifts, kind in cases(2401, 120):
        value, grad = expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
        ref_value, ref_grad, chambers = reference.surface_S_grad(model, L, support, shifts)
        assert abs(value - float(ref_value)) <= 1e-12 * max(1.0, abs(float(ref_value))), (model.name, L, support, shifts)
        for g, r in zip(grad, ref_grad):
            assert abs(g - float(r)) <= 1e-12 * max(1.0, abs(float(r))), (model.name, L, support, shifts)
        seen[kind] += 1
        seen["three"] += len(support) == 3
        seen["non_nef"] += bool(model.zariski(L).negative_part)
        seen["fibre"] += ends_at_fibre(model, L, support, shifts, chambers)
        seen["walls"] += len(chambers) > len(support)
    assert [x for x, failed in searches if failed] == []
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("sign", [1, -1])
def test_order_derivative_matches_one_sided_quotient(sign):
    # d/ds S_{L + s H} at 0+ against (S(L + eps H) - S(L)) / eps, exactly
    eps, rng = Fraction(1, 2**30), random.Random(2402)
    for model, L, support, shifts, _ in cases(2403, 40):
        H = sign * model.divisor([rng.randint(-2, 2) for _ in range(model.class_rank)])
        slope = model.order_derivative(L, support, shifts, H)
        base = reference.surface_S_grad(model, L, support, shifts)[0]
        quotient = float((reference.surface_S_grad(model, L + eps * H, support, shifts)[0] - base) / eps)
        assert abs(slope - quotient) <= 1e-7 * max(1.0, abs(quotient)), (model.name, L, support, shifts, H)


@pytest.mark.parametrize("shifts", [(0.0, 0.0), (0.5, 0.25), (0.1, 0.7)])
def test_fibre_type_end(searches, shifts):
    # 2F1 + 3F2 - lam F1 - (lam - t) (F1 + F2) has P^2 = 0 at a wall where
    # P = a F2 != 0, before either threshold: the walk ends there
    model = ds.bundled_model("p1xp1")
    L = model.divisor([2, 3])
    support = (model.named_valuations["ord_f1"], model.named_valuations["ord_diag"])
    value, grad = expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
    ref_value, ref_grad, chambers = reference.surface_S_grad(model, L, support, shifts)
    assert abs(value - float(ref_value)) <= 1e-12 * max(1.0, abs(float(ref_value)))
    assert max(abs(g - float(r)) for g, r in zip(grad, ref_grad)) <= 1e-12
    assert ends_at_fibre(model, L, support, shifts, chambers)
    assert searches and [x for x, failed in searches if failed] == []
