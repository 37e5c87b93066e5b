"""One identity per divisorial valuation: atoms whose valuations have one
centre (`Valuation.centre`) are one valuation, so S, its gradient, norms and
`ma_solve` see them through the least shift only.  A curve of negative
square is the only effective divisor in its class, so two valuations on it
merge; two curves in one class that moves stay two curves."""
from fractions import Fraction

import pytest

import divstab as ds
from divstab import models
from divstab.core import Valuation
from divstab.surface import SurfaceRealization


def _blp2():
    blp2 = models._BUILDERS["blp2"]()
    return blp2, blp2.named_valuations["ord_e"], blp2.curve_valuation("ord_e_again", [0, 1])


def _S_grad(model, L, support, shifts):
    return ds.expected_order_S_grad(model, L, ds.FiltrationSpec(tuple(support), tuple(shifts)))


@pytest.mark.parametrize("L", [[3, 0], [3, -1], [2, -1]])
def test_one_rigid_curve_at_two_shifts_is_the_dirac(L):
    blp2, ord_e, again = _blp2()
    L = blp2.divisor(L)
    assert ord_e.centre == again.centre and ord_e.centre is not None
    dirac, _ = _S_grad(blp2, L, [ord_e], [0.0])
    assert _S_grad(blp2, L, [ord_e, again], [0.0, 0.5]) == (dirac, (1.0, 0.0))
    # the least shift decides, whichever atom holds it; translation adds it
    assert _S_grad(blp2, L, [ord_e, again], [0.5, 0.0]) == (dirac, (0.0, 1.0))
    assert _S_grad(blp2, L, [ord_e, again], [0.25, 0.25]) == (dirac + 0.25, (1.0, 0.0))
    quad = ds.expected_order_S(blp2, L, ds.FiltrationSpec((ord_e, again), (0.0, 0.5)), method="quadrature")
    assert abs(quad - dirac) <= 1e-8


def test_merge_keeps_other_valuations():
    from divstab.filtrations import one_per_centre

    blp2, ord_e, again = _blp2()
    line = blp2.named_valuations["ord_line"]
    L = blp2.divisor([3, -1])
    three = _S_grad(blp2, L, [line, again, ord_e], [0.25, 0.5, 0.0])
    two = _S_grad(blp2, L, [line, ord_e], [0.25, 0.0])
    assert three == (two[0], (two[1][0], 0.0, two[1][1]))
    kept = one_per_centre((line, again, ord_e), (0.25, 0.5, 0.0))
    assert kept == ((line, ord_e), (0.25, 0.0), [0, 2])
    assert one_per_centre((line, ord_e), (0.25, 0.0)) == ((line, ord_e), (0.25, 0.0), None)


def test_point_blowup_through_one_pullback_is_one_valuation():
    p2 = models._BUILDERS["p2"]()
    point = p2.named_valuations["point_blowup"]
    real = point.order_model
    again = Valuation(
        "point_again",
        Fraction(2),
        order_model=SurfaceRealization(real.model, real.model.divisor([0, 1]), base_id="p2", pullback=real.pullback),
    )
    assert again.centre == point.centre
    for L in ([3], [1]):
        L = p2.divisor(L)
        dirac, _ = _S_grad(p2, L, [point], [0.0])
        assert _S_grad(p2, L, [point, again], [0.0, 0.5]) == (dirac, (1.0, 0.0))


def test_two_lines_on_p2_stay_two_curves():
    # H moves, so H names many curves: the documented choice keeps them apart
    p2 = models._BUILDERS["p2"]()
    line = p2.named_valuations["line"]
    other = p2.curve_valuation("line_again", [1])
    S, grad = _S_grad(p2, p2.divisor([3]), [line, other], [0.0, 0.0])
    assert S == pytest.approx(0.5, abs=1e-12)
    assert grad == pytest.approx((0.5, 0.5), abs=1e-12)


def test_centres():
    assert ds.TRIVIAL_VALUATION.centre is None
    p2 = models._BUILDERS["p2"]()
    line, conic = p2.named_valuations["line"], p2.named_valuations["conic"]
    assert line.centre is line and conic.centre is conic
    p2t = models._BUILDERS["p2_toric"]()
    e1 = p2t.named_valuations["e1"]
    assert e1.centre == (1, 0)
    again = p2t.monomial_valuation("e1_again", [1, 0])
    L = p2t.divisor([0, 0, 3])
    dirac, _ = _S_grad(p2t, L, [e1], [0.0])
    assert _S_grad(p2t, L, [e1, again], [0.0, 0.5]) == (dirac, (1.0, 0.0))


def test_norm_and_ma_solve_merge_one_rigid_curve():
    blp2, ord_e, again = _blp2()
    line = blp2.named_valuations["ord_line"]
    minus_k = -blp2.canonical_class
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    split = ds.DivisorialMeasure.make([(ord_e, quarter), (again, quarter), (line, half)])
    merged = ds.DivisorialMeasure.make([(ord_e, half), (line, half)])
    a, b = ds.norm(blp2, minus_k, split), ds.norm(blp2, minus_k, merged)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.gap + b.gap + 1e-12
    solution = ds.ma_solve(blp2, minus_k, split)
    assert solution.flat_directions == (0, 1)
    assert abs(sum(solution.measure_out) - 1.0) <= 1e-12
    assert solution.measure_out[0] == solution.measure_out[1]
