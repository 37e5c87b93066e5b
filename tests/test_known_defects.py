"""Measured defects, pinned as strict xfails until the ROADMAP item named in
each mark mends them; the mending change removes the mark, and the test
stays as a regression test."""
import pytest

import divstab as ds
from divstab import models


def test_one_rigid_curve_named_twice_is_one_valuation():
    blp2 = models._BUILDERS["blp2"]()
    ord_e = blp2.named_valuations["ord_e"]
    again = blp2.curve_valuation("ord_e_again", [0, 1])
    L = blp2.divisor([3, 0])
    assert ds.expected_order_S(blp2, L, ds.FiltrationSpec((ord_e,), (0.0,))) == 2.0
    # E is the only effective divisor in its class: the pair is ord_E again
    assert ds.expected_order_S(blp2, L, ds.FiltrationSpec((ord_e, again), (0.0, 0.0))) == 2.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(c): the toric Danskin term is a two-sided difference")
def test_toric_blowup_pullback_has_no_witness():
    # the toric blow-up of P^2 at a fixed point, L = pi^* 3H, a Dirac at E;
    # on the surface blp2 the same b-divisor has beta = 0
    blp2 = ds.ToricModel("blp2_toric", rays=[[1, 0], [1, 1], [0, 1], [-1, -1]])
    E = blp2.monomial_valuation("E", [1, 1])
    L = blp2.divisor([0, 0, 0, 3])
    mu = ds.DivisorialMeasure.make([(E, 1)])
    assert abs(ds.beta(blp2, L, mu).beta) <= 1e-6
    report = ds.divisorial_stability_probe(blp2, L, [mu])
    assert report.witness is None and not report.unstable
