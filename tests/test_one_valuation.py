"""Measures with one non-trivial centre, mu = xi_0 delta_triv + xi_v delta_v,
in closed form on surfaces.  The norm's maximizer is where vol(L - y E_v) =
xi_0 vol L (`SurfaceModel.one_valuation_maximizer`), so the engine starts
there and its first plane certifies; the one-sided derivative of S in L
integrates P . H over the chambers of the gamma walk, so beta walks nothing.
A model without the closed form gets the same numbers by search."""
import math
import random
from fractions import Fraction

import pytest

import divstab as ds
from divstab import models, stability
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.surface import _integrate

from _cases import random_big_class, random_shifts, surface_models
from test_protocol import Forwarding


def _measure(model, atoms):
    v = model.named_valuations
    return DivisorialMeasure.make([(TRIVIAL_VALUATION if n == "trivial" else v[n], Fraction(m)) for n, m in atoms])


@pytest.fixture
def evaluations(monkeypatch):
    calls = []
    primitive = stability.expected_order_S_grad

    def counting(model, L, spec):
        calls.append(spec.shifts)
        return primitive(model, L, spec)

    monkeypatch.setattr(stability, "expected_order_S_grad", counting)
    return calls


def test_p2_half_line_is_one_evaluation_at_the_exact_maximizer(evaluations):
    p2 = ds.bundled_model("p2")
    L, mu = p2.divisor([3]), _measure(p2, [("trivial", "1/2"), ("line", "1/2")])
    r = ds.norm(p2, L, mu)
    # vol(3H - yH) = (3 - y)^2 = 9 / 2
    (t_star,) = r.maximizers
    assert abs(t_star[0] - (3 - 3 / math.sqrt(2))) <= 2 * math.ulp(t_star[0]) and t_star[1] == 0.0
    assert len(evaluations) == 1 and r.converged
    assert ds.ma_solve(p2, L, mu).residual <= 1e-15


# (model, L = c (-K), atoms, c): the norm is homogeneous of degree 1 in L, so
# its derivative along K at L is -norm / c
HOMOGENEOUS = [
    ("blp2", ["1", "-1/3"], [("trivial", "5/8"), ("ord_e", "3/8")], Fraction(1, 3)),
    ("p2", ["18"], [("line", "5/9"), ("trivial", "4/9")], Fraction(6)),
    ("blp2", ["3", "-1"], [("ord_e", "1/2"), ("trivial", "1/2")], Fraction(1)),
]


@pytest.mark.parametrize("name, L, atoms, c", HOMOGENEOUS, ids=["blp2_third", "p2_18H", "blp2_-K"])
def test_beta_derivative_is_homogeneous(name, L, atoms, c):
    model = ds.bundled_model(name)
    assert model.divisor(L) == (-c) * model.canonical_class
    rep = ds.beta(model, model.divisor(L), _measure(model, atoms))
    assert abs(rep.derivative_term + rep.norm / float(c)) <= 1e-14


def test_beta_of_one_centre_walks_nothing(searches):
    blp2 = models._BUILDERS["blp2"]()
    again = blp2.curve_valuation("ord_e_again", [0, 1])
    L = blp2.divisor([3, -1])
    ord_e = blp2.named_valuations["ord_e"]
    for atoms in [
        [(ord_e, 1)],
        [(ord_e, Fraction(1, 2)), (TRIVIAL_VALUATION, Fraction(1, 2))],
        [(ord_e, Fraction(1, 4)), (again, Fraction(1, 4)), (TRIVIAL_VALUATION, Fraction(1, 2))],
    ]:
        ds.beta(blp2, L, DivisorialMeasure.make(atoms))
    assert searches == []


CASES = [
    ("p2", [3], [("trivial", "1/2"), ("line", "1/2")]),
    ("p2", [5], [("point_blowup", "2/3"), ("trivial", "1/3")]),
    ("blp2", [1, "-1/3"], [("trivial", "5/8"), ("ord_e", "3/8")]),
    ("blp2", [3, -1], [("ord_line", "1/5"), ("trivial", "4/5")]),
    ("f1", [2, 3], [("trivial", "1/3"), ("ord_s", "2/3")]),
    ("p1xp1", ["5/2", 1], [("ord_diag", "3/7"), ("trivial", "4/7")]),
]


@pytest.mark.parametrize("name, L, atoms", CASES, ids=[f"{c[0]}_{c[2][0][0]}_{c[2][1][0]}" for c in CASES])
def test_search_without_the_closed_form_agrees(name, L, atoms):
    # a model that forwards only the five abstract methods has no closed form
    model = models._BUILDERS[name]()
    wrapped = Forwarding(model)
    L, mu = model.divisor(L), _measure(model, atoms)
    fast, slow = ds.norm(model, L, mu), ds.norm(wrapped, L, mu)
    assert fast.converged and slow.converged
    assert abs(fast.value - slow.value) <= fast.gap + slow.gap
    for side in ("left", "right"):
        K = model.canonical_class
        assert abs(ds.danskin_derivative(model, L, mu, K, side) - ds.danskin_derivative(wrapped, L, mu, K, side)) <= 1e-8
    assert abs(ds.beta(model, L, mu).beta - ds.beta(wrapped, L, mu).beta) <= 1e-8


def test_two_atoms_of_one_rigid_centre_sum_their_masses(evaluations):
    blp2 = models._BUILDERS["blp2"]()
    again = blp2.curve_valuation("ord_e_again", [0, 1])
    ord_e, L = blp2.named_valuations["ord_e"], blp2.divisor([3, -1])
    mu = DivisorialMeasure.make([(ord_e, Fraction(1, 4)), (TRIVIAL_VALUATION, Fraction(1, 2)), (again, Fraction(1, 4))])
    merged = DivisorialMeasure.make([(ord_e, Fraction(1, 2)), (TRIVIAL_VALUATION, Fraction(1, 2))])
    r = ds.norm(blp2, L, mu)
    # vol(3H - (1 + y) E) = 9 - (1 + y)^2 = 4 at the maximizer of the merged measure
    y = evaluations[0][1]
    assert abs(y - (math.sqrt(5) - 1)) <= 4 * math.ulp(y) and evaluations[0][::2] == (0.0, 0.0)
    m = ds.norm(blp2, L, merged)
    assert r.converged and abs(r.value - m.value) <= r.gap + m.gap
    sol = ds.ma_solve(blp2, L, mu)
    assert sol.flat_directions == (0, 2) and sol.residual <= 1e-12


def test_order_derivative_matches_the_walk():
    """The closed form on the gamma walk's chambers against one walk of the
    same compiled problem, on random big classes, shifts with and without a
    trivial atom, and p2's point blow-up, realised on another surface."""
    rng, seen = random.Random(29), 0
    for model in surface_models():
        for _ in range(12):
            L = random_big_class(model, rng)
            v = model.named_valuations[rng.choice(sorted(model.named_valuations))]
            support = (v, TRIVIAL_VALUATION) if rng.random() < 0.7 else (v,)
            shifts = random_shifts(rng, len(support))
            H = model.canonical_class if rng.random() < 0.5 else model.divisor([rng.randint(-2, 2) for _ in range(model.class_rank)])
            problem = model._compiled(L, support)
            closed = model.order_derivative(L, support, shifts, H)
            ts = [float(s) for s in shifts]
            t0, lam_max = min(ts), min([ts[0] + problem.thresholds()[0]] + ts[1:])
            if lam_max <= t0:
                assert closed == 0.0
                continue
            # the walk's records run in lam - t0
            iv, (ih,), _ = _integrate(problem.walk(ts[:1], t0, lam_max), lam_max - t0, problem.pulled([H]), ())
            plh = float(model.pairing(model.zariski(L).positive_part, H))
            walked = (2.0 / problem.volume) * (ih - (plh / problem.volume) * iv)
            assert abs(closed - walked) <= 1e-12 * (1 + abs(walked))
            seen += 1
    assert seen >= 20
