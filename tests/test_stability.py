import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

import divstab as ds
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.filtrations import FiltrationSpec, expected_order_S, one_per_centre
from divstab import stability
from divstab.cli import _jsonify
from _cases import (
    FAST_OPTIONS,
    norm_enlarged_support_check,
    random_big_class,
    random_masses,
    random_measure,
    surface_models,
)

p2 = ds.bundled_model("p2")
blp2 = ds.bundled_model("blp2")
p1xp1 = ds.bundled_model("p1xp1")

LINE = p2.named_valuations["line"]
ORD_E = blp2.named_valuations["ord_e"]
L3 = p2.divisor([3])
LBL = blp2.divisor([3, -1])


def dirac(v):
    return DivisorialMeasure.make([(v, 1)])


class TestNorm:
    def test_single_valuation_equals_expected_order(self):
        r = ds.norm(p2, L3, dirac(LINE))
        assert abs(r.value - 1.0) < 1e-8

    def test_trivial_measure_is_zero(self):
        for model, L in [(p2, L3), (blp2, LBL)]:
            r = ds.norm(model, L, dirac(TRIVIAL_VALUATION))
            assert abs(r.value) < 1e-12

    def test_blowup_exceptional(self):
        r = ds.norm(blp2, LBL, dirac(ORD_E))
        assert abs(r.value - 7.0 / 6.0) < 1e-8

    def test_maximizers_normalized_within_box(self):
        rng = random.Random(19)
        for model in surface_models():
            L = random_big_class(model, rng)
            mu = random_measure(model, rng)
            r = ds.norm(model, L, mu, options=FAST_OPTIONS)
            assert r.value >= -1e-12
            for t in r.maximizers:
                assert abs(min(t)) < 1e-12
                assert all(x <= r.box_bound + 1e-9 for x in t)

    def test_two_atom_norm_matches_grid_oracle(self):
        mu = DivisorialMeasure.make([(ORD_E, Fraction(2, 3)), (TRIVIAL_VALUATION, Fraction(1, 3))])
        r = ds.norm(blp2, LBL, mu)
        xi = [float(m) for m in mu.masses]

        def g(t):
            s = expected_order_S(blp2, LBL, FiltrationSpec(mu.support, t))
            return s - sum(x * v for x, v in zip(xi, t))

        steps = 240
        grid_best = max(
            g((i * r.box_bound / steps, j * r.box_bound / steps))
            for i in range(steps + 1)
            for j in (0, )  # translation invariance: scan one normalized face
        )
        grid_best = max(
            grid_best,
            max(g((0.0, j * r.box_bound / steps)) for j in range(steps + 1)),
        )
        assert r.value >= grid_best - 1e-9
        assert abs(r.value - grid_best) < 1e-3

    def test_zero_mass_shifts_lowered_to_the_box(self):
        # g does not depend on the shift of an atom of mass 0 where that atom
        # is inactive, so the engine may end with it past box_bound above the
        # least shift; the norm reports it lowered to box_bound
        p2t = ds.bundled_model("p2_toric")
        e1, e2, diag = (p2t.named_valuations[n] for n in ("e1", "e2", "diag"))
        L = p2t.divisor([4, 2, 3])
        r = ds.norm(p2t, L, DivisorialMeasure.make([(e2, 0), (diag, 1), (e1, 0)]))
        assert r.maximizers == ((10.0, 0.0, 10.0),) and r.box_bound == 10.0
        assert r.value == 6.0 == ds.norm(p2t, L, dirac(diag)).value
        assert r.converged

    def test_requires_big(self):
        with pytest.raises(ds.GeometryError):
            ds.norm(p2, p2.divisor([-1]), dirac(LINE))

    def test_exact_zariski_not_repeated_per_S(self, monkeypatch):
        # hundreds of S calls on one (L, support) share one exact vol(L)
        calls = []
        zariski = ds.SurfaceModel.zariski

        def counting(self, D):
            calls.append(D)
            return zariski(self, D)

        monkeypatch.setattr(ds.SurfaceModel, "zariski", counting)
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION, Fraction(1, 2)), (LINE, Fraction(1, 2))]
        )
        ds.norm(p2, L3, mu)
        assert len(calls) <= 8


class TestNormWork:
    """Evaluations of (S, grad S) per norm, counted at the engine's one
    call site, and the certified gap."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # from models with no kept class: a norm solved earlier is not kept
        for model in (p2, blp2, ds.bundled_model("p2_toric")):
            monkeypatch.setattr(model, "_memo", (None, None))
            monkeypatch.setattr(model, "_classes", ())
        calls = []
        primitive = stability.expected_order_S_grad

        def counting(model, L, spec):
            calls.append(spec.shifts)
            return primitive(model, L, spec)

        monkeypatch.setattr(stability, "expected_order_S_grad", counting)
        return calls

    def test_dirac_norm_is_one_evaluation_of_S_at_zero(self, evaluations):
        r = ds.norm(blp2, LBL, dirac(ORD_E))
        assert len(evaluations) == 1
        assert r.value == expected_order_S(blp2, LBL, FiltrationSpec((ORD_E,), (0.0,)))
        assert r.gap == 0.0 and r.converged

    def test_p2_half_line_is_certified(self, evaluations):
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION, Fraction(1, 2)), (LINE, Fraction(1, 2))]
        )
        r = ds.norm(p2, L3, mu)
        exact = (math.sqrt(2.0) - 1.0) / 2.0
        assert len(evaluations) <= 40
        # value is g at a point, evaluated in floating point: a lower bound
        # on the norm up to the rounding of S
        assert r.value - 1e-15 <= exact <= r.value + r.gap
        assert r.gap <= 1e-9 and r.converged
        assert type(r.value) is float and type(r.gap) is float

    def test_p2_toric_two_coordinates(self, evaluations):
        p2t = ds.bundled_model("p2_toric")
        mu = DivisorialMeasure.make(
            [(p2t.named_valuations["e1"], Fraction(1, 2)), (p2t.named_valuations["e2"], Fraction(1, 2))]
        )
        r = ds.norm(p2t, p2t.divisor([0, 0, 3]), mu)
        assert len(evaluations) <= 40
        assert abs(r.value - 0.5) < 1e-9
        assert r.converged

    def test_gap_bounds_the_norm_on_three_atoms(self):
        # a three-atom norm against a fine grid of g around its maximizer
        f1 = ds.bundled_model("f1")
        L = f1.divisor([2, 3])
        atoms = [(f1.named_valuations[n], Fraction(m, 6)) for n, m in (("ord_s", 1), ("ord_f", 2), ("ord_sf", 3))]
        mu = DivisorialMeasure.make(atoms)
        r = ds.norm(f1, L, mu)
        assert r.converged and r.gap <= 1e-9
        xi = [float(m) for m in mu.masses]
        t_star = r.maximizers[0]

        def g(t):
            s = expected_order_S(f1, L, FiltrationSpec(mu.support, t))
            return s - sum(x * v for x, v in zip(xi, t))

        assert abs(r.value - g(t_star)) <= 1e-15
        for step in itertools.product((-1e-3, 0.0, 1e-3), repeat=3):
            assert g(tuple(a + b for a, b in zip(t_star, step))) <= r.value + r.gap + 1e-15


class TestEngine:
    """The certified maximizer on concave functions with kinks at the top,
    where L-BFGS-B stalls and the cutting planes must finish."""

    @staticmethod
    def kinked(u):
        # max 1 at (0.3, -0.2)
        value = 1.0 - abs(u[0] - 0.3) - 2.0 * abs(u[1] + 0.2)
        return value, np.array([-np.sign(u[0] - 0.3), -2.0 * np.sign(u[1] + 0.2)])

    @staticmethod
    def ridge(u):
        # max -0.04 at (0.3, -0.3), on a kink along u0 + u1 = 0
        value = -abs(u[0] - 0.3) - 0.5 * abs(u[0] + u[1]) - (u[1] + 0.1) ** 2
        s = 0.5 * np.sign(u[0] + u[1])
        return value, np.array([-np.sign(u[0] - 0.3) - s, -s - 2.0 * (u[1] + 0.1)])

    def test_kinked_maximum_is_certified(self):
        u, bound = stability._certified_max(self.kinked, 2, 4.0, 1e-9)
        assert bound >= 1.0
        assert bound - self.kinked(u)[0] <= 1e-9

    def test_bound_holds_whatever_the_budget(self):
        for tol in (1e-3, 1e-9):
            u, bound = stability._certified_max(self.ridge, 2, 4.0, tol)
            assert self.ridge(u)[0] <= -0.04 <= bound


class TestEnlargedSupport:
    def test_disjoint_extra_valuation(self):
        assert norm_enlarged_support_check(p2, L3, dirac(LINE), [p2.named_valuations["conic"]])

    def test_empty_extra(self):
        assert norm_enlarged_support_check(p2, L3, dirac(LINE), [])

    def test_blowup_case(self):
        assert norm_enlarged_support_check(
            blp2, LBL, dirac(ORD_E), [blp2.named_valuations["ord_line_p"]]
        )

    def test_overlap_rejected(self):
        with pytest.raises(ds.GeometryError):
            norm_enlarged_support_check(p2, L3, dirac(LINE), [LINE])


class TestDanskin:
    def test_direction_L_gives_norm_both_sides(self):
        for side in ("left", "right"):
            d = ds.danskin_derivative(p2, L3, dirac(LINE), L3, side=side)
            assert abs(d - 1.0) < 1e-6
        for side in ("left", "right"):
            d = ds.danskin_derivative(blp2, LBL, dirac(ORD_E), LBL, side=side)
            assert abs(d - 7.0 / 6.0) < 1e-6

    def test_trivial_measure_zero_derivative(self):
        d = ds.danskin_derivative(p2, L3, dirac(TRIVIAL_VALUATION), p2.divisor([1]), side="right")
        assert abs(d) < 1e-9

    def test_canonical_direction_on_plane(self):
        d = ds.danskin_derivative(p2, L3, dirac(LINE), p2.canonical_class, side="left")
        assert abs(d + 1.0) < 1e-6

    def test_near_the_wall_of_the_big_cone(self):
        # S_L(ord_e) = (a - b)(2a + b) / (3(a + b)) at L = aH - bE, so its
        # derivative along -H is -2a(a + 2b) / (3(a + b)^2); the big cone is
        # open, and L is big however close b is to a
        a, b = 1, 1 - Fraction(1, 10**7)
        L = blp2.divisor([a, -b])
        d = ds.danskin_derivative(blp2, L, dirac(ORD_E), blp2.divisor([-1, 0]), side="right")
        assert abs(d - float(-2 * a * (a + 2 * b) / (3 * (a + b) ** 2))) < 1e-12

    def test_right_at_least_left(self):
        rng = random.Random(29)
        for model in surface_models():
            L = random_big_class(model, rng)
            mu = random_measure(model, rng)
            H = model.divisor([Fraction(rng.randint(-1, 1)) for _ in range(model.class_rank)])
            try:
                right = ds.danskin_derivative(model, L, mu, H, side="right", options=FAST_OPTIONS)
                left = ds.danskin_derivative(model, L, mu, H, side="left", options=FAST_OPTIONS)
            except ds.GeometryError:
                continue  # direction left the big cone
            assert right >= left - 1e-7

    def test_surface_formula_matches_finite_differences(self):
        # dual route for the gradient of S in the bundle direction
        rng = random.Random(31)
        for model in surface_models():
            for _ in range(5):
                L = random_big_class(model, rng)
                support = random_measure(model, rng).support
                shifts = [rng.uniform(0, 1.5) for _ in support]
                H = model.canonical_class
                exact = model.order_derivative(L, support, shifts, H)
                # S is only piecewise smooth in the bundle direction, so the
                # central difference error is O(eps) near kinks; keep eps small
                eps = Fraction(1, 2**18)
                spec = FiltrationSpec(support, tuple(shifts))
                up = expected_order_S(model, L + eps * H, spec)
                dn = expected_order_S(model, L + (-eps) * H, spec)
                fd = (up - dn) / (2.0 * float(eps))
                assert abs(exact - fd) < 1e-5


class TestBeta:
    def test_plane_line_semistable(self):
        rep = ds.beta(p2, L3, dirac(LINE))
        assert rep.entropy_term == 1
        assert abs(rep.derivative_term + 1.0) < 1e-6
        assert abs(rep.beta) < 1e-6
        assert rep.beta == float(rep.entropy_term) + rep.derivative_term

    def test_blowup_destabilizes(self):
        rep = ds.beta(blp2, LBL, dirac(ORD_E))
        assert abs(rep.beta + 1.0 / 6.0) < 1e-6
        assert rep.stability_ratio is not None and rep.stability_ratio < 0

    def test_trivial_measure(self):
        rep = ds.beta(p2, L3, dirac(TRIVIAL_VALUATION))
        assert rep.entropy_term == 0
        assert abs(rep.beta) < 1e-9
        assert rep.stability_ratio is None

    def test_ratio_at_a_small_scale(self):
        # beta does not change when L is scaled and the norm scales with it,
        # so the ratio on p2 stays 0 however small L is
        for L in (L3, p2.divisor([Fraction(3, 10**10)])):
            assert ds.beta(p2, L, dirac(LINE)).stability_ratio == 0.0
            assert ds.divisorial_stability_probe(p2, L, [dirac(LINE)]).min_ratio == 0.0

    def test_anticanonical_derivative_equals_minus_norm(self):
        # for L = -K the two computation paths must agree
        rng = random.Random(41)
        for model, L in [(p2, L3), (blp2, LBL), (p1xp1, p1xp1.divisor([2, 2]))]:
            for _ in range(3):
                mu = random_measure(model, rng)
                rep = ds.beta(model, L, mu)
                assert abs(rep.derivative_term + rep.norm) < 1e-6

    def test_superadditivity_in_masses(self):
        # for L = -K: beta(mu) >= sum xi_i beta(dirac_i) - tol
        rng = random.Random(43)
        for model, L in [(p2, L3), (blp2, LBL)]:
            for _ in range(3):
                mu = random_measure(model, rng, allow_trivial=False, max_size=2)
                total = ds.beta(model, L, mu).beta
                parts = sum(
                    float(m) * ds.beta(model, L, dirac(v)).beta for v, m in mu.atoms
                )
                assert total >= parts - 1e-6


class TestNormShape:
    def test_homogeneity_in_L(self):
        rng = random.Random(47)
        for model in surface_models():
            L = random_big_class(model, rng)
            mu = random_measure(model, rng)
            s = Fraction(rng.randint(-3, 3), 16)
            base = ds.norm(model, L, mu, options=FAST_OPTIONS).value
            scaled = ds.norm(model, (1 + s) * L, mu, options=FAST_OPTIONS).value
            assert abs(scaled - (1 + float(s)) * base) < 1e-6

    def test_convexity_in_masses(self):
        rng = random.Random(53)
        support = (ORD_E, blp2.named_valuations["ord_line"])
        for _ in range(4):
            xi_a = random_masses(rng, 2)
            xi_b = random_masses(rng, 2)
            theta = Fraction(rng.randint(1, 7), 8)
            mid = [theta * a + (1 - theta) * b for a, b in zip(xi_a, xi_b)]
            na = ds.norm(blp2, LBL, DivisorialMeasure.make(list(zip(support, xi_a)))).value
            nb = ds.norm(blp2, LBL, DivisorialMeasure.make(list(zip(support, xi_b)))).value
            nm = ds.norm(blp2, LBL, DivisorialMeasure.make(list(zip(support, mid)))).value
            assert nm <= float(theta) * na + (1 - float(theta)) * nb + 1e-7


class TestDelta:
    def test_plane(self):
        value, witness = ds.delta_anticanonical(
            p2, [LINE, p2.named_valuations["conic"], p2.named_valuations["point_blowup"]]
        )
        assert witness.name == "line"
        assert abs(value - 1.0) < 1e-8

    def test_blowup(self):
        value, witness = ds.delta_anticanonical(
            blp2, [ORD_E, blp2.named_valuations["ord_line"]]
        )
        assert witness.name == "ord_e"
        assert abs(value - 6.0 / 7.0) < 1e-8

    def test_quadric(self):
        value, witness = ds.delta_anticanonical(
            p1xp1, [p1xp1.named_valuations["ord_f1"]]
        )
        assert abs(value - 1.0) < 1e-8

    def test_empty_candidates_rejected(self):
        with pytest.raises(ds.GeometryError):
            ds.delta_anticanonical(p2, [])

    def test_trivial_candidate_rejected(self):
        with pytest.raises(ds.GeometryError):
            ds.delta_anticanonical(p2, [TRIVIAL_VALUATION])


class TestMASolver:
    def test_trivial_measure(self):
        sol = ds.ma_solve(p2, L3, dirac(TRIVIAL_VALUATION))
        assert sol.t_star == (0.0,)
        assert abs(sol.measure_out[0] - 1.0) < 1e-9
        assert sol.residual < 1e-9

    def test_flat_single_valuation(self):
        sol = ds.ma_solve(p2, L3, dirac(LINE))
        assert sol.residual < 1e-6

    def test_mixed_measure(self):
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION, Fraction(1, 2)), (LINE, Fraction(1, 2))]
        )
        sol = ds.ma_solve(p2, L3, mu)
        assert sol.residual <= 1e-4
        assert abs(sum(sol.measure_out) - 1.0) <= 1e-6
        norm_value = ds.norm(p2, L3, mu).value
        assert abs(sol.value - norm_value) <= 1e-8

    def test_value_equals_norm_generally(self):
        rng = random.Random(59)
        for model in surface_models():
            L = random_big_class(model, rng)
            mu = random_measure(model, rng)
            sol = ds.ma_solve(model, L, mu, options=FAST_OPTIONS)
            val = ds.norm(model, L, mu, options=FAST_OPTIONS).value
            assert abs(sol.value - val) <= 1e-8


class TestProbe:
    def test_blowup_instability_witness(self):
        report = ds.divisorial_stability_probe(blp2, LBL, [dirac(ORD_E)], epsilon=0.0)
        assert report.unstable
        assert report.witness == "ord_e"
        assert report.min_ratio < 0

    def test_plane_semistable_boundary(self):
        report = ds.divisorial_stability_probe(
            p2, L3, [dirac(LINE), dirac(p2.named_valuations["conic"])], epsilon=0.0
        )
        assert not report.unstable
        assert abs(report.min_ratio) < 1e-6

    def test_trivial_only_vacuous(self):
        report = ds.divisorial_stability_probe(p2, L3, [dirac(TRIVIAL_VALUATION)])
        assert report.min_ratio is None
        assert not report.unstable

    def test_semantics_label_present(self):
        report = ds.divisorial_stability_probe(p2, L3, [dirac(LINE)])
        assert "evidence" in report.semantics
        assert "witness" in report.semantics


class TestProbeChecksBignessOnce:
    @pytest.fixture
    def walks(self, monkeypatch):
        # gamma walks on blp2, from an empty memo: no class kept
        calls = []
        threshold = ds.SurfaceModel.closed_form_threshold

        def counting(self, L, v):
            calls.append(v.name)
            return threshold(self, L, v)

        monkeypatch.setattr(ds.SurfaceModel, "closed_form_threshold", counting)
        monkeypatch.setattr(blp2, "_memo", (None, None))
        monkeypatch.setattr(blp2, "_classes", ())
        return calls

    def test_each_valuation_walked_once_per_probe(self, walks):
        half = DivisorialMeasure.make([(ORD_E, Fraction(1, 2)), (TRIVIAL_VALUATION, Fraction(1, 2))])
        measures = [dirac(ORD_E), dirac(blp2.named_valuations["ord_line"]), half]
        report = ds.divisorial_stability_probe(blp2, LBL, measures)
        assert sorted(walks) == ["ord_e", "ord_line"]
        # each entry is the report beta gives alone
        for mu, entry in zip(measures, report.entries):
            assert entry.beta == ds.beta(blp2, LBL, mu)

    def test_bundled_instability_config(self, walks):
        import json
        from importlib import resources

        from divstab import cli

        text = (resources.files("divstab") / "configs" / "blp2_instability.json").read_text()
        model, L, tasks, tolerances, seed = cli.parse_config(json.loads(text))
        for task in tasks:
            cli.run_task(model, L, task, tolerances, seed)
        # gamma walks ord_e, and delta on -K = L the other two candidates;
        # the probe finds every threshold it needs in the memo of L
        assert walks == ["ord_e", "ord_line", "ord_line_p"]

    def test_probe_and_beta_still_reject_a_class_that_is_not_big(self):
        # norm checks that L is big, for the probe and for beta
        L = blp2.divisor([0, -1])
        with pytest.raises(ds.GeometryError, match="^norm requires a big class$"):
            ds.divisorial_stability_probe(blp2, L, [dirac(ORD_E)])
        with pytest.raises(ds.GeometryError, match="^norm requires a big class$"):
            ds.beta(blp2, L, dirac(ORD_E))


class TestKeptSolves:
    """A class keeps its last 8 solved norms, by measure and options, and on
    a surface its last 4 positive products: norm, ma_solve, beta, the
    Danskin derivatives and the probe read one solve, bit for bit."""

    READERS = (
        lambda m, L, H, mu, o: ds.norm(m, L, mu, o),
        lambda m, L, H, mu, o: ds.ma_solve(m, L, mu, o),
        lambda m, L, H, mu, o: ds.beta(m, L, mu, o),
        lambda m, L, H, mu, o: ds.danskin_derivative(m, L, mu, H, "left", o),
        lambda m, L, H, mu, o: ds.danskin_derivative(m, L, mu, H, "right", o),
        lambda m, L, H, mu, o: ds.divisorial_stability_probe(m, L, [mu], options=o),
    )

    @staticmethod
    def half_line(model):
        return DivisorialMeasure.make([(TRIVIAL_VALUATION, Fraction(1, 2)), (model.named_valuations["line"], Fraction(1, 2))])

    @classmethod
    def answers(cls, model, options=stability.OptimizerOptions(), readers=None):
        """Each reader's output at 3H, H the line class, as report JSON:
        floats by repr, so -0.0 and 0.0 differ."""
        L, H, mu = model.divisor([3]), model.divisor([1]), cls.half_line(model)
        return [json.dumps(_jsonify(read(model, L, H, mu, options)), sort_keys=True) for read in readers or cls.READERS]

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        primitive = stability.expected_order_S_grad
        monkeypatch.setattr(stability, "expected_order_S_grad", lambda *a: calls.append(a[2].shifts) or primitive(*a))
        return calls

    def test_one_solve_serves_every_reader(self, evaluations):
        model = ds.models._BUILDERS["p2"]()
        ds.norm(model, model.divisor([3]), self.half_line(model))
        assert evaluations
        del evaluations[:]
        answers = self.answers(model)
        assert evaluations == []
        # each reader alone on a fresh model solves, and gives the same bits
        assert [self.answers(ds.models._BUILDERS["p2"](), readers=[read])[0] for read in self.READERS] == answers
        assert evaluations

    def test_bounds(self):
        model = ds.models._BUILDERS["p2"]()
        L, line = model.divisor([3]), model.named_valuations["line"]
        measures = [DivisorialMeasure.make([(TRIVIAL_VALUATION, Fraction(k, 21)), (line, 1 - Fraction(k, 21))])
                    for k in range(1, 21)]
        results = [ds.norm(model, L, mu) for mu in measures]
        kept = model._memo_of(L)["norms"]
        assert [key for key, _ in kept] == [(mu, stability.OptimizerOptions()) for mu in measures[:-9:-1]]
        assert [value[0] for _, value in kept] == results[:-9:-1]
        blp2_fresh = ds.models._BUILDERS["blp2"]()
        D = blp2_fresh.divisor([3, -1])
        products = [blp2_fresh.positive_product_against(D, blp2_fresh.divisor([k, 1])) for k in range(10)]
        assert [value for _, value in blp2_fresh._memo_of(D)["products"]] == products[:-5:-1]
        # a product pushed out is formed again, equal
        assert blp2_fresh.positive_product_against(D, blp2_fresh.divisor([0, 1])) == products[0]

    def test_another_tolerance_is_another_solve(self, evaluations):
        model = ds.models._BUILDERS["p2"]()
        L, mu = model.divisor([3]), self.half_line(model)
        loose = stability.OptimizerOptions(tol=1e-6)
        ds.norm(model, L, mu)
        del evaluations[:]
        ds.norm(model, L, mu, loose)
        assert evaluations
        del evaluations[:]
        ds.norm(model, L, mu)
        ds.norm(model, L, mu, stability.OptimizerOptions(tol=1e-6))
        assert evaluations == []
        assert self.answers(model, loose) == self.answers(ds.models._BUILDERS["p2"](), loose)

    def test_not_big_is_raised_again(self):
        model = ds.models._BUILDERS["p2"]()
        mu = self.half_line(model)
        for _ in range(2):
            with pytest.raises(ds.GeometryError, match="big"):
                ds.norm(model, model.divisor([-1]), mu)
            with pytest.raises(ds.GeometryError, match="big"):
                ds.ma_solve(model, model.divisor([-1]), mu)
        assert "norms" not in model._memo_of(model.divisor([-1]))

    def test_unpickles_with_no_kept_solve(self):
        model = ds.models._BUILDERS["p2"]()
        answers = self.answers(model)
        back = pickle.loads(pickle.dumps(model))
        assert all(key is None for key, _ in back._classes) and back._memo == (None, None)
        assert self.answers(back) == answers


class TestDanskinAlongH:
    """Both sides of `danskin_derivative` are the backend's derivative along H
    at the one reported maximizer, bit for bit, and equal the negated
    derivative along -H, up to the sign of an exact zero."""

    @staticmethod
    def toric_big_class(model, rng):
        # every ray divisor with a positive coefficient: at least a multiple of -K
        return model.divisor([Fraction(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(model.class_rank)])

    @pytest.mark.parametrize("name", ds.bundled_model_names())
    def test_both_sides_are_the_derivative_along_H(self, name):
        model = ds.bundled_model(name)
        rng = random.Random(f"danskin-{name}")
        toric = isinstance(model, ds.ToricModel)
        zeros = 0
        for _ in range(20):
            if toric:
                L = self.toric_big_class(model, rng)
                pool = [*model.named_valuations.values(), TRIVIAL_VALUATION]
                support = rng.sample(pool, rng.randint(1, 2))
                mu = DivisorialMeasure.make(list(zip(support, random_masses(rng, len(support)))))
            else:
                L, mu = random_big_class(model, rng), random_measure(model, rng)
            if rng.random() < 0.5:
                H = model.canonical_class
            else:
                H = model.divisor([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(model.class_rank)])
            left, right = (
                ds.danskin_derivative(model, L, mu, H, side=side, options=FAST_OPTIONS)
                for side in ("left", "right")
            )
            t = ds.norm(model, L, mu, options=FAST_OPTIONS).maximizers[0]
            support, shifts, _ = one_per_centre(mu.support, t)
            along = model.order_derivative(L, support, shifts, H)
            assert left.hex() == right.hex() == along.hex()
            negated = -model.order_derivative(L, support, shifts, -H)
            assert negated == along
            if along:
                assert negated.hex() == along.hex()
            zeros += not along
        # an exact zero, where the negated derivative along -H read -0.0, is met on every model but f1 and p1xp1
        assert zeros or name in ("f1", "p1xp1")
