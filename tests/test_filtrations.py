import functools
import itertools
import json
import operator
import random
from importlib import resources
from fractions import Fraction

import numpy as np
import pytest

import divstab as ds
from divstab.core import TRIVIAL_VALUATION
from divstab.filtrations import (
    FiltrationSpec,
    d_infinity,
    expected_order_S,
    filtration_volume_finite_k,
    restriction_inequality_check,
)

from _cases import random_big_class, random_shifts, random_support, surface_models

p2 = ds.bundled_model("p2")
blp2 = ds.bundled_model("blp2")
p2t = ds.bundled_model("p2_toric")

LINE = p2.named_valuations["line"]
ORD_E = blp2.named_valuations["ord_e"]
E1 = p2t.named_valuations["e1"]
E2 = p2t.named_valuations["e2"]
L3H = p2t.divisor([0, 0, 3])

P3 = ds.ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
P3_E1 = P3.monomial_valuation("e1", [1, 0, 0])
P3_E12 = P3.monomial_valuation("e12", [1, 1, 0])


class TestSpecValidation:
    def test_repeated_support_rejected(self):
        with pytest.raises(ds.GeometryError):
            FiltrationSpec((LINE, LINE), (0.0, 1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ds.GeometryError):
            FiltrationSpec((LINE,), (0.0, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shift_rejected(self, bad):
        with pytest.raises(ds.GeometryError):
            FiltrationSpec((LINE, TRIVIAL_VALUATION), (0.0, bad))


class TestExpectedOrder:
    def test_plane_line(self):
        # (1/9) int_0^3 (3 - lam)^2 dlam = 1, by the closed-form antiderivative
        s = expected_order_S(p2, p2.divisor([3]), FiltrationSpec((LINE,), (0.0,)))
        assert abs(s - 1.0) < 1e-9

    def test_blowup_exceptional(self):
        # (1/8) int_0^2 (9 - (1+lam)^2) dlam = 7/6
        s = expected_order_S(blp2, blp2.divisor([3, -1]), FiltrationSpec((ORD_E,), (0.0,)))
        assert abs(s - 7.0 / 6.0) < 1e-9

    def test_trivial_only_support(self):
        for t0 in (0.0, 0.7, -1.5):
            s = expected_order_S(
                p2, p2.divisor([3]), FiltrationSpec((TRIVIAL_VALUATION,), (t0,))
            )
            assert s == t0

    def test_requires_big(self):
        with pytest.raises(ds.GeometryError):
            expected_order_S(p2, p2.divisor([-1]), FiltrationSpec((LINE,), (0.0,)))

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_least_trivial_shift_caps_the_range(self, method):
        # no section survives past the smallest trivial shift, whatever the order
        triv_a = ds.Valuation("triv_a", 0, is_trivial=True)
        triv_b = ds.Valuation("triv_b", 0, is_trivial=True)
        L = p2.divisor([3])

        def S(support, t):
            return expected_order_S(p2, L, FiltrationSpec(support, t), method=method)

        ab = S((LINE, triv_a, triv_b), (0.0, 0.5, 5.0))
        ba = S((LINE, triv_b, triv_a), (0.0, 5.0, 0.5))
        alone = S((LINE, triv_a), (0.0, 0.5))
        assert ab == ba == alone
        # (1/9) int_0^{1/2} (3 - lam)^2 dlam
        assert abs(ab - 91.0 / 216.0) < 1e-9

    def test_mixed_realizations_rejected_for_every_shift(self):
        # `line` lives on p2 itself, `point_blowup` on the blowup: no common model
        support = (LINE, p2.named_valuations["point_blowup"], TRIVIAL_VALUATION)
        for t in [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 1.0)]:
            with pytest.raises(ds.GeometryError):
                expected_order_S(p2, p2.divisor([3]), FiltrationSpec(support, t))

    def test_compiled_problem_never_stale(self):
        # interleaved (L, support) pairs on one model match fresh models bit for bit
        def fresh_blp2():
            m = ds.SurfaceModel(
                "blp2",
                intersection_matrix=[[1, 0], [0, -1]],
                negative_curves=[[0, 1]],
                canonical_class=[-3, 1],
                sample_curves=[[1, 0], [1, -1]],
            )
            m.curve_valuation("ord_e", [0, 1])
            m.curve_valuation("ord_line", [1, 0])
            return m

        def pairs(m):
            e, line = m.named_valuations["ord_e"], m.named_valuations["ord_line"]
            return [
                (m.divisor([3, -1]), (e, line)),
                (m.divisor([4, -1]), (e, line)),  # same support, other L
                (m.divisor([3, -1]), (e, TRIVIAL_VALUATION)),  # same L, other support
            ]

        rng = random.Random(7)
        shifts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(6)]
        shared = fresh_blp2()
        interleaved = {k: [] for k in range(3)}
        for t in shifts:
            for k, (L, support) in enumerate(pairs(shared)):
                interleaved[k].append(expected_order_S(shared, L, FiltrationSpec(support, t)))
        for k in range(3):
            alone = fresh_blp2()
            L, support = pairs(alone)[k]
            values = [expected_order_S(alone, L, FiltrationSpec(support, t)) for t in shifts]
            assert [v.hex() for v in values] == [v.hex() for v in interleaved[k]]

    def test_translation_equivariance(self):
        rng = random.Random(5)
        for model in surface_models():
            L = random_big_class(model, rng)
            support = random_support(model, rng)
            t = random_shifts(rng, len(support))
            c = rng.uniform(-2, 2)
            a = expected_order_S(model, L, FiltrationSpec(support, t))
            b = expected_order_S(
                model, L, FiltrationSpec(support, tuple(x + c for x in t))
            )
            assert abs(b - a - c) < 1e-9

    def test_lipschitz(self):
        rng = random.Random(6)
        for model in surface_models():
            L = random_big_class(model, rng)
            support = random_support(model, rng)
            t = random_shifts(rng, len(support))
            u = random_shifts(rng, len(support))
            gap = max(abs(a - b) for a, b in zip(t, u))
            a = expected_order_S(model, L, FiltrationSpec(support, t))
            b = expected_order_S(model, L, FiltrationSpec(support, u))
            assert abs(a - b) <= gap + 1e-9

    def test_concavity_in_shifts(self):
        rng = random.Random(8)
        for model in surface_models():
            L = random_big_class(model, rng)
            support = random_support(model, rng)
            t = random_shifts(rng, len(support))
            u = random_shifts(rng, len(support))
            theta = rng.uniform(0, 1)
            mid = tuple(theta * a + (1 - theta) * b for a, b in zip(t, u))
            sm = expected_order_S(model, L, FiltrationSpec(support, mid))
            st = expected_order_S(model, L, FiltrationSpec(support, t))
            su = expected_order_S(model, L, FiltrationSpec(support, u))
            assert sm >= theta * st + (1 - theta) * su - 1e-7

    def test_deactivation_of_large_shifts(self):
        # a valuation shifted past lam_max contributes nothing
        L = blp2.divisor([3, -1])
        base = expected_order_S(blp2, L, FiltrationSpec((ORD_E,), (0.0,)))
        extra = blp2.named_valuations["ord_line"]
        both = expected_order_S(
            blp2, L, FiltrationSpec((ORD_E, extra), (0.0, 50.0))
        )
        assert abs(base - both) < 1e-9

    def test_toric_expected_order(self):
        s = expected_order_S(p2t, L3H, FiltrationSpec((E1,), (0.0,)))
        assert abs(s - 1.0) < 1e-8

    @pytest.mark.parametrize("method", ["Auto", "exact", "chamber"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="'auto'.*'quadrature'"):
            expected_order_S(p2, p2.divisor([3]), FiltrationSpec((LINE,), (0.0,)), method=method)


class TestToricCells:
    def test_two_valuations_exact(self):
        # mean of min(x, y) over the triangle x, y >= 0, x + y <= 3
        s = expected_order_S(p2t, L3H, FiltrationSpec((E1, E2), (0.0, 0.0)))
        assert type(s) is float and s == 0.5

    def test_close_shifts_on_the_quadric(self):
        # the kink of the volume near the end of the range is not a
        # quadrature breakpoint; the cells need none
        ppt = ds.bundled_model("p1xp1_toric")
        spec = FiltrationSpec(
            (ppt.named_valuations["diag"], ppt.named_valuations["e1"]),
            (0.7253862189848015, 0.7293297450877823),
        )
        s = expected_order_S(ppt, ppt.divisor([0, 2, 3, -1]), spec)
        assert abs(s - 1.729325857238251) < 1e-12

    def test_three_dimensional_agrees_with_quadrature(self):
        L = P3.divisor([1, 0, 2, 1])
        for t in [(0.1, 0.6, 1.3), (0.5, 0.2, 0.9)]:
            spec = FiltrationSpec((P3_E1, P3_E12, TRIVIAL_VALUATION), t)
            cells = expected_order_S(P3, L, spec)
            reference = expected_order_S(P3, L, spec, method="quadrature")
            assert abs(cells - reference) < 1e-8

    def test_two_trivial_atoms_in_either_order(self):
        triv_a = ds.Valuation("triv_a", 0, is_trivial=True)
        triv_b = ds.Valuation("triv_b", 0, is_trivial=True)
        ab = expected_order_S(p2t, L3H, FiltrationSpec((E1, triv_a, triv_b), (0.0, 0.5, 5.0)))
        ba = expected_order_S(p2t, L3H, FiltrationSpec((E1, triv_b, triv_a), (0.0, 5.0, 0.5)))
        alone = expected_order_S(p2t, L3H, FiltrationSpec((E1, triv_a), (0.0, 0.5)))
        # (1/9) int_0^{1/2} (3 - lam)^2 dlam, as on the surface p2
        assert ab == ba == alone
        assert abs(ab - 91.0 / 216.0) < 1e-15


class TestFiniteK:
    def test_trivial_profile(self):
        prof = filtration_volume_finite_k(
            p2t, L3H, FiltrationSpec((TRIVIAL_VALUATION,), (0.0,)), 1
        )
        assert prof.jumping_values == (0.0,) * 10
        assert prof.volume == 0.0

    def test_level_one_jumping_values(self):
        prof = filtration_volume_finite_k(p2t, L3H, FiltrationSpec((E1,), (0.0,)), 1)
        assert sorted(prof.jumping_values, reverse=True) == [
            3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0,
        ]
        assert prof.volume == 1.0
        assert len(prof.jumping_values) == 10

    def test_convergence_at_k50(self):
        s = expected_order_S(p2t, L3H, FiltrationSpec((E1,), (0.0,)))
        prof = filtration_volume_finite_k(p2t, L3H, FiltrationSpec((E1,), (0.0,)), 50)
        assert abs(prof.volume / 50 - s) <= 0.05

    def test_interacting_valuations_converge(self):
        # two constraints: finite-k values approach the integral S
        spec = FiltrationSpec((E1, E2), (0.0, 0.2))
        s = expected_order_S(p2t, L3H, spec)
        errs = []
        for k in (5, 20, 45):
            prof = filtration_volume_finite_k(p2t, L3H, spec, k)
            errs.append(abs(prof.volume / k - s))
        assert errs[-1] <= 0.05
        assert errs[-1] <= errs[0] + 1e-9

    def test_non_toric_model_rejected(self):
        with pytest.raises(ds.GeometryError):
            filtration_volume_finite_k(
                p2, p2.divisor([3]), FiltrationSpec((LINE,), (0.0,)), 2
            )

    def test_fractional_level_rejected(self):
        half = p2t.divisor([0, 0, Fraction(1, 2)])
        with pytest.raises(ds.GeometryError):
            filtration_volume_finite_k(p2t, half, FiltrationSpec((E1,), (0.0,)), 1)


def _reference_jumping_values(model, L, spec, k):
    """One monomial at a time from the exact scalar order, min() and floats."""
    return [
        min(
            float(model.monomial_order(L, k, v, m)) + k * float(t)
            for v, t in zip(spec.support, spec.shifts)
        )
        for m in model.section_basis(L, k)
    ]


class TestJumpingValuesBitIdentical:
    CASES = [
        (p2t, L3H, (E1,), (0.1,), (0.7,)),
        (p2t, L3H, (E1, E2, TRIVIAL_VALUATION), (0.3, 1 / 3, 1.9), (1.1, 0.2, 0.7)),
        (P3, P3.divisor([1, 0, 2, 1]), (P3_E1, P3_E12), (0.1, 2 / 3), (0.7, 0.3)),
    ]

    @pytest.mark.parametrize("k", [1, 4, 10])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_finite_k_and_d_infinity(self, case, k):
        model, L, support, t, t_other = self.CASES[case]
        spec, other = FiltrationSpec(support, t), FiltrationSpec(support, t_other)
        ref = sorted(_reference_jumping_values(model, L, spec, k), reverse=True)
        prof = filtration_volume_finite_k(model, L, spec, k)
        assert [x.hex() for x in prof.jumping_values] == [x.hex() for x in ref]
        assert prof.volume.hex() == (sum(ref) / len(ref)).hex()
        ref_other = _reference_jumping_values(model, L, other, k)
        gap = max(
            abs(a - b)
            for a, b in zip(_reference_jumping_values(model, L, spec, k), ref_other)
        )
        d = d_infinity(model, L, spec, other, k)
        assert type(d) is float and d.hex() == gap.hex()

    def test_orders_over_a_non_dyadic_anchor(self):
        # k min_P<., e3> = -1/3: one division by 3 per row, rounded like Fraction
        L = p2t.divisor([0, 0, Fraction(1, 3)])
        e3 = p2t.named_valuations["e3"]
        rows = [(0, 0), (1, 2), (-5, 7), (40, -3)]
        orders = p2t.monomial_orders(L, 1, e3, np.array(rows))
        assert [x.hex() for x in orders.tolist()] == [
            float(p2t.monomial_order(L, 1, e3, m)).hex() for m in rows
        ]
        assert p2t.monomial_order(L, 1, e3, (1, 2)) == Fraction(-8, 3)

    def test_section_basis_in_product_order(self):
        L, k = P3.divisor([1, 0, 2, 1]), 4
        basis = P3.section_basis(L, k)
        coeffs = [k * a for a in L.coefficients]
        box = itertools.product(*(range(-20, 21) for _ in range(3)))
        expected = [
            m for m in box
            if all(sum(r * x for r, x in zip(ray, m)) >= -a for ray, a in zip(P3.rays, coeffs))
        ]
        assert basis == expected
        assert all(type(m) is tuple and all(type(x) is int for x in m) for m in basis)


class TestDInfinity:
    def test_identical_specs(self):
        spec = FiltrationSpec((E1,), (0.5,))
        assert d_infinity(p2t, L3H, spec, spec, 3) == 0.0

    def test_uniform_shift(self):
        a = FiltrationSpec((E1, E2), (0.0, 1.0))
        b = FiltrationSpec((E1, E2), (2.0, 3.0))
        assert abs(d_infinity(p2t, L3H, a, b, 1) - 2.0) < 1e-12

    def test_single_shift_gap(self):
        a = FiltrationSpec((E1,), (0.0,))
        b = FiltrationSpec((E1,), (1.0,))
        assert abs(d_infinity(p2t, L3H, a, b, 3) - 3.0) < 1e-12

    def test_bounds_volume_gap(self):
        rng = random.Random(13)
        for _ in range(10):
            a = FiltrationSpec((E1, E2), (rng.uniform(0, 2), rng.uniform(0, 2)))
            b = FiltrationSpec((E1, E2), (rng.uniform(0, 2), rng.uniform(0, 2)))
            k = rng.choice([1, 2, 5])
            va = filtration_volume_finite_k(p2t, L3H, a, k).volume
            vb = filtration_volume_finite_k(p2t, L3H, b, k).volume
            assert abs(va - vb) / k <= d_infinity(p2t, L3H, a, b, k) / k + 1e-12


class TestRestrictionInequality:
    def test_two_constraints_versus_one(self):
        spec = FiltrationSpec((E1, E2), (0.0, 0.0))
        ok, (full, sub) = restriction_inequality_check(p2t, L3H, spec, (E1,))
        assert ok
        assert full <= sub + 1e-9

    def test_equal_supports(self):
        spec = FiltrationSpec((E1, E2), (0.3, 0.1))
        ok, (full, sub) = restriction_inequality_check(p2t, L3H, spec, (E1, E2))
        assert ok
        assert abs(full - sub) < 1e-12

    def test_huge_shift_deactivates(self):
        spec = FiltrationSpec((E1, E2), (0.0, 30.0))
        ok, (full, sub) = restriction_inequality_check(p2t, L3H, spec, (E1,))
        assert ok
        assert abs(full - sub) < 1e-9

    def test_subset_must_be_contained(self):
        spec = FiltrationSpec((E1,), (0.0,))
        with pytest.raises(ds.GeometryError):
            restriction_inequality_check(p2t, L3H, spec, (E2,))

    def test_on_surfaces(self):
        rng = random.Random(17)
        for model in surface_models():
            L = random_big_class(model, rng)
            support = random_support(model, rng, allow_trivial=False, max_size=2)
            if len(support) < 2:
                continue
            spec = FiltrationSpec(support, random_shifts(rng, len(support)))
            ok, _ = restriction_inequality_check(model, L, spec, support[:1])
            assert ok


class TestNumpyLevel:
    def test_numpy_int_level_gives_an_int_k_that_serializes(self):
        # k once came back as numpy.int64, and the report of it raised a TypeError
        from divstab import cli

        spec = FiltrationSpec((E1, E2), (0.0, 0.5))
        L = p2t.divisor([0, 0, 3])
        profile = filtration_volume_finite_k(p2t, L, spec, np.int64(3))
        assert type(profile.k) is int and profile == filtration_volume_finite_k(p2t, L, spec, 3)
        assert json.loads(json.dumps(cli._jsonify(profile)))["k"] == 3


class TestKeptLevelOrders:
    def test_read_only_equal_to_monomial_orders_and_replaced_with_k(self):
        model = ds.ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        e1 = model.monomial_valuation("e1", [1, 0])
        diag = model.monomial_valuation("diag", [1, 1])
        L = model.divisor([0, Fraction(1, 3), 3])
        for k in (3, 6):
            basis = model.lattice_points(L, k)
            for v in (e1, diag, TRIVIAL_VALUATION):
                kept = model._level_orders(L, k, v)
                with pytest.raises(ValueError):
                    kept[0] = 99.0
                assert model._level_orders(L, k, v) is kept
                assert kept.tolist() == model.monomial_orders(L, k, v, basis).tolist()
            assert model._memo[1]["points"][0][0] == k
        # a kept level comes back as the same object; one pushed out past the
        # last 4 levels of L is read again, and its orders come back equal
        six = model._level_orders(L, 6, e1)
        model.lattice_points(L, 3)
        assert model._level_orders(L, 6, e1) is six
        for k in (9, 12, 15, 3):
            model.lattice_points(L, k)
        again = model._level_orders(L, 6, e1)
        assert again is not six and again.tolist() == six.tolist()
        assert [level[0] for level in model._memo[1]["points"]] == [6, 3, 15, 12]

    def test_finite_k_then_d_infinity_read_each_valuation_once(self, monkeypatch):
        model = ds.ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        e1 = model.monomial_valuation("e1", [1, 0])
        e2 = model.monomial_valuation("e2", [0, 1])
        read = []
        numerators = ds.ToricModel._order_numerators

        def counted(self, L, k, w, basis):
            read.append(w)
            return numerators(self, L, k, w, basis)

        monkeypatch.setattr(ds.ToricModel, "_order_numerators", counted)
        spec = FiltrationSpec((e1, e2, TRIVIAL_VALUATION), (0.0, 0.5, 2.0))
        other = FiltrationSpec((e1, e2, TRIVIAL_VALUATION), (1.0, 0.0, 1.5))
        L = model.divisor([0, 0, 3])
        filtration_volume_finite_k(model, L, spec, 5)
        d_infinity(model, L, spec, other, 5)
        d_infinity(model, L, other, spec, 5)
        assert sorted(read) == [(0, 1), (1, 0)]
        # a new level reads them again, once
        filtration_volume_finite_k(model, L, spec, 6)
        assert len(read) == 4


def _hex_sorted_descending(values):
    return [x.hex() for x in sorted(values.tolist(), reverse=True)]


class TestNumpySortedJumpingValues:
    def test_bundled_configs(self):
        from divstab import cli
        seen = 0
        for path in (resources.files("divstab") / "configs").iterdir():
            model, L, tasks, _, _ = cli.parse_config(json.loads(path.read_text()))
            for task in tasks:
                if task["kind"] != "finite_k":
                    continue
                prof = filtration_volume_finite_k(model, L, task["spec"], task["k"])
                raw = model.jumping_values(L, task["k"], task["spec"].support, task["spec"].shifts)
                assert [x.hex() for x in prof.jumping_values] == _hex_sorted_descending(raw)
                seen += 1
        assert seen >= 3

    def test_random_cases_with_ties(self):
        rng = random.Random(917)
        ties = 0
        for _ in range(60):
            model, L = rng.choice([(p2t, L3H), (P3, P3.divisor([1, 0, 2, 1]))])
            support = [v for v in model.named_valuations.values() if rng.random() < 0.6] or [
                next(iter(model.named_valuations.values()))
            ]
            if rng.random() < 0.3:
                support.append(TRIVIAL_VALUATION)
            # shifts on a grid of halves and thirds, so many values tie
            spec = FiltrationSpec(tuple(support), tuple(rng.choice((0.0, 0.5, 1 / 3, 1.0, -0.5)) for _ in support))
            k = rng.randint(1, 6)
            raw = model.jumping_values(L, k, spec.support, spec.shifts)
            prof = filtration_volume_finite_k(model, L, spec, k)
            assert [x.hex() for x in prof.jumping_values] == _hex_sorted_descending(raw)
            ties += len(set(raw.tolist())) < len(raw)
        assert ties >= 50, ties


class TestSequentialMean:
    def test_mean_is_the_left_to_right_sum(self):
        # the profile's mean is the left-to-right sum of its descending values
        # over their number, whatever the interpreter's sum() does
        cases = [
            ("p2_toric", [0, 0, 3], (0.0, 0.25, 1 / 3)),
            ("p1xp1_toric", [1, 1, 1, 1], (0.0, 0.5, 0.2)),
            ("f1_toric", [1, 1, 2, 0], (0.0, 0.375, 0.1)),
        ]
        seen = 0
        for name, coefficients, shifts in cases:
            model = ds.bundled_model(name)
            L = model.divisor(coefficients)
            valuations = [*model.named_valuations.values(), TRIVIAL_VALUATION]
            for size in (1, 2, 3):
                support = tuple(valuations[:size])
                spec = FiltrationSpec(support, shifts[:size])
                for k in range(1, 7):
                    prof = filtration_volume_finite_k(model, L, spec, k)
                    n = len(prof.jumping_values)
                    expected = functools.reduce(operator.add, prof.jumping_values, 0.0) / n
                    assert prof.volume.hex() == expected.hex(), (name, size, k)
                    seen += 1
        assert seen == 54
