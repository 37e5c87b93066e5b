import random
from fractions import Fraction

import numpy as np
import pytest

import divstab as ds
from divstab.surface import SurfaceModel

from _cases import random_big_class, surface_models

p2 = ds.bundled_model("p2")
blp2 = ds.bundled_model("blp2")
f1 = ds.bundled_model("f1")


class TestModelValidation:
    def test_hodge_signature_enforced(self):
        with pytest.raises(ds.GeometryError):
            SurfaceModel("bad", [[1, 0], [0, 1]])
        with pytest.raises(ds.GeometryError):
            SurfaceModel("bad", [[-1, 0], [0, -1]])

    def test_negative_curve_self_intersection_checked(self):
        with pytest.raises(ds.GeometryError):
            SurfaceModel(
                "bad", [[1, 0], [0, -1]], negative_curves=[[1, 0]]
            )

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ds.GeometryError):
            SurfaceModel("bad", [[1, 1], [0, -1]])


class TestZariski:
    def test_h_plus_2e(self):
        dec = blp2.zariski(blp2.divisor([1, 2]))
        assert dec.positive_part.coefficients == (1, 0)
        assert len(dec.negative_part) == 1
        curve, coeff = dec.negative_part[0]
        assert curve.coefficients == (0, 1)
        assert coeff == 2

    def test_nef_class_is_its_own_positive_part(self):
        dec = p2.zariski(p2.divisor([3]))
        assert dec.positive_part.coefficients == (3,)
        assert dec.negative_part == ()

    def test_3h_minus_e_already_nef(self):
        dec = blp2.zariski(blp2.divisor([3, -1]))
        assert dec.positive_part.coefficients == (3, -1)
        assert dec.negative_part == ()

    def test_decomposition_identity_and_invariants(self):
        rng = random.Random(7)
        for model in surface_models():
            for _ in range(25):
                D = random_big_class(model, rng)
                dec = model.zariski(D)
                total = dec.positive_part
                for curve, coeff in dec.negative_part:
                    assert coeff > 0
                    total = total + coeff * curve
                    # orthogonality of the positive part against the support
                    assert model.pairing(dec.positive_part, curve) == 0
                assert total.coefficients == D.coefficients
                for curve in model.negative_curves + model.sample_curves:
                    assert model.pairing(dec.positive_part, curve) >= 0

    def test_uniqueness_under_permuted_curve_list(self):
        m1 = SurfaceModel(
            "perm_a",
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            negative_curves=[[0, 1, 0], [0, 0, 1], [1, -1, -1]],
            canonical_class=[-3, 1, 1],
            sample_curves=[[1, 0, 0], [1, -1, 0], [1, 0, -1]],
        )
        m2 = SurfaceModel(
            "perm_a",
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            negative_curves=[[1, -1, -1], [0, 0, 1], [0, 1, 0]],
            canonical_class=[-3, 1, 1],
            sample_curves=[[1, 0, -1], [1, -1, 0], [1, 0, 0]],
        )
        rng = random.Random(11)
        for _ in range(30):
            coeffs = [Fraction(rng.randint(2, 9)), Fraction(rng.randint(-3, 2)), Fraction(rng.randint(-3, 2))]
            try:
                d1 = m1.zariski(m1.divisor(coeffs))
            except ds.NotPseudoeffectiveError:
                with pytest.raises(ds.NotPseudoeffectiveError):
                    m2.zariski(m2.divisor(coeffs))
                continue
            d2 = m2.zariski(m2.divisor(coeffs))
            assert d1.positive_part.coefficients == d2.positive_part.coefficients
            assert sorted(
                (c.coefficients, a) for c, a in d1.negative_part
            ) == sorted((c.coefficients, a) for c, a in d2.negative_part)

    def test_not_pseudoeffective_raises(self):
        with pytest.raises(ds.NotPseudoeffectiveError):
            blp2.zariski(blp2.divisor([1, -2]))
        with pytest.raises(ds.NotPseudoeffectiveError):
            p2.zariski(p2.divisor([-1]))


class TestVolume:
    def test_exact_values(self):
        assert p2.volume(p2.divisor([3])) == 9
        assert blp2.volume(blp2.divisor([3, -1])) == 8
        assert blp2.volume(blp2.divisor([1, 2])) == 1

    def test_total_function(self):
        assert blp2.volume(blp2.divisor([1, -2])) == 0
        assert p2.volume(p2.divisor([-5])) == 0

    def test_float_path_matches_exact(self):
        rng = random.Random(23)
        for model in surface_models():
            for _ in range(40):
                coeffs = [Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(model.class_rank)]
                exact = model.volume(model.divisor(coeffs))
                approx = model.volume_float(np.array([float(c) for c in coeffs]))
                assert abs(float(exact) - approx) < 1e-9 * max(1.0, float(exact))


class TestPositiveProduct:
    def test_nef_case_plain_intersection(self):
        assert p2.positive_product_against(p2.divisor([3]), p2.divisor([1])) == 3

    def test_exceptional_orthogonality(self):
        assert blp2.positive_product_against(blp2.divisor([1, 2]), blp2.divisor([0, 1])) == 0

    def test_against_canonical(self):
        K = blp2.canonical_class
        assert blp2.positive_product_against(blp2.divisor([3, -1]), K) == -8

    def test_requires_big(self):
        with pytest.raises(ds.GeometryError):
            blp2.positive_product_against(blp2.divisor([1, -2]), blp2.divisor([1, 0]))

    def test_exceptional_vanishing_for_pullbacks(self):
        # pullback classes pair to zero with the exceptional curve
        for a in range(1, 5):
            assert blp2.positive_product_against(
                blp2.divisor([a, 0]), blp2.divisor([0, 1])
            ) == 0

    def test_derivative_consistency(self):
        # 2 P.H equals the finite-difference derivative of the volume
        rng = random.Random(37)
        for model in surface_models():
            for _ in range(20):
                D = random_big_class(model, rng)
                H = model.divisor(
                    [Fraction(rng.randint(-2, 2)) for _ in range(model.class_rank)]
                )
                product = model.positive_product_against(D, H)
                # h must be small: at a chamber wall the volume is only C^1
                # and the central difference error degrades to O(h)
                h = Fraction(1, 2**26)
                fd = (float(model.volume(D + h * H)) - float(model.volume(D + (-h) * H))) / (
                    2.0 * float(h)
                )
                assert abs(2.0 * float(product) - fd) <= 1e-6


class TestLineIntegrals:
    def test_chamber_walk_matches_quadrature(self):
        # dual route: exact chamber walking vs adaptive Gauss-Legendre
        from divstab.filtrations import FiltrationSpec, expected_order_S
        from _cases import random_shifts, random_support

        rng = random.Random(101)
        for model in surface_models():
            for _ in range(10):
                L = random_big_class(model, rng)
                support = random_support(model, rng)
                spec = FiltrationSpec(support, random_shifts(rng, len(support)))
                fast = expected_order_S(model, L, spec)
                slow = expected_order_S(model, L, spec, method="quadrature")
                assert abs(fast - slow) < 1e-7

    def test_two_valuation_walls_match_quadrature(self):
        # two-valuation supports; the references are perfbench/oracle.surface_S
        from divstab.filtrations import FiltrationSpec, expected_order_S

        p1xp1 = ds.bundled_model("p1xp1")
        cases = [
            (p1xp1, (Fraction(5657, 1000), Fraction(79, 50)), ("ord_f2", "ord_diag"),
             (0.11349, 1.6753), 0.9034376181295564),
            (f1, (Fraction(673, 100), Fraction(1683, 250)), ("ord_f", "ord_sf"),
             (1.9249439806819584, 1.9475909931596436), 3.058229536379357),
            (f1, (Fraction(184, 125), Fraction(5807, 1000)), ("ord_s", "ord_sf"),
             (1.5543478626120022, 0.09613104163666941), 0.7964960039696699),
        ]
        for model, L, names, shifts, reference in cases:
            spec = FiltrationSpec(tuple(model.named_valuations[n] for n in names), shifts)
            fast = expected_order_S(model, model.divisor(L), spec)
            slow = expected_order_S(model, model.divisor(L), spec, method="quadrature")
            assert abs(fast - slow) < 1e-9
            assert abs(fast - reference) < 1e-9


class TestExactTypes:
    def test_zero_positive_part_stays_fraction(self):
        E = blp2.divisor([0, 1])
        dec = blp2.zariski(E)
        assert type(blp2.volume(E)) is Fraction
        assert type(blp2.pairing(dec.positive_part, dec.positive_part)) is Fraction
        assert all(type(c) is Fraction for c in dec.positive_part.coefficients)
        assert [type(a) for _, a in dec.negative_part] == [Fraction]

    def test_gamma_stays_fraction(self):
        rng = random.Random(43)
        for model in surface_models():
            for _ in range(10):
                L = random_big_class(model, rng)
                for v in model.named_valuations.values():
                    assert type(ds.gamma_threshold(model, L, v)) is Fraction
