import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import divstab as ds
from divstab.core import TRIVIAL_VALUATION, as_fraction

p2 = ds.bundled_model("p2")
blp2 = ds.bundled_model("blp2")
p2t = ds.bundled_model("p2_toric")


class TestDivisorClass:
    def test_arithmetic_is_exact(self):
        a = p2.divisor([Fraction(1, 3)])
        b = p2.divisor([Fraction(1, 6)])
        assert (a + b).coefficients == (Fraction(1, 2),)
        assert (a - b).coefficients == (Fraction(1, 6),)
        assert (Fraction(3, 2) * a).coefficients == (Fraction(1, 2),)
        assert (-a).coefficients == (Fraction(-1, 3),)

    def test_string_rationals(self):
        assert as_fraction("7/3") == Fraction(7, 3)
        d = p2.divisor(["5/2"])
        assert d.coefficients == (Fraction(5, 2),)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ds.BasisMismatchError):
            p2.divisor([1]) + blp2.divisor([1, 0])
        with pytest.raises(ds.BasisMismatchError):
            p2.volume(blp2.divisor([1, 0]))


class TestValuation:
    def test_negative_log_discrepancy_rejected(self):
        with pytest.raises(ds.GeometryError):
            ds.Valuation("bad", Fraction(-1))

    def test_trivial_has_zero_log_discrepancy(self):
        assert TRIVIAL_VALUATION.log_discrepancy == 0
        with pytest.raises(ds.GeometryError):
            ds.Valuation("t", Fraction(1), is_trivial=True)

    def test_equal_valuations_built_apart_share_hash_and_memo_key(self):
        import pickle

        from divstab.surface import SurfaceRealization

        realization = p2.named_valuations["point_blowup"].order_model

        def build():
            # a fresh realization and Fractions each time: equal, not identical
            copy = SurfaceRealization(realization.model, blp2.divisor([0, 1]), "p2", ((Fraction(1),), (Fraction(0),)))
            return ds.Valuation("point_blowup", "2", order_model=copy)

        a, b = build(), build()
        assert a is not b and a.order_model is not b.order_model
        assert a == b == p2.named_valuations["point_blowup"]
        assert hash(a) == hash(b) == hash(p2.named_valuations["point_blowup"])
        assert {a: 1}[b] == 1
        assert a != ds.Valuation("point_blowup", 3, order_model=a.order_model)
        # a toric valuation survives a pickle round trip, hash included
        e1 = ds.bundled_model("p2_toric").named_valuations["e1"]
        again = pickle.loads(pickle.dumps(e1))
        assert again == e1 and hash(again) == hash(e1)
        L = p2.divisor([3])
        assert ds.gamma_threshold(p2, L, a) is ds.gamma_threshold(p2, L, b)


class TestDivisorialMeasure:
    def test_masses_must_sum_to_one(self):
        line = p2.named_valuations["line"]
        with pytest.raises(ds.GeometryError):
            ds.DivisorialMeasure.make([(line, Fraction(1, 2))])

    def test_repeated_valuation_rejected(self):
        line = p2.named_valuations["line"]
        with pytest.raises(ds.GeometryError):
            ds.DivisorialMeasure.make(
                [(line, Fraction(1, 2)), (line, Fraction(1, 2))]
            )

    def test_mass_range(self):
        line = p2.named_valuations["line"]
        with pytest.raises(ds.GeometryError):
            ds.DivisorialMeasure.make(
                [(line, Fraction(3, 2)), (TRIVIAL_VALUATION, Fraction(-1, 2))]
            )

    @pytest.mark.parametrize("masses, exact", [
        ((1.0,), (1,)),
        (("1/2", "1/2"), (Fraction(1, 2), Fraction(1, 2))),
        ((0.25, 0.75), (Fraction(1, 4), Fraction(3, 4))),
    ])
    def test_constructor_holds_exact_masses(self, masses, exact):
        # the constructor coerces each mass as `make` does, and holds Fractions
        support = (TRIVIAL_VALUATION, p2.named_valuations["line"])
        mu = ds.DivisorialMeasure(tuple(zip(support, masses)))
        assert mu == ds.DivisorialMeasure.make(list(zip(support, exact)))
        assert all(type(m) is Fraction for m in mu.masses)

    def test_constructor_rejects_a_mass_that_is_no_number(self):
        with pytest.raises(TypeError, match="^cannot interpret None as an exact rational$"):
            ds.DivisorialMeasure(((TRIVIAL_VALUATION, None),))


class TestIsBig:
    def test_ample_is_big(self):
        assert ds.is_big(p2, p2.divisor([3]))

    def test_negative_of_ample_is_not(self):
        assert not ds.is_big(p2, p2.divisor([-1]))

    def test_h_minus_2e_is_not_big(self):
        assert not ds.is_big(blp2, blp2.divisor([1, -2]))


class TestVolumeHomogeneity:
    @given(
        c=st.fractions(min_value=0, max_value=5),
        x=st.integers(min_value=0, max_value=5),
        y=st.integers(min_value=-2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_surface_degree_two(self, c, x, y):
        D = blp2.divisor([x, y])
        assert blp2.volume(c * D) == c**2 * blp2.volume(D)

    @given(c=st.fractions(min_value=0, max_value=4), a=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_toric_degree_two(self, c, a):
        D = p2t.divisor([0, 0, a])
        assert p2t.volume(c * D) == c**2 * p2t.volume(D)


class TestGammaThreshold:
    def test_blowup_exceptional(self):
        # vol(3H - g E) = 9 - g^2, vanishing at 3
        g = ds.gamma_threshold(blp2, blp2.divisor([3, 0]), blp2.named_valuations["ord_e"])
        assert g == 3

    def test_plane_line(self):
        # vol(3H - g line) = (3 - g)^2
        g = ds.gamma_threshold(p2, p2.divisor([3]), p2.named_valuations["line"])
        assert g == 3

    def test_twisted_anticanonical(self):
        # vol(3H - (1+g) E) = 9 - (1+g)^2, positive iff g < 2
        g = ds.gamma_threshold(blp2, blp2.divisor([3, -1]), blp2.named_valuations["ord_e"])
        assert g == 2

    def test_positive_for_big_classes(self):
        for name, coeffs in [("p2", [2]), ("blp2", [2, -1]), ("f1", [1, 2])]:
            model = ds.bundled_model(name)
            L = model.divisor(coeffs)
            for v in model.named_valuations.values():
                assert float(ds.gamma_threshold(model, L, v)) > 0

    def test_trivial_valuation_rejected(self):
        with pytest.raises(ds.GeometryError):
            ds.gamma_threshold(p2, p2.divisor([3]), TRIVIAL_VALUATION)

    def test_non_big_class_rejected(self):
        with pytest.raises(ds.GeometryError):
            ds.gamma_threshold(p2, p2.divisor([-1]), p2.named_valuations["line"])

    def test_volume_vanishes_at_threshold(self):
        L = blp2.divisor([3, -1])
        v = blp2.named_valuations["ord_e"]
        g = ds.gamma_threshold(blp2, L, v)
        assert blp2.twisted_volume(L, [(v, g)]) == 0

    def test_toric_threshold_matches_surface(self):
        tor = ds.bundled_model("p2_toric")
        g = ds.gamma_threshold(tor, tor.divisor([0, 0, 3]), tor.named_valuations["e1"])
        assert abs(float(g) - 3) < 1e-8


class TestExactSurfaceThreshold:
    @pytest.mark.parametrize("name", ds.SURFACE_MODEL_NAMES)
    def test_random_big_classes_are_exact(self, name):
        model = ds.bundled_model(name)
        rng = random.Random(17)
        checked = 0
        while checked < 12:
            L = model.divisor(
                [Fraction(rng.randint(-12, 30), rng.randint(1, 4)) for _ in range(model.class_rank)]
            )
            if not model.is_big(L):
                continue
            checked += 1
            for v in model.named_valuations.values():
                g = ds.gamma_threshold(model, L, v)
                assert isinstance(g, Fraction)
                assert model.twisted_volume(L, [(v, g)]) == 0
                assert model.twisted_volume(L, [(v, g * Fraction(999, 1000))]) > 0

    def test_no_volume_evaluation(self, monkeypatch):
        # a fresh model, so no threshold comes from a cache
        m = ds.SurfaceModel(
            "f1x", [[-1, 1], [1, 0]], negative_curves=[[1, 0]], sample_curves=[[0, 1]]
        )
        vals = [m.curve_valuation(n, c) for n, c in (("s", [1, 0]), ("f", [0, 1]), ("sf", [1, 1]))]

        def no_volume(*args, **kwargs):
            raise AssertionError("surface threshold evaluated a volume")

        for attr in ("volume_float", "twisted_volume"):
            monkeypatch.setattr(ds.SurfaceModel, attr, no_volume)
        L = m.divisor([3, 2])
        assert [ds.gamma_threshold(m, L, v) for v in vals] == [3, 2, 2]

    def test_irrational_root_is_a_close_float(self):
        # vol(L - g C) = (3 - g)^2 - 2 vanishes first at 3 - sqrt 2
        m = ds.SurfaceModel("irr", [[1, 0], [0, -2]])
        g = ds.gamma_threshold(m, m.divisor([3, 1]), m.curve_valuation("c", [1, 0]))
        assert isinstance(g, float)
        exact = 3 - Decimal(2).sqrt()
        assert abs(Decimal(g) - exact) < Decimal("1e-15")

    def test_without_curve_data_the_quadratic_still_ends(self):
        m = ds.SurfaceModel("open", [[1]])
        assert ds.gamma_threshold(m, m.divisor([3]), m.curve_valuation("h", [1])) == 3

    def test_closed_form_rejects_the_trivial_valuation(self):
        for model, L in ((p2, p2.divisor([3])), (p2t, p2t.divisor([0, 0, 3]))):
            with pytest.raises(ds.GeometryError):
                model.closed_form_threshold(L, TRIVIAL_VALUATION)

    def test_unbounded_threshold_names_the_valuation(self):
        m = ds.SurfaceModel("open", [[1]])
        with pytest.raises(ds.GeometryError, match="'minus_h'"):
            ds.gamma_threshold(m, m.divisor([3]), m.curve_valuation("minus_h", [-1]))


class TestToricClosedFormThreshold:
    def test_p2_toric_is_exact(self):
        g = ds.gamma_threshold(p2t, p2t.divisor([0, 3, 0]), p2t.named_valuations["e1"])
        assert isinstance(g, Fraction) and g == 3

    @pytest.mark.parametrize("cached", [True, False])
    def test_p3_reads_the_vertices_without_bisection(self, monkeypatch, cached):
        # cached=True reads the answer back a second time from the model's
        # gamma cache: it must be the same exact Fraction, still unbisected
        p3 = ds.ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
        v = p3.monomial_valuation("e12", [1, 1, 0])
        L = p3.divisor([1, 0, 2, Fraction(1, 2)])

        def no_bisection(*args, **kwargs):
            raise AssertionError("gamma_threshold bisected")

        monkeypatch.setattr(ds.ToricModel, "constrained_volume", no_bisection)
        g = ds.gamma_threshold(p3, L, v)
        if cached:
            assert ds.gamma_threshold(p3, L, v) is g
        values = [m[0] + m[1] for m in p3.polytope_vertices(L)]
        assert isinstance(g, Fraction) and g == max(values) - min(values)

    def test_bigness_checked_first(self, monkeypatch):
        def no_closed_form(*args, **kwargs):
            raise AssertionError("closed form asked for a non-big class")

        monkeypatch.setattr(ds.ToricModel, "closed_form_threshold", no_closed_form)
        with pytest.raises(ds.GeometryError, match="big"):
            ds.gamma_threshold(p2t, p2t.divisor([0, 0, -1]), p2t.named_valuations["e1"])


class TestVolumeMonotonicity:
    def test_nondecreasing_along_effective(self):
        # adding multiples of an effective class never shrinks the volume
        L = blp2.divisor([2, -1])
        A = blp2.divisor([1, 0])
        vols = [blp2.volume(L + Fraction(s, 4) * A) for s in range(9)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))


class TestGammaCache:
    def test_same_name_different_valuation_not_stale(self):
        # two valuations share a name on one model: the cache keys by value
        m = ds.SurfaceModel("p2x", [[1]], sample_curves=[[1]], canonical_class=[-3])
        L = m.divisor([3])
        a = m.curve_valuation("c", [1])
        assert ds.gamma_threshold(m, L, a) == 3
        b = m.curve_valuation("c", [2])
        assert ds.gamma_threshold(m, L, b) == Fraction(3, 2)
        assert ds.gamma_threshold(m, L, a) == 3

    def test_cache_lives_on_the_model(self):
        m1 = ds.SurfaceModel("p2x", [[1]], sample_curves=[[1]], canonical_class=[-3])
        m2 = ds.SurfaceModel("p2x", [[1]], sample_curves=[[1]], canonical_class=[-3])
        v1 = m1.curve_valuation("c", [1])
        ds.gamma_threshold(m1, m1.divisor([3]), v1)
        assert ("gamma", v1) in m1._memo[1] and not m2._memo[1]

    @pytest.mark.parametrize(
        "model, valuation",
        [(p2, "line"), (p2t, "e1")],
        ids=["surface", "toric"],
    )
    def test_fresh_classes_leave_one_record(self, model, valuation):
        # everything derived from 1,000 fresh classes: the model keeps the
        # records of the last 8, the last one first, and no container grows
        # beside them
        v = model.named_valuations[valuation]
        spec = ds.FiltrationSpec((v, TRIVIAL_VALUATION), (0.0, 0.5))
        for i in range(1000):
            if model is p2:
                L = model.divisor([3 + Fraction(i, 997)])
                model.zariski(L)
            else:
                L = model.divisor([i % 10, i // 10 % 10, i // 100 + 1])
                model.lattice_points(L, 1)
            assert model.volume(L) > 0
            ds.gamma_threshold(model, L, v)
            ds.expected_order_S(model, L, spec)
        grown = {
            name: len(x) for name, x in vars(model).items()
            if isinstance(x, (dict, list, set)) and name != "named_valuations"
        }
        assert grown == {}
        key, memo = model._memo
        assert key == L.coefficients
        assert len(memo) <= 4
        assert len(model._classes) == 8 and model._classes[0][1] is model._memo
        assert all(len(kept) <= 4 for _, (_, kept) in model._classes)


class TestBundledModelsReadOnly:
    def test_add_valuation_rejected(self):
        with pytest.raises(ds.GeometryError, match="'p2'"):
            p2.curve_valuation("line", [2])
        with pytest.raises(ds.GeometryError, match="'p2_toric'"):
            p2t.monomial_valuation("e1", [1, 1])
        with pytest.raises(TypeError):
            p2.named_valuations["extra"] = TRIVIAL_VALUATION
        assert p2.named_valuations["line"].order_model.divisor == p2.divisor([1])
        assert p2t.named_valuations["e1"].order_model == (1, 0)

    def test_fresh_models_accept_valuations(self):
        m = ds.SurfaceModel("p2x", [[1]], sample_curves=[[1]])
        v = m.curve_valuation("c", [1])
        assert m.named_valuations["c"] is v


class TestFractionFreeSolve:
    def test_matches_fraction_elimination(self):
        # random int systems of size 1-5, about a fifth of them singular, most
        # by a scaled copy of a row, with right-hand sides up to 2^80
        from divstab.core import _solve

        import _reference as reference

        rng = random.Random(17)
        singular = 0
        for _ in range(3000):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                rows[-1] = [rng.choice((-2, 1, 3)) * x for x in rows[rng.randrange(n - 1)]]
            b = [rng.randint(-2**80, 2**80) for _ in range(n)]
            d, y = _solve(rows, b)
            det = reference.det_exact([[Fraction(x) for x in r] for r in rows])
            x = reference.solve_exact([[Fraction(v) for v in r] for r in rows], [Fraction(v) for v in b])
            if x is None:
                assert (d, y) == (0, None) and det == 0
                singular += 1
                continue
            assert abs(d) == abs(det) and all(type(c) is int for c in y)
            assert [Fraction(c, d) for c in y] == x
        assert 300 <= singular <= 1500, singular


class TestSolveDeterminant:
    def test_d_is_the_signed_determinant(self):
        # random int systems of size 2-5 with a zero in the first column at
        # the top, so the elimination exchanges rows; d carries the sign of
        # each exchange, and y = d x with that signed d
        from divstab.core import _solve

        import _reference as reference

        rng = random.Random(29)
        negative = 0
        for _ in range(1500):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            b = [rng.randint(-2**40, 2**40) for _ in range(n)]
            det = reference.det_exact([[Fraction(x) for x in r] for r in rows])
            assert _solve(rows, [0] * n)[0] == det
            d, y = _solve(rows, b)
            assert d == det
            if d:
                x = reference.solve_exact([[Fraction(v) for v in r] for r in rows], [Fraction(v) for v in b])
                assert [Fraction(c, d) for c in y] == x
                negative += d < 0
        assert negative >= 300, negative


class TestSolveColumns:
    def test_any_number_of_right_hand_sides(self):
        # random int systems of size 1-5, about a third singular, with zero,
        # one and three right-hand sides: (d, y_1, ...) with d the signed
        # determinant and each y_i = d x_i, or (0, None, ...) when singular
        from divstab.core import _solve

        import _reference as reference

        rng = random.Random(40)
        singular = 0
        for _ in range(1500):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                rows[rng.randrange(n)] = [rng.choice((-1, 2)) * x for x in rows[rng.randrange(n)]]
            columns = [[rng.randint(-2**40, 2**40) for _ in range(n)] for _ in range(rng.choice((0, 1, 3)))]
            exact = [[Fraction(x) for x in r] for r in rows]
            det = reference.det_exact(exact)
            found = _solve(rows, *columns)
            assert len(found) == 1 + len(columns) and found[0] == det
            if not det:
                assert found[1:] == (None,) * len(columns)
                singular += 1
                continue
            for b, y in zip(columns, found[1:]):
                assert all(type(c) is int for c in y)
                assert [Fraction(c, det) for c in y] == reference.solve_exact(exact, [Fraction(v) for v in b])
        assert 300 <= singular <= 900, singular



class TestMeasureValidationMessages:
    """The masses are checked on their ints; the messages are those of the
    Fraction arithmetic they replace."""

    line, conic = p2.named_valuations["line"], p2.named_valuations["conic"]

    @pytest.mark.parametrize("pairs, message", [
        ([(line, Fraction(3, 2)), (TRIVIAL_VALUATION, Fraction(-1, 2))], "mass 3/2 of 'line' outside [0, 1]"),
        ([(line, Fraction(-1, 3)), (conic, Fraction(4, 3))], "mass -1/3 of 'line' outside [0, 1]"),
        ([(line, Fraction(1, 2)), (line, Fraction(1, 2))], "valuation 'line' repeated in measure"),
        ([(line, Fraction(1, 3)), (conic, Fraction(1, 2))], "masses sum to 5/6, expected 1"),
        ([(line, Fraction(2, 3)), (conic, Fraction(3, 4))], "masses sum to 17/12, expected 1"),
        ([(line, 0), (conic, 0)], "masses sum to 0, expected 1"),
    ])
    def test_messages(self, pairs, message):
        with pytest.raises(ds.GeometryError) as err:
            ds.DivisorialMeasure.make(pairs)
        assert str(err.value) == message

    def test_exact_sums_accepted(self):
        rng = random.Random(5)
        valuations = [self.line, self.conic, TRIVIAL_VALUATION]
        for _ in range(200):
            cuts = sorted(Fraction(rng.randint(0, 60), rng.randint(1, 60)) % 1 for _ in valuations[1:])
            masses = [b - a for a, b in zip([Fraction(0), *cuts], [*cuts, Fraction(1)])]
            mu = ds.DivisorialMeasure.make(list(zip(valuations, masses)))
            assert sum(mu.masses) == 1
        # ints, as a direct construction may hold them, are masses too
        assert ds.DivisorialMeasure(((self.line, 1), (self.conic, 0))).masses == (1, 0)
