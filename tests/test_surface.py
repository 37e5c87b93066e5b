import math
import random
from fractions import Fraction

import numpy as np
import pytest

import _reference as reference
import divstab as ds
from divstab.filtrations import FiltrationSpec, expected_order_S, expected_order_S_grad
from divstab.surface import SurfaceModel, _SurfaceProblem, _integrate

from _cases import AMPLE, random_big_class, random_support, surface_models

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

    def test_exact_signature(self):
        # decided exactly: a tiny positive form, and zero diagonals that need
        # a congruence step before the first pivot
        tiny = SurfaceModel("tiny", [[Fraction(1, 10**12)]], sample_curves=[[1]])
        assert tiny.volume(tiny.divisor([1])) == Fraction(1, 10**12)
        SurfaceModel("hyperbolic", [[0, 2], [2, 0]])
        SurfaceModel("zero_diagonal", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        for degenerate in ([[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
            with pytest.raises(ds.GeometryError, match="signature"):
                SurfaceModel("bad", degenerate)

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
                slow = reference.quadrature_S(model, L, spec)
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
        for model, L, names, shifts, expected in cases:
            spec = FiltrationSpec(tuple(model.named_valuations[n] for n in names), shifts)
            fast = expected_order_S(model, model.divisor(L), spec)
            slow = reference.quadrature_S(model, model.divisor(L), spec)
            assert abs(fast - slow) < 1e-9
            assert abs(fast - expected) < 1e-9

    def test_twist_integrals_from_a_later_start(self):
        # the walk's records run in lam - lam0: the integral of vol over
        # [lam0, lam1], lam0 past the least shift and lam1 often past the
        # end of vol, where `_integrate` clips the walk, against Gauss-Legendre
        from _cases import random_support

        rng = random.Random(103)
        for model in surface_models():
            for _ in range(6):
                L = random_big_class(model, rng)
                support = random_support(model, rng, allow_trivial=False)
                shifts = [rng.randint(0, 8) / 8 for _ in support]
                lam0 = min(shifts) + rng.randint(1, 4) / 8
                lam1 = lam0 + rng.randint(1, 64) / 8
                evaluate = reference.twist_volume(model, L, support)
                breaks = [t for t in shifts if lam0 < t < lam1]
                slow = reference.integrate(lambda lam: evaluate([max(lam - t, 0.0) for t in shifts]), lam0, lam1, breaks, tol=1e-12)
                fast, _ = model.twist_integrals(L, support, shifts, lam0, lam1)
                assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow)), (model.name, L, support, shifts, lam0, lam1)


def _tied_shifts(rng, size):
    """Shifts in [0, 2]: uniform floats, with quarters and repeats mixed in."""
    ts = []
    for _ in range(size):
        r = rng.random()
        if ts and r < 0.15:
            ts.append(rng.choice(ts))
        elif r < 0.35:
            ts.append(rng.randint(0, 8) / 4)
        else:
            ts.append(rng.uniform(0, 2))
    return tuple(ts)


class TestExpectedOrderMatchesExactWalk:
    """Surface S and grad_t S against the exact walk of tests/_reference.py."""

    def test_random_cases(self):
        rng = random.Random(1729)
        models = surface_models()
        seen = dict.fromkeys(("non_nef", "trivial", "three", "pieces", "e_in_n"), 0)
        for n in range(320):
            model = models[n % len(models)]
            L = random_big_class(model, rng)
            if model.negative_curves and rng.random() < 0.5:
                # often not nef: a negative curve in the fixed part from the start
                L = L + Fraction(rng.randint(1, 8), 2) * rng.choice(model.negative_curves)
            support = random_support(model, rng, max_size=3)
            shifts = _tied_shifts(rng, len(support))
            value, grad = expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
            ref_value, ref_grad, chambers = reference.surface_S_grad(model, L, support, shifts)
            bound = 1e-12 * max(1.0, abs(float(ref_value)))
            assert abs(value - float(ref_value)) <= bound, (model.name, L, support, shifts)
            for g, r in zip(grad, ref_grad):
                assert abs(g - float(r)) <= bound, (model.name, L, support, shifts)
            # what the cases cover
            target = model.resolve_realization(support)[0]
            shifted = {Fraction(t) for v, t in zip(support, shifts) if not v.is_trivial}
            divisors = {v.order_model.divisor.coefficients for v in support if not v.is_trivial}
            seen["non_nef"] += bool(model.zariski(L).negative_part)
            seen["trivial"] += any(v.is_trivial for v in support)
            seen["three"] += len(support) == 3
            seen["pieces"] += any(start in shifted and start > chambers[0][0] for start, _, _ in chambers)
            seen["e_in_n"] += any(
                target.negative_curves[i].coefficients in divisors for _, _, inside in chambers for i in inside
            )
        assert min(seen.values()) >= 20, seen


class TestWalkWork:
    """The walk searches one chamber per piece and per wall crossed, and
    none past a point where vol is exactly 0, so no search fails (`leaves`
    is 0 throughout).  A support with one non-trivial valuation searches
    none: its S integrates the chambers that the gamma walk recorded, one
    per piece and per wall, kept as the walk of relative shifts (0,).  A
    kept walk serves S again at the same shifts and at their translates."""

    @pytest.mark.parametrize(
        "name, L, valuations, shifts, pieces, walls, leaves",
        [
            # 3H - E minus lam (H - E): E joins N at the wall lam = 1
            ("blp2", (3, -1), ("ord_line_p",), (0.0,), 1, 1, 0),
            # the trivial cap at 2 ends the second chamber
            ("blp2", (3, -1), ("ord_line_p", None), (0.0, 2.0), 1, 1, 0),
            # ord_e from 2 on: E stays in N on the second piece
            ("blp2", (3, -1), ("ord_line_p", "ord_e"), (0.0, 2.0), 2, 1, 0),
            # 2F1 + 3F2 leaves the psef cone at lam = 1, before the thresholds:
            # vol is 0 at that wall, P = 2 F2 != 0, and the walk ends there
            ("p1xp1", (2, 3), ("ord_f1", "ord_diag"), (0.0, 0.0), 1, 0, 0),
            # ... and the piece that would start at 1.5 is never searched
            ("p1xp1", (2, 3), ("ord_f1", "ord_diag", "ord_f2"), (0.0, 0.0, 1.5), 1, 0, 0),
            # 3H minus lam 3H: P = 0 at the wall lam = 1 ends the walk there
            ("p2", (3,), ("line", "conic"), (0.0, 0.0), 1, 0, 0),
        ],
    )
    def test_searches_per_walk(self, searches, name, L, valuations, shifts, pieces, walls, leaves):
        model = ds.models._BUILDERS[name]()
        L = model.divisor(L)
        support = tuple(ds.TRIVIAL_VALUATION if v is None else model.named_valuations[v] for v in valuations)
        # vol L and the thresholds, so that S searches only in its walk
        model.volume(L)
        for v in support:
            if not v.is_trivial:
                ds.gamma_threshold(model, L, v)
        spec = FiltrationSpec(support, shifts)
        value, _ = expected_order_S_grad(model, L, spec)
        if sum(v is not None for v in valuations) == 1:
            assert searches == []
            assert len(model._compiled(L, support).records(list(shifts))[1]) == pieces + walls
        else:
            assert len(searches) == pieces + walls + leaves
            assert [x for x, failed in searches if failed] == []
        assert value == pytest.approx(float(reference.surface_S_grad(model, L, support, shifts)[0]))
        del searches[:]
        assert expected_order_S_grad(model, L, spec)[0] == value
        # least shift 0: S = vol-integral / vol L, and the translate adds 3/8 exactly
        assert expected_order_S_grad(model, L, spec.shifted(0.375))[0] == value + 0.375
        assert searches == []

    def test_a_larger_trivial_shift_walks_nothing(self, monkeypatch):
        # a walk runs to the end of vol, whatever the trivial shift: the one
        # of (0, 1/2) made under the trivial cap 3/4 serves the cap 5/4
        walks = []
        walk = _SurfaceProblem.walk
        monkeypatch.setattr(_SurfaceProblem, "walk", lambda self, *a: walks.append(a) or walk(self, *a))

        def S(model, shifts):
            support = tuple(model.named_valuations[v] for v in ("ord_line_p", "ord_e")) + (ds.TRIVIAL_VALUATION,)
            return expected_order_S_grad(model, model.divisor([3, -1]), FiltrationSpec(support, shifts))

        model = ds.models._BUILDERS["blp2"]()
        S(model, (0.0, 0.5, 0.75))
        del walks[:]
        value = S(model, (0.0, 0.5, 1.25))
        assert walks == []
        assert value == S(ds.models._BUILDERS["blp2"](), (0.0, 0.5, 1.25)) == (0.841796875, (0.5546875, 0.09375, 0.3515625))


class TestOneValuationClosedForm:
    """S and grad S of a support with one non-trivial valuation, which
    integrate the chambers of the exact gamma walk in closed form, against
    the Fraction walk of tests/_reference.py at dyadic shifts and against
    one walk of the same range (`_SurfaceProblem.walk`); `searches` counts
    the walk's chamber searches (tests/conftest.py)."""

    # a second trivial valuation: only its name differs
    TRIVIAL_2 = ds.Valuation("trivial_2", 0, is_trivial=True)

    @staticmethod
    def walked(problem, shifts):
        """(S, dS/dt_v) from one walk of the range, in lam - t0, for the one
        non-trivial v."""
        ts = [float(s) for s in shifts]
        (i,), (gamma,) = problem._nontrivial, problem.thresholds()
        t0, lam_max = min(ts), min([ts[i] + gamma] + [t for j, t in enumerate(ts) if j != i])
        if lam_max <= t0:
            return t0, 0.0
        iv, _, (ie,) = _integrate(problem.walk([ts[i]], t0), lam_max - t0, [], [ts[i] - t0])
        return t0 + iv / problem.volume, 2.0 * ie / problem.volume

    @staticmethod
    def cases(rng):
        """(model, L, valuation, gamma) over the four bundled surfaces, with
        p2's point_blowup, realised on blp2, among p2's valuations."""
        for model in surface_models():
            for _ in range(6):
                L = random_big_class(model, rng)
                for v in model.named_valuations.values():
                    yield model, L, v, ds.gamma_threshold(model, L, v)

    def test_matches_reference_and_float_walk(self, searches):
        rng = random.Random(20)
        seen = {"alone": 0, "cap_below": 0, "cap_inside": 0, "cap_beyond": 0, "point_blowup": 0}
        for model, L, v, gamma in self.cases(rng):
            seen["point_blowup"] += v.name == "point_blowup"
            t = Fraction(rng.randint(0, 16), 8)
            # dyadic caps: in (t, t + gamma) and past t + gamma
            inside, beyond = t + Fraction(max(1, math.floor(gamma * 8 * rng.randint(1, 7))), 64), t + math.floor(gamma) + 1
            for kind, support, shifts in [
                ("alone", (v,), (t,)),
                ("cap_below", (ds.TRIVIAL_VALUATION, v), (t - Fraction(1, 4), t)),
                ("cap_inside", (v, ds.TRIVIAL_VALUATION), (t, inside)),
                ("cap_beyond", (v, self.TRIVIAL_2, ds.TRIVIAL_VALUATION), (t, beyond + 1, beyond)),
            ]:
                seen[kind] += 1
                floats = tuple(float(s) for s in shifts)
                value, grad = expected_order_S_grad(model, L, FiltrationSpec(support, floats))
                ref_value, ref_grad, _ = reference.surface_S_grad(model, L, support, shifts)
                assert abs(value - float(ref_value)) <= 1e-13 * max(1.0, abs(float(ref_value)))
                assert max(abs(g - float(r)) for g, r in zip(grad, ref_grad)) <= 1e-13
                walk_value, walk_slope = self.walked(model._compiled(L, support), floats)
                assert abs(value - walk_value) <= 1e-13 * max(1.0, abs(walk_value))
                assert abs(grad[support.index(v)] - walk_slope) <= 1e-13
                assert math.fsum(grad) == pytest.approx(1.0, abs=1e-15)
        # walked() above searched chambers; expected_order_S_grad never does
        assert len(searches) > 0
        assert min(seen.values()) >= 6, seen

    def test_no_float_search(self, searches):
        rng = random.Random(21)
        for model, L, v, gamma in self.cases(rng):
            for support, shifts in [((v,), (0.5,)), ((v, ds.TRIVIAL_VALUATION), (0.25, 0.25 + float(gamma) / 2))]:
                expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
        assert searches == []

    def test_pullback_of_point_blowup(self, searches):
        # p2's point_blowup at aH is blp2's ord_e at (a, 0)
        point, ord_e = p2.named_valuations["point_blowup"], blp2.named_valuations["ord_e"]
        for a, shifts in [(3, (0.0,)), (Fraction(7, 2), (0.5,)), (2, (0.25, 1.0))]:
            support = (point,) if len(shifts) == 1 else (point, ds.TRIVIAL_VALUATION)
            pulled = (ord_e,) + support[1:]
            below = expected_order_S_grad(p2, p2.divisor([a]), FiltrationSpec(support, shifts))
            above = expected_order_S_grad(blp2, blp2.divisor([a, 0]), FiltrationSpec(pulled, shifts))
            assert below == above
        assert searches == []

    def test_irrational_threshold(self, searches):
        # vol(H - mu E) = 1 - 2 mu^2 on a lattice with no negative curve:
        # gamma = 1/sqrt 2, S = 2 gamma / 3 = sqrt 2 / 3
        model = SurfaceModel("open", [[1, 0], [0, -2]], sample_curves=[[1, 0]])
        e = model.curve_valuation("e", [0, 1])
        L = model.divisor([1, 0])
        gamma = ds.gamma_threshold(model, L, e)
        assert type(gamma) is float and gamma == pytest.approx(2**-0.5, rel=1e-15)
        value, grad = expected_order_S_grad(model, L, FiltrationSpec((e,), (0.0,)))
        assert value == pytest.approx(2**0.5 / 3, rel=1e-14) and grad == (1.0,)
        capped = FiltrationSpec((e, ds.TRIVIAL_VALUATION), (0.0, 0.5))
        value, grad = expected_order_S_grad(model, L, capped)
        # int_0^1/2 (1 - 2 mu^2) = 1/2 - 1/12; dS/dt = 1 - vol(L - E/2) = 1/2
        assert value == pytest.approx(5 / 12, rel=1e-14) and grad == pytest.approx((0.5, 0.5), abs=1e-15)
        assert searches == []
        for spec in (FiltrationSpec((e,), (0.0,)), capped):
            walk_value, walk_slope = self.walked(model._compiled(L, spec.support), spec.shifts)
            value, grad = expected_order_S_grad(model, L, spec)
            assert abs(value - walk_value) <= 1e-13 and abs(grad[0] - walk_slope) <= 1e-13

    def test_fibre_type_end(self, searches):
        # vol(2F1 + 3F2 - mu F1) = 6 (2 - mu): P^2 = 0 at gamma = 2, P != 0
        model = ds.bundled_model("p1xp1")
        f1_, L = model.named_valuations["ord_f1"], model.divisor([2, 3])
        assert ds.gamma_threshold(model, L, f1_) == 2
        assert model._compiled(L, (f1_,)).thresholds() == [2.0]
        assert expected_order_S_grad(model, L, FiltrationSpec((f1_,), (0.0,))) == (1.0, (1.0,))
        capped = FiltrationSpec((f1_, ds.TRIVIAL_VALUATION), (0.0, 1.0))
        # int_0^1 6 (2 - mu) / 12 = 3/4; dS/dt = 1 - 6 / 12
        assert expected_order_S_grad(model, L, capped) == (0.75, (0.5, 0.5))
        # a cap at or below the shift: an empty range, S the least shift
        low = FiltrationSpec((self.TRIVIAL_2, f1_, ds.TRIVIAL_VALUATION), (0.5, 1.0, 0.5))
        assert expected_order_S_grad(model, L, low) == (0.5, (1.0, 0.0, 0.0))
        assert searches == []


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


def _fresh_blp2():
    model = SurfaceModel(
        "blp2_fresh",
        [[1, 0], [0, -1]],
        negative_curves=[[0, 1]],
        canonical_class=[-3, 1],
        sample_curves=[[1, 0], [1, -1]],
    )
    model.curve_valuation("ord_e", [0, 1])
    return model


def _outcome(f, *args):
    try:
        return f(*args)
    except ds.GeometryError as e:
        return type(e)


class TestKernelMatchesReference:
    """The int chamber kernel against the Fraction walk of tests/_reference.py."""

    @staticmethod
    def models():
        perm_a = SurfaceModel(
            "perm_a",
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            negative_curves=[[0, 1, 0], [0, 0, 1], [1, -1, -1]],
            canonical_class=[-3, 1, 1],
            sample_curves=[[1, 0, 0], [1, -1, 0], [1, 0, -1]],
        )
        for name, coeffs in [("e1", [0, 1, 0]), ("e2", [0, 0, 1]), ("l12", [1, -1, -1]), ("h", [1, 0, 0])]:
            perm_a.curve_valuation(name, coeffs)
        # blp2 in the basis (2H, E/3): rational matrix and rational curves
        scaled = SurfaceModel(
            "blp2_scaled",
            [[4, 0], [0, Fraction(-1, 9)]],
            negative_curves=[[0, 3]],
            sample_curves=[[Fraction(1, 2), 0], [Fraction(1, 2), -3]],
        )
        scaled.curve_valuation("ord_e", [0, 3])
        scaled.curve_valuation("ord_line", [Fraction(1, 2), 0])
        # no negative curves: irrational thresholds, and an unbounded one
        open_ = SurfaceModel("open", [[1, 0], [0, -2]], sample_curves=[[1, 0]])
        for name, coeffs in [("h", [1, 0]), ("e", [0, 1]), ("he", [1, 1]), ("minus_h", [-1, 0])]:
            open_.curve_valuation(name, coeffs)
        return surface_models() + [perm_a, scaled, open_]

    def test_zariski_volume_gamma(self):
        rng = random.Random(2024)
        models = self.models()
        seen = {"big": 0, "not_psef": 0, "incomplete": 0, "gamma": 0}
        for n in range(1200):
            model = models[n % len(models)]
            if rng.random() < 0.3 and model.name in ("p2", "blp2", "p1xp1", "f1"):
                D = random_big_class(model, rng)
            else:
                D = model.divisor([Fraction(rng.randint(-9, 18), rng.randint(1, 4)) for _ in range(model.class_rank)])
            try:
                P, N = reference.surface_zariski(model, D)
            except ds.NotPseudoeffectiveError as ref_error:
                seen["not_psef"] += 1
                with pytest.raises(ds.NotPseudoeffectiveError) as caught:
                    model.zariski(D)
                # the same check fails: the Gram submatrix test or another one
                assert ("negative definite" in str(caught.value)) == ("negative definite" in str(ref_error))
                assert model.volume(D) == 0
                continue
            volume = reference.surface_volume(model, D)
            if volume < 0:
                # a nef class has P^2 >= 0 (Hodge index): a declared curve is missing
                seen["incomplete"] += 1
                for query in (model.zariski, model.volume, model.is_big):
                    with pytest.raises(ds.GeometryError, match="the declared curves are incomplete"):
                        query(D)
                continue
            dec = model.zariski(D)
            assert dec.positive_part.coefficients == P
            assert [(model.negative_curves.index(c), a) for c, a in dec.negative_part] == list(N)
            assert model.volume(D) == volume
            if volume <= 0:
                continue
            seen["big"] += 1
            for v in model.named_valuations.values():
                expected = _outcome(reference.surface_threshold, model, D, v)
                assert _outcome(model.closed_form_threshold, D, v) == expected
                seen["gamma"] += 1
        assert seen["not_psef"] >= 200 and seen["incomplete"] >= 20 and seen["big"] >= 500 and seen["gamma"] >= 1500, seen


    def test_semidefinite_support_rejected(self):
        # E1 and the line through both blown-up points: Gram determinant 0
        model = SurfaceModel("pair", [[1, 0, 0], [0, -1, 0], [0, 0, -1]], negative_curves=[[0, 1, 0], [1, -1, -1]])
        D = model.divisor([0, 6, -3])
        for zariski in (model.zariski, lambda D: reference.surface_zariski(model, D)):
            with pytest.raises(ds.NotPseudoeffectiveError, match="not negative definite"):
                zariski(D)


class TestRationalLattice:
    """blp2 in the basis (H/2, E): the class (a, b) there is (a/2, b) on blp2."""

    @pytest.mark.parametrize(
        "coeffs, volume, gamma",
        [
            ((6, -1), 8, 2),
            ((2, 2), 1, 3),
            ((Fraction(7, 3), Fraction(1, 2)), Fraction(49, 36), Fraction(5, 3)),
            ((6, Fraction(-5, 2)), Fraction(11, 4), Fraction(1, 2)),
        ],
    )
    def test_matches_blp2(self, coeffs, volume, gamma):
        half = SurfaceModel(
            "blp2_half",
            [[Fraction(1, 4), 0], [0, -1]],
            negative_curves=[[0, 1]],
            sample_curves=[[2, 0], [2, -1]],
        )
        e = half.curve_valuation("ord_e", [0, 1])
        a, b = (Fraction(c) for c in coeffs)
        L, base = half.divisor([a, b]), blp2.divisor([a / 2, b])
        assert half.volume(L) == blp2.volume(base) == volume
        assert ds.gamma_threshold(half, L, e) == ds.gamma_threshold(blp2, base, blp2.named_valuations["ord_e"]) == gamma
        # volume_float on the int-scaled data agrees too
        assert abs(half.volume_float([float(a), float(b)]) - float(volume)) < 1e-12
        S_half = expected_order_S(half, L, FiltrationSpec((e,), (0.25,)))
        S_base = expected_order_S(blp2, base, FiltrationSpec((blp2.named_valuations["ord_e"],), (0.25,)))
        assert abs(S_half - S_base) < 1e-12


class TestDecompositionMemo:
    def test_interleaved_classes(self):
        model = _fresh_blp2()
        big_a, big_b, off = model.divisor([1, 2]), model.divisor([3, -1]), model.divisor([1, -2])
        expected = {
            big_a: ((1, 0), [((0, 1), 2)], 1),
            big_b: ((3, -1), [], 8),
        }
        messages = []
        for D in [big_a, big_b, off, big_a, off, off, big_b, big_a, big_b]:
            if D is off:
                with pytest.raises(ds.NotPseudoeffectiveError) as caught:
                    model.zariski(D)
                messages.append(caught.value)
                assert model.volume(D) == 0 and not model.is_big(D)
                continue
            P, N, volume = expected[D]
            dec = model.zariski(D)
            assert dec.positive_part.coefficients == P
            assert [(c.coefficients, a) for c, a in dec.negative_part] == N
            assert model.volume(D) == volume
        assert len({id(e) for e in messages}) == len(messages) == 3
        assert len({str(e) for e in messages}) == 1

    def test_one_class_is_decomposed_once(self, monkeypatch):
        # volume, gamma, S and zariski on one fresh L run the exact d = 0
        # chamber once between them
        calls = []
        chamber = SurfaceModel._chamber

        def counting(self, lat, b, d, q, x):
            if lat is self._exact and not any(d):
                calls.append(b)
            return chamber(self, lat, b, d, q, x)

        monkeypatch.setattr(SurfaceModel, "_chamber", counting)
        model = _fresh_blp2()
        e = model.named_valuations["ord_e"]
        L = model.divisor([5, 2])
        assert model.volume(L) == 25
        assert ds.gamma_threshold(model, L, e) == 7
        assert abs(expected_order_S(model, L, FiltrationSpec((e,), (0.0,))) - 16 / 3) < 1e-12
        assert model.zariski(L).positive_part.coefficients == (5, 0)
        assert len(calls) == 1

    def test_fresh_classes_build_no_decomposition(self, monkeypatch):
        # volume, gamma and S read the ints the memo keeps; the Fractions of
        # P and N are built when zariski asks, once, and equal the reference
        # and the decomposition of a model that asked zariski first
        built = []

        def counting(*args):
            built.append(args)
            return ds.ZariskiDecomposition(*args)

        monkeypatch.setattr(ds.surface, "ZariskiDecomposition", counting)
        rng = random.Random(35)
        for name in ds.SURFACE_MODEL_NAMES:
            model, first = ds.models._BUILDERS[name](), ds.models._BUILDERS[name]()
            pool = sorted(model.named_valuations)
            for _ in range(500):
                L = model.divisor([0] * model.class_rank)
                for gen in AMPLE[name]:
                    L = L + Fraction(rng.randint(300, 8000), 1000) * model.divisor(gen)
                if model.negative_curves and rng.random() < 0.4:
                    L = L + Fraction(rng.randint(1, 3), 2) * model.negative_curves[0]
                v = model.named_valuations[rng.choice(pool)]
                support = (v, ds.TRIVIAL_VALUATION) if rng.random() < 0.5 else (v,)
                before = len(built)
                assert model.volume(L) > 0
                ds.gamma_threshold(model, L, v)
                expected_order_S(model, L, FiltrationSpec(support, tuple(rng.uniform(0, 2) for _ in support)))
                assert len(built) == before, (name, L)
                dec = model.zariski(L)
                assert model.zariski(L) is dec and len(built) == before + 1
                P, N = reference.surface_zariski(model, L)
                assert dec.positive_part.coefficients == P
                assert [(model.negative_curves.index(c), a) for c, a in dec.negative_part] == list(N)
                assert first.zariski(L) == dec
                assert len(model._memo[1]) <= 4

    def test_beta_decomposes_its_class_once(self, monkeypatch):
        # the Danskin term pairs H with the positive part the compiled problem
        # kept, so beta runs the exact d = 0 chamber on L once
        calls = []
        chamber = SurfaceModel._chamber

        def counting(self, lat, b, d, q, x):
            if lat is self._exact and not any(d):
                calls.append(b)
            return chamber(self, lat, b, d, q, x)

        monkeypatch.setattr(SurfaceModel, "_chamber", counting)
        model = _fresh_blp2()
        L = model.divisor([Fraction(7, 2), Fraction(-1, 3)])
        mu = ds.DivisorialMeasure.make([(model.named_valuations["ord_e"], Fraction(1, 2)), (ds.TRIVIAL_VALUATION, Fraction(1, 2))])
        report = ds.beta(model, L, mu)
        assert calls.count((21, -2)) == 1
        assert report.norm > 0


class TestNegativeDefiniteSolve:
    """`_solve_negative_definite` against the elimination on Fractions in
    `tests/_reference.py`: the same None and the same solutions, on int and
    float columns, with x of its column's type."""

    @staticmethod
    def gram_of(rng, n, kind):
        if kind == "indefinite":
            upper = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        # -B B^T is negative definite for B of full rank n, else semidefinite
        # with a zero determinant, so a zero leading minor
        rank = n if kind == "definite" else rng.randint(0, n - 1)
        B = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
        return [[-sum(a * b for a, b in zip(B[i], B[j])) - (kind == "definite" and i == j) for j in range(n)]
                for i in range(n)]

    def test_matches_reference(self):
        from divstab.surface import _solve_negative_definite

        rng = random.Random(41)
        solved = {"definite": 0, "semidefinite": 0, "indefinite": 0}
        for case in range(1200):
            n, kind = rng.randint(1, 4), ("definite", "semidefinite", "indefinite")[case % 3]
            gram = self.gram_of(rng, n, kind)
            ints = [tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(2)]
            floats = [tuple(rng.uniform(-50.0, 50.0) for _ in range(n)) for _ in range(2)]
            exact = [[Fraction(a) for a in row] for row in gram]
            ref = reference._surface_solve(exact, [[Fraction(c) for c in col] for col in ints + floats])
            sol = _solve_negative_definite(gram, ints + floats)
            if kind == "semidefinite":
                assert sol is None and ref is None
            if ref is None:
                assert sol is None
                continue
            solved[kind] += 1
            g, xs = sol
            assert type(g) is int and g > 0
            for col, x, want in zip(ints, xs, ref):
                assert all(type(v) is int for v in x)
                assert [Fraction(v, g) for v in x] == want
                assert [sum(a * v for a, v in zip(row, x)) for row in gram] == [g * c for c in col]
            for x, want in zip(xs[2:], ref[2:]):
                assert all(type(v) is float for v in x)
                scale = max(1.0, *(abs(float(w)) for w in want))
                assert max(abs(v / g - float(w)) for v, w in zip(x, want)) <= 1e-12 * scale
        assert solved["definite"] == 400 and solved["indefinite"] >= 20, solved

    def test_pivots_are_the_leading_minors(self):
        # one elimination gives both: None iff a leading minor of order k has
        # not the sign (-1)^k, else g = |det gram| and x = g gram^-1 c, each
        # against the Fraction determinant and solve
        from divstab.surface import _solve_negative_definite

        rng = random.Random(36)
        kinds = {"definite": 0, "indefinite": 0}
        for case in range(800):
            n, kind = rng.randint(1, 4), ("definite", "indefinite")[case % 2]
            gram = self.gram_of(rng, n, kind)
            exact = [[Fraction(a) for a in row] for row in gram]
            minors = [reference.det_exact([row[:k] for row in exact[:k]]) for k in range(1, n + 1)]
            cols = [tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(2)]
            sol = _solve_negative_definite(gram, cols)
            if any((-1) ** k * d <= 0 for k, d in enumerate(minors, 1)):
                assert sol is None
                continue
            kinds[kind] += 1
            g, xs = sol
            assert g == (-1) ** n * minors[-1]
            for col, x in zip(cols, xs):
                assert [Fraction(v) for v in x] == [g * y for y in reference.solve_exact(exact, list(map(Fraction, col)))]
        assert kinds["definite"] == 400 and kinds["indefinite"] >= 10, kinds


class TestNegativeDefiniteExchanges:
    def test_exchanged_rows_are_counted(self):
        # blockdiag([[0, -1], [-1, 0]], [[0, -1], [-1, 0]]) is indefinite, yet
        # its elimination exchanges rows twice and its pivots -1, 1, -1, 1
        # have the signs (-1)^k: a test on the parity of the exchanges passes it
        from divstab.surface import _solve_negative_definite

        block = [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        assert _solve_negative_definite(block, [(1, 2, 3, 4)]) is None
        assert _solve_negative_definite([[0, -1], [-1, 0]], [(1, 2)]) is None
