import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import divstab as ds
from divstab.core import Valuation
from divstab import toric
from divstab.filtrations import FiltrationSpec, d_infinity, expected_order_S, filtration_volume_finite_k
from divstab.toric import ToricModel

import _reference as reference

p2t = ds.bundled_model("p2_toric")
ppt = ds.bundled_model("p1xp1_toric")
f1t = ds.bundled_model("f1_toric")
L3H = p2t.divisor([0, 0, 3])
E1 = p2t.named_valuations["e1"]


class TestModelValidation:
    def test_non_primitive_ray_rejected(self):
        with pytest.raises(ds.GeometryError):
            ToricModel("bad", [[2, 0], [0, 1], [-1, -1]])

    def test_unbounded_fan_rejected(self):
        # rays spanning only a halfplane give unbounded section polytopes
        with pytest.raises(ds.GeometryError):
            ToricModel("bad", [[1, 0], [0, 1]])

    def test_mixed_dimension_rays_rejected(self):
        with pytest.raises(ds.GeometryError):
            ToricModel("bad", [[1, 0], [0, 1, 0]])

    @pytest.mark.parametrize("entry", [1.5, "1", True])
    def test_non_integer_ray_entry_rejected(self, entry):
        # once silently truncated: 1.5 built P^2 with the ray (1, 0)
        with pytest.raises(ds.GeometryError, match=r"^ray \[.*\] is not an integer vector$"):
            ToricModel("bad", [[entry, 0], [0, 1], [-1, -1]])

    def test_non_integer_valuation_vector_rejected(self):
        model = ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        with pytest.raises(ds.GeometryError, match=r"^valuation vector \[1\.9, 0\.2\] is not an integer vector$"):
            model.monomial_valuation("half", [1.9, 0.2])
        assert "half" not in model.named_valuations

    def test_numpy_int_entries_accepted(self):
        model = ToricModel("p2_numpy", np.array([[1, 0], [0, 1], [-1, -1]]))
        assert all(type(x) is int for ray in model.rays for x in ray)
        assert model.monomial_valuation("diag", np.array([1, 1])).log_discrepancy == 2

    def test_repeated_ray_rejected(self):
        # once accepted, with a class group of rank 4 and a phantom divisor in -K
        with pytest.raises(ds.GeometryError, match=r"^ray \(1, 0\) is repeated$"):
            ToricModel("dup", [[1, 0], [1, 0], [0, 1], [-1, -1]])


class TestPolytopeVolume:
    def test_standard_triangle(self):
        assert p2t.volume(L3H) == 9

    def test_unit_square(self):
        assert ppt.volume(ppt.divisor([0, 1, 0, 1])) == 2

    def test_point_polytope(self):
        assert p2t.volume(p2t.divisor([0, 0, 0])) == 0

    def test_anticanonical_volumes(self):
        assert p2t.volume(-p2t.canonical_class) == 9
        assert ppt.volume(-ppt.canonical_class) == 8
        assert f1t.volume(-f1t.canonical_class) == 8

    def test_three_dimensional(self):
        # P^3: unit tetrahedron dilated by 2, volume 3! * 8/6 = 8
        p3 = ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
        assert p3.volume(p3.divisor([0, 0, 0, 2])) == 8
        assert p3.volume(-p3.canonical_class) == 64

    def test_matches_surface_backend(self):
        # f1_toric ray divisors map to (S, F) classes as
        # D = (a1, a2, a3, a4) -> (a2 + a4) S + (a1 + a3 + a4) F
        f1 = ds.bundled_model("f1")
        rng = random.Random(3)
        for _ in range(30):
            a = [Fraction(rng.randint(0, 4)) for _ in range(4)]
            toric_vol = f1t.volume(f1t.divisor(a))
            surf_vol = f1.volume(f1.divisor([a[1] + a[3], a[0] + a[2] + a[3]]))
            assert toric_vol == surf_vol


class TestConstrainedVolume:
    def test_zero_constraint_is_vacuous(self):
        assert p2t.constrained_volume(L3H, [((1, 0), 0)]) == 9

    def test_constraint_at_threshold_empties(self):
        assert p2t.constrained_volume(L3H, [((1, 0), 3)]) == 0

    def test_unit_slab(self):
        # remaining region {x >= 1, y >= 0, x + y <= 3} has area 2;
        # cross-checked against the surface route vol(3H - line) = (3-1)^2 = 4
        assert p2t.constrained_volume(L3H, [((1, 0), 1)]) == 4
        p2s = ds.bundled_model("p2")
        assert p2s.volume(p2s.divisor([2])) == 4

    def test_empty_constraints_equal_volume(self):
        for D in ([0, 0, 3], [1, 1, 1], [0, 2, 2]):
            div = p2t.divisor(D)
            assert p2t.constrained_volume(div, []) == p2t.volume(div)

    def test_non_increasing_in_each_level(self):
        vals = [
            p2t.constrained_volume(L3H, [((1, 0), Fraction(c, 4))])
            for c in range(0, 13)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_irrational_level_approximation(self):
        import math

        exact = p2t.constrained_volume(L3H, [((1, 0), Fraction(math.sqrt(2)).limit_denominator(10**12))])
        approx = p2t.constrained_volume(L3H, [((1, 0), math.sqrt(2))])
        assert abs(float(exact) - float(approx)) < 1e-9


class TestSectionBasis:
    def test_counts(self):
        assert len(p2t.section_basis(L3H, 1)) == 10
        assert len(p2t.section_basis(L3H, 2)) == 28
        assert len(ppt.section_basis(ppt.divisor([0, 1, 0, 1]), 1)) == 4

    def test_ehrhart_convergence(self):
        k = 50
        count = len(p2t.section_basis(L3H, k))
        approx = count / (k**2) * 2
        assert abs(approx - 9) / 9 < 0.05

    def test_invalid_level(self):
        with pytest.raises(ds.GeometryError):
            p2t.section_basis(L3H, 0)

    def test_lattice_points_kept_read_only(self):
        model = ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        L = model.divisor([0, 0, 3])
        basis = model.section_basis(L, 2)
        first = model.lattice_points(L, 2)
        with pytest.raises(ValueError):
            first[0, 0] = 99
        assert model.lattice_points(L, 2).tolist() == first.tolist() == [list(m) for m in basis]
        # another (L, k) takes the slot; the first comes back the same
        assert len(model.section_basis(L, 1)) == 10
        assert model.section_basis(L, 2) == basis


class TestMonomialValuations:
    def test_ray_log_discrepancy_one(self):
        for model in (p2t, ppt, f1t):
            for ray in model.rays:
                assert model.log_discrepancy(ray) == 1

    def test_interior_vector(self):
        assert p2t.log_discrepancy((1, 1)) == 2
        assert p2t.log_discrepancy((2, 1)) == 3

    def test_only_cones_of_the_fan_count(self):
        # (-1, 2) lies in the cone of (0, 1) and (-1, 1); the unimodular pair
        # (1, 0), (-1, 1) spans no cone of F1 and would give 3
        assert f1t.log_discrepancy((-1, 2)) == 2
        star = ToricModel("star", [[1, 0], [0, 1], [-1, -1], [1, 1]])
        assert star.log_discrepancy((1, 1)) == 1
        assert star.log_discrepancy((2, 1)) == 2
        assert star.log_discrepancy((1, 2)) == 2
        assert star.log_discrepancy((-1, 0)) == 2

    def test_simplex_fans_use_every_subset(self):
        p3 = ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
        assert p3.log_discrepancy((1, 1, 0)) == 2
        assert p3.log_discrepancy((-1, 0, 0)) == 3

    def test_fan_not_fixed_by_its_rays_rejected(self):
        cube = ToricModel(
            "p1_cubed", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        )
        with pytest.raises(ds.GeometryError, match="not determined by its rays"):
            cube.monomial_valuation("e1", [1, 0, 0])

    def test_orders_anchored_at_zero(self):
        for v in p2t.named_valuations.values():
            orders = [p2t.monomial_order(L3H, 1, v, m) for m in p2t.section_basis(L3H, 1)]
            assert min(orders) == 0

    def test_non_lattice_monomial_rejected(self):
        with pytest.raises(ds.GeometryError):
            p2t.monomial_order(L3H, 1, E1, (0.5, 0))

    def test_twist_requires_nontrivial(self):
        from divstab.core import TRIVIAL_VALUATION

        with pytest.raises(ds.GeometryError):
            p2t.twisted_volume(L3H, [(TRIVIAL_VALUATION, 1)])


class TestCrossBackendAgreement:
    def test_expected_order_matches_surface(self):
        # S along the corresponding negative-section valuations of F1
        f1 = ds.bundled_model("f1")
        s_toric = expected_order_S(
            f1t, -f1t.canonical_class,
            FiltrationSpec((f1t.named_valuations["e2"],), (0.0,)),
        )
        s_surface = expected_order_S(
            f1, f1.divisor([2, 3]),
            FiltrationSpec((f1.named_valuations["ord_s"],), (0.0,)),
        )
        assert abs(s_toric - 7.0 / 6.0) < 1e-8
        assert abs(s_surface - s_toric) < 1e-8

    def test_multi_valuation_volume_agreement(self):
        # simultaneous constraints computed on the polytope agree with the
        # surface-side twisted volume for divisorial directions
        f1 = ds.bundled_model("f1")
        rng = random.Random(9)
        for _ in range(15):
            c_s = Fraction(rng.randint(0, 3), 2)
            c_f = Fraction(rng.randint(0, 3), 2)
            toric = f1t.twisted_volume(
                -f1t.canonical_class,
                [(f1t.named_valuations["e2"], c_s), (f1t.named_valuations["e1"], c_f)],
            )
            surf = f1.twisted_volume(
                f1.divisor([2, 3]),
                [(f1.named_valuations["ord_s"], c_s), (f1.named_valuations["ord_f"], c_f)],
            )
            assert toric == surf


# models for the reference comparison, beside the bundled 2-d ones
EXTRA_MODELS = {
    "p3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "p4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
    "cube": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
}


def as_fractions(model, polytope):
    """A `_polytope` result read as Fractions: its int points over one
    denominator as the sorted vertices, its int mass and moment over their
    scales as the Euclidean volume and first moment."""
    points, common, mass, moment = polytope[:4]
    n = model.dimension
    scale = common**n * math.factorial(n)
    return (sorted(tuple(Fraction(x, common) for x in p) for p in points), Fraction(mass, scale),
            tuple(Fraction(m, scale * common * (n + 1)) for m in moment))


def fraction_kernel(model, halfspaces):
    return as_fractions(model, model._polytope(halfspaces))


def p3_model():
    p3 = ToricModel("p3", EXTRA_MODELS["p3"])
    for name, w in (("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("e123", (1, 1, 1))):
        p3.monomial_valuation(name, w)
    return p3


class TestSmallScaleExactness:
    @pytest.mark.parametrize("c", [Fraction(1, 10**10), Fraction(1, 10**12), Fraction(10**6)])
    def test_p3_scaled_hyperplane(self, c):
        # the simplex c * {m >= 0, m1 + m2 + m3 <= 1}: volume c^3, centroid c/4
        p3 = p3_model()
        L = p3.divisor([0, 0, 0, c])
        assert p3.volume(L) == c**3 * p3.volume(p3.divisor([0, 0, 0, 1])) == c**3
        assert ds.is_big(p3, L)
        spec = FiltrationSpec((p3.named_valuations["e1"],), (0.0,))
        assert expected_order_S(p3, L, spec) == float(c / 4)


class TestPolytopeKernelMatchesReference:
    def test_random_systems(self):
        # section polytopes of random unit-scale classes, cut by 0-3 random
        # halfspaces with rational or Fraction(float) right-hand sides; the
        # reference's float flatness test is reliable at this scale
        models = [p2t, ppt, f1t] + [ToricModel(n, r) for n, r in EXTRA_MODELS.items()]
        rng = random.Random(2024)
        kinds = {"empty": 0, "flat": 0, "full": 0}
        for _ in range(1000):
            model = rng.choice(models)
            n = model.dimension
            a = [Fraction(rng.randint(-1, 3), rng.randint(1, 3)) for _ in model.rays]
            halfspaces = model._halfspaces(model.divisor(a))
            for _ in range(rng.randint(0, 3)):
                w = tuple(rng.randint(-2, 2) for _ in range(n))
                if rng.random() < 0.5:
                    rhs = Fraction(rng.uniform(-1, 1))
                else:
                    rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                if any(w):
                    halfspaces.append((w, rhs))
            verts, mass, moment = fraction_kernel(model, halfspaces)
            ref_verts = reference.vertices(n, halfspaces)
            assert verts == ref_verts
            assert (mass, moment) == reference.mass_moment(n, ref_verts)
            kinds["empty" if not verts else "full" if mass > 0 else "flat"] += 1
        assert min(kinds.values()) >= 50, kinds


class TestIntVerticesMatchReference:
    """The anchors, thresholds and lattice boxes read off the int vertex
    points over one denominator equal those of the reference's Fraction
    vertices, on empty, flat and non-integral section polytopes."""

    MODELS = [m for m in map(ds.bundled_model, ds.bundled_model_names()) if isinstance(m, ToricModel)]
    MODELS += [ToricModel(n, r) for n, r in EXTRA_MODELS.items()]
    # singular fans, whose integral classes have fractional vertices: three
    # weighted projective spaces, and a fan with lattice-free boxes of k P_L
    SINGULAR = [ToricModel("p112", [[1, 0], [0, 1], [-1, -2]]), ToricModel("p123", [[1, 0], [0, 1], [-2, -3]]),
                ToricModel("p1112", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -2]]),
                ToricModel("lattice-free", [[1, 3], [-2, -1], [1, -2]])]
    MODELS += SINGULAR

    @staticmethod
    def box_scan(model, verts, a, k):
        """The lattice points of k P_L in product order over the box of the
        reference vertices, each ray inequality tested by brute force."""
        n = model.dimension
        lo = [math.ceil(min(k * v[i] for v in verts)) for i in range(n)]
        hi = [math.floor(max(k * v[i] for v in verts)) for i in range(n)]
        box = np.indices([y - x + 1 for x, y in zip(lo, hi)]).reshape(n, -1).T + lo
        inside = (box @ np.array(model.rays).T >= [-int(k * c) for c in a]).all(axis=1)
        return list(map(tuple, box[inside].tolist()))

    def test_anchor_and_threshold_are_exact(self):
        rng = random.Random(16)
        kinds = {"empty": 0, "flat": 0, "full": 0, "negative fractional": 0}
        for _ in range(500):
            model = rng.choice(self.MODELS)
            n = model.dimension
            if rng.random() < 0.1:
                # the single point m0: a flat polytope at a rational vertex
                m0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                a = [-sum(map(mul, m0, r)) for r in model.rays]
            else:
                a = [Fraction(rng.randint(-3, 4), rng.choice((1, 1, 2, 3, 5))) for _ in model.rays]
            L = model.divisor(a)
            verts = reference.vertices(n, model._halfspaces(L))
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            v = Valuation("w", Fraction(1), order_model=w)
            if not verts:
                kinds["empty"] += 1
                for ask in (lambda: model.order_anchor(L, w), lambda: model.closed_form_threshold(L, v)):
                    with pytest.raises(ds.GeometryError, match="^empty section polytope has no order anchor$"):
                        ask()
                continue
            kinds["full" if model.volume(L) > 0 else "flat"] += 1
            kinds["negative fractional"] += any(x < 0 and x.denominator > 1 for p in verts for x in p)
            values = [sum(map(mul, w, p)) for p in verts]
            anchor, gamma = model.order_anchor(L, w), model.closed_form_threshold(L, v)
            assert type(anchor) is Fraction and anchor == min(values)
            assert type(gamma) is Fraction and gamma == max(values) - min(values)
            assert model.polytope_vertices(L) == verts
        assert min(kinds.values()) >= 30, kinds

    def test_lattice_points_match_a_box_scan(self):
        rng = random.Random(1616)
        scanned = negative = 0
        for model in self.MODELS * 20 + self.SINGULAR * 30:
            # P_L moved by a random lattice vector m0 into negative coordinates
            m0 = [rng.randint(-3, 1) for _ in range(model.dimension)]
            a = [Fraction(rng.randint(-3, 4), rng.choice((1, 1, 2, 3, 4))) - sum(map(mul, m0, r))
                 for r in model.rays]
            L = model.divisor(a)
            verts = reference.vertices(model.dimension, model._halfspaces(L))
            for k in range(1, 5):
                if any((k * c).denominator != 1 for c in a):
                    continue
                points = model.lattice_points(L, k)
                assert points.dtype == np.int64 and points.shape[1] == model.dimension
                expected = self.box_scan(model, verts, a, k) if verts else []
                assert model.section_basis(L, k) == expected
                scanned += 1
                negative += any(k * x < 0 and (k * x).denominator > 1 for p in verts for x in p)
        assert scanned >= 150 and negative >= 30, (scanned, negative)

    def test_a_ray_ending_in_zero_off_the_axes(self):
        # on P^2 x P^1 the ray (-1, -1, 0) ends in 0 and is no axis +-e_i: its
        # constraint x + y <= k a_3 cuts prefixes off the (x, y) box, which
        # the scan must drop; the axes' constraints the box keeps itself
        model = ToricModel("p2xp1", [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]])
        rng = random.Random(36)
        cut = 0
        for _ in range(60):
            a = [Fraction(rng.randint(-1, 3), rng.choice((1, 1, 2))) for _ in model.rays]
            L = model.divisor(a)
            verts = reference.vertices(3, model._halfspaces(L))
            for k in (2, 4) if verts else ():
                assert model.section_basis(L, k) == self.box_scan(model, verts, a, k)
                cut += math.floor(k * max(v[0] for v in verts)) + math.floor(k * max(v[1] for v in verts)) > k * a[2]
        assert cut >= 20, cut

    def test_lattice_free_polytopes_have_no_points(self):
        # every small integral class on a fan where a nonempty k P_L can miss
        # the lattice, even along one coordinate
        model = self.SINGULAR[-1]
        lattice_free = 0
        for a in itertools.product(range(-3, 4), repeat=len(model.rays)):
            L = model.divisor(a)
            verts = reference.vertices(model.dimension, model._halfspaces(L))
            for k in range(1, 5) if verts else ():
                expected = self.box_scan(model, verts, a, k)
                assert model.section_basis(L, k) == expected
                lattice_free += not expected
        assert lattice_free >= 40, lattice_free


class TestDegenerateCells:
    def test_cut_through_one_vertex(self):
        # only the vertex (3, 0[, 0]) has m1 - m2 >= 3, which is 6 above the
        # least value of m1 - m2
        p3 = p3_model()
        L3 = p3.divisor([0, 0, 0, 3])
        assert p2t.constrained_volume(L3H, [((1, -1), 6)]) == 0
        assert p3.constrained_volume(L3, [((1, -1, 0), 6)]) == 0
        for model, L, mean in ((p2t, L3H, 1), (p3, L3, Fraction(3, 4))):
            support = (model.named_valuations["e1"], model.named_valuations["e2"])
            assert model.expected_order(L, support, (0, 3)) == (mean, [1, 0])

    def test_cut_along_an_edge(self):
        # m1 + m2 >= 3 leaves only the edge from (3, 0[, 0]) to (0, 3[, 0])
        p3 = p3_model()
        L3 = p3.divisor([0, 0, 0, 3])
        assert p2t.constrained_volume(L3H, [((1, 1), 3)]) == 0
        assert p3.constrained_volume(L3, [((1, 1, 0), 3)]) == 0
        # the cell where diag = e1 + e2 is least is the edge m2 = 0 of 3H
        e1, diag = p2t.named_valuations["e1"], p2t.named_valuations["diag"]
        assert p2t.expected_order(L3H, (e1, diag), (0, 0)) == (1, [1, 0])
        assert p2t.expected_order(L3H, (diag, e1), (0, 0)) == (1, [0, 1])
        # on P^3 the cell of e123 is the edge m2 = m3 = 0
        support = (p3.named_valuations["e1"], p3.named_valuations["e123"])
        assert p3.expected_order(L3, support, (0, 0)) == (Fraction(3, 4), [1, 0])

    def test_cut_duplicating_a_ray_inequality(self):
        p3 = p3_model()
        cube = ToricModel("cube", EXTRA_MODELS["cube"])
        for model, L in ((p2t, L3H), (f1t, -f1t.canonical_class), (p3, p3.divisor([1, 0, 2, 1])),
                         (cube, cube.divisor([1, 0, 1, 2, 0, 1]))):
            halfspaces = model._halfspaces(L)
            expected = fraction_kernel(model, halfspaces)
            for ray, rhs in halfspaces:
                assert fraction_kernel(model, halfspaces + [(ray, rhs)]) == expected
                assert fraction_kernel(model, halfspaces + [(tuple(2 * x for x in ray), 2 * rhs)]) == expected
                assert model.constrained_volume(L, [(ray, 0)]) == model.volume(L)

    def test_empty_polytope(self):
        p3 = p3_model()
        for model, L in ((p2t, p2t.divisor([0, 0, -1])), (p3, p3.divisor([0, 0, 0, -1]))):
            assert model.polytope_vertices(L) == []
            assert model.volume(L) == 0
            assert not ds.is_big(model, L)
            w = model.named_valuations["e1"].order_model
            with pytest.raises(ds.GeometryError, match="^empty section polytope has no order anchor$"):
                model.order_anchor(L, w)

    def test_empty_polytope_threshold(self):
        # read directly, without gamma_threshold's bigness check first
        p3 = p3_model()
        for model, L in ((p2t, p2t.divisor([0, 0, -1])), (p3, p3.divisor([0, 0, 0, -1]))):
            with pytest.raises(ds.GeometryError, match="^empty section polytope has no order anchor$"):
                model.closed_form_threshold(L, model.named_valuations["e1"])


class TestCompleteness:
    @pytest.mark.parametrize(
        "rays", [[[1, 0], [0, 1]], [[1, 0], [-1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    )
    def test_rays_not_spanning_rejected(self, rays):
        with pytest.raises(ds.GeometryError, match="do not positively span"):
            ToricModel("bad", rays)

    def test_bundled_fans_and_p3_accepted(self):
        fans = [ds.bundled_model(name).rays for name in ("p2_toric", "p1xp1_toric", "f1_toric")]
        for rays in fans + [[[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]]:
            assert ToricModel("fan", rays).rays == tuple(map(tuple, rays))


class TestClassRecord:
    def test_a_class_keeps_one_record(self):
        # volume, each threshold, S and finite_k with three valuations leave the
        # class record, one threshold per valuation and the level record, and
        # grow no attribute of the model, class after class
        model = ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        vals = [model.monomial_valuation(n, w) for n, w in (("e1", (1, 0)), ("e2", (0, 1)), ("diag", (1, 1)))]
        sizes = {name: len(x) for name, x in vars(model).items() if hasattr(x, "__len__")}
        for a in ([0, 0, 3], [1, 0, 2], [0, Fraction(1, 2), 3]):
            L = model.divisor(a)
            spec = FiltrationSpec(tuple(vals), (0.0, 0.25, 0.5))
            model.volume(L)
            gammas = [ds.gamma_threshold(model, L, v) for v in vals]
            value = expected_order_S(model, L, spec)
            profile = filtration_volume_finite_k(model, L, spec, 4)
            key, memo = model._memo
            assert key == L.coefficients
            assert set(memo) == {"polytope", "points", *(("gamma", v) for v in vals)}, set(memo)
            assert {name: len(x) for name, x in vars(model).items() if hasattr(x, "__len__")} == sizes
            assert gammas == [gamma_of(model, L, v) for v in vals] and 0 < value < max(gammas) + 0.5
            assert abs(profile.volume / 4 - value) < 0.5

    def test_a_probe_builds_the_polytope_of_its_class_once(self, monkeypatch):
        # the Danskin term of each measure visits L +- H/1000 and L +- H/2000,
        # classes that leave the record of L kept: over three measures, the
        # unseeded kernel runs once on the halfspaces of L
        model = ds.models._BUILDERS["p2_toric"]()
        L = model.divisor([0, 0, 3])
        halfspaces, built, polytope = model._halfspaces(L), [], ToricModel._polytope

        def counting(self, cuts, seeds=None, facets=None):
            built.append(seeds is None and cuts == halfspaces)
            return polytope(self, cuts, seeds, facets)

        monkeypatch.setattr(ToricModel, "_polytope", counting)
        e1, e2, diag = (model.named_valuations[n] for n in ("e1", "e2", "diag"))
        measures = [ds.DivisorialMeasure.make([(e1, 1)]), ds.DivisorialMeasure.make([(e2, 1)]),
                    ds.DivisorialMeasure.make([(e1, Fraction(1, 2)), (diag, Fraction(1, 2))])]
        report = ds.divisorial_stability_probe(model, L, measures)
        assert len(report.entries) == 3 and sum(built) == 1


def gamma_of(model, L, v):
    values = [sum(map(mul, v.order_model, p)) for p in model.polytope_vertices(L)]
    return max(values) - min(values)


class TestSeededCells:
    """A cell seeded with the vertices of P_L and their tight masks equals
    the unseeded `_polytope` of the same halfspaces, masks included, on
    empty, flat, non-nef and full P_L cut by 1-3 halfspaces, some through a
    vertex of P_L."""

    # F1 is the one fan here with non-nef classes: it weighs 8x
    MODELS = TestIntVerticesMatchReference.MODELS + 7 * [f1t]

    def test_seeded_equals_unseeded(self):
        rng = random.Random(1717)
        kinds = {"empty": 0, "flat": 0, "non-nef": 0, "full": 0, "through a vertex": 0, "float": 0}
        for _ in range(600):
            model = rng.choice(self.MODELS)
            n = model.dimension
            if rng.random() < 0.15:
                m0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                a = [-sum(map(mul, m0, r)) for r in model.rays]
            else:
                a = [Fraction(rng.randint(-3, 4), rng.choice((1, 1, 2, 3))) for _ in model.rays]
                if rng.random() < 0.3:
                    # one loose ray inequality: redundant, so L is not nef
                    a[rng.randrange(len(a))] += rng.randint(3, 6)
            L = model.divisor(a)
            base = model._polytope(model._halfspaces(L))
            points, common = base[:2]
            cuts = []
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randint(-2, 2) for _ in range(n))
                if points and rng.random() < 0.3:
                    rhs = Fraction(_dot(w, rng.choice(points)), common)
                    kinds["through a vertex"] += 1
                elif rng.random() < 0.5:
                    rhs = Fraction(rng.uniform(-2, 2))
                    kinds["float"] += 1
                else:
                    rhs = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                cuts.append((w, rhs))
            halfspaces = model._halfspaces(L) + cuts
            unseeded = model._polytope(halfspaces)
            expected = as_fractions(model, unseeded)
            seeded = model._polytope(halfspaces, base[4])
            assert as_fractions(model, seeded) == expected and seeded[4] == unseeded[4]
            assert as_fractions(model, model._cell(model._record(L), cuts)) == expected
            tight_rays = {i for p in points for i, (r, c) in enumerate(model._halfspaces(L))
                          if Fraction(_dot(r, p), common) == c}
            if not points:
                kinds["empty"] += 1
            elif base[2] == 0:
                kinds["flat"] += 1
            else:
                kinds["full"] += 1
                kinds["non-nef"] += len(tight_rays) < len(model.rays)
        assert min(kinds.values()) >= 30, kinds


class TestTriangulationRing:
    """A model keeps the simplices of the last 8 tight-mask patterns
    `_polytope` met: on a model warmed by other classes, every result equals
    that of a fresh model, whose ring is empty."""

    FANS = {"p2_toric": p2t.rays, "p1xp1_toric": ppt.rays, "f1_toric": f1t.rays, **EXTRA_MODELS}

    @staticmethod
    def read(polytope):
        points, common, mass, moment, tight, *fluxes = polytope
        return points, common, mass, moment, list(tight.items()), fluxes

    def test_warm_equals_fresh(self, monkeypatch):
        rng = random.Random(4141)
        warm = {name: ToricModel(name, rays) for name, rays in self.FANS.items()}
        misses, triangulate = [], toric._triangulate
        monkeypatch.setattr(toric, "_triangulate", lambda *args: misses.append(args) or triangulate(*args))
        kinds, warm_calls, warm_misses = {"empty": 0, "flat": 0, "non-nef": 0, "nef": 0}, 0, 0
        for _ in range(500):
            name = rng.choice([*self.FANS] + 3 * ["f1_toric"])
            model, fresh = warm[name], ToricModel(name, self.FANS[name])
            n = model.dimension
            if rng.random() < 0.15:  # a point
                m0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                a = [-_dot(m0, r) for r in model.rays]
            else:
                a = [Fraction(rng.randint(-2, 4), rng.choice((1, 1, 1, 2))) for _ in model.rays]
                if rng.random() < 0.3:  # one loose ray inequality: L is not nef
                    a[rng.randrange(len(a))] += rng.randint(3, 6)
            L = model.divisor(a)
            halfspaces = model._halfspaces(L)
            cuts = [(tuple(rng.randint(-2, 2) for _ in range(n)), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))]
            asked, every = range(len(cuts)), range(len(halfspaces) + len(cuts))
            # P_L, L's record and a cell seeded from it, and the unseeded cell, each with its fluxes
            expected = [self.read(fresh._polytope(halfspaces)), self.read(fresh._cell(fresh._record(L), cuts, asked)),
                        self.read(fresh._polytope(halfspaces + cuts, None, every))]
            start = len(misses)
            got = [self.read(model._polytope(halfspaces)), self.read(model._cell(model._record(L), cuts, asked)),
                   self.read(model._polytope(halfspaces + cuts, None, every))]
            assert got == expected
            warm_calls, warm_misses = warm_calls + 4, warm_misses + len(misses) - start
            base = model._record(L)[0]
            tight = {i for mask in base[4].values() for i in range(len(model.rays)) if mask >> i & 1}
            kinds["empty" if not base[0] else "flat" if not base[2] else "nef" if len(tight) == len(model.rays) else "non-nef"] += 1
        assert min(kinds.values()) >= 30, kinds
        # the warm models met most patterns before
        assert warm_misses < warm_calls / 2, (warm_misses, warm_calls)

    def test_the_ring_keeps_its_length(self):
        rng = random.Random(8)
        model = ToricModel("p3_fresh", EXTRA_MODELS["p3"])
        for _ in range(200):
            L = model.divisor([rng.randint(-1, 4) for _ in model.rays])
            cuts = [(tuple(rng.randint(-2, 2) for _ in range(3)), Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(1, 3))]
            model._cell(model._record(L), cuts, range(len(cuts)))
            assert len(model._ring) == 8
        # full of distinct patterns, none left over from the start
        assert len({entry[0] for entry in model._ring} - {None}) == 8

    def test_a_repeated_pattern_runs_no_face_recursion(self, monkeypatch):
        model = ToricModel("p3_fresh", EXTRA_MODELS["p3"])
        e1, e12 = model.monomial_valuation("e1", (1, 0, 0)), model.monomial_valuation("e12", (1, 1, 0))
        spec = FiltrationSpec((e1, e12), (0.0, 0.25))
        calls, triangulate = [], toric._triangulate
        monkeypatch.setattr(toric, "_triangulate", lambda *args: calls.append(args) or triangulate(*args))
        value = expected_order_S(model, model.divisor([0, 0, 0, 3]), spec)
        assert len(calls) == 2  # P_L and the cell
        # translates of one class: the same tight masks in the same order
        for a in ([1, 0, 0, 2], [0, 2, -1, 2], [-1, 0, 1, 3]):
            L = model.divisor(a)
            assert model.volume(L) == 27 and expected_order_S(model, L, spec) == value
        assert len(calls) == 2


def _dot(a, b):
    return sum(map(mul, a, b))


class TestMalformedInput:
    @pytest.mark.parametrize("w", [(1, 0, 0), (1,), (0, 0), ()])
    def test_valuation_vector_of_wrong_length_or_zero_rejected(self, w):
        model = ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        with pytest.raises(ds.GeometryError, match="not a nonzero vector of length 2"):
            model.monomial_valuation("bad", w)
        with pytest.raises(ds.GeometryError, match="not a nonzero vector of length 2"):
            model.log_discrepancy(w)
        assert model.named_valuations == {}

    @pytest.mark.parametrize("k", [2.5, 2.0, True, 0, -1, "2"])
    def test_bad_level_rejected(self, k):
        with pytest.raises(ds.GeometryError, match="^level k must be a positive integer$"):
            p2t.lattice_points(L3H, k)

    def test_numpy_integer_level_accepted(self):
        assert p2t.section_basis(L3H, np.int64(2)) == p2t.section_basis(L3H, 2)


class TestVectorLength:
    """A vector of another length than the fan's is an error wherever a
    valuation vector is read, not a dot product over the shorter one."""

    WRONG = r"^valuation vector \(1, 1, 0\) is not a nonzero vector of length 2$"

    def test_valuation_of_another_fan_rejected(self):
        # P^3's e12 once gave S 2.0 and gamma 3 on p2_toric, those of (1, 1)
        p3 = ToricModel("p3", EXTRA_MODELS["p3"])
        e12 = p3.monomial_valuation("e12", (1, 1, 0))
        spec = FiltrationSpec((e12,), (0.0,))
        for ask in (lambda: expected_order_S(p2t, L3H, spec), lambda: ds.gamma_threshold(p2t, L3H, e12),
                    lambda: filtration_volume_finite_k(p2t, L3H, spec, 2)):
            with pytest.raises(ds.GeometryError, match=self.WRONG):
                ask()

    @pytest.mark.parametrize("w", [(1,), (1, 1, 0)])
    def test_constraint_of_wrong_length_rejected(self, w):
        # both once returned 4, the volume cut by the first coordinate >= 1
        with pytest.raises(ds.GeometryError, match=f"^valuation vector {re.escape(str(w))} is not a nonzero vector"):
            p2t.constrained_volume(L3H, [(w, 1)])

    @pytest.mark.parametrize("w", [(1.0, 0), (1, 0.5), (1, 0, 0)])
    def test_order_anchor_checks_its_vector(self, w):
        # (1.0, 0) once returned 0 and (1, 0.5) raised a TypeError
        with pytest.raises(ds.GeometryError, match="^valuation vector .* is not an? (integer|nonzero) vector"):
            p2t.order_anchor(L3H, w)
        assert p2t.order_anchor(L3H, np.array([1, 0])) == 0

    def test_a_valuation_under_a_held_name_is_checked_on_every_read(self):
        # only the very valuation a model holds under its name skips the check
        impostor = Valuation("e1", 1, order_model=(1, 1, 0))
        spec = FiltrationSpec((impostor,), (0.0,))
        for _ in range(2):
            for ask in (lambda: ds.gamma_threshold(p2t, L3H, impostor), lambda: expected_order_S(p2t, L3H, spec),
                        lambda: filtration_volume_finite_k(p2t, L3H, spec, 2)):
                with pytest.raises(ds.GeometryError, match=self.WRONG):
                    ask()

    def test_a_vector_is_checked_when_added_not_when_read(self, monkeypatch):
        model = ToricModel("p2_fresh", [[1, 0], [0, 1], [-1, -1]])
        with pytest.raises(ds.GeometryError, match=self.WRONG):
            model.add_valuation(Valuation("bad", 1, order_model=(1, 1, 0)))
        with pytest.raises(ds.GeometryError, match="^valuation 'curve' is not a monomial valuation$"):
            model.add_valuation(Valuation("curve", 1))
        assert model.named_valuations == {}
        e1, e2 = model.monomial_valuation("e1", (1, 0)), model.monomial_valuation("e2", (0, 1))
        checked, vector = [], ToricModel._vector
        monkeypatch.setattr(ToricModel, "_vector", lambda self, w, *a: checked.append(w) or vector(self, w, *a))
        L, spec = model.divisor([0, 0, 3]), FiltrationSpec((e1, e2), (0.0, 0.5))
        ds.gamma_threshold(model, L, e2)
        expected_order_S(model, L, spec)
        d_infinity(model, L, spec, FiltrationSpec((e1, e2), (0.5, 0.0)), 3)
        assert checked == []


def _fans(rng):
    """(kind, rays): smooth complete 2-d fans by star subdivision of p2,
    p1xp1, f1 and F2, the same with rays dropped, fans in a half-plane, 3-d
    fans of four rays and of five, P^1 and the cube, each in a random order."""
    starts = [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (-1, 0), (0, 1), (0, -1)],
              [(1, 0), (0, 1), (-1, 1), (0, -1)], [(1, 0), (0, 1), (-1, 2), (0, -1)]]
    for _ in range(60):
        rays = list(rng.choice(starts))
        for _ in range(rng.randint(0, 4)):
            ordered = reference.order_rays(rays)
            i = rng.randrange(len(ordered))
            rays.append(tuple(map(sum, zip(ordered[i], ordered[i - 1]))))
        yield "smooth", rays
        yield "dropped", [r for r in rays if r not in rng.sample(rays, rng.randint(1, 2))]
    for _ in range(20):
        rays = {(rng.randint(-3, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 5))}
        yield "half-plane", [r for r in rays if math.gcd(*r) == 1 and r[1] >= 0]
    for _ in range(40):
        last = tuple(-rng.randint(0, 3) for _ in range(3))
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + ([last] if math.gcd(*last) == 1 else [(-1, -1, -1)])
        yield "3-d", rays
        yield "3-d, five rays", rays + [(1, 1, 0)]
    yield "1-d", [(1,), (-1,)]
    yield "cube", EXTRA_MODELS["cube"]


class TestFanOracles:
    """Completeness against HiGHS and log discrepancies against the cones
    found by exact angle comparison (`tests/_reference.py`): the same
    acceptance, and at random w the same value or the same error."""

    @staticmethod
    def outcome(ask):
        try:
            return ask()
        except ds.GeometryError as exc:
            return str(exc)

    def test_fans_match_the_oracles(self):
        rng = random.Random(40)
        kinds = {"incomplete": 0, "value": 0, "no smooth cone": 0, "not determined": 0}
        for kind, rays in _fans(rng):
            rng.shuffle(rays)
            if not reference.positively_spans(rays):
                with pytest.raises(ds.GeometryError, match="^rays do not positively span the lattice"):
                    ToricModel("fan", rays)
                kinds["incomplete"] += 1
                continue
            assert kind != "half-plane"
            model = ToricModel("fan", rays)
            for _ in range(20):
                w = tuple(rng.randint(-4, 4) for _ in rays[0])
                if any(w):
                    got = self.outcome(lambda: model.log_discrepancy(w))
                    assert got == self.outcome(lambda: reference.log_discrepancy("fan", rays, w)), (rays, w)
                    if isinstance(got, Fraction):
                        kinds["value"] += 1
                    else:
                        kinds["no smooth cone" if got.endswith("smooth cone") else "not determined"] += 1
        assert min(kinds.values()) >= 30, kinds


class TestMonomialOrderInput:
    """`monomial_order` and `monomial_orders` check the level as
    `lattice_points` does, and the length of each monomial."""

    TRIVIAL = ds.TRIVIAL_VALUATION

    @pytest.mark.parametrize("k", [2.5, 2.0, True, 0, -1, "2"])
    def test_bad_level_rejected(self, k):
        for v in (E1, self.TRIVIAL):
            with pytest.raises(ds.GeometryError, match="^level k must be a positive integer$"):
                p2t.monomial_order(L3H, k, v, (1, 0))
            with pytest.raises(ds.GeometryError, match="^level k must be a positive integer$"):
                p2t.monomial_orders(L3H, k, v, np.array([[1, 0]]))

    def test_numpy_integer_level_accepted(self):
        assert p2t.monomial_order(L3H, np.int64(2), E1, (1, 0)) == p2t.monomial_order(L3H, 2, E1, (1, 0))
        basis = p2t.lattice_points(L3H, 2)
        assert p2t.monomial_orders(L3H, np.int64(2), E1, basis).tolist() == p2t.monomial_orders(
            L3H, 2, E1, basis
        ).tolist()

    @pytest.mark.parametrize("m", [(1, 0, 5), (1,), (0, 0, 0, 1)])
    def test_monomial_of_wrong_length_rejected(self, m):
        for v in (E1, self.TRIVIAL):
            with pytest.raises(ds.GeometryError, match="monomials must be rows of length 2"):
                p2t.monomial_order(L3H, 1, v, m)
            with pytest.raises(ds.GeometryError, match="monomials must be rows of length 2"):
                p2t.monomial_orders(L3H, 1, v, np.array([m, m], dtype=np.int64))

    def test_flat_basis_rejected(self):
        with pytest.raises(ds.GeometryError, match="monomials must be rows of length 2"):
            p2t.monomial_orders(L3H, 1, E1, np.array([1, 0, 0, 1]))
