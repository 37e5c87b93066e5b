"""The exact chamber kernel on int pairs against the Fraction walk of
tests/_reference.py, and supports of trivial valuations alone, whose range
is empty, so they walk no chamber."""
import random
from fractions import Fraction

import pytest

import _reference as reference
import divstab as ds
import divstab.surface as surface
from divstab.core import TRIVIAL_VALUATION
from divstab.surface import SurfaceModel

from _cases import random_big_class, surface_models


def two_point_blowup():
    """P^2 blown up at two points, basis (H, E1, E2): negative curves E1, E2
    and the line H - E1 - E2 through both points."""
    model = SurfaceModel(
        "bl2p2",
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        negative_curves=[[0, 1, 0], [0, 0, 1], [1, -1, -1]],
        canonical_class=[-3, 1, 1],
        sample_curves=[[1, 0, 0], [1, -1, 0], [1, 0, -1]],
    )
    for name, coeffs in [("e1", [0, 1, 0]), ("e2", [0, 0, 1]), ("l12", [1, -1, -1]), ("h", [1, 0, 0])]:
        model.curve_valuation(name, coeffs)
    return model


BL2P2 = two_point_blowup()


def big_class(model, rng):
    if model is not BL2P2:
        return random_big_class(model, rng)
    # a H + b E1 + c E2, a > 0: b, c > 0 put E1 and E2 in the negative part
    while True:
        D = model.divisor([Fraction(rng.randint(1, 24), rng.randint(1, 3))] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)
        ])
        if model.is_big(D):
            return D


def reference_ends(model, L, v):
    """The exact ends of the chambers of the reference gamma walk: each wall
    it crosses, then the threshold (`reference.surface_threshold`)."""
    target, pull = model.resolve_realization([v])
    b, d = pull(L.coefficients), tuple(-c for c in v.order_model.divisor.coefficients)
    duals = [
        tuple(reference._fdot(row, C.coefficients) for row in target.matrix)
        for C in target.negative_curves + target.sample_curves
    ]
    gamma, x, ends = reference.surface_threshold(model, L, v), Fraction(0), []
    while x != gamma:
        support, p0, p1 = reference.surface_chamber(target, b, d, x)
        inside = {i for i, _, _ in support}
        lines = [(u, w) for _, u, w in support] + [
            (reference._fdot(p0, c), reference._fdot(p1, c)) for i, c in enumerate(duals) if i not in inside
        ]
        wall = min((-c0 / c1 for c0, c1 in lines if c1 < 0), default=None)
        x = gamma if wall is None or wall >= gamma else wall
        ends.append(x)
    return ends


def test_walk_equals_fraction_reference():
    rng = random.Random(2310)
    models = surface_models() + [BL2P2]
    seen = {"e1_e2_support": 0, "point_blowup": 0, "walls": 0, "irrational": 0}
    for n in range(300):
        model = models[n % len(models)]
        L = big_class(model, rng)
        P, N = reference.surface_zariski(model, L)
        dec = model.zariski(L)
        assert dec.positive_part.coefficients == P
        assert [(model.negative_curves.index(c), a) for c, a in dec.negative_part] == list(N)
        assert model.volume(L) == reference.surface_volume(model, L)
        seen["e1_e2_support"] += model is BL2P2 and [i for i, _ in N] == [0, 1]
        for v in model.named_valuations.values():
            gamma = ds.gamma_threshold(model, L, v)
            expected = reference.surface_threshold(model, L, v)
            assert gamma == expected and type(gamma) is type(expected)
            seen["point_blowup"] += v.name == "point_blowup"
            seen["irrational"] += type(gamma) is float
            ends = [chamber[1] for chamber in model._memo_of(L)["chambers", v]]
            assert ends == [float(x) for x in reference_ends(model, L, v)]
            seen["walls"] += len(ends) - 1
    assert seen["e1_e2_support"] >= 10 and seen["point_blowup"] >= 50 and seen["walls"] >= 100, seen


def test_a_rational_walk_builds_one_fraction(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    rng = random.Random(2311)
    walks = 0
    for model in surface_models() + [BL2P2]:
        for _ in range(10):
            L = big_class(model, rng)
            model.volume(L)  # the decomposition builds its own Fractions first
            monkeypatch.setattr(surface, "Fraction", counting)
            for v in model.named_valuations.values():
                del built[:]
                gamma = model.closed_form_threshold(L, v)
                assert type(gamma) is Fraction and len(built) <= 1
                walks += 1
            monkeypatch.setattr(surface, "Fraction", Fraction)
    assert walks >= 150


class TestTrivialOnlySupports:
    """S of trivial valuations alone is the least shift, with gradient 1 at
    the first least shift: the compiled problem has an empty range, and
    nothing is walked."""

    TRIVIAL_2 = ds.Valuation("trivial_2", 0, is_trivial=True)
    TRIVIAL_3 = ds.Valuation("trivial_3", 0, is_trivial=True)

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = surface._walk

        def counting(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(surface, "_walk", counting)
        return calls

    def test_least_shift_and_no_walk(self, walks):
        rng = random.Random(2312)
        supports = [(TRIVIAL_VALUATION,), (TRIVIAL_VALUATION, self.TRIVIAL_2), (self.TRIVIAL_3, TRIVIAL_VALUATION, self.TRIVIAL_2)]
        for model in surface_models():
            H = model.canonical_class
            for _ in range(20):
                L = random_big_class(model, rng)
                support = rng.choice(supports)
                shifts = [rng.choice([0.0, 0.5, -1.25, rng.uniform(-2, 2)]) for _ in support]
                if rng.random() < 0.5:  # ties
                    shifts = [shifts[0]] * len(support)
                value, grad = model.expected_order(L, support, shifts)
                least = min(shifts)
                assert value == least
                assert grad == [float(i == shifts.index(least)) for i in range(len(support))]
                ref_value, ref_grad, _ = reference.surface_S_grad(model, L, support, shifts)
                assert (value, grad) == (float(ref_value), [float(g) for g in ref_grad])
                assert model.order_derivative(L, support, shifts, H) == 0.0
                assert model.order_derivative(L, support, shifts, -H) == 0.0
                assert model.order_hessian(L, support, shifts) == [[0.0] * len(support) for _ in support]
        assert walks == []
        # two non-trivial valuations beside a trivial one walk their range
        model = surface_models()[1]
        e, other = (model.named_valuations[n] for n in sorted(model.named_valuations)[:2])
        model.expected_order(random_big_class(model, rng), (TRIVIAL_VALUATION, e, other), (1.0, 0.0, 0.0))
        assert len(walks) >= 1

    def test_errors_unchanged(self, walks):
        support, shifts = (TRIVIAL_VALUATION, self.TRIVIAL_2), (0.5, 0.5)
        for model in surface_models():
            not_big = model.divisor([0] * model.class_rank)
            with pytest.raises(ds.GeometryError, match="^expected vanishing order requires a big class$"):
                model.expected_order(not_big, support, shifts)
            other = next(m for m in surface_models() if m is not model)
            wrong = other.divisor([1] * other.class_rank)
            with pytest.raises(ds.BasisMismatchError, match=f"class in lattice {other.name!r} queried against model {model.name!r}"):
                model.expected_order(wrong, support, shifts)
            with pytest.raises(ds.BasisMismatchError):
                model.order_derivative(wrong, support, shifts, model.canonical_class)
            # no bigness check here, as before: S is the least shift whatever L
            assert model.order_derivative(not_big, support, shifts, model.canonical_class) == 0.0
        assert walks == []
