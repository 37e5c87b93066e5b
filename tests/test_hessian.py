"""The exact Hessian of S in the shifts (`GeometryModel.order_hessian`) and
the Newton steps the norm engine takes on it: the Hessian against central
differences of the exact gradient on both backends, two norms that the
cutting-plane engine left uncertified, beta at a maximizer that Newton puts
at the rounding of S, and the walks that the kept chambers save."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import divstab as ds
from divstab import stability, surface
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.filtrations import FiltrationSpec, expected_order_hessian, expected_order_S_grad

from _cases import random_big_class, surface_models
from test_gradient import TORIC_NAMES, p3_model
from test_several_curves import dp6

# the step of the central differences, and the least gap between two shifts
STEP, APART = 1e-6, 1e-2


def big_class(model, rng):
    """A random big class: `_cases.random_big_class` on the bundled surfaces,
    a random line-bundle-like class on dP6 and on the toric models."""
    if model.name in ("p2", "blp2", "p1xp1", "f1"):
        return random_big_class(model, rng)
    while True:
        if model.name == "dp6":
            coeffs = [rng.randint(3, 8)] + [-Fraction(rng.randint(0, 4), 2) for _ in range(3)]
        else:
            coeffs = [Fraction(rng.randint(-1, 6), rng.randint(1, 3)) for _ in model.rays]
        L = model.divisor(coeffs)
        if model.is_big(L):
            return L


def cases(seed, per_model):
    """(model, L, support, shifts): 2-4 atoms, a trivial one sometimes, and
    shifts in [0, max gamma] at least APART from each other."""
    rng = random.Random(seed)
    toric = [ds.bundled_model(n) for n in TORIC_NAMES] + [p3_model()]
    for model in surface_models() + [dp6()] + toric:
        # p2's point blow-up is realised on another surface than its curves
        names = ["line", "conic"] if model.name == "p2" else sorted(model.named_valuations)
        for _ in range(per_model):
            L = big_class(model, rng)
            trivial = rng.random() < 0.5
            size = rng.randint(max(1, 2 - trivial), min(4 - trivial, len(names)))
            support = [model.named_valuations[n] for n in rng.sample(names, size)]
            support += [TRIVIAL_VALUATION] * trivial
            rng.shuffle(support)
            top = max(float(ds.gamma_threshold(model, L, v)) for v in support if not v.is_trivial)
            while True:
                shifts = tuple(rng.uniform(0.0, top) for _ in support)
                if min(abs(a - b) for a, b in itertools.combinations(shifts, 2)) > APART:
                    break
            yield model, L, tuple(support), shifts


def central_differences(model, L, support, shifts):
    """Column j: the central difference of the exact gradient in t_j."""
    columns = []
    for j in range(len(shifts)):
        up, down = (tuple(t + sign * STEP * (i == j) for i, t in enumerate(shifts)) for sign in (1, -1))
        (_, gu), (_, gd) = (expected_order_S_grad(model, L, FiltrationSpec(support, t)) for t in (up, down))
        columns.append([(a - b) / (2 * STEP) for a, b in zip(gu, gd)])
    return np.array(columns).T


@pytest.mark.parametrize("seed", [0, 1])
def test_hessian_matches_differences_of_the_gradient(seed):
    seen = {"surface": 0, "toric": 0, "dp6": 0, "p3": 0, "coupled": 0}
    for model, L, support, shifts in cases(seed, 6):
        H = np.array(expected_order_hessian(model, L, FiltrationSpec(support, shifts)))
        scale = 1.0 + np.abs(H).max()
        assert np.abs(H - central_differences(model, L, support, shifts)).max() <= 1e-6 * scale, (
            model.name, L.coefficients, [v.name for v in support], shifts)
        assert (H == H.T).all()
        assert np.abs(H.sum(axis=1)).max() <= 1e-12
        assert np.linalg.eigvalsh(H).max() <= 1e-12 * scale
        seen["toric" if isinstance(model, ds.ToricModel) else "surface"] += 1
        seen["dp6"] += model.name == "dp6"
        seen["p3"] += model.name == "p3"
        seen["coupled"] += np.count_nonzero(H - np.diag(np.diag(H))) > 0
    assert seen["surface"] == 30 and seen["toric"] == 24 and seen["coupled"] >= 30, seen


def test_atoms_of_one_centre_get_zero_rows():
    # ord_e at 0.5 and again at 0.75 are one valuation, at its least shift
    model = ds.models._BUILDERS["blp2"]()
    again = model.curve_valuation("ord_e_again", [0, 1])
    v, L = model.named_valuations, model.divisor([3, -1])
    support = (v["ord_e"], TRIVIAL_VALUATION, v["ord_line"], again)
    H = expected_order_hessian(model, L, FiltrationSpec(support, (0.5, 1.25, 0.0, 0.75)))
    merged = expected_order_hessian(model, L, FiltrationSpec(support[:3], (0.5, 1.25, 0.0)))
    assert [row[:3] for row in H[:3]] == [list(row) for row in merged]
    assert list(H[3]) == [0.0] * 4 and [row[3] for row in H] == [0.0] * 4
    assert any(H[0][1:3])


class TestNewtonCertifies:
    """A surface norm that the cutting-plane engine ended uncertified."""

    def test_f1_four_atoms(self):
        # 44 evaluations and 30 Kelley steps left a gap of 3.56e-6
        f1 = ds.bundled_model("f1")
        v = f1.named_valuations
        mu = DivisorialMeasure.make(
            [(v["ord_f"], Fraction(1, 6)), (v["ord_s"], Fraction(1, 4)), (v["ord_sf"], Fraction(1, 4)),
             (TRIVIAL_VALUATION, Fraction(1, 3))]
        )
        r = ds.norm(f1, f1.divisor([8, Fraction(4, 3)]), mu, ds.OptimizerOptions(tol=1e-9))
        assert r.converged and r.gap <= 1e-9


class TestBetaAtTheNewtonMaximizer:
    """f1, L = 3S + F/3, mu = (trivial + ord_s + ord_f) / 3.  beta reads the
    derivative in L at the one maximizer the norm reports; the cutting-plane
    engine left it about sqrt(gap) away, so beta was 0.444532 at 1e-8 and
    0.444378 at 1e-9 and 1e-13, where the norm did not converge, and the
    probe below called a definitive witness."""

    f1 = ds.bundled_model("f1")
    L = f1.divisor([3, Fraction(1, 3)])
    MU = DivisorialMeasure.make(
        [(TRIVIAL_VALUATION, Fraction(1, 3)), (f1.named_valuations["ord_s"], Fraction(1, 3)),
         (f1.named_valuations["ord_f"], Fraction(1, 3))]
    )

    def norm(self, L, tol=1e-13):
        return ds.norm(self.f1, L, self.MU, ds.OptimizerOptions(tol=tol))

    def test_norm_converges_at_1e_13(self):
        r = self.norm(self.L)
        assert r.converged and r.gap <= 1e-13

    def test_beta_does_not_move_with_the_tolerance(self):
        betas = [ds.beta(self.f1, self.L, self.MU, ds.OptimizerOptions(tol=tol)).beta for tol in (1e-8, 1e-9, 1e-13)]
        assert max(betas) - min(betas) <= 1e-8

    def test_beta_matches_a_difference_quotient(self):
        # the entropy term is 2/3; the derivative term is the left derivative
        # of the norm in the canonical direction
        h = Fraction(1, 2**10)
        here, before = self.norm(self.L), self.norm(self.L - h * self.f1.canonical_class)
        assert here.converged and before.converged
        quotient = 2 / 3 + (here.value - before.value) / float(h)
        assert abs(ds.beta(self.f1, self.L, self.MU).beta - quotient) <= 1e-7

    def test_probe_reports_no_witness(self):
        epsilon = 0.44441 / self.norm(self.L).value
        report = ds.divisorial_stability_probe(self.f1, self.L, [self.MU], epsilon=epsilon)
        assert report.witness is None and not report.unstable


class TestKeptWalks:
    """The compiled surface problem keeps its last two walks: the Hessian at
    an accepted point, just evaluated, beta's derivative in L at the
    maximizer and ma_solve's evaluation there walk no chamber."""

    @pytest.fixture
    def walks(self, monkeypatch):
        count = [0]
        walk = surface._walk

        def counting(*args):
            count[0] += 1
            return walk(*args)

        monkeypatch.setattr(surface, "_walk", counting)
        return count

    @staticmethod
    def during(monkeypatch, owner, name, walks, seen):
        """Record the walks made inside each call of owner.name in `seen`."""
        inner = getattr(owner, name)

        def recording(*args):
            before = walks[0]
            try:
                return inner(*args)
            finally:
                seen.append(walks[0] - before)

        monkeypatch.setattr(owner, name, recording)

    MEASURES = [
        ("f1", [8, "4/3"], (("ord_f", "1/6"), ("ord_s", "1/4"), ("ord_sf", "1/4"), ("trivial", "1/3"))),
        ("f1", [3, "1/3"], (("trivial", "1/3"), ("ord_s", "1/3"), ("ord_f", "1/3"))),
        ("p1xp1", ["9/4", 9], (("ord_diag", "2/11"), ("ord_f1", "5/11"), ("ord_f2", "1/11"), ("trivial", "3/11"))),
        ("blp2", [3, -1], (("ord_e", "1/3"), ("ord_line", "1/3"), ("trivial", "1/3"))),
    ]

    @staticmethod
    def case(name, L, atoms):
        model = ds.models._BUILDERS[name]()
        v = model.named_valuations
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION if n == "trivial" else v[n], Fraction(m)) for n, m in atoms]
        )
        return model, model.divisor([Fraction(c) for c in L]), mu

    @pytest.mark.parametrize("name, L, atoms", MEASURES, ids=[m[0] for m in MEASURES])
    def test_hessians_walk_nothing(self, monkeypatch, walks, name, L, atoms):
        seen = []
        self.during(monkeypatch, stability, "expected_order_hessian", walks, seen)
        model, L, mu = self.case(name, L, atoms)
        assert ds.norm(model, L, mu).converged
        assert seen and seen == [0] * len(seen)
        assert walks[0] > 0

    @pytest.mark.parametrize("name, L, atoms", MEASURES, ids=[m[0] for m in MEASURES])
    def test_beta_derivative_walks_nothing(self, monkeypatch, walks, name, L, atoms):
        seen = []
        self.during(monkeypatch, ds.SurfaceModel, "order_derivative", walks, seen)
        model, L, mu = self.case(name, L, atoms)
        ds.beta(model, L, mu)
        assert seen == [0]

    @pytest.mark.parametrize("name, L, atoms", MEASURES, ids=[m[0] for m in MEASURES])
    def test_ma_solve_walks_as_norm_does(self, walks, name, L, atoms):
        ds.norm(*self.case(name, L, atoms))
        by_norm, walks[0] = walks[0], 0
        ds.ma_solve(*self.case(name, L, atoms))
        assert walks[0] == by_norm > 0
