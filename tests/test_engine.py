"""The norm engine on its own: the native cutting-plane LP against HiGHS,
the evaluation counts of the reference norms, maxima on the boundary of the
box, plain float outputs, and a library that runs without scipy."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import divstab as ds
from divstab import stability
from divstab.cli import main
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure, _dot

from _reference import kelley_lp


def plane_sets(seed, count):
    """(slopes, values at random points, points, hi): dim 1-4, 1-80 planes;
    every other set has small integer slopes, so ties and degenerate
    vertices are common."""
    rng = random.Random(seed)
    for case in range(count):
        dim, n, hi = rng.randint(1, 4), rng.randint(1, 80), rng.uniform(0.5, 10.0)
        if case % 2:
            slopes = [[float(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(n)]
        else:
            slopes = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(n)]
        points = [[rng.uniform(-hi, hi) for _ in range(dim)] for _ in range(n)]
        yield np.array(slopes), [rng.gauss(0.0, 1.0) for _ in range(n)], np.array(points), hi


class TestKelleyLP:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_highs(self, seed):
        for slopes, values, points, hi in plane_sets(seed, 150):
            evaluations = iter(zip(values, slopes))
            # a tolerance of -inf never certifies, so every plane is kept
            planes = stability._Planes(lambda u: next(evaluations), hi, -math.inf)
            for u in points:
                planes(u)
            u = planes.refine()
            S, offsets = np.array(planes.slopes), np.array(planes.offsets)
            z = kelley_lp(S, offsets, hi)
            assert abs(planes.bound - z) <= 1e-12
            assert abs((offsets + S @ u).min() - z) <= 1e-12
            assert np.all(np.abs(u) <= hi)


class TestKinkedMaxima:
    """A concave piecewise-linear g on [-hi, hi]^4, the least of 2-30 planes
    whose slopes span six decades: the ascent stalls at its kinks, and the
    Kelley steps certify the maximum.  On seeds 414 and 1687 a float simplex
    with a 500-pivot budget gave up, leaving gaps of 1.4e-4 and 3.7e-4."""

    @staticmethod
    def piecewise_linear(seed):
        rng = random.Random(seed)
        hi = rng.choice([1.0, 3.0, 10.0])
        pieces = [
            (rng.gauss(0, 1), [rng.gauss(0, 1) * 10 ** rng.randint(-6, 0) for _ in range(4)])
            for _ in range(rng.randint(2, 30))
        ]

        def g(u):
            a, b = min(pieces, key=lambda piece: piece[0] + _dot(piece[1], u))
            return a + _dot(b, u), b

        return g, hi

    @pytest.mark.parametrize("seed", [414, 1687])
    def test_certified(self, seed):
        g, hi = self.piecewise_linear(seed)
        u, bound = stability._certified_max(g, 4, hi, 1e-9)
        assert bound - g(u)[0] <= 1e-9


class TestReferenceNormEvaluations:
    """The three reference norms of `TestNormWork` in `test_stability.py`
    take no more evaluations of (S, grad S) than 8, 2 and 10."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        primitive = stability.expected_order_S_grad

        def counting(model, L, spec):
            calls.append(spec.shifts)
            return primitive(model, L, spec)

        monkeypatch.setattr(stability, "expected_order_S_grad", counting)
        return calls

    def test_p2_half_line(self, evaluations):
        p2 = ds.bundled_model("p2")
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION, Fraction(1, 2)), (p2.named_valuations["line"], Fraction(1, 2))]
        )
        assert ds.norm(p2, p2.divisor([3]), mu).converged
        assert len(evaluations) <= 8

    def test_p2_toric_two_coordinates(self, evaluations):
        p2t = ds.bundled_model("p2_toric")
        mu = DivisorialMeasure.make(
            [(p2t.named_valuations["e1"], Fraction(1, 2)), (p2t.named_valuations["e2"], Fraction(1, 2))]
        )
        assert ds.norm(p2t, p2t.divisor([0, 0, 3]), mu).converged
        assert len(evaluations) <= 2

    def test_f1_three_atoms(self, evaluations):
        f1 = ds.bundled_model("f1")
        atoms = [(f1.named_valuations[n], Fraction(m, 6)) for n, m in (("ord_s", 1), ("ord_f", 2), ("ord_sf", 3))]
        assert ds.norm(f1, f1.divisor([2, 3]), DivisorialMeasure.make(atoms)).converged
        assert len(evaluations) <= 10


class TestAscentStopsAtTheStencil:
    """A rejected step shortened below the stencil spacing ends the ascent.
    Without that, the line search on this norm halves a 1e-11 step while the
    Armijo test compares values that differ by the rounding of S, and the
    norm takes 53 evaluations."""

    def test_p1xp1_three_atoms(self, monkeypatch):
        calls = []
        primitive = stability.expected_order_S_grad

        def counting(model, L, spec):
            calls.append(spec.shifts)
            return primitive(model, L, spec)

        monkeypatch.setattr(stability, "expected_order_S_grad", counting)
        m = ds.bundled_model("p1xp1")
        v = m.named_valuations
        L = m.divisor([Fraction(529, 200), Fraction(3923, 500)])
        mu = DivisorialMeasure.make(
            [(v["ord_f2"], Fraction(5, 8)), (v["ord_f1"], Fraction(1, 8)), (v["ord_diag"], Fraction(1, 4))]
        )
        r = ds.norm(m, L, mu)
        assert len(calls) <= 20
        assert r.converged and r.gap <= 1e-9


class TestKelleyStepsFollowTheAscent:
    """The Kelley steps start from the planes of the ascent, with no stencil
    of dim + 1 planes around its best point between them: these 4-atom
    norms, which the ascent does not certify, take 16 and 17 evaluations of
    (S, grad S), 4 fewer each than with the stencil."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        primitive = stability.expected_order_S_grad

        def counting(model, L, spec):
            calls.append(spec.shifts)
            return primitive(model, L, spec)

        monkeypatch.setattr(stability, "expected_order_S_grad", counting)
        return calls

    @staticmethod
    def measure(model, atoms):
        v = model.named_valuations
        return DivisorialMeasure.make(
            [(TRIVIAL_VALUATION if n == "trivial" else v[n], Fraction(m)) for n, m in atoms]
        )

    def test_p2_toric_four_atoms(self, evaluations):
        m = ds.bundled_model("p2_toric")
        mu = self.measure(m, (("e2", "1/3"), ("e3", "1/6"), ("diag", "1/6"), ("e1", "1/3")))
        r = ds.norm(m, m.divisor([0, 0, 7]), mu)
        assert r.converged and r.gap <= 1e-9
        assert len(evaluations) <= 16

    def test_p1xp1_four_atoms(self, evaluations):
        m = ds.bundled_model("p1xp1")
        mu = self.measure(m, (("ord_diag", "2/11"), ("ord_f1", "5/11"), ("ord_f2", "1/11"), ("trivial", "3/11")))
        r = ds.norm(m, m.divisor([Fraction(9, 4), 9]), mu)
        assert r.converged and r.gap <= 1e-9
        assert len(evaluations) <= 17


class TestGapWithoutCertificate:
    """On f1, L = (8, 4/3), this norm may end its Kelley steps before the
    planes certify the tolerance; whatever it ends with, value + gap bounds
    the norm that twice the Kelley steps certify."""

    def test_gap_encloses_the_longer_run(self, monkeypatch):
        f1 = ds.bundled_model("f1")
        v = f1.named_valuations
        mu = DivisorialMeasure.make(
            [(v["ord_f"], Fraction(1, 6)), (v["ord_s"], Fraction(1, 4)), (v["ord_sf"], Fraction(1, 4)),
             (TRIVIAL_VALUATION, Fraction(1, 3))]
        )
        L = f1.divisor([8, Fraction(4, 3)])
        short = ds.norm(f1, L, mu)
        monkeypatch.setattr(stability, "_KELLEY_STEPS", 2 * stability._KELLEY_STEPS)
        long = ds.norm(f1, L, mu)
        assert long.converged and long.gap <= 1e-9
        assert short.value <= long.value + long.gap
        assert long.value <= short.value + short.gap


def test_library_runs_without_scipy():
    script = """
import sys
from fractions import Fraction
import divstab as ds
from divstab.toric import ToricModel
p3 = ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
vals = [p3.monomial_valuation(f"e{i}", w) for i, w in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
L = p3.divisor([0, 0, 0, 2])
mu = ds.DivisorialMeasure.make([(v, Fraction(m, 6)) for v, m in zip(vals, (1, 2, 3))])
assert ds.norm(p3, L, mu).converged
ds.beta(p3, L, mu)
ds.ma_solve(p3, L, mu)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = str(Path(ds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestBoxConstrainedMax:
    """g(u) = -|u - c|^2 with its peak c outside the box in some coordinates:
    the maximizer sits on the box there, at (2, -2, 0.3, 0)[:dim]."""

    CENTER, TOP, HI = (5.0, -5.0, 0.3, 0.0), (2.0, -2.0, 0.3, 0.0), 2.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_maximizer_on_the_box(self, dim):
        center, points = self.CENTER[:dim], []

        def g(u):
            points.append(u)
            return -sum((x - c) ** 2 for x, c in zip(u, center)), [-2.0 * (x - c) for x, c in zip(u, center)]

        u, bound = stability._certified_max(g, dim, self.HI, 1e-9)
        assert len(points) <= 6
        assert all(type(x) is tuple for x in points)
        top = self.TOP[:dim]
        assert max(abs(x - t) for x, t in zip(u, top)) <= 1e-6
        assert bound >= g(top)[0]
        assert bound - g(u)[0] <= 1e-9


def _reference_norms():
    p2, f1, p2t = (ds.bundled_model(n) for n in ("p2", "f1", "p2_toric"))
    yield p2, p2.divisor([3]), DivisorialMeasure.make(
        [(TRIVIAL_VALUATION, Fraction(1, 2)), (p2.named_valuations["line"], Fraction(1, 2))]
    )
    yield f1, f1.divisor([2, 3]), DivisorialMeasure.make(
        [(f1.named_valuations[n], Fraction(m, 6)) for n, m in (("ord_s", 1), ("ord_f", 2), ("ord_sf", 3))]
    )
    yield p2t, p2t.divisor([0, 0, 3]), DivisorialMeasure.make(
        [(p2t.named_valuations["e1"], Fraction(1, 2)), (p2t.named_valuations["e2"], Fraction(1, 2))]
    )


class TestPlainFloatOutputs:
    """Norms and Monge-Ampere solutions come out as Python floats, and the
    least shift is +0.0, so a report never prints -0.0."""

    @pytest.mark.parametrize("case", range(3))
    def test_norm_and_ma_solve(self, case):
        model, L, mu = list(_reference_norms())[case]
        r = ds.norm(model, L, mu)
        (t,) = r.maximizers
        for x in (r.value, r.gap, r.box_bound, *t):
            assert type(x) is float
        assert math.copysign(1.0, min(t)) == 1.0
        sol = ds.ma_solve(model, L, mu)
        for x in (*sol.t_star, *sol.measure_out):
            assert type(x) is float
        assert math.copysign(1.0, min(sol.t_star)) == 1.0

    def test_p2_ma_report_has_no_negative_zero(self):
        config = str(resources.files("divstab") / "configs" / "p2_ma.json")
        result = CliRunner().invoke(main, ["run", config])
        assert result.exit_code == 0
        assert "-0.0" not in result.stdout
