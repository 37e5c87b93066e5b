"""The norm engine on its own: the native cutting-plane LP against HiGHS,
the evaluation counts of the reference norms, and a library that runs
without scipy."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import divstab as ds
from divstab import stability
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure

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


class TestKelleyLPFailure:
    """A cutting-plane LP that fails ends the Kelley steps; the planes so
    far still bound the maximum, and the gap reports how well."""

    @staticmethod
    def ridge(u):
        # max -0.04 at (0.3, -0.3), on a kink along u0 + u1 = 0
        value = -abs(u[0] - 0.3) - 0.5 * abs(u[0] + u[1]) - (u[1] + 0.1) ** 2
        s = 0.5 * np.sign(u[0] + u[1])
        return value, np.array([-np.sign(u[0] - 0.3) - s, -s - 2.0 * (u[1] + 0.1)])

    @pytest.fixture
    def refine_calls(self, monkeypatch):
        calls = []
        refine = stability._Planes.refine

        def counting(planes):
            calls.append(len(planes.us))
            return refine(planes)

        monkeypatch.setattr(stability._Planes, "refine", counting)
        return calls

    def test_max_keeps_its_bound(self, refine_calls, monkeypatch):
        monkeypatch.setattr(stability, "_PIVOTS", 0)
        # a tolerance of -inf never certifies, so the Kelley steps are reached
        u, bound = stability._certified_max(self.ridge, 2, 4.0, -math.inf)
        assert len(refine_calls) == 1
        assert self.ridge(u)[0] <= -0.04 <= bound

    def test_norm_keeps_a_valid_gap(self, refine_calls, monkeypatch):
        f1 = ds.bundled_model("f1")
        atoms = [(f1.named_valuations[n], Fraction(m, 6)) for n, m in (("ord_s", 1), ("ord_f", 2), ("ord_sf", 3))]
        L, mu = f1.divisor([2, 3]), DivisorialMeasure.make(atoms)
        exact = ds.norm(f1, L, mu)
        assert exact.converged
        monkeypatch.setattr(stability, "_PIVOTS", 0)
        del refine_calls[:]
        failed = ds.norm(f1, L, mu, options=stability.OptimizerOptions(tol=-math.inf))
        assert len(refine_calls) == 1 and not failed.converged
        assert failed.value <= exact.value + exact.gap
        assert exact.value <= failed.value + failed.gap


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
