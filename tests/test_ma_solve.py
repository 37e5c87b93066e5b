"""`ma_solve` reads its measure from the exact supergradient of S at the
norm's maximizer: kinks are flagged only where atoms share one order
function, the flags do not depend on the scale of L, and the solve costs
no evaluation of (S, grad S) beyond the norm's."""
from fractions import Fraction

import pytest

import divstab as ds
from divstab import stability
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure, Valuation
from divstab.filtrations import FiltrationSpec, expected_order_S_grad
from divstab.toric import ToricModel

p2 = ds.bundled_model("p2")
LINE, CONIC = p2.named_valuations["line"], p2.named_valuations["conic"]
LINE_CONIC = DivisorialMeasure.make([(LINE, Fraction(1, 3)), (CONIC, Fraction(2, 3))])
HALF_LINE = DivisorialMeasure.make([(TRIVIAL_VALUATION, Fraction(1, 2)), (LINE, Fraction(1, 2))])


class TestKinkFlagsDoNotDependOnScale:
    """Distinct curves never share an order function, so S is differentiable
    at the optimum whatever the size of L, and the measure is that of mu."""

    SCALES = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3))

    def test_line_and_conic(self):
        solutions = [ds.ma_solve(p2, p2.divisor([c]), LINE_CONIC) for c in self.SCALES]
        for sol in solutions:
            assert sol.flat_directions == ()
            assert abs(sum(sol.measure_out) - 1.0) <= 1e-12
            for out, first in zip(sol.measure_out, solutions[0].measure_out):
                assert abs(out - first) <= 1e-9

    def test_half_line_at_a_tenth(self):
        sol = ds.ma_solve(p2, p2.divisor([Fraction(1, 10)]), HALF_LINE)
        assert sol.flat_directions == ()
        assert abs(sum(sol.measure_out) - 1.0) <= 1e-12
        big = ds.ma_solve(p2, p2.divisor([3]), HALF_LINE)
        assert max(abs(a - b) for a, b in zip(sol.measure_out, big.measure_out)) <= 1e-9


class TestOneExtraEvaluation:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"S": 0, "grad": 0}
        value, grad = stability.expected_order_S, stability.expected_order_S_grad

        def counting_value(*args, **kwargs):
            counts["S"] += 1
            return value(*args, **kwargs)

        def counting_grad(*args, **kwargs):
            counts["grad"] += 1
            return grad(*args, **kwargs)

        monkeypatch.setattr(stability, "expected_order_S", counting_value)
        monkeypatch.setattr(stability, "expected_order_S_grad", counting_grad)
        return counts

    def test_p2_half_line(self, calls, monkeypatch):
        # the norm's solve is kept with its class: ma_solve evaluates nothing more
        ds.norm(p2, p2.divisor([3]), HALF_LINE)
        calls.update(S=0, grad=0)
        ds.ma_solve(p2, p2.divisor([3]), HALF_LINE)
        assert calls == {"S": 0, "grad": 0}
        # from no kept class, ma_solve makes exactly the evaluations of the norm
        counts = []
        for solve in (ds.norm, ds.ma_solve):
            monkeypatch.setattr(p2, "_memo", (None, None))
            monkeypatch.setattr(p2, "_classes", ())
            calls.update(S=0, grad=0)
            solve(p2, p2.divisor([3]), HALF_LINE)
            counts.append(dict(calls))
        assert counts[0] == counts[1] and counts[0]["S"] == 0 and counts[0]["grad"] > 0

    def test_measure_is_the_supergradient_at_the_maximizer(self):
        sol = ds.ma_solve(p2, p2.divisor([3]), LINE_CONIC)
        _, grad = expected_order_S_grad(p2, p2.divisor([3]), FiltrationSpec(LINE_CONIC.support, sol.t_star))
        assert sol.measure_out == grad


class TestTrueTies:
    """Atoms with one order function tie at the optimum: their coordinates
    are flagged and their exact mass is split in proportion to mu."""

    @pytest.fixture
    def p1xp1(self):
        model = ToricModel("p1xp1_ties", [[1, 0], [-1, 0], [0, 1], [0, -1]])
        for name, w in (("x", (1, 0)), ("y", (1, 0)), ("z", (0, 1))):
            model.monomial_valuation(name, w)
        return model

    def test_two_atoms_one_vector(self, p1xp1):
        v = p1xp1.named_valuations
        mu = DivisorialMeasure.make([(v["x"], Fraction(1, 2)), (v["y"], Fraction(1, 2))])
        sol = ds.ma_solve(p1xp1, p1xp1.divisor([2, 0, 2, 0]), mu)
        assert sol.flat_directions == (0, 1)
        assert sol.measure_out == (0.5, 0.5)

    def test_tie_beside_a_third_atom(self, p1xp1):
        v = p1xp1.named_valuations
        mu = DivisorialMeasure.make([(v[n], Fraction(1, 3)) for n in "xyz"])
        sol = ds.ma_solve(p1xp1, p1xp1.divisor([2, 0, 2, 0]), mu)
        assert sol.flat_directions == (0, 1)
        assert sol.residual <= 1e-4
        assert sol.measure_out[0] == sol.measure_out[1]

    def test_two_trivial_atoms_on_a_surface(self):
        other = Valuation("trivial_b", 0, is_trivial=True)
        mu = DivisorialMeasure.make(
            [(TRIVIAL_VALUATION, Fraction(1, 4)), (LINE, Fraction(1, 2)), (other, Fraction(1, 4))]
        )
        sol = ds.ma_solve(p2, p2.divisor([3]), mu)
        assert sol.flat_directions == (0, 2)
        assert sol.measure_out[0] == sol.measure_out[2]
        assert sol.residual <= 1e-4
