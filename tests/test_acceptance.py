"""End-to-end acceptance gate.

Each test prints one `criterion N: PASS` line on success; a failure shows up
as a normal pytest assertion with the offending values.
"""
import json
import random
import time
from fractions import Fraction
from importlib import resources

from click.testing import CliRunner

import divstab as ds
from divstab.cli import main as cli_main
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.filtrations import (
    FiltrationSpec,
    expected_order_S,
    filtration_volume_finite_k,
    restriction_inequality_check,
)
from _cases import (
    FAST_OPTIONS,
    norm_enlarged_support_check,
    random_big_class,
    random_masses,
    random_measure,
    random_shifts,
    random_support,
    surface_models,
)

p2 = ds.bundled_model("p2")
blp2 = ds.bundled_model("blp2")
p2t = ds.bundled_model("p2_toric")


def report(n: int):
    print(f"criterion {n}: PASS")


def dirac(v):
    return DivisorialMeasure.make([(v, 1)])


def test_criterion_1_exact_surface_values():
    start = time.perf_counter()
    assert p2.volume(p2.divisor([3])) == 9
    dec = blp2.zariski(blp2.divisor([1, 2]))
    assert dec.positive_part.coefficients == (1, 0)
    assert [(c.coefficients, a) for c, a in dec.negative_part] == [((0, 1), 2)]
    assert blp2.volume(blp2.divisor([1, 2])) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1)


def test_criterion_2_expected_order_integrals():
    line = p2.named_valuations["line"]
    ord_e = blp2.named_valuations["ord_e"]
    start = time.perf_counter()
    s1 = expected_order_S(p2, p2.divisor([3]), FiltrationSpec((line,), (0.0,)))
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    s2 = expected_order_S(blp2, blp2.divisor([3, -1]), FiltrationSpec((ord_e,), (0.0,)))
    t2 = time.perf_counter() - start
    assert abs(s1 - 1.0) < 1e-9, s1
    assert abs(s2 - 7.0 / 6.0) < 1e-9, s2
    assert t1 < 1.0 and t2 < 1.0, (t1, t2)
    report(2)


def test_criterion_3_delta_detects_instability():
    candidates = [
        blp2.named_valuations["ord_e"],
        blp2.named_valuations["ord_line"],
        blp2.named_valuations["ord_line_p"],
    ]
    value, witness = ds.delta_anticanonical(blp2, candidates)
    assert witness.name == "ord_e"
    assert value <= 6.0 / 7.0 + 1e-8
    assert abs(value - 6.0 / 7.0) < 1e-8, value
    report(3)


def test_criterion_4_beta_invariant_under_blowup_model_change():
    # the same geometric valuation computed on two different models: once on
    # the plane via its realization on the blowup, once natively upstairs with
    # the pulled-back line bundle; both integral routes are independent
    b_plane = ds.beta(p2, p2.divisor([3]), dirac(p2.named_valuations["point_blowup"]))
    b_blowup = ds.beta(blp2, blp2.divisor([3, 0]), dirac(blp2.named_valuations["ord_e"]))
    assert abs(b_plane.beta) < 1e-6, b_plane
    assert abs(b_blowup.beta) < 1e-6, b_blowup
    assert abs(b_plane.beta - b_blowup.beta) < 1e-6
    report(4)


def test_criterion_5_property_suite_200_cases():
    start = time.perf_counter()
    n_cases = 200
    failures = []

    def check(prop, case, ok):
        if not ok:
            failures.append((prop, case))

    models = surface_models()

    rng = random.Random(1001)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        support = random_support(model, rng)
        t = random_shifts(rng, len(support))
        c = rng.uniform(-2, 2)
        a = expected_order_S(model, L, FiltrationSpec(support, t))
        b = expected_order_S(
            model, L, FiltrationSpec(support, tuple(x + c for x in t))
        )
        check("translation", i, abs(b - a - c) < 1e-9)

    rng = random.Random(1002)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        support = random_support(model, rng)
        t = random_shifts(rng, len(support))
        u = random_shifts(rng, len(support))
        gap = max(abs(x - y) for x, y in zip(t, u))
        a = expected_order_S(model, L, FiltrationSpec(support, t))
        b = expected_order_S(model, L, FiltrationSpec(support, u))
        check("lipschitz", i, abs(a - b) <= gap + 1e-9)

    rng = random.Random(1003)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        support = random_support(model, rng)
        t = random_shifts(rng, len(support))
        u = random_shifts(rng, len(support))
        theta = rng.uniform(0, 1)
        mid = tuple(theta * x + (1 - theta) * y for x, y in zip(t, u))
        sm = expected_order_S(model, L, FiltrationSpec(support, mid))
        st = expected_order_S(model, L, FiltrationSpec(support, t))
        su = expected_order_S(model, L, FiltrationSpec(support, u))
        check("concavity", i, sm >= theta * st + (1 - theta) * su - 1e-7)

    rng = random.Random(1004)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        mu = random_measure(model, rng, max_size=2)
        s = 1 + Fraction(rng.randint(-3, 4), 8)
        base = ds.norm(model, L, mu, options=FAST_OPTIONS).value
        scaled = ds.norm(model, s * L, mu, options=FAST_OPTIONS).value
        check("homogeneity", i, abs(scaled - float(s) * base) < 1e-6)

    rng = random.Random(1005)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        support = random_support(model, rng, allow_trivial=True, max_size=2)
        if len(support) < 2:
            support = (support[0], TRIVIAL_VALUATION)
        xi_a = random_masses(rng, len(support))
        xi_b = random_masses(rng, len(support))
        theta = Fraction(rng.randint(1, 7), 8)
        mid = [theta * x + (1 - theta) * y for x, y in zip(xi_a, xi_b)]
        na = ds.norm(model, L, DivisorialMeasure.make(list(zip(support, xi_a))),
                     options=FAST_OPTIONS).value
        nb = ds.norm(model, L, DivisorialMeasure.make(list(zip(support, xi_b))),
                     options=FAST_OPTIONS).value
        nm = ds.norm(model, L, DivisorialMeasure.make(list(zip(support, mid))),
                     options=FAST_OPTIONS).value
        check(
            "convexity", i,
            nm <= float(theta) * na + (1 - float(theta)) * nb + 1e-7,
        )

    rng = random.Random(1006)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        mu = random_measure(model, rng, max_size=2)
        extras = [
            v for v in model.named_valuations.values()
            if v not in mu.support and _combinable(model, mu.support, v)
        ]
        check(
            "support_enlargement", i,
            norm_enlarged_support_check(
                model, L, mu, extras[:1], options=FAST_OPTIONS
            ),
        )

    rng = random.Random(1007)
    for i in range(n_cases):
        model = models[i % len(models)]
        L = random_big_class(model, rng)
        support = random_support(model, rng, allow_trivial=False, max_size=2)
        if len(support) < 2:
            continue
        spec = FiltrationSpec(support, random_shifts(rng, len(support)))
        ok, (full, sub) = restriction_inequality_check(model, L, spec, support[:1])
        check("restriction", i, ok and full <= sub + 1e-9)

    elapsed = time.perf_counter() - start
    assert not failures, failures[:10]
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(5)


def _combinable(model, support, extra):
    # valuations enter a joint filtration only when they live on one shared
    # realization model
    support = tuple(v for v in support if not v.is_trivial)
    try:
        # shifts of zero would let a trivial atom truncate the integration
        # range before realizations are resolved, hence the filter above
        spec = FiltrationSpec(support + (extra,), (0.0,) * (len(support) + 1))
        expected_order_S(model, random_big_class(model, random.Random(0)), spec)
        return True
    except ds.GeometryError:
        return False


def test_criterion_6_finite_level_convergence():
    start = time.perf_counter()
    L = p2t.divisor([0, 0, 3])
    e1 = p2t.named_valuations["e1"]
    spec = FiltrationSpec((e1,), (0.0,))
    s = expected_order_S(p2t, L, spec)
    errs = {}
    for k in (10, 20, 50):
        prof = filtration_volume_finite_k(p2t, L, spec, k)
        errs[k] = abs(prof.volume / k - s)
    elapsed = time.perf_counter() - start
    assert errs[50] <= 0.05, errs
    assert errs[10] >= errs[20] >= errs[50], errs
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(6)


def test_criterion_7_prescribed_measure_solver():
    line = p2.named_valuations["line"]
    L = p2.divisor([3])
    mu = DivisorialMeasure.make([(TRIVIAL_VALUATION, Fraction(1, 2)), (line, Fraction(1, 2))])
    sol = ds.ma_solve(p2, L, mu)
    assert sol.residual <= 1e-4, sol.residual
    assert abs(sum(sol.measure_out) - 1.0) <= 1e-6
    norm_value = ds.norm(p2, L, mu).value
    assert abs(sol.value - norm_value) <= 1e-8

    # sweep the mass simplex; cross-check each optimum against a brute-force
    # grid maximization restricted to the min-zero faces of the box
    def grid_oracle(measure, box):
        xi = [float(m) for m in measure.masses]

        def g(t):
            s = expected_order_S(p2, L, FiltrationSpec(measure.support, t))
            return s - sum(x * v for x, v in zip(xi, t))

        steps = 160
        best = max(g((i * box / steps, 0.0)) for i in range(steps + 1))
        return max(best, max(g((0.0, i * box / steps)) for i in range(steps + 1)))

    for j in range(50):
        w = Fraction(j, 49)
        if w == 0:
            measure = dirac(TRIVIAL_VALUATION)
        elif w == 1:
            measure = dirac(line)
        else:
            measure = DivisorialMeasure.make([(TRIVIAL_VALUATION, 1 - w), (line, w)])
        sol = ds.ma_solve(p2, L, measure, options=FAST_OPTIONS)
        assert sol.residual <= 1e-3, (j, sol.residual)
        if 0 < w < 1:
            oracle = grid_oracle(measure, ds.norm(p2, L, measure, options=FAST_OPTIONS).box_bound)
            assert sol.value >= oracle - 1e-6, (j, sol.value, oracle)
            assert abs(sol.value - oracle) < 1e-3, (j, sol.value, oracle)
    report(7)


def test_criterion_8_probe_reports_finite_instance_evidence():
    # global stability claims are only certified negatively: the probe labels
    # positive outcomes as evidence over the tested measures, never as proof
    rep = ds.divisorial_stability_probe(
        p2, p2.divisor([3]), [dirac(p2.named_valuations["line"])]
    )
    assert "finite" in rep.semantics and "evidence" in rep.semantics
    assert "does not prove" in rep.semantics

    cfg = str(resources.files("divstab") / "configs" / "blp2_instability.json")
    result = CliRunner().invoke(cli_main, ["run", cfg])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    probe = next(t for t in payload["tasks"] if t["kind"] == "probe")["outputs"]["probe"]
    assert "evidence" in probe["semantics"]
    report(8)
