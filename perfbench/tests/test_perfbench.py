"""Tests of the benchmark itself (not collected by the package's test suite).

    PYTHONPATH=src:perfbench python -m pytest -q perfbench/tests
"""
import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cases
import check
import oracle
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}", PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(cases.BLOCKS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = cases.BLOCKS[workload]
    first = [make(7, b) for b in range(3)]
    assert [make(7, b) for b in range(3)] == first
    assert [make(8, b) for b in range(3)] != first


def test_p2_blowup_never_shares_a_support_with_plane_curves():
    for block in range(50):
        for case in cases.surface_block(1, block) + cases.norm_block(1, block):
            names = case.get("support") or [v for v, _ in case.get("measure", ())]
            if case["model"] == "p2" and "point_blowup" in names:
                assert not {"line", "conic"} & set(names)


# -- references and checks ----------------------------------------------------


def test_references_reproduce_closed_forms():
    assert abs(oracle.surface_S("p2", (3,), ["line"], [0.0]) - 1) < 1e-15
    assert abs(oracle.surface_S("blp2", (3, -1), ["ord_e"], [0.0]) - 7 / 6) < 1e-15
    delta = min(float(oracle.log_discrepancy("blp2", v)) / oracle.surface_S("blp2", (3, -1), [v], [0.0])
                for v in ("ord_e", "ord_line", "ord_line_p"))
    assert abs(delta - 6 / 7) < 1e-15
    half = (("trivial", Fraction(1, 2)), ("line", Fraction(1, 2)))
    assert abs(oracle.norm_reference("p2", (3,), half) - (math.sqrt(2) - 1) / 2) < 1e-12
    # one monomial valuation: <barycenter, w> - min <., w>; on 3H the
    # barycenter of the triangle (0,0), (3,0), (0,3) is (1, 1)
    assert oracle.toric_S("p2_toric", (0, 0, 3), ["e1"], [0.0]) == 1
    assert oracle.toric_S("p3_toric", (0, 0, 0, 2), ["e12"], [0.25]) == Fraction(1, 1) + Fraction(1, 4)


def test_two_valuation_toric_reference_matches_bruteforce_mean():
    # mean of min(x, y) over the triangle x, y >= 0, x + y <= 3 is 1/2
    assert oracle.toric_S("p2_toric", (0, 0, 3), ["e1", "e2"], [0.0, 0.0]) == Fraction(1, 2)
    # mean of min(x, y) over the simplex x, y, z >= 0, x + y + z <= 2
    n = 60
    total = count = 0
    for i in range(2 * n + 1):
        for j in range(2 * n + 1 - i):
            for k in range(2 * n + 1 - i - j):
                total += min(i, j)
                count += 1
    approx = total / count / n
    exact = oracle.toric_S("p3_toric", (0, 0, 0, 2), ["e1", "e2"], [0.0, 0.0])
    assert abs(float(exact) - approx) < 2e-2


def test_check_flags_wrong_outputs():
    wl = workloads.Workload("surface_sweep")
    case = cases.SURFACE_ANCHORS[1]
    out = wl.run(case)
    assert not check.check_case(case, out).problems
    bad = dict(out, S=out["S"] + 1e-6)
    assert check.check_case(case, bad).problems
    bad = dict(out, volume=out["volume"] + Fraction(1, 10**9))
    assert check.check_case(case, bad).problems


def test_check_flags_a_wrong_norm():
    wl = workloads.Workload("norm_sweep")
    case = cases.NORM_REFERENCES[0]
    out = wl.run(case)
    assert not check.check_case(case, out).problems
    wrong = copy.copy(out["norm"])
    object.__setattr__(wrong, "value", out["norm"].value - 1e-4)
    assert check.check_case(case, {"norm": wrong}).problems


# -- known program defects ------------------------------------------------------

# Two-valuation S is wrong on these inputs, and the workloads leave such
# supports out; once a case here passes, put its supports back.
# Surfaces (cases.random_support): when the second valuation becomes active
# shortly before the path L - sum max(lam - t_i, 0) D_i leaves the
# pseudoeffective cone, the chamber walk's probe past that wall stays inside
# its psef tolerance, so it integrates the volume quadratic on up to
# min(gamma_i + t_i).
# p1xp1_toric with diag beside e1 or e2 (cases.toric_case): with the two
# shifts close together, the volume has a kink close to the end of the
# range that is not a breakpoint, and the adaptive quadrature's error
# estimate misses it, at any tolerance.
DEFECT_CASES = (
    {"kind": "surface", "model": "p2", "L": (Fraction(569, 500),),
     "support": ("line", "conic"), "t": (0.38382664151548296, 1.5185867537206372), "c": 0.0},
    {"kind": "surface", "model": "p1xp1", "L": (Fraction(5657, 1000), Fraction(79, 50)),
     "support": ("ord_f2", "ord_diag"), "t": (0.1134882823476826, 1.675297070733314), "c": 0.0},
    {"kind": "toric", "model": "p1xp1_toric", "L": (0, 2, 3, -1), "support": ("diag", "e1"),
     "t": (0.7253862189848015, 0.7293297450877823), "k": 10,
     "t_other": (0.7253862189848015, 0.7293297450877823)},
)


@pytest.mark.xfail(strict=True, reason="known program defect in two-valuation S")
@pytest.mark.parametrize("case", DEFECT_CASES, ids=lambda c: c["model"])
def test_known_defect_two_valuation_S(case):
    workload = "toric_sweep" if case["kind"] == "toric" else "surface_sweep"
    out = workloads.Workload(workload).run(case)
    assert not check.check_case(case, out).problems


# -- tracing ------------------------------------------------------------------

TRACE_REFERENCES = """
import json, sys
import tracer as tracing, workloads, cases
t = tracing.Tracer(); t.install()
wl = workloads.Workload("norm_sweep")
counts = []
for case in cases.NORM_REFERENCES:
    before = t.calls[tracing.S_SPAN]
    wl.run(case)
    counts.append(t.calls[tracing.S_SPAN] - before)
t.uninstall()
print(json.dumps({"S": counts, "calls": t.calls}))
"""


def test_traced_counts_repeat_and_match_reference_cases():
    first = json.loads(_python(TRACE_REFERENCES))
    second = json.loads(_python(TRACE_REFERENCES))
    assert first == second
    assert first["S"] == [510, 180, 515]


def test_tracer_restores_every_patched_attribute():
    snapshot = _python("""
import sys, divstab, divstab.cli, tracer as tracing
def state():
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "divstab" or name.startswith("divstab."):
            for k, v in vars(mod).items():
                out[f"{name}.{k}"] = id(v)
                if isinstance(v, type) and v.__module__.startswith("divstab"):
                    for a, f in vars(v).items():
                        out[f"{name}.{k}.{a}"] = id(f)
    return out
before = state()
t = tracing.Tracer(); t.install()
during = state()
t.uninstall()
after = state()
changed = sorted(k for k in before if before[k] != during.get(k))
print(len(changed), before == after, "toric.ToricModel.twist_evaluator" in " ".join(changed))
""")
    n_changed, restored, evaluator = snapshot.split()
    assert int(n_changed) > 25
    assert restored == "True"
    assert evaluator == "True"


# -- smoke runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(cases.BLOCKS))
def test_smoke_run_passes_the_correctness_check(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--blocks", "1", "--trace", str(tmp_path / "spans.tsv.gz")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["attempted"] > 0
    assert report["failed_frac"] == 0, report["failures"]
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0
    assert report["per_layer"]["filtrations.expected_order_S.calls"][0] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "surface_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
