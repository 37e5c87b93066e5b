"""Correctness check of one case's outputs against the independent references.

Exact rationals (volumes, Zariski parts, surface thresholds) must match
exactly.  Floats must match a reference within the tolerance of their kind,
relative to max(1, |reference|):

- ``S``: 1e-9, the tolerance `expected_order_S` is called with.  Also used
  for S(t + c) = S(t) + c, the restriction inequality and delta.
- ``threshold_float``: 1e-7.  A threshold the program returns as a float
  comes from bisection on a float bigness test; a polygon's area vanishes
  quadratically at a vertex, so float roundoff hides bigness within about
  sqrt(machine epsilon) times the class scale of the threshold.
- ``norm``: 1e-5, ten times the optimizer's shift tolerance (1e-6), since
  g(t) = S(t) - <xi, t> is 2-Lipschitz in t.
- ``derivative``: 1e-6 for beta's derivative term.  On L = c(-K),
  homogeneity of the norm gives it as -norm / c; the program evaluates it
  by Danskin's theorem at maximizers found to the optimizer's shift
  tolerance, 1e-6.
- ``gradient``: 1e-6 for `ma_solve`'s measure, a central difference of S
  with step 1e-5; the reference takes the same difference of the exact S.
- ``jumping``: 1e-12 for finite-level jumping values and their means.

`check_case` returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import cases
import oracle

TOLERANCES = {
    "S": 1e-9,
    "threshold_float": 1e-7,
    "norm": 1e-5,
    "derivative": 1e-6,
    "gradient": 1e-6,
    "jumping": 1e-12,
}

# closed forms the references must reproduce
ANCHORS = {
    "S_p2_line": 1.0,
    "S_blp2_ord_e": 7.0 / 6.0,
    "delta_blp2": 6.0 / 7.0,
    "norm_p2_half_line": (math.sqrt(2.0) - 1.0) / 2.0,
}


class Report:
    """Collects problems and counts of note for one case."""

    def __init__(self):
        self.problems: list[str] = []
        self.inexact_thresholds = 0

    def close(self, what, value, ref, kind):
        tol = TOLERANCES[kind] * max(1.0, abs(float(ref)))
        if not (isinstance(value, (int, float, Fraction)) and abs(value - ref) <= tol):
            self.problems.append(f"{what}: got {value!r}, expected {float(ref)!r} (tol {tol:.1e})")

    def exact(self, what, value, ref):
        if value != ref:
            self.problems.append(f"{what}: got {value!r}, expected {ref!r}")

    def true(self, what, cond):
        if not cond:
            self.problems.append(what)


def _names(measure):
    return [(v.name, m) for v, m in measure.atoms]


# -- shared pieces ------------------------------------------------------------


def _threshold(rep, name, L, v, value):
    ref = oracle.threshold(name, L, v)
    if isinstance(value, Fraction):
        rep.exact(f"gamma[{v}]", value, ref)
    else:
        rep.inexact_thresholds += 1
        rep.close(f"gamma[{v}]", value, ref, "threshold_float")


def _S(rep, what, name, L, support, shifts, value):
    if oracle.is_toric(name) and len(support) == 1:
        ref = oracle.barycenter_S(name, L, support[0], shifts[0])
    else:
        ref = oracle.expected_order(name, L, support, shifts)
    rep.close(what, value, ref, "S")


def _norm_value(rep, what, name, L, measure, value, maximizer=None):
    """The norm against the reference for one or two atoms; for three, the
    value must equal g at its maximizer and beat g near it."""
    if len(measure) <= 2:
        rep.close(what, value, oracle.norm_reference(name, L, measure), "norm")
        return
    dim = len(measure)
    probes = [(0.0,) * dim]
    if maximizer is not None:
        rep.close(f"{what} at maximizer", value,
                  oracle.objective(name, L, measure, maximizer), "S")
        for h in (1e-1, 1e-3):
            for i in range(dim):
                for j in range(dim):
                    step = [0.0] * dim
                    step[i] += h
                    if i != j:
                        step[j] -= h
                    probes.append(tuple(x + s for x, s in zip(maximizer, step)))
                    probes.append(tuple(x - s for x, s in zip(maximizer, step)))
    best = max(oracle.objective(name, L, measure, t) for t in probes)
    tol = TOLERANCES["norm"] * max(1.0, abs(best))
    rep.true(f"{what}: {value!r} is below g = {best!r} at a probe", value >= best - tol)


def _norm(rep, name, L, measure, result, what="norm"):
    rep.true(f"{what}: no maximizers", bool(result.maximizers))
    t = result.maximizers[0] if result.maximizers else None
    _norm_value(rep, what, name, L, measure, result.value, t)


def _anticanonical_multiple(name, L):
    K = cases.ANTICANONICAL[name]
    c = Fraction(L[0]) / K[0]
    return c if all(Fraction(a) == c * k for a, k in zip(L, K)) else None


def _beta(rep, name, L, measure, report, what="beta"):
    entropy = sum((Fraction(m) * oracle.log_discrepancy(name, v) for v, m in measure), Fraction(0))
    rep.exact(f"{what}.entropy_term", report.entropy_term, entropy)
    _norm_value(rep, f"{what}.norm", name, L, measure, report.norm)
    c = _anticanonical_multiple(name, L)
    if c is not None:
        # homogeneity: ||mu||_{L + sK} = (1 - s/c) ||mu||_L when L = c(-K)
        rep.close(f"{what}.derivative_term", report.derivative_term,
                  -report.norm / float(c), "derivative")
    rep.exact(f"{what}.beta", report.beta, float(report.entropy_term) + report.derivative_term)
    ratio = report.beta / report.norm if report.norm > 1e-9 else None
    rep.exact(f"{what}.stability_ratio", report.stability_ratio, ratio)


def _ma_solve(rep, name, L, measure, sol):
    t = list(sol.t_star)
    rep.true("ma_solve.t_star not normalized", min(t) == 0.0)
    _norm_value(rep, "ma_solve.value", name, L, measure, sol.value, tuple(t))
    support = [v for v, _ in measure]
    h = 1e-5
    for i, g in enumerate(sol.measure_out):
        up, dn = list(t), list(t)
        up[i] += h
        dn[i] -= h
        ref = (oracle.expected_order(name, L, support, up)
               - oracle.expected_order(name, L, support, dn)) / (2 * h)
        rep.close(f"ma_solve.measure_out[{i}]", g, ref, "gradient")
    rep.close("ma_solve.mass", sum(sol.measure_out), 1.0, "gradient")
    xi = [float(m) for _, m in measure]
    rep.exact("ma_solve.residual", sol.residual,
              max(abs(g - x) for g, x in zip(sol.measure_out, xi)))


def _delta(rep, name, candidates, value, witness):
    minus_k = cases.ANTICANONICAL[name]
    ratios = {
        v: oracle.log_discrepancy(name, v) / oracle.expected_order(name, minus_k, [v], [0.0])
        for v in candidates
    }
    best = min(ratios.values())
    rep.close("delta", value, best, "S")
    rep.true(f"delta witness {witness} is not a minimizer",
             witness in ratios and ratios[witness] <= best * (1 + TOLERANCES["S"]))


def _profile(rep, name, L, support, shifts, k, dim, mean, values=None, jumps=None):
    if jumps is None:
        jumps = oracle.jumping_values(name, L, support, shifts, k)
    ref = sorted(jumps, reverse=True)
    rep.exact("finite_k.dim", dim, len(ref))
    if ref:
        rep.close("finite_k.volume", mean, sum(ref) / len(ref), "jumping")
    if values is not None and len(values) == len(ref):
        worst = max(abs(a - b) for a, b in zip(values, ref))
        rep.true(f"finite_k jumping values off by {worst}", worst <= TOLERANCES["jumping"] * k)


# -- per case kind ------------------------------------------------------------


def _surface_case(rep, case, out):
    name, L = case["model"], case["L"]
    rep.exact("volume", out["volume"], oracle.surface_volume(name, L))
    P, N = oracle.surface_zariski(name, L)
    dec = out["zariski"]
    rep.exact("zariski.positive", dec.positive_part.coefficients, P)
    rep.exact("zariski.negative",
              tuple((c.coefficients, a) for c, a in dec.negative_part), N)
    for v, value in out["gamma"].items():
        _threshold(rep, name, L, v, value)
    _S(rep, "S", name, L, case["support"], case["t"], out["S"])
    rep.close("S(t + c) - c", out["S_shifted"] - case["c"], out["S"], "S")
    if "restriction" in out:
        holds, (full, sub) = out["restriction"]
        rep.true("restriction inequality fails", holds and full <= sub + TOLERANCES["S"])
        rep.close("restriction.full", full, out["S"], "S")
        _S(rep, "restriction.sub", name, L, case["support"][:1], case["t"][:1], sub)
    if case in cases.SURFACE_ANCHORS:
        anchor = "S_p2_line" if name == "p2" else "S_blp2_ord_e"
        rep.close("anchor " + anchor, out["S"], ANCHORS[anchor], "S")


def _toric_case(rep, case, out):
    name, L, support, k = case["model"], case["L"], case["support"], case["k"]
    rep.exact("volume", out["volume"], oracle.toric_volume(name, L))
    for v, value in out["gamma"].items():
        _threshold(rep, name, L, v, value)
    _S(rep, "S", name, L, support, case["t"], out["S"])
    prof = out["finite_k"]
    a = oracle.jumping_values(name, L, support, case["t"], k)
    b = oracle.jumping_values(name, L, support, case["t_other"], k)
    _profile(rep, name, L, support, case["t"], k, len(prof.jumping_values),
             prof.volume, prof.jumping_values, a)
    rep.close("d_infinity", out["d_infinity"], max(abs(x - y) for x, y in zip(a, b)), "jumping")


def _config_case(rep, case, out):
    model, L = out["model"], out["L"].coefficients
    name = model.name
    decoded = json.loads(out["text"])
    rep.exact("report task count", len(decoded["tasks"]), len(out["tasks"]))
    for i, (task, res) in enumerate(zip(out["tasks"], out["results"])):
        kind = task["kind"]
        what = f"{case['config']}[{i}].{kind}"
        if kind == "volume":
            rep.exact(what, res["volume"], oracle.volume(name, task["divisor"].coefficients))
        elif kind == "zariski":
            P, N = oracle.surface_zariski(name, task["divisor"].coefficients)
            rep.exact(what + ".positive", res["positive_part"].coefficients, P)
            rep.exact(what + ".negative", tuple(
                (d["curve"].coefficients, d["coefficient"]) for d in res["negative_part"]), N)
        elif kind == "gamma":
            _threshold(rep, name, L, task["valuation"].name, res["gamma"])
        elif kind == "S":
            spec = task["spec"]
            _S(rep, what, name, L, [v.name for v in spec.support], spec.shifts, res["S"])
        elif kind == "norm":
            _norm(rep, name, L, _names(task["measure"]), res["norm"], what)
        elif kind == "beta":
            _beta(rep, name, L, _names(task["measure"]), res["beta"], what)
        elif kind == "ma_solve":
            _ma_solve(rep, name, L, _names(task["measure"]), res["solution"])
        elif kind == "delta":
            _delta(rep, name, [v.name for v in task["candidates"]], res["delta"], res["witness"])
        elif kind == "probe":
            _probe(rep, name, L, task, res["probe"], what)
        elif kind == "finite_k":
            spec = task["spec"]
            _profile(rep, name, L, [v.name for v in spec.support], spec.shifts,
                     task["k"], res["dim"], res["volume"], res["jumping_values"])
            rep.exact(what + ".normalized", res["normalized_volume"], res["volume"] / res["k"])
        anchor = CONFIG_ANCHORS.get((case["config"], i))
        if anchor is not None:
            key, pick = anchor
            rep.close(f"anchor {key}", pick(res), ANCHORS[key], "S" if key != "norm_p2_half_line" else "norm")
            if key == "delta_blp2":
                rep.exact("anchor delta witness", res["witness"], "ord_e")


def _probe(rep, name, L, task, probe, what):
    witness = None
    ratios = []
    for j, (mu, entry) in enumerate(zip(task["measures"], probe.entries)):
        _beta(rep, name, L, _names(mu), entry.beta, f"{what}[{j}]")
        rep.exact(f"{what}[{j}].norm", entry.norm, entry.beta.norm)
        b = entry.beta
        if b.stability_ratio is not None:
            ratios.append(b.stability_ratio)
            if b.beta < task["epsilon"] * b.norm - 1e-9 and witness is None:
                witness = "+".join(v.name for v in mu.support)
    rep.exact(what + ".witness", probe.witness, witness)
    rep.exact(what + ".unstable", probe.unstable, witness is not None)
    rep.exact(what + ".min_ratio", probe.min_ratio, min(ratios) if ratios else None)


# (config, task index) -> (anchor, how to read the value from the task result)
CONFIG_ANCHORS = {
    ("p2_delta.json", 2): ("S_p2_line", lambda r: r["S"]),
    ("blp2_instability.json", 3): ("delta_blp2", lambda r: r["delta"]),
    ("blp2_instability.json", 4): ("S_blp2_ord_e", lambda r: r["probe"].entries[0].norm),
    ("p2_ma.json", 0): ("norm_p2_half_line", lambda r: r["norm"].value),
}


def check_case(case: dict, out: dict) -> Report:
    rep = Report()
    kind = case["kind"]
    if kind == "surface":
        _surface_case(rep, case, out)
    elif kind == "toric":
        _toric_case(rep, case, out)
    elif kind == "config":
        _config_case(rep, case, out)
    elif kind == "norm":
        _norm(rep, case["model"], case["L"], case["measure"], out["norm"])
        if case == cases.NORM_REFERENCES[0]:
            rep.close("anchor norm_p2_half_line", out["norm"].value,
                      ANCHORS["norm_p2_half_line"], "norm")
    elif kind == "beta":
        _beta(rep, case["model"], case["L"], case["measure"], out["beta"])
        if case == cases.NORM_REFERENCES[1]:
            rep.close("anchor S_blp2_ord_e", out["beta"].norm, ANCHORS["S_blp2_ord_e"], "S")
    elif kind == "ma_solve":
        _ma_solve(rep, case["model"], case["L"], case["measure"], out["ma_solve"])
    elif kind == "delta":
        _delta(rep, case["model"], case["candidates"], out["delta"], out["witness"])
        if case["model"] == "blp2":
            rep.close("anchor delta_blp2", out["delta"], ANCHORS["delta_blp2"], "S")
            rep.exact("anchor delta witness", out["witness"], "ord_e")
    else:
        rep.problems.append(f"unknown case kind {kind!r}")
    return rep
