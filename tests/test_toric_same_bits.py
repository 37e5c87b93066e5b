"""Toric invariants reproduce their recorded bits.

`tests/toric_same_bits.json` holds, for 120 seeded cases on p2_toric,
p1xp1_toric, f1_toric, P^3 and the 3-d cube fan, the volume, the vertices
and the thresholds of L, S and grad S exactly, the Hessian of S, and one
or two constrained volumes, each at the shifts and at a translate of them,
and at a small level k the jumping values, their mean and d_infinity
against a second shift vector: exact values as strings, floats by
`float.hex`.  The cases have one to three non-trivial atoms, with none, one
or two trivial atoms, at dyadic or uniform shifts, on nef and non-nef
(f1_toric at 2S + F and beyond), integral and rational classes; a few fixed
cases come first, with an empty cell and a flat cell.  Every value compares
bit for bit, so a change that moves any of them shows here.

Regenerate the data (from the root of a checkout):

    PYTHONPATH=src python tests/test_toric_same_bits.py
"""
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import divstab as ds
from divstab.core import TRIVIAL_VALUATION, Valuation
from divstab.filtrations import (
    FiltrationSpec,
    d_infinity,
    expected_order_hessian,
    filtration_volume_finite_k,
    one_per_centre,
)
from divstab.toric import ToricModel

DATA = Path(__file__).parent / "toric_same_bits.json"
NAMES = ("p2_toric", "p1xp1_toric", "f1_toric", "p3", "cube")
TRIVIAL_2 = Valuation("trivial_2", 0, is_trivial=True)
# the most lattice points a recorded level may hold
MAX_POINTS = 160


def shown(x) -> str:
    """An exact value as a string, a float by its hex digits."""
    return x.hex() if isinstance(x, float) else str(x)


def fresh_models() -> dict:
    """New models, so no memo of an earlier test serves a case.  The cube's
    fan is not fixed by its rays, so its valuations are built directly."""
    built = {name: ds.models._BUILDERS[name]() for name in NAMES[:3]}
    p3 = ToricModel("p3", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
    for name, w in (("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("e12", (1, 1, 0)), ("e123", (1, 1, 1))):
        p3.monomial_valuation(name, w)
    built["p3"] = p3
    cube = ToricModel("cube", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    for name, w in (("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("e3", (0, 0, 1)), ("e12", (1, 1, 0))):
        cube.add_valuation(Valuation(name, Fraction(sum(map(abs, w))), order_model=w))
    built["cube"] = cube
    return built


def random_class(model, rng):
    """A big class with coefficients in [-1, 4] ([-1, 2] in 3-d), over 1,
    2 or 3 when rational, whose least integral level holds at most
    MAX_POINTS points; on f1_toric sometimes with a2 raised, so 2S + F and
    beyond, which is not nef."""
    rational = rng.random() < 0.4
    top = 4 if model.dimension == 2 else 2
    while True:
        a = [Fraction(rng.randint(-1, top), rng.choice((1, 2, 3)) if rational else 1) for _ in model.rays]
        if model.name == "f1_toric" and rng.random() < 0.4:
            a[1] += rng.randint(1, 2)
        L = model.divisor(a)
        if model.volume(L) > 0 and len(model.lattice_points(L, least_level(L))) <= MAX_POINTS:
            return L


def least_level(L) -> int:
    return math.lcm(*(a.denominator for a in L.coefficients))


def level(model, L, rng) -> int:
    """A small level k with k L integral and at most MAX_POINTS points."""
    k = least_level(L) * rng.choice((1, 1, 2))
    return k if len(model.lattice_points(L, k)) <= MAX_POINTS else least_level(L)


def fixed_cases(models):
    """An empty cell (e2 shifted past m1 on 3H) and a flat one (the cell
    of diag beside e1 on 3H is the edge m2 = 0), and f1_toric at 2S + F."""
    p2, f1 = models["p2_toric"], models["f1_toric"]
    L3H = p2.divisor([0, 0, 3])
    e1, e2, diag = (p2.named_valuations[v] for v in ("e1", "e2", "diag"))
    yield "p2_toric", L3H, (e1, e2), (0.0, 4.0), 0.5, (0.0, 0.0), [((1, -1), 6)], 2
    yield "p2_toric", L3H, (e1, diag), (0.0, 0.0), -0.25, (0.5, 0.0), [((1, 1), 3)], 1
    yield ("f1_toric", f1.divisor([1, 2, 0, 0]), (f1.named_valuations["e2"], TRIVIAL_VALUATION), (0.0, 0.375),
           0.125, (0.25, 0.0), [((0, 1), Fraction(1, 2))], 3)


def cases(models, count=120, seed=36):
    """(name, L, support, shifts, c, other, constraints, k): one to three
    non-trivial atoms, none, one or two trivial atoms, shifts k/8 or uniform
    in [0, 2], a translate c, k/8 or uniform in [-2, 2], a second shift
    vector for d_infinity, one or two constraints (w, c) and a level k."""
    yield from fixed_cases(models)
    rng = random.Random(seed)
    for n in range(count):
        name = NAMES[n % len(NAMES)]
        model = models[name]
        L = random_class(model, rng)
        pool = sorted(model.named_valuations)
        vals = [model.named_valuations[v] for v in rng.sample(pool, rng.randint(1, min(3, len(pool))))]
        vals += [TRIVIAL_VALUATION, TRIVIAL_2][: rng.choice((0, 0, 1, 2))]
        rng.shuffle(vals)
        dyadic = rng.random() < 0.5
        draw = (lambda: rng.randint(0, 16) / 8) if dyadic else (lambda: rng.uniform(0, 2))
        shifts = tuple(draw() for _ in vals)
        c = rng.randint(-16, 16) / 8 if dyadic else rng.uniform(-2, 2)
        other = tuple(draw() for _ in vals)
        constraints = []
        for _ in range(rng.randint(1, 2)):
            w = tuple(rng.randint(-2, 2) for _ in range(model.dimension))
            if any(w):
                constraints.append((w, draw() if rng.random() < 0.5 else Fraction(rng.randint(0, 6), rng.randint(1, 4))))
        yield name, L, tuple(vals), shifts, c, other, constraints, level(model, L, rng)


def outputs(model, L, support, shifts, c, other, constraints, k) -> dict:
    """Every recorded value of one case, in the order the calls are made."""
    out = {
        "volume": shown(model.volume(L)),
        "vertices": [list(map(str, p)) for p in model.polytope_vertices(L)],
        "gamma": [shown(ds.gamma_threshold(model, L, v)) for v in support if not v.is_trivial],
    }
    for key, ts in (("at", shifts), ("moved", tuple(t + c for t in shifts))):
        kept, kept_shifts, _ = one_per_centre(support, ts)
        value, grad = model.expected_order(L, kept, kept_shifts)
        out[key] = {
            "S": shown(value),
            "grad": list(map(shown, grad)),
            "hessian": [list(map(shown, row)) for row in expected_order_hessian(model, L, FiltrationSpec(support, ts))],
        }
    out["constrained"] = [shown(model.constrained_volume(L, constraints[:i + 1])) for i in range(len(constraints))]
    spec, spec_other = FiltrationSpec(support, shifts), FiltrationSpec(support, other)
    profile = filtration_volume_finite_k(model, L, spec, k)
    out["finite_k"] = {"k": k, "values": list(map(shown, profile.jumping_values)), "mean": shown(profile.volume),
                       "d_infinity": shown(d_infinity(model, L, spec, spec_other, k))}
    return out


def record() -> list:
    models = fresh_models()
    return [
        {"model": name, "L": list(map(str, L.coefficients)), "support": [v.name for v in support],
         "shifts": list(map(float.hex, shifts)), "c": c.hex(), "other": list(map(float.hex, other)),
         "constraints": [[list(w), shown(x)] for w, x in constraints],
         "outputs": outputs(models[name], L, support, shifts, c, other, constraints, k)}
        for name, L, support, shifts, c, other, constraints, k in cases(models)
    ]


def test_cases_cover_the_kinds():
    models = fresh_models()
    seen = {"one": 0, "two": 0, "three": 0, "no trivial": 0, "trivial": 0, "two trivial": 0,
            "rational": 0, "non-nef": 0, "3-d": 0, "empty cell": 0, "flat cell": 0}
    for name, L, support, shifts, _, _, _, _ in cases(models):
        model = models[name]
        live = sum(not v.is_trivial for v in support)
        seen[("one", "two", "three")[live - 1]] += 1
        seen[("no trivial", "trivial", "two trivial")[len(support) - live]] += 1
        seen["rational"] += any(a.denominator > 1 for a in L.coefficients)
        seen["3-d"] += model.dimension == 3
        # non-nef: some ray inequality is tight at no vertex of P_L
        verts = model.polytope_vertices(L)
        seen["non-nef"] += any(all(sum(x * r for x, r in zip(p, ray)) != -a for p in verts)
                               for ray, a in zip(model.rays, L.coefficients))
        kept, kept_shifts, _ = one_per_centre(support, shifts)
        _, grad = model.expected_order(L, kept, kept_shifts)
        seen["empty cell"] += any(g == 0 for g in grad)
    seen["flat cell"] = 1  # the second fixed case, checked below
    assert min(seen.values()) >= 1 and min(v for key, v in seen.items() if "cell" not in key) >= 10, seen
    p2 = models["p2_toric"]
    e1, diag = p2.named_valuations["e1"], p2.named_valuations["diag"]
    # the cell of diag, m2 <= 0 on 3H, is the edge from (0, 0) to (3, 0)
    L3H = p2.divisor([0, 0, 3])
    assert p2.constrained_volume(L3H, [((0, -1), 3)]) == 0 < p2.constrained_volume(L3H, [((0, -1), 2)])
    assert p2.expected_order(L3H, (e1, diag), (0, 0))[1] == [1, 0]


def test_outputs_are_the_recorded_bits():
    recorded = json.loads(DATA.read_text())
    now = record()
    assert len(now) == len(recorded) == 123
    for n, (case, old) in enumerate(zip(now, recorded)):
        assert case == old, (n, case["model"], case["L"], case["support"])


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(map(json.dumps, record())) + "\n]\n")
