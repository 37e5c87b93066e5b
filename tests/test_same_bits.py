"""Surface invariants reproduce their recorded bits.

`tests/same_bits.json` holds, for 150 seeded cases on p2, blp2, p1xp1, f1
and dP6 (`test_several_curves.dp6`), the volume, the Zariski decomposition
and the thresholds of L, and S, grad S, the Hessian of S and d S / d L
along -K at the shifts and at a translate of them: exact values as
strings, floats by `float.hex`.  The cases have one to three non-trivial
atoms, with none, one or two trivial atoms, at dyadic or uniform shifts.
Every value compares bit for bit, so a change that moves any of them
shows here, and the change that does so records it, as for tests/reports.

Regenerate the data (from the root of a checkout):

    PYTHONPATH=src python tests/test_same_bits.py
"""
import json
import random
from pathlib import Path

import divstab as ds
from divstab.core import TRIVIAL_VALUATION
from divstab.filtrations import FiltrationSpec, expected_order_hessian, expected_order_S_grad

from _cases import random_big_class
from test_several_curves import big_class, dp6

DATA = Path(__file__).parent / "same_bits.json"
NAMES = ("p2", "blp2", "p1xp1", "f1", "dp6")
TRIVIAL_2 = ds.Valuation("trivial_2", 0, is_trivial=True)


def shown(x) -> str:
    """An exact value as a string, a float by its hex digits."""
    return x.hex() if isinstance(x, float) else str(x)


def fresh_models() -> dict:
    """New models, so no memo of an earlier test serves a case."""
    built = {name: ds.models._BUILDERS[name]() for name in NAMES[:4]}
    built["dp6"] = dp6()
    return built


def cases(models, count=150, seed=35):
    """(name, L, support, shifts, c): one to three non-trivial atoms on one
    realization, none, one or two trivial atoms, shifts k/8 or uniform in
    [0, 2], and a translate c, k/8 or uniform in [-2, 2]."""
    rng = random.Random(seed)
    for n in range(count):
        name = NAMES[n % len(NAMES)]
        model = models[name]
        if name == "p2":
            pool = ["line", "conic"] if rng.random() < 0.7 else ["point_blowup"]
            L = random_big_class(model, rng)
        elif name == "dp6":
            pool = sorted(model.named_valuations)
            L = big_class(model, rng)
        else:
            pool = sorted(model.named_valuations)
            L = random_big_class(model, rng)
        vals = [model.named_valuations[v] for v in rng.sample(pool, rng.randint(1, min(3, len(pool))))]
        vals += [TRIVIAL_VALUATION, TRIVIAL_2][: rng.choice((0, 0, 1, 2))]
        rng.shuffle(vals)
        dyadic = rng.random() < 0.5
        draw = (lambda: rng.randint(0, 16) / 8) if dyadic else (lambda: rng.uniform(0, 2))
        shifts = tuple(draw() for _ in vals)
        c = rng.randint(-16, 16) / 8 if dyadic else rng.uniform(-2, 2)
        yield name, L, tuple(vals), shifts, c


def outputs(model, L, support, shifts, c) -> dict:
    """Every recorded value of one case, in the order the calls are made."""
    dec = model.zariski(L)
    out = {
        "volume": shown(model.volume(L)),
        "zariski": [list(map(str, dec.positive_part.coefficients)),
                    [[list(map(str, C.coefficients)), str(a)] for C, a in dec.negative_part]],
        "gamma": [shown(ds.gamma_threshold(model, L, v)) for v in support if not v.is_trivial],
    }
    minus_k = -model.canonical_class
    for key, ts in (("at", shifts), ("moved", tuple(t + c for t in shifts))):
        spec = FiltrationSpec(support, ts)
        value, grad = expected_order_S_grad(model, L, spec)
        out[key] = {
            "S": shown(value),
            "grad": list(map(shown, grad)),
            "hessian": [list(map(shown, row)) for row in expected_order_hessian(model, L, spec)],
            "derivative": shown(model.order_derivative(L, support, ts, minus_k)),
        }
    return out


def record() -> list:
    models = fresh_models()
    return [
        {"model": name, "L": list(map(str, L.coefficients)), "support": [v.name for v in support],
         "shifts": list(map(float.hex, shifts)), "c": c.hex(), "outputs": outputs(models[name], L, support, shifts, c)}
        for name, L, support, shifts, c in cases(models)
    ]


def test_cases_cover_the_kinds():
    seen = {"one": 0, "two": 0, "three": 0, "no trivial": 0, "trivial": 0, "two trivial": 0}
    for _, _, support, _, _ in cases(fresh_models()):
        live = sum(not v.is_trivial for v in support)
        seen[("one", "two", "three")[live - 1]] += 1
        seen[("no trivial", "trivial", "two trivial")[len(support) - live]] += 1
    assert min(seen.values()) >= 15, seen


def test_outputs_are_the_recorded_bits():
    recorded = json.loads(DATA.read_text())
    now = record()
    assert len(now) == len(recorded) == 150
    for n, (case, old) in enumerate(zip(now, recorded)):
        assert case == old, (n, case["model"], case["L"], case["support"])


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(map(json.dumps, record())) + "\n]\n")
