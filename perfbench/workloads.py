"""Turn generated cases into calls on the program's public functions.

Every call goes through a module attribute (``filtrations.expected_order_S``,
``core.gamma_threshold``, ...) or a method looked up on the class, so the
tracer's wrappers see it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from divstab import cli, core, filtrations, models, stability, toric

import cases

CONFIG_DIR = Path("src/divstab/configs")


class Workload:
    """The models and inputs one workload needs, built once per process."""

    def __init__(self, name: str):
        self.name = name
        self.make_block = cases.BLOCKS[name]
        self.configs = {}
        self.models = {}
        if name == "cli_configs":
            for fname in cases.CONFIG_NAMES:
                raw = (CONFIG_DIR / fname).read_bytes()
                self.configs[fname] = (json.loads(raw), hashlib.sha256(raw).hexdigest())
            return
        names = cases.TORICS if name == "toric_sweep" else cases.SURFACES
        for model_name in names:
            if model_name == "p3_toric":
                m = toric.ToricModel(model_name, cases.P3_RAYS)
                for vname, w in cases.P3_VALUATIONS.items():
                    m.monomial_valuation(vname, w)
            else:
                m = models.bundled_model(model_name)
            self.models[model_name] = m

    # -- one case -----------------------------------------------------------

    def run(self, case: dict) -> dict:
        kind = case["kind"]
        if kind == "config":
            return self._config(case)
        model = self.models[case["model"]]
        if kind == "delta":
            cands = [model.named_valuations[n] for n in case["candidates"]]
            value, witness = stability.delta_anticanonical(model, cands)
            return {"delta": value, "witness": witness.name}
        L = model.divisor(case["L"])
        if kind in ("norm", "beta", "ma_solve"):
            mu = core.DivisorialMeasure.make(
                [(self._valuation(model, v), m) for v, m in case["measure"]]
            )
            return {kind: getattr(stability, kind)(model, L, mu)}
        vals = tuple(self._valuation(model, v) for v in case["support"])
        spec = filtrations.FiltrationSpec(vals, case["t"])
        out = {
            "volume": model.volume(L),
            "gamma": {
                v.name: core.gamma_threshold(model, L, v)
                for v in vals
                if not v.is_trivial
            },
            "S": filtrations.expected_order_S(model, L, spec),
        }
        if kind == "surface":
            out["zariski"] = model.zariski(L)
            out["S_shifted"] = filtrations.expected_order_S(model, L, spec.shifted(case["c"]))
            if len(vals) >= 2:
                out["restriction"] = filtrations.restriction_inequality_check(
                    model, L, spec, vals[:1]
                )
            return out
        other = filtrations.FiltrationSpec(vals, case["t_other"])
        out["finite_k"] = filtrations.filtration_volume_finite_k(model, L, spec, case["k"])
        out["d_infinity"] = filtrations.d_infinity(model, L, spec, other, case["k"])
        return out

    @staticmethod
    def _valuation(model, name):
        return core.TRIVIAL_VALUATION if name == cases.TRIVIAL else model.named_valuations[name]

    def _config(self, case: dict) -> dict:
        """What `divstab run` does, minus click and the package-version lookup."""
        payload, sha = self.configs[case["config"]]
        model, line_bundle, tasks, tolerances, seed = cli.parse_config(
            payload, seed_override=case["seed"]
        )
        results = [
            cli.run_task(model, line_bundle, task, tolerances, seed) for task in tasks
        ]
        report = {
            "config_sha256": sha,
            "seed": seed,
            "tolerances": tolerances,
            "tasks": [
                {"kind": t["kind"], "inputs": cli._task_inputs(t), "outputs": r}
                for t, r in zip(tasks, results)
            ],
        }
        text = json.dumps(cli._jsonify(report), sort_keys=True)
        return {"model": model, "L": line_bundle, "tasks": tasks,
                "results": results, "text": text}
