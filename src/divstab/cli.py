"""Batch front-end: JSON job configs in, JSON reports out.

Configs declare a geometry model (bundled by name or inline), a line bundle,
tolerances, a seed, and an ordered task list.  The seed and the quadrature
tolerance are validated and echoed but have no effect: every task is exact
or deterministic.
Reports echo inputs, embed the toolkit version and the config hash, and are
deterministic for a fixed config up to the per-task wall time field.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import Optional

import click

from . import __version__, filtrations, stability
from .core import (
    TRIVIAL_VALUATION,
    ConvergenceError,
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    GeometryModel,
    Valuation,
    gamma_threshold,
)
from .models import bundled_model, bundled_model_names
from .surface import SurfaceModel
from .toric import ToricModel

# the fields each task kind reads besides "kind"
TASK_FIELDS = {
    "volume": ("divisor",),
    "zariski": ("divisor",),
    "gamma": ("valuation",),
    "S": ("support", "shifts"),
    "norm": ("measure",),
    "beta": ("measure",),
    "delta": ("candidates",),
    "ma_solve": ("measure",),
    "probe": ("measures", "epsilon"),
    "finite_k": ("support", "shifts", "k"),
}
TASK_KINDS = tuple(TASK_FIELDS)
# the fields of an inline model of each type, and of each of its valuations
MODEL_FIELDS = {
    "surface": ("type", "name", "intersection_matrix", "negative_curves", "canonical_class",
                "sample_curves", "valuations"),
    "toric": ("type", "name", "rays", "valuations"),
}
VALUATION_FIELDS = {"surface": ("name", "curve", "log_discrepancy"), "toric": ("name", "vector")}

DEFAULT_TOLERANCES = {"quadrature": 1e-9, "optimizer": 1e-8, "gradient": 1e-6}


class ConfigError(Exception):
    """Schema violation with the JSON field path that caused it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# -- config parsing ---------------------------------------------------------


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _expect_fields(payload: dict, known, path: str):
    unknown = set(payload).difference(known)
    if unknown:
        raise ConfigError(path, f"unknown fields {sorted(unknown)}; known: {sorted(known)}")


def _array(payload: dict, key: str, path: str) -> list:
    """payload[key], an array; [] when absent."""
    value = payload.get(key, [])
    _expect(isinstance(value, list), f"{path}.{key}", "expected an array")
    return value


def _parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(path, f"malformed rational {value!r}: {exc}") from None
    raise ConfigError(path, f"expected an integer or 'p/q' string, got {value!r}")


def _parse_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if isinstance(value, str):
        value = _parse_rational(value, path)
    # false for nan, +-inf and numbers that overflow a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite float, got {value!r}")
    return float(value)


def _parse_rational_vector(value, path: str, rank: Optional[int] = None):
    _expect(isinstance(value, list), path, "expected an array")
    if rank is not None:
        _expect(len(value) == rank, path, f"expected {rank} entries, got {len(value)}")
    return [_parse_rational(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_model(payload, path: str) -> GeometryModel:
    _expect(isinstance(payload, dict), path, "expected an object")
    if set(payload) == {"name"}:
        name = payload["name"]
        _expect(isinstance(name, str), f"{path}.name", "expected a string")
        try:
            return bundled_model(name)
        except KeyError as exc:
            raise ConfigError(f"{path}.name", str(exc)) from None
    kind = payload.get("type")
    _expect(
        kind in ("surface", "toric"),
        f"{path}.type",
        "expected 'surface' or 'toric' (or a bundled {'name': ...} payload)",
    )
    name = payload.get("name")
    _expect(isinstance(name, str) and name, f"{path}.name", "expected a nonempty string")
    _expect_fields(payload, MODEL_FIELDS[kind], path)
    try:
        if kind == "surface":
            matrix = payload.get("intersection_matrix")
            _expect(isinstance(matrix, list), f"{path}.intersection_matrix", "expected an array")
            rank = len(matrix)
            rows = [
                _parse_rational_vector(r, f"{path}.intersection_matrix[{i}]", rank)
                for i, r in enumerate(matrix)
            ]
            model = SurfaceModel(
                name,
                rows,
                negative_curves=[
                    _parse_rational_vector(c, f"{path}.negative_curves[{i}]", rank)
                    for i, c in enumerate(_array(payload, "negative_curves", path))
                ],
                canonical_class=_parse_rational_vector(
                    payload.get("canonical_class", [0] * rank),
                    f"{path}.canonical_class",
                    rank,
                ),
                sample_curves=[
                    _parse_rational_vector(c, f"{path}.sample_curves[{i}]", rank)
                    for i, c in enumerate(_array(payload, "sample_curves", path))
                ],
            )
        else:
            rays = payload.get("rays")
            _expect(isinstance(rays, list) and rays, f"{path}.rays", "expected a nonempty array")
            for i, ray in enumerate(rays):
                _expect(isinstance(ray, list) and all(map(_is_int, ray)), f"{path}.rays[{i}]", "expected an integer vector")
            model = ToricModel(name, rays)
        for i, v in enumerate(_array(payload, "valuations", path)):
            vp = f"{path}.valuations[{i}]"
            _expect(isinstance(v, dict), vp, "expected an object")
            _expect_fields(v, VALUATION_FIELDS[kind], vp)
            vname = v.get("name")
            _expect(isinstance(vname, str) and vname, f"{vp}.name", "expected a nonempty string")
            if kind == "surface":
                model.curve_valuation(
                    vname,
                    _parse_rational_vector(v.get("curve"), f"{vp}.curve", rank),
                    _parse_rational(v.get("log_discrepancy", 1), f"{vp}.log_discrepancy"),
                )
                continue
            vec = v.get("vector")
            _expect(isinstance(vec, list) and all(map(_is_int, vec)), f"{vp}.vector", "expected an integer vector")
            try:
                model.monomial_valuation(vname, vec)
            except GeometryError as exc:
                raise ConfigError(f"{vp}.vector", str(exc)) from None
        return model
    except ConfigError:
        raise
    except GeometryError as exc:
        raise ConfigError(path, f"invalid model: {exc}") from None


def _lookup_valuation(model: GeometryModel, name, path: str) -> Valuation:
    _expect(isinstance(name, str), path, "expected a valuation name")
    if name == "trivial":
        return TRIVIAL_VALUATION
    v = model.named_valuations.get(name)
    _expect(
        v is not None,
        path,
        f"unknown valuation {name!r}; known: {sorted(model.named_valuations)} + ['trivial']",
    )
    return v


def _parse_measure(model, payload, path: str) -> DivisorialMeasure:
    _expect(isinstance(payload, dict), path, "expected an object")
    _expect_fields(payload, ("atoms",), path)
    atoms = payload.get("atoms")
    _expect(isinstance(atoms, list) and atoms, f"{path}.atoms", "expected a nonempty array")
    pairs = []
    for i, atom in enumerate(atoms):
        ap = f"{path}.atoms[{i}]"
        _expect(isinstance(atom, dict), ap, "expected an object")
        _expect_fields(atom, ("valuation", "mass"), ap)
        v = _lookup_valuation(model, atom.get("valuation"), f"{ap}.valuation")
        mass = _parse_rational(atom.get("mass"), f"{ap}.mass")
        pairs.append((v, mass))
    try:
        return DivisorialMeasure.make(pairs)
    except GeometryError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_spec(model, task, path: str) -> filtrations.FiltrationSpec:
    support = task.get("support")
    _expect(isinstance(support, list) and support, f"{path}.support", "expected a nonempty array")
    vals = [
        _lookup_valuation(model, n, f"{path}.support[{i}]") for i, n in enumerate(support)
    ]
    shifts = task.get("shifts", [0] * len(vals))
    _expect(
        isinstance(shifts, list) and len(shifts) == len(vals),
        f"{path}.shifts",
        "expected one shift per support valuation",
    )
    ts = tuple(_parse_number(s, f"{path}.shifts[{i}]") for i, s in enumerate(shifts))
    try:
        return filtrations.FiltrationSpec(tuple(vals), ts)
    except GeometryError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(payload, overrides=None, seed_override=None):
    """Validate a raw config payload; schema errors carry JSON field paths."""
    _expect(isinstance(payload, dict), "$", "config root must be an object")
    _expect_fields(payload, ("model", "line_bundle", "tasks", "tolerances", "seed"), "$")
    model = _parse_model(payload.get("model"), "model")
    lb = payload.get("line_bundle")
    _expect(lb is not None, "line_bundle", "missing")
    line_bundle = model.divisor(
        _parse_rational_vector(lb, "line_bundle", model.class_rank)
    )
    tolerances = dict(DEFAULT_TOLERANCES)
    tol_payload = payload.get("tolerances", {})
    _expect(isinstance(tol_payload, dict), "tolerances", "expected an object")
    for key, value in tol_payload.items():
        _expect(key in DEFAULT_TOLERANCES, f"tolerances.{key}", "unknown tolerance")
        tolerances[key] = _parse_number(value, f"tolerances.{key}")
    for key, value in (overrides or {}).items():
        _expect(key in DEFAULT_TOLERANCES, f"--tolerance-override {key}", "unknown tolerance")
        tolerances[key] = value
    seed = payload.get("seed", 0)
    _expect(_is_int(seed), "seed", "expected an integer")
    if seed_override is not None:
        seed = seed_override
    raw_tasks = payload.get("tasks", [])
    _expect(isinstance(raw_tasks, list), "tasks", "expected an array")
    tasks = []
    for i, task in enumerate(raw_tasks):
        tp = f"tasks[{i}]"
        _expect(isinstance(task, dict), tp, "expected an object")
        kind = task.get("kind")
        _expect(kind in TASK_KINDS, f"{tp}.kind", f"unknown task kind {kind!r}; known: {list(TASK_KINDS)}")
        _expect_fields(task, ("kind", *TASK_FIELDS[kind]), tp)
        tasks.append(_parse_task(model, line_bundle, task, tp))
    return model, line_bundle, tasks, tolerances, seed


def _parse_task(model, line_bundle, task, path: str):
    kind = task["kind"]
    parsed = {"kind": kind}
    if kind in ("volume", "zariski"):
        div = task.get("divisor")
        parsed["divisor"] = (
            line_bundle
            if div is None
            else model.divisor(_parse_rational_vector(div, f"{path}.divisor", model.class_rank))
        )
    elif kind == "gamma":
        parsed["valuation"] = _lookup_valuation(model, task.get("valuation"), f"{path}.valuation")
    elif kind == "S":
        parsed["spec"] = _parse_spec(model, task, path)
    elif kind in ("norm", "beta", "ma_solve"):
        parsed["measure"] = _parse_measure(model, task.get("measure"), f"{path}.measure")
    elif kind == "delta":
        cands = task.get("candidates")
        _expect(isinstance(cands, list) and cands, f"{path}.candidates", "expected a nonempty array")
        parsed["candidates"] = [
            _lookup_valuation(model, n, f"{path}.candidates[{i}]") for i, n in enumerate(cands)
        ]
    elif kind == "probe":
        ms = task.get("measures")
        _expect(isinstance(ms, list) and ms, f"{path}.measures", "expected a nonempty array")
        parsed["measures"] = [
            _parse_measure(model, m, f"{path}.measures[{i}]") for i, m in enumerate(ms)
        ]
        parsed["epsilon"] = _parse_number(task.get("epsilon", 0), f"{path}.epsilon")
    elif kind == "finite_k":
        parsed["spec"] = _parse_spec(model, task, path)
        k = task.get("k")
        _expect(_is_int(k) and k > 0, f"{path}.k", "expected a positive integer")
        parsed["k"] = k
    return parsed


# -- task execution ---------------------------------------------------------


# `seed` is unused; the signature stays for positional callers (perfbench/workloads.py)
def run_task(model, line_bundle, task, tolerances, seed):
    kind = task["kind"]
    opts = stability.OptimizerOptions(tol=tolerances["optimizer"])
    if kind == "volume":
        return {"volume": model.volume(task["divisor"])}
    if kind == "zariski":
        if not isinstance(model, SurfaceModel):
            raise GeometryError("zariski tasks need a surface model")
        dec = model.zariski(task["divisor"])
        return {
            "positive_part": dec.positive_part,
            "negative_part": [
                {"curve": c, "coefficient": a} for c, a in dec.negative_part
            ],
        }
    if kind == "gamma":
        return {"gamma": gamma_threshold(model, line_bundle, task["valuation"])}
    if kind == "S":
        return {"S": filtrations.expected_order_S(model, line_bundle, task["spec"])}
    if kind in ("norm", "beta"):
        return {kind: getattr(stability, kind)(model, line_bundle, task["measure"], options=opts)}
    if kind == "delta":
        value, witness = stability.delta_anticanonical(model, task["candidates"])
        return {"delta": value, "witness": witness.name}
    if kind == "ma_solve":
        return {"solution": stability.ma_solve(
            model, line_bundle, task["measure"], grad_tol=tolerances["gradient"], options=opts
        )}
    if kind == "probe":
        return {"probe": stability.divisorial_stability_probe(
            model, line_bundle, task["measures"], epsilon=task["epsilon"], options=opts
        )}
    if kind == "finite_k":
        profile = filtrations.filtration_volume_finite_k(
            model, line_bundle, task["spec"], task["k"]
        )
        return {
            "k": profile.k,
            "dim": len(profile.jumping_values),
            "volume": profile.volume,
            "normalized_volume": profile.volume / profile.k,
            "jumping_values": list(profile.jumping_values)
            if len(profile.jumping_values) <= 64
            else None,
        }
    raise AssertionError(f"unhandled task kind {kind}")


# -- serialization ----------------------------------------------------------


def _jsonify(obj):
    # containers and JSON scalars first: they are most of the nodes of a report
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, DivisorClass):
        return {"basis": obj.basis_id, "coefficients": [_jsonify(c) for c in obj.coefficients]}
    if isinstance(obj, Valuation):
        return obj.name
    if isinstance(obj, DivisorialMeasure):
        return {
            "atoms": [
                {"valuation": v.name, "mass": _jsonify(m)} for v, m in obj.atoms
            ]
        }
    if isinstance(obj, filtrations.FiltrationSpec):
        return {
            "support": [v.name for v in obj.support],
            "shifts": [float(t) for t in obj.shifts],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    return obj


def _task_inputs(task):
    return {k: _jsonify(v) for k, v in task.items() if k != "kind"}


# -- entry points -----------------------------------------------------------


@click.group(invoke_without_command=True)
@click.option("--list-examples", is_flag=True, help="List the bundled example configs.")
@click.pass_context
def main(ctx, list_examples):
    """Volumes, filtrations and stability invariants from JSON job configs."""
    if list_examples:
        root = resources.files("divstab") / "configs"
        for entry in sorted(p.name for p in root.iterdir() if p.name.endswith(".json")):
            click.echo(entry)
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(0)


def _emit(payload, out: Optional[str], err: bool = False):
    """Write the JSON payload to `out`, and echo it unless it went to a file
    of a successful run."""
    body = json.dumps(_jsonify(payload), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(body + "\n")
    if err or not out:
        click.echo(body, err=err)


def _fail(code: int, error: dict, out: Optional[str]):
    _emit({"error": error}, out, err=True)
    sys.exit(code)


@main.command(name="run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Report path (default: stdout).")
@click.option(
    "--tolerance-override", "tolerance_overrides", multiple=True,
    help="Override a tolerance, e.g. optimizer=1e-10; repeatable.",
)
@click.option("--seed", type=int, default=None, help="Override the config's seed (echoed; no effect).")
def run(config_path, out, tolerance_overrides, seed):
    """Execute the task list of a JSON job config and emit a JSON report."""
    with open(config_path, "rb") as fh:
        raw = fh.read()
    overrides = {}
    for item in tolerance_overrides:
        if "=" not in item:
            _fail(2, {"type": "schema", "path": "--tolerance-override",
                      "message": f"expected key=value, got {item!r}"}, out)
        key, _, value = item.partition("=")
        try:
            overrides[key] = _parse_number(value, f"--tolerance-override {key}")
        except ConfigError as exc:
            _fail(2, {"type": "schema", "path": exc.path, "message": exc.message}, out)
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        _fail(2, {"type": "schema", "path": "$", "message": f"invalid JSON: {exc}"}, out)
    try:
        model, line_bundle, tasks, tolerances, used_seed = parse_config(
            payload, overrides, seed
        )
    except ConfigError as exc:
        _fail(2, {"type": "schema", "path": exc.path, "message": exc.message}, out)

    report = {
        "version": __version__,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": used_seed,
        "tolerances": tolerances,
        "tasks": [],
    }
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        try:
            outputs = run_task(model, line_bundle, task, tolerances, used_seed)
        except (GeometryError, ConvergenceError) as exc:
            code = 3 if isinstance(exc, GeometryError) else 4
            report["tasks"].append({
                "kind": task["kind"],
                "inputs": _task_inputs(task),
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
            _emit(report, out)
            click.echo(f"task {i} failed: {exc}", err=True)
            sys.exit(code)
        report["tasks"].append({
            "kind": task["kind"],
            "inputs": _task_inputs(task),
            "outputs": outputs,
            "wall_time_s": time.perf_counter() - start,
        })
    _emit(report, out)
    sys.exit(0)


if __name__ == "__main__":
    main()
