"""Batch front-end: JSON job configs in, JSON reports out.

Configs declare a geometry model (bundled by name or inline), a line bundle,
the optimizer tolerance, a seed, and an ordered task list.  The seed is
validated and echoed but has no effect: every task is exact or deterministic.
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

from . import __version__, core, filtrations, stability
from .core import (
    TRIVIAL_VALUATION,
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    GeometryModel,
    Valuation,
)
from .models import bundled_model
from .surface import SurfaceModel
from .toric import ToricModel

# the fields of an inline model of each type, and of each of its valuations
MODEL_FIELDS = {
    "surface": ("type", "name", "intersection_matrix", "negative_curves", "canonical_class",
                "sample_curves", "valuations"),
    "toric": ("type", "name", "rays", "valuations"),
}
VALUATION_FIELDS = {"surface": ("name", "curve", "log_discrepancy"), "toric": ("name", "vector")}

DEFAULT_TOLERANCES = {"optimizer": 1e-8}


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


def _nonempty(payload: dict, key: str, path: str) -> list:
    """payload[key], a nonempty array."""
    value = payload.get(key)
    _expect(isinstance(value, list) and value, f"{path}.{key}", "expected a nonempty array")
    return value


def _each(parse, model, payload: dict, key: str, path: str) -> list:
    """parse(model, item, its path) of each item of the nonempty array payload[key]."""
    return [parse(model, x, f"{path}.{key}[{i}]") for i, x in enumerate(_nonempty(payload, key, path))]


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


def _parse_rational_vector(value, path: str, rank: int):
    _expect(isinstance(value, list), path, "expected an array")
    if len(value) != rank:
        raise ConfigError(path, f"expected {rank} entries, got {len(value)}")
    return [_parse_rational(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _rational_vectors(payload: dict, key: str, path: str, rank: int) -> list:
    """payload[key], an array of rational vectors of `rank` entries; [] when absent."""
    return [_parse_rational_vector(c, f"{path}.{key}[{i}]", rank) for i, c in enumerate(_array(payload, key, path))]


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
            model = SurfaceModel(
                name,
                _rational_vectors(payload, "intersection_matrix", path, rank),
                negative_curves=_rational_vectors(payload, "negative_curves", path, rank),
                canonical_class=_parse_rational_vector(
                    payload.get("canonical_class", [0] * rank),
                    f"{path}.canonical_class",
                    rank,
                ),
                sample_curves=_rational_vectors(payload, "sample_curves", path, rank),
            )
        else:
            rays = _nonempty(payload, "rays", path)
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
            try:
                model.monomial_valuation(vname, v.get("vector"))
            except GeometryError as exc:
                raise ConfigError(f"{vp}.vector", str(exc)) from None
        return model
    except GeometryError as exc:
        raise ConfigError(path, f"invalid model: {exc}") from None


def _lookup_valuation(model: GeometryModel, name, path: str) -> Valuation:
    _expect(isinstance(name, str), path, "expected a valuation name")
    if name == "trivial":
        return TRIVIAL_VALUATION
    v = model.named_valuations.get(name)
    if v is None:
        raise ConfigError(path, f"unknown valuation {name!r}; known: {sorted(model.named_valuations)} + ['trivial']")
    return v


def _parse_measure(model, payload, path: str) -> DivisorialMeasure:
    _expect(isinstance(payload, dict), path, "expected an object")
    _expect_fields(payload, ("atoms",), path)
    pairs = []
    for i, atom in enumerate(_nonempty(payload, "atoms", path)):
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


def _parse_divisor(model, line_bundle, task, path: str) -> DivisorClass:
    div = task.get("divisor")
    if div is None:
        return line_bundle
    return model.divisor(_parse_rational_vector(div, f"{path}.divisor", model.class_rank))


def _parse_spec(model, line_bundle, task, path: str) -> filtrations.FiltrationSpec:
    vals = _each(_lookup_valuation, model, task, "support", path)
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


def _parse_level(model, line_bundle, task, path: str) -> int:
    k = task.get("k")
    _expect(_is_int(k) and k > 0, f"{path}.k", "expected a positive integer")
    return k


# each input a task can read: the config fields it reads, and its parser of
# (model, line bundle, task, task path)
INPUTS = {
    "divisor": (("divisor",), _parse_divisor),
    "valuation": (("valuation",), lambda model, L, task, path: _lookup_valuation(model, task.get("valuation"), f"{path}.valuation")),
    "spec": (("support", "shifts"), _parse_spec),
    "measure": (("measure",), lambda model, L, task, path: _parse_measure(model, task.get("measure"), f"{path}.measure")),
    "candidates": (("candidates",), lambda model, L, task, path: _each(_lookup_valuation, model, task, "candidates", path)),
    "measures": (("measures",), lambda model, L, task, path: _each(_parse_measure, model, task, "measures", path)),
    "epsilon": (("epsilon",), lambda model, L, task, path: _parse_number(task.get("epsilon", 0), f"{path}.epsilon")),
    "k": (("k",), _parse_level),
}


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
    for given, path in ((tol_payload, "tolerances.{}"), (overrides or {}, "--tolerance-override {}")):
        for key, value in given.items():
            where = path.format(key)
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(where, f"unknown tolerance {key!r}; known: {sorted(DEFAULT_TOLERANCES)}")
            tolerances[key] = _parse_number(value, where)
            _expect(tolerances[key] > 0, where, f"expected a positive tolerance, got {value!r}")
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
        # a kind that is not a string, such as a list, cannot be looked up in the table
        if not (isinstance(kind, str) and kind in TASKS):
            raise ConfigError(f"{tp}.kind", f"unknown task kind {kind!r}; known: {list(TASKS)}")
        _expect_fields(task, _KNOWN_FIELDS[kind], tp)
        parsed = {"kind": kind}
        for name in TASKS[kind][0]:
            parsed[name] = INPUTS[name][1](model, line_bundle, task, tp)
        tasks.append(parsed)
    return model, line_bundle, tasks, tolerances, seed


# -- task execution ---------------------------------------------------------


def _run_zariski(model, L, opts, divisor):
    if not isinstance(model, SurfaceModel):
        raise GeometryError("zariski tasks need a surface model")
    dec = model.zariski(divisor)
    return {
        "positive_part": dec.positive_part,
        "negative_part": [{"curve": c, "coefficient": a} for c, a in dec.negative_part],
    }


def _run_delta(model, L, opts, candidates):
    value, witness = stability.delta_anticanonical(model, candidates)
    return {"delta": value, "witness": witness.name}


def _run_finite_k(model, L, opts, spec, k):
    # the profile's values and mean (`filtration_volume_finite_k`), read
    # off the sorted array: only the values a report prints become floats
    values, volume = filtrations._level_values(model, L, spec, k)
    return {
        "k": k,
        "dim": len(values),
        "volume": volume,
        "normalized_volume": volume / k,
        "jumping_values": values.tolist() if len(values) <= 64 else None,
    }


# each task kind: the inputs it reads (`INPUTS`), in check order, and its
# runner of (model, line bundle, optimizer options, its inputs in order).  A
# runner reaches library functions through their module at call time, so a
# wrapper put on the module attribute sees the call.
TASKS = {
    "volume": (("divisor",), lambda model, L, opts, divisor: {"volume": model.volume(divisor)}),
    "zariski": (("divisor",), _run_zariski),
    "gamma": (("valuation",), lambda model, L, opts, valuation: {"gamma": core.gamma_threshold(model, L, valuation)}),
    "S": (("spec",), lambda model, L, opts, spec: {"S": filtrations.expected_order_S(model, L, spec)}),
    "norm": (("measure",), lambda model, L, opts, measure: {"norm": stability.norm(model, L, measure, options=opts)}),
    "beta": (("measure",), lambda model, L, opts, measure: {"beta": stability.beta(model, L, measure, options=opts)}),
    "delta": (("candidates",), _run_delta),
    "ma_solve": (("measure",), lambda model, L, opts, measure: {"solution": stability.ma_solve(model, L, measure, options=opts)}),
    "probe": (("measures", "epsilon"), lambda model, L, opts, measures, epsilon: {
        "probe": stability.divisorial_stability_probe(model, L, measures, epsilon=epsilon, options=opts)
    }),
    "finite_k": (("spec", "k"), _run_finite_k),
}
# the config fields each task kind reads, from the fields of its inputs
_KNOWN_FIELDS = {kind: ("kind", *(field for name in inputs for field in INPUTS[name][0])) for kind, (inputs, _) in TASKS.items()}


# `seed` is unused; the signature stays for positional callers (perfbench/workloads.py)
def run_task(model, line_bundle, task, tolerances, seed):
    inputs, run = TASKS[task["kind"]]
    opts = stability.OptimizerOptions(tol=tolerances["optimizer"])
    return run(model, line_bundle, opts, *map(task.__getitem__, inputs))


# -- serialization ----------------------------------------------------------


def _fraction(q) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _same(obj):
    return obj


def _listed(obj):
    return [_jsonify(x) for x in obj]


# the converter of each type met, by exact type: these are declared, and a
# type met first is given, once, the converter of its first base in MRO order
# that is declared here, else a dataclass's fields, else the value itself
_CONVERTERS = {
    dict: lambda d: {k: _jsonify(v) for k, v in d.items()},
    list: _listed,
    tuple: _listed,
    Fraction: _fraction,
    DivisorClass: lambda D: {"basis": D.basis_id, "coefficients": [_jsonify(c) for c in D.coefficients]},
    Valuation: lambda v: v.name,
    DivisorialMeasure: lambda mu: {"atoms": [{"valuation": v.name, "mass": _jsonify(m)} for v, m in mu.atoms]},
    filtrations.FiltrationSpec: lambda spec: {
        "support": [v.name for v in spec.support],
        "shifts": [float(t) for t in spec.shifts],
    },
}
_DECLARED = tuple(_CONVERTERS)


def _jsonify(obj):
    kind = type(obj)
    convert = _CONVERTERS.get(kind)
    if convert is None:
        convert = next((_CONVERTERS[base] for base in kind.__mro__ if base in _DECLARED), None)
        if convert is None and dataclasses.is_dataclass(kind):
            names = tuple([f.name for f in dataclasses.fields(kind)])
            convert = lambda value: {name: _jsonify(getattr(value, name)) for name in names}
        _CONVERTERS[kind] = convert = convert or _same
    return convert(obj)


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
        # the raw string: parse_config checks the key, then the value
        overrides[key] = value
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
        entry = {"kind": task["kind"], "inputs": _task_inputs(task)}
        report["tasks"].append(entry)
        start = time.perf_counter()
        try:
            entry["outputs"] = run_task(model, line_bundle, task, tolerances, used_seed)
        except (GeometryError, OverflowError) as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            _emit(report, out)
            click.echo(f"task {i} failed: {exc}", err=True)
            sys.exit(3)
        entry["wall_time_s"] = time.perf_counter() - start
    _emit(report, out)
    sys.exit(0)


if __name__ == "__main__":
    main()
