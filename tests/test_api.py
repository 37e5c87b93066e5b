"""The public API carries no inert knobs.  The CLI's one key without effect,
the seed, stays accepted and echoed; the CLI has no inert tolerance."""
import inspect
import json
import os
import pickle
import subprocess
import sys
from importlib import resources

import pytest
from click.testing import CliRunner

import divstab as ds
from divstab.cli import main


FUNCTIONS = [name for name in ds.__all__ if inspect.isfunction(getattr(ds, name))]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_no_quad_tol_or_seed(name):
    assert not {"quad_tol", "seed"} & set(inspect.signature(getattr(ds, name)).parameters)


def test_gamma_threshold_signature():
    assert list(inspect.signature(ds.gamma_threshold).parameters) == ["model", "L", "v"]


@pytest.mark.parametrize("config", ["p2_ma.json", "f1_volumes.json"])
def test_cli_seed_is_inert(tmp_path, config):
    path = str(resources.files("divstab") / "configs" / config)

    def report(name, *extra):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["run", path, "--out", str(out), *extra])
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())

    overridden = report("a.json", "--seed", "7")
    plain = report("b.json")
    assert overridden["seed"] == 7 and plain["seed"] == 0
    assert [t["outputs"] for t in overridden["tasks"]] == [t["outputs"] for t in plain["tasks"]]


def test_ma_solve_has_no_grad_tol():
    assert "grad_tol" not in inspect.signature(ds.ma_solve).parameters


@pytest.mark.parametrize("name", ds.bundled_model_names())
def test_bundled_models_and_their_valuations_pickle(name):
    # a bundled model pickles as its name: it and each valuation come back
    # as the shared model and a valuation with the same gamma and S
    model = ds.bundled_model(name)
    assert pickle.loads(pickle.dumps(model)) is model
    L = -model.canonical_class
    for v in model.named_valuations.values():
        back = pickle.loads(pickle.dumps(v))
        assert back == v
        spec, again = ds.FiltrationSpec((v,), (0.0,)), ds.FiltrationSpec((back,), (0.0,))
        assert ds.gamma_threshold(model, L, back) == ds.gamma_threshold(model, L, v)
        assert ds.expected_order_S(model, L, again) == ds.expected_order_S(model, L, spec)


def test_a_valuation_unpickles_in_a_fresh_process():
    # blp2's E and f1_toric's fibre, rebuilt there by name: the same gamma at -K
    models = [ds.bundled_model("blp2"), ds.bundled_model("f1_toric")]
    vals = [models[0].named_valuations["ord_e"], models[1].named_valuations["e2"]]
    code = ("import pickle, sys, divstab as ds\n"
            "for name, v in pickle.loads(sys.stdin.buffer.read()):\n"
            "    m = ds.bundled_model(name)\n"
            "    print(ds.gamma_threshold(m, -m.canonical_class, v))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ds.__file__))}
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps([(m.name, v) for m, v in zip(models, vals)]),
                         capture_output=True, check=True, timeout=60, env=env)
    assert out.stdout.decode().split() == [str(ds.gamma_threshold(m, -m.canonical_class, v)) for m, v in zip(models, vals)]


def _blp2_like():
    """A surface model built here, not bundled: its valuations pickle with it."""
    model = ds.SurfaceModel("blp2_like", [[1, 0], [0, -1]], negative_curves=[[0, 1]],
                            canonical_class=[-3, 1], sample_curves=[[1, 0], [1, -1]])
    return model, model.curve_valuation("e", [0, 1]), model.curve_valuation("e_again", [0, 1])


def _answers(model, classes, levels):
    """Volume, each threshold and S of each class, Zariski on a surface, and
    finite_k of the first class at each level on a toric model."""
    vals = sorted(model.named_valuations.values(), key=lambda v: v.name)
    spec = ds.FiltrationSpec((vals[0], ds.TRIVIAL_VALUATION), (0.0, 0.5))
    out = [(model.volume(L), [ds.gamma_threshold(model, L, v) for v in vals], ds.expected_order_S(model, L, spec),
            model.zariski(L) if isinstance(model, ds.SurfaceModel) else None) for L in classes]
    return out + [ds.filtration_volume_finite_k(model, classes[0], spec, k) for k in levels]


@pytest.mark.parametrize("kind", ["surface", "toric"])
def test_a_model_unpickles_with_no_kept_class(kind):
    # a model that answered 10 classes (and 3 levels) keeps records of them;
    # it pickles without any, and the copy answers the same, bit for bit
    if kind == "surface":
        model = _blp2_like()[0]
        classes = [model.divisor([3 + i, -1 - i % 3]) for i in range(10)]
    else:
        model = ds.models._BUILDERS["p2_toric"]()
        classes = [model.divisor([i % 2, i % 3, 3 + i]) for i in range(10)]
    levels = () if kind == "surface" else (2, 5, 7)
    answers = _answers(model, classes, levels)
    assert model._memo[0] is not None
    copy = pickle.loads(pickle.dumps(model))
    assert copy._memo == (None, None) and {entry for entry in copy._classes} == {(None, (None, None))}
    assert repr(_answers(copy, classes, levels)) == repr(answers)


def test_a_valuation_of_a_fresh_model_pickles():
    model = ds.SurfaceModel("x", [[1]], sample_curves=[[1]], canonical_class=[-3])
    line = model.curve_valuation("line", [1])
    back = pickle.loads(pickle.dumps(line))
    copy = back.order_model.model
    assert copy.named_valuations["line"] is back
    assert ds.gamma_threshold(copy, copy.divisor([3]), back) == 3


@pytest.mark.parametrize("used", [False, True])
def test_one_rigid_curve_named_twice_merges_after_unpickling(used):
    # E named twice is one valuation: S of the pair at 3H is S of E, 2, on
    # the copy too, whether or not the model had computed before pickling
    model, e, e_again = _blp2_like()
    L = model.divisor([3, 0])
    if used:
        assert ds.expected_order_S(model, L, ds.FiltrationSpec((e, e_again), (0.0, 0.0))) == 2
    back, back_again = pickle.loads(pickle.dumps((e, e_again)))
    copy = back.order_model.model
    assert copy is back_again.order_model.model is not model
    held = copy.named_valuations["e"]
    assert held is back and hash(held) == hash(back)
    L = copy.divisor([3, 0])
    assert ds.gamma_threshold(copy, L, back) == 3
    assert ds.expected_order_S(copy, L, ds.FiltrationSpec((back, back_again), (0.0, 0.0))) == 2
    # a valuation built on the copy after unpickling is the same curve
    fresh = copy.curve_valuation("e_fresh", [0, 1])
    assert fresh.centre == back.centre
    assert ds.expected_order_S(copy, L, ds.FiltrationSpec((back, fresh), (0.0, 0.0))) == 2


def test_a_valuation_of_a_fresh_model_unpickles_in_a_fresh_process():
    code = ("import pickle, sys, divstab as ds\n"
            "e, e_again = pickle.loads(sys.stdin.buffer.read())\n"
            "m = e.order_model.model\n"
            "L = m.divisor([3, 0])\n"
            "assert hash(m.named_valuations['e']) == hash(e)\n"
            "print(ds.gamma_threshold(m, L, e), ds.expected_order_S(m, L, ds.FiltrationSpec((e, e_again), (0.0, 0.0))))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ds.__file__))}
    _, e, e_again = _blp2_like()
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps((e, e_again)),
                         capture_output=True, check=True, timeout=60, env=env)
    assert out.stdout.decode().split() == ["3", "2.0"]
