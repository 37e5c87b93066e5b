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
