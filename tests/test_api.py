"""The public API carries no inert knobs, and the CLI keys that have no
effect (the seed and the quadrature tolerance) stay accepted and echoed."""
import inspect
import json
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
def test_cli_quadrature_and_seed_are_inert(tmp_path, config):
    path = str(resources.files("divstab") / "configs" / config)

    def report(name, *extra):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["run", path, "--out", str(out), *extra])
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())

    overridden = report("a.json", "--tolerance-override", "quadrature=1e-3", "--seed", "7")
    plain = report("b.json")
    assert overridden["tolerances"]["quadrature"] == 1e-3 and overridden["seed"] == 7
    assert [t["outputs"] for t in overridden["tasks"]] == [t["outputs"] for t in plain["tasks"]]


def test_ma_solve_has_no_grad_tol():
    assert "grad_tol" not in inspect.signature(ds.ma_solve).parameters


def test_cli_gradient_tolerance_is_inert(tmp_path):
    path = str(resources.files("divstab") / "configs" / "p2_ma.json")

    def report(name, *extra):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["run", path, "--out", str(out), *extra])
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())

    overridden = report("a.json", "--tolerance-override", "gradient=1e-2")
    plain = report("b.json")
    assert overridden["tolerances"]["gradient"] == 1e-2
    assert [t["outputs"] for t in overridden["tasks"]] == [t["outputs"] for t in plain["tasks"]]
