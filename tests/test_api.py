"""The public API carries no inert knobs.  The CLI's one key without effect,
the seed, stays accepted and echoed; the CLI has no inert tolerance."""
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
