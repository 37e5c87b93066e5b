"""Model data that cannot be right is an error, not a number: a class of the
wrong rank, two declared negative curves that meet negatively, and a
positive part of negative square, which proves a declared curve missing."""
import json

import pytest
from click.testing import CliRunner

import divstab as ds
from divstab import models
from divstab.cli import main
from divstab.core import DivisorClass


@pytest.mark.parametrize(
    "name, coeffs",
    [("p2", [1, 5]), ("blp2", [3]), ("p2_toric", [0, 0]), ("blp2", [3, -1, 7])],
)
def test_a_class_of_the_wrong_rank_is_an_error(name, coeffs):
    model = models._BUILDERS[name]()
    ranks = rf"rank {len(coeffs)} .* rank {model.class_rank}"
    with pytest.raises(ds.BasisMismatchError, match=ranks):
        model.divisor(coeffs)
    # a class built without the model is checked where the model reads it
    D = DivisorClass.make(coeffs, model.basis_id)
    with pytest.raises(ds.BasisMismatchError, match=ranks):
        model.volume(D)
    v = next(iter(model.named_valuations.values()))
    with pytest.raises(ds.BasisMismatchError, match=ranks):
        ds.gamma_threshold(model, D, v)
    with pytest.raises(ds.BasisMismatchError, match=ranks):
        ds.expected_order_S(model, D, ds.FiltrationSpec((v,), (0.0,)))
    if isinstance(model, ds.SurfaceModel):
        with pytest.raises(ds.BasisMismatchError, match=ranks):
            model.volume_float(tuple(map(float, coeffs)))


def test_a_canonical_class_of_the_wrong_rank_is_an_error():
    with pytest.raises(ds.BasisMismatchError, match="rank 3 .* rank 2"):
        ds.SurfaceModel("blp2", [[1, 0], [0, -1]], negative_curves=[[0, 1]], canonical_class=[-3, 1, 0])


@pytest.mark.parametrize(
    "matrix, curves",
    [
        # blp2's E declared twice
        ([[1, 0], [0, -1]], [[0, 1], [0, 1]]),
        # E1 and E1 - E2 on P^2 blown up twice: E1 . (E1 - E2) = -1
        ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[0, 1, 0], [0, 1, -1]]),
    ],
)
def test_declared_curves_that_meet_negatively_are_rejected(matrix, curves):
    with pytest.raises(ds.GeometryError, match="meet negatively") as caught:
        ds.SurfaceModel("bad", matrix, negative_curves=curves)
    for C in curves:
        assert f"[{', '.join(map(str, C))}]" in str(caught.value)


def test_a_positive_part_of_negative_square_is_an_error():
    # E (E^2 = -2) is not declared: P = H + E passes the one declared curve H
    model = ds.SurfaceModel("open", [[1, 0], [0, -2]], sample_curves=[[1, 0]])
    D = model.divisor([1, 1])
    for query in (model.volume, model.zariski, model.is_big):
        with pytest.raises(ds.GeometryError, match=r"class \[1, 1\] has square -1: the declared curves are incomplete"):
            query(D)
    # declaring E gives the true volume
    complete = ds.SurfaceModel("closed", [[1, 0], [0, -2]], negative_curves=[[0, 1]], sample_curves=[[1, 0]])
    assert complete.volume(complete.divisor([1, 1])) == 1


def _run(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["run", str(cfg), "--out", str(out)])
    return result, json.loads(out.read_text())


def _surface(negative_curves, valuations=()):
    return {
        "type": "surface",
        "name": "blp2_like",
        "intersection_matrix": [[1, 0], [0, -1]],
        "negative_curves": negative_curves,
        "canonical_class": [-3, 1],
        "sample_curves": [[1, 0], [1, -1]],
        "valuations": list(valuations),
    }


def test_cli_one_rigid_curve_named_twice(tmp_path):
    model = _surface([[0, 1]], [{"name": "e", "curve": [0, 1]}, {"name": "e_again", "curve": [0, 1]}])
    task = {"kind": "S", "support": ["e", "e_again"], "shifts": [0, 0]}
    result, report = _run(tmp_path, {"model": model, "line_bundle": [3, 0], "tasks": [task]})
    assert result.exit_code == 0
    assert report["tasks"][0]["outputs"]["S"] == 2.0


def test_cli_curve_declared_twice_is_a_schema_error(tmp_path):
    model = _surface([[0, 1], [0, 1]])
    result, report = _run(tmp_path, {"model": model, "line_bundle": [3, 0], "tasks": [{"kind": "volume"}]})
    assert result.exit_code == 2
    assert report["error"]["path"] == "model"
    assert "meet negatively" in report["error"]["message"]


def test_cli_incomplete_curves_are_a_task_error(tmp_path):
    model = {"type": "surface", "name": "open", "intersection_matrix": [[1, 0], [0, -2]], "sample_curves": [[1, 0]]}
    payload = {"model": model, "line_bundle": [1, 0], "tasks": [{"kind": "volume"}, {"kind": "volume", "divisor": [1, 1]}]}
    result, report = _run(tmp_path, payload)
    assert result.exit_code == 3
    assert report["tasks"][0]["outputs"]["volume"] == "1"
    assert "the declared curves are incomplete" in report["tasks"][1]["error"]["message"]
