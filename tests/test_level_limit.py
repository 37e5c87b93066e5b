"""A finite level k whose lattice scan would exceed `MAX_LEVEL_POINTS` rows
is rejected with a GeometryError before numpy allocates it."""
import json

import pytest
from click.testing import CliRunner

import divstab as ds
from divstab.cli import main
from divstab.toric import MAX_LEVEL_POINTS

P2T = ds.bundled_model("p2_toric")
E1 = P2T.named_valuations["e1"]
L3H = P2T.divisor([0, 0, 3])
SPEC = ds.FiltrationSpec((E1,), (0.0,))


@pytest.mark.parametrize("k", [2**70, 500])
def test_library_rejects_a_level_past_the_limit(k):
    # 2**70 overflows the box prefixes; 500 has 1,501 prefixes but 1,127,251
    # points, few enough to allocate if the limit were not checked
    with pytest.raises(ds.GeometryError, match=f"level k = {k} "):
        ds.filtration_volume_finite_k(P2T, L3H, SPEC, k)


def test_levels_within_the_limit_still_run():
    # (3k + 1)(3k + 2) / 2 points: k = 400 has 721,801, under the limit
    assert MAX_LEVEL_POINTS == 10**6
    assert len(P2T.lattice_points(L3H, 400)) == 721801


def test_cli_reports_the_level_as_a_task_error(tmp_path):
    config = tmp_path / "huge_k.json"
    config.write_text(json.dumps({
        "model": {"name": "p2_toric"},
        "line_bundle": [0, 0, 3],
        "tasks": [{"kind": "finite_k", "support": ["e1"], "shifts": [0], "k": 2**70}],
    }))
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["run", str(config), "--out", str(out)])
    # a task error exits 3 through sys.exit; a traceback would be another exception
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    (task,) = json.loads(out.read_text())["tasks"]
    assert task["error"]["type"] == "GeometryError"
    assert f"level k = {2**70} " in task["error"]["message"]


# p2_toric with L = H1 - H3: P_L is the point (-1, 0), so k P_L is one point
# whatever k, and only its coordinates grow
POINT = P2T.divisor([1, 0, -1])


@pytest.mark.parametrize("k", [2**63, 2**70])
def test_library_rejects_a_level_past_int64(k):
    with pytest.raises(ds.GeometryError, match=f"level k = {k} "):
        ds.filtration_volume_finite_k(P2T, POINT, SPEC, k)


def test_a_huge_level_within_int64_still_runs():
    k = 2**62
    assert P2T.lattice_points(POINT, k).tolist() == [[-k, 0]]
    assert ds.filtration_volume_finite_k(P2T, POINT, SPEC, k).volume == 0.0


def test_cli_reports_a_level_past_int64_as_a_task_error(tmp_path):
    config = tmp_path / "point_k.json"
    config.write_text(json.dumps({
        "model": {"name": "p2_toric"},
        "line_bundle": [1, 0, -1],
        "tasks": [{"kind": "finite_k", "support": ["e1"], "shifts": [0], "k": 2**63}],
    }))
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["run", str(config), "--out", str(out)])
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    (task,) = json.loads(out.read_text())["tasks"]
    assert task["error"]["type"] == "GeometryError"
    assert f"level k = {2**63} " in task["error"]["message"]


# p1xp1_toric with L = (0, 1, 0, 2**62 - 1) at k = 1: two prefixes of about
# 2**62 points each, whose int64 sum wraps negative
P1P1T = ds.bundled_model("p1xp1_toric")
TALL = [0, 1, 0, 2**62 - 1]


def test_library_rejects_a_point_count_past_int64():
    spec = ds.FiltrationSpec((P1P1T.named_valuations["e1"],), (0.0,))
    with pytest.raises(ds.GeometryError, match="level k = 1 "):
        ds.filtration_volume_finite_k(P1P1T, P1P1T.divisor(TALL), spec, 1)


def test_cli_reports_a_point_count_past_int64_as_a_task_error(tmp_path):
    config = tmp_path / "tall.json"
    config.write_text(json.dumps({
        "model": {"name": "p1xp1_toric"},
        "line_bundle": TALL,
        "tasks": [{"kind": "finite_k", "support": ["e1"], "shifts": [0], "k": 1}],
    }))
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["run", str(config), "--out", str(out)])
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    (task,) = json.loads(out.read_text())["tasks"]
    assert task["error"]["type"] == "GeometryError"
    assert "level k = 1 " in task["error"]["message"]


def test_kept_levels_hold_at_most_the_limit_in_all(monkeypatch):
    # each class keeps its last 4 levels, and the levels a model keeps over
    # its classes hold at most MAX_LEVEL_POINTS points in all, the newest
    # always among them; a level pushed out is read again, equal
    monkeypatch.setattr(ds.toric, "MAX_LEVEL_POINTS", 300)
    model = ds.models._BUILDERS["p2_toric"]()
    classes = [model.divisor([0, 0, d]) for d in (1, 2, 3)]
    first = model.lattice_points(classes[0], 7)
    for k in range(1, 7):
        for L in classes:
            points = model.lattice_points(L, k)
            kept = [level for _, (_, memo) in model._classes if memo and "points" in memo for level in memo["points"]]
            assert model._memo[1]["points"][0][1][0] is points
            assert sum(len(level[1][0]) for level in kept) <= 300
    assert len(kept) < 4 * len(classes)
    again = model.lattice_points(classes[0], 7)
    assert again is not first and again.tolist() == first.tolist()
