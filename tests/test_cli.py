import json
from fractions import Fraction
from importlib import resources

import pytest
from click.testing import CliRunner

import divstab
from divstab.cli import _jsonify, main
from divstab.core import DivisorialMeasure
from divstab.filtrations import FiltrationSpec
from divstab.stability import NormResult

CONFIG_NAMES = [
    "blp2_instability.json",
    "f1_volumes.json",
    "p2_delta.json",
    "p2_ma.json",
    "p2_toric_finite_k.json",
]


def config_path(name):
    return str(resources.files("divstab") / "configs" / name)


def run_cli(args):
    return CliRunner().invoke(main, args)


def run_to_report(tmp_path, args):
    out = tmp_path / "report.json"
    result = run_cli(["run", *args, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return result, payload


class TestHappyPath:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_bundled_configs_succeed(self, tmp_path, name):
        result, report = run_to_report(tmp_path, [config_path(name)])
        assert result.exit_code == 0
        assert report["version"] == divstab.__version__
        assert len(report["config_sha256"]) == 64
        assert "seed" in report and "tolerances" in report
        for task in report["tasks"]:
            assert "outputs" in task and "error" not in task
            assert task["wall_time_s"] >= 0

    def test_stdout_when_no_out_given(self):
        result = run_cli(["run", config_path("f1_volumes.json")])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["tasks"]

    def test_list_examples(self):
        result = run_cli(["--list-examples"])
        assert result.exit_code == 0
        listed = result.stdout.split()
        for name in CONFIG_NAMES:
            assert name in listed

    def test_empty_task_list_is_fine(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "p2"}, "line_bundle": [3]}))
        result, report = run_to_report(tmp_path, [str(cfg)])
        assert result.exit_code == 0
        assert report["tasks"] == []


class TestReportContents:
    def test_selected_values(self, tmp_path):
        _, report = run_to_report(tmp_path, [config_path("f1_volumes.json")])
        by_kind = {t["kind"]: t["outputs"] for t in report["tasks"]}
        assert by_kind["volume"]["volume"] == "8"
        assert by_kind["gamma"]["gamma"] == "2"
        assert by_kind["zariski"]["positive_part"]["coefficients"] == ["1", "1"]
        assert abs(by_kind["S"]["S"] - 5.0 / 6.0) < 1e-6

    def test_probe_outputs_semantics(self, tmp_path):
        _, report = run_to_report(tmp_path, [config_path("blp2_instability.json")])
        probe = next(t for t in report["tasks"] if t["kind"] == "probe")["outputs"]["probe"]
        assert probe["unstable"] is True
        assert probe["witness"] == "ord_e"
        assert "evidence" in probe["semantics"]

    def test_rationals_serialized_as_strings(self, tmp_path):
        _, report = run_to_report(tmp_path, [config_path("blp2_instability.json")])
        zar = next(t for t in report["tasks"] if t["kind"] == "zariski")["outputs"]
        assert zar["negative_part"][0]["coefficient"] == "2"
        gamma = next(t for t in report["tasks"] if t["kind"] == "gamma")["outputs"]
        assert gamma["gamma"] == "2"
        delta = next(t for t in report["tasks"] if t["kind"] == "delta")["outputs"]
        assert abs(delta["delta"] - 6.0 / 7.0) < 1e-8

    def test_determinism_modulo_wall_time(self, tmp_path):
        def scrub(report):
            for task in report["tasks"]:
                task.pop("wall_time_s", None)
            return report

        _, a = run_to_report(tmp_path, [config_path("p2_ma.json")])
        _, b = run_to_report(tmp_path, [config_path("p2_ma.json")])
        assert scrub(a) == scrub(b)


class TestOverrides:
    def test_tolerance_override_recorded(self, tmp_path):
        result, report = run_to_report(
            tmp_path,
            [config_path("f1_volumes.json"), "--tolerance-override", "quadrature=1e-10"],
        )
        assert result.exit_code == 0
        assert report["tolerances"]["quadrature"] == 1e-10

    def test_seed_override_recorded(self, tmp_path):
        result, report = run_to_report(
            tmp_path, [config_path("p2_ma.json"), "--seed", "7"]
        )
        assert result.exit_code == 0
        assert report["seed"] == 7

    def test_unknown_tolerance_rejected(self, tmp_path):
        result, _ = run_to_report(
            tmp_path, [config_path("f1_volumes.json"), "--tolerance-override", "foo=1"]
        )
        assert result.exit_code == 2

    def test_malformed_override_rejected(self, tmp_path):
        result, _ = run_to_report(
            tmp_path, [config_path("f1_volumes.json"), "--tolerance-override", "quadrature"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_override_rejected(self, tmp_path, value):
        result, _ = run_to_report(
            tmp_path,
            [config_path("f1_volumes.json"), "--tolerance-override", f"quadrature={value}"],
        )
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "--tolerance-override quadrature"


class TestSchemaErrors:
    def write(self, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        return str(cfg)

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = run_cli(["run", str(cfg)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "$"

    def test_zero_denominator_rational(self, tmp_path):
        cfg = self.write(tmp_path, {"model": {"name": "p2"}, "line_bundle": ["3/0"]})
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "line_bundle[0]"

    def test_unknown_task_kind_has_field_path(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [3],
                "tasks": [{"kind": "volume"}, {"kind": "volume"}, {"kind": "nope"}],
            },
        )
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "tasks[2].kind"

    def test_unknown_bundled_model(self, tmp_path):
        cfg = self.write(tmp_path, {"model": {"name": "p7"}, "line_bundle": [1]})
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "model.name"

    def test_unknown_valuation_named_in_path(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [3],
                "tasks": [{"kind": "gamma", "valuation": "mystery"}],
            },
        )
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "tasks[0].valuation"

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    @pytest.mark.parametrize(
        "task, path",
        [
            ({"kind": "S", "support": ["line"], "shifts": ["@"]}, "tasks[0].shifts[0]"),
            (
                {"kind": "probe", "epsilon": "@",
                 "measures": [{"atoms": [{"valuation": "line", "mass": 1}]}]},
                "tasks[0].epsilon",
            ),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, literal, task, path):
        # json.loads reads NaN and Infinity; a 400-digit integer overflows a float
        payload = {"model": {"name": "p2"}, "line_bundle": [3], "tasks": [task]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload).replace('"@"', literal))
        result = run_cli(["run", str(cfg)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == path

    def test_non_finite_tolerance_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"model": {"name": "p2"}, "line_bundle": [3], "tolerances": {"quadrature": NaN}}'
        )
        result = run_cli(["run", str(cfg)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "tolerances.quadrature"

    def test_wrong_rank_line_bundle(self, tmp_path):
        cfg = self.write(tmp_path, {"model": {"name": "blp2"}, "line_bundle": [3]})
        result = run_cli(["run", cfg])
        assert result.exit_code == 2

    def test_inline_surface_model_accepted(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {
                    "type": "surface",
                    "name": "plane",
                    "intersection_matrix": [[1]],
                    "canonical_class": [-3],
                    "sample_curves": [[1]],
                    "valuations": [{"name": "line", "curve": [1]}],
                },
                "line_bundle": [3],
                "tasks": [{"kind": "S", "support": ["line"]}],
            },
        )
        result, report = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 0
        assert abs(report["tasks"][0]["outputs"]["S"] - 1.0) < 1e-8


PLANE = {
    "type": "surface",
    "name": "plane",
    "intersection_matrix": [[1]],
    "canonical_class": [-3],
    "sample_curves": [[1]],
    "valuations": [{"name": "line", "curve": [1]}],
}
ATOMS = [{"valuation": "line", "mass": 1}]


class TestUnknownFields:
    def run(self, tmp_path, model, tasks):
        line_bundle = [0, 0, 3] if model.get("type") == "toric" else [3]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "line_bundle": line_bundle, "tasks": tasks}))
        result = run_cli(["run", str(cfg)])
        assert result.exit_code == 2
        return json.loads(result.stderr)["error"]

    @pytest.mark.parametrize(
        "model, task, path, key",
        [
            ({"name": "p2"}, {"kind": "S", "support": ["line"], "shift": [1]}, "tasks[0]", "shift"),
            # a field of another task kind
            ({"name": "p2"}, {"kind": "gamma", "valuation": "line", "k": 3}, "tasks[0]", "k"),
            ({"name": "p2"}, {"kind": "norm", "measure": {"atoms": ATOMS, "mass": 1}}, "tasks[0].measure", "mass"),
            (
                {"name": "p2"},
                {"kind": "beta", "measure": {"atoms": [{"valuation": "line", "mass": 1, "weight": 2}]}},
                "tasks[0].measure.atoms[0]",
                "weight",
            ),
            (
                {"name": "p2"},
                {"kind": "probe", "measures": [{"atoms": ATOMS}, {"atoms": ATOMS, "epsilon": 0}]},
                "tasks[0].measures[1]",
                "epsilon",
            ),
            ({**PLANE, "valuation": []}, {"kind": "volume"}, "model", "valuation"),
            (
                {**PLANE, "valuations": [{"name": "line", "curve": [1], "discrepancy": 2}]},
                {"kind": "volume"},
                "model.valuations[0]",
                "discrepancy",
            ),
            (
                {"type": "toric", "name": "t", "rays": [[1, 0], [0, 1], [-1, -1]],
                 "valuations": [{"name": "e1", "vector": [1, 0], "log_discrepancy": 2}]},
                {"kind": "volume"},
                "model.valuations[0]",
                "log_discrepancy",
            ),
        ],
        ids=["task", "other-kind", "measure", "atom", "probe-measure", "model", "surface-valuation",
             "toric-valuation"],
    )
    def test_unknown_field_named_with_its_path(self, tmp_path, model, task, path, key):
        error = self.run(tmp_path, model, [task])
        assert error["path"] == path
        assert repr(key) in error["message"]

    @pytest.mark.parametrize("field", ["negative_curves", "sample_curves", "valuations"])
    def test_model_list_must_be_an_array(self, tmp_path, field):
        error = self.run(tmp_path, {**PLANE, field: 5}, [{"kind": "volume"}])
        assert error["path"] == f"model.{field}"

    def test_toric_valuations_must_be_an_array(self, tmp_path):
        model = {"type": "toric", "name": "t", "rays": [[1, 0], [0, 1], [-1, -1]], "valuations": 5}
        error = self.run(tmp_path, model, [{"kind": "volume"}])
        assert error["path"] == "model.valuations"


class TestRuntimeErrors:
    def write(self, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        return str(cfg)

    def test_geometry_error_exits_3(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [-1],
                "tasks": [{"kind": "gamma", "valuation": "line"}],
            },
        )
        result, report = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 3
        assert report["tasks"][0]["error"]["type"] == "GeometryError"

    def test_unbounded_threshold_exits_3(self, tmp_path):
        # no declared curve bounds 3H + g H, so the chamber walk names the valuation
        cfg = self.write(
            tmp_path,
            {
                "model": {
                    "type": "surface",
                    "name": "open",
                    "intersection_matrix": [[1]],
                    "valuations": [{"name": "minus_h", "curve": [-1]}],
                },
                "line_bundle": [3],
                "tasks": [{"kind": "gamma", "valuation": "minus_h"}],
            },
        )
        result, report = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 3
        assert report["tasks"][0]["error"]["type"] == "GeometryError"
        assert "'minus_h'" in report["tasks"][0]["error"]["message"]

    def test_zariski_on_toric_model_exits_3(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2_toric"},
                "line_bundle": [0, 0, 3],
                "tasks": [{"kind": "zariski"}],
            },
        )
        result, _ = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 3

    def test_tasks_before_failure_are_reported(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [3],
                "tasks": [{"kind": "volume"}, {"kind": "volume", "divisor": [-1]}],
            },
        )
        # volume is a total function, so [-1] succeeds with 0; use zariski to fail
        result, report = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 0
        cfg2 = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [3],
                "tasks": [{"kind": "volume"}, {"kind": "zariski", "divisor": [-1]}],
            },
        )
        result, report = run_to_report(tmp_path, [cfg2])
        assert result.exit_code == 3
        assert report["tasks"][0]["outputs"]["volume"] == "9"
        assert report["tasks"][1]["error"]["type"] == "NotPseudoeffectiveError"


class TestJsonify:
    """Report serialization, one value per handled type: the JSON text is
    fixed, so reports stay byte-identical."""

    @staticmethod
    def values():
        p2 = divstab.bundled_model("p2")
        line, conic = p2.named_valuations["line"], p2.named_valuations["conic"]
        return [
            (Fraction(4, 2), "2"),
            (Fraction(-3, 7), "-3/7"),
            (p2.divisor([Fraction(5, 2)]), {"basis": "p2", "coefficients": ["5/2"]}),
            (line, "line"),
            (
                DivisorialMeasure.make([(line, Fraction(1, 3)), (conic, Fraction(2, 3))]),
                {"atoms": [{"valuation": "line", "mass": "1/3"}, {"valuation": "conic", "mass": "2/3"}]},
            ),
            (FiltrationSpec((line, conic), (0.5, 1)), {"support": ["line", "conic"], "shifts": [0.5, 1.0]}),
            (
                NormResult(value=0.25, maximizers=((0.0, 1.5),), box_bound=4.0, gap=1e-12, converged=True),
                {"value": 0.25, "maximizers": [[0.0, 1.5]], "box_bound": 4.0, "gap": 1e-12, "converged": True},
            ),
            ((1, (Fraction(1, 2), [2.5, None]), "x"), [1, ["1/2", [2.5, None]], "x"]),
            (None, None),
            (True, True),
        ]

    def test_each_type(self):
        for value, expected in self.values():
            assert json.dumps(_jsonify(value), sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestMalformedToricInput:
    RAYS = [[1, 0], [0, 1], [-1, -1]]

    def run(self, tmp_path, rays, vector, tasks=()):
        model = {"type": "toric", "name": "p2", "rays": rays,
                 "valuations": [{"name": "e1", "vector": [1, 0]}, {"name": "bad", "vector": vector}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "line_bundle": [0, 0, 3], "tasks": list(tasks)}))
        result = run_cli(["run", str(cfg)])
        return result.exit_code, json.loads(result.stderr)["error"]["path"] if result.exit_code else None

    @pytest.mark.parametrize("vector", [[1, 0, 0], [1], [0, 0], [True, False], [1, "0"]])
    def test_bad_valuation_vector_named(self, tmp_path, vector):
        tasks = [{"kind": "gamma", "valuation": "bad"}]
        assert self.run(tmp_path, self.RAYS, vector, tasks) == (2, "model.valuations[1].vector")

    def test_boolean_ray_named(self, tmp_path):
        rays = [[True, False], [0, 1], [-1, -1]]
        assert self.run(tmp_path, rays, [1, 1]) == (2, "model.rays[0]")

    @pytest.mark.parametrize("k", [True, 2.0, 0])
    def test_bad_level_named(self, tmp_path, k):
        tasks = [{"kind": "volume"}, {"kind": "finite_k", "support": ["e1"], "shifts": [0], "k": k}]
        assert self.run(tmp_path, self.RAYS, [1, 1], tasks) == (2, "tasks[1].k")

    def test_good_config_runs(self, tmp_path):
        tasks = [{"kind": "finite_k", "support": ["e1", "bad"], "shifts": [0, 0], "k": 2}]
        assert self.run(tmp_path, self.RAYS, [1, 1], tasks) == (0, None)
