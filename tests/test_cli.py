import dataclasses
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

import divstab
from divstab.cli import ConfigError, _jsonify, main, parse_config, run_task
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.filtrations import FiltrationSpec, filtration_volume_finite_k
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


class TestWarmReruns:
    def test_warm_reruns_reproduce_the_committed_reports(self):
        # a bundled model keeps its last classes, and each class its last
        # supports and levels, from run to run in one process: in order,
        # reversed and in order again, with another class and another level
        # asked between runs, each report is the committed one
        reports = Path(__file__).parent / "reports"
        for name in CONFIG_NAMES + CONFIG_NAMES[::-1] + CONFIG_NAMES:
            result = run_cli(["run", config_path(name)])
            assert result.exit_code == 0, result.output
            report = json.loads(result.stdout)
            del report["version"]
            for task in report["tasks"]:
                del task["wall_time_s"]
            assert report == json.loads((reports / name).read_text()), name
            config = json.loads((resources.files("divstab") / "configs" / name).read_text())
            model = divstab.bundled_model(config["model"]["name"])
            L = model.divisor(config["line_bundle"])
            other = L - model.canonical_class
            assert model.volume(other) > model.volume(L) > 0
            if isinstance(model, divstab.SurfaceModel):
                assert model.zariski(other).positive_part == other
            else:
                spec = FiltrationSpec((model.named_valuations["e1"],), (0.0,))
                assert filtration_volume_finite_k(model, L, spec, 7).k == 7


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
            [config_path("f1_volumes.json"), "--tolerance-override", "optimizer=1e-10"],
        )
        assert result.exit_code == 0
        assert report["tolerances"] == {"optimizer": 1e-10}

    def test_seed_override_recorded(self, tmp_path):
        result, report = run_to_report(
            tmp_path, [config_path("p2_ma.json"), "--seed", "7"]
        )
        assert result.exit_code == 0
        assert report["seed"] == 7

    def test_unknown_tolerance_rejected(self, tmp_path):
        # the key is checked before the value
        for value in ("1e-10", "nan"):
            result, _ = run_to_report(
                tmp_path,
                [config_path("f1_volumes.json"), "--tolerance-override", f"quadrature={value}"],
            )
            assert result.exit_code == 2
            assert json.loads(result.stderr)["error"] == {
                "type": "schema",
                "path": "--tolerance-override quadrature",
                "message": "unknown tolerance 'quadrature'; known: ['optimizer']",
            }

    def test_malformed_override_rejected(self, tmp_path):
        result, _ = run_to_report(
            tmp_path, [config_path("f1_volumes.json"), "--tolerance-override", "optimizer"]
        )
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["path"] == "--tolerance-override"
        assert error["message"] == "expected key=value, got 'optimizer'"

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_override_rejected(self, tmp_path, value):
        result, _ = run_to_report(
            tmp_path,
            [config_path("f1_volumes.json"), "--tolerance-override", f"optimizer={value}"],
        )
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == "--tolerance-override optimizer"


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
        # and the JSON values that are no rational: a boolean, a float, null
        for entry in ["3/0", True, 1.5, None]:
            cfg = self.write(tmp_path, {"model": {"name": "p2"}, "line_bundle": [entry]})
            result = run_cli(["run", cfg])
            assert result.exit_code == 2
            assert json.loads(result.stderr)["error"]["path"] == "line_bundle[0]"

    def test_unknown_task_kind_has_field_path(self, tmp_path):
        # a kind that is not a string is unknown too, not a TypeError
        for kind in ["nope", [], {"a": 1}, True, None]:
            cfg = self.write(
                tmp_path,
                {
                    "model": {"name": "p2"},
                    "line_bundle": [3],
                    "tasks": [{"kind": "volume"}, {"kind": "volume"}, {"kind": kind}],
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
            '{"model": {"name": "p2"}, "line_bundle": [3], "tolerances": {"optimizer": NaN}}'
        )
        result = run_cli(["run", str(cfg)])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["path"] == "tolerances.optimizer"
        assert error["message"].startswith("expected a finite float")

    @pytest.mark.parametrize("key", ["quadrature", "gradient"])
    def test_unknown_tolerance_names_the_known_ones(self, tmp_path, key):
        cfg = self.write(tmp_path, {"model": {"name": "p2"}, "line_bundle": [3],
                                    "tolerances": {key: 1e-6}})
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == {
            "type": "schema",
            "path": f"tolerances.{key}",
            "message": f"unknown tolerance {key!r}; known: ['optimizer']",
        }

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

    @pytest.mark.parametrize(
        "task, path",
        [
            # masses 1/2 + 1/3 do not sum to 1
            ({"kind": "norm", "measure": {"atoms": [{"valuation": "line", "mass": "1/2"},
                                                    {"valuation": "conic", "mass": "1/3"}]}},
             "tasks[0].measure"),
            ({"kind": "S", "support": ["line", "line"], "shifts": [0, 0]}, "tasks[0]"),
            ({"kind": "S", "support": ["line"], "shifts": [True]}, "tasks[0].shifts[0]"),
        ],
        ids=["masses", "repeated-support", "boolean-shift"],
    )
    def test_ill_posed_task_named_at_its_path(self, tmp_path, task, path):
        cfg = self.write(tmp_path, {"model": {"name": "p2"}, "line_bundle": [3], "tasks": [task]})
        result = run_cli(["run", cfg])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["path"] == path


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

    def test_finite_k_on_a_surface_exits_3(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {
                "model": {"name": "p2"},
                "line_bundle": [3],
                "tasks": [{"kind": "finite_k", "support": ["line"], "shifts": [0], "k": 2}],
            },
        )
        result, report = run_to_report(tmp_path, [cfg])
        assert result.exit_code == 3
        assert report["tasks"][0]["error"] == {
            "type": "GeometryError",
            "message": "finite-level jumping numbers need a toric model",
        }

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

    def test_float_overflow_exits_3(self, tmp_path):
        # a class of 10^200 overflows the float stages of the gamma walk: a
        # task error of type OverflowError after the tasks before it, no traceback
        payload = json.loads(Path(config_path("blp2_instability.json")).read_text())
        payload["line_bundle"] = ["3" + "0" * 200, "-1" + "0" * 200]
        result, report = run_to_report(tmp_path, [self.write(tmp_path, payload)])
        assert result.exit_code == 3
        assert [t["kind"] for t in report["tasks"]] == ["volume", "zariski", "gamma"]
        error = report["tasks"][-1]["error"]
        assert error["type"] == "OverflowError" and "too large for a float" in error["message"]

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

    def test_repeated_ray_named(self, tmp_path):
        assert self.run(tmp_path, [[1, 0], [1, 0], [0, 1], [-1, -1]], [1, 1]) == (2, "model")

    @pytest.mark.parametrize("k", [True, 2.0, 0])
    def test_bad_level_named(self, tmp_path, k):
        tasks = [{"kind": "volume"}, {"kind": "finite_k", "support": ["e1"], "shifts": [0], "k": k}]
        assert self.run(tmp_path, self.RAYS, [1, 1], tasks) == (2, "tasks[1].k")

    def test_good_config_runs(self, tmp_path):
        tasks = [{"kind": "finite_k", "support": ["e1", "bad"], "shifts": [0, 0], "k": 2}]
        assert self.run(tmp_path, self.RAYS, [1, 1], tasks) == (0, None)


class TestNonPositiveTolerances:
    """A tolerance is a positive finite number: zero or a negative value in
    the config or in an override is a schema error at its path.  `optimizer`
    is the one tolerance; any other key, such as `gradient` or `quadrature`,
    is rejected as unknown whatever its value."""

    TASK = {"kind": "norm", "measure": {"atoms": [{"valuation": "trivial", "mass": "1/2"},
                                                  {"valuation": "line", "mass": "1/2"}]}}

    def write(self, tmp_path, tolerances):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"name": "p2"}, "line_bundle": ["3"],
                                   "tolerances": tolerances, "tasks": [self.TASK]}))
        return str(cfg)

    @staticmethod
    def rejected(result, path, key):
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["path"] == path
        reason = "expected a positive tolerance" if key == "optimizer" else f"unknown tolerance {key!r}"
        assert error["message"].startswith(reason)

    @pytest.mark.parametrize("key", ["optimizer", "gradient", "quadrature"])
    @pytest.mark.parametrize("value", [-1, 0, 0.0, "-1/2", -1e-300])
    def test_config_tolerance_rejected(self, tmp_path, key, value):
        result = run_cli(["run", self.write(tmp_path, {key: value})])
        self.rejected(result, f"tolerances.{key}", key)

    @pytest.mark.parametrize("key", ["optimizer", "gradient", "quadrature"])
    @pytest.mark.parametrize("value", ["-1", "0", "-0.0", "-1/2"])
    def test_override_rejected(self, tmp_path, key, value):
        cfg = self.write(tmp_path, {})
        result = run_cli(["run", cfg, "--tolerance-override", f"{key}={value}"])
        self.rejected(result, f"--tolerance-override {key}", key)

    def test_parse_config_checks_overrides_too(self):
        payload = {"model": {"name": "p2"}, "line_bundle": ["3"]}
        with pytest.raises(ConfigError) as info:
            parse_config(payload, {"optimizer": 0.0})
        assert info.value.path == "--tolerance-override optimizer"
        assert info.value.message == "expected a positive tolerance, got 0.0"

    def test_positive_tolerances_run(self, tmp_path):
        result, report = run_to_report(tmp_path, [self.write(tmp_path, {"optimizer": "1/1000000"})])
        assert result.exit_code == 0
        assert report["tolerances"]["optimizer"] == 1e-6
        assert report["tasks"][0]["outputs"]["norm"]["converged"]


class TestFiniteKTask:
    """The CLI finite_k task reads the sorted level array; its outputs are
    those of the library profile, bit for bit."""

    @pytest.mark.parametrize("k, dim", [(1, 10), (2, 28), (3, 55), (4, 91)])
    def test_task_equals_the_profile(self, k, dim):
        model = divstab.bundled_model("p2_toric")
        L = model.divisor([0, 0, 3])
        e1, e2, diag = (model.named_valuations[n] for n in ("e1", "e2", "diag"))
        specs = [
            FiltrationSpec((e1,), (0.5,)),
            FiltrationSpec((diag,), (-0.25,)),
            FiltrationSpec((e1, e2), (0.25, 1 / 3)),
            FiltrationSpec((diag, TRIVIAL_VALUATION), (0.75, 1.5)),
        ]
        for spec in specs:
            out = run_task(model, L, {"kind": "finite_k", "spec": spec, "k": k}, {"optimizer": 1e-8}, 0)
            prof = filtration_volume_finite_k(model, L, spec, k)
            assert out["k"] == prof.k == k and type(out["k"]) is int
            assert out["dim"] == len(prof.jumping_values) == dim and type(out["dim"]) is int
            assert out["volume"].hex() == prof.volume.hex()
            assert out["normalized_volume"].hex() == (prof.volume / k).hex()
            if dim <= 64:
                assert type(out["jumping_values"]) is list
                assert [x.hex() for x in out["jumping_values"]] == [x.hex() for x in prof.jumping_values]
                assert all(type(x) is float for x in out["jumping_values"])
            else:
                assert out["jumping_values"] is None


class _Rational(Fraction):
    pass


@dataclasses.dataclass(frozen=True)
class _NotedNorm(NormResult):
    note: str = "extra"


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Unknown:
    pass


class TestJsonifySubclasses:
    """Subclasses of the handled types serialize as their bases do, by the
    converter learned from their MRO; a dataclass subclass with its own
    fields; an object of no known type as itself."""

    def test_subclasses(self):
        p2 = divstab.bundled_model("p2")
        line = p2.named_valuations["line"]
        norm = dict(value=0.25, maximizers=((0.0, 1.5),), box_bound=4.0, gap=1e-12, converged=True)
        cases = [
            (_Rational(6, 4), "3/2"),
            (_Rational(-5), "-5"),
            ([_Rational(1, 3), {"x": (_Rational(2),)}], ["1/3", {"x": ["2"]}]),
            (
                _NotedNorm(**norm),
                {"value": 0.25, "maximizers": [[0.0, 1.5]], "box_bound": 4.0, "gap": 1e-12,
                 "converged": True, "note": "extra"},
            ),
            (
                _NotedNorm(**{**norm, "value": _Rational(1, 4)}, note="again"),
                {"value": "1/4", "maximizers": [[0.0, 1.5]], "box_bound": 4.0, "gap": 1e-12,
                 "converged": True, "note": "again"},
            ),
            (NormResult(**norm), {key: _jsonify(value) for key, value in norm.items()}),
            (FiltrationSpec((line,), (_Rational(1, 2),)), {"support": ["line"], "shifts": [0.5]}),
            (_Dict(a=_Rational(1, 2), b=_List([_Rational(3)])), {"a": "1/2", "b": ["3"]}),
            (_List([(_Rational(2, 3),), None]), [["2/3"], None]),
            (_Tuple((_Rational(5, 2), _Dict(c=1))), ["5/2", {"c": 1}]),
        ]
        for value, expected in cases:
            assert json.dumps(_jsonify(value), sort_keys=True) == json.dumps(expected, sort_keys=True)
        unknown = _Unknown()
        assert _jsonify(unknown) is unknown
