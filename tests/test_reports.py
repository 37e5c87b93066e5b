"""The five bundled configs reproduce their committed reports exactly.

Each report under tests/reports/ is a `divstab run` report without the
fields that change between runs or releases, `version` and each task's
`wall_time_s`.  Floats compare exactly: a change to any number shows up
here, and the change that makes it records it."""
import json
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from divstab.cli import main

REPORTS = Path(__file__).parent / "reports"
CONFIG_NAMES = sorted(p.name for p in REPORTS.glob("*.json"))


def test_every_bundled_config_has_a_report():
    configs = resources.files("divstab") / "configs"
    assert CONFIG_NAMES == sorted(p.name for p in configs.iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_bundled_report_is_unchanged(name):
    result = CliRunner().invoke(main, ["run", str(resources.files("divstab") / "configs" / name)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    del report["version"]
    for task in report["tasks"]:
        del task["wall_time_s"]
    assert report == json.loads((REPORTS / name).read_text())
