"""``scripts/build_fixtures.py`` rebuilds the bundled fixtures byte for byte."""

import importlib.util
from importlib import resources
from pathlib import Path

from causaluplift.bif import emit_bif

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_fixtures.py"


def _script():
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(name):
    return resources.files("causaluplift").joinpath("fixtures", name).read_text()


def test_script_reproduces_fixtures():
    script = _script()
    assert script.pretreatment_example().to_json() == _fixture("pretreatment_example.json")
    assert emit_bif(script.clinic20_network(), name="clinic20") == _fixture("clinic20.bif")
