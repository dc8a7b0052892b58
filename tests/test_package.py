"""The package namespace: exports resolve on first use, to the objects their modules hold."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nfclab

SRC = Path(nfclab.__file__).resolve().parents[1]
PRESET = SRC / "nfclab" / "presets" / "los_lab.scene"

# dir(nfclab) after a bare `import nfclab`: each quantity's streamed entry point, the adapter
# of a held array (array_blocks) and the scene layer
DIR = [
    "ArraySpec", "Blocker", "ChannelStats", "LosGeometry", "MultiplanarError", "PRESET_NAMES",
    "PathTable", "Scatterer", "Scene", "SceneError", "SceneParseError", "SceneValidationError",
    "StationaryPartition", "Sweep", "Wall", "WindowBands",
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__", "_csvout", "_floatrepr", "_kernels",
    "analysis", "array_blocks", "build_multiplanar_model", "cfr_csv", "characteristic_slope",
    "constants", "distance_rows", "element_geometry", "element_positions", "far_field_phase",
    "knife_edge_loss", "load_preset", "load_scene", "loads_scene", "los_geometry", "multiplanar",
    "multiplanar_errors", "partition_by_cmd", "partition_by_slope", "path_table", "pdp_csv",
    "rayleigh_distance", "response_blocks", "save_scene", "scene", "serialize_scene",
    "stationarity", "streamed_los_phase", "streamed_stats", "synth", "uniform_partition",
    "wavefront",
]
SUBMODULES = ["_csvout", "_floatrepr", "_kernels", "analysis", "constants", "multiplanar",
              "scene", "stationarity", "synth", "wavefront"]
# each exported name and the module it is read from
ORIGIN = {
    "_kernels": ["knife_edge_loss"],
    "analysis": ["ChannelStats", "pdp_csv", "streamed_los_phase", "streamed_stats"],
    "multiplanar": ["LosGeometry", "MultiplanarError", "build_multiplanar_model", "los_geometry",
                    "multiplanar_errors"],
    "scene": ["ArraySpec", "Blocker", "Scatterer", "Scene", "SceneError", "SceneParseError",
              "SceneValidationError", "Sweep", "Wall", "load_preset", "load_scene", "loads_scene",
              "save_scene", "serialize_scene", "PRESET_NAMES"],
    "stationarity": ["StationaryPartition", "WindowBands", "characteristic_slope", "distance_rows",
                     "partition_by_cmd", "partition_by_slope", "uniform_partition"],
    "synth": ["PathTable", "array_blocks", "cfr_csv", "element_geometry", "element_positions",
              "path_table", "response_blocks"],
    "wavefront": ["far_field_phase", "rayleigh_distance"],
}
# the held forms the streamed entry points replaced, and the second knife-edge sum
REMOVED = ["ChannelFrequencyResponse", "LosTruth", "cmd_map", "compute_pdp", "compute_stats", "distance_map",
           "los_phase", "los_truth", "multiplanar_error", "path_blockage_db", "received_power_db",
           "rms_delay_spread", "synthesize_cfr"]


def _python(code, *args, warnings=()):
    proc = subprocess.run([sys.executable, *warnings, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc


def test_load_scene_loads_only_scene_and_constants():
    code = ("import sys, nfclab\nnfclab.load_scene(sys.argv[1])\n"
            "print(*sorted(m for m in sys.modules if m == 'nfclab' or m.startswith('nfclab.')))")
    assert _python(code, str(PRESET)).stdout.split() == ["nfclab", "nfclab.constants", "nfclab.scene"]


def test_bare_import_loads_no_submodule():
    code = "import sys, nfclab\nprint(*sorted(m for m in sys.modules if m.startswith('nfclab.')))"
    assert _python(code).stdout == "\n"


def test_dir_and_star_import_list_the_eager_names():
    code = ("import nfclab\nprint(sorted(dir(nfclab)))\nnames = {}\n"
            "exec('from nfclab import *', names)\n"
            "print(sorted(n for n in names if n != '__builtins__'))")
    listed, star = _python(code).stdout.splitlines()
    assert listed == repr(DIR)
    assert star == repr([n for n in DIR if not n.startswith("_")])


def test_every_export_is_its_module_attribute():
    code = ("import importlib, json, sys, nfclab\n"
            "for module, names in json.loads(sys.argv[1]).items():\n"
            "    source = importlib.import_module('nfclab.' + module)\n"
            "    for name in names:\n"
            "        assert getattr(nfclab, name) is getattr(source, name), name\n"
            "print(nfclab.knife_edge_loss is nfclab._kernels.knife_edge_loss)")
    assert _python(code, json.dumps(ORIGIN)).stdout == "True\n"


def test_submodules_and_version_resolve_after_a_bare_import():
    code = ("import importlib, sys, nfclab\n"
            "for name in sys.argv[1:]:\n"
            "    assert getattr(nfclab, name) is importlib.import_module('nfclab.' + name), name\n"
            "print(nfclab.__version__)")
    assert _python(code, *SUBMODULES).stdout == "0.1.0\n"


@pytest.mark.parametrize("name", ["no_such_name", "received_power", "importlib", "__wrapped__", *REMOVED])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'nfclab' has no attribute '{name}'"):
        getattr(nfclab, name)


def test_scene_layer_imports_no_numpy(tmp_path):
    code = ("import sys, nfclab\n"
            "scene = nfclab.load_scene(sys.argv[1])\n"
            "nfclab.loads_scene(nfclab.serialize_scene(scene)).validate()\n"
            "nfclab.save_scene(nfclab.load_preset('olos_baffle'), sys.argv[2])\n"
            "print('numpy' in sys.modules)")
    proc = _python(code, str(PRESET), str(tmp_path / "olos.scene"), warnings=["-W", "error"])
    assert (proc.stdout, proc.stderr) == ("False\n", "")
    assert (tmp_path / "olos.scene").read_text().startswith("[array]")


def test_bare_import_is_silent_under_w_error():
    proc = _python("import nfclab", warnings=["-W", "error"])
    assert proc.stdout == "" and proc.stderr == ""
