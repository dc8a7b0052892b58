"""Near-field large-array channel laboratory.

Synthesizes spherical-wave multipath channels for a virtual linear array
over a swept band, extracts per-element channel statistics, partitions the
array into stationary intervals, and quantifies the multiplanar-wave
approximation against the spherical ground truth.

The package resolves its exports on first use (PEP 562): ``import nfclab``
loads no submodule, and ``nfclab.load_scene`` loads only ``nfclab.scene``
and the ``nfclab.constants`` it imports.
"""

import importlib as _importlib

__version__ = "0.1.0"

# each exported name, by the module it is read from
_EXPORTS = {
    "analysis": ("ChannelStats", "compute_pdp", "compute_stats", "los_phase",
                 "received_power_db", "rms_delay_spread"),
    "multiplanar": ("LosTruth", "MultiplanarError", "build_multiplanar_model",
                    "los_truth", "multiplanar_error"),
    "scene": ("ArraySpec", "Blocker", "Scatterer", "Scene", "SceneError",
              "SceneParseError", "SceneValidationError", "Sweep", "Wall",
              "load_preset", "load_scene", "loads_scene", "save_scene",
              "serialize_scene", "PRESET_NAMES"),
    "stationarity": ("StationaryPartition", "characteristic_slope", "cmd_map",
                     "partition_by_cmd", "partition_by_slope",
                     "uniform_partition"),
    "synth": ("ChannelFrequencyResponse", "PathTable", "element_geometry",
              "element_positions", "knife_edge_loss", "path_blockage_db",
              "path_table", "synthesize_cfr"),
    "wavefront": ("far_field_phase", "rayleigh_distance"),
}
# the modules an eager import bound as attributes
_SUBMODULES = ("_csvout", "_floatrepr", "_kernels", "analysis", "constants",
               "multiplanar", "scene", "stationarity", "synth", "wavefront")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update((module, module) for module in _SUBMODULES)

__all__ = sorted(name for name in _ORIGIN if not name.startswith("_"))
# names the eager package's dir() did not list
_HELPERS = {"_importlib", "_EXPORTS", "_SUBMODULES", "_ORIGIN", "_HELPERS",
            "__all__", "__getattr__", "__dir__"}


def __getattr__(name):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted((globals().keys() | _ORIGIN.keys()) - _HELPERS)
