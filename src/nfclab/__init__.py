"""Near-field large-array channel laboratory.

Synthesizes spherical-wave multipath channels for a virtual linear array
over a swept band, extracts per-element channel statistics, partitions the
array into stationary intervals, and quantifies the multiplanar-wave
approximation against the spherical ground truth.

Each quantity has one entry point, which takes the response as ``(start,
stop, rows)`` row blocks: ``response_blocks`` makes them from a scene's path
table, and ``array_blocks`` from a held (say, measured) ``(N, F)`` array, so
``streamed_stats(array_blocks(values), scene, table)`` analyses one.

The package resolves its exports on first use (PEP 562): ``import nfclab``
loads no submodule, and ``nfclab.load_scene`` loads only ``nfclab.scene``
and the ``nfclab.constants`` it imports.  Each export is the object its
module holds, and ``dir(nfclab)`` and ``from nfclab import *`` list what an
eager import would.
"""

import importlib as _importlib

__version__ = "0.1.0"

# each exported name, by the module it is read from
_EXPORTS = {
    "_kernels": ("knife_edge_loss",),
    "analysis": ("ChannelStats", "pdp_csv", "streamed_los_phase", "streamed_stats"),
    "multiplanar": ("LosGeometry", "MultiplanarError", "build_multiplanar_model", "los_geometry",
                    "multiplanar_errors"),
    "scene": ("ArraySpec", "Blocker", "Scatterer", "Scene", "SceneError",
              "SceneParseError", "SceneValidationError", "Sweep", "Wall",
              "load_preset", "load_scene", "loads_scene", "save_scene",
              "serialize_scene", "PRESET_NAMES"),
    "stationarity": ("StationaryPartition", "WindowBands", "characteristic_slope", "distance_rows",
                     "partition_by_cmd", "partition_by_slope", "uniform_partition"),
    "synth": ("PathTable", "array_blocks", "cfr_csv", "element_geometry", "element_positions",
              "path_table", "response_blocks"),
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
