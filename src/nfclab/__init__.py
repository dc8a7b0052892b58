"""Near-field large-array channel laboratory.

Synthesizes spherical-wave multipath channels for a virtual linear array
over a swept band, extracts per-element channel statistics, partitions the
array into stationary intervals, and quantifies the multiplanar-wave
approximation against the spherical ground truth.
"""

from .analysis import (ChannelStats, compute_pdp, compute_stats, los_phase,
                       received_power_db, rms_delay_spread)
from .multiplanar import (LosTruth, MultiplanarError, build_multiplanar_model,
                          los_truth, multiplanar_error)
from .scene import (ArraySpec, Blocker, Scatterer, Scene, SceneError,
                    SceneParseError, SceneValidationError, Sweep, Wall,
                    element_geometry, element_positions, load_preset,
                    load_scene, loads_scene, save_scene, serialize_scene,
                    PRESET_NAMES)
from .stationarity import (StationaryPartition, characteristic_slope, cmd_map,
                           partition_by_cmd, partition_by_slope,
                           uniform_partition)
from .synth import (ChannelFrequencyResponse, PathTable, knife_edge_loss,
                    path_blockage_db, path_table, synthesize_cfr)
from .wavefront import far_field_phase, rayleigh_distance

__version__ = "0.1.0"
