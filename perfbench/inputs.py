"""Input generator: writes one workload's scene file from its bundled preset.

    python perfbench/inputs.py --workload array_wide --seed 7 --out scene.scene

The seed jitters the receiver and every point scatterer by up to
``JITTER_M`` per coordinate, so a claim can be re-checked on an unseen seed
while the geometry (and so the work done) stays the same; the runner also
passes the seed to the CLI as the noise seed.  Prints one JSON line with
the scene's sha256 and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import nfclab
from nfclab import _kernels
from nfclab.scene import Scene, load_preset, loads_scene, serialize_scene

from workloads import WORKLOADS, Workload

JITTER_M = 2e-3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def make_scene(workload: Workload, seed: int) -> Scene:
    """The preset resized to the workload, with seeded millimetre jitter."""
    scene = load_preset(workload.preset)
    rng = random.Random(seed)

    def jitter(v):
        return tuple(x + rng.uniform(-JITTER_M, JITTER_M) for x in v)

    return replace(
        scene,
        array=replace(scene.array, n_elements=workload.n_elements),
        sweep=replace(scene.sweep, n_points=workload.n_points),
        rx=jitter(scene.rx),
        point_scatterers=tuple(replace(s, position=jitter(s.position))
                               for s in scene.point_scatterers))


def environment() -> dict:
    """What decides whether two results may be compared."""
    # A numpy-only build may drop the backend switch; the benchmark must not
    # need editing when it does.
    active = getattr(_kernels, "active_backend", None)
    return {
        "backend": active() if active is not None else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nfclab": str(Path(nfclab.__file__).parent),
    }


def write_scene(workload: Workload, seed: int, path: Path) -> str:
    """Write the generated scene to ``path``; return its sha256."""
    text = serialize_scene(make_scene(workload, seed))
    loads_scene(text)  # the CLI must accept what the benchmark generates
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    digest = write_scene(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps({"scene_sha256": digest, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
