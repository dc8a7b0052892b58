"""Host speed sampling: scales measured times to one reference host speed.

On a shared host the same CLI invocation can take twice as long from one
minute to the next: other tenants slow the vCPU down without descheduling
it, so CPU time and wall time grow together.  While the runner measures, a
helper process (``Sampler``) pinned to the same CPU times ``probe()`` every
``SAMPLE_EVERY_S`` seconds.  It counts CPU time, so the time the timed child
preempts the helper does not count.  The runner scales each child's wall
time by ``REFERENCE_S`` over the mean probe time during that child: the
result is the wall time the child would have taken at the host speed where
``probe()`` takes ``REFERENCE_S``.  Sampled during the child, the probe
follows slowdowns that last only part of an invocation, which probes run
between invocations miss.  This module imports nothing from ``nfclab``, so
a change to the program never changes the probe.

The probe is half an interpreter loop and half small-array numpy calls, the
two kinds of work the pipeline's Python-level loops do.  Over 16 windows of
far_check invocations the mix tracked the drift better than the loop alone
(see README.md).  The helper takes about 2.5 % of the CPU from the child it shares it
with, on every commit alike.  Only the helper loads numpy: a child inherits
the peak RSS of the process that starts it as its starting ``ru_maxrss``,
so the runner must stay smaller than the program it measures.
"""

from __future__ import annotations

import functools
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLE_EVERY_S = 0.2
# CPU seconds of probe() at the reference host speed (about its median on a
# 2-vCPU Intel Xeon VM at 2.0 GHz).
REFERENCE_S = 0.005
# A child shorter than the sampling period gets its speed from the samples
# nearest to it.
MIN_SAMPLES = 3


@functools.cache
def _small_array():
    import numpy as np  # only the helper process loads numpy (see Sampler)

    return np, np.random.default_rng(0).standard_normal((8, 64))


def probe() -> float:
    """CPU seconds this process spends on fixed interpreter and numpy work."""
    np, small = _small_array()
    start = time.process_time()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for _ in range(500):
        np.sqrt(np.abs(small)) * 2.0 + small
    return time.process_time() - start


class Sampler:
    """A helper process that samples ``probe()`` until the ``with`` block ends.

    It inherits the runner's CPU affinity.  Each sample is a
    ``(time.monotonic() at its end, CPU seconds)`` pair; ``samples`` is
    filled when the helper has ended.
    """

    def __init__(self, env: dict[str, str], log: Path):
        self._log = log
        self._proc = subprocess.Popen([sys.executable, __file__, str(log)], env=env,
                                      stdin=subprocess.PIPE)
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()  # the helper ends when its stdin closes
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.returncode != 0 and exc[0] is None:
            raise RuntimeError(f"host speed sampler exited with code {self._proc.returncode}")
        with open(self._log, encoding="utf-8") as fh:
            self.samples = [(float(t), float(d)) for t, d in map(str.split, fh)]

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` / mean probe time over a ``time.monotonic()`` interval.

        Uses the samples taken inside the interval, or the ``MIN_SAMPLES``
        nearest to it when fewer fall inside.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("host speed sampler recorded no samples")
        return REFERENCE_S / statistics.fmean(inside)


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        while not select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
            took = probe()
            out.write(f"{time.monotonic():.6f} {took:.9f}\n")
