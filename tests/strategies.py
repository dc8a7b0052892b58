"""Hypothesis strategies for small random scenes shared by the property tests."""

import math

import numpy as np
from hypothesis import strategies as st

from nfclab.scene import ArraySpec, Blocker, Scatterer, Scene, Sweep, Wall


def _unit(v):
    v = np.asarray(v, dtype=float)
    return tuple(float(x) for x in v / np.linalg.norm(v))


_coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord, _coord)
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.sqrt(sum(x * x for x in v)) > 0.1).map(_unit)
_screen_normals = st.one_of(unit_vectors,  # tilted
                            st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0),  # horizontal
                                             (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]))
_walls = st.lists(st.builds(Wall, normal=unit_vectors, offset=_coord, gamma=st.floats(0.0, 1.0)),
                  max_size=3)
_scatterers = st.lists(st.builds(Scatterer, position=_point, amplitude=st.floats(0.0, 1.0)),
                       max_size=3)
_blockers = st.lists(st.builds(Blocker, center=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
                               width=st.floats(0.05, 4.0), height=st.floats(0.05, 4.0),
                               normal=_screen_normals), max_size=3)


def _log_uniform(low, high):
    """Floats from 10**low to 10**high, uniform in their exponent."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def scenes(draw, min_elements=1, max_elements=16, n_points=st.just(11)):
    """A line array among 0-3 random walls, scatterers and (tilted or horizontal) screens.

    The sweep starts anywhere from 1e-300 to 1e15 Hz and stops 1e-6 to 1e3
    times its start above it; the pitch is 1e-9 to 10 m, and the receiver's
    position is scaled by 1e-6 to 1e9.  The scene is not validated: rx may
    land on an element.
    """
    array = ArraySpec(n_elements=draw(st.integers(min_elements, max_elements)),
                      spacing_d=draw(_log_uniform(-9.0, 1.0)),
                      origin=draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)), axis=draw(unit_vectors))
    f_start = draw(_log_uniform(-300.0, 15.0))
    sweep = Sweep(f_start=f_start, f_stop=f_start * (1.0 + draw(_log_uniform(-6.0, 3.0))),
                  n_points=draw(n_points))
    rx_scale = draw(_log_uniform(-6.0, 9.0))
    return Scene(array=array, rx=tuple(rx_scale * x for x in draw(_point)), walls=tuple(draw(_walls)),
                 point_scatterers=tuple(draw(_scatterers)), blockers=tuple(draw(_blockers)), sweep=sweep)
