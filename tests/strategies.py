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


@st.composite
def scenes(draw, min_elements=1, max_elements=16, n_points=st.just(11)):
    """A line array among 0-3 random walls, scatterers and (tilted or horizontal) screens.

    The scene is not validated: rx may land on an element.
    """
    array = ArraySpec(n_elements=draw(st.integers(min_elements, max_elements)),
                      spacing_d=draw(st.floats(0.005, 0.3)),
                      origin=draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)), axis=draw(unit_vectors))
    return Scene(array=array, rx=draw(_point), walls=tuple(draw(_walls)),
                 point_scatterers=tuple(draw(_scatterers)), blockers=tuple(draw(_blockers)),
                 sweep=Sweep(n_points=draw(n_points)))
