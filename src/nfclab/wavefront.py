"""Closed-form spherical-wave path-difference and phase model for a line array.

All functions are pure and stateless.  Angles are measured from the array
axis direction, so the far-field inter-element phase carries ``cos(theta)``
directly.  Element 1 is the phase reference everywhere.

Sign convention: the returned phases are path-difference phases,
``(2*pi/lambda) * (r_n - r_1)``; they are negative when element n is closer
to the target than element 1.  The far-field expression is reported as a
magnitude-style positive multiple of ``cos(theta_1)``; its signed counterpart
is its negation (see ``far_field_phase``).

``model_phases`` evaluates the closed form over the whole array from its
axis angles, ``path_difference`` the same expression for one element;
``exact_relative_phase`` is the independent distance-based check, and the
only function here that reads element positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_M_PER_S
from .scene import Scene, element_position

TWO_PI = 2.0 * math.pi

# Below this angular separation the removable singularity of the closed form
# is replaced by its analytic limit.
EPS_ANGLE = 1e-9


@dataclass(frozen=True)
class PhaseModelInput:
    """Inputs of the closed-form model for one element/target pair.

    ``theta_1``/``theta_n`` are the axis angles seen from the reference
    element and from element n; both must lie in (0, pi) for the triangle
    construction to be meaningful (the collinear limits 0 and pi are accepted
    and resolved through the analytic limit branch).
    """

    n: int
    d: float
    wavelength: float
    theta_1: float
    theta_n: float

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"element index must be >= 1, got {self.n}")
        if not self.d > 0:
            raise ValueError(f"element pitch must be > 0, got {self.d}")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        for name, theta in (("theta_1", self.theta_1), ("theta_n", self.theta_n)):
            if not 0.0 <= theta <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {theta}")


def _half_angle_form(scale, theta_1, theta_n):
    """The half-angle form of ``path_difference``, elementwise; ``scale`` is ``(n-1)*d``.

    No float64 angle has a cosine of exactly 0, so the division cannot fail.
    """
    delta = theta_n - theta_1
    value = np.where(np.abs(delta) < EPS_ANGLE, -scale * np.cos(theta_1),
                     -scale * np.cos(0.5 * (theta_1 + theta_n)) / np.cos(0.5 * delta))
    return np.where(scale == 0.0, 0.0, value)


def path_difference(inp: PhaseModelInput) -> float:
    """Spherical-wave path difference r_n - r_1 from the two axis angles.

    Evaluates ``(n-1)*d*(sin(theta_1) - sin(theta_n))/sin(theta_n - theta_1)``
    through the equivalent half-angle form
    ``-(n-1)*d*cos((theta_1+theta_n)/2)/cos((theta_n-theta_1)/2)``, which is
    free of the 0/0 cancellation; within EPS_ANGLE of equal angles the
    analytic limit ``-(n-1)*d*cos(theta_1)`` is returned.
    """
    inp.validate()
    return float(_half_angle_form((inp.n - 1) * inp.d, inp.theta_1, inp.theta_n))


def near_field_phase(inp: PhaseModelInput) -> float:
    """Relative phase of element n: (2*pi/lambda) * path_difference."""
    return TWO_PI / inp.wavelength * path_difference(inp)


def far_field_phase(n, d: float, wavelength: float, theta_1: float):
    """Far-field inter-element phase magnitude (2*pi/lambda)*d*(n-1)*cos(theta_1).

    ``n`` is a 1-based element index or an array of them.  The signed far-field
    phase consistent with ``near_field_phase`` at large distance is its negation.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError(f"element index must be >= 1, got {n.min()}")
    if not d > 0 or not wavelength > 0:
        raise ValueError("element pitch and wavelength must be > 0")
    if not 0.0 <= theta_1 <= math.pi:
        raise ValueError(f"theta_1 must lie in [0, pi], got {theta_1}")
    return TWO_PI / wavelength * d * (n - 1) * math.cos(theta_1)


def rayleigh_distance(aperture_d: float, wavelength: float) -> float:
    """Far-field boundary 2*D^2/lambda for an aperture of size D."""
    if aperture_d < 0:
        raise ValueError(f"aperture must be >= 0, got {aperture_d}")
    if not wavelength > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
    return 2.0 * aperture_d * aperture_d / wavelength


def exact_relative_phase(scene: Scene, n: int, target, frequency: float) -> float:
    """Ground-truth relative phase of element n from exact path lengths.

    Computed purely from Euclidean distances, ``2*pi*f*(r_n - r_1)/c``; this
    is the independent check for the closed-form model, which must agree for
    every geometry because the closed form is an exact triangle identity.
    """
    t = np.asarray(target, dtype=float)
    r_n = float(np.linalg.norm(t - element_position(scene, n)))
    r_1 = float(np.linalg.norm(t - element_position(scene, 1)))
    if min(r_n, r_1) < 1e-12:
        raise ValueError("target coincides with an array element")
    return TWO_PI * frequency * (r_n - r_1) / C_M_PER_S


def model_phases(theta: np.ndarray, d: float, wavelength: float) -> np.ndarray:
    """Closed-form relative phase of every element from its axis angle ``theta[n - 1]``.

    ``theta`` is the array's axis angles to one target, as
    ``element_geometry(scene, target)[1]`` gives them; element 1 is the reference.
    """
    scale = np.arange(len(theta), dtype=float) * d
    return TWO_PI / wavelength * _half_angle_form(scale, theta[0], theta)
