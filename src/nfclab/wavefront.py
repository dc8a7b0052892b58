"""Closed-form spherical-wave phase model for a line array.

All functions are pure and stateless.  Angles are measured from the array
axis direction, so the far-field inter-element phase carries ``cos(theta)``
directly.  Element 1 is the phase reference everywhere.

Sign convention: the returned phases are path-difference phases,
``(2*pi/lambda) * (r_n - r_1)``; they are negative when element n is closer
to the target than element 1.  The far-field expression is reported as a
magnitude-style positive multiple of ``cos(theta_1)``; its signed counterpart
is its negation (see ``far_field_phase``).

``model_phases`` evaluates the closed form over the whole array from its
axis angles; no function here reads a scene.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this angular separation the removable singularity of the closed form
# is replaced by its analytic limit.
EPS_ANGLE = 1e-9


def far_field_phase(n, d: float, wavelength: float, theta_1: float):
    """Far-field inter-element phase magnitude (2*pi/lambda)*d*(n-1)*cos(theta_1).

    ``n`` is a 1-based element index or an array of them.  The signed far-field
    phase consistent with ``model_phases`` at large distance is its negation.
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


def model_phases(theta: np.ndarray, d: float, wavelength: float) -> np.ndarray:
    """Closed-form relative phase of every element from its axis angle ``theta[n - 1]``.

    ``theta`` is the array's axis angles to one target, as
    ``element_geometry(scene, target)[1]`` gives them; element 1 is the reference.
    The path difference ``r_n - r_1 = (n-1)*d*(sin(theta_1) - sin(theta_n))
    / sin(theta_n - theta_1)`` is evaluated through the equivalent half-angle
    form ``-(n-1)*d*cos((theta_1+theta_n)/2)/cos((theta_n-theta_1)/2)``, which
    is free of the 0/0 cancellation; within EPS_ANGLE of equal angles the
    analytic limit ``-(n-1)*d*cos(theta_1)`` is used.  No float64 angle has a
    cosine of exactly 0, so the division cannot fail.
    """
    scale = np.arange(len(theta), dtype=float) * d
    theta_1 = theta[0]
    delta = theta - theta_1
    value = np.where(np.abs(delta) < EPS_ANGLE, -scale * np.cos(theta_1),
                     -scale * np.cos(0.5 * (theta_1 + theta)) / np.cos(0.5 * delta))
    return TWO_PI / wavelength * np.where(scale == 0.0, 0.0, value)
