"""Scenario data model, scenario file format, and exact geometric queries.

A scenario file is plain text with bracketed sections and ``key = value``
lines; the ``_FORMAT`` table below states every section, key and value kind.
Units are meters, Hz and dB throughout.

Scenes are immutable after load; every query below is a pure function and is
safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .constants import C_M_PER_S

Vec3 = tuple[float, float, float]

_UNIT_NORM_TOL = 1e-12

# Defaults mirror a 64-element half-wavelength line at a 13 GHz center
# frequency swept 11-15 GHz by an 801-point VNA-style sweep.
DEFAULT_N_ELEMENTS = 64
DEFAULT_SPACING_D = 0.011534
DEFAULT_HEIGHT = 2.5
DEFAULT_AXIS: Vec3 = (1.0, 0.0, 0.0)
DEFAULT_F_START = 11e9
DEFAULT_F_STOP = 15e9
DEFAULT_N_POINTS = 801

PRESET_NAMES = ("los_lab", "olos_baffle")


class SceneError(ValueError):
    """Base class for scenario loading/validation failures."""


class SceneParseError(SceneError):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SceneValidationError(SceneError):
    """A scenario field violates an invariant; names the field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array: element n sits at origin + (n-1)*spacing_d*axis."""

    n_elements: int = DEFAULT_N_ELEMENTS
    spacing_d: float = DEFAULT_SPACING_D
    origin: Vec3 = (0.0, 0.0, DEFAULT_HEIGHT)
    axis: Vec3 = DEFAULT_AXIS
    height: float = DEFAULT_HEIGHT

    def validate(self) -> None:
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise SceneValidationError("n_elements", f"must be a positive integer, got {self.n_elements}")
        if not self.spacing_d > 0:
            raise SceneValidationError("spacing_d", f"must be > 0, got {self.spacing_d}")
        if abs(_norm3(self.axis) - 1.0) > _UNIT_NORM_TOL:
            raise SceneValidationError("axis", f"must have unit norm within {_UNIT_NORM_TOL}, got norm {_norm3(self.axis)!r}")

    @property
    def aperture(self) -> float:
        """End-to-end array length (n-1)*d."""
        return (self.n_elements - 1) * self.spacing_d


@dataclass(frozen=True)
class Sweep:
    """Frequency sweep grid, inclusive of both band edges."""

    f_start: float = DEFAULT_F_START
    f_stop: float = DEFAULT_F_STOP
    n_points: int = DEFAULT_N_POINTS

    def validate(self) -> None:
        if not self.f_start > 0.0:  # wavelengths, the Rayleigh distance and path gains divide by f
            raise SceneValidationError("f_start", f"must be > 0 Hz, got {self.f_start}")
        if not self.f_start < self.f_stop:
            raise SceneValidationError("f_start", f"requires f_start < f_stop, got {self.f_start} >= {self.f_stop}")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise SceneValidationError("n_points", f"must be an integer >= 2, got {self.n_points}")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)

    @property
    def f_center(self) -> float:
        return 0.5 * (self.f_start + self.f_stop)

    @property
    def center_index(self) -> int:
        """Index of the middle grid point of ``frequencies()``, the LOS phase and AoD frequency.

        On an odd-length sweep its frequency is the band mean ``f_center``
        (up to rounding); on an even-length one it is the lower of the two
        middle points, half a grid step below ``f_center``.
        """
        return (self.n_points - 1) // 2

    @property
    def bandwidth(self) -> float:
        return self.f_stop - self.f_start

    @property
    def lambda_center(self) -> float:
        return C_M_PER_S / self.f_center


@dataclass(frozen=True)
class Wall:
    """Infinite specular plane n.x = offset with amplitude reflection gamma."""

    normal: Vec3
    offset: float
    gamma: float

    def validate(self, tag: str) -> None:
        if abs(_norm3(self.normal) - 1.0) > _UNIT_NORM_TOL:
            raise SceneValidationError(f"{tag}.normal", "must have unit norm")
        if not 0.0 <= self.gamma <= 1.0:
            raise SceneValidationError(f"{tag}.gamma", f"must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer re-radiating isotropically with the given amplitude."""

    position: Vec3
    amplitude: float

    def validate(self, tag: str) -> None:
        if not 0.0 <= self.amplitude <= 1.0:
            raise SceneValidationError(f"{tag}.amplitude", f"must lie in [0, 1], got {self.amplitude}")


@dataclass(frozen=True)
class Blocker:
    """Zero-thickness perfectly absorbing rectangular screen.

    The rectangle lies in the plane through ``center`` with the given outward
    ``normal``; ``width`` runs along the horizontal in-plane axis and
    ``height`` along the remaining in-plane axis.
    """

    center: Vec3
    width: float
    height: float
    normal: Vec3

    def validate(self, tag: str) -> None:
        if not self.width > 0:
            raise SceneValidationError(f"{tag}.width", f"must be > 0, got {self.width}")
        if not self.height > 0:
            raise SceneValidationError(f"{tag}.height", f"must be > 0, got {self.height}")
        if abs(_norm3(self.normal) - 1.0) > _UNIT_NORM_TOL:
            raise SceneValidationError(f"{tag}.normal", "must have unit norm")

    def plane_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """In-plane unit axes (u along width, v along height)."""
        n = np.asarray(self.normal, dtype=float)
        up = np.array([0.0, 0.0, 1.0])
        u = np.cross(up, n)
        if np.linalg.norm(u) < 1e-9:
            # Horizontal screen: fall back to the x axis for "width".
            u = np.array([1.0, 0.0, 0.0])
        u = u / np.linalg.norm(u)
        v = np.cross(n, u)
        v = v / np.linalg.norm(v)
        return u, v


@dataclass(frozen=True)
class Scene:
    """Full scenario: array, receiver point, environment, sweep, noise."""

    array: ArraySpec = field(default_factory=ArraySpec)
    rx: Vec3 = (0.0, 5.0, DEFAULT_HEIGHT)
    walls: tuple[Wall, ...] = ()
    point_scatterers: tuple[Scatterer, ...] = ()
    blockers: tuple[Blocker, ...] = ()
    sweep: Sweep = field(default_factory=Sweep)
    noise_floor_dbm: float | None = None
    seed: int = 0

    def validate(self) -> None:
        for _, items in _sections(self):  # every float and every triple coordinate
            for _, kind, field_name, value in items:
                if (kind is not _INT and value is not None
                        and not np.isfinite(np.asarray(value, dtype=float)).all()):
                    raise SceneValidationError(field_name, f"must be finite, got {value!r}")
        self.array.validate()
        self.sweep.validate()
        for i, w in enumerate(self.walls):
            w.validate(f"wall[{i}]")
        for i, s in enumerate(self.point_scatterers):
            s.validate(f"scatterer[{i}]")
        for i, b in enumerate(self.blockers):
            b.validate(f"blocker[{i}]")
        if not 0 <= self.seed < 2 ** 64:  # the Philox noise key is one uint64
            raise SceneValidationError("seed", f"must lie in [0, 2**64), got {self.seed}")
        if float(_norm(np.asarray(self.rx, dtype=float) - element_positions(self)).min()) < 1e-9:
            raise SceneValidationError("rx", "must not coincide with any array element")


# ---------------------------------------------------------------------------
# Geometric queries
# ---------------------------------------------------------------------------

def _norm3(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _norm(v: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, rounded exactly as 1-D ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(v, v))


def element_positions(scene: Scene) -> np.ndarray:
    """All element positions as an (n_elements, 3) matrix."""
    arr = scene.array
    origin = np.asarray(arr.origin, dtype=float)
    axis = np.asarray(arr.axis, dtype=float)
    steps = np.arange(arr.n_elements, dtype=float)[:, None] * arr.spacing_d
    return origin[None, :] + steps * axis[None, :]


def element_geometry(scene: Scene, target) -> tuple[np.ndarray, np.ndarray]:
    """Exact distance and axis angle from every element to a target point.

    Returns ``(r, theta)``, one entry per element; ``theta[n - 1]`` is the
    angle between the array axis and the element n -> target direction, in
    the plane of the array line and the target where the closed-form model
    lives.  Cosines from ``np.vecdot`` (rounded like a 1-D ``np.dot``), angles
    from ``math.acos`` (``np.arccos`` rounds differently on ~9 % of inputs).
    Raises ValueError if the target coincides with an element.
    """
    v = np.asarray(target, dtype=float) - element_positions(scene)
    r = _norm(v)
    if r.min() < 1e-12:
        raise ValueError(f"target coincides with element {int(np.argmin(r)) + 1}")
    cos_theta = np.clip(np.vecdot(v, np.asarray(scene.array.axis, dtype=float)) / r, -1.0, 1.0)
    return r, np.array([math.acos(c) for c in cos_theta.tolist()])


def edge_clearance(blocker: Blocker, a, b) -> tuple[np.ndarray, ...]:
    """Signed clearance of segments a-b against a rectangular screen.

    ``a`` and ``b`` hold one segment endpoint per row, as ``(n, 3)`` arrays
    (either may be a single point shared by every segment).  Returns arrays
    ``(crosses_plane, h, d1, d2)`` with one entry per segment, where ``h`` is
    the signed distance from the plane crossing point to the nearest
    rectangle edge (positive inside the rectangle, negative in the clear),
    and ``d1``/``d2`` are the distances from ``a``/``b`` to the crossing
    point.  Where a segment does not cross the screen's plane the remaining
    values are 0 and ``crosses_plane`` is False.
    """
    a, b = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
    if np.any(np.all(a == b, axis=1)):
        raise ValueError("segment endpoints coincide")
    n = np.asarray(blocker.normal, dtype=float)
    c = np.asarray(blocker.center, dtype=float)
    sa = np.vecdot(a - c, n)
    sb = np.vecdot(b - c, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sa / (sa - sb)  # a plane-parallel segment gives inf or nan: no crossing
    crosses = (0.0 < t) & (t < 1.0)
    a, b, t = a[crosses], b[crosses], t[crosses]
    p = a + t[:, None] * (b - a)
    u, v = blocker.plane_axes()
    du = np.abs(np.vecdot(p - c, u)) - 0.5 * blocker.width
    dv = np.abs(np.vecdot(p - c, v)) - 0.5 * blocker.height
    # Inside: distance to the nearest edge.  Outside: distance to the
    # rectangle, which is one of du/dv unless the crossing faces a corner.
    h = np.where((du <= 0.0) & (dv <= 0.0), -np.where(dv > du, dv, du),
                 -(np.maximum(du, 0.0) + np.maximum(dv, 0.0)))
    corner = (du > 0.0) & (dv > 0.0)
    # math.hypot, not np.hypot: the two round differently on ~0.5 % of inputs.
    h[corner] = [-math.hypot(x, y) for x, y in zip(du[corner].tolist(), dv[corner].tolist())]
    out = np.zeros((3, len(crosses)))
    out[:, crosses] = h, _norm(p - a), _norm(b - p)
    return (crosses, *out)


def fresnel_geometry_factor(h, d1, d2) -> np.ndarray:
    """Wavelength-free part of the knife-edge Fresnel parameter, per crossing.

    The full parameter is ``nu = h*sqrt(2*(d1+d2)/(lambda*d1*d2))``; this
    returns ``h*sqrt(2*(d1+d2)/(d1*d2))`` so callers can evaluate nu per
    frequency as ``factor / sqrt(lambda)``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = h * np.sqrt(2.0 * (d1 + d2) / (d1 * d2))
    # A crossing at a segment end (d = 0) gives +-inf by the sign of h, or 0 for h = 0.
    at_end = np.where(h == 0.0, 0.0, np.copysign(np.inf, h))
    return np.where((d1 == 0.0) | (d2 == 0.0), at_end, factor)


# ---------------------------------------------------------------------------
# Scenario file parsing / serialization
# ---------------------------------------------------------------------------

def _parse_float(text: str, line: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SceneParseError(f"expected a number for '{key}', got {text!r}", line) from None


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        f = _parse_float(text, line, key)
    if not (math.isfinite(f) and f == int(f)):
        raise SceneParseError(f"expected an integer for '{key}', got {text!r}", line)
    return int(f)


def _parse_triple(text: str, line: int, key: str) -> Vec3:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise SceneParseError(f"expected a comma-separated triple for '{key}', got {text!r}", line)
    return tuple(_parse_float(p, line, key) for p in parts)  # type: ignore[return-value]


class _Kind(NamedTuple):
    """How one key's value is read from, and written to, scenario text."""

    parse: Callable[[str, int, str], Any]
    format: Callable[[Any], str]


_INT = _Kind(_parse_int, str)
_FLOAT = _Kind(_parse_float, lambda x: repr(float(x)))
_TRIPLE = _Kind(_parse_triple, lambda v: ", ".join(repr(float(x)) for x in v))


class _Section(NamedTuple):
    """One section of the scenario file and where its values go in a Scene."""

    keys: dict[str, _Kind]  # in file order
    required: bool = False  # every key must be given
    build: type | None = None  # built by keyword; None: the keys are Scene fields (_SCENE_FIELDS)
    field: str = ""  # the Scene field that holds what `build` made
    repeats: bool = False  # the field is a tuple with one entry per section


# The scenario file format, in file order.
_FORMAT = {
    "array": _Section({"n_elements": _INT, "spacing_d": _FLOAT, "origin": _TRIPLE,
                       "axis": _TRIPLE, "height": _FLOAT}, build=ArraySpec, field="array"),
    "sweep": _Section({"f_start": _FLOAT, "f_stop": _FLOAT, "n_points": _INT},
                      build=Sweep, field="sweep"),
    "rx": _Section({"position": _TRIPLE}, required=True),
    "wall": _Section({"normal": _TRIPLE, "offset": _FLOAT, "gamma": _FLOAT},
                     True, Wall, "walls", repeats=True),
    "scatterer": _Section({"position": _TRIPLE, "amplitude": _FLOAT},
                          True, Scatterer, "point_scatterers", repeats=True),
    "blocker": _Section({"center": _TRIPLE, "width": _FLOAT, "height": _FLOAT, "normal": _TRIPLE},
                        True, Blocker, "blockers", repeats=True),
    "noise": _Section({"floor_dbm": _FLOAT, "seed": _INT}),
}
# The Scene field behind each [rx] and [noise] key.
_SCENE_FIELDS = {"position": "rx", "floor_dbm": "noise_floor_dbm", "seed": "seed"}


def _sections(scene: Scene) -> Iterator[tuple[str, list[tuple[str, _Kind, str, Any]]]]:
    """``scene`` as scenario sections in file order: ``(section, [(key, kind, field, value)])``."""
    for name, section in _FORMAT.items():
        if section.build is None:
            yield name, [(key, kind, _SCENE_FIELDS[key], getattr(scene, _SCENE_FIELDS[key]))
                         for key, kind in section.keys.items()]
            continue
        objs = getattr(scene, section.field)
        for i, obj in enumerate(objs if section.repeats else (objs,)):
            tag = f"{name}[{i}]." if section.repeats else ""
            yield name, [(key, kind, tag + key, getattr(obj, key)) for key, kind in section.keys.items()]


def _tokenize(text: str) -> list[tuple[str, int, dict[str, tuple[str, int]]]]:
    """Split scenario text into (section, header_line, {key: (value, line)})."""
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SceneParseError(f"unterminated section header {raw.strip()!r}", lineno)
            name = line[1:-1].strip().lower()
            if name not in _FORMAT:
                raise SceneParseError(f"unknown section [{name}]", lineno)
            if not _FORMAT[name].repeats and any(s[0] == name for s in sections):
                raise SceneParseError(f"duplicate section [{name}]", lineno)
            current = {}
            sections.append((name, lineno, current))
            continue
        if "=" not in line:
            raise SceneParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if current is None:
            raise SceneParseError("key/value before any section header", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SceneParseError("empty key", lineno)
        if key in current:
            raise SceneParseError(f"duplicate key '{key}'", lineno)
        current[key] = (value, lineno)
    return sections


def loads_scene(text: str) -> Scene:
    """Parse scenario text into a validated Scene (defaults applied).

    Within a section a missing required key is reported first, then a bad
    value (in ``_FORMAT`` key order), then an unknown key.
    """
    fields: dict[str, Any] = {}
    for name, header_line, body in _tokenize(text):
        section = _FORMAT[name]
        missing = [key for key in section.keys if section.required and key not in body]
        if missing:
            raise SceneParseError(f"section [{name}] requires '{missing[0]}'", header_line)
        values = {key: kind.parse(*body[key], key) for key, kind in section.keys.items() if key in body}
        for key, (_, line) in body.items():
            if key not in section.keys:
                raise SceneParseError(f"unknown key '{key}' in section [{name}]", line)
        if name == "array":
            values.setdefault("origin", (0.0, 0.0, values.get("height", DEFAULT_HEIGHT)))
        if section.build is None:
            fields.update((_SCENE_FIELDS[key], value) for key, value in values.items())
        elif section.repeats:
            fields[section.field] = fields.get(section.field, ()) + (section.build(**values),)
        else:
            fields[section.field] = section.build(**values)

    if "rx" not in fields:
        raise SceneValidationError("rx", "scenario must contain an [rx] section with a position")
    scene = Scene(**fields)
    scene.validate()
    return scene


def load_scene(path) -> Scene:
    """Load and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneParseError(f"cannot read {p}: {exc.strerror or exc}", 0) from exc
    return loads_scene(text)


def serialize_scene(scene: Scene) -> str:
    """Render a Scene back to scenario text; round-trips to an equal Scene.

    Every key is written except [noise] keys at their Scene default, and a
    [noise] section left with no key is left out.
    """
    blocks = []
    for name, items in _sections(scene):
        lines = [f"{key} = {kind.format(value)}" for key, kind, field_name, value in items
                 if name != "noise" or value != getattr(Scene, field_name)]
        if lines:
            blocks.append("\n".join([f"[{name}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(serialize_scene(scene), encoding="utf-8")


def load_preset(name: str) -> Scene:
    """Load one of the bundled scenario presets (see PRESET_NAMES)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("nfclab").joinpath("presets", f"{name}.scene").read_text(encoding="utf-8")
    return loads_scene(text)
