"""Scenario data model, scenario file format, and exact geometric queries.

A scenario file is plain text with bracketed sections and ``key = value``
lines.  Sections ``[array]``, ``[sweep]``, ``[rx]`` and ``[noise]`` appear at
most once; ``[wall]``, ``[scatterer]`` and ``[blocker]`` may repeat.  Vectors
are comma-separated triples.  Units are meters, Hz and dB throughout.

Example::

    [array]
    n_elements = 64
    spacing_d = 0.011534

    [rx]
    position = 9.9, 9.9, 2.5

    [wall]
    normal = 0, 0, 1
    offset = 0.0
    gamma = 0.1

Scenes are immutable after load; every query below is a pure function and is
safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

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
        positions = element_positions(self)
        d = np.linalg.norm(positions - np.asarray(self.rx, dtype=float), axis=1)
        if float(d.min()) < 1e-9:
            raise SceneValidationError("rx", "must not coincide with any array element")

    def with_seed(self, seed: int) -> "Scene":
        return replace(self, seed=int(seed))


# ---------------------------------------------------------------------------
# Geometric queries
# ---------------------------------------------------------------------------

def _norm3(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _norm(v: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, rounded exactly as 1-D ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(v, v))


def element_position(scene: Scene, n: int) -> np.ndarray:
    """Position of 1-based element n: origin + (n-1)*spacing_d*axis."""
    arr = scene.array
    if int(n) != n or not 1 <= n <= arr.n_elements:
        raise IndexError(f"element index {n} outside 1..{arr.n_elements}")
    origin = np.asarray(arr.origin, dtype=float)
    axis = np.asarray(arr.axis, dtype=float)
    return origin + (n - 1) * arr.spacing_d * axis


def element_positions(scene: Scene) -> np.ndarray:
    """All element positions as an (n_elements, 3) matrix."""
    arr = scene.array
    origin = np.asarray(arr.origin, dtype=float)
    axis = np.asarray(arr.axis, dtype=float)
    steps = np.arange(arr.n_elements, dtype=float)[:, None] * arr.spacing_d
    return origin[None, :] + steps * axis[None, :]


def true_geometry(scene: Scene, n: int, target) -> tuple[float, float]:
    """Exact distance and axis angle from element n to a target point.

    Returns ``(r_n, theta_n)`` where ``theta_n`` is the angle between the
    array axis direction and the element->target direction.  The angle lives
    in the plane spanned by the array line and the target, which is where the
    closed-form wavefront model is defined.
    """
    p = element_position(scene, n)
    t = np.asarray(target, dtype=float)
    v = t - p
    r = float(np.linalg.norm(v))
    if r < 1e-12:
        raise ValueError(f"target coincides with element {n}")
    axis = np.asarray(scene.array.axis, dtype=float)
    cos_theta = float(np.dot(axis, v)) / r
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return r, math.acos(cos_theta)


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
    return np.where(np.isnan(factor), 0.0, factor)


# ---------------------------------------------------------------------------
# Scenario file parsing / serialization
# ---------------------------------------------------------------------------

_SINGLETON_SECTIONS = ("array", "sweep", "rx", "noise")
_REPEAT_SECTIONS = ("wall", "scatterer", "blocker")


def _parse_scalar(text: str, line: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SceneParseError(f"expected a number for '{key}', got {text!r}", line) from None


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        f = _parse_scalar(text, line, key)
        if f != int(f):
            raise SceneParseError(f"expected an integer for '{key}', got {text!r}", line) from None
        return int(f)


def _parse_vec3(text: str, line: int, key: str) -> Vec3:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise SceneParseError(f"expected a comma-separated triple for '{key}', got {text!r}", line)
    return tuple(_parse_scalar(p, line, key) for p in parts)  # type: ignore[return-value]


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
            if name not in _SINGLETON_SECTIONS + _REPEAT_SECTIONS:
                raise SceneParseError(f"unknown section [{name}]", lineno)
            if name in _SINGLETON_SECTIONS and any(s[0] == name for s in sections):
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


def _take(body: dict[str, tuple[str, int]], key: str):
    return body.pop(key, None)


def _reject_unknown(section: str, body: dict[str, tuple[str, int]]) -> None:
    if body:
        key, (_, line) = next(iter(body.items()))
        raise SceneParseError(f"unknown key '{key}' in section [{section}]", line)


def loads_scene(text: str) -> Scene:
    """Parse scenario text into a validated Scene (defaults applied)."""
    sections = _tokenize(text)

    array = ArraySpec()
    sweep = Sweep()
    rx: Vec3 | None = None
    walls: list[Wall] = []
    scatterers: list[Scatterer] = []
    blockers: list[Blocker] = []
    noise_floor: float | None = None
    seed = 0

    for name, header_line, body in sections:
        if name == "array":
            height = DEFAULT_HEIGHT
            item = _take(body, "height")
            if item:
                height = _parse_scalar(item[0], item[1], "height")
            kwargs: dict = {"height": height}
            item = _take(body, "n_elements")
            if item:
                kwargs["n_elements"] = _parse_int(item[0], item[1], "n_elements")
            item = _take(body, "spacing_d")
            if item:
                kwargs["spacing_d"] = _parse_scalar(item[0], item[1], "spacing_d")
            item = _take(body, "axis")
            if item:
                kwargs["axis"] = _parse_vec3(item[0], item[1], "axis")
            item = _take(body, "origin")
            kwargs["origin"] = (_parse_vec3(item[0], item[1], "origin") if item
                                else (0.0, 0.0, height))
            _reject_unknown(name, body)
            array = ArraySpec(**kwargs)
        elif name == "sweep":
            kwargs = {}
            for key, parser in (("f_start", _parse_scalar), ("f_stop", _parse_scalar),
                                ("n_points", _parse_int)):
                item = _take(body, key)
                if item:
                    kwargs[key] = parser(item[0], item[1], key)
            _reject_unknown(name, body)
            sweep = Sweep(**kwargs)
        elif name == "rx":
            item = _take(body, "position")
            if item is None:
                raise SceneParseError("section [rx] requires 'position'", header_line)
            rx = _parse_vec3(item[0], item[1], "position")
            _reject_unknown(name, body)
        elif name == "wall":
            items = {}
            for key in ("normal", "offset", "gamma"):
                item = _take(body, key)
                if item is None:
                    raise SceneParseError(f"section [wall] requires '{key}'", header_line)
                items[key] = item
            _reject_unknown(name, body)
            walls.append(Wall(normal=_parse_vec3(*items["normal"], "normal"),
                              offset=_parse_scalar(*items["offset"], "offset"),
                              gamma=_parse_scalar(*items["gamma"], "gamma")))
        elif name == "scatterer":
            items = {}
            for key in ("position", "amplitude"):
                item = _take(body, key)
                if item is None:
                    raise SceneParseError(f"section [scatterer] requires '{key}'", header_line)
                items[key] = item
            _reject_unknown(name, body)
            scatterers.append(Scatterer(position=_parse_vec3(*items["position"], "position"),
                                        amplitude=_parse_scalar(*items["amplitude"], "amplitude")))
        elif name == "blocker":
            items = {}
            for key in ("center", "width", "height", "normal"):
                item = _take(body, key)
                if item is None:
                    raise SceneParseError(f"section [blocker] requires '{key}'", header_line)
                items[key] = item
            _reject_unknown(name, body)
            blockers.append(Blocker(center=_parse_vec3(*items["center"], "center"),
                                    width=_parse_scalar(*items["width"], "width"),
                                    height=_parse_scalar(*items["height"], "height"),
                                    normal=_parse_vec3(*items["normal"], "normal")))
        elif name == "noise":
            item = _take(body, "floor_dbm")
            if item:
                noise_floor = _parse_scalar(item[0], item[1], "floor_dbm")
            item = _take(body, "seed")
            if item:
                seed = _parse_int(item[0], item[1], "seed")
            _reject_unknown(name, body)

    if rx is None:
        raise SceneValidationError("rx", "scenario must contain an [rx] section with a position")

    scene = Scene(array=array, rx=rx, walls=tuple(walls),
                  point_scatterers=tuple(scatterers), blockers=tuple(blockers),
                  sweep=sweep, noise_floor_dbm=noise_floor, seed=seed)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v: Vec3) -> str:
    return ", ".join(_fmt(x) for x in v)


def serialize_scene(scene: Scene) -> str:
    """Render a Scene back to scenario text; round-trips to an equal Scene."""
    a, s = scene.array, scene.sweep
    lines = [
        "[array]",
        f"n_elements = {a.n_elements}",
        f"spacing_d = {_fmt(a.spacing_d)}",
        f"origin = {_fmt_vec(a.origin)}",
        f"axis = {_fmt_vec(a.axis)}",
        f"height = {_fmt(a.height)}",
        "",
        "[sweep]",
        f"f_start = {_fmt(s.f_start)}",
        f"f_stop = {_fmt(s.f_stop)}",
        f"n_points = {s.n_points}",
        "",
        "[rx]",
        f"position = {_fmt_vec(scene.rx)}",
    ]
    for w in scene.walls:
        lines += ["", "[wall]", f"normal = {_fmt_vec(w.normal)}",
                  f"offset = {_fmt(w.offset)}", f"gamma = {_fmt(w.gamma)}"]
    for sc in scene.point_scatterers:
        lines += ["", "[scatterer]", f"position = {_fmt_vec(sc.position)}",
                  f"amplitude = {_fmt(sc.amplitude)}"]
    for b in scene.blockers:
        lines += ["", "[blocker]", f"center = {_fmt_vec(b.center)}",
                  f"width = {_fmt(b.width)}", f"height = {_fmt(b.height)}",
                  f"normal = {_fmt_vec(b.normal)}"]
    if scene.noise_floor_dbm is not None or scene.seed != 0:
        lines += ["", "[noise]"]
        if scene.noise_floor_dbm is not None:
            lines.append(f"floor_dbm = {_fmt(scene.noise_floor_dbm)}")
        if scene.seed != 0:
            lines.append(f"seed = {scene.seed}")
    return "\n".join(lines) + "\n"


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(serialize_scene(scene), encoding="utf-8")


def load_preset(name: str) -> Scene:
    """Load one of the bundled scenario presets (see PRESET_NAMES)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("nfclab").joinpath("presets", f"{name}.scene").read_text(encoding="utf-8")
    return loads_scene(text)
