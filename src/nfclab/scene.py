"""Scenario data model and scenario file format.

A scenario file is plain text with bracketed sections and ``key = value``
lines; the ``_FORMAT`` table below states every section, key, value kind and bound.
Units are meters, Hz and dB throughout.

Scenes are immutable after load.  The module is pure Python: loading,
validating and saving a scene import no numpy (only ``Sweep.frequencies``
does, when it is called), and the array geometry over whole arrays lives
in ``synth``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from .constants import C_M_PER_S

if TYPE_CHECKING:
    import numpy as np

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

    def frequencies(self) -> np.ndarray:
        import numpy as np  # here, so that loading a scene does not import numpy

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
    def f_grid_center(self) -> float:
        """``frequencies()[center_index]``, the grid-centre frequency: the LOS phase and AoD frequency."""
        return self.frequencies()[self.center_index]

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


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer re-radiating isotropically with the given amplitude."""

    position: Vec3
    amplitude: float


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
        """Every float and triple coordinate finite, then every value within its key's
        ``_FORMAT`` bound (in table order), then ``f_start < f_stop``, ``rx`` off the array
        and every point scatterer off ``rx`` and the array."""
        items = [item for _, section in _sections(self) for item in section]
        for _, kind, field_name, value in items:
            coords = value if kind.parse is _parse_triple else (value,)
            if kind.parse is not _parse_int and value is not None and not all(map(math.isfinite, coords)):
                raise SceneValidationError(field_name, f"must be finite, got {value!r}")
        for _, kind, field_name, value in items:
            broken = kind.check(value)
            if broken is not None:
                raise SceneValidationError(field_name, broken)
        f_start, f_stop = self.sweep.f_start, self.sweep.f_stop
        if not f_start < f_stop:
            raise SceneValidationError("f_start", f"requires f_start < f_stop, got {f_start} >= {f_stop}")
        if _element_distance(self.array, self.rx) < 1e-9:
            raise SceneValidationError("rx", "must not coincide with any array element")
        for i, scatterer in enumerate(self.point_scatterers):
            position = scatterer.position
            if min(_element_distance(self.array, position), math.dist(position, self.rx)) < 1e-9:
                raise SceneValidationError(f"scatterer[{i}].position",
                                           "must not coincide with rx or any array element")


# ---------------------------------------------------------------------------
# Geometric queries
# ---------------------------------------------------------------------------

def _norm3(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _element_distance(array: ArraySpec, q) -> float:
    """Distance from the point ``q`` to the nearest element of ``array``, in O(1) of the element count.

    The nearest element is one of the two that bracket ``q``'s projection
    ``t = (q - origin).axis / (d |axis|^2)`` on the array line, clamped to
    the array; each is built with ``synth.element_positions``' formula
    ``origin + (i*d)*axis``.
    """
    origin, axis, d = array.origin, array.axis, array.spacing_d
    t = sum((qc - oc) * ac for qc, oc, ac in zip(q, origin, axis)) / (d * sum(ac * ac for ac in axis))
    last = array.n_elements - 1
    low = 0 if not t > 0 else last if t >= last else math.floor(t)  # a NaN t clamps to element 1
    try:
        return min(math.dist(q, [oc + (i * d) * ac for oc, ac in zip(origin, axis)])
                   for i in (low, min(low + 1, last)))
    except OverflowError:  # an index past float range: that element lies at infinity
        return math.inf


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
    """How one key's value is read from, and written to, scenario text, and its bound."""

    parse: Callable[[str, int, str], Any]
    format: Callable[[Any], str]
    check: Callable[[Any], str | None] = lambda value: None  # the requirement a value breaks, or None


def _bound(kind: _Kind, holds: Callable[[Any], bool], requirement: str) -> _Kind:
    """``kind`` whose values must satisfy ``holds``; ``requirement`` says so in the error."""
    return kind._replace(check=lambda x: None if holds(x) else f"{requirement}, got {x}")


def _unit_norm(v: Vec3) -> str | None:
    norm = _norm3(v)
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        return f"must have unit norm within {_UNIT_NORM_TOL}, got norm {norm!r}"
    return None


_INT = _Kind(_parse_int, str)
_FLOAT = _Kind(_parse_float, lambda x: repr(float(x)))
_TRIPLE = _Kind(_parse_triple, lambda v: ", ".join(repr(float(x)) for x in v))
_UNIT = _TRIPLE._replace(check=_unit_norm)
_POSITIVE = _bound(_FLOAT, lambda x: x > 0, "must be > 0")
_FRACTION = _bound(_FLOAT, lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
# wavelengths, the Rayleigh distance and path gains divide by f
_FREQUENCY = _bound(_FLOAT, lambda f: f > 0.0, "must be > 0 Hz")


class _Section(NamedTuple):
    """One section of the scenario file and where its values go in a Scene."""

    keys: dict[str, _Kind]  # in file order
    required: bool = False  # every key must be given
    build: type | None = None  # built by keyword; None: the keys are Scene fields (_SCENE_FIELDS)
    field: str = ""  # the Scene field that holds what `build` made
    repeats: bool = False  # the field is a tuple with one entry per section


# The scenario file format, in file order, with the bound each key's values must meet.
_FORMAT = {
    "array": _Section({"n_elements": _bound(_INT, lambda n: int(n) == n and n >= 1,
                                            "must be a positive integer"),
                       "spacing_d": _POSITIVE, "origin": _TRIPLE, "axis": _UNIT,
                       "height": _FLOAT},  # height only sets the default origin
                      build=ArraySpec, field="array"),
    "sweep": _Section({"f_start": _FREQUENCY, "f_stop": _FLOAT,
                       "n_points": _bound(_INT, lambda n: int(n) == n and n >= 2,
                                          "must be an integer >= 2")},
                      build=Sweep, field="sweep"),
    "rx": _Section({"position": _TRIPLE}, required=True),
    "wall": _Section({"normal": _UNIT, "offset": _FLOAT, "gamma": _FRACTION},
                     True, Wall, "walls", repeats=True),
    "scatterer": _Section({"position": _TRIPLE, "amplitude": _FRACTION},
                          True, Scatterer, "point_scatterers", repeats=True),
    "blocker": _Section({"center": _TRIPLE, "width": _POSITIVE, "height": _POSITIVE, "normal": _UNIT},
                        True, Blocker, "blockers", repeats=True),
    "noise": _Section({"floor_dbm": _FLOAT,  # the Philox noise key is one uint64
                       "seed": _bound(_INT, lambda s: 0 <= s < 2 ** 64, "must lie in [0, 2**64)")}),
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
        if name == "array" and math.isfinite(values.get("height", DEFAULT_HEIGHT)):
            # a non-finite height keeps the default origin, so validation blames height
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
