"""The scenario file format: every single-error file, byte-stable text, non-finite values."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import scenes

import nfclab
from nfclab.cli import EXIT_ANALYSIS_FAILURE, EXIT_PARSE_FAILURE, main
from nfclab.scene import (SceneError, SceneParseError, SceneValidationError, load_preset,
                          loads_scene, save_scene, serialize_scene)

# One valid body per section, in file order; together they load.
SECTIONS = {
    "array": ["n_elements = 4", "spacing_d = 0.01", "origin = 0, 0, 2.5", "axis = 1, 0, 0",
              "height = 2.5"],
    "sweep": ["f_start = 11e9", "f_stop = 15e9", "n_points = 11"],
    "rx": ["position = 0, 5, 2.5"],
    "wall": ["normal = 0, 0, 1", "offset = 0", "gamma = 0.1"],
    "scatterer": ["position = 1, 1, 1", "amplitude = 0.5"],
    "blocker": ["center = 0, 1, 2", "width = 1", "height = 1", "normal = 0, 1, 0"],
    "noise": ["floor_dbm = -90", "seed = 3"],
}
REQUIRED = ("rx", "wall", "scatterer", "blocker")


def _block(name, lines=None):
    return "\n".join([f"[{name}]", *(SECTIONS[name] if lines is None else lines)])


def _file(*blocks):
    """Join blocks with blank lines; the line marked '>>' is where the error must point."""
    lines, mark = [], None
    for block in blocks:
        for raw in block.splitlines():
            if raw.startswith(">>"):
                mark, raw = len(lines) + 1, raw[2:]
            lines.append(raw)
        lines.append("")
    return "\n".join(lines), mark


def _with(name, lines):
    """Every section valid except ``name``, whose body is ``lines``."""
    return _file(*(_block(s, lines if s == name else None) for s in SECTIONS))


def _edited(name, key, new):
    """Section ``name`` with its ``key`` line replaced by ``new`` (marked)."""
    return _with(name, [(">>" + new if line.split(" =")[0] == key else line)
                        for line in SECTIONS[name]])


def _cases():
    for name in SECTIONS:
        yield f"unknown-key-{name}", _with(name, SECTIONS[name] + [">>colour = 1"]), \
            f"unknown key 'colour' in section [{name}]"
    for name in REQUIRED:
        for line in SECTIONS[name]:
            key = line.split(" =")[0]
            text, _ = _with(name, [x for x in SECTIONS[name] if x != line])
            header = text.splitlines().index(f"[{name}]") + 1
            yield f"missing-{name}-{key}", (text, header), f"section [{name}] requires '{key}'"
    for name in ("array", "sweep", "rx", "noise"):
        yield f"duplicate-{name}", _file(*(_block(s) for s in SECTIONS), ">>" + _block(name)), \
            f"duplicate section [{name}]"
    yield "unknown-section", _file(_block("array"), _block("rx"), ">>[antenna]\nx = 1"), \
        "unknown section [antenna]"
    yield "unterminated-header", _file(">>[array\nn_elements = 4", _block("rx")), \
        "unterminated section header '[array'"
    yield "key-before-header", _file(">>n_elements = 4", _block("array"), _block("rx")), \
        "key/value before any section header"
    yield "no-equals", _file("[array]\n>>n_elements 4", _block("rx")), \
        "expected 'key = value', got 'n_elements 4'"
    yield "empty-key", _file("[array]\n>> = 4", _block("rx")), "empty key"
    yield "duplicate-key", _file("[array]\nn_elements = 4\n>>n_elements = 5", _block("rx")), \
        "duplicate key 'n_elements'"
    for name, key, value, message in [
            ("array", "spacing_d", "abc", "expected a number for 'spacing_d', got 'abc'"),
            ("sweep", "f_stop", "15 GHz", "expected a number for 'f_stop', got '15 GHz'"),
            ("wall", "gamma", "high", "expected a number for 'gamma', got 'high'"),
            ("noise", "floor_dbm", "", "expected a number for 'floor_dbm', got ''"),
            ("array", "n_elements", "4.5", "expected an integer for 'n_elements', got '4.5'"),
            ("sweep", "n_points", "ten", "expected a number for 'n_points', got 'ten'"),
            ("noise", "seed", "1.5", "expected an integer for 'seed', got '1.5'"),
            ("rx", "position", "1, 2", "expected a comma-separated triple for 'position', got '1, 2'"),
            ("wall", "normal", "0, 0, 1, 0",
             "expected a comma-separated triple for 'normal', got '0, 0, 1, 0'"),
            ("array", "axis", "1, x, 0", "expected a number for 'axis', got 'x'"),
            ("blocker", "center", "0, 1, ", "expected a number for 'center', got ''")]:
        yield f"bad-{name}-{key}", _edited(name, key, f"{key} = {value}"), message


CASES = list(_cases())


def test_sections_load_together():
    scene = loads_scene(_file(*(_block(s) for s in SECTIONS))[0])
    assert (len(scene.walls), len(scene.point_scatterers), len(scene.blockers)) == (1, 1, 1)
    assert scene.noise_floor_dbm == -90.0 and scene.seed == 3


@pytest.mark.parametrize("text_line, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_single_error_file(text_line, message):
    text, line = text_line
    with pytest.raises(SceneParseError) as err:
        loads_scene(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_missing_rx_section():
    with pytest.raises(SceneValidationError) as err:
        loads_scene(_block("array") + "\n")
    assert str(err.value) == "rx: scenario must contain an [rx] section with a position"


# ---------------------------------------------------------------------------
# Serialized text against the hand-written serializer it replaced
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ", ".join(_fmt(x) for x in v)


def _ref_serialize_scene(scene) -> str:
    """The hand-written ``serialize_scene``, verbatim."""
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


@pytest.mark.parametrize("name", ["los_lab", "olos_baffle"])
@pytest.mark.parametrize("floor, seed", [(None, 0), (-80.0, 0), (None, 7), (0.0, 2 ** 64 - 1)])
def test_serialize_presets_match_reference(name, floor, seed):
    scene = replace(load_preset(name), noise_floor_dbm=floor, seed=seed)
    assert serialize_scene(scene) == _ref_serialize_scene(scene)
    assert loads_scene(serialize_scene(scene)) == scene


@settings(max_examples=150, deadline=None)
@given(scene=scenes(n_points=st.integers(2, 4001)),
       floor=st.one_of(st.none(), st.floats(-200.0, 50.0)), seed=st.integers(0, 2 ** 64 - 1))
def test_serialize_matches_reference_and_round_trips(scene, floor, seed):
    scene = replace(scene, noise_floor_dbm=floor, seed=seed)
    text = serialize_scene(scene)
    assert text == _ref_serialize_scene(scene)
    try:
        scene.validate()
    except SceneError:
        assume(False)  # rx on an element: not a loadable scene
    assert loads_scene(text) == scene


# ---------------------------------------------------------------------------
# Non-finite values
# ---------------------------------------------------------------------------

# (section, key, field name in the error) of every float and triple key
FLOAT_KEYS = [("array", "spacing_d", "spacing_d"), ("array", "origin", "origin"),
              ("array", "axis", "axis"), ("array", "height", "height"),
              ("sweep", "f_start", "f_start"), ("sweep", "f_stop", "f_stop"),
              ("rx", "position", "rx"),
              ("wall", "normal", "wall[0].normal"), ("wall", "offset", "wall[0].offset"),
              ("wall", "gamma", "wall[0].gamma"),
              ("scatterer", "position", "scatterer[0].position"),
              ("scatterer", "amplitude", "scatterer[0].amplitude"),
              ("blocker", "center", "blocker[0].center"), ("blocker", "width", "blocker[0].width"),
              ("blocker", "height", "blocker[0].height"), ("blocker", "normal", "blocker[0].normal"),
              ("noise", "floor_dbm", "noise_floor_dbm")]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name, key, field_name", FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in FLOAT_KEYS])
def test_non_finite_value_rejected(name, key, field_name, bad):
    old = next(line for line in SECTIONS[name] if line.split(" =")[0] == key)
    value = old.split("= ")[1]
    if "," in value:  # one coordinate of a triple
        value = ", ".join([bad] + value.split(", ")[1:])
    else:
        value = bad
    text, _ = _edited(name, key, f"{key} = {value}")
    with pytest.raises(SceneValidationError) as err:
        loads_scene(text)
    assert err.value.field_name == field_name
    assert "must be finite" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name, key", [("array", "n_elements"), ("sweep", "n_points"),
                                       ("noise", "seed")])
def test_non_finite_integer_is_a_parse_error(name, key, bad):
    text, line = _edited(name, key, f"{key} = {bad}")
    with pytest.raises(SceneParseError) as err:
        loads_scene(text)
    assert str(err.value) == f"line {line}: expected an integer for '{key}', got '{bad}'"


def _cli(tmp_path, *args):
    src = Path(nfclab.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-W", "error", "-m", "nfclab.cli", *args,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("line, field_name", [("center = nan, 0.05, 2.3", "blocker[0].center"),
                                              ("offset = nan", "wall[0].offset"),
                                              ("position = 9.8995, inf, 2.5", "rx")])
def test_non_finite_scene_file_exit_3(tmp_path, line, field_name):
    path = tmp_path / "bad.scene"
    save_scene(load_preset("olos_baffle"), path)
    key = line.split(" =")[0]
    text = path.read_text().splitlines()
    first = next(i for i, x in enumerate(text) if x.startswith(key + " ="))
    text[first] = line
    path.write_text("\n".join(text) + "\n")
    proc = _cli(tmp_path, "run", str(path))
    assert proc.returncode == EXIT_PARSE_FAILURE
    assert "Traceback" not in proc.stderr
    assert f"{field_name}: must be finite" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_non_finite_noise_floor_override_exit_4(tmp_path, floor):
    proc = _cli(tmp_path, "run", "los_lab", f"--noise-floor={floor}")
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert f"error: invalid override: noise_floor_dbm: must be finite, got {floor}" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_non_finite_height_is_reported_as_height():
    # [array] height only sets the default origin; the error names the key the file holds
    for bad in ("nan", "1e400"):
        with pytest.raises(SceneValidationError) as err:
            loads_scene(f"[array]\nheight = {bad}\n[rx]\nposition = 1, 1, 1\n")
        assert err.value.field_name == "height"
        assert "must be finite" in str(err.value)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

# (section, key, bad value, field name in the error, message fragment), one per bound
BOUND_CASES = [
    ("array", "n_elements", 0, "n_elements", "must be a positive integer, got 0"),
    ("array", "n_elements", -3, "n_elements", "must be a positive integer, got -3"),
    ("array", "spacing_d", 0.0, "spacing_d", "must be > 0, got 0.0"),
    ("array", "spacing_d", -0.01, "spacing_d", "must be > 0, got -0.01"),
    ("array", "axis", (2.0, 0.0, 0.0), "axis", "must have unit norm within 1e-12, got norm 2.0"),
    ("sweep", "f_start", 0.0, "f_start", "must be > 0 Hz, got 0.0"),
    ("sweep", "f_start", -2e9, "f_start", "must be > 0 Hz, got -2000000000.0"),
    ("sweep", "f_start", 16e9, "f_start", "requires f_start < f_stop, got 16000000000.0 >= 15000000000.0"),
    ("sweep", "f_stop", 11e9, "f_start", "requires f_start < f_stop, got 11000000000.0 >= 11000000000.0"),
    ("sweep", "n_points", 1, "n_points", "must be an integer >= 2, got 1"),
    ("sweep", "n_points", 0, "n_points", "must be an integer >= 2, got 0"),
    ("rx", "position", (0.0, 0.0, 2.5), "rx", "must not coincide with any array element"),
    # SECTIONS puts rx at (0, 5, 2.5) and the elements at x = 0, 0.01, 0.02, 0.03
    ("scatterer", "position", (0.0, 5.0, 2.5), "scatterer[0].position",
     "must not coincide with rx or any array element"),
    ("scatterer", "position", (0.01, 0.0, 2.5), "scatterer[0].position",
     "must not coincide with rx or any array element"),
    ("scatterer", "position", (0.03, 5e-10, 2.5), "scatterer[0].position",  # within 1e-9 m
     "must not coincide with rx or any array element"),
    ("wall", "normal", (0.0, 0.0, 2.0), "wall[0].normal", "must have unit norm within 1e-12, got norm 2.0"),
    ("wall", "normal", (0.0, 0.0, 0.0), "wall[0].normal", "must have unit norm within 1e-12, got norm 0.0"),
    ("wall", "gamma", 1.5, "wall[0].gamma", "must lie in [0, 1], got 1.5"),
    ("wall", "gamma", -0.1, "wall[0].gamma", "must lie in [0, 1], got -0.1"),
    ("scatterer", "amplitude", 1.01, "scatterer[0].amplitude", "must lie in [0, 1], got 1.01"),
    ("scatterer", "amplitude", -0.5, "scatterer[0].amplitude", "must lie in [0, 1], got -0.5"),
    ("blocker", "width", 0.0, "blocker[0].width", "must be > 0, got 0.0"),
    ("blocker", "width", -1.0, "blocker[0].width", "must be > 0, got -1.0"),
    ("blocker", "height", 0.0, "blocker[0].height", "must be > 0, got 0.0"),
    ("blocker", "normal", (0.0, 0.5, 0.0), "blocker[0].normal", "must have unit norm within 1e-12, got norm 0.5"),
    ("noise", "seed", -1, "seed", "must lie in [0, 2**64), got -1"),
    ("noise", "seed", 2 ** 64, "seed", "must lie in [0, 2**64), got 18446744073709551616"),
]
BOUND_IDS = [f"{s}.{k}={v}" for s, k, v, _, _ in BOUND_CASES]
# The Scene field that holds each section's values; None: the key's own Scene field
SCENE_FIELD = {"array": "array", "sweep": "sweep", "wall": "walls", "scatterer": "point_scatterers",
               "blocker": "blockers", "rx": None, "noise": None}
KEY_FIELD = {"position": "rx", "seed": "seed"}


def _text(value) -> str:
    return ", ".join(repr(x) for x in value) if isinstance(value, tuple) else repr(value)


def _bound_file(name, key, value):
    return _edited(name, key, f"{key} = {_text(value)}")[0]


def _python_built(name, key, value):
    """The loaded SECTIONS scene with ``value`` put in place by ``dataclasses.replace``."""
    scene = loads_scene(_file(*(_block(s) for s in SECTIONS))[0])
    field_name = SCENE_FIELD[name]
    if field_name is None:
        return replace(scene, **{KEY_FIELD[key]: value})
    held = getattr(scene, field_name)
    if isinstance(held, tuple):
        return replace(scene, **{field_name: (replace(held[0], **{key: value}),)})
    return replace(scene, **{field_name: replace(held, **{key: value})})


@pytest.mark.parametrize("name, key, value, field_name, message", BOUND_CASES, ids=BOUND_IDS)
def test_bound_violation_from_file_and_from_python(name, key, value, field_name, message):
    with pytest.raises(SceneValidationError) as err:
        loads_scene(_bound_file(name, key, value))
    assert err.value.field_name == field_name
    assert str(err.value) == f"{field_name}: {message}"
    with pytest.raises(SceneValidationError) as err:
        _python_built(name, key, value).validate()
    assert str(err.value) == f"{field_name}: {message}"


def test_checks_run_finiteness_then_bounds_in_table_order_then_cross_field_rules():
    def first_error(edits):
        lines = {name: list(body) for name, body in SECTIONS.items()}
        for name, key, value in edits:
            lines[name] = [f"{key} = {value}" if x.split(" =")[0] == key else x for x in lines[name]]
        with pytest.raises(SceneValidationError) as err:
            loads_scene(_file(*(_block(s, lines[s]) for s in SECTIONS))[0])
        return err.value.field_name

    # a non-finite value comes before any bound, wherever it sits in the table
    assert first_error([("array", "spacing_d", "0"), ("noise", "floor_dbm", "nan")]) == "noise_floor_dbm"
    # bounds in table order
    assert first_error([("blocker", "width", "0"), ("wall", "gamma", "2")]) == "wall[0].gamma"
    assert first_error([("noise", "seed", "-1"), ("array", "axis", "0, 0, 1e-3")]) == "axis"
    # f_start < f_stop after every bound, and rx last
    assert first_error([("sweep", "f_start", "16e9"), ("sweep", "n_points", "1")]) == "n_points"
    assert first_error([("sweep", "f_start", "16e9"), ("rx", "position", "0, 0, 2.5")]) == "f_start"


@pytest.mark.parametrize("name, key, value, field_name", [
    ("array", "n_elements", 0, "n_elements"),
    ("sweep", "f_stop", 11e9, "f_start"),
    ("wall", "gamma", 1.5, "wall[0].gamma"),
    ("blocker", "normal", (0.0, 0.5, 0.0), "blocker[0].normal"),
])
def test_bound_violation_in_scene_file_exit_3(tmp_path, name, key, value, field_name):
    path = tmp_path / "bad.scene"
    path.write_text(_bound_file(name, key, value))
    proc = _cli(tmp_path, "run", str(path))
    assert proc.returncode == EXIT_PARSE_FAILURE
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot load scenario {str(path)!r}: {field_name}: ")
    assert not (tmp_path / "out").exists()


SCATTERER_MESSAGE = "scatterer[0].position: must not coincide with rx or any array element"


def test_scatterer_rule_follows_the_rx_rule_and_names_its_index():
    loads_scene(_bound_file("scatterer", "position", (0.0, 5.0, 2.5 + 2e-9)))  # beyond 1e-9 m: valid
    rx_on_element = _python_built("rx", "position", (0.0, 0.0, 2.5))
    with pytest.raises(SceneValidationError) as err:
        replace(rx_on_element, point_scatterers=(nfclab.Scatterer((0.0, 0.0, 2.5), 0.5),)).validate()
    assert err.value.field_name == "rx"
    scene = _python_built("scatterer", "position", (1.0, 1.0, 1.0))
    with pytest.raises(SceneValidationError) as err:
        replace(scene, point_scatterers=scene.point_scatterers
                + (nfclab.Scatterer((0.0, 5.0, 2.5), 0.5),)).validate()
    assert err.value.field_name == "scatterer[1].position"


@pytest.mark.parametrize("blocker", [True, False], ids=["with-blocker", "without-blocker"])
def test_scatterer_on_rx_in_scene_file_exit_3(tmp_path, blocker):
    # with a screen this exited 4 naming no field; without one it ran with a zero-length leg
    lines = {**SECTIONS, "scatterer": ["position = 0, 5, 2.5", "amplitude = 0.5"]}
    path = tmp_path / "bad.scene"
    path.write_text(_file(*(_block(s, lines[s]) for s in SECTIONS if blocker or s != "blocker"))[0])
    proc = _cli(tmp_path, "run", str(path))
    assert proc.returncode == EXIT_PARSE_FAILURE
    [line] = proc.stderr.splitlines()
    assert line == f"error: cannot load scenario {str(path)!r}: {SCATTERER_MESSAGE}"
    assert not (tmp_path / "out").exists()


BIG = int("9" * 400)


@pytest.mark.parametrize("args, code, message", [
    (["--freq-points", "1"], EXIT_ANALYSIS_FAILURE,
     "error: invalid override: n_points: must be an integer >= 2, got 1"),
    (["--seed=-1"], EXIT_ANALYSIS_FAILURE, "error: invalid override: seed: must lie in [0, 2**64), got -1"),
    (["--seed", str(BIG)], EXIT_ANALYSIS_FAILURE,
     f"error: invalid override: seed: must lie in [0, 2**64), got {BIG}"),
    (["--freq-points", str(BIG)], EXIT_ANALYSIS_FAILURE, "analysis error: "),
], ids=["freq-points-1", "seed-minus-1", "seed-400-digits", "freq-points-400-digits"])
def test_out_of_bound_override_one_stderr_line(tmp_path, capsys, args, code, message):
    assert main(["run", "los_lab", "--out", str(tmp_path / "out"), *args]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("name, key, code, message", [
    ("noise", "seed", EXIT_PARSE_FAILURE, f"seed: must lie in [0, 2**64), got {BIG}"),
    ("array", "n_elements", EXIT_ANALYSIS_FAILURE, "analysis error: "),
    ("sweep", "n_points", EXIT_ANALYSIS_FAILURE, "analysis error: "),
])
def test_400_digit_int_in_scene_file_one_stderr_line(tmp_path, capsys, name, key, code, message):
    path = tmp_path / "big.scene"
    path.write_text(_bound_file(name, key, BIG))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
