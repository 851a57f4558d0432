"""Shape JSON serialization: strict schema, atomic writes."""

import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform.harmonic_core import SpectralCoeffs, num_coeffs, zero_coeffs
from orbiform.shapeio import (
    ShapeFile,
    ShapeFormatError,
    dumps_shape,
    entries_to_coeffs,
    loads_shape,
    write_text_atomic,
)
from orbiform import shapeio

from oracles import index2, index3, json_text


def test_roundtrip_dim2():
    c = zero_coeffs(2, 5).values.copy()
    c[0] = 1.25
    c[index2(3, "cos")] = -0.5
    c[index2(5, "sin")] = 0.125
    coeffs = SpectralCoeffs(2, 5, c)
    f = loads_shape(dumps_shape(2, 1.0, coeffs.values.tolist()))
    assert (f.dim, f.width, f.max_degree, f.switches) == (2, 1.0, 5, None)
    assert np.array_equal(f.coeffs.values, coeffs.values)


def test_roundtrip_dim3():
    c = zero_coeffs(3, 4).values.copy()
    c[index3(3, -2)] = 0.75
    c[index3(4, 0)] = -1.5
    coeffs = SpectralCoeffs(3, 4, c)
    f = loads_shape(dumps_shape(3, 2.0, coeffs.values.tolist()))
    assert (f.dim, f.width, f.max_degree) == (3, 2.0, 4)
    assert np.array_equal(f.coeffs.values, coeffs.values)


def test_entries_skip_zeros():
    assert shapeio._entries(2, zero_coeffs(2, 8).values.tolist()) == []
    assert shapeio._entries(3, [0.0] * num_coeffs(3, 4)) == []


LAYOUT = {2: [(k, part) for k in range(65) for part in ("cos", "sin") if k or part == "cos"],
          3: [(ell, m) for ell in range(65) for m in range(-ell, ell + 1)]}


@pytest.mark.parametrize("dim", [2, 3])
def test_index_is_the_flat_layout_of_the_oracle(dim):
    # every (degree, part) and (degree, order) up to degree 64, in order
    oracle = index2 if dim == 2 else index3
    got = [shapeio._index(dim, degree, key) for degree, key in LAYOUT[dim]]
    assert got == [oracle(degree, key) for degree, key in LAYOUT[dim]]
    assert got == list(range(num_coeffs(dim, 64)))


@pytest.mark.parametrize("dim", [2, 3])
def test_entries_invert_index(dim):
    keyname = "part" if dim == 2 else "order"
    values = [float(i + 1) for i in range(num_coeffs(dim, 64))]
    entries = shapeio._entries(dim, values)
    assert [(e["degree"], e[keyname]) for e in entries] == LAYOUT[dim]
    assert [values[shapeio._index(dim, e["degree"], e[keyname])] for e in entries] == values


def test_entry_schema_keys():
    c = zero_coeffs(2, 3).values.copy()
    c[index2(3, "sin")] = 1.0
    e = shapeio._entries(2, c.tolist())
    assert e == [{"degree": 3, "part": "sin", "value": 1.0}]
    c3 = zero_coeffs(3, 2).values.copy()
    c3[index3(2, -1)] = 1.0
    e3 = shapeio._entries(3, c3.tolist())
    assert e3 == [{"degree": 2, "order": -1, "value": 1.0}]


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        '{"dim": 2, "width": 1.0}',  # missing coeffs
        '{"dim": 2, "width": 1.0, "coeffs": [], "extra": 1}',
        '{"dim": 4, "width": 1.0, "coeffs": []}',
        '{"dim": 2, "width": 0.0, "coeffs": []}',
        '{"dim": 2, "width": -3, "coeffs": []}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": 1, "value": 0.5}]}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": 1, "part": "tan", "value": 0.5}]}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": 0, "part": "sin", "value": 0.5}]}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": -1, "part": "cos", "value": 0.5}]}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": 1, "part": "cos", "value": "x"}]}',
        '{"dim": 3, "width": 1.0, "coeffs": [{"degree": 1, "order": 2, "value": 0.5}]}',
        '{"dim": 3, "width": 1.0, "coeffs": [{"degree": 1, "part": "cos", "value": 0.5}]}',
        "[]",  # the top level is not an object
        "3",
        "null",
        '{"dim": 2, "width": 1.0, "coeffs": {}}',  # coeffs is not a list
        '{"dim": 2, "width": 1.0, "coeffs": [1]}',  # an entry is not an object
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(ShapeFormatError):
        loads_shape(text)


RESULT = {
    "dim": 2, "width": 2.0, "phi": -0.5, "area": 2.8915926535897933, "iterations": 3,
    "seed": 7, "violation": 0.0, "sign_consistency": 1.0,
    "coeffs": [{"degree": 3, "part": "cos", "value": 0.25}],
}
RESULT_3 = {**RESULT, "dim": 3, "area": None, "coeffs": [], "equivalence_warning": True}


def test_result_file_is_told_apart_by_phi():
    got = loads_shape(json.dumps(RESULT))
    assert isinstance(got, ShapeFile)
    assert (got.dim, got.width, got.phi, got.area) == (2, 2.0, -0.5, RESULT["area"])
    assert got.coeffs.values[index2(3, "cos")] == 0.25
    got = loads_shape(json.dumps({**RESULT_3, "timestamp": "2024-01-01T00:00:00+00:00"}))
    assert (got.dim, got.area) == (3, None)
    # a shape file is a ShapeFile
    assert isinstance(loads_shape(dumps_shape(2, 1.0, [0.0] * 7)), ShapeFile)


@pytest.mark.parametrize("result", [RESULT, RESULT_3], ids=["dim2", "dim3"])
def test_both_kinds_of_file_read_back_as_one_record(result):
    got = loads_shape(json.dumps(result))
    want = entries_to_coeffs(result["dim"], result["coeffs"])
    assert got.coeffs.max_degree == want.max_degree
    assert got.coeffs.values.tolist() == want.values.tolist()
    assert (got.phi, got.area) == (result["phi"], result["area"])
    shape = loads_shape(json.dumps({k: result[k] for k in ("dim", "width", "coeffs")}))
    assert type(shape) is type(got) is ShapeFile
    assert (shape.phi, shape.area) == (None, None)
    assert shape == got._replace(phi=None, area=None)


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2, "width": 1.0, "width": 2.0, "coeffs": []}',
        '{"dim": 2, "width": 1.0, "coeffs": [{"degree": 3, "part": "cos", "value": 0.1, '
        '"value": 0.2}]}',
        json.dumps(RESULT).replace('"phi": -0.5', '"phi": -0.5, "phi": 0.0'),
    ],
    ids=["top-level", "entry", "result"],
)
def test_a_name_given_twice_is_refused(text):
    # json alone keeps the last value: a Reuleaux file with two widths would
    # validate at the second
    with pytest.raises(ShapeFormatError, match="appears twice in one object"):
        loads_shape(text)


@pytest.mark.parametrize(
    "change",
    [
        {"seed": None},  # a missing key
        {"extra": 1},
        {"equivalence_warning": True},  # dim 2 has none
        {"area": None},
        {"phi": "x"},
        {"iterations": 2.0},
        {"seed": True},
        {"violation": 1.5},
        {"sign_consistency": -0.1},
        {"timestamp": 5},
        {"dim": 4},
    ],
)
def test_result_file_schema_is_strict(change):
    payload = {k: v for k, v in {**RESULT, **change}.items() if v is not None or k == "area"}
    with pytest.raises(ShapeFormatError):
        loads_shape(json.dumps(payload))


@pytest.mark.parametrize(
    "payload",
    [{"dim": 2, "width": 1.0, "coeffs": []}, {"dim": 3, "width": 1.0, "coeffs": []}, RESULT,
     RESULT_3],
    ids=["shape-2", "shape-3", "result-2", "result-3"],
)
def test_dim_must_be_an_integer(payload):
    assert loads_shape(json.dumps(payload)).dim == payload["dim"]
    as_float = {**payload, "dim": float(payload["dim"])}
    with pytest.raises(ShapeFormatError, match=f"dim must be 2 or 3, got {as_float['dim']!r}"):
        loads_shape(json.dumps(as_float))


@pytest.mark.parametrize("change", [{"area": 1.0}, {"equivalence_warning": False}])
def test_dim3_result_file_has_no_area_and_a_warning(change):
    loads_shape(json.dumps(RESULT_3))
    with pytest.raises(ShapeFormatError, match="dim-3"):
        loads_shape(json.dumps({**RESULT_3, **change}))


def test_duplicate_entries_rejected():
    text = json.dumps(
        {
            "dim": 2,
            "width": 1.0,
            "coeffs": [
                {"degree": 3, "part": "cos", "value": 0.5},
                {"degree": 3, "part": "cos", "value": 0.25},
            ],
        }
    )
    with pytest.raises(ShapeFormatError, match="duplicate"):
        loads_shape(text)


@pytest.mark.parametrize("dim,key,limit", [(2, {"part": "cos"}, 4096), (3, {"order": 0}, 255)])
def test_degree_limit_per_dim(dim, key, limit):
    def text(degree):
        entry = {"degree": degree, **key, "value": 0.5}
        return json.dumps({"dim": dim, "width": 1.0, "coeffs": [entry]})

    with pytest.raises(ShapeFormatError, match=f"dim-{dim} limit of {limit}"):
        loads_shape(text(limit + 1))
    assert loads_shape(text(limit)).coeffs.max_degree == limit


@pytest.mark.parametrize("dim,limit", [(2, 4096), (3, 255)])
def test_writer_refuses_what_the_reader_refuses(dim, limit):
    # the cap applies to the highest nonzero degree actually written
    coeffs = zero_coeffs(dim, limit + 1)
    assert loads_shape(dumps_shape(dim, 1.0, coeffs.values.tolist())).coeffs.max_degree == 0
    values = coeffs.values.copy()
    values[-1] = 0.5
    with pytest.raises(ShapeFormatError, match=f"degree {limit + 1} is above the dim-{dim} limit"):
        dumps_shape(dim, 1.0, values.tolist())


def test_nonfinite_value_rejected():
    with pytest.raises(ShapeFormatError):
        entries_to_coeffs(2, [{"degree": 2, "part": "cos", "value": float("nan")}])


@settings(deadline=None, max_examples=30)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 12), st.sampled_from(["cos", "sin"])),
        st.floats(-10, 10, allow_nan=False).filter(lambda v: v != 0.0),
        max_size=8,
    )
)
def test_roundtrip_random_sparse(entries):
    L = 12
    c = zero_coeffs(2, L).values.copy()
    for (deg, part), val in entries.items():
        if deg == 0 and part == "sin":
            continue
        c[index2(deg, part)] = val
    coeffs = SpectralCoeffs(2, L, c)
    back = loads_shape(dumps_shape(2, 1.0, coeffs.values.tolist())).coeffs
    # degrees above the highest nonzero entry are trimmed, values survive
    assert np.array_equal(back.values, coeffs.values[: back.values.size])
    assert np.all(coeffs.values[back.values.size :] == 0.0)


def test_write_text_atomic_roundtrip(tmp_path):
    target = tmp_path / "shape.json"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["shape.json"]  # no temp litter


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_write_text_atomic_gives_the_mode_of_a_new_file(tmp_path, umask, mode):
    # mkstemp makes its file 0o600 whatever the umask; the renamed file must not keep that
    target, plain = tmp_path / "shape.json", tmp_path / "plain.txt"
    saved = os.umask(umask)
    try:
        write_text_atomic(str(target), "data")
        plain.write_text("data")
        write_text_atomic(str(plain), "replaced")
    finally:
        os.umask(saved)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (target, plain)] == [mode, mode]


def test_write_text_atomic_failure_leaves_no_partial(tmp_path):
    missing = tmp_path / "no_such_dir" / "shape.json"
    with pytest.raises(OSError):
        write_text_atomic(str(missing), "data")
    assert os.listdir(tmp_path) == []


HUGE = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "width": HUGE, "coeffs": []},
        {"dim": 2, "width": 1.0, "coeffs": [{"degree": 3, "part": "cos", "value": HUGE}]},
        {"dim": 3, "width": 1.0, "coeffs": [{"degree": 3, "order": 1, "value": -HUGE}]},
        {"dim": 2, "width": 1.0, "switches": [0.5, HUGE, 2.0], "coeffs": []},
        {**RESULT, "width": HUGE},
        {**RESULT, "phi": HUGE},
        {**RESULT, "area": HUGE},
        {**RESULT, "violation": HUGE},
        {**RESULT, "switches": [0.5, 1.0, HUGE]},
        {**RESULT, "coeffs": [{"degree": 3, "part": "cos", "value": HUGE}]},
    ],
    ids=["width", "value-2", "value-3", "shape-switch", "result-width", "phi", "area",
         "violation", "result-switch", "result-value"],
)
def test_integers_too_large_for_a_float_are_refused(payload):
    with pytest.raises(ShapeFormatError, match="must be a finite number"):
        loads_shape(json.dumps(payload))


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["digits", "nesting"])
def test_text_the_json_parser_cannot_take_is_malformed(text):
    # past the interpreter's integer digit limit, or nested past its recursion limit
    with pytest.raises(ShapeFormatError, match="not valid JSON"):
        loads_shape(text)


SWITCHED = {"dim": 2, "width": 2.0, "switches": [0.5, 1.5, 2.5],
            "coeffs": [{"degree": 0, "part": "cos", "value": 2.5}]}


def test_shape_file_switches_round_trip():
    coeffs = entries_to_coeffs(2, SWITCHED["coeffs"])
    text = dumps_shape(2, 2.0, coeffs.values.tolist(), (0.5, 1.5, 2.5))
    assert list(json.loads(text)) == ["dim", "width", "switches", "coeffs"]
    f = loads_shape(text)
    assert (f.dim, f.width, f.max_degree, f.values, f.switches) == (2, 2.0, 0, [2.5], (0.5, 1.5, 2.5))
    assert loads_shape(json.dumps(SWITCHED)) == f


@pytest.mark.parametrize(
    "switches", ["0.5", [0.5, "1.0", 2.0], [0.5, None], [0.1] * 256, [0.5, float("nan")]],
    ids=["not-a-list", "text-angle", "null-angle", "too-many", "nan-angle"])
def test_shape_file_switches_follow_the_result_file_rules(switches):
    with pytest.raises(ShapeFormatError, match="switch"):
        loads_shape(json.dumps({**SWITCHED, "switches": switches}))


def test_switches_belong_to_dim2_shape_files_only():
    payload = {"dim": 3, "width": 1.0, "switches": [0.5], "coeffs": []}
    with pytest.raises(ShapeFormatError, match="top-level keys must be dim/width/coeffs, got"):
        loads_shape(json.dumps(payload))
    with pytest.raises(ShapeFormatError, match="dim-2"):
        dumps_shape(3, 1.0, [0.0] * 4, [0.5])
    with pytest.raises(ShapeFormatError, match="at most 255"):
        dumps_shape(2, 1.0, [0.0] * 3, [0.1] * 256)


TIMESTAMP = "2024-01-01T00:00:00+00:00"
# the strings the writer takes: printable ASCII but the quote and the backslash
PLAIN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
WRITER_PAYLOADS = {
    "shape-2": {"dim": 2, "width": 1.3, "coeffs": SWITCHED["coeffs"]},
    "shape-2-switches": {**SWITCHED, "switches": [-0.0, 1e-300, 2.5]},
    "shape-3": {"dim": 3, "width": 0.5, "coeffs": [{"degree": 3, "order": -2, "value": -1e-300}]},
    "empty-coeffs": {"dim": 2, "width": 1.0, "coeffs": []},
    "empty-switches": {"dim": 2, "width": 1.0, "switches": [], "coeffs": []},
    "result-2": {**RESULT, "switches": [0.5, 1.5, 2.5]},
    "result-3": {**RESULT_3, "timestamp": TIMESTAMP},
    "numpy-floats": {**RESULT, "width": np.float64(2.0), "phi": np.float64(-0.1),
                     "coeffs": [{"degree": 3, "part": "sin", "value": np.float64(1 / 3)}]},
    "strings": {"timestamp": PLAIN},
}


@pytest.mark.parametrize("payload", WRITER_PAYLOADS.values(), ids=WRITER_PAYLOADS)
def test_writer_is_the_json_encoder_byte_for_byte(payload):
    assert shapeio._dumps(payload) == json_text(payload)


@settings(deadline=None, max_examples=60)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(PLAIN)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(PLAIN, max_size=8), inner, max_size=4)),
    max_leaves=20,
))
def test_writer_is_the_json_encoder_on_any_nesting(payload):
    assert shapeio._dumps(payload) == json_text(payload)


@pytest.mark.parametrize("text", ['quote "', "back \\", "tab \t", "nul \0", "del \x7f",
                                  "e\u0301", "\u00e9", "\U0001f600"],
                         ids=["quote", "backslash", "tab", "nul", "del", "combining", "latin-1",
                              "astral"])
def test_writer_refuses_a_string_it_cannot_write_plainly(text):
    # json would escape each of these; no file here holds one
    for payload in ({"timestamp": text}, {text: 1}, [text]):
        with pytest.raises(ShapeFormatError, match="cannot write the string"):
            shapeio._dumps(payload)


def entry(degree, key, value):
    return {"degree": degree, "part" if isinstance(key, str) else "order": key, "value": value}


@pytest.mark.parametrize("dim, values, switches, entries", [
    (2, [1.25, 0.0, -0.0, 1e-300, 0.0, -0.5, 0.125], (0.5, 1.5, 2.5),
     [entry(0, "cos", 1.25), entry(2, "cos", 1e-300), entry(3, "cos", -0.5),
      entry(3, "sin", 0.125)]),
    (2, [0.0] * 9, None, []),
    (2, [np.float64(0.75)] + [0.0] * 5 + [np.float64(-1e-300)], [np.float64(0.1)],
     [entry(0, "cos", np.float64(0.75)), entry(3, "sin", np.float64(-1e-300))]),
    (3, [0.5, 0.0, 1e-300, -0.0, 0.0, 0.0, -0.75, 0.0, 2.0], None,
     [entry(0, 0, 0.5), entry(1, 0, 1e-300), entry(2, 0, -0.75), entry(2, 2, 2.0)]),
], ids=["dim2-switches", "dim2-zeros", "numpy-floats", "dim3"])
def test_dumps_shape_writes_the_json_of_its_payload(dim, values, switches, entries):
    payload = {"dim": dim, "width": 1.3}
    if switches is not None:
        payload["switches"] = list(switches)
    payload["coeffs"] = entries
    assert dumps_shape(dim, 1.3, values, switches) == json_text(payload)


@pytest.mark.parametrize("width, values", [
    (1.0, [float("nan"), 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]),
    (1.0, [1.0, 0.0, 0.0, -float("inf"), 0.0]),
    (float("nan"), [1.0]),
    (float("inf"), [1.0]),
    (0.0, [1.0]),
    (-1.0, [1.0]),
], ids=["nan-value", "inf-value", "nan-width", "inf-width", "zero-width", "negative-width"])
def test_writer_refuses_what_the_reader_refuses_as_a_number(width, values):
    # loads_shape would refuse the file: it took NaN as a value, and no width <= 0
    with pytest.raises(ShapeFormatError, match="finite number"):
        dumps_shape(2, width, values)
