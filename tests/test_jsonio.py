"""Stable JSON emission and the operator reader."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrealize.cli import _read_json_file
from qrealize.jsonio import dumps, format_float, loads, operator_from_json
from qrealize.qmp import MProductState, hierarchy_check, scenario
from qrealize.tensor import DensityOperator, Operator, space

from reference import operator_to_json, write_json


def test_format_float_exact_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-2.5e-8) == "-2.4999999999999999e-08"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        format_float(bad)
    with pytest.raises(ValueError):
        dumps({"x": bad})


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_float64(x):
    assert float(format_float(x)) == x


def test_dumps_matches_stdlib_semantics():
    doc = {"a": [1, 2.5, None, True, False, "s"], "b": {"c": -3}}
    assert json.loads(dumps(doc)) == doc
    assert json.loads(dumps(doc, indent=2)) == doc


def test_dumps_is_byte_stable_and_order_preserving():
    doc = {"z": 1, "a": 2}
    assert dumps(doc) == '{"z":1,"a":2}'
    assert dumps(doc) == dumps({"z": 1, "a": 2})


def test_dumps_handles_numpy_scalars():
    """numpy scalars are written as the Python bool, int or float of the same
    value (float16/float32 at their exact double value); these are the bytes
    the emitter wrote when it imported numpy eagerly."""
    doc = {"b": np.bool_(False), "t": np.bool_(True), "i": np.int64(-7),
           "u": np.uint8(200), "f16": np.float16(0.1), "f32": np.float32(0.1),
           "f64": np.float64(1 / 3), "ld": np.longdouble(0.25),
           "l": [np.float32(2.5), np.int32(3), np.float64(0.1)]}
    assert dumps(doc) == (
        '{"b":false,"t":true,"i":-7,"u":200,"f16":0.0999755859375,'
        '"f32":0.10000000149011612,"f64":0.33333333333333331,"ld":0.25,'
        '"l":[2.5,3,0.10000000000000001]}')
    assert dumps(doc, indent=2) == (
        '{\n  "b": false,\n  "t": true,\n  "i": -7,\n  "u": 200,\n'
        '  "f16": 0.0999755859375,\n  "f32": 0.10000000149011612,\n'
        '  "f64": 0.33333333333333331,\n  "ld": 0.25,\n'
        '  "l": [\n    2.5,\n    3,\n    0.10000000000000001\n  ]\n}')


def _per_item(values, indent):
    """A flat list as the per-item emitter writes it, at top level."""
    items = [str(x) if type(x) is int else format_float(x) for x in values]
    if indent is None:
        return "[" + ",".join(items) + "]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + "\n]"


FIXED_FLOATS = [-0.0, 5e-324, 1.0, 1e16, 0.1]


@pytest.mark.parametrize("indent", [None, 2])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_flat_float_list_bytes_match_per_item_format(indent, values):
    for vals in (values, FIXED_FLOATS, values + FIXED_FLOATS):
        assert dumps(vals, indent) == _per_item(vals, indent)
        assert dumps(tuple(vals), indent) == _per_item(vals, indent)


def test_flat_float_list_rejects_non_finite():
    with pytest.raises(ValueError, match="cannot serialize non-finite float inf"):
        dumps({"x": [1.0, math.inf]})
    with pytest.raises(ValueError, match="non-finite float nan"):
        dumps([math.nan])


@pytest.mark.parametrize("indent", [None, 2])
def test_mixed_and_numpy_float_lists_give_the_same_bytes(indent):
    """Lists that are not all plain floats take the per-item path."""
    mixed = [0.5, -0.0, 1, 5e-324, 1e16, 0.1]
    assert dumps(mixed, indent) == _per_item(mixed, indent)
    assert dumps([np.float64(x) for x in FIXED_FLOATS], indent) \
        == _per_item(FIXED_FLOATS, indent) == dumps(FIXED_FLOATS, indent)
    nested = {"w": FIXED_FLOATS, "v": [FIXED_FLOATS]}
    as_numpy = {"w": [np.float64(x) for x in FIXED_FLOATS],
                "v": [[np.float64(x) for x in FIXED_FLOATS]]}
    assert dumps(nested, indent) == dumps(as_numpy, indent)


def test_dumps_rejects_unserializable():
    for bad in (object(), np.complex128(1 + 2j), np.array(1.0)):
        with pytest.raises(TypeError, match=re.escape(str(type(bad)))):
            dumps({"x": bad})
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


_FLOAT_TOKEN = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+")


def test_level2_triangle_certificate_bytes_match_the_stdlib_layout():
    """A level-2 certificate is the stdlib's indent-2 layout with every float
    written at 17 significant digits."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = 0.8 * np.outer(singlet, singlet) + 0.05 * np.eye(4)
    contexts = ("AB", "AC", "BC")
    scen = scenario((("A", 2), ("B", 2), ("C", 2)), contexts)
    state = MProductState(scen, tuple(
        DensityOperator(Operator(space((c[0], 2), (c[1], 2)), rho)) for c in contexts))
    record = hierarchy_check(state, 2).to_json()
    assert record["verdict"] == "VIOLATED" and len(record["witness_re"]) == 4096
    text = dumps(record, indent=2)
    reference = _FLOAT_TOKEN.sub(lambda m: format_float(float(m.group())),
                                 json.dumps(record, indent=2))
    assert text == reference
    assert json.loads(text) == record


def test_loads_reports_position_on_malformed_text():
    with pytest.raises(json.JSONDecodeError) as err:
        loads('{"a": 1,}')
    assert err.value.lineno == 1


def test_operator_round_trip():
    sp = space(("A", 2), ("B", 2))
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = Operator(sp, m)
    back = operator_from_json(json.loads(dumps(operator_to_json(op))))
    assert back.space == sp
    assert np.array_equal(back.mat, op.mat)


def test_operator_from_json_defaults_imaginary_to_zero():
    doc = {"labels": [{"name": "A", "dim": 2}], "re": [[1.0, 0.0], [0.0, 0.0]]}
    op = operator_from_json(doc)
    assert np.array_equal(op.mat, np.diag([1.0, 0.0]).astype(complex))


def test_operator_from_json_accepts_label_pairs():
    pairs = {"labels": [["A", 2], ["B", 2]], "re": np.eye(4).tolist()}
    dicts = {"labels": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
             "re": np.eye(4).tolist()}
    assert operator_from_json(pairs).space == operator_from_json(dicts).space


def test_operator_from_json_rejects_malformed_labels():
    for labels in (["A"], [["A", 2, 3]], [["A", "two"]], [["A", 2.5]]):
        with pytest.raises((TypeError, ValueError)):
            operator_from_json({"labels": labels, "re": [[1.0]]})


def test_write_and_read_json(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"verdict": "CONSISTENT", "gap": -1.25e-17}
    write_json(str(path), doc)
    text = path.read_text()
    assert text.endswith("\n")
    assert _read_json_file(str(path)) == doc
    # indented, parseable by the stdlib
    assert json.loads(text) == doc
