import json

from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import fibration, formats
from k3lat.fibration import DeclaredCurve
from k3lat.graph import CurveVertex

from oracles import rows_reference

# every table an input file's arrays are read with, and its builder
TABLES = [
    (formats._VERTEX_COLUMNS, CurveVertex),
    (formats._EDGE_COLUMNS, lambda *edge: edge),
    (formats._FIBER_COLUMNS, fibration._fibers),
    (formats._CURVE_COLUMNS, DeclaredCurve),
]
TYPED = {
    str: st.sampled_from(["", "v0", "v1", "I4", "I*2", "I*19", "II", "IV*"]),
    int: st.integers(min_value=-5, max_value=30),
}
SCALARS = st.one_of(st.none(), st.booleans(), st.floats(-2, 2, width=16), *TYPED.values())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=1), st.dictionaries(st.just("k"), SCALARS))


def _read(rows, objects, columns, build):
    text = json.dumps({"payload": {"items": objects}})
    payload = formats.read_json(text, "x.json").typed("payload", dict)
    try:
        return rows(payload, "items", columns, build)
    except formats.ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rows_match_the_object_by_object_read(data):
    # the column-wise check and the read object by object agree on every
    # array: the same built rows, or the same first error, byte for byte
    columns, build = data.draw(st.sampled_from(TABLES))
    valid = st.fixed_dictionaries({name: TYPED[kind] for name, (kind, _) in columns.items()})
    loose = st.dictionaries(st.sampled_from([*columns, "extra"]), VALUES, max_size=4)
    objects = data.draw(st.lists(st.one_of(valid, valid, loose, VALUES), max_size=5))
    got = _read(formats.Fields.rows, objects, columns, build)
    assert got == _read(rows_reference, objects, columns, build)
