import json
from fractions import Fraction

import pytest

from k3lat import fibration
from k3lat.fibration import profile
from k3lat.formats import (
    ParseError,
    ValidationError,
    format_fraction,
    parse_config,
    parse_fraction,
    parse_model,
    parse_profile,
    profile_from_data,
    read_json,
    serialize_config,
    serialize_model,
    serialize_profile,
)


def test_parse_minimal_config():
    doc = parse_config('{"name": "one", "vertices": [{"id": "a", "square": -2}]}')
    assert doc.config.n == 1
    assert doc.config.vertices[0].degree == 1  # default


def test_parse_config_with_edges_and_metadata():
    text = json.dumps(
        {
            "name": "pair",
            "vertices": [
                {"id": "a", "square": -2, "degree": 2},
                {"id": "b", "square": 0},
            ],
            "edges": [{"a": "a", "b": "b"}],
            "metadata": {"characteristic": 3},
        }
    )
    doc = parse_config(text)
    assert doc.config.edge_mult("a", "b") == 1  # default mult
    assert doc.metadata == {"characteristic": 3}


def test_parse_config_duplicate_id():
    text = json.dumps(
        {"vertices": [{"id": "a", "square": -2}, {"id": "a", "square": -2}]}
    )
    with pytest.raises(ValidationError):
        parse_config(text)


def test_parse_config_needs_a_vertex():
    with pytest.raises(ValidationError, match="^config: needs at least one vertex$"):
        parse_config('{"vertices": []}')


def test_parse_config_odd_square():
    with pytest.raises(ValidationError):
        parse_config('{"vertices": [{"id": "a", "square": -1}]}')


def test_parse_config_dangling_edge():
    text = json.dumps(
        {
            "vertices": [{"id": "a", "square": -2}],
            "edges": [{"a": "a", "b": "zz"}],
        }
    )
    with pytest.raises(ValidationError):
        parse_config(text)


def test_parse_config_unknown_field():
    with pytest.raises(ValidationError):
        parse_config('{"vertices": [{"id": "a", "square": -2, "color": 1}]}')


def test_parse_config_bad_json_has_location():
    with pytest.raises(ParseError) as err:
        parse_config("{\n  broken\n}")
    assert "line 2" in str(err.value)


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="config: JSON nested too deeply"):
        parse_config("[" * 100_000 + "]" * 100_000)


def test_oversized_integer_is_a_parse_error():
    # json.loads raises a bare ValueError past int(str)'s digit limit
    text = '{"vertices": [{"id": "a", "square": ' + "2" * 5001 + "}]}"
    with pytest.raises(ParseError, match="^config: Exceeds the limit"):
        parse_config(text)


def test_parse_config_rejects_non_object():
    with pytest.raises(ParseError):
        parse_config("[1, 2]")


def test_config_round_trip_is_identity_on_canonical_form():
    doc = parse_config(
        json.dumps(
            {
                "name": "r",
                "vertices": [
                    {"id": "a", "square": -2, "degree": 1},
                    {"id": "b", "square": -2, "degree": 2},
                ],
                "edges": [{"a": "a", "b": "b", "mult": 2}],
                "metadata": {"k": "v"},
            }
        )
    )
    canon = serialize_config(doc)
    again = parse_config(canon)
    assert serialize_config(again) == canon
    assert again.config == doc.config
    assert again.metadata == doc.metadata


def test_profile_round_trip():
    prof = parse_profile(
        json.dumps(
            {
                "quasi_elliptic": True,
                "characteristic": 3,
                "fibers": [{"type": "IV", "count": 10}],
            }
        )
    )
    assert prof.quasi_elliptic
    assert len(prof.fibers) == 10
    text = serialize_profile(prof)
    assert parse_profile(text) == prof


def test_profile_round_trip_keeps_wild_terms():
    # fibres of one type with different wild terms are written as separate
    # groups, and only a nonzero delta is written
    prof = profile([("II", 2, 1), ("II", 1), ("I1", 3)], characteristic=2)
    text = serialize_profile(prof)
    groups = json.loads(text)["fibers"]
    assert groups == [
        {"type": "I1", "count": 3},
        {"type": "II", "count": 1},
        {"type": "II", "count": 2, "delta": 1},
    ]
    back = parse_profile(text)
    assert back == prof and sorted(f.delta for f in back.fibers) == [0, 0, 0, 0, 1, 1]


def test_profile_validation():
    with pytest.raises(ValidationError):
        parse_profile('{"fibers": [{"type": "Ix", "count": 1}]}')
    with pytest.raises(ValidationError):
        parse_profile('{"fibers": [{"type": "I2", "count": 0}]}')
    with pytest.raises(ValidationError):
        parse_profile(
            '{"quasi_elliptic": true, "characteristic": 5,'
            ' "fibers": [{"type": "IV", "count": 10}]}'
        )


def test_model_round_trip():
    model = parse_model(
        json.dumps(
            {
                "H_square": 8,
                "H_two_divisible": False,
                "curves": [{"label": "C", "pa": 0, "H_dot": 1}],
            }
        )
    )
    assert model.h_square == 8
    assert parse_model(serialize_model(model)) == model


def test_model_validation():
    with pytest.raises(ValidationError):
        parse_model('{"H_square": 7, "curves": []}')
    with pytest.raises(ValidationError):
        parse_model('{"H_square": 8, "curves": [{"label": "C"}]}')


def test_fraction_formatting():
    assert format_fraction(Fraction(185, 2)) == "185/2"
    assert format_fraction(Fraction(86)) == "86"
    assert parse_fraction("1640/21") == Fraction(1640, 21)
    with pytest.raises(ParseError):
        parse_fraction("abc")
    with pytest.raises(ParseError):
        parse_fraction("1/0")


@pytest.mark.parametrize(
    "fibre, error",
    [
        ({"type": "I2", "count": 200000}, "count 200000 is not in 1..24"),
        ({"type": "I1", "count": 25}, "count 25 is not in 1..24"),
        ({"type": "I1000000", "count": 1}, "Euler number above 24"),
        ({"type": "I25", "count": 1}, "Euler number above 24"),
        ({"type": "I*19", "count": 1}, "Euler number above 24"),
    ],
    ids=["count-200000", "count-25", "I1000000", "I25", "Istar19"],
)
def test_profile_size_is_bounded_before_any_fibre_is_built(monkeypatch, fibre, error):
    built = []
    real = fibration.fiber

    def spy(*args):
        built.append(args)
        assert len(built) <= 25, "more fibres built than a profile can hold"
        return real(*args)

    monkeypatch.setattr(fibration, "fiber", spy)
    with pytest.raises(ValidationError, match=error):
        parse_profile(json.dumps({"fibers": [fibre]}))
    assert built == []
    # the largest of each still reads
    for tag, count in (("I1", 24), ("I24", 1), ("I*18", 1)):
        built.clear()
        prof = parse_profile(json.dumps({"fibers": [{"type": tag, "count": count}]}))
        assert len(prof.fibers) == count


def test_fields_name_where_each_object_sits():
    # the kind of input (or the file), the field, and the nested object's path
    cases = [
        (
            parse_config,
            {"vertices": [{"id": "a", "square": -2}, {"id": "b", "square": True}]},
            r"config: field 'square' is not an integer in vertices\[1\]$",
        ),
        (
            parse_profile,
            {"fibers": [{"type": "I2"}]},
            r"profile: missing field 'count' in fibers\[0\]$",
        ),
        (
            parse_profile,
            {"fibers": [3]},
            "profile: an item of field 'fibers' is not a JSON object$",
        ),
        (
            parse_model,
            {"H_square": 8, "H_two_divisible": 1, "curves": []},
            "model: field 'H_two_divisible' is not a boolean$",
        ),
    ]
    for parse, data, error in cases:
        with pytest.raises(ValidationError, match=error):
            parse(json.dumps(data))
    data = read_json('{"payload": {"fibers": [{"type": "I2", "count": 1.5}]}}', "x.json")
    error = r"x.json: field 'count' is not an integer in payload.fibers\[0\]$"
    with pytest.raises(ValidationError, match=error):
        profile_from_data(data.typed("payload", dict))
