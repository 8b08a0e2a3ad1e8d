"""On-disk JSON formats: curve configurations, fibration profiles and
declared models.

Every JSON object of every input file, the catalog's included, is read by
one reader, :class:`Fields`, and :func:`profile_from_data` reads profile
files and the catalog's extremal payloads alike.

Exact rationals travel as strings ``"p/q"`` (or ``"p"``) so nothing is
ever rounded.  Serialization is canonical: fixed key order, two-space
indent, trailing newline; parse-serialize round-trips are the identity on
canonical files.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from operator import methodcaller

from .fibration import DeclaredCurve, DeclaredModel, FibrationProfile, _fibers
from .graph import CurveConfig, CurveVertex


class ValidationError(ValueError):
    """Input breaking the schema: every input error is one."""


class ParseError(ValidationError):
    """The text is not well-formed JSON, or its top level is not an object."""


def format_fraction(x: Fraction | int) -> str:
    return str(Fraction(x))


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {s!r}: {exc}") from exc


_REQUIRED = object()
_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", str: "a string",
               int: "an integer", bool: "a boolean"}


def _is(value, kind: type) -> bool:
    # a JSON true or false is never an integer
    return type(value) is kind or (kind is not int and isinstance(value, kind))


class Fields(dict):
    """One JSON object of an input file, from :func:`read_json` or, nested,
    from :meth:`typed`.  A missing field, or one of the wrong JSON type, is a
    :class:`ValidationError` naming the file (or the kind of input), the
    field, and the path to the object when it is nested (``in fibers[2]``)."""

    __slots__ = ("where", "path")

    def error(self, text: str) -> ValidationError:
        at = f" in {self.path}" if self.path else ""
        return ValidationError(f"{self.where}: {text}{at}")

    def __missing__(self, key):
        raise self.error(f"missing field {key!r}")

    def _nested(self, data: dict, key: str) -> Fields:
        nested = Fields(data)
        nested.where, nested.path = self.where, f"{self.path}.{key}" if self.path else key
        return nested

    def only(self, *keys: str) -> None:
        for key in self:
            if key not in keys:
                raise self.error(f"unknown fields {sorted(self.keys() - keys)}")

    def typed(self, key: str, kind: type, default=_REQUIRED, items: type | None = None):
        """The field ``key`` of the JSON type ``kind``, each member of the array
        or object of the type ``items``, or ``default`` when it is absent.
        Objects come back as :class:`Fields`, arrays of objects as lists."""
        if default is not _REQUIRED and key not in self:
            return default
        value = self[key]
        if type(value) is not kind and not _is(value, kind):
            raise self.error(f"field {key!r} is not {_JSON_TYPES[kind]}")
        if kind is dict:
            value = self._nested(value, key)
        if items is not None:
            if not all(_is(m, items) for m in (value.values() if kind is dict else value)):
                raise self.error(f"an item of field {key!r} is not {_JSON_TYPES[items]}")
            if items is dict and kind is list:
                value = [self._nested(m, f"{key}[{k}]") for k, m in enumerate(value)]
        return value

    def rows(self, key: str, columns: dict, build) -> list:
        """``build(*fields)`` for each object of the array ``key``, its
        fields in the order of ``columns``, a map from each to its scalar
        JSON type and default.  The array is checked a column at a time;
        only if that or ``build`` fails is it read again object by object,
        with :meth:`only` and :meth:`typed`, to raise the first wrong
        object's error, naming it (``in vertices[2]``)."""
        objects = self.typed(key, list)
        if set(map(type, objects)) <= {dict} and set().union(*objects) <= columns.keys():
            values = [list(map(methodcaller("get", name, fallback), objects))
                      for name, (_, fallback) in columns.items()]
            if all(set(map(type, column)) <= {kind}
                   for column, (kind, _) in zip(values, columns.values())):
                try:
                    return list(map(build, *values))
                except ValueError:
                    pass
        out = []
        for obj in self.typed(key, list, items=dict):
            obj.only(*columns)
            fields = [obj.typed(name, *spec) for name, spec in columns.items()]
            try:
                out.append(build(*fields))
            except ValueError as exc:
                raise obj.error(str(exc)) from exc
        return out


def read_json(text: str, where: str) -> Fields:
    """The top-level object of one input file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:  # an int past int(str)'s digit limit
        raise ParseError(f"{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level is not a JSON object")
    fields = Fields(data)
    fields.where, fields.path = where, ""
    return fields


class ConfigDocument(namedtuple("ConfigDocument", "config metadata")):
    __slots__ = ()

    def __new__(cls, config: CurveConfig, metadata: dict | None = None):
        # each document gets its own metadata dict
        return super().__new__(cls, config, {} if metadata is None else metadata)


_VERTEX_COLUMNS = {"id": (str, _REQUIRED), "square": (int, _REQUIRED), "degree": (int, 1)}
_EDGE_COLUMNS = {"a": (str, _REQUIRED), "b": (str, _REQUIRED), "mult": (int, 1)}


def parse_config(text: str, where: str = "config") -> ConfigDocument:
    """Parse a configuration file; its errors name it ``where``.

    Schema: ``{"name": str, "vertices": [{"id", "square", "degree"?}],
    "edges": [{"a", "b", "mult"?}], "metadata": {...}}``.  Degree defaults
    to 1, edge multiplicity defaults to 1.
    """
    data = read_json(text, where)
    data.only("name", "vertices", "edges", "metadata")
    name = data.typed("name", str, "")
    vertices = data.rows("vertices", _VERTEX_COLUMNS, CurveVertex)
    if not vertices:
        raise data.error("needs at least one vertex")
    edges = data.rows("edges", _EDGE_COLUMNS, lambda *edge: edge) if "edges" in data else []
    metadata = dict(data.typed("metadata", dict, {}))
    try:
        config = CurveConfig(vertices, edges, name=name)
    except ValueError as exc:
        raise data.error(str(exc)) from exc
    return ConfigDocument(config, metadata)


def serialize_config(doc: ConfigDocument) -> str:
    cfg = doc.config
    data = {
        "name": cfg.name,
        "vertices": [
            {"id": v.id, "square": v.square, "degree": v.degree}
            for v in cfg.vertices
        ],
        "edges": [
            {"a": a, "b": b, "mult": m} for a, b, m in cfg.edge_items()
        ],
        "metadata": {k: doc.metadata[k] for k in sorted(doc.metadata)},
    }
    return json.dumps(data, indent=2) + "\n"


_FIBER_COLUMNS = {"type": (str, _REQUIRED), "count": (int, _REQUIRED), "delta": (int, 0)}


def profile_from_data(data: Fields, extra: tuple[str, ...] = ()) -> FibrationProfile:
    """The fibration profile one JSON object holds, besides its ``extra``
    fields.  Schema: ``{"quasi_elliptic": bool, "characteristic": int |
    null, "fibers": [{"type": str, "count": int, "delta"?: int}]}``.  Each
    fibre row is read by :func:`~k3lat.fibration._fibers`, the rule of
    :func:`~k3lat.fibration.profile`."""
    data.only("quasi_elliptic", "characteristic", "fibers", *extra)
    qe = data.typed("quasi_elliptic", bool, False)
    char = None if data.get("characteristic") is None else data.typed("characteristic", int)
    fibers = sum(data.rows("fibers", _FIBER_COLUMNS, _fibers), [])
    try:
        return FibrationProfile(tuple(fibers), qe, char)
    except ValueError as exc:
        raise data.error(str(exc)) from exc


def parse_profile(text: str, where: str = "profile") -> FibrationProfile:
    """Parse a fibration profile file (schema in :func:`profile_from_data`);
    its errors name it ``where``."""
    return profile_from_data(read_json(text, where))


def serialize_profile(prof: FibrationProfile) -> str:
    groups: dict[tuple[str, int], int] = {}
    for f in prof.fibers:
        key = (f.type.tag, f.delta)
        groups[key] = groups.get(key, 0) + 1
    fibers = []
    for (tag, delta), count in sorted(groups.items()):
        entry = {"type": tag, "count": count}
        if delta:
            entry["delta"] = delta
        fibers.append(entry)
    data = {
        "quasi_elliptic": prof.quasi_elliptic,
        "characteristic": prof.characteristic,
        "fibers": fibers,
    }
    return json.dumps(data, indent=2) + "\n"


_CURVE_COLUMNS = {"label": (str, _REQUIRED), "pa": (int, _REQUIRED), "H_dot": (int, _REQUIRED)}


def parse_model(text: str, where: str = "model") -> DeclaredModel:
    """Parse a declared model for the very-ampleness checker; its errors
    name it ``where``.

    Schema: ``{"H_square": int, "H_two_divisible": bool,
    "curves": [{"label": str, "pa": int, "H_dot": int}]}``.
    """
    data = read_json(text, where)
    data.only("H_square", "H_two_divisible", "curves")
    h_square = data.typed("H_square", int)
    two_div = data.typed("H_two_divisible", bool, False)
    curves = data.rows("curves", _CURVE_COLUMNS, DeclaredCurve)
    try:
        return DeclaredModel(h_square, two_div, tuple(curves))
    except ValueError as exc:
        raise data.error(str(exc)) from exc


def serialize_model(model: DeclaredModel) -> str:
    data = {
        "H_square": model.h_square,
        "H_two_divisible": model.h_two_divisible,
        "curves": [
            {"label": c.label, "pa": c.genus, "H_dot": c.h_degree}
            for c in model.curves
        ],
    }
    return json.dumps(data, indent=2) + "\n"
