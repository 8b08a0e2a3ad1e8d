"""The shipped catalog of named configurations, fibration profiles and
extremal fibrations, each with an expected-results block that is recomputed
on demand.

``verify_catalog`` re-derives every expected value from the live engines,
so it doubles as the integration test of the whole package.  It computes
no lattice data of its own: a config entry reads its classification,
entry sum, bound checks and exclusions off one span of
:mod:`k3lat.bounds` (``bounds._Span``), which owns the entry's Gram
matrix, classifies it once, eliminates each support once by
:func:`k3lat.bounds._support` and builds each certificate of a support and
cap once.  So a degenerate configuration
has no entry sum and no bound, an input error
(:class:`k3lat.bounds.DegenerateLatticeError`), and each distinct
certificate is verified once, by :func:`k3lat.bounds.verify_certificate`,
which shares nothing with the span.  The extremal
entries are trusted literature data, kept only in their catalog files; each
payload is read by the profile schema (:func:`k3lat.formats.profile_from_data`)
once, at load.  Every object of a catalog file goes through the one reader
:class:`k3lat.formats.Fields`, so a missing field, one of the wrong JSON
type, or an expected-block field that the table of checked fields does not
know, is an input error naming the file and the field; so is an error in
an entry's example file.  The data directory can be overridden with the
``K3LAT_CATALOG_DIR`` environment variable (it must contain ``catalog/``
and ``examples/`` subdirectories).
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import bounds, fibration, formats, kodaira, roots


CATALOG_ENV_VAR = "K3LAT_CATALOG_DIR"
_PACKAGE_DATA = Path(__file__).parent / "data"


def data_root() -> Path:
    override = os.environ.get(CATALOG_ENV_VAR)
    return Path(override) if override else _PACKAGE_DATA


class CatalogEntry(NamedTuple):
    name: str
    kind: str
    description: str
    source: str
    expected: formats.Fields
    file: str | None = None
    payload: formats.Fields | None = None
    profile: fibration.FibrationProfile | None = None


# the JSON type of each field of an expected block, nested objects included,
# and of the members of its array and object fields
_EXPECTED_TYPES = {
    "budget_ok": bool, "passes": bool, "restricted": bool,
    "vertex_count": int, "component_total": int, "component_bound": int,
    "st_rank_mw0": int, "hits": int, "d": int, "h": int, "bound": int,
    "classification": str, "entry_sum": str, "value": str, "status": str,
    "count": str, "threshold": str, "mordell_weil": str,
    "rough_bound": dict, "box_bound": dict, "sd_bound": dict, "kodaira": dict,
    "decomposition": list, "failed": list, "exclusions": list,
}
_EXPECTED_ITEMS = {"decomposition": str, "failed": str, "kodaira": int, "exclusions": dict}


def _read_expected(block: formats.Fields) -> formats.Fields:
    """The block, each field type-checked by the table, one it does not
    know rejected, and each nested object read in place as Fields; the keys
    of ``kodaira`` are fibre tags, not fields."""
    block.only(*_EXPECTED_TYPES)
    for key in block:
        kind, items = _EXPECTED_TYPES[key], _EXPECTED_ITEMS.get(key)
        value = block.typed(key, kind, items=items)
        if kind is dict and items is None:
            block[key] = _read_expected(value)
        elif items is dict:
            block[key] = [_read_expected(case) for case in value]
    return block


def _read_entry(path: Path) -> CatalogEntry:
    data = formats.read_json(path.read_text(), path.name)
    kind = data.typed("kind", str)
    if kind not in _VERIFIERS:
        raise data.error(f"unknown kind {kind!r}")
    payload = profile = None
    if kind == "extremal":
        payload = data.typed("payload", dict)
        profile = formats.profile_from_data(payload, extra=("table_name",))
    return CatalogEntry(
        name=data.typed("name", str),
        kind=kind,
        description=data.typed("description", str),
        source=data.typed("source", str),
        expected=_read_expected(data.typed("expected", dict)),
        file=data.typed("file", str, None),
        payload=payload,
        profile=profile,
    )


def load_catalog() -> list[CatalogEntry]:
    cat_dir = data_root() / "catalog"
    paths = sorted(cat_dir.glob("*.json"), key=lambda path: path.name)
    entries = [_read_entry(path) for path in paths]
    if not entries:
        raise formats.ValidationError(f"no catalog entries in {cat_dir}")
    return sorted(entries, key=lambda e: e.name)


def get_entry(name: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def entry_file_text(entry: CatalogEntry) -> str:
    if entry.file is None:
        raise ValueError(f"entry {entry.name!r} has no payload file")
    return (data_root() / "examples" / entry.file).read_text()


def _lookup_key(prof: fibration.FibrationProfile) -> tuple:
    return prof.characteristic, prof.quasi_elliptic, tuple(sorted(prof.tags()))


def extremal_lookup(
    prof: fibration.FibrationProfile, entries: list[CatalogEntry]
) -> list[CatalogEntry]:
    """The extremal entries whose characteristic, fibration kind and full
    singular-fibre multiset match the profile; wild terms are ignored."""
    key = _lookup_key(prof)
    return [e for e in entries if e.kind == "extremal" and _lookup_key(e.profile) == key]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    expected: str
    actual: str


class EntryReport(NamedTuple):
    name: str
    kind: str
    ok: bool
    checks: tuple[CheckResult, ...]


def _check(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, expected == actual, str(expected), str(actual))


def _verify_config_entry(entry: CatalogEntry, entries: list[CatalogEntry]) -> list[CheckResult]:
    doc = formats.parse_config(entry_file_text(entry), entry.file)
    cfg = doc.config
    exp = entry.expected
    checks = []
    # equal certificates, as the box bound and the exclusions of one support
    # often are, are verified once
    verify = cache(lambda cert: bounds.verify_certificate(cert, cfg))
    span = bounds._Span(cfg)
    if "vertex_count" in exp:
        checks.append(_check("vertex_count", exp["vertex_count"], cfg.n))
    if "classification" in exp:
        checks.append(_check("classification", exp["classification"], span.cls.kind.value))
    if "decomposition" in exp:
        names = roots.decompose(cfg).names()
        checks.append(_check("decomposition", sorted(exp["decomposition"]), names))
    if "kodaira" in exp:
        found = Counter(d.tag for d in kodaira.find_kodaira_divisors(cfg))
        checks.append(_check("kodaira", dict(exp["kodaira"]), dict(found)))
    if "entry_sum" in exp:
        inverse = span.support(span.whole)[2]
        total = formats.format_fraction(Fraction(sum(inverse.sums), inverse.det))
        checks.append(_check("entry_sum", exp["entry_sum"], total))
    for key, build in (("rough_bound", span.rough_bound), ("box_bound", span.box_certificate)):
        if key in exp:
            cert = build(exp[key]["d"])
            actual = formats.format_fraction(cert.bound_on_2h) if verify(cert) else "unverified"
            checks.append(_check(key, exp[key]["value"], actual))
    cases = exp.get("exclusions", ())
    verdicts = span.exclude_all([(case["d"], case["h"]) for case in cases])
    for case, verdict in zip(cases, verdicts):
        certs_ok = all(map(verify, verdict.certificates))
        checks.append(
            _check(
                f"exclude(d={case['d']}, h={case['h']})",
                case["status"],
                verdict.status.value if certs_ok else "certificate failed",
            )
        )
    return checks


def _verify_profile_entry(entry: CatalogEntry, entries: list[CatalogEntry]) -> list[CheckResult]:
    prof = formats.parse_profile(entry_file_text(entry), entry.file)
    exp = entry.expected
    report = fibration.budget_check(prof)
    checks = [
        _check("budget_ok", exp["budget_ok"], report.ok),
        _check("component_total", exp["component_total"], report.component_total),
        _check(
            "component_bound",
            exp["component_bound"],
            fibration.rational_component_bound(prof),
        ),
        _check(
            "st_rank_mw0", exp["st_rank_mw0"], fibration.shioda_tate_rank(prof, 0)
        ),
    ]
    if "sd_bound" in exp:
        want = exp["sd_bound"]
        ctx = fibration.SurfaceContext(characteristic=prof.characteristic or 0)
        got = fibration.sd_bound(ctx, restricted=want.get("restricted", False))
        checks.append(_check("sd_bound.bound", want["bound"], got.bound))
        checks.append(_check("sd_bound.count", want["count"], got.count))
        checks.append(
            _check(
                "sd_bound.threshold",
                want["threshold"],
                formats.format_fraction(got.h_threshold),
            )
        )
    return checks


def _verify_extremal_entry(entry: CatalogEntry, entries: list[CatalogEntry]) -> list[CheckResult]:
    prof = entry.profile
    exp = entry.expected
    hits = extremal_lookup(prof, entries)
    table_name = entry.payload.typed("table_name", str)
    self_hit = next((h for h in hits if h.name == table_name), None)
    checks = [
        _check("budget_ok", exp["budget_ok"], fibration.budget_check(prof).ok),
        _check("hits", exp["hits"], len(hits)),
        _check("contains_self", table_name, self_hit.name if self_hit else "missing"),
    ]
    if self_hit is not None:
        checks.append(
            _check("mordell_weil", exp["mordell_weil"], self_hit.expected["mordell_weil"])
        )
    return checks


def _verify_model_entry(entry: CatalogEntry, entries: list[CatalogEntry]) -> list[CheckResult]:
    model = formats.parse_model(entry_file_text(entry), entry.file)
    verdict = fibration.very_ample_check(model)
    exp = entry.expected
    checks = [_check("passes", exp["passes"], verdict.passed)]
    if "failed" in exp:
        checks.append(_check("failed", list(exp["failed"]), list(verdict.failed)))
    return checks


_VERIFIERS = {
    "config": _verify_config_entry,
    "profile": _verify_profile_entry,
    "extremal": _verify_extremal_entry,
    "model": _verify_model_entry,
}


def verify_entry(entry: CatalogEntry, entries: list[CatalogEntry]) -> EntryReport:
    """The checks of the entry's kind, ``ok`` when all of them pass."""
    checks = tuple(_VERIFIERS[entry.kind](entry, entries))
    return EntryReport(entry.name, entry.kind, all(c.ok for c in checks), checks)


def verify_catalog() -> list[EntryReport]:
    entries = load_catalog()
    return [verify_entry(e, entries) for e in entries]
