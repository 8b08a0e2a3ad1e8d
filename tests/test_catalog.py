import json
import re
import shutil
from collections import Counter

import pytest

from k3lat import bounds, catalog, exact, graph
from k3lat.catalog import (
    CATALOG_ENV_VAR,
    data_root,
    entry_file_text,
    extremal_lookup,
    get_entry,
    load_catalog,
    verify_catalog,
    verify_entry,
)
from k3lat.cli import main
from k3lat.fibration import budget_check, profile
from k3lat.formats import ValidationError, parse_config, profile_from_data, read_json
from oracles import extremal_lookup_reference


def test_catalog_has_at_least_twelve_entries():
    entries = load_catalog()
    assert len(entries) >= 12
    kinds = {e.kind for e in entries}
    assert kinds == {"config", "profile", "extremal", "model"}


def test_catalog_names_unique_and_sorted():
    names = [e.name for e in load_catalog()]
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_shipped_config_sizes():
    for name, n in [
        ("example-D6tilde", 10),
        ("char3-I3star-4sections", 12),
        ("char2-IVstar-3xA2", 13),
        ("fermat-I4-cycle", 4),
    ]:
        entry = get_entry(name)
        doc = parse_config(entry_file_text(entry))
        assert doc.config.n == n


def test_expected_extremal_entries_present():
    names = {e.name for e in load_catalog()}
    for required in [
        "extremal-I7-I7-IIstar",
        "qe3-3xE6tilde-A2-two-sections",
        "qe2-3xD6tilde-2xA1",
        "qe2-2xE7tilde-D6tilde",
        "ell2-A11tilde-E6tilde-A3",
        "qe3-2xE6tilde-E6-A2",
        "qe3-3xE6tilde-A2-three-sections",
    ]:
        assert required in names


def test_every_entry_verifies():
    reports = verify_catalog()
    failing = [
        (r.name, [(c.name, c.expected, c.actual) for c in r.checks if not c.ok])
        for r in reports
        if not r.ok
    ]
    assert failing == []
    assert len(reports) == len(load_catalog())


def test_verify_single_entry_checks_are_named():
    report = verify_entry(get_entry("char3-I3star-4sections"), load_catalog())
    names = [c.name for c in report.checks]
    assert "box_bound" in names
    assert "exclude(d=1, h=43)" in names


def test_env_var_override(tmp_path, monkeypatch):
    shutil.copytree(data_root(), tmp_path / "data")
    # drop one entry in the copy and make sure the override is honored
    (tmp_path / "data" / "catalog" / "fermat-I4-cycle.json").unlink()
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "data"))
    names = {e.name for e in load_catalog()}
    assert "fermat-I4-cycle" not in names
    assert "example-D6tilde" in names
    reports = verify_catalog()
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("action", ["list", "verify"])
def test_empty_catalog_is_an_input_error(tmp_path, monkeypatch, capsys, action):
    missing = tmp_path / "nonexistent"
    monkeypatch.setenv(CATALOG_ENV_VAR, str(missing))
    with pytest.raises(ValidationError, match="no catalog entries"):
        load_catalog()
    assert main(["catalog", action]) == 2
    assert str(missing / "catalog") in capsys.readouterr().err


@pytest.mark.parametrize(
    "file, path",
    [
        ("uniform-6xI4.json", ("expected", "budget_ok")),
        ("char3-I3star-4sections.json", ("expected", "box_bound", "d")),
        ("extremal-I7-I7-IIstar.json", ("payload", "fibers", 1, "count")),
        ("qe2-2xE7tilde-D6tilde.json", ("payload",)),
    ],
    ids=["expected", "nested", "payload", "no-payload"],
)
def test_missing_field_is_an_input_error(tmp_path, monkeypatch, capsys, file, path):
    shutil.copytree(data_root(), tmp_path / "data")
    target = tmp_path / "data" / "catalog" / file
    data = json.loads(target.read_text())
    block = data
    for key in path[:-1]:
        block = block[key]
    del block[path[-1]]
    target.write_text(json.dumps(data))
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "data"))
    assert main(["catalog", "verify"]) == 2
    err = capsys.readouterr().err
    assert f"{file}: missing field {path[-1]!r}" in err


@pytest.mark.parametrize(
    "file, text, action, error",
    [
        ("zz.json", "[]", "list", "zz.json: top level is not a JSON object"),
        ("zz.json", '"entry"', "verify", "zz.json: top level is not a JSON object"),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload", "fibers", 0), {"type": "I7", "count": "2"}),
            "verify",
            "extremal-I7-I7-IIstar.json: field 'count' is not an integer",
        ),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload", "fibers", 0), 2),
            "list",
            "extremal-I7-I7-IIstar.json: an item of field 'fibers' is not a JSON object",
        ),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload",), []),
            "list",
            "extremal-I7-I7-IIstar.json: field 'payload' is not a JSON object",
        ),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload", "fibers"), 3),
            "list",
            "extremal-I7-I7-IIstar.json: field 'fibers' is not a JSON array",
        ),
        (
            "uniform-6xI4.json",
            (("expected",), []),
            "verify",
            "uniform-6xI4.json: field 'expected' is not a JSON object",
        ),
        (
            "example-D6tilde.json",
            (("file",), 5),
            "verify",
            "example-D6tilde.json: field 'file' is not a string",
        ),
        (
            "uniform-8xI3.json",
            (("kind",), ["profile"]),
            "list",
            "uniform-8xI3.json: field 'kind' is not a string",
        ),
        (
            "uniform-8xI3.json",
            (("name",), 8),
            "list",
            "uniform-8xI3.json: field 'name' is not a string",
        ),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload", "fibers", 0, "type"), 5),
            "verify",
            "extremal-I7-I7-IIstar.json: field 'type' is not a string",
        ),
        (
            "extremal-I7-I7-IIstar.json",
            (("payload", "characteristic"), "7"),
            "verify",
            "extremal-I7-I7-IIstar.json: field 'characteristic' is not an integer",
        ),
        (
            "example-D6tilde.json",
            (("expected", "rough_bound"), []),
            "verify",
            "example-D6tilde.json: field 'rough_bound' is not a JSON object",
        ),
        (
            "example-D6tilde.json",
            (("expected", "exclusions"), {"d": 1}),
            "verify",
            "example-D6tilde.json: field 'exclusions' is not a JSON array",
        ),
        (
            "example-D6tilde.json",
            (("expected", "kodaira"), [1]),
            "verify",
            "example-D6tilde.json: field 'kodaira' is not a JSON object",
        ),
        (
            "quasielliptic-3-10xIV.json",
            (("expected", "sd_bound"), []),
            "verify",
            "quasielliptic-3-10xIV.json: field 'sd_bound' is not a JSON object",
        ),
        (
            "qe2-2xE7tilde-D6tilde.json",
            (("payload", "quasi_elliptic"), "no"),
            "verify",
            "qe2-2xE7tilde-D6tilde.json: field 'quasi_elliptic' is not a boolean",
        ),
        (
            "example-D6tilde.json",
            (("expected", "kodaira", "IV*"), "1"),
            "verify",
            "example-D6tilde.json: an item of field 'kodaira' is not an integer",
        ),
        (
            "fermat-I4-cycle.json",
            (("expected", "decomposition", 0), 3),
            "verify",
            "fermat-I4-cycle.json: an item of field 'decomposition' is not a string",
        ),
        (
            "zz.json",
            "{ nope",
            "verify",
            "zz.json: invalid JSON at line 1 column 3",
        ),
        # a misspelt field would drop its check; the tags under kodaira are
        # not fields
        (
            "fermat-I4-cycle.json",
            (("expected", "vertex_cout"), 99),
            "verify",
            "fermat-I4-cycle.json: unknown fields ['vertex_cout'] in expected",
        ),
        (
            "example-D6tilde.json",
            (("expected", "rough_bound", "dd"), 1),
            "verify",
            "example-D6tilde.json: unknown fields ['dd'] in expected.rough_bound",
        ),
        (
            "example-D6tilde.json",
            (("expected", "exclusions", 0, "stat"), "HyperbolicExcluded"),
            "verify",
            "example-D6tilde.json: unknown fields ['stat'] in expected.exclusions[0]",
        ),
    ],
    ids=[
        "list-array", "verify-string", "string-count", "fibre-not-object",
        "payload-array", "fibers-number", "expected-array", "file-number",
        "kind-array", "name-number", "type-number", "characteristic-string",
        "rough-bound-array", "exclusions-object", "kodaira-array",
        "sd-bound-array", "quasi-elliptic-string", "kodaira-value-string",
        "decomposition-number", "not-json", "unknown-expected",
        "unknown-nested", "unknown-in-array",
    ],
)
def test_malformed_catalog_file_is_an_input_error(
    tmp_path, monkeypatch, capsys, file, text, action, error
):
    shutil.copytree(data_root(), tmp_path / "data")
    target = tmp_path / "data" / "catalog" / file
    if not isinstance(text, str):
        # the value replaces the field at this path of the shipped file
        path, value = text
        data = json.loads(target.read_text())
        block = data
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        text = json.dumps(data)
    target.write_text(text)
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "data"))
    with pytest.raises(ValidationError, match=re.escape(error)):
        load_catalog()
    assert main(["catalog", action]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize(
    "file, path, error",
    [
        ("fermat-I4-cycle.json", ("vertices", 0, "square"),
         "missing field 'square' in vertices[0]"),
        ("fermat-I4-cycle.json", ("vertices", 1, "id"),
         "duplicate vertex id 'L0'"),
        ("profile-6xI4.json", ("fibers", 0, "count"),
         "missing field 'count' in fibers[0]"),
        ("model-quartic-polarization.json", ("curves", 2, "pa"),
         "missing field 'pa' in curves[2]"),
        ("model-quartic-polarization.json", ("H_square",), "missing field 'H_square'"),
    ],
    ids=["config", "config-value", "profile", "model", "model-top"],
)
def test_example_file_errors_name_the_file(
    tmp_path, monkeypatch, capsys, file, path, error
):
    # the field at this path of the shipped example is deleted, or, for an
    # id, set to the id before it
    shutil.copytree(data_root(), tmp_path / "data")
    target = tmp_path / "data" / "examples" / file
    data = json.loads(target.read_text())
    block = data
    for key in path[:-1]:
        block = block[key]
    if path[-1] == "id":
        block[path[-1]] = data["vertices"][0]["id"]
    else:
        del block[path[-1]]
    target.write_text(json.dumps(data))
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "data"))
    assert main(["catalog", "verify"]) == 2
    assert f"input error: {file}: {error}\n" == capsys.readouterr().err


def test_entry_file_text_needs_a_file():
    # an extremal entry keeps its data in the catalog file, with no example file
    entry = get_entry("extremal-I7-I7-IIstar")
    assert entry.file is None
    with pytest.raises(ValueError, match="entry 'extremal-I7-I7-IIstar' has no payload file"):
        entry_file_text(entry)


def test_get_entry_unknown_raises():
    with pytest.raises(KeyError):
        get_entry("definitely-not-there")


def test_verify_catalog_feeds_bareiss_integers(monkeypatch):
    # the fraction-free elimination is handed integer Gram matrices only
    entries = []
    real = exact.bareiss

    def spy(rows):
        entries.extend(x for row in rows for x in row)
        return real(rows)

    for module in (exact, bounds, catalog):
        if getattr(module, "bareiss", None) is real:
            monkeypatch.setattr(module, "bareiss", spy)
    assert all(r.ok for r in verify_catalog())
    assert entries and all(type(x) is int for x in entries)


def test_verify_catalog_runs_one_sweep_per_configuration(monkeypatch):
    # the five exclusion cases sit on three configurations, and each
    # configuration's cases share one sweep; a second call sweeps again,
    # since nothing is kept between calls
    sweeps = []
    real = bounds._adjugate_sweep

    def spy(cfg, g, cap, best):
        sweeps.append(cfg.n)
        return real(cfg, g, cap, best)

    monkeypatch.setattr(bounds, "_adjugate_sweep", spy)
    cases = sum(len(e.expected.get("exclusions", ())) for e in load_catalog())
    for _ in range(2):
        sweeps.clear()
        assert all(r.ok for r in verify_catalog())
        assert (len(sweeps), cases) == (3, 5)


def test_verify_catalog_builds_and_checks_each_certificate_once(monkeypatch):
    # each config entry reads one span.  On each of the three hyperbolic
    # entries the entry sum, the bound check and the exclusion record (the
    # whole configuration) read one Bareiss elimination, and the check of
    # the one rough certificate is one more; a box certificate is checked
    # without one.  Each config entry's Gram matrix is classified once, and
    # the I4 cycle's decomposition classifies it once more.  Each of the
    # five exclusion cases holds its certificate to the sweep's bound, but
    # a box certificate is built once per support and cap: char2's at
    # d = 1 and d = 2, char3's (its bound check and both exclusions) and
    # D6tilde's exclusion.  The
    # five distinct certificates (char3's box bound equals both its
    # exclusion certificates, and char2's two exclusion certificates are
    # equal) are each verified once; a witness is checked once per box
    # certificate built and once per distinct box certificate verified.
    # A second call counts the same: nothing outlives the first
    counts = Counter()
    real = exact.bareiss

    def spy_bareiss(rows):
        counts["bareiss"] += 1
        return real(rows)

    monkeypatch.setattr(bounds, "bareiss", spy_bareiss)
    spied = [(bounds, name) for name in (
        "verify_certificate", "_checked_certificate", "_witness_fault", "_box_certificate",
        "_gram_class",
    )] + [(graph, "_gram_class")]
    for module, name in spied:
        real_fn = getattr(module, name)

        def spy(*args, _real=real_fn, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    for _ in range(2):
        counts.clear()
        assert all(r.ok for r in verify_catalog())
        assert dict(counts) == {
            "bareiss": 4,
            "_gram_class": 5,
            "verify_certificate": 5,
            "_checked_certificate": 5,
            "_box_certificate": 4,
            "_witness_fault": 8,
        }


def test_shared_span_matches_the_public_builders(monkeypatch):
    # each config entry's bound checks and exclusion verdicts, read off one
    # span, equal those of the public builders, each on a fresh parse
    calls = []
    for name in ("rough_bound", "box_certificate", "exclude_all"):
        real = getattr(bounds._Span, name)

        def spy(span, *args, _real=real, _name=name):
            out = _real(span, *args)
            calls.append((entry, _name, args, out))
            return out

        monkeypatch.setattr(bounds._Span, name, spy)
    entries = [e for e in load_catalog() if e.kind == "config"]
    for entry in entries:
        assert verify_entry(entry, entries).ok
    monkeypatch.undo()
    certs = verdicts = 0
    for entry, name, args, out in calls:
        cfg = parse_config(entry_file_text(entry), entry.file).config
        assert out == getattr(bounds, name)(cfg, *args)
        if name == "exclude_all":
            verdicts += len(out)
        else:
            certs += 1
    # one rough and two box bound checks, and five exclusion cases
    assert (certs, verdicts) == (3, 5)


@pytest.mark.parametrize(
    "key, value",
    [("entry_sum", "1"), ("box_bound", {"d": 1, "value": "1"}),
     ("rough_bound", {"d": 1, "value": "1"})],
)
def test_degenerate_config_entry_is_an_input_error(
    tmp_path, monkeypatch, capsys, key, value
):
    # the I4 cycle has a kernel, so it has no entry sum and no bound: each
    # check ends as an input error, not a traceback
    shutil.copytree(data_root(), tmp_path / "data")
    target = tmp_path / "data" / "catalog" / "fermat-I4-cycle.json"
    data = json.loads(target.read_text())
    data["expected"][key] = value
    target.write_text(json.dumps(data))
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "data"))
    assert main(["catalog", "verify"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: configuration Gram matrix is degenerate; "
    )


# -- extremal lookup -------------------------------------------------------------


def test_extremal_lookup_char7():
    prof = profile([("I7", 2), ("II*", 1)], characteristic=7)
    hits = extremal_lookup(prof, load_catalog())
    assert len(hits) == 1
    assert hits[0].expected["mordell_weil"] == "trivial"
    assert budget_check(prof).ok


def test_extremal_lookup_wrong_characteristic():
    prof = profile([("I7", 2), ("II*", 1)], characteristic=5)
    assert extremal_lookup(prof, load_catalog()) == []


def test_extremal_lookup_quasi_elliptic_char3():
    prof = profile([("IV*", 3), ("IV", 1)], quasi_elliptic=True, characteristic=3)
    hits = extremal_lookup(prof, load_catalog())
    assert len(hits) == 3
    assert all(h.expected["mordell_weil"] == "Z/3Z" for h in hits)
    assert budget_check(prof).ok


def test_extremal_lookup_needs_matching_kind():
    elliptic_twin = profile([("IV*", 3), ("IV", 1)], characteristic=3)
    assert extremal_lookup(elliptic_twin, load_catalog()) == []


def test_extremal_entries_all_pass_budget():
    extremal = [e for e in load_catalog() if e.kind == "extremal"]
    assert len(extremal) == 7
    for entry in extremal:
        payload = entry.payload
        prof = profile(
            [(f["type"], f["count"]) for f in payload["fibers"]],
            quasi_elliptic=payload["quasi_elliptic"],
            characteristic=payload["characteristic"],
        )
        assert budget_check(prof).ok, entry.name


def _extremal_variants(entry):
    """The entry's payload with its fibres split into single fibres and in
    reverse order, with its characteristic flipped, and with its fibration
    kind flipped; variants that are no profile are left out."""
    payload = dict(entry.payload)
    single = [
        {"type": f["type"], "count": 1} for f in payload["fibers"] for _ in range(f["count"])
    ]
    char = payload["characteristic"]
    variants = [
        {**payload, "fibers": single[::-1]},
        {**payload, "characteristic": {2: 3, 3: 2}.get(char, 5)},
        {**payload, "quasi_elliptic": not payload["quasi_elliptic"]},
    ]
    for variant in variants:
        payload = read_json(json.dumps(variant), entry.name)
        try:
            prof = profile_from_data(payload, extra=("table_name",))
        except ValidationError:
            continue
        yield entry._replace(payload=payload, profile=prof)


def test_extremal_lookup_matches_raw_payload_reference():
    entries = load_catalog()
    extremal = [e for e in entries if e.kind == "extremal"]
    # each shipped entry and each of its variants, looked up both among the
    # shipped entries and among the shipped entries with it swapped in
    queries = [(e, entries) for e in extremal]
    for entry in extremal:
        for variant in _extremal_variants(entry):
            swapped = [variant if e is entry else e for e in entries]
            queries += [(variant, entries), (variant, swapped)]
    assert len(queries) > 3 * len(extremal)
    hits = 0
    for query, among in queries:
        found = extremal_lookup(query.profile, among)
        assert found == extremal_lookup_reference(query.profile, among), query.name
        hits += bool(found)
    assert hits > len(extremal)


def test_extremal_lookup_ignores_wild_terms():
    # an elliptic characteristic-2 query with wild ramification at its IV*
    entries = load_catalog()
    prof = profile([("I12", 1), ("IV*", 1, 1), ("I4", 1)], characteristic=2)
    assert sum(f.delta for f in prof.fibers) == 1
    hits = extremal_lookup(prof, entries)
    assert [h.name for h in hits] == ["ell2-A11tilde-E6tilde-A3"]
    assert hits == extremal_lookup_reference(prof, entries)


def _field_paths(data, path=()):
    yield path
    if isinstance(data, list):
        data = dict(enumerate(data))
    for key, value in data.items() if isinstance(data, dict) else ():
        yield from _field_paths(value, path + (key,))


def test_catalog_verify_is_total_on_substituted_fields(tmp_path, monkeypatch, capsys):
    # a config, a profile and an extremal entry, and the profile file; every
    # field of each, at every depth, is replaced in turn by values of every
    # JSON type, and catalog verify answers 0, 1 or 2 without raising
    keep = (
        "example-D6tilde.json", "quasielliptic-3-10xIV.json", "extremal-I7-I7-IIstar.json"
    )
    data_dir = tmp_path / "data"
    shutil.copytree(data_root(), data_dir)
    for path in (data_dir / "catalog").glob("*.json"):
        if path.name not in keep:
            path.unlink()
    monkeypatch.setenv(CATALOG_ENV_VAR, str(data_dir))
    assert main(["catalog", "verify"]) == 0
    targets = [data_dir / "catalog" / name for name in keep]
    targets.append(data_dir / "examples" / "profile-qe3-10xIV.json")
    codes = Counter()
    for target in targets:
        original = target.read_text()
        shipped = json.loads(original)
        for path in _field_paths(shipped):
            for value in (5, "7", [], {}, None, True):
                data = json.loads(original)
                if path:
                    block = data
                    for key in path[:-1]:
                        block = block[key]
                    block[path[-1]] = value
                else:
                    data = value
                target.write_text(json.dumps(data))
                code = main(["catalog", "verify"])
                assert code in (0, 1, 2), (target.name, path, value)
                codes[code] += 1
        target.write_text(original)
    capsys.readouterr()
    assert codes[2] > codes[0] + codes[1] > 0
