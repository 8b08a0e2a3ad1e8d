import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3lat import bounds, graph
from k3lat.bounds import (
    BOX_OPTIMUM_DECOMPOSITION,
    ROUGH_POSITIVE_ENTRY_SUM,
    BoundCertificate,
    verify_certificate,
)
from k3lat.catalog import data_root, load_catalog
from k3lat.cli import main
from k3lat.formats import parse_config, parse_fraction

from oracles import integer_witness

EXAMPLES = Path(data_root()) / "examples"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_hyperbolic(capsys):
    rc, out, _ = run(capsys, "classify", str(EXAMPLES / "example-D6tilde.json"))
    assert rc == 0
    assert "Hyperbolic" in out
    assert "(1, 9, 0)" in out


def test_classify_json(capsys):
    rc, out, _ = run(
        capsys, "classify", str(EXAMPLES / "fermat-I4-cycle.json"), "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["classification"] == "Parabolic"
    assert data["signature"] == {"n_plus": 0, "n_minus": 3, "n_zero": 1}


def test_classify_violations_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "d", "square": 0},
                    {"id": "c", "square": -2},
                ],
                "edges": [{"a": "d", "b": "c"}],
            }
        )
    )
    # isotropic vertex meeting a curve: hyperbolic, no parabolic violations
    rc, out, _ = run(capsys, "classify", str(bad))
    assert rc == 0
    assert "Hyperbolic" in out


def test_decompose(capsys):
    rc, out, _ = run(capsys, "decompose", str(EXAMPLES / "fermat-I4-cycle.json"))
    assert rc == 0
    assert "A~3" in out
    assert "kernel [1, 1, 1, 1]" in out


def test_decompose_json_finite_component_has_no_kernel(tmp_path, capsys):
    chain = tmp_path / "a2.json"
    chain.write_text(json.dumps({
        "name": "chain",
        "vertices": [{"id": "a", "square": -2}, {"id": "b", "square": -2}],
        "edges": [{"a": "a", "b": "b"}],
    }))
    rc, out, _ = run(capsys, "decompose", str(chain), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "name": "chain",
        "components": [{"kind": "A2", "vertices": ["a", "b"], "kernel_vector": None}],
        "unrecognized": [],
        "total_rank": 2,
    }


def test_decompose_hyperbolic_fails(capsys):
    rc, out, _ = run(capsys, "decompose", str(EXAMPLES / "example-D6tilde.json"))
    assert rc == 1
    assert "cannot decompose" in out


def test_kodaira_listing(capsys):
    rc, out, _ = run(capsys, "kodaira", str(EXAMPLES / "example-D6tilde.json"))
    assert rc == 0
    assert "I*2" in out and "IV*" in out


def test_kodaira_low_degree_check(tmp_path, capsys):
    cfg = tmp_path / "low.json"
    cfg.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "square": -2},
                    {"id": "b", "square": -2},
                    {"id": "x", "square": -2},
                    {"id": "y", "square": -2},
                ],
                "edges": [
                    {"a": "a", "b": "b", "mult": 2},
                    {"a": "x", "b": "y", "mult": 3},
                ],
            }
        )
    )
    rc, out, _ = run(capsys, "kodaira", str(cfg), "--d", "1", "--h", "43")
    assert rc == 1
    assert "kodaira-low-degree" in out


def test_kodaira_low_degree_needs_d_and_h(capsys):
    path = str(EXAMPLES / "example-D6tilde.json")
    for half in (["--d", "1"], ["--h", "43"]):
        rc, out, err = run(capsys, "kodaira", path, *half)
        assert rc == 2
        assert out == "" and "--d and --h" in err


def test_kodaira_max_weight_below_one_exit_code(capsys):
    path = str(EXAMPLES / "example-D6tilde.json")
    for weight in ("0", "-3"):
        rc, out, err = run(capsys, "kodaira", path, "--max-weight", weight)
        assert rc == 2
        assert out == "" and "max_weight" in err


def test_polarize_solves_the_pinned_degree_class_once(capsys, monkeypatch):
    # the admissible range reads the solution the command already has: one
    # radical reduction and one elimination of its quotient
    calls = []
    for module, name in ((graph, "row_echelon"), (bounds, "bareiss")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        )
    rc, out, _ = run(capsys, "polarize", str(EXAMPLES / "char3-I3star-4sections.json"))
    assert (rc, sorted(calls)) == (0, ["bareiss", "row_echelon"])
    assert "admissible h: h <= 43" in out


def test_polarize(capsys):
    rc, out, _ = run(capsys, "polarize", str(EXAMPLES / "char3-I3star-4sections.json"))
    assert rc == 0
    assert "square = 86" in out
    assert "h <= 43" in out
    # the admissible range uses the file's pinned degrees alone
    with pytest.raises(SystemExit) as exc:
        main(["polarize", str(EXAMPLES / "char3-I3star-4sections.json"), "--d", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 1" in capsys.readouterr().err


def test_bound_rough_value(capsys):
    rc, out, _ = run(
        capsys,
        "bound",
        str(EXAMPLES / "example-D6tilde.json"),
        "--d", "1", "--method", "rough",
    )
    assert rc == 0
    assert "1640/21" in out


def _invalid_config(tmp_path):
    """A configuration file whose span has two positive directions."""
    cfg = tmp_path / "invalid.json"
    cfg.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "v0", "square": 0},
                    {"id": "v1", "square": 0},
                    {"id": "v2", "square": -2},
                    {"id": "v3", "square": 0},
                ],
                "edges": [
                    {"a": "v0", "b": "v1", "mult": 2},
                    {"a": "v0", "b": "v3", "mult": 2},
                    {"a": "v1", "b": "v2", "mult": 3},
                    {"a": "v1", "b": "v3"},
                ],
            }
        )
    )
    return cfg


def test_bound_on_invalid_configuration_falls_back_to_rough(tmp_path, capsys):
    # two positive directions: no rank-one split, and no traceback
    cfg = _invalid_config(tmp_path)
    rc, out, _ = run(capsys, "classify", str(cfg))
    assert "Invalid" in out
    rc, out, _ = run(capsys, "bound", str(cfg), "--d", "1")
    assert rc == 0
    assert "RoughPositiveEntrySum" in out
    rc, out, _ = run(capsys, "bound", str(cfg), "--d", "1", "--method", "box")
    assert rc == 1
    assert out.startswith("no box certificate: ")


def test_bound_fallback_eliminates_once(tmp_path, capsys, monkeypatch):
    # --method auto builds the rough certificate directly, the inertia
    # ruling out the box split, from one elimination; verify_certificate's
    # check of the rough certificate is the only other
    cfg = _invalid_config(tmp_path)
    calls = []
    real = bounds.bareiss
    monkeypatch.setattr(bounds, "bareiss", lambda rows: calls.append(rows) or real(rows))
    rc, out, _ = run(capsys, "bound", str(cfg), "--d", "1")
    assert (rc, len(calls)) == (0, 2)
    assert "RoughPositiveEntrySum" in out


def test_bound_with_a_curve_above_the_cap_exit_code(tmp_path, capsys):
    # a certificate for d says nothing about a curve of degree above d
    cfg = tmp_path / "toy.json"
    cfg.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "d", "square": 0, "degree": 6},
                    {"id": "c", "square": -2},
                ],
                "edges": [{"a": "d", "b": "c"}],
            }
        )
    )
    for method in ("rough", "box", "auto"):
        rc, out, err = run(capsys, "bound", str(cfg), "--d", "1", "--method", method)
        assert (rc, out) == (2, "")
        assert "vertex 'd' has degree 6 > d = 1" in err
    rc, out, _ = run(capsys, "bound", str(cfg), "--d", "6")
    assert rc == 0 and "144" in out


def test_bound_on_a_negative_definite_configuration_exit_code(tmp_path, capsys):
    # A3 has no positive direction, so no method may print "2h <= 0": each
    # exits 2 with the reason instead of issuing a certificate that fails
    # its own re-verification
    cfg = tmp_path / "a3.json"
    cfg.write_text(
        json.dumps(
            {
                "vertices": [{"id": v, "square": -2} for v in ("a", "b", "c")],
                "edges": [{"a": "a", "b": "b"}, {"a": "b", "b": "c"}],
            }
        )
    )
    for method in ("rough", "box", "auto"):
        rc, out, err = run(capsys, "bound", str(cfg), "--d", "1", "--method", method)
        assert (rc, out) == (2, "")
        assert "negative definite" in err


def _certificate_from_json(payload):
    """A certificate rebuilt from its printed JSON alone: each rational read
    by ``parse_fraction``, a box witness over the lcm of its denominators."""
    witness = None
    if "witness" in payload:
        witness = integer_witness(
            *(
                [[parse_fraction(x) for x in row] for row in payload["witness"][name]]
                for name in ("negative_part", "nonnegative_part")
            )
        )
    return BoundCertificate(
        payload["kind"],
        parse_fraction(payload["bound_on_2h"]),
        tuple(payload["support"]),
        payload["d"],
        witness,
    )


def test_printed_certificates_reverify_from_their_bytes(capsys):
    # every certificate that bound (each method) and exclude print for the
    # shipped example configurations re-verifies from its JSON alone, and
    # not with one printed witness entry (or, for a rough bound, the
    # printed bound) changed
    seen = []
    for name in (
        "char2-IVstar-3xA2", "char3-I3star-4sections", "example-D6tilde",
        "fermat-I4-cycle",
    ):
        path = EXAMPLES / f"{name}.json"
        cfg = parse_config(path.read_text()).config
        for d in ("1", "2"):
            runs = [("bound", "--method", m) for m in ("rough", "box", "auto")]
            runs.append(("exclude", "--h", "43", "--cap", "6"))
            for cmd, *opts in runs:
                _, out, _ = run(capsys, cmd, str(path), "--d", d, *opts, "--format", "json")
                report = json.loads(out or "{}")
                payloads = report.get("certificates", [])
                if "certificate" in report:
                    payloads = [report["certificate"]]
                for payload in payloads:
                    cert = _certificate_from_json(payload)
                    assert verify_certificate(cert, cfg), (name, d, cmd, opts)
                    if "witness" in payload:
                        k = len(cert.support_ids)
                        assert payload["witness"]["x_max"] == [d] * k
                        row = payload["witness"]["negative_part"][0]
                        row[0] = str(parse_fraction(row[0]) + 1)
                    else:
                        payload["bound_on_2h"] += "1"
                    assert not verify_certificate(_certificate_from_json(payload), cfg)
                    seen.append(cert.kind)
    assert set(seen) == {BOX_OPTIMUM_DECOMPOSITION, ROUGH_POSITIVE_ENTRY_SUM}
    assert len(seen) == 18


def test_bound_box_json(capsys):
    rc, out, _ = run(
        capsys,
        "bound",
        str(EXAMPLES / "char3-I3star-4sections.json"),
        "--d", "1", "--method", "box", "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["certificate"]["bound_on_2h"] == "86"
    assert data["verified"] is True
    assert "witness" in data["certificate"]


def test_exclude_excluded_exit_code(capsys):
    rc, out, _ = run(
        capsys,
        "exclude",
        str(EXAMPLES / "example-D6tilde.json"),
        "--d", "1", "--h", "43",
    )
    assert rc == 1
    assert "HyperbolicExcluded" in out


def test_exclude_undecided(capsys):
    rc, out, _ = run(
        capsys,
        "exclude",
        str(EXAMPLES / "char3-I3star-4sections.json"),
        "--d", "1", "--h", "43",
    )
    assert rc == 0
    assert "HyperbolicUndecided" in out


def test_exclude_cap_zero_exit_code(capsys):
    rc, _, err = run(
        capsys,
        "exclude",
        str(EXAMPLES / "example-D6tilde.json"),
        "--d", "1", "--h", "43", "--cap", "0",
    )
    assert rc == 2
    assert "subgraph_cap" in err


def test_budget(capsys):
    rc, out, _ = run(capsys, "budget", str(EXAMPLES / "profile-qe2-20xIII.json"))
    assert rc == 0
    assert "40" in out


def test_enum_uniform(capsys):
    rc, out, _ = run(capsys, "enum-uniform", "--rho-max", "20")
    assert rc == 0
    assert "12xI2" in out and "8xI3" in out and "6xI4" in out
    assert "4xI6" not in out


def test_sd_bound_json(capsys):
    rc, out, _ = run(capsys, "sd-bound", "--char", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["bound"] == 40
    assert data["h_threshold"] == "185/4"


def test_sd_bound_unsupported(capsys):
    # the CLI never asserts unirationality, so characteristic 0 stays
    # supported with the restricted flag; the library's unsupported-context
    # error has its own test
    rc, out, err = run(capsys, "sd-bound", "--char", "0", "--restricted")
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [("--char", "4"), ("--char", "1"), ("--char", "3", "--sigma", "11"),
     ("--char", "3", "--sigma", "0"), ("--char", "3", "--sigma", "-4"),
     ("--char", "0", "--sigma", "3")],
)
def test_sd_bound_rejects_impossible_hypotheses(capsys, argv):
    rc, out, err = run(capsys, "sd-bound", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("input error:")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-m", "k3lat", "catalog", "list"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "char3-I3star-4sections" in res.stdout


def test_very_ample_pass_and_fail(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "very-ample", str(EXAMPLES / "model-quartic-polarization.json")
    )
    assert rc == 0
    bad = tmp_path / "bad-model.json"
    bad.write_text(
        json.dumps(
            {
                "H_square": 8,
                "H_two_divisible": True,
                "curves": [{"label": "C", "pa": 0, "H_dot": 1}],
            }
        )
    )
    rc, out, _ = run(capsys, "very-ample", str(bad))
    assert rc == 1
    assert "2-divisible" in out


def test_catalog_list_and_show(capsys):
    rc, out, _ = run(capsys, "catalog", "list")
    assert rc == 0
    assert "example-D6tilde" in out
    rc, out, _ = run(capsys, "catalog", "show", "example-D6tilde")
    assert rc == 0
    assert "expected" in out
    rc, _, err = run(capsys, "catalog", "show", "no-such-entry")
    assert rc == 2


def test_catalog_verify(capsys):
    rc, out, _ = run(capsys, "catalog", "verify")
    assert rc == 0
    assert "18/18 entries verified" in out


def test_catalog_list_and_verify_reject_entry_name(capsys):
    for action in ("list", "verify"):
        rc, out, err = run(capsys, "catalog", action, "example-D6tilde")
        assert rc == 2
        assert out == "" and "takes no entry name" in err


def test_catalog_show_needs_a_name(capsys):
    rc, out, err = run(capsys, "catalog", "show")
    assert (rc, out, err) == (2, "", "catalog show needs an entry name\n")


def test_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "classify", "/nonexistent/file.json")
    assert rc == 2
    assert "cannot read" in err


@pytest.mark.parametrize("tag", ["I04", "I\u0664", "I4\n"])
def test_profile_with_a_tag_that_is_not_canonical_exits_2(tmp_path, capsys, tag):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"fibers": [{"type": tag, "count": 2}]}))
    rc, out, err = run(capsys, "budget", str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"input error: {path}: ") and "unknown fiber type tag" in err


@pytest.mark.parametrize("p", [4, -3, 1, 6])
def test_profile_with_a_characteristic_that_is_not_prime_exits_2(tmp_path, capsys, p):
    # "characteristic": 4 parsed, and budget printed "24 / 24 -> ok"
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"characteristic": p, "fibers": [{"type": "I4", "count": 6}]}))
    rc, out, err = run(capsys, "budget", str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"input error: {path}: ") and "0 or a prime" in err


def test_invalid_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    rc, _, err = run(capsys, "classify", str(bad))
    assert rc == 2
    assert "input error" in err


def test_oversized_integer_is_input_error(tmp_path, capsys):
    # named as the input, like every other parse error of the file
    big = tmp_path / "big.json"
    big.write_text('{"vertices": [{"id": "a", "square": ' + "2" * 5001 + "}]}")
    rc, out, err = run(capsys, "classify", str(big))
    assert rc == 2 and out == ""
    assert err.startswith(f"input error: {big}: Exceeds the limit (4300 digits)")


def test_reports_are_byte_identical(capsys):
    args = ("exclude", str(EXAMPLES / "char3-I3star-4sections.json"),
            "--d", "1", "--h", "44", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 1
    assert out1 == out2
    args_text = ("decompose", str(EXAMPLES / "fermat-I4-cycle.json"))
    _, t1, _ = run(capsys, *args_text)
    _, t2, _ = run(capsys, *args_text)
    assert t1 == t2


def test_bound_golden_byte_identical(capsys, monkeypatch):
    # text and JSON output, stderr and exit codes of every method on every
    # shipped example, run from the examples directory so each run is keyed
    # by file name; profiles and models are input errors
    monkeypatch.chdir(EXAMPLES)
    out = []
    for path in sorted(EXAMPLES.glob("*.json")):
        for d in ("1", "2"):
            for method in ("rough", "box", "auto"):
                for fmt in ("text", "json"):
                    out.append((path.name, d, method, fmt) + run(
                        capsys, "bound", path.name, "--d", d,
                        "--method", method, "--format", fmt,
                    ))
    assert len(out) == 11 * 2 * 3 * 2
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "83d7b7e45a6402ae"


def test_cli_golden_byte_identical(capsys, monkeypatch):
    # stdout, stderr and exit code of every other command in both formats,
    # run from the examples directory so each run is keyed by file name;
    # profiles and models are input errors for the configuration commands
    monkeypatch.chdir(EXAMPLES)
    per_file = (
        ("classify",), ("decompose",), ("kodaira",), ("polarize",),
        ("exclude", "--d", "1", "--h", "43", "--cap", "6"),
        ("budget",), ("very-ample",),
    )
    runs = [
        (cmd[0], path.name) + cmd[1:]
        for cmd in per_file
        for path in sorted(EXAMPLES.glob("*.json"))
    ]
    runs += [
        ("enum-uniform", "--rho-max", "20"),
        ("sd-bound", "--char", "2"),
        ("sd-bound", "--char", "3", "--sigma", "2", "--restricted"),
        ("catalog", "list"),
        ("catalog", "verify"),
    ]
    runs += [("catalog", "show", e.name) for e in load_catalog()]
    out = [
        argv + (fmt,) + run(capsys, *argv, "--format", fmt)
        for argv in runs
        for fmt in ("text", "json")
    ]
    assert len(out) == 200
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "4d6475dfcb25adc7"
