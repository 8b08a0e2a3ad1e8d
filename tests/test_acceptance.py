"""Acceptance suite: each test covers one numbered criterion at its exact
tolerance (exact rational or integer equality throughout) and prints one
pass line.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to
see the per-criterion lines as they pass)."""

import json
import random
from fractions import Fraction
from pathlib import Path

from k3lat.bounds import (
    ExclusionStatus,
    NoDecompositionFoundError,
    box_certificate,
    exclude,
    rough_bound,
    verify_certificate,
)
from k3lat.catalog import data_root, load_catalog, verify_catalog
from k3lat.cli import main
from k3lat.exact import signature
from k3lat.fibration import (
    budget_check,
    enumerate_uniform,
    profile,
    rational_component_bound,
)
from k3lat.graph import config_from_data
from k3lat.kodaira import type_table
from k3lat.roots import decompose, standard_diagram

from conftest import (
    ALL_KINDS,
    d6tilde_plus_three,
    i3star_four_sections,
    ivstar_three_a2,
)
from oracles import (
    apply,
    box_max,
    gram,
    inverse_reference,
    matrix_sum,
    min_entry,
    oracle_signature,
    quadratic_form,
    witness_parts,
)

EXAMPLES = Path(data_root()) / "examples"


def _passed(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def test_acceptance_1_d6tilde_certificate(capsys):
    cfg = d6tilde_plus_three()
    cert = rough_bound(cfg, 1)
    assert cert.bound_on_2h == Fraction(1640, 21)
    assert verify_certificate(cert, cfg)
    rc = main(
        ["bound", str(EXAMPLES / "example-D6tilde.json"), "--d", "1",
         "--method", "rough", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["certificate"]["bound_on_2h"] == "1640/21"
    rc = main(
        ["exclude", str(EXAMPLES / "example-D6tilde.json"), "--d", "1",
         "--h", "43", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["status"] == "HyperbolicExcluded"
    with capsys.disabled():
        _passed(1, "rough bound 1640/21 exact; excluded at d=1, h=43")


def test_acceptance_2_char3_certificate(capsys):
    cfg = i3star_four_sections()
    cert = box_certificate(cfg, 1)
    assert cert.bound_on_2h == Fraction(86)
    assert cert.witness is not None
    g0, gplus = witness_parts(cert.witness)
    assert matrix_sum(g0, gplus) == inverse_reference(gram(cfg))
    assert min_entry(gplus) >= 0
    assert signature(g0).n_plus == 0
    assert apply(g0, (1,) * 12) == (Fraction(0),) * 12
    # the bound is the inverse form at the all-ones corner
    assert quadratic_form(matrix_sum(g0, gplus), (1,) * 12) == 86
    assert exclude(cfg, 1, 43).status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    assert exclude(cfg, 1, 44).status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    with capsys.disabled():
        _passed(2, "box bound 86 with verified split; undecided at 43, excluded at 44")


def test_acceptance_3_char2_certificate(capsys):
    cfg = ivstar_three_a2()
    assert box_certificate(cfg, 1).bound_on_2h == Fraction(185, 2)
    cert = box_certificate(cfg, 2)
    assert cert.bound_on_2h == Fraction(370)
    assert verify_certificate(cert, cfg)
    assert exclude(cfg, 2, 186).status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    assert exclude(cfg, 2, 185).status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    with capsys.disabled():
        _passed(3, "bound 185/2 exact; at d=2 excluded at h=186, undecided at h=185")


def test_acceptance_4_uniform_enumeration(capsys):
    assert [p.describe() for p in enumerate_uniform(22)] == [
        "12xI2", "8xI3", "6xI4", "4xI6",
    ]
    assert [p.describe() for p in enumerate_uniform(20)] == [
        "12xI2", "8xI3", "6xI4",
    ]
    with capsys.disabled():
        _passed(4, "uniform profiles match at rho_max 22 and 20")


def test_acceptance_5_budget_maxima(capsys):
    cases = [
        (profile([("I4", 6)]), 24),
        (profile([("III", 20)], quasi_elliptic=True, characteristic=2), 40),
        (profile([("IV", 10)], quasi_elliptic=True, characteristic=3), 30),
    ]
    for prof, bound in cases:
        assert budget_check(prof).ok
        assert rational_component_bound(prof) == bound
    with capsys.disabled():
        _passed(5, "component bounds 24 / 40 / 30 attained exactly")


def test_acceptance_6_kodaira_tables(capsys):
    for n in range(1, 25):
        t = type_table(f"I{n}")
        assert t.weight == n and t.euler == t.component_count == n
        assert not t.is_additive
        ts = type_table(f"I*{n}")
        assert ts.weight == 2 * n + 6 and ts.euler == ts.component_count + 1
    assert type_table("I*0").weight == 6
    for tag, wt in [("IV*", 12), ("III*", 18), ("II*", 30)]:
        t = type_table(tag)
        assert t.weight == wt and t.euler == t.component_count + 1
    with capsys.disabled():
        _passed(6, "weights and Euler numbers match the closed forms for n <= 24")


def test_acceptance_7_signature_oracle_1000(capsys):
    rng = random.Random(24)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rng.randint(-4, 4)
        if signature(entries) != oracle_signature(entries):
            mismatches += 1
    assert mismatches == 0
    with capsys.disabled():
        _passed(7, "1000/1000 signatures match the Sturm-sequence oracle")


def test_acceptance_8_certificate_soundness(capsys):
    # every certificate produced over the catalog re-verifies independently
    checked = 0
    for cfg in (d6tilde_plus_three(), i3star_four_sections(), ivstar_three_a2()):
        for d in (1, 2):
            for cert in (rough_bound(cfg, d), box_certificate(cfg, d)):
                assert verify_certificate(cert, cfg), (cfg.name, cert.kind)
                checked += 1
            for h in (43, 44, 185, 186):
                for cert in exclude(cfg, d, h).certificates:
                    assert verify_certificate(cert, cfg)
                    checked += 1
    # exhaustive box maximization never exceeds a returned bound
    rng = random.Random(808)
    audited = 0
    while audited < 10:
        n = rng.randint(2, 4)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                m = rng.choice([0, 1, 1, 2, 3])
                if m:
                    edges.append((f"v{i}", f"v{j}", m))
        cfg = config_from_data(
            [(f"v{i}", rng.choice([0, -2]), 1) for i in range(n)], edges
        )
        sig = signature(gram(cfg))
        if sig.n_plus != 1 or sig.n_zero != 0:
            continue
        w = inverse_reference(gram(cfg))
        for d in (1, 2, 3):
            exhaustive = box_max(w, d)
            assert exhaustive <= rough_bound(cfg, d).bound_on_2h
            try:
                assert exhaustive <= box_certificate(cfg, d).bound_on_2h
            except NoDecompositionFoundError:
                pass
        audited += 1
    with capsys.disabled():
        _passed(8, f"{checked} certificates re-verified; box oracle within bounds")


def test_acceptance_9_recognition_round_trip(capsys):
    for kind, n in ALL_KINDS:
        cfg = standard_diagram(kind, n)
        (comp,) = decompose(cfg).components
        assert (comp.kind, comp.rank_param) == (kind, n)
        if kind.startswith("Affine"):
            sub = cfg.induced(comp.vertex_ids)
            aligned = [
                comp.kernel_vector[comp.vertex_ids.index(v)] for v in sub.ids()
            ]
            assert apply(gram(sub), aligned) == (0,) * sub.n
    (d4,) = decompose(standard_diagram("AffineD", 4)).components
    assert d4.kernel_vector == (2, 1, 1, 1, 1)
    with capsys.disabled():
        _passed(9, f"{len(ALL_KINDS)} standard diagrams re-recognized with exact radicals")


def test_acceptance_10_catalog_verifies(capsys):
    entries = load_catalog()
    assert len(entries) >= 12
    extremal_names = {e.name for e in entries if e.kind == "extremal"}
    assert {
        "extremal-I7-I7-IIstar",
        "qe3-3xE6tilde-A2-two-sections",
        "qe2-3xD6tilde-2xA1",
        "qe2-2xE7tilde-D6tilde",
        "ell2-A11tilde-E6tilde-A3",
        "qe3-2xE6tilde-E6-A2",
        "qe3-3xE6tilde-A2-three-sections",
    } <= extremal_names
    reports = verify_catalog()
    assert all(r.ok for r in reports)
    with capsys.disabled():
        _passed(10, f"{len(reports)} catalog entries verified, extremal hits included")
