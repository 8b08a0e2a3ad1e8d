import functools
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lat import bounds, catalog, exact, graph, kodaira, roots
from k3lat.bounds import (
    BOX_OPTIMUM_DECOMPOSITION,
    INTRINSIC_SQUARE,
    ROUGH_POSITIVE_ENTRY_SUM,
    _adjugate_sweep,
    _checked_certificate,
    BoundCertificate,
    BoxWitness,
    DegenerateLatticeError,
    ExclusionStatus,
    NoDecompositionFoundError,
    admissible_h_range,
    box_certificate,
    exclude,
    exclude_all,
    intrinsic_polarization,
    rough_bound,
    sweep_records,
    verify_certificate,
)
from k3lat.exact import kernel_basis, positive_square_vector, signature
from k3lat.formats import parse_config
from k3lat.graph import (
    SpanKind,
    classify,
    config_from_data,
    integer_gram,
    quotient_by_kernel,
)
from k3lat.roots import standard_diagram

from conftest import (
    d6tilde_plus_three,
    i3star_four_sections,
    i4_fibres_with_section,
    indices,
    ivstar_three_a2,
    mask_of,
    recorded_steps,
)
from oracles import (
    apply,
    box_max,
    connected_subsets_reference,
    det,
    entry_sum,
    exclude_reference,
    gram,
    integer_witness,
    intrinsic_polarization_reference,
    inverse,
    inverse_reference,
    min_entry,
    subgraph_certificates_reference,
    submatrix,
    verify_certificate_reference,
    witness_fault_reference,
    witness_parts,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def toy_config():
    return config_from_data([("d", 0, 6), ("c", -2, 1)], [("d", "c", 1)])


# -- intrinsic polarization -------------------------------------------------


def test_intrinsic_toy():
    ip = intrinsic_polarization(toy_config())
    assert ip.exists
    assert ip.coords == (Fraction(13), Fraction(6))
    assert ip.square == 84


def test_intrinsic_two_isotropic_fails():
    cfg = config_from_data([("a", 0, 1), ("b", 0, 1)])
    ip = intrinsic_polarization(cfg)
    assert not ip.exists


def test_intrinsic_chain_negative_square():
    cfg = config_from_data([("a", -2, 1), ("b", -2, 1)], [("a", "b", 1)])
    ip = intrinsic_polarization(cfg)
    assert ip.exists
    assert ip.coords == (Fraction(-1), Fraction(-1))
    assert ip.square == -2


def test_intrinsic_on_degenerate_compatible():
    # a full fiber plus a section: the radical pairs to zero with the
    # degree vector only when the fiber components' degrees balance
    cfg = standard_diagram("AffineA", 3)
    ip = intrinsic_polarization(cfg)
    assert not ip.exists  # all degrees 1, radical (1,1,1,1) pairs to 4


def test_intrinsic_matches_reference_seeded():
    # the integer solve against the Fraction quotient, inverse and apply
    # path: random configurations, and the same with twins of isotropic
    # curves (a twin minus its original is in the radical, so a twin of
    # another degree leaves the pinned degrees unsolvable)
    rng = random.Random(1907)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        verts = [
            (f"v{i}", rng.choice((-2, -2, -2, 0, 0, 2)), rng.randint(1, d))
            for i in range(n)
        ]
        edges = [
            (f"v{i}", f"v{j}", rng.choice((1, 1, 1, 2, 3)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        for vid, square, _ in verts[:n]:
            if square == 0 and rng.random() < 0.5:
                twin = vid + "t"
                verts.append((twin, 0, rng.randint(1, d)))
                edges += [(twin, b, m) for a, b, m in edges if a == vid]
                edges += [(twin, a, m) for a, b, m in edges if b == vid]
        cfg = config_from_data(verts, edges)
        ip = intrinsic_polarization(cfg)
        assert ip == intrinsic_polarization_reference(cfg)
        degenerate = signature(gram(cfg)).n_zero > 0
        seen[ip.exists, degenerate, ip.note.startswith("overdetermined")] += 1
    # each case occurs: solvable on a nondegenerate and on a degenerate
    # span, and overdetermined
    assert min(seen[k] for k in [(True, False, False), (True, True, False)]) > 10
    assert seen[False, True, True] > 10, seen


def _count_eliminations(monkeypatch):
    """Count calls of the three eliminations of ``k3lat.exact``, wherever a
    module has bound them."""
    counts = Counter()
    for name in ("_congruence", "row_echelon", "bareiss"):
        real = getattr(exact, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in (exact, graph, bounds, catalog, roots, kodaira):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return counts


@pytest.mark.parametrize(
    "cfg",
    [d6tilde_plus_three(), i3star_four_sections(), standard_diagram("AffineA", 3)],
    ids=lambda cfg: cfg.name,
)
def test_exact_answers_run_one_elimination_each(monkeypatch, cfg):
    # the quotient, kernel and solve are each one reduction or one Bareiss
    # elimination; the congruence is left to the signatures
    m = gram(cfg)
    q = quotient_by_kernel(cfg)[0]
    counts = _count_eliminations(monkeypatch)
    for call, want in [
        (lambda: intrinsic_polarization(cfg), {"row_echelon": 1, "bareiss": 1}),
        (lambda: quotient_by_kernel(cfg), {"row_echelon": 1}),
        (lambda: kernel_basis(m), {"row_echelon": 1}),
        (lambda: inverse(q), {"bareiss": 1}),
    ]:
        counts.clear()
        call()
        assert dict(counts) == want


# -- rough bound ------------------------------------------------------------


def test_rough_bound_d6tilde_value(d6tilde_cfg):
    cert = rough_bound(d6tilde_cfg, 1)
    assert cert.bound_on_2h == Fraction(1640, 21)
    assert verify_certificate(cert, d6tilde_cfg)


@pytest.mark.parametrize(
    "attach",
    [("f1", "f2", "f3"), ("f1", "f2", "f4"), ("f1", "f3", "f4"), ("f2", "f3", "f4")],
)
def test_rough_bound_independent_of_attachment_choice(attach):
    cfg = d6tilde_plus_three(attach)
    assert rough_bound(cfg, 1).bound_on_2h == Fraction(1640, 21)


def test_rough_bound_toy():
    # the degree-6 curve is above the cap d = 1, which bounds nothing
    with pytest.raises(ValueError, match="degree 6 > d = 1"):
        rough_bound(toy_config(), 1)
    assert rough_bound(toy_config(), 6).bound_on_2h == 144


def test_rough_bound_char3_at_least_entry_sum(char3_cfg):
    cert = rough_bound(char3_cfg, 1)
    assert cert.bound_on_2h == 94
    assert cert.bound_on_2h >= 86


def test_rough_bound_degenerate_raises():
    with pytest.raises(DegenerateLatticeError):
        rough_bound(standard_diagram("AffineA", 3), 1)


@pytest.mark.parametrize("build", [rough_bound, box_certificate])
def test_bounds_refuse_a_negative_definite_configuration(build):
    # A3 has no positive direction, so its inverse form bounds nothing and
    # verify_certificate rejects any rough or box certificate on it; neither
    # builder issues one ("2h <= 0"), and the refusal is a plain ValueError,
    # not the box split's failure, whatever the method
    with pytest.raises(ValueError, match="negative definite") as info:
        build(standard_diagram("A", 3), 1)
    assert type(info.value) is ValueError


# -- box certificate ----------------------------------------------------------


def test_box_certificate_char3(char3_cfg):
    cert = box_certificate(char3_cfg, 1)
    assert cert.kind == BOX_OPTIMUM_DECOMPOSITION
    assert cert.bound_on_2h == 86
    assert verify_certificate(cert, char3_cfg)
    g0, gplus = witness_parts(cert.witness)
    assert signature(g0).n_plus == 0
    assert min_entry(gplus) >= 0
    assert apply(g0, (1,) * len(g0)) == (Fraction(0),) * len(g0)


def test_box_certificate_char2(char2_cfg):
    assert box_certificate(char2_cfg, 1).bound_on_2h == Fraction(185, 2)
    assert box_certificate(char2_cfg, 2).bound_on_2h == Fraction(370)


def test_box_certificate_nonnegative_inverse_trivial_split():
    cfg = toy_config()
    cert = box_certificate(cfg, 6)
    g0 = witness_parts(cert.witness)[0]
    assert min_entry(g0) == 0
    assert entry_sum(g0) == 0
    assert cert.bound_on_2h == 144  # all inverse entries nonnegative


def test_box_certificate_no_split():
    # disconnected negative-definite part forces a negative row sum
    cfg = config_from_data(
        [("a", -2), ("x", -2), ("y", -2)], [("x", "y", 3)]
    )
    with pytest.raises(NoDecompositionFoundError):
        box_certificate(cfg, 1)


def test_box_dominated_by_rough(d6tilde_cfg, char3_cfg, char2_cfg):
    for cfg in (d6tilde_cfg, char3_cfg, char2_cfg, toy_config()):
        d = max(cfg.degrees())
        assert (
            box_certificate(cfg, d).bound_on_2h
            <= rough_bound(cfg, d).bound_on_2h
        )


def _random_hyperbolic_configs(count, max_rank=4, seed=20308):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_rank)
        squares = [rng.choice([0, -2]) for _ in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                m = rng.choice([0, 0, 1, 1, 2, 3])
                if m:
                    edges.append((f"v{i}", f"v{j}", m))
        cfg = config_from_data(
            [(f"v{i}", squares[i], 1) for i in range(n)], edges
        )
        sig = signature(gram(cfg))
        if sig.n_plus == 1 and sig.n_zero == 0:
            out.append(cfg)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_brute_force_never_exceeds_bounds(d):
    for cfg in _random_hyperbolic_configs(12):
        w = inverse_reference(gram(cfg))
        exhaustive = box_max(w, d)
        rough = rough_bound(cfg, d)
        assert exhaustive <= rough.bound_on_2h
        assert verify_certificate(rough, cfg)
        try:
            box = box_certificate(cfg, d)
        except NoDecompositionFoundError:
            continue
        assert exhaustive <= box.bound_on_2h
        assert verify_certificate(box, cfg)


def test_verify_certificate_rejects_tampering(char3_cfg):
    cert = box_certificate(char3_cfg, 1)
    forged = BoundCertificate(
        cert.kind, cert.bound_on_2h + 1, cert.support_ids, cert.d, cert.witness
    )
    assert not verify_certificate(forged, char3_cfg)
    # a float equal to an exact value is not exact: neither as the bound
    # (box 86, rough 94) nor as the witness's denominator or one of its
    # entries
    rough = rough_bound(char3_cfg, 1)
    assert (cert.bound_on_2h, rough.bound_on_2h) == (86, 94)
    wit = cert.witness
    row = (float(wit.nonnegative_part[0][0]),) + wit.nonnegative_part[0][1:]
    inexact = [
        cert._replace(bound_on_2h=86.0),
        rough._replace(bound_on_2h=94.0),
        cert._replace(witness=wit._replace(delta=float(wit.delta))),
        cert._replace(
            witness=wit._replace(nonnegative_part=(row,) + wit.nonnegative_part[1:]),
        ),
    ]
    assert verify_certificate(cert, char3_cfg) and verify_certificate(rough, char3_cfg)
    assert not any(verify_certificate(c, char3_cfg) for c in inexact)
    # an object that is not a certificate, even a tuple of a certificate's
    # fields, is rejected rather than raised
    for other in (None, ("a",), tuple(cert), tuple(rough), "cert"):
        assert not verify_certificate(other, char3_cfg)


def test_built_box_witness_that_fails_its_check_is_an_assertion(monkeypatch, char3_cfg):
    # the builder checks each witness it emits; one that fails is a bug in
    # k3lat, never a certificate
    monkeypatch.setattr(bounds, "_witness_fault", lambda g, wit, n_plus: "forged")
    with pytest.raises(AssertionError, match="^box witness fails its check: forged$"):
        box_certificate(char3_cfg, 1)
    with pytest.raises(AssertionError, match="^box witness fails its check: forged$"):
        exclude(char3_cfg, 1, 50)


def test_verify_certificate_needs_the_rank_one_split_and_the_inertia(char3_cfg):
    # two forged box witnesses that pass every other check of the verifier
    # while their negative part has a positive direction
    # inertia: two curves of square 4 meeting three times are positive
    # definite; the rank-one split of their inverse W = [[4, -3], [-3, 4]] / 7
    # claims 2/7 at d = 1, but x = (1, 0) reaches 4/7
    pair = config_from_data([("a", 4, 1), ("b", 4, 1)], [("a", "b", 3)])
    w = inverse(gram(pair))
    r = [sum(row) for row in w]
    gplus = [[ri * rj / sum(r) for rj in r] for ri in r]
    g0 = [[x - y for x, y in zip(rw, rp)] for rw, rp in zip(w, gplus)]
    split = integer_witness(g0, gplus)
    inertia = BoundCertificate(
        BOX_OPTIMUM_DECOMPOSITION, sum(r), pair.ids(), 1, split
    )
    assert (inertia.bound_on_2h, box_max(w, 1)) == (Fraction(2, 7), Fraction(4, 7))
    # rank-one: eps (e0 - e1)(e0 - e1)^T moved from g+ to g0 of a valid
    # certificate keeps the inverse, g+ >= 0 and g0 1 = 0
    cert = box_certificate(char3_cfg, 1)
    g0, gplus = ([list(row) for row in m] for m in witness_parts(cert.witness))
    eps = min(gplus[0][0], gplus[1][1])
    for i, j in product((0, 1), repeat=2):
        move = eps if i == j else -eps
        gplus[i][j] -= move
        g0[i][j] += move
    moved = integer_witness(g0, gplus)
    rank_one = cert._replace(witness=moved)
    assert signature(witness_parts(moved)[0]) == (1, 10, 1)
    for cfg, forged in ((pair, inertia), (char3_cfg, rank_one)):
        assert signature(witness_parts(forged.witness)[0]).n_plus > 0
        assert not verify_certificate(forged, cfg)
        assert not verify_certificate_reference(forged, cfg)


@pytest.mark.parametrize("make", [rough_bound, box_certificate])
@pytest.mark.parametrize(
    "support",
    [("f1", "f2", "c1", "c2", "c3", "f3", "f4"), ("nope",), (["f1"],), None],
)
def test_verify_certificate_total_on_bad_support(make, support):
    # a degenerate support has no inverse, an unknown id no subgraph, and a
    # support that is not a tuple of ids names no subconfiguration; all must
    # be rejected, not raised
    cfg = d6tilde_plus_three()
    cert = make(cfg, 1)
    assert verify_certificate(cert, cfg)
    assert not verify_certificate(cert._replace(support_ids=support), cfg)
    # nor is a bool degree cap, or a box witness part that is not a k x k
    # tuple of int rows
    bad = [cert._replace(d=True)]
    if cert.witness is not None:
        bad += [
            cert._replace(witness=cert.witness._replace(**{part: value}))
            for part in ("negative_part", "nonnegative_part")
            for value in (None, [[0]])
        ]
    assert not any(verify_certificate(c, cfg) for c in bad)


@pytest.mark.parametrize(
    "kind", [INTRINSIC_SQUARE, ROUGH_POSITIVE_ENTRY_SUM, BOX_OPTIMUM_DECOMPOSITION]
)
def test_verify_certificate_rejects_repeated_support_ids(kind):
    # a repeated id is not a subconfiguration, whatever the certificate kind
    cfg = d6tilde_plus_three()
    certs = [rough_bound(cfg, 1), box_certificate(cfg, 1)]
    certs += exclude(cfg, 1, 1, use_pinned_degrees=True).certificates
    cert = next(c for c in certs if c.kind == kind)
    assert verify_certificate(cert, cfg)
    doubled = cert._replace(support_ids=cert.support_ids + cert.support_ids[:1])
    assert not verify_certificate(doubled, cfg)


def test_verify_certificate_rejects_mismatched_witness(char3_cfg):
    cert = box_certificate(char3_cfg, 1)
    wit = cert.witness
    k = len(wit.negative_part) - 1
    bad = wit._replace(negative_part=((0,) * k,) * k)
    assert not verify_certificate(cert._replace(witness=bad), char3_cfg)


def test_verify_certificate_total_on_malformed_witness():
    # two curves whose Gram matrix [[0, 1], [1, -2]] is unimodular, with the
    # inverse [[2, 1], [1, 0]]: no entry is negative, so the witness is the
    # trivial split over delta = 1.  Each copy below holds a denominator or
    # a part that is not a positive int or a 2 x 2 tuple of int rows, many
    # of them equal in value to the valid one; all are rejected, not raised
    cfg = config_from_data([("a", 0, 1), ("b", -2, 1)], [("a", "b")])
    cert = box_certificate(cfg, 1)
    wit = cert.witness
    assert wit == BoxWitness(1, ((0, 0), (0, 0)), ((2, 1), (1, 0)))
    assert verify_certificate(cert, cfg)
    bad = [wit._replace(delta=v) for v in (True, 1.0, Fraction(1), 0, -1, None, "1")]
    for name, part in (
        ("negative_part", wit.negative_part),
        ("nonnegative_part", wit.nonnegative_part),
    ):
        (a, b), (c, e) = part
        bad += [
            wit._replace(**{name: value})
            for value in (
                None,
                "00",
                list(part),
                tuple(map(list, part)),
                ((bool(a), b), (c, e)),
                ((float(a), b), (c, e)),
                ((Fraction(a), b), (c, e)),
                ((None, b), (c, e)),
                part[:1],
                part + ((0, 0),),
                ((a, b, 0), (c, e, 0)),
                ((a,), (c,)),
            )
        ]
    witnesses = [cert._replace(witness=w) for w in bad]
    plain = (wit.delta, wit.negative_part, wit.nonnegative_part)
    witnesses += [cert._replace(witness=w) for w in (None, plain)]
    for forged in witnesses:
        assert verify_certificate(forged, cfg) is False, forged.witness



@pytest.mark.parametrize("cfg", [d6tilde_plus_three(), i3star_four_sections()])
def test_verify_certificate_rejects_degree_cap_below_one(cfg):
    # "2h <= 0" from d = 0, and the d = 1 rough bound passed off as d = -2
    # or d = 3/2, are not certificates for any degree cap
    rough = rough_bound(cfg, 1)
    box = box_certificate(cfg, 1)
    zero_box = box._replace(d=0, bound_on_2h=Fraction(0))
    forged = [
        rough._replace(d=0, bound_on_2h=Fraction(0)),
        zero_box,
        rough._replace(d=-2, bound_on_2h=rough.bound_on_2h * 4),
        rough._replace(d=Fraction(3, 2), bound_on_2h=rough.bound_on_2h * Fraction(9, 4)),
    ]
    assert verify_certificate(rough, cfg) and verify_certificate(box, cfg)
    for cert in forged:
        assert not verify_certificate(cert, cfg), cert.d



def test_verify_certificate_rejects_a_support_curve_above_the_cap():
    # the degree-6 curve of toy_config bounds nothing at d = 1: each kind
    # of certificate passed off at d = 1 is rejected, not raised
    cfg = toy_config()
    rough, box = rough_bound(cfg, 6), box_certificate(cfg, 6)
    (pinned,) = exclude(cfg, 6, 1, use_pinned_degrees=True).certificates
    assert (pinned.kind, pinned.bound_on_2h) == (INTRINSIC_SQUARE, 84)
    forged = [
        rough._replace(d=1, bound_on_2h=Fraction(4)),
        box._replace(d=1, bound_on_2h=Fraction(4)),
        pinned._replace(d=1),
    ]
    for cert in (rough, box, pinned):
        assert verify_certificate(cert, cfg)
    for cert in forged:
        assert not verify_certificate(cert, cfg), cert.kind


def test_verify_certificate_rejects_an_unknown_kind(char3_cfg):
    for cert in (rough_bound(char3_cfg, 1), box_certificate(char3_cfg, 1)):
        assert verify_certificate(cert, char3_cfg)
        assert not verify_certificate(cert._replace(kind="UnknownKind"), char3_cfg)


def test_verify_certificate_rejects_support_without_positive_direction():
    # the inverse form of a negative definite or empty support bounds
    # nothing; each forgery below claims "2h <= 0"
    cfg = d6tilde_plus_three()
    rough = rough_bound(cfg, 1)
    box = box_certificate(cfg, 1)
    empty = BoxWitness(1, (), ())
    forged = [
        rough._replace(support_ids=("f1",), bound_on_2h=Fraction(0)),
        rough._replace(support_ids=("f1", "c1"), bound_on_2h=Fraction(0)),
        box._replace(support_ids=(), bound_on_2h=Fraction(0), witness=empty),
    ]
    for cert in forged:
        assert not verify_certificate(cert, cfg), cert.support_ids


def test_verify_certificate_rejects_a_pinned_square_without_positive_direction():
    # a(-2) meets s(0), and b(-2) is isolated: the whole span is
    # hyperbolic, but the supports (a) and (a, b) are negative definite, so
    # their pinned squares -1/2 and -1 would certify "2h <= -1/2"
    cfg = config_from_data([("a", -2), ("s", 0), ("b", -2)], [("a", "s")])
    (pinned,) = exclude(cfg, 1, 1, use_pinned_degrees=True).certificates
    assert pinned.kind == INTRINSIC_SQUARE and verify_certificate(pinned, cfg)
    for support, square in ((("a",), Fraction(-1, 2)), (("a", "b"), Fraction(-1))):
        ip = intrinsic_polarization(cfg.induced(support))
        assert (ip.exists, ip.square) == (True, square)
        forged = pinned._replace(bound_on_2h=square, support_ids=support, witness=ip)
        assert not verify_certificate(forged, cfg), support


@functools.lru_cache(maxsize=None)
def _certificate_pool():
    """``(cfg, cert)`` for every certificate that acceptance test 8 and the
    calls of the exclude golden produce."""
    pool = []
    for cfg in (d6tilde_plus_three(), i3star_four_sections(), ivstar_three_a2()):
        for d in (1, 2):
            pool += [(cfg, rough_bound(cfg, d)), (cfg, box_certificate(cfg, d))]
            for h in (43, 44, 185, 186):
                pool += [(cfg, c) for c in exclude(cfg, d, h).certificates]
    stress = i4_fibres_with_section()
    for h in (1, 11, 12):
        pool += [(stress, c) for c in exclude(stress, 1, h, 6).certificates]
    for cfg, d in _golden_random_configs():
        full = exclude(cfg, d, 1)
        verdicts = [full, exclude(cfg, d, 1, use_pinned_degrees=True)]
        if full.status is ExclusionStatus.HYPERBOLIC_UNDECIDED:
            h_early = int(full.certificates[0].bound_on_2h // 2) + 1
            verdicts.append(exclude(cfg, d, h_early))
        pool += [(cfg, c) for v in verdicts for c in v.certificates]
    return tuple(pool)


def test_verify_certificate_matches_reference_on_golden_certificates():
    pool = _certificate_pool()
    kinds = {c.kind for _, c in pool}
    assert kinds == {INTRINSIC_SQUARE, ROUGH_POSITIVE_ENTRY_SUM, BOX_OPTIMUM_DECOMPOSITION}
    assert sum(c.kind == BOX_OPTIMUM_DECOMPOSITION for _, c in pool) > 50
    for cfg, cert in pool:
        assert verify_certificate(cert, cfg)
        assert verify_certificate_reference(cert, cfg)
        if cert.kind == BOX_OPTIMUM_DECOMPOSITION:
            # in lowest terms: the witness over the lcm of its split's
            # denominators, so equal splits compare equal
            assert cert.witness == integer_witness(*witness_parts(cert.witness))


def _scaled(wit, c):
    return integer_witness(
        *([[c * x for x in row] for row in m] for m in witness_parts(wit))
    )


def _tampered(data, cfg, cert):
    """One forgery of ``cert`` drawn by ``data``, and whether the reference
    checker, which ignores the support order, is expected to reject it."""
    hows = ["bound", "d"]
    if cert.kind == BOX_OPTIMUM_DECOMPOSITION:
        hows += ["entry", "permute", "drop", "swap", "scale"]
    how = data.draw(st.sampled_from(hows))
    wit = cert.witness
    if how == "bound":
        delta = data.draw(
            st.sampled_from((Fraction(1), Fraction(-1, 7), Fraction(1, 1000)))
        )
        return cert._replace(bound_on_2h=cert.bound_on_2h + delta), True
    if how == "d":
        d = data.draw(st.integers(-3, 5).filter(lambda x: x != cert.d))
        # the bound of an intrinsic certificate and a rough bound of 0 hold
        # for every cap, so only a cap below 1 forges them
        if cert.kind == INTRINSIC_SQUARE or cert.bound_on_2h == 0:
            d = data.draw(st.integers(-3, 0))
        return cert._replace(d=d), d >= 1
    if how == "entry":
        part = data.draw(st.sampled_from((0, 1)))
        parts = [[list(r) for r in m] for m in witness_parts(wit)]
        rows = parts[part]
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        delta = data.draw(
            st.sampled_from((Fraction(1), Fraction(-1, 3), Fraction(1, 90)))
        )
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
        return cert._replace(witness=integer_witness(*parts)), True
    if how == "permute":
        ids = cert.support_ids
        perm = data.draw(st.permutations(range(len(ids))))
        g = gram(cfg)
        idx = [cfg.index_of(v) for v in ids]
        # a permutation that keeps the Gram matrix leaves a valid certificate
        k = len(ids)
        assume(any(
            g[idx[a]][idx[b]] != g[idx[perm[a]]][idx[perm[b]]]
            for a in range(k) for b in range(k)
        ))
        return cert._replace(support_ids=tuple(ids[p] for p in perm)), False
    if how == "drop":
        k = data.draw(st.integers(0, len(cert.support_ids) - 1))
        ids = cert.support_ids[:k] + cert.support_ids[k + 1:]
        return cert._replace(support_ids=ids), True
    if how == "swap":
        swapped = wit._replace(
            negative_part=wit.nonnegative_part, nonnegative_part=wit.negative_part
        )
        return cert._replace(witness=swapped), True
    # a multiple of the inverse: every check but G W = I still holds
    c = data.draw(st.sampled_from((Fraction(2), Fraction(1, 2), Fraction(3))))
    return cert._replace(witness=_scaled(wit, c), bound_on_2h=c * cert.bound_on_2h), True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_certificate_rejects_tampering_hypothesis(data):
    cfg, cert = data.draw(st.sampled_from(_certificate_pool()))
    forged, reference_rejects = _tampered(data, cfg, cert)
    assert not verify_certificate(forged, cfg)
    if reference_rejects:
        assert not verify_certificate_reference(forged, cfg)


def test_verify_certificate_rejects_forgery_under_optimize():
    code = (
        "from fractions import Fraction\n"
        "from k3lat.bounds import box_certificate, verify_certificate\n"
        "from k3lat.graph import config_from_data\n"
        "cfg = config_from_data([('a', -2, 1), ('b', 2, 1)], [('a', 'b', 2)])\n"
        "cert = box_certificate(cfg, 1)\n"
        "w = cert.witness\n"
        "print(verify_certificate(cert, cfg))\n"
        "print(verify_certificate(cert._replace(d=0, bound_on_2h=Fraction(0)), cfg))\n"
        "print(verify_certificate(cert._replace(witness=w._replace(\n"
        "    negative_part=w.nonnegative_part, nonnegative_part=w.negative_part)), cfg))\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "False", "False"]


def test_verify_certificate_rejects_box_witness_on_degenerate_or_definite_support():
    # the box path takes the inverse from the witness and the inertia from
    # one congruence.  A curve p of square 2 beside an A~1 pair (a, b
    # meeting twice) spans a degenerate form of inertia (1, 1, 1): the
    # witness W = diag(1/2, 0, 0), the inverse on p's line, passes every
    # check but the product, which no witness of a singular Gram matrix
    # passes.  Two (-2)-curves meeting once span a negative definite form:
    # its exact inverse -[[2, 1], [1, 2]] / 3 as the split with g0 = 0
    # passes the product check and fails as a nonnegative part
    degenerate = config_from_data([("p", 2), ("a", -2), ("b", -2)], [("a", "b", 2)])
    definite = config_from_data([("a", -2), ("b", -2)], [("a", "b", 1)])
    zero = ((0, 0, 0),) * 3
    forged = [
        (
            degenerate,
            BoundCertificate(
                BOX_OPTIMUM_DECOMPOSITION, Fraction(1, 2), ("p", "a", "b"), 1,
                BoxWitness(2, zero, ((1, 0, 0), (0, 0, 0), (0, 0, 0))),
            ),
            (1, 1, 1),
            "W is not the inverse of the Gram matrix",
        ),
        (
            definite,
            BoundCertificate(
                BOX_OPTIMUM_DECOMPOSITION, Fraction(-2), ("a", "b"), 1,
                BoxWitness(3, ((0, 0), (0, 0)), ((-2, -1), (-1, -2))),
            ),
            (0, 2, 0),
            "the nonnegative part has a negative entry",
        ),
    ]
    for cfg, cert, inertia, fault in forged:
        g = graph.integer_gram(cfg, range(cfg.n))
        assert signature(gram(cfg)) == inertia
        assert bounds._witness_fault(g, cert.witness, inertia[0]) == fault
        assert not verify_certificate(cert, cfg)
        assert not verify_certificate_reference(cert, cfg)


def _integer_split(data, g):
    """A box witness drawn for the integer Gram matrix ``g``: its exact
    inverse (a random matrix when ``g`` is singular) as the split with
    ``g0 = 0`` or as the rank-one split, genuine, with one entry off by
    one, with one entry of another type equal in value, or with one unit
    moved from ``g+`` to ``g0`` at one entry or, keeping ``g0 1 = 0``,
    at one entry and back at another of its row."""
    k = len(g)
    try:
        det, adj, _ = exact.bareiss(g)
    except exact.SingularMatrixError:
        det = 1
        adj = [[data.draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(k)]
    # w = delta W over delta = |det|
    w = [[x if det > 0 else -x for x in row] for row in adj]
    rho = [sum(row) for row in w]
    total = sum(rho)
    if total and data.draw(st.booleans()):
        s = 1 if total > 0 else -1
        delta = abs(det * total)
        parts = [
            [[s * (x * total - ri * rj) for x, rj in zip(row, rho)] for row, ri in zip(w, rho)],
            [[s * ri * rj for rj in rho] for ri in rho],
        ]
    else:
        delta, parts = abs(det), [[[0] * k for _ in range(k)], w]
    hows = ("genuine", "entry", "type", "move", "row") if k else ("genuine",)
    how = data.draw(st.sampled_from(hows))
    if how != "genuine":
        rows = parts[data.draw(st.integers(0, 1))]
        i, j, l = (data.draw(st.integers(0, k - 1)) for _ in range(3))
        if how == "entry":
            rows[i][j] += data.draw(st.sampled_from((1, -1)))
        elif how == "type":
            rows[i][j] = data.draw(st.sampled_from((bool, float, Fraction)))(rows[i][j])
        else:
            g0, gplus = parts
            g0[i][j] += 1
            gplus[i][j] -= 1
            if how == "row":
                g0[i][l] -= 1
                gplus[i][l] += 1
    return BoxWitness(delta, *(tuple(map(tuple, part)) for part in parts))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_witness_fault_matches_entrywise_reference_hypothesis(data):
    # the row-sum product check and the set type check give the answer of
    # the entry-by-entry loop on every witness, whatever the inertia passed
    k = data.draw(st.integers(0, 6))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g[i][j] = g[j][i] = data.draw(st.integers(-3, 3))
    wit = _integer_split(data, g)
    n_plus = data.draw(st.sampled_from((signature(g).n_plus, 0, 1, 2)))
    assert bounds._witness_fault(g, wit, n_plus) == witness_fault_reference(g, wit, n_plus)


def _sweep(cfg, cap):
    # a pass that prunes nothing: its least bound so far stays 1/0.  It
    # yields (subset, state), each subset read off its mask as an index
    # tuple and each state None or a pair (order, entry)
    sweep = _adjugate_sweep(cfg, graph.integer_gram(cfg, range(cfg.n)), cap, [1, 0])
    return ((indices(mask, cfg.n), state) for mask, state in sweep)


def test_sweep_fallback_only_off_the_diagonal(monkeypatch):
    # the two square-0 curves meeting once have a zero diagonal, so their
    # subset takes the congruence for its inertia; no other subset does
    calls = []
    real = exact._congruence

    def spy(rows, witness=False):
        calls.append(rows)
        return real(rows, witness)

    monkeypatch.setattr(bounds, "_congruence", spy)
    cfg = config_from_data([("a", 0, 1), ("b", 0, 1)], [("a", "b")])
    entries = dict(_sweep(cfg, 2))
    assert entries[(0,)] is None and entries[(1,)] is None
    assert entries[(0, 1)][1].n_plus == 1 and [len(g) for g in calls] == [2]
    calls.clear()
    list(_sweep(i4_fibres_with_section(2), 9))
    assert calls == []
    # classify, exclude and catalog verify hand the congruence integers only
    monkeypatch.setattr(graph, "_congruence", spy)
    exclude(cfg, 1, 1)
    assert all(r.ok for r in catalog.verify_catalog())
    received = [x for g in calls for row in g for x in row]
    assert received and all(type(x) is int for x in received)


# -- exclusion engine ---------------------------------------------------------


def test_exclude_d6tilde(d6tilde_cfg):
    verdict = exclude(d6tilde_cfg, 1, 43)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    (cert,) = verdict.certificates
    assert cert.bound_on_2h < 86
    assert verify_certificate(cert, d6tilde_cfg)


def test_exclude_char3_threshold(char3_cfg):
    assert exclude(char3_cfg, 1, 43).status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    assert exclude(char3_cfg, 1, 44).status is ExclusionStatus.HYPERBOLIC_EXCLUDED


def test_exclude_char2_threshold(char2_cfg):
    assert exclude(char2_cfg, 2, 185).status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    assert exclude(char2_cfg, 2, 186).status is ExclusionStatus.HYPERBOLIC_EXCLUDED


def test_exclude_monotone_in_h(char3_cfg):
    excluded = False
    for h in (43, 44, 50, 100):
        status = exclude(char3_cfg, 1, h).status
        if excluded:
            assert status is ExclusionStatus.HYPERBOLIC_EXCLUDED
        excluded = status is ExclusionStatus.HYPERBOLIC_EXCLUDED


def test_exclude_elliptic_admissible():
    cfg = standard_diagram("A", 3)
    assert exclude(cfg, 1, 43).status is ExclusionStatus.ELLIPTIC_ADMISSIBLE


def test_exclude_elliptic_excluded_above_rank_21():
    cfg = config_from_data([(f"v{i}", -2, 1) for i in range(22)])
    assert exclude(cfg, 1, 43).status is ExclusionStatus.ELLIPTIC_EXCLUDED


def test_exclude_parabolic():
    cfg = standard_diagram("AffineA", 3)
    assert exclude(cfg, 1, 43).status is ExclusionStatus.PARABOLIC_FIBRATION


def test_exclude_invalid():
    cfg = config_from_data(
        [("a", -2), ("b", -2), ("c", -2), ("d", -2)],
        [("a", "b", 3), ("c", "d", 3)],
    )
    assert exclude(cfg, 1, 43).status is ExclusionStatus.INVALID_EXCLUDED


def test_exclude_rejects_subgraph_cap_below_one(d6tilde_cfg):
    with pytest.raises(ValueError):
        exclude(d6tilde_cfg, 1, 43, subgraph_cap=0)


@pytest.mark.parametrize("d", [True, 1.0])
@pytest.mark.parametrize(
    "build",
    [rough_bound, box_certificate, lambda cfg, d: exclude(cfg, d, 43)],
    ids=["rough_bound", "box_certificate", "exclude"],
)
def test_degree_cap_must_be_an_int(char3_cfg, build, d):
    # verify_certificate rejects a non-int cap, so none may be issued for one
    with pytest.raises(ValueError, match="must be positive"):
        build(char3_cfg, d)


@pytest.mark.parametrize(
    "h, cap", [(43.5, 13), (True, 13), (43.0, 13), (43, True), (43, 6.0)]
)
def test_exclude_h_and_cap_must_be_ints(char3_cfg, h, cap):
    # 43.5 would be a verdict for 2h = 87, and True would run as h = 1
    with pytest.raises(ValueError, match="must be positive integers"):
        exclude(char3_cfg, 1, h, subgraph_cap=cap)


@pytest.mark.parametrize("cap", [True, 0, -1, 2.0, "2"])
def test_sweep_records_cap_must_be_a_positive_int(char3_cfg, cap):
    # True ran as cap 1, 0 and -1 gave no records, and 2.0 and "2" raised
    # TypeError from inside the enumerator; each is refused at the call
    with pytest.raises(ValueError, match="cap must be positive and an int"):
        sweep_records(char3_cfg, cap)


@pytest.mark.parametrize("pinned", ["no", 1, 0, None])
def test_exclude_pinned_degrees_must_be_a_bool(char3_cfg, pinned):
    # "no" is truthy, so it pinned the degrees
    with pytest.raises(ValueError, match="use_pinned_degrees must be a bool"):
        exclude(char3_cfg, 1, 1, 13, pinned)
    with pytest.raises(ValueError, match="use_pinned_degrees must be a bool"):
        exclude_all(char3_cfg, [(1, 1)], 13, pinned)


def test_exclude_degree_cap_precondition(char3_cfg):
    cfg = config_from_data([("a", -2, 2), ("b", -2, 1)], [("a", "b", 3)])
    with pytest.raises(ValueError):
        exclude(cfg, 1, 43)


def test_exclude_pinned_uses_intrinsic(char3_cfg):
    verdict = exclude(char3_cfg, 1, 44, use_pinned_degrees=True)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    assert verdict.certificates[0].kind == "IntrinsicSquare"
    # at the threshold the pinned square equals 2h, not below it
    assert (
        exclude(char3_cfg, 1, 43, use_pinned_degrees=True).status
        is ExclusionStatus.HYPERBOLIC_UNDECIDED
    )


def test_exclude_stress_full_sweep_cap_8():
    # six I4 fibres plus a zero section: 6545 connected subsets up to 8
    # curves, none of them bounding 2h = 2
    cfg = i4_fibres_with_section()
    verdict = exclude(cfg, 1, 1, subgraph_cap=8)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    (cert,) = verdict.certificates
    assert cert.kind == BOX_OPTIMUM_DECOMPOSITION
    assert cert.bound_on_2h == Fraction(90, 7)
    assert len(cert.support_ids) == 8
    assert verify_certificate(cert, cfg)
    verdict = exclude(cfg, 1, 11, subgraph_cap=8)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    (cert,) = verdict.certificates
    assert cert.bound_on_2h == 20
    assert len(cert.support_ids) == 7
    assert verify_certificate(cert, cfg)


def test_exclude_sweep_step_counts_are_pinned(monkeypatch):
    # 6xI4 plus a zero section at cap 6: a full sweep, whose step count and
    # degenerate subsets (None states) do not vary between runs
    steps = recorded_steps(monkeypatch, bounds)
    verdict = exclude(i4_fibres_with_section(), 1, 11, subgraph_cap=6)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_UNDECIDED
    assert len(steps) == 1257
    assert sum(state is None for state in steps) == 81


def test_exclude_sweep_computes_each_shared_state_once(monkeypatch):
    # the same sweep: a subset whose parent's class, border column and
    # diagonal entry have been met at its level takes the stored state, so
    # only 38 of the 1257 steps compute a bordered update
    computed = []
    real = bounds._border

    def spy(*args):
        computed.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_border", spy)
    steps = recorded_steps(monkeypatch, bounds)
    exclude(i4_fibres_with_section(), 1, 11, subgraph_cap=6)
    assert (len(steps), sum(state is None for state in steps)) == (1257, 81)
    assert len(computed) == 38


@pytest.mark.parametrize(
    "cap, subsets, degenerate, computed, last, bound",
    [
        (9, 13118, 511, 340, (2432, 192), Fraction(38, 3)),
        (11, 40941, 781, 1208, (6400, 512), Fraction(25, 2)),
    ],
)
def test_stress_sweep_counts_are_pinned(
    monkeypatch, cap, subsets, degenerate, computed, last, bound
):
    # 6xI4 plus a zero section beyond the cap-6 pins: one pass visits as
    # many subsets, finds as many degenerate, computes as many bordered
    # updates and ends on the same last record as the sweep whose column b
    # was scanned off the whole order of the parent; counts that do not
    # vary between runs
    cfg = i4_fibres_with_section()
    calls = []
    real = bounds._border

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_border", spy)
    g = graph.integer_gram(cfg, range(cfg.n))
    states = [state for _, state in _adjugate_sweep(cfg, g, cap, [1, 0])]
    assert (len(states), states.count(None), len(calls)) == (subsets, degenerate, computed)
    subset, total, den = list(sweep_records(cfg, cap))[-1]
    assert ((total, den), Fraction(total, den), len(subset)) == (last, bound, cap)


@pytest.mark.parametrize(
    "cfg, cap",
    [
        (i4_fibres_with_section(), 6),
        # two square-0 curves meeting once: both singletons are degenerate
        (config_from_data([("a", 0, 1), ("b", 0, 1)], [("a", "b")]), 2),
        # a section meeting five fibre components, whose whole set has only
        # degenerate connected parents
        (config_from_data(
            [("s", -2, 1)] + [(f"c{i}", -2, 1) for i in range(5)],
            [("s", f"c{i}") for i in range(5)],
        ), 6),
    ],
)
def test_sweep_builds_an_index_tuple_per_record_and_elimination_only(monkeypatch, cfg, cap):
    # a full sweep reads a subset's index tuple off its mask once for each
    # record it yields and once for each subset it eliminates from scratch,
    # and never once per subset; the fibre search reads none
    converted, seen = [], []
    real_indices, real_subsets = graph.mask_indices, bounds.connected_vertex_subsets

    def indices_spy(mask, n):
        converted.append(mask)
        return real_indices(mask, n)

    def subsets_spy(cfg, max_size, grow, root):
        # every step, and whether it eliminates its subset from scratch
        def step(parent, u, mask):
            seen.append((mask, parent is None))
            return grow(parent, u, mask)

        return real_subsets(cfg, max_size, step, root)

    for module in (graph, bounds, roots, kodaira):
        if hasattr(module, "mask_indices"):
            monkeypatch.setattr(module, "mask_indices", indices_spy)
    monkeypatch.setattr(bounds, "connected_vertex_subsets", subsets_spy)
    steps = recorded_steps(monkeypatch, bounds)
    records = list(sweep_records(cfg, cap))
    scratch = [mask for mask, fresh in seen if fresh]
    assert len(seen) == len(steps)
    assert records and len(converted) == len(records) + len(scratch) < len(steps)
    assert Counter(converted) == Counter(scratch + [mask_of(r[0], cfg.n) for r in records])
    converted.clear()
    kodaira.find_kodaira_divisors(cfg)
    assert converted == []


def test_exclude_builds_the_whole_gram_matrix_once(monkeypatch):
    # classify builds the n x n Gram matrix and the sweep reads that one;
    # the certificate's support (at most 6 of 25 curves) takes its own
    cfg = i4_fibres_with_section()
    whole = []
    real = graph.integer_gram

    def spy(cfg_, idx):
        if len(idx) == cfg_.n:
            whole.append(idx)
        return real(cfg_, idx)

    for module in (graph, bounds):
        monkeypatch.setattr(module, "integer_gram", spy)
    for _ in range(2):
        whole.clear()
        verdict = exclude(cfg, 1, 11, subgraph_cap=6)
        assert verdict.status is ExclusionStatus.HYPERBOLIC_UNDECIDED
        assert len(whole) == 1
    assert len(exclude_all(cfg, [(1, 11), (1, 1)], subgraph_cap=6)) == 2
    assert len(whole) == 2


def test_exclude_holds_the_rebuilt_certificate_to_the_sweep_bound(monkeypatch):
    # the first hyperbolic state at the cap has its total corrupted to 0, so
    # its subset reads bound 0 < 2h and ends the sweep; the certificate
    # rebuilt from the subset's own Gram matrix carries its true bound, and
    # exclude refuses to return it
    real = bounds._border
    corrupted = []

    def corrupt(parent, b, c, cls, best):
        state = real(parent, b, c, cls, best)
        if cls is None and state is not None and state.n_plus == 1 and not corrupted:
            corrupted.append(state)
            return state._replace(total=0)
        return state

    monkeypatch.setattr(bounds, "_border", corrupt)
    with pytest.raises(
        AssertionError, match="sweep bound 0 differs from the rebuilt certificate's"
    ):
        exclude(i4_fibres_with_section(), 1, 11, subgraph_cap=6)
    assert len(corrupted) == 1


def test_checked_certificate_builds_a_rough_certificate():
    # p (square 2) meets n (square -2) once: the inverse [[2, 1], [1, -2]] / 5
    # has a row sum of each sign, so the box split fails and the rough
    # bound, its positive entries 2/5 + 1/5 + 1/5, is the certificate
    cfg = config_from_data([("p", 2), ("n", -2)], [("p", "n", 1)])
    cert = _checked_certificate(bounds._Span(cfg), (0, 1), 1, Fraction(4, 5))
    assert cert.kind == ROUGH_POSITIVE_ENTRY_SUM
    assert (cert.bound_on_2h, cert.support_ids, cert.d) == (Fraction(4, 5), ("p", "n"), 1)
    assert verify_certificate(cert, cfg)
    with pytest.raises(
        AssertionError, match="sweep bound 1/2 differs from the rebuilt certificate's 4/5"
    ):
        _checked_certificate(bounds._Span(cfg), (0, 1), 1, Fraction(1, 2))


def test_sweep_skips_a_rough_sum_at_the_cap_that_cannot_set_a_record(monkeypatch):
    # p (square 2) meets n (square -2) once: p's bound 1/2 is the first
    # record, and the pair's inverse [[2, 1], [1, -2]] / 5 fails the box
    # split with positive row sum 3/5 >= 1/2, so its rough sum 4/5 is never
    # taken; the pass that prunes nothing still finds it
    cfg = config_from_data([("p", 2), ("n", -2)], [("p", "n", 1)])
    states = []
    real = bounds._border

    def spy(parent, b, c, cls, best):
        state = real(parent, b, c, cls, best)
        states.append((cls, state, list(best)))
        return state

    monkeypatch.setattr(bounds, "_border", spy)
    assert list(sweep_records(cfg, 2)) == [((0,), 1, 2)]
    cls, pair, best = states[-1]
    assert (cls, pair.det, pair.n_plus, pair.total, best) == (None, -5, 1, None, [1, 2])
    assert dict(_sweep(cfg, 2))[(0, 1)][1].total == 4


def test_sweep_skips_a_rough_total_below_the_cap(monkeypatch):
    # with m (square -2) meeting n once, the same pair has a child, so its
    # state keeps an adjugate, and the sweep never calls _rough_total; the
    # pass that prunes nothing calls it for the pair and for the triple at
    # the cap, whose inverse over 8 fails the box split too
    cfg = config_from_data(
        [("p", 2), ("n", -2), ("m", -2)], [("p", "n", 1), ("n", "m", 1)]
    )
    calls = []
    real = bounds._rough_total

    def spy(det, adj):
        calls.append(det)
        return real(det, adj)

    monkeypatch.setattr(bounds, "_rough_total", spy)
    assert list(sweep_records(cfg, 3)) == [((0,), 1, 2)]
    assert calls == []
    assert dict(_sweep(cfg, 3))[(0, 1)][1].total == 4
    assert calls == [-5, 8]


def test_sweep_rough_sum_count_is_pinned(monkeypatch):
    # six curves at cap 4: a rough sum is taken exactly when _may_win
    # holds, each by _rough_total, and the pass that prunes nothing takes
    # 27 of them; the sweep takes none, with the same records
    cfg = config_from_data(
        [("v0", -2), ("v1", -2), ("v2", -2), ("v3", 0), ("v4", 0), ("v5", 2)],
        [
            ("v0", "v3", 1), ("v0", "v5", 2), ("v1", "v2", 1), ("v1", "v4", 2),
            ("v1", "v5", 2), ("v2", "v3", 1), ("v2", "v5", 1), ("v3", "v4", 2),
            ("v3", "v5", 1), ("v4", "v5", 3),
        ],
    )
    taken = Counter()
    real_win, real_rough = bounds._may_win, bounds._rough_total

    def may_win(det, sums, best):
        won = real_win(det, sums, best)
        taken["box split fails"] += 1
        taken["rough sums"] += won
        return won

    def rough(det, adj):
        taken["_rough_total"] += 1
        return real_rough(det, adj)

    monkeypatch.setattr(bounds, "_may_win", may_win)
    monkeypatch.setattr(bounds, "_rough_total", rough)
    records = [((5,), 1, 2), ((4, 5), 4, 9)]
    assert _unpruned_records(cfg, 4) == records
    assert taken == {"box split fails": 27, "rough sums": 27, "_rough_total": 27}
    taken.clear()
    assert list(sweep_records(cfg, 4)) == records
    assert taken == {"box split fails": 27, "rough sums": 0}


def test_may_win_reads_the_row_sums_of_the_determinants_sign():
    # the p-n pair: adjugate [[-2, -1], [-1, 2]] over -5, with row sums -3
    # and 1; only -3 has the sign of -5, so the rough bound is at least
    # 3/5, which beats 7/10 but not 3/5 itself, a tie never winning.
    # Summing every row sum's size would read 4/5 and miss 7/10
    assert bounds._may_win(-5, [-3, 1], [7, 10])
    assert not bounds._may_win(-5, [-3, 1], [3, 5])


def test_sweep_eliminates_a_subset_of_degenerate_parents_from_scratch(monkeypatch):
    # three curves of square 2 meeting pairwise twice: every pair is
    # degenerate, so the triple has no nondegenerate parent; its one
    # Bareiss elimination finds it degenerate too
    cfg = config_from_data(
        [("a", 2), ("b", 2), ("c", 2)], [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)]
    )
    real = bounds._adjugate
    calls = []

    def spy(rows):
        entry = real(rows)
        calls.append((rows, entry))
        return entry

    monkeypatch.setattr(bounds, "_adjugate", spy)
    assert list(sweep_records(cfg, 3)) == [((0,), 1, 2)]
    # the one elimination is of the triple's Gram matrix, every entry 2
    assert calls == [([[2, 2, 2]] * 3, None)]


def _random_config(data):
    # 2-6 curves of squares -2, 0 or 2, degrees up to a cap d of 1-3, and
    # multiplicities up to 3
    n = data.draw(st.integers(min_value=2, max_value=6))
    d = data.draw(st.integers(min_value=1, max_value=3))
    squares = st.sampled_from((-2, -2, -2, 0, 2))
    verts = [
        (f"v{i}", data.draw(squares), data.draw(st.integers(1, d)))
        for i in range(n)
    ]
    mults = st.sampled_from((0, 0, 1, 1, 2, 3))
    edges = [
        (f"v{i}", f"v{j}", m)
        for i in range(n)
        for j in range(i + 1, n)
        if (m := data.draw(mults))
    ]
    return config_from_data(verts, edges), n, d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exclude_matches_reference_hypothesis(data):
    cfg, n, d = _random_config(data)
    h = data.draw(st.integers(min_value=1, max_value=40))
    cap = data.draw(st.integers(min_value=1, max_value=n))
    pinned = data.draw(st.booleans())
    assert exclude(cfg, d, h, cap, pinned) == exclude_reference(
        cfg, d, h, cap, pinned
    )


def _records(cfg, cap):
    return list(sweep_records(cfg, cap))


def _unpruned_records(cfg, cap):
    # the records of a pass that prunes nothing: its states of inertia
    # (1, k - 1) whose exact bound at d = 1 is a new strict minimum
    records, least = [], None
    for subset, state in _sweep(cfg, cap):
        entry = state and state[1]
        if entry is not None and entry.n_plus == 1:
            bound = Fraction(entry.total, abs(entry.det))
            if least is None or bound < least:
                least = bound
                records.append((subset, entry.total, abs(entry.det)))
    return records


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_records_to_a_cap_are_a_prefix_hypothesis(data):
    # the sweep to cap c is a prefix of the sweep to any c' > c, so its
    # records are the longer sweep's of at most c curves; each is a
    # hyperbolic subset whose bound at d = 1 is below every earlier one's
    cfg, n, _ = _random_config(data)
    cap = data.draw(st.integers(min_value=1, max_value=n))
    longer = data.draw(st.integers(min_value=cap, max_value=n + 1))
    records = _records(cfg, cap)
    assert records == [r for r in _records(cfg, longer) if len(r[0]) <= cap]
    bounds_at_1 = [Fraction(total, den) for _, total, den in records]
    assert all(a > b for a, b in zip(bounds_at_1, bounds_at_1[1:]))
    for subset, total, den in records:
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
        assert signature(gram(sub)) == (1, len(subset) - 1, 0)
        d = max(sub.degrees())
        cert = subgraph_certificates_reference(sub, d)[0]
        assert cert.bound_on_2h == Fraction(total * d * d, den)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_records_skip_only_what_cannot_win_hypothesis(data):
    # the records are those of a pass that prunes nothing; a state of
    # inertia (1, k - 1) left with no total has positive row sums of its
    # inverse summing to no less than the least record before it, and its
    # bound at d = 1 is no less than that sum
    cfg, n, _ = _random_config(data)
    cap = data.draw(st.integers(min_value=1, max_value=n))
    skipped = []
    real = bounds._adjugate_sweep

    def spy(cfg, g, cap, best):
        for mask, state in real(cfg, g, cap, best):
            entry = state and state[1]
            if entry is not None and entry.n_plus == 1 and entry.total is None:
                skipped.append((indices(mask, cfg.n), Fraction(best[0], best[1])))
            yield mask, state

    with mock.patch.object(bounds, "_adjugate_sweep", spy):
        assert _records(cfg, cap) == _unpruned_records(cfg, cap)
    for subset, least in skipped:
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
        low = sum(max(0, sum(row)) for row in inverse_reference(gram(sub)))
        d = max(sub.degrees())
        assert subgraph_certificates_reference(sub, d)[0].bound_on_2h >= low * d * d
        assert low >= least


def _entries(cfg, cap):
    # every subset of the pass that prunes nothing, with the determinant,
    # positive inertia and total of its entry, each independent of the order
    # of its rows
    return [
        (subset, state and (state[1].det, state[1].n_plus, state[1].total))
        for subset, state in _sweep(cfg, cap)
    ]


def test_sweep_from_scratch_matches_the_bordered_sweep_hypothesis():
    # a step handed no parent eliminates its subset from scratch; forcing
    # that on every step leaves every entry and record as the bordered
    # sweep's, and the pass that prunes nothing takes the rough sum there
    real_subsets, real_rough = bounds.connected_vertex_subsets, bounds._rough_total
    rough = []

    def from_scratch(cfg, max_size, grow, root):
        def step(parent, u, mask):
            return grow(None, u, mask)

        return real_subsets(cfg, max_size, step, root)

    def rough_spy(det, adj):
        rough.append(det)
        return real_rough(det, adj)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        cfg, n, _ = _random_config(data)
        cap = data.draw(st.integers(min_value=1, max_value=n))
        records, entries = _records(cfg, cap), _entries(cfg, cap)
        assert records == _unpruned_records(cfg, cap)
        forced = mock.patch.multiple(
            bounds, connected_vertex_subsets=from_scratch, _rough_total=rough_spy
        )
        with forced:
            assert _records(cfg, cap) == records
            assert _entries(cfg, cap) == entries

    check()
    assert rough


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exclude_all_matches_reference_hypothesis(data):
    # one sweep shared by 1-4 cases gives each the verdict of its own
    # reference loop, whatever the order in which the cases pull records
    cfg, n, d = _random_config(data)
    cases = data.draw(
        st.lists(
            st.tuples(st.integers(d, d + 2), st.integers(1, 40)),
            min_size=1,
            max_size=4,
        )
    )
    cap = data.draw(st.integers(min_value=1, max_value=n))
    pinned = data.draw(st.booleans())
    assert exclude_all(cfg, cases, cap, pinned) == [
        exclude_reference(cfg, cd, h, cap, pinned) for cd, h in cases
    ]


def test_exclude_early_exit_stops_the_sweep(monkeypatch):
    # 6xI4 plus a zero section at cap 6, h = 12: the records are pulled
    # lazily, so the sweep stops at the excluding subset after the same 749
    # steps (36 of them degenerate) as the loop that checked each subset
    # against 2h in place
    steps = recorded_steps(monkeypatch, bounds)
    verdict = exclude(i4_fibres_with_section(), 1, 12, subgraph_cap=6)
    assert verdict.status is ExclusionStatus.HYPERBOLIC_EXCLUDED
    (cert,) = verdict.certificates
    assert (cert.bound_on_2h, len(cert.support_ids)) == (22, 6)
    assert (len(steps), sum(state is None for state in steps)) == (749, 36)


def test_exclude_all_runs_one_sweep(monkeypatch):
    # an excluding case pulls part of the sweep, an undecided one the rest
    # and a later excluding one replays what was pulled: one sweep, each
    # step once
    steps = recorded_steps(monkeypatch, bounds)
    cfg = i4_fibres_with_section()
    cases = [(1, 12), (1, 11), (1, 13), (2, 45)]
    verdicts = exclude_all(cfg, cases, subgraph_cap=6)
    assert len(steps) == 1257
    assert verdicts == [exclude(cfg, d, h, subgraph_cap=6) for d, h in cases]
    assert [v.status.value for v in verdicts] == [
        "HyperbolicExcluded", "HyperbolicUndecided",
        "HyperbolicExcluded", "HyperbolicExcluded",
    ]
    # no case needs no classification
    monkeypatch.setattr(bounds, "_gram_class", None)
    assert exclude_all(cfg, [], subgraph_cap=6) == []


def test_each_exclude_call_classifies_once(monkeypatch):
    # a call reads its classification off a span of its own, so two calls
    # on one parsed configuration classify its Gram matrix once each
    classified = []
    real = bounds._gram_class
    monkeypatch.setattr(bounds, "_gram_class", lambda g: classified.append(g) or real(g))
    cfg = i3star_four_sections()
    for calls in (1, 2):
        assert exclude(cfg, 1, 44).status is ExclusionStatus.HYPERBOLIC_EXCLUDED
        assert classified == [integer_gram(cfg, range(cfg.n))] * calls


def _spy_built_certificates(monkeypatch, cfg):
    """The ``(subset, d, bound)`` of every box or rough certificate built
    on ``cfg``, the subset as the index tuple of its support."""
    built = []
    for name in ("_box_certificate", "_rough_certificate"):

        def spy(ids, *args, _real=getattr(bounds, name)):
            cert = _real(ids, *args)
            built.append((tuple(map(cfg.index_of, ids)), cert.d, cert.bound_on_2h))
            return cert

        monkeypatch.setattr(bounds, name, spy)
    return built


def test_exclude_all_builds_one_certificate_per_record(monkeypatch):
    # char3 at d = 1: h = 43 is undecided at the least bound 86, and h = 44
    # is excluded by that same record, so the two cases build one
    # certificate and return equal ones
    built = _spy_built_certificates(monkeypatch, i3star_four_sections())
    undecided, excluded = exclude_all(i3star_four_sections(), [(1, 43), (1, 44)])
    assert (undecided.status, excluded.status) == (
        ExclusionStatus.HYPERBOLIC_UNDECIDED, ExclusionStatus.HYPERBOLIC_EXCLUDED
    )
    assert [(len(subset), d, bound) for subset, d, bound in built] == [(12, 1, 86)]
    assert undecided.certificates == excluded.certificates
    # a second call builds again: nothing is kept between calls
    exclude_all(i3star_four_sections(), [(1, 43)])
    assert len(built) == 2


def test_exclude_all_builds_one_certificate_per_distinct_record(monkeypatch):
    # 6xI4 plus a section at cap 6: h = 12 ends at the six-curve record of
    # bound 22 and h = 40 at the five-curve record of bound 35, and the same
    # six curves at d = 2 are another record of bound 88; each case builds
    # its own certificate, once
    cfg = i4_fibres_with_section()
    built = _spy_built_certificates(monkeypatch, cfg)
    verdicts = exclude_all(cfg, [(1, 12), (1, 40), (2, 45), (1, 12)], subgraph_cap=6)
    assert built == [
        ((0, 1, 5, 9, 13, 17), 1, 22), ((0, 1, 2, 3, 4), 1, 35),
        ((0, 1, 5, 9, 13, 17), 2, 88),
    ]
    certs = [v.certificates for v in verdicts]
    assert [c.bound_on_2h for (c,) in certs] == [22, 35, 88, 22]
    assert certs[0] == certs[3] and len(set(certs)) == 3


def _nodal_fibres(d):
    """A zero section ``O`` and the 24 nodal fibres ``N0``..``N23`` of an
    elliptic K3 surface, every curve of degree ``d``: 25 curves whose span
    has rank 2."""
    return config_from_data(
        [("O", -2, d)] + [(f"N{i}", 0, d) for i in range(24)],
        [("O", f"N{i}") for i in range(24)],
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nodal_fibres_sweep_stops_at_the_rank(monkeypatch, d):
    # every subset of more curves than the rank 2 is degenerate, so the
    # default cap of 13 sweeps nothing beyond the pairs; H = d O + 3d F has
    # H.C = d on every curve and H^2 = 4 d^2, so the bound is sharp
    real = bounds.connected_vertex_subsets
    swept = []

    def spy(cfg, max_size, grow, root):
        for mask, state in real(cfg, max_size, grow, root):
            assert mask.bit_count() <= 2
            swept.append(mask)
            yield mask, state

    monkeypatch.setattr(bounds, "connected_vertex_subsets", spy)
    cfg = _nodal_fibres(d)
    for h, status in [
        (2 * d * d, ExclusionStatus.HYPERBOLIC_UNDECIDED),
        (2 * d * d + 1, ExclusionStatus.HYPERBOLIC_EXCLUDED),
    ]:
        verdict = exclude(cfg, d, h)
        assert verdict.status is status
        (cert,) = verdict.certificates
        assert (cert.kind, cert.bound_on_2h, cert.support_ids) == (
            BOX_OPTIMUM_DECOMPOSITION, 4 * d * d, ("O", "N0")
        )
        assert verify_certificate(cert, cfg)
    assert verdict.notes == (f"2h = {2 * h} exceeds bound {4 * d * d}",)
    assert exclude(cfg, d, 2 * d * d).notes == (
        f"no certificate below 2h = {4 * d * d} on subgraphs up to 13 vertices",
    )
    assert swept


@pytest.mark.parametrize(
    "cfg, cap",
    [
        (i4_fibres_with_section(), 6),
        # the inverse [[-1/4, 1/4], [1/4, 1/4]] has a zero row sum: the box
        # split still applies, with bound 1/2 against the rough 3/4
        (config_from_data([("a", -2, 1), ("b", 2, 1)], [("a", "b", 2)]), 2),
    ],
)
def test_sweep_bounds_match_reference(cfg, cap):
    # the sweep visits the reference's subsets in the reference's order,
    # finds the same hyperbolic ones and reads the same certs[0] bound
    swept = list(_sweep(cfg, cap))
    subsets = sorted(connected_subsets_reference(cfg, cap), key=lambda s: (len(s), s))
    assert [s for s, _ in swept] == subsets
    hyperbolic = leaves = 0
    for subset, state in swept:
        entry = state and state[1]
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
        sig = signature(gram(sub))
        if len(subset) == cap and entry is not None:
            leaves += entry.adj is None
            _assert_last_level_state(cfg, subset, state)
        if sig.n_plus != 1 or sig.n_zero != 0:
            assert entry is None or entry.n_plus != 1
            continue
        hyperbolic += 1
        for d in (1, 2):
            cert = subgraph_certificates_reference(sub, d)[0]
            assert _state_bound(entry, d) == cert.bound_on_2h
    assert hyperbolic > 0 and leaves > 0


def _state_bound(entry, d):
    # the bound a sweep state of inertia (1, k - 1) gives exclude
    return Fraction(entry.total * d * d, abs(entry.det))


def _assert_exact_entry(cfg, order, entry):
    # the exact determinant, adjugate, row sums and inertia of the Gram
    # matrix of the curves order, in that order
    m = submatrix(gram(cfg), order)
    assert entry.det == det(m)
    adj = [[entry.det * x for x in row] for row in inverse_reference(m)]
    assert [list(row) for row in entry.adj] == adj
    assert entry.sums == [sum(row) for row in adj]
    assert entry.n_plus == signature(m).n_plus


def _assert_last_level_state(cfg, subset, state):
    # a nondegenerate state at the sweep's cap, whose order is (), against
    # the subset's Gram matrix from scratch: its entry's determinant, its
    # inertia, its total, |det| times its bound at d = 1 when of inertia
    # (1, k - 1), else None, and its row sums, which follow some order of
    # the subset.  A bordered entry keeps no adjugate; one computed from
    # scratch keeps its exact adjugate in the subset's order
    order, entry = state
    assert order == ()
    sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
    m = gram(sub)
    assert entry.det == det(m)
    assert entry.n_plus == signature(m).n_plus
    sums = [entry.det * sum(row) for row in inverse_reference(m)]
    assert sorted(entry.sums) == sorted(sums)
    total = None
    if entry.n_plus == 1:
        # the bound at d = 1 is the one at the largest degree over its square
        d = max(sub.degrees())
        bound = subgraph_certificates_reference(sub, d)[0].bound_on_2h / (d * d)
        total = abs(entry.det) * bound
    assert entry.total == total
    if entry.adj is not None:
        _assert_exact_entry(cfg, subset, entry)


def test_sweep_adjugates_exact_on_stress_configuration():
    # every cached entry in its subset's order, a permutation of the
    # subset, which checks the exact division of each update, and every
    # last-level state, of order (), against its subset from scratch.  The
    # subsets of one class hold one entry object, and most entries below
    # the cap and at it are held by several subsets of equal Gram matrix,
    # which the relabelled, reordered copy pairs up differently
    for cfg in (i4_fibres_with_section(), _relabelled_fibrations(copies=1)[0]):
        shared, shared_leaves = Counter(), Counter()
        classes = {}
        # all held at once, so that no two live entries have one id
        for subset, state in list(_sweep(cfg, 6)):
            if state is None:
                assert signature(submatrix(gram(cfg), subset)).n_zero > 0
                continue
            order, entry = state
            if len(subset) == 6:
                shared_leaves[id(entry)] += 1
                _assert_last_level_state(cfg, subset, state)
                continue
            assert classes.setdefault((len(subset), entry.cls), entry) is entry
            shared[id(entry)] += 1
            assert sorted(order) == list(subset)
            _assert_exact_entry(cfg, order, entry)
        assert max(shared.values()) > 1 and max(shared_leaves.values()) > 1


def _has_nondegenerate_connected_parent(cfg, subset):
    for v in subset:
        rest = tuple(x for x in subset if x != v)
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in rest))
        if len(sub.connected_components()) == 1 and signature(gram(sub)).n_zero == 0:
            return True
    return False


@pytest.mark.parametrize(
    "cfg, from_scratch",
    [
        # two square-0 curves meeting once: both singletons are degenerate
        (config_from_data([("a", 0, 1), ("b", 0, 1)], [("a", "b")]), (0, 1)),
        # an I4 cycle listed before its section: the degenerate cycle is
        # the first parent met by the whole configuration and is replaced
        (
            config_from_data(
                [(f"c{i}", -2, 1) for i in range(4)] + [("s", -2, 1)],
                [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0"),
                 ("s", "c0")],
            ),
            None,
        ),
        # a section meeting five fibre components: each connected parent
        # is the section with four of them, a degenerate D~4 star
        (
            config_from_data(
                [("s", -2, 1)] + [(f"c{i}", -2, 1) for i in range(5)],
                [("s", f"c{i}") for i in range(5)],
            ),
            (0, 1, 2, 3, 4, 5),
        ),
    ],
)
def test_sweep_subsets_without_nondegenerate_parent(cfg, from_scratch):
    entries = dict(_sweep(cfg, cfg.n))
    if from_scratch is not None:
        assert not _has_nondegenerate_connected_parent(cfg, from_scratch)
        assert entries[from_scratch] is not None
    for subset, state in entries.items():
        if state is None:
            continue
        if len(subset) == cfg.n:
            _assert_last_level_state(cfg, subset, state)
        else:
            _assert_exact_entry(cfg, *state)
    for d, h in ((1, 1), (1, 2), (2, 3), (3, 50)):
        for pinned in (False, True):
            assert exclude(cfg, d, h, use_pinned_degrees=pinned) == (
                exclude_reference(cfg, d, h, use_pinned_degrees=pinned)
            )


def _assert_leaves_match_certificates(cfg, cap, d):
    # every subset at the sweep's last level: its state against the subset
    # from scratch and its bound against its certificates; then
    # exclude against its reference at h = 1 and just above the least leaf
    # bound.  Returns the cases met: the certificate kind of each bordered
    # leaf, a negative determinant, a subset computed from scratch, and the
    # status of a verdict whose certificate is a bordered leaf
    cases, leaves, leaf_bounds = set(), set(), []
    for subset, state in _sweep(cfg, cap):
        if len(subset) < cap:
            continue
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
        sig = signature(gram(sub))
        assert (state is None) == (sig.n_zero > 0)
        if state is None:
            continue
        _assert_last_level_state(cfg, subset, state)
        entry = state[1]
        if sig.n_plus != 1:
            continue
        cert = subgraph_certificates_reference(sub, d)[0]
        assert _state_bound(entry, d) == cert.bound_on_2h
        leaf_bounds.append(cert.bound_on_2h)
        if entry.adj is None:
            leaves.add(subset)
            cases.add(cert.kind)
            if entry.det < 0:
                cases.add("negative determinant")
        else:
            cases.add("from scratch")
    for h in {1, int(min(leaf_bounds, default=0) // 2) + 1}:
        verdict = exclude(cfg, d, h, cap)
        assert verdict == exclude_reference(cfg, d, h, cap)
        certs = verdict.certificates
        if certs and tuple(map(cfg.index_of, certs[0].support_ids)) in leaves:
            cases.add(verdict.status)
    return cases


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_leaf_bounds_match_certificates_hypothesis(data):
    cfg, n, d = _random_config(data)
    assume(classify(cfg).kind is SpanKind.HYPERBOLIC)
    cap = data.draw(st.integers(min_value=2, max_value=n))
    _assert_leaves_match_certificates(cfg, cap, d)


def test_leaf_bounds_cover_every_case():
    inputs = [
        # box and rough leaves of four curves, excluded at and undecided
        # with a certificate on the last level
        (
            config_from_data(
                [("v0", -2, 1), ("v1", -2, 1), ("v2", -2, 3), ("v3", -2, 2),
                 ("v4", -2, 3)],
                [("v0", "v1", 3), ("v0", "v2"), ("v0", "v3"), ("v1", "v3", 2),
                 ("v1", "v4"), ("v2", "v3", 3), ("v2", "v4")],
            ),
            4,
            3,
        ),
        # rough leaves of five curves, of positive determinant
        (
            config_from_data(
                [(f"v{i}", -2, 1) for i in range(5)],
                [("v0", "v2", 3), ("v1", "v3"), ("v1", "v4"), ("v2", "v4", 2)],
            ),
            5,
            1,
        ),
        # the chain's parents are both the degenerate A~1, so it is
        # computed from scratch
        (
            config_from_data(
                [("v0", -2, 1), ("v1", -2, 2), ("v2", -2, 3)],
                [("v0", "v1", 2), ("v1", "v2", 2)],
            ),
            3,
            3,
        ),
        # box leaves of five curves, of positive determinant
        (i4_fibres_with_section(2), 5, 1),
    ]
    cases = set()
    for cfg, cap, d in inputs:
        cases |= _assert_leaves_match_certificates(cfg, cap, d)
    assert cases == {
        BOX_OPTIMUM_DECOMPOSITION,
        ROUGH_POSITIVE_ENTRY_SUM,
        "negative determinant",
        "from scratch",
        ExclusionStatus.HYPERBOLIC_EXCLUDED,
        ExclusionStatus.HYPERBOLIC_UNDECIDED,
    }


def _realised_polarizations(count=100, seed=5209):
    """Seeded hyperbolic configurations of 2-7 curves (squares -2/0/2,
    multiplicities 0-3), each with ``H^2`` for an integer class
    ``H = sum a_i C_i``, ``a_i`` in ``[-2, 3]``, with ``H.C >= 1`` on every
    curve and ``H^2 >= 2``; each curve's degree is ``H.C``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 7)
        squares = [rng.choice((-2, -2, -2, 0, 2)) for _ in range(n)]
        mults = {
            (i, j): rng.choice((0, 0, 1, 1, 2, 3))
            for i in range(n)
            for j in range(i + 1, n)
        }
        a = [rng.randint(-2, 3) for _ in range(n)]
        degrees = [
            sum(
                a[j] * (squares[i] if i == j else mults[min(i, j), max(i, j)])
                for j in range(n)
            )
            for i in range(n)
        ]
        square = sum(x * y for x, y in zip(a, degrees))
        if min(degrees) < 1 or square < 2:
            continue
        cfg = config_from_data(
            [(f"v{i}", squares[i], degrees[i]) for i in range(n)],
            [(f"v{i}", f"v{j}", m) for (i, j), m in mults.items() if m],
        )
        if classify(cfg).kind is SpanKind.HYPERBOLIC:
            out.append((cfg, square))
    return out


def test_exclude_never_excludes_a_realised_polarization():
    # H pairs to each curve's degree, at most d = max H.C, and has square
    # 2h = H^2, so no sound bound of any subset, nor the pinned square, is
    # below 2h: no cap and neither degree mode may exclude
    for cfg, square in _realised_polarizations():
        d = max(cfg.degrees())
        for cap in range(1, cfg.n + 1):
            for pinned in (False, True):
                verdict = exclude(cfg, d, square // 2, cap, pinned)
                assert verdict.status is not ExclusionStatus.HYPERBOLIC_EXCLUDED, (
                    cfg, cap, pinned, verdict.certificates,
                )


def test_exclude_deterministic(char3_cfg):
    v1 = exclude(char3_cfg, 1, 44)
    v2 = exclude(char3_cfg, 1, 44)
    assert v1 == v2


def _golden_random_configs(count=40, seed=4107):
    """Seeded configurations with squares -2/0/2, multiplicities 1-3 and
    degrees up to a per-config cap; every fourth one is disconnected and
    every eighth is kept whatever its span, the rest are hyperbolic."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = len(out)
        n = rng.randint(3, 7)
        d = rng.randint(1, 3)
        verts = [
            (f"v{i}", rng.choice((-2,) * 9 + (0, 0, 2)), rng.randint(1, d))
            for i in range(n)
        ]
        split = rng.randint(1, n - 1) if k % 4 == 0 else n
        edges = [
            (f"v{i}", f"v{j}", rng.choice((1, 1, 1, 1, 1, 2, 3)))
            for i in range(n)
            for j in range(i + 1, n)
            if (i < split) == (j < split) and rng.random() < 0.4
        ]
        cfg = config_from_data(verts, edges, name=f"r{k}")
        if k % 8 == 7 or classify(cfg).kind is SpanKind.HYPERBOLIC:
            out.append((cfg, d))
    return out


def _rational(witness):
    """The values a certificate's witness stands for, whatever its form: a
    box witness as its two parts, each a tuple of rows of Fractions."""
    if isinstance(witness, BoxWitness):
        return witness_parts(witness)
    return witness


def test_exclude_golden_byte_identical():
    # pins statuses, certificates with the values of their witnesses and
    # their support order, and notes: full sweeps, early exits and pinned
    # degrees
    calls = [
        (cfg, d, h, 13, False)
        for cfg in (d6tilde_plus_three(), i3star_four_sections(), ivstar_three_a2())
        for d in (1, 2)
        for h in (43, 44, 185, 186)
    ]
    calls += [(i4_fibres_with_section(), 1, h, 6, False) for h in (1, 11, 12)]
    for cfg, d in _golden_random_configs():
        calls.append((cfg, d, 1, 13, False))
        calls.append((cfg, d, 1, 13, True))
        full = exclude(cfg, d, 1)
        if full.status is ExclusionStatus.HYPERBOLIC_UNDECIDED:
            h_early = int(full.certificates[0].bound_on_2h // 2) + 1
            calls.append((cfg, d, h_early, 13, False))
    out = []
    for cfg, d, h, cap, pinned in calls:
        v = exclude(cfg, d, h, subgraph_cap=cap, use_pinned_degrees=pinned)
        certs = tuple(
            (c.kind, c.bound_on_2h, c.support_ids, c.d, c.note, _rational(c.witness))
            for c in v.certificates
        )
        out.append((v.status, certs, v.notes))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "a52ca4ae4fd94d3c"


# -- admissible h range -------------------------------------------------------


def test_admissible_h_range_toy():
    assert admissible_h_range(toy_config()).h_max == 42


def test_admissible_h_range_parabolic_unbounded():
    assert admissible_h_range(standard_diagram("AffineA", 3)).h_max is None


def test_admissible_h_range_nonexistent_polarization():
    # hyperbolic with a radical that pairs nontrivially with the degrees
    cfg = config_from_data(
        [("a", -2, 1), ("b", -2, 1), ("x", -2, 1), ("y", -2, 1)],
        [("a", "b", 2), ("x", "y", 3)],
    )
    assert classify(cfg).kind.value == "Hyperbolic"
    rng = admissible_h_range(cfg)
    assert rng.h_max == 0


def test_admissible_h_range_negative_square_admits_no_h():
    # p (square 2, degree 1) meets n (square -2, degree 5) once: the class
    # solving C.H = d_C has square -38/5, which leaves no h >= 1, not h <= -4
    cfg = config_from_data([("p", 2, 1), ("n", -2, 5)], [("p", "n", 1)])
    assert intrinsic_polarization(cfg).square == Fraction(-38, 5)
    rng = admissible_h_range(cfg)
    assert rng.h_max == 0 and "no h >= 1" in rng.note


def test_admissible_h_range_char3(char3_cfg):
    assert admissible_h_range(char3_cfg).h_max == 43


def test_admissible_h_range_invalid_span_is_empty():
    # two disjoint curves of square 2: two positive directions
    cfg = config_from_data([("a", 2), ("b", 2)])
    assert classify(cfg).kind is SpanKind.INVALID
    rng = admissible_h_range(cfg)
    assert rng.h_max == 0 and "two positive directions" in rng.note


# -- classify golden ------------------------------------------------------------


def _relabelled_fibrations(copies=3, seed=2207):
    """6xI4 and 4xI6 with a section meeting the first component of each
    fibre, each ``copies`` times with its curves renamed and listed in a
    seeded random order."""
    rng = random.Random(seed)
    out = []
    for fibres, length in ((6, 4), (4, 6)):
        ids = ["s"] + [f"f{f}c{c}" for f in range(fibres) for c in range(length)]
        edges = [
            (f"f{f}c{c}", f"f{f}c{(c + 1) % length}")
            for f in range(fibres)
            for c in range(length)
        ]
        edges += [("s", f"f{f}c0") for f in range(fibres)]
        for k in range(copies):
            order = rng.sample(ids, len(ids))
            name = {v: f"x{i}" for i, v in enumerate(rng.sample(ids, len(ids)))}
            cfg = config_from_data(
                [(name[v], -2, 1) for v in order],
                [(name[a], name[b]) for a, b in edges],
                name=f"{fibres}xI{length}-relabelled-{k}",
            )
            out.append(cfg)
    return out


def test_classify_golden_byte_identical():
    # pins the kind, the signature and the positive witness on the shipped
    # configurations, the exclude golden's random ones and relabelled
    # fibrations with a section
    cfgs = []
    for path in sorted(Path(catalog.data_root()).glob("*/*.json")):
        try:
            cfgs.append(parse_config(path.read_text()).config)
        except ValueError:
            pass  # profiles, models and catalog entries
    assert len(cfgs) == 4
    cfgs += [cfg for cfg, _ in _golden_random_configs()]
    cfgs += _relabelled_fibrations()
    out = [
        (c.kind, c.signature, positive_square_vector(integer_gram(cfg, range(cfg.n))))
        for cfg, c in zip(cfgs, map(classify, cfgs))
    ]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "721cdcdf86a79444"
