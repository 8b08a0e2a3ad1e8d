import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import exact, graph
from k3lat.bounds import box_certificate, exclude, rough_bound
from k3lat.exact import (
    Signature,
    kernel_basis,
    positive_square_vector,
    signature,
)
from k3lat.graph import (
    CUT,
    CurveVertex,
    Final,
    LatticeClass,
    SpanKind,
    classify,
    config_from_data,
    connected_vertex_subsets,
    hodge_filter,
    quotient_by_kernel,
    validate_pairings,
)
from k3lat.kodaira import exclusion_6d, find_kodaira_divisors

from conftest import i4_fibres_with_section, indices, mask_of
from oracles import (
    apply,
    fraction_rows,
    gram,
    kernel_basis_reference,
    quadratic_form,
    quotient_by_kernel_reference,
    row_reduce_rank,
    signature_and_witness_reference,
    tuple_keyed_subsets_reference,
)


def test_vertex_validation():
    with pytest.raises(ValueError):
        CurveVertex("a", square=-3)
    with pytest.raises(ValueError):
        CurveVertex("a", square=-4)
    with pytest.raises(ValueError):
        CurveVertex("a", degree=0)
    with pytest.raises(ValueError):
        CurveVertex("")
    # an int id would give certificates that verify_certificate rejects
    for vid in (1, None, b"a"):
        with pytest.raises(ValueError, match="must be a str"):
            CurveVertex(vid, 2)


def test_vertex_copies_are_checked():
    # _replace builds the copy through the constructor, checks included
    v = CurveVertex("a")
    assert v._replace(degree=3) == CurveVertex("a", -2, 3)
    for change in ({"square": -3}, {"degree": 0}, {"id": ""}, {"square": True}):
        with pytest.raises(ValueError):
            v._replace(**change)


def test_config_validation():
    with pytest.raises(ValueError):
        config_from_data([("a", -2), ("a", -2)])
    with pytest.raises(ValueError):
        config_from_data([("a", -2)], [("a", "a", 1)])
    with pytest.raises(ValueError):
        config_from_data([("a", -2)], [("a", "b", 1)])
    with pytest.raises(ValueError):
        config_from_data([("a", -2), ("b", -2)], [("a", "b", 0)])
    with pytest.raises(ValueError):
        config_from_data([("a", -2), ("b", -2)], [("a", "b", 1), ("b", "a", 1)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: config_from_data([("a", -2), ("b", -2)], [("a", "b", 1.5)]),
        lambda: config_from_data([("a", -2), ("b", -2)], [("a", "b", True)]),
        lambda: CurveVertex("a", -2.0),
        lambda: CurveVertex("a", True),
        lambda: CurveVertex("a", -2, True),
        lambda: CurveVertex("a", -2, 1.0),
    ],
    ids=["mult-float", "mult-bool", "square-float", "square-bool", "degree-bool",
         "degree-float"],
)
def test_data_types_take_exact_ints(build):
    # a multiplicity of 1.5 would be a non-integral intersection number
    with pytest.raises(ValueError, match="must be an int"):
        build()


def test_edges_stored_once_in_index_order():
    # edges given in any order and direction read back in increasing index
    # pairs, and configurations with the same edges are equal and hash alike
    verts = [("a", -2), ("b", -2), ("c", 0)]
    cfg = config_from_data(verts, [("c", "b", 2), ("b", "a"), ("c", "a")])
    same = config_from_data(verts, [("a", "c"), ("a", "b"), ("b", "c", 2)])
    assert cfg.edge_items() == [("a", "b", 1), ("a", "c", 1), ("b", "c", 2)]
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != config_from_data(verts, [("a", "b"), ("a", "c"), ("b", "c")])
    assert (cfg.edge_mult("c", "b"), cfg.edge_mult("b", "a")) == (2, 1)
    assert [dict(row) for row in cfg.adjacency()] == [
        {1: 1, 2: 1}, {0: 1, 2: 2}, {0: 1, 1: 2}
    ]


# every entry point that takes a degree cap, a half-degree or a weight cap,
# called with the one value under test; the others are valid
_CAPPED_CALLS = {
    "exclude-d": lambda cfg, x: exclude(cfg, x, 43),
    "exclude-h": lambda cfg, x: exclude(cfg, 1, x),
    "rough_bound": lambda cfg, x: rough_bound(cfg, x),
    "box_certificate": lambda cfg, x: box_certificate(cfg, x),
    "hodge_filter-d": lambda cfg, x: hodge_filter(cfg, x, 43),
    "hodge_filter-h": lambda cfg, x: hodge_filter(cfg, 1, x),
    "exclusion_6d-d": lambda cfg, x: exclusion_6d(cfg, x, 43),
    "exclusion_6d-h": lambda cfg, x: exclusion_6d(cfg, 1, x),
    "max_weight": lambda cfg, x: find_kodaira_divisors(cfg, x),
}


@pytest.mark.parametrize("call", _CAPPED_CALLS.values(), ids=_CAPPED_CALLS)
@pytest.mark.parametrize("x", [True, 1.0, 1.5, 43.5, 0, -1])
def test_caps_are_positive_ints(char3_cfg, call, x):
    # 43.5 would be a verdict for 2h = 87, True would run as 1
    with pytest.raises(ValueError, match="must be positive"):
        call(char3_cfg, x)


@pytest.mark.parametrize(
    "name", ["exclude-d", "exclude-h", "hodge_filter-d", "hodge_filter-h",
             "exclusion_6d-d", "exclusion_6d-h"],
)
def test_degree_caps_bound_every_curve(name):
    # a bound of the Gram matrix alone (rough_bound, box_certificate) holds
    # for any cap, so only these need every curve degree at most d
    cfg = config_from_data([("a", -2, 2), ("b", -2, 1)], [("a", "b", 3)])
    with pytest.raises(ValueError, match=r"^vertex 'a' has degree 2 > d = 1$"):
        _CAPPED_CALLS[name](cfg, 1)


def test_gram_single_vertex():
    cfg = config_from_data([("a", -2)])
    assert gram(cfg) == ((-2,),)


def test_gram_double_edge():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 2)])
    assert gram(cfg) == ((-2, 2), (2, -2))


def test_gram_four_cycle_circulant():
    cfg = config_from_data(
        [(f"v{i}", -2) for i in range(4)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")],
    )
    assert gram(cfg) == ((-2, 1, 0, 1), (1, -2, 1, 0), (0, 1, -2, 1), (1, 0, 1, -2))


def test_classify_chain_elliptic():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 1)])
    cls = classify(cfg)
    assert cls.kind is SpanKind.ELLIPTIC
    assert cls.signature == signature(gram(cfg))


def test_classify_isotropic_parabolic():
    cls = classify(config_from_data([("a", 0)]))
    assert cls.kind is SpanKind.PARABOLIC


def test_classify_triple_edge_hyperbolic():
    cls = classify(config_from_data([("a", -2), ("b", -2)], [("a", "b", 3)]))
    assert cls == LatticeClass(SpanKind.HYPERBOLIC, Signature(1, 1, 0))


def test_classify_invalid_with_witness():
    cfg = config_from_data(
        [("a", -2), ("b", -2), ("c", -2), ("d", -2)],
        [("a", "b", 3), ("c", "d", 3)],
    )
    cls = classify(cfg)
    assert cls == LatticeClass(SpanKind.INVALID, Signature(2, 2, 0))
    # the vector of positive square that k3lat classify reports
    assert quadratic_form(gram(cfg), positive_square_vector(gram(cfg))) > 0



@pytest.mark.parametrize(
    "verts, edges, kind",
    [
        ([("a", -2), ("b", -2)], [("a", "b", 3)], SpanKind.HYPERBOLIC),
        (
            [("a", -2), ("b", -2), ("c", -2), ("d", -2)],
            [("a", "b", 3), ("c", "d", 3)],
            SpanKind.INVALID,
        ),
        (
            [("a", 0), ("b", 0), ("c", -2)],
            [("a", "b", 1), ("b", "c", 1)],
            SpanKind.HYPERBOLIC,
        ),
    ],
)
def test_classify_runs_one_elimination(monkeypatch, verts, edges, kind):
    # the signature comes from one witness-free congruence, run on the
    # integer Gram matrix
    cfg = config_from_data(verts, edges)
    calls = []
    congruence = exact._congruence
    monkeypatch.setattr(
        graph,
        "_congruence",
        lambda rows, witness=False: calls.append((rows, witness)) or congruence(rows, witness),
    )
    cls = classify(cfg)
    assert cls == LatticeClass(kind, signature(gram(cfg)))
    ((rows, witness),) = calls
    assert not witness and all(type(x) is int for row in rows for x in row)


def test_lattice_class_is_its_kind_and_signature():
    # a plain named tuple of two fields, which alone make its repr,
    # equality and hash, and nothing else
    cfg = config_from_data([("a", 2), ("b", -2)], [("a", "b", 1)])
    cls = classify(cfg)
    bare = LatticeClass(SpanKind.HYPERBOLIC, Signature(1, 1, 0))
    assert LatticeClass._fields == ("kind", "signature")
    assert repr(cls) == repr(bare) == (
        "LatticeClass(kind=<SpanKind.HYPERBOLIC: 'Hyperbolic'>, "
        "signature=Signature(n_plus=1, n_minus=1, n_zero=0))"
    )
    assert cls == bare and hash(cls) == hash(bare) and {cls: 1}[bare] == 1
    assert cls != LatticeClass(SpanKind.INVALID, Signature(1, 1, 0))
    assert cls != LatticeClass(SpanKind.HYPERBOLIC, Signature(1, 2, 0))
    assert not hasattr(cls, "__dict__")
    with pytest.raises(AttributeError):
        cls.positive_witness = None


def test_lattice_class_replace_is_a_plain_copy():
    cls = classify(config_from_data([("a", -2), ("b", 2)], [("a", "b", 2)]))
    copy = cls._replace(kind=SpanKind.INVALID)
    assert type(copy) is LatticeClass
    assert copy == LatticeClass(SpanKind.INVALID, cls.signature) == (SpanKind.INVALID, cls.signature)
    assert cls._replace() == cls


def test_validate_pairings_elliptic_clean():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 1)])
    assert validate_pairings(cfg, classify(cfg)) == []


def test_validate_pairings_never_fires_on_the_computed_class_hypothesis():
    # a definite span's 2 x 2 minors force every pairing of (-2)-curves
    # into {0, 1}, and a semi-definite one's into {0, 1, 2} with every
    # isotropic curve meeting nothing, so the computed class admits no
    # violation; some examples are definite or semi-definite with an edge
    semidefinite = []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        squares = st.sampled_from((-2, -2, -2, 0, 2))
        mults = st.sampled_from((0, 0, 1, 1, 2, 3))
        edges = [
            (f"v{i}", f"v{j}", m)
            for i in range(n)
            for j in range(i + 1, n)
            if (m := data.draw(mults))
        ]
        cfg = config_from_data([(f"v{i}", data.draw(squares)) for i in range(n)], edges)
        cls = classify(cfg)
        assert validate_pairings(cfg, cls) == []
        if edges and cls.kind in (SpanKind.ELLIPTIC, SpanKind.PARABOLIC):
            semidefinite.append(cfg)

    check()
    assert semidefinite


def test_validate_pairings_elliptic_claim_on_double_edge():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 2)])
    claimed = LatticeClass(SpanKind.ELLIPTIC, Signature(0, 2, 0))
    violations = validate_pairings(cfg, claimed)
    assert [v.rule for v in violations] == ["elliptic-pair"]
    assert violations[0].vertices == ("a", "b")


def test_validate_pairings_isotropic_meets_curve():
    cfg = config_from_data([("d", 0), ("c", -2)], [("d", "c", 1)])
    claimed = LatticeClass(SpanKind.PARABOLIC, Signature(0, 1, 1))
    violations = validate_pairings(cfg, claimed)
    assert "isotropic-orthogonal" in [v.rule for v in violations]


def test_validate_pairings_monotone_under_added_edges():
    base = config_from_data(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b", 2)]
    )
    more = config_from_data(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b", 2), ("b", "c", 3)]
    )
    claimed = LatticeClass(SpanKind.PARABOLIC, Signature(0, 2, 1))
    v1 = {(v.rule, v.vertices) for v in validate_pairings(base, claimed)}
    v2 = {(v.rule, v.vertices) for v in validate_pairings(more, claimed)}
    assert v1 <= v2


def test_quotient_two_isotropic_rank_zero():
    cfg = config_from_data([("a", 0), ("b", 0)])
    q, proj = quotient_by_kernel(cfg)
    assert q == ()
    assert proj.basis_ids == ()


def test_quotient_four_cycle_rank_three():
    cfg = config_from_data(
        [(f"v{i}", -2) for i in range(4)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")],
    )
    q, proj = quotient_by_kernel(cfg)
    assert len(q) == 3
    full = signature(gram(cfg))
    assert signature(q) == (full.n_plus, full.n_minus, 0)
    # projection sends each vertex to its class: the dropped vertex maps to
    # minus the sum of the others (the radical is the all-ones vector)
    dropped = next(iter(set(cfg.ids()) - set(proj.basis_ids)))
    img = proj.apply([Fraction(v == dropped) for v in cfg.ids()])
    assert img == (Fraction(-1),) * 3


def test_quotient_nondegenerate_identity():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 1)])
    q, proj = quotient_by_kernel(cfg)
    assert q == ((-2, 1), (1, -2)) == gram(cfg)
    assert all(type(x) is int for row in q for x in row)
    assert proj.basis_ids == ("a", "b")
    assert proj.apply([1, 0]) == (Fraction(1), Fraction(0))


def test_quotient_projection_takes_one_entry_per_vertex():
    # the A~1 pair plus a disjoint curve: a rank-2 quotient of 3 curves
    cfg = config_from_data([("a", -2), ("b", -2), ("c", -2)], [("a", "b", 2)])
    _, proj = quotient_by_kernel(cfg)
    assert len(proj.basis_ids) == 2
    assert proj.apply([1, 1, 0]) == (Fraction(0), Fraction(0))
    for vec in ([1, 0, 0, 5], [1, 0]):
        with pytest.raises(ValueError, match="one per vertex"):
            proj.apply(vec)


def test_rank_zero_quotient_projection_checks_the_vector_length():
    # two disjoint isotropic curves span a quotient of rank 0: its matrix
    # has no row, yet the projection still takes one entry per vertex
    cfg = config_from_data([("a", 0), ("b", 0)])
    q, proj = quotient_by_kernel(cfg)
    assert (q, proj.basis_ids, proj.matrix, proj.vertex_count) == ((), (), (), 2)
    assert proj.apply([1, 2]) == ()
    for vec in ([1, 2, 3], [1], []):
        with pytest.raises(ValueError, match="one per vertex"):
            proj.apply(vec)


def test_hodge_filter_clean_chain():
    cfg = config_from_data([("a", -2, 1), ("b", -2, 1)], [("a", "b", 1)])
    assert hodge_filter(cfg, 1, 43) == []


def test_hodge_filter_isotropic_pair():
    cfg = config_from_data([("a", 0, 1), ("b", 0, 1)], [("a", "b", 1)])
    rules = [v.rule for v in hodge_filter(cfg, 1, 43)]
    assert "isotropic-pair" in rules


def test_hodge_filter_positive_square():
    cfg = config_from_data([("a", 2, 1)])
    violations = hodge_filter(cfg, 1, 43)
    assert [v.rule for v in violations] == ["square-bound"]
    assert violations[0].slack == Fraction(2) - Fraction(1, 86)


def test_hodge_filter_bezout():
    cfg = config_from_data([("a", -2, 1), ("b", -2, 2)], [("a", "b", 3)])
    rules = [v.rule for v in hodge_filter(cfg, 2, 400)]
    assert "pair-bezout" in rules
    assert "pair-cap" in rules


def test_hodge_filter_degree_cap_precondition():
    cfg = config_from_data([("a", -2, 3)])
    with pytest.raises(ValueError):
        hodge_filter(cfg, 2, 43)


def test_induced_and_disjoint_union():
    cfg = config_from_data(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b", 1), ("b", "c", 2)]
    )
    sub = cfg.induced(["a", "b"])
    assert sub.ids() == ("a", "b")
    assert sub.edge_mult("a", "b") == 1
    other = config_from_data([("x", 0)])
    both = cfg.disjoint_union(other)
    assert both.n == 4
    with pytest.raises(ValueError):
        cfg.disjoint_union(cfg)


def _brute_connected_subsets(cfg, max_size):
    """Connected vertex subsets of at most ``max_size`` curves in canonical
    order, by trying every subset."""
    adj = cfg.adjacency()

    def connected(sub):
        todo, seen = [sub[0]], {sub[0]}
        while todo:
            for w in adj[todo.pop()]:
                if w in sub and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(sub)

    return [
        c
        for r in range(1, max_size + 1)
        for c in itertools.combinations(range(cfg.n), r)
        if connected(c)
    ]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=70).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
))
def test_mask_indices_reads_each_curve_off_its_bit(case):
    # the enumerator's masks put curve v at bit n - 1 - v, with leading
    # zero bits for the first curves, and curve_bits lists those bits
    n, mask = case
    assert graph.mask_indices(mask, n) == indices(mask, n)
    assert mask_of(graph.mask_indices(mask, n), n) == mask
    bits = graph.curve_bits(n)
    assert [mask_of((v,), n) for v in range(n)] == bits
    assert tuple(v for v, bit in enumerate(bits) if mask & bit) == indices(mask, n)


def test_connected_subsets_no_duplicates_and_complete():
    # one grow call per subset, none stepped twice whatever its number of
    # connected parents: a 4-cycle with a tail, and 6xI4 plus a section up
    # to six curves
    cycle = config_from_data(
        [(f"v{i}", -2) for i in range(5)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"), ("v3", "v4")],
    )
    for cfg, size in [(cycle, 5), (i4_fibres_with_section(), 6)]:
        calls = []
        grow = lambda parent, u, mask: calls.append(mask)
        out = [mask for mask, _ in connected_vertex_subsets(cfg, size, grow, None)]
        assert calls == out
        subs = [indices(m, cfg.n) for m in out]
        assert len(subs) == len(set(subs))
        assert sorted(subs) == sorted(_brute_connected_subsets(cfg, size))


@pytest.mark.parametrize("max_size", [0, -3])
def test_connected_subsets_empty_below_size_one(max_size):
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b")])
    calls = []
    grow = lambda parent, u, subset: calls.append(subset)
    assert list(connected_vertex_subsets(cfg, max_size, grow, None)) == []
    assert calls == []


def _random_roots(data, max_n, max_weight=5):
    """A random configuration of at most ``max_n`` (-2)-curves, single and
    double edges, and a weight from 1 to ``max_weight`` per curve."""
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    edges = [
        (f"v{i}", f"v{j}", data.draw(st.integers(min_value=1, max_value=2)))
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.integers(min_value=0, max_value=2)) == 0
    ]
    cfg = config_from_data([(f"v{i}", -2) for i in range(n)], edges)
    return cfg, data.draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))


def _contract_step(cfg, weights, limit=None, degenerate=None, final=None):
    """A recording step that keeps the enumerator's contract, and its list
    of ``(parent, u, subset)`` calls.  A subset is cut above the weight
    ``limit`` or when it strictly contains a connected subset whose weight
    ``final`` divides and that is not above the limit: so cuts are
    monotone, and every superset of a final subset is cut.  Otherwise its
    state is final when ``final`` divides its weight, None when
    ``degenerate`` does, and else the subset itself."""
    n, calls = cfg.n, []
    weight = lambda sub: sum(weights[i] for i in sub)
    closing = [
        mask_of(sub, n)
        for sub in _brute_connected_subsets(cfg, n)
        if final and weight(sub) % final == 0 and (limit is None or weight(sub) <= limit)
    ]

    def grow(parent, u, key):
        # key: a mask, or an index tuple for the tuple-keyed reference
        subset = key if type(key) is tuple else indices(key, n)
        mask = mask_of(subset, n)
        calls.append((parent, u, subset))
        w = weight(subset)
        if limit is not None and w > limit or any(f & mask == f != mask for f in closing):
            return CUT
        if final and w % final == 0:
            return Final((subset,))
        return None if degenerate and w % degenerate == 0 else subset

    return grow, calls


def _assert_parents_connected_and_stated(cfg, calls, yielded):
    # each subset is stepped once, from a connected parent the search has
    # yielded, and with a state of None only if every connected parent
    # that grows has state None
    n = cfg.n
    assert len({subset for _, _, subset in calls}) == len(calls)
    states = {indices(mask, n): state for mask, state in yielded}
    states[()] = "root"
    for parent, u, subset in calls:
        rest = tuple(x for x in subset if x != u)
        assert u in subset and rest in states and parent is states[rest]
        if parent is None:
            others = [states.get(tuple(x for x in subset if x != v)) for v in subset]
            assert all(s is None or type(s) is Final for s in others), subset


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_connected_subsets_match_brute_force(data):
    # states are subset weights, None when divisible by 3 (the sweep's
    # degenerate subsets), cut above an optional limit (a monotone cut)
    cfg, weights = _random_roots(data, 8, max_weight=3)
    n = cfg.n
    max_size = data.draw(st.integers(min_value=-1, max_value=n + 1))
    limit = data.draw(st.none() | st.integers(min_value=1, max_value=3 * n + 1))
    grow, calls = _contract_step(cfg, weights, limit, degenerate=3)
    out = list(connected_vertex_subsets(cfg, max_size, grow, "root"))
    weight = lambda sub: sum(weights[i] for i in sub)
    for mask, state in out:
        subset = indices(mask, n)
        assert state == (None if weight(subset) % 3 == 0 else subset)
    brute = _brute_connected_subsets(cfg, max(max_size, 0))
    assert [indices(mask, n) for mask, _ in out] == [
        s for s in brute if limit is None or weight(s) <= limit
    ]
    _assert_parents_connected_and_stated(cfg, calls, out)


def _final_search(cfg, max_size, is_final):
    """The subsets and states of a search whose step marks a subset final
    when ``is_final`` says so, and the number of levels it built: the size
    of the largest subset it stepped."""
    levels = 0

    def grow(parent, u, mask):
        nonlocal levels
        subset = indices(mask, cfg.n)
        levels = max(levels, len(subset))
        return Final((subset,)) if is_final(subset) else subset

    out = connected_vertex_subsets(cfg, max_size, grow, None)
    return [(indices(mask, cfg.n), state) for mask, state in out], levels


def test_connected_subsets_skip_what_only_final_subsets_reach():
    # a triangle whose edges are all final: each is yielded once, and the
    # whole triangle, reachable through them only, is not
    cfg = config_from_data([("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("a", "c")])
    out, levels = _final_search(cfg, 3, lambda sub: len(sub) == 2)
    assert [sub for sub, _ in out] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert [type(state) is Final for _, state in out] == [False] * 3 + [True] * 3
    assert levels == 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_connected_subsets_with_final_states_match_reference(data):
    # a final subset is yielded once and grows nothing, and every superset
    # of it is cut: the search yields the connected subsets that contain
    # no smaller final one, as the tuple-keyed reference does, and builds
    # no level past the first empty one
    cfg, weights = _random_roots(data, 8)
    n = cfg.n
    final = data.draw(st.integers(min_value=2, max_value=6))
    max_size = data.draw(st.integers(min_value=1, max_value=n + 3))
    grow, calls = _contract_step(cfg, weights, final=final)
    out = list(connected_vertex_subsets(cfg, max_size, grow, "root"))
    is_final = lambda sub: sum(weights[i] for i in sub) % final == 0
    brute = _brute_connected_subsets(cfg, max_size)
    want = [
        sub for sub in brute
        if not any(is_final(f) and set(f) < set(sub) for f in brute)
    ]
    assert [indices(mask, n) for mask, _ in out] == want
    for mask, state in out:
        sub = indices(mask, n)
        assert state == ((sub,) if is_final(sub) else sub)
        assert (type(state) is Final) == is_final(sub)
    ref_grow, _ = _contract_step(cfg, weights, final=final)
    assert out == [
        (mask_of(sub, n), state)
        for sub, state in tuple_keyed_subsets_reference(cfg, max_size, ref_grow, "root")
    ]
    deepest = max(map(len, want), default=0)
    levels = max((len(subset) for _, _, subset in calls), default=0)
    assert deepest <= levels <= min(deepest + 1, max_size)
    _assert_parents_connected_and_stated(cfg, calls, out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_connected_subsets_match_tuple_keyed_reference(data):
    # one contract-keeping step drives the bitmask enumerator and the
    # tuple-keyed one it replaced; states are the subset, None when its
    # weight is divisible by one modulus, final when divisible by another,
    # and cut above an optional limit: both yield the same (subset, state)
    # stream, and the enumerator steps each subset at most once and only
    # the subsets the reference steps
    cfg, weights = _random_roots(data, 9)
    n = cfg.n
    max_size = data.draw(st.integers(min_value=-1, max_value=n + 1))
    limit = data.draw(st.none() | st.integers(min_value=1, max_value=5 * n + 1))
    degenerate = data.draw(st.integers(min_value=2, max_value=5))
    final = data.draw(st.integers(min_value=2, max_value=7))
    grow, calls = _contract_step(cfg, weights, limit, degenerate, final)
    out = list(connected_vertex_subsets(cfg, max_size, grow, "root"))
    ref_grow, ref_calls = _contract_step(cfg, weights, limit, degenerate, final)
    reference = list(tuple_keyed_subsets_reference(cfg, max_size, ref_grow, "root"))
    assert [(indices(mask, n), state) for mask, state in out] == reference
    assert {subset for _, _, subset in calls} <= {subset for _, _, subset in ref_calls}
    _assert_parents_connected_and_stated(cfg, calls, out)


def test_connected_subsets_take_the_first_stated_parent_when_the_own_is_none():
    # a triangle whose pair {0, 1} is degenerate: the whole triangle is
    # grown from {0, 1} but borders {0, 2}, the first connected parent in
    # canonical order whose state is not None; with every parent None it
    # keeps its own
    cfg = config_from_data([("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("a", "c")])
    for degenerate, want in [({(0, 1)}, ((0, 2), 1)), ({(0, 1), (0, 2), (1, 2)}, (None, 2))]:
        calls = []

        def grow(parent, u, mask):
            subset = indices(mask, 3)
            calls.append((subset, parent, u))
            return None if subset in degenerate else subset

        list(connected_vertex_subsets(cfg, 3, grow, "root"))
        assert [(parent, u) for subset, parent, u in calls if len(subset) == 3] == [want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_signature_property(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    squares = data.draw(
        st.lists(st.sampled_from([0, -2]), min_size=n, max_size=n)
    )
    mults = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = data.draw(st.integers(min_value=0, max_value=2))
            if m:
                mults[(f"v{i}", f"v{j}")] = m
    cfg = config_from_data(
        [(f"v{i}", squares[i]) for i in range(n)],
        [(a, b, m) for (a, b), m in mults.items()],
    )
    q, proj = quotient_by_kernel(cfg)
    full = signature(gram(cfg))
    assert signature(q) == (full.n_plus, full.n_minus, 0)
    assert len(q) == n - full.n_zero
    assert len(q) == row_reduce_rank(gram(cfg))


def _random_config(data, max_n):
    # isotropic vertices and double (and triple) edges
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    squares = data.draw(st.lists(st.sampled_from([0, -2, -2]), min_size=n, max_size=n))
    edges = [
        (f"v{i}", f"v{j}", m)
        for i in range(n)
        for j in range(i + 1, n)
        if (m := data.draw(st.sampled_from([0, 0, 1, 1, 2, 3])))
    ]
    return config_from_data([(f"v{i}", squares[i]) for i in range(n)], edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_and_kernel_match_references_hypothesis(data):
    cfg = _random_config(data, 8)
    q, proj = quotient_by_kernel(cfg)
    want_q, want_proj = quotient_by_kernel_reference(cfg)
    assert (q, proj.basis_ids, proj.matrix) == (
        want_q, want_proj.basis_ids, want_proj.matrix
    )
    assert kernel_basis(gram(cfg)) == kernel_basis_reference(gram(cfg))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_projection_is_class_map_hypothesis(data):
    # every vertex minus the combination of basis vertices it projects to
    # lies in the radical, and the projection fixes the basis vertices
    cfg = _random_config(data, 8)
    m = gram(cfg)
    _, proj = quotient_by_kernel(cfg)
    basis = [cfg.index_of(b) for b in proj.basis_ids]
    for j in range(cfg.n):
        vec = [Fraction(i == j) for i in range(cfg.n)]
        for row, b in zip(proj.matrix, basis):
            vec[b] -= row[j]
        assert apply(m, vec) == (0,) * cfg.n
    for row, b in zip(proj.matrix, basis):
        assert [row[c] for c in basis] == [Fraction(c == b) for c in basis]


def test_quotient_golden_byte_identical():
    # pins the quotient basis and the projection matrix exactly
    rng = random.Random(7)
    out = []
    for _ in range(400):
        n = rng.randint(1, 8)
        vs = [(f"v{i}", rng.choice([-2, -2, -2, 0])) for i in range(n)]
        es = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    es.append((f"v{i}", f"v{j}", rng.choice([1, 1, 2])))
        q, proj = quotient_by_kernel(config_from_data(vs, es))
        assert all(isinstance(x, Fraction) for row in proj.matrix for x in row)
        assert all(type(x) is int for row in q for x in row)
        # the quotient is hashed as Fraction rows, as it was first pinned
        out.append((fraction_rows(q), proj.basis_ids, proj.matrix))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "9580bebb207d0c89"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_adjacency_matches_edge_map(data):
    # vertex labels are shuffled against config order and edges are given
    # in random order, so index order, id order and input order all differ
    n = data.draw(st.integers(min_value=1, max_value=9))
    ids = [f"c{k}" for k in data.draw(st.permutations(range(n)))]
    pairs = [
        (ids[i], ids[j], m)
        for i in range(n)
        for j in range(i + 1, n)
        if (m := data.draw(st.integers(min_value=0, max_value=3)))
    ]
    cfg = config_from_data([(v, -2) for v in ids], data.draw(st.permutations(pairs)))
    adj = cfg.adjacency()
    assert len(adj) == cfg.n
    edge_map = {}
    for a, b, m in cfg.edge_items():
        edge_map[(cfg.index_of(a), cfg.index_of(b))] = m
        edge_map[(cfg.index_of(b), cfg.index_of(a))] = m
    assert {(i, j): m for i, row in enumerate(adj) for j, m in row.items()} == edge_map
    for i, row in enumerate(adj):
        v = cfg.vertices[i].id
        assert list(row) == sorted(row)
        # neighbors() keeps the order of a scan over the sorted edges, which
        # validate_pairings reports in
        scan = [b if a == v else a for a, b, _ in cfg.edge_items() if v in (a, b)]
        assert cfg.neighbors(v) == scan
        assert all(cfg.edge_mult(v, cfg.vertices[j].id) == m for j, m in row.items())


def test_adjacency_is_read_only():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 1)])
    with pytest.raises(TypeError):
        cfg.adjacency()[0][1] = 2
    with pytest.raises(TypeError):
        cfg.adjacency()[0] = {}
    assert cfg.edge_mult("a", "b") == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_matches_congruence_reference_hypothesis(data):
    # the integer congruence gives the inertia that the Fraction loop gives
    # on the Fraction Gram matrix, and the witness that k3lat classify
    # reports from the integer Gram matrix
    cfg = _random_config(data, 9)
    cls = classify(cfg)
    want_sig, want_vec = signature_and_witness_reference(gram(cfg))
    witness = positive_square_vector(graph.integer_gram(cfg, range(cfg.n)))
    assert (cls.signature, witness) == (want_sig, want_vec)
