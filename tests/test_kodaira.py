import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import kodaira, roots
from k3lat.graph import (
    CUT,
    Final,
    SpanKind,
    classify,
    config_from_data,
    connected_vertex_subsets,
)
from k3lat.kodaira import (
    divisor_degree,
    exclusion_6d,
    find_kodaira_divisors,
    parse_tag,
    type_table,
)
from k3lat.roots import RootComponent, _diagram_reach, _diagram_search, standard_diagram

from conftest import (
    ALL_KINDS,
    fibres_with_section,
    i4_fibres_with_section,
    indices,
    mask_of,
    recorded_steps,
)
from oracles import (
    apply,
    connected_subsets_reference,
    find_kodaira_divisors_reference,
    gram,
    oracle_signature,
    recognize_component_reference,
)


def test_type_table_examples():
    t = type_table("I*2")
    assert (t.component_count, t.weight, t.euler) == (7, 10, 8)
    t = type_table("I4")
    assert (t.component_count, t.weight, t.euler) == (4, 4, 4)
    assert not t.is_additive
    t = type_table("II*")
    assert (t.component_count, t.weight, t.euler) == (9, 30, 10)
    assert t.is_additive


def test_type_table_smooth_fiber():
    t = type_table("I0")
    assert t.euler == 0
    assert t.component_count == 1


def test_parse_tag():
    assert parse_tag("I12") == ("I", 12)
    assert parse_tag("I*0") == ("I*", 0)
    assert parse_tag("IV*") == ("IV*", None)
    with pytest.raises(ValueError):
        parse_tag("V")
    with pytest.raises(ValueError):
        parse_tag("I*")


@pytest.mark.parametrize("tag", ["I04", "I*00", "I\u0664", "I*\u0661", "I4\n", " I4", "I+4", "I_4"])
def test_parse_tag_rejects_spellings_that_are_not_canonical(tag):
    # each would become a tag of its own, which extremal lookups miss and
    # serialization writes back
    with pytest.raises(ValueError, match="unknown fiber type tag"):
        parse_tag(tag)
    with pytest.raises(ValueError, match="unknown fiber type tag"):
        type_table(tag)


@pytest.mark.parametrize("tag", [3, None, ["I2"], b"I2"])
def test_a_tag_that_is_not_a_str_is_a_value_error(tag):
    # 3 and None raised TypeError from the tag regex, and ["I2"] from the
    # cache of type_table as unhashable
    for read in (parse_tag, type_table):
        with pytest.raises(ValueError, match="fiber type tag must be a str"):
            read(tag)


def test_weight_euler_closed_forms_up_to_24():
    for n in range(1, 25):
        t = type_table(f"I{n}")
        assert t.weight == n
        assert t.euler == n
        assert t.component_count == n
    for n in range(0, 25):
        t = type_table(f"I*{n}")
        assert t.weight == 2 * n + 6
        assert t.euler == n + 6
        assert t.component_count == n + 5
    assert type_table("IV*").weight == 12
    assert type_table("III*").weight == 18
    assert type_table("II*").weight == 30
    assert (type_table("II").weight, type_table("III").weight, type_table("IV").weight) == (1, 2, 3)


def test_euler_minus_components_detects_additivity():
    tags = [f"I{n}" for n in range(1, 25)] + [f"I*{n}" for n in range(0, 25)]
    tags += ["II", "III", "IV", "IV*", "III*", "II*"]
    for tag in tags:
        t = type_table(tag)
        diff = t.euler - t.component_count
        assert diff in (0, 1)
        assert (diff == 0) == (not t.is_additive)


def _dual_graph_config(tag):
    """Standard dual-graph configuration matching the canonical component
    order of the type table."""
    series, n = parse_tag(tag)
    if series == "I":
        if n == 1:
            return config_from_data([("v0", 0)])
        if n == 2:
            return standard_diagram("A1Tilde")
        return standard_diagram("AffineA", n - 1)
    if series == "I*":
        return standard_diagram("AffineD", n + 4)
    if tag == "II":
        return config_from_data([("v0", 0)])
    if tag == "III":
        return standard_diagram("A1Tilde")
    if tag == "IV":
        return standard_diagram("AffineA", 2)
    return standard_diagram("AffineE", {"IV*": 6, "III*": 7, "II*": 8}[tag])


@pytest.mark.parametrize(
    "tag", [f"I{n}" for n in range(1, 10)] + [f"I*{n}" for n in range(0, 8)]
    + ["II", "III", "IV", "IV*", "III*", "II*"]
)
def test_multiplicities_annihilate_dual_graph(tag):
    t = type_table(tag)
    cfg = _dual_graph_config(tag)
    assert cfg.n == t.component_count
    assert apply(gram(cfg), t.multiplicities) == (0,) * cfg.n


def test_find_divisors_four_cycle():
    divs = find_kodaira_divisors(standard_diagram("AffineA", 3))
    assert [(d.tag, d.multiplicities) for d in divs] == [("I4", (1, 1, 1, 1))]


def test_find_divisors_star():
    cfg = config_from_data(
        [("z", -2), ("a", -2), ("b", -2), ("c", -2), ("d", -2)],
        [("z", v) for v in "abcd"],
    )
    divs = find_kodaira_divisors(cfg)
    assert [(d.tag, d.support, d.multiplicities) for d in divs] == [
        ("I*0", ("z", "a", "b", "c", "d"), (2, 1, 1, 1, 1))
    ]


def test_find_divisors_double_edge():
    divs = find_kodaira_divisors(standard_diagram("A1Tilde"))
    (d,) = divs
    assert d.tag == "I2_OR_III"
    assert d.euler_range == (2, 3)
    assert d.weight == 2


def test_find_divisors_triangle():
    divs = find_kodaira_divisors(standard_diagram("AffineA", 2))
    (d,) = divs
    assert d.tag == "I3_OR_IV"
    assert d.euler_range == (3, 4)


def test_find_divisors_isotropic_vertex():
    divs = find_kodaira_divisors(config_from_data([("n", 0, 2)]))
    (d,) = divs
    assert d.tag == "I1"
    assert d.nodal_or_cuspidal
    assert d.euler_range == (1, 2)


def test_find_divisors_locality():
    left = standard_diagram("AffineA", 3, prefix="l")
    right = standard_diagram("AffineD", 4, prefix="r")
    both = left.disjoint_union(right)
    tags = sorted(d.tag for d in find_kodaira_divisors(both))
    expected = sorted(
        [d.tag for d in find_kodaira_divisors(left)]
        + [d.tag for d in find_kodaira_divisors(right)]
    )
    assert tags == expected


def test_find_divisors_weight_cap():
    cfg = standard_diagram("AffineD", 10)  # weight 2*6+6 = 18
    assert find_kodaira_divisors(cfg, max_weight=17) == []
    assert len(find_kodaira_divisors(cfg, max_weight=18)) == 1


def test_find_divisors_rejects_weight_cap_below_one():
    cfg = standard_diagram("AffineA", 3)
    for cap in (0, -3):
        with pytest.raises(ValueError):
            find_kodaira_divisors(cfg, max_weight=cap)


def test_divisor_degree_cycle():
    cfg = standard_diagram("AffineA", 3)
    (d,) = find_kodaira_divisors(cfg)
    assert divisor_degree(d, cfg) == 4


def test_divisor_degree_star_is_weight():
    cfg = config_from_data(
        [("z", -2), ("a", -2), ("b", -2), ("c", -2), ("d", -2)],
        [("z", v) for v in "abcd"],
    )
    (d,) = find_kodaira_divisors(cfg)
    assert divisor_degree(d, cfg) == 6


def test_divisor_degree_weighted():
    # double-fork chain with degree 2 on the three chain components
    verts = [("f1", -2, 1), ("f2", -2, 1), ("c1", -2, 2), ("c2", -2, 2),
             ("c3", -2, 2), ("f3", -2, 1), ("f4", -2, 1)]
    edges = [("f1", "c1"), ("f2", "c1"), ("c1", "c2"), ("c2", "c3"),
             ("c3", "f3"), ("c3", "f4")]
    cfg = config_from_data(verts, edges)
    (d,) = find_kodaira_divisors(cfg)
    assert d.tag == "I*2"
    # 4 simple components of degree 1 plus 3 double components of degree 2
    assert divisor_degree(d, cfg) == 4 * 1 * 1 + 3 * 2 * 2


def test_exclusion_6d_low_type_violation():
    cfg = config_from_data(
        [("a", -2), ("b", -2), ("x", -2), ("y", -2)],
        [("a", "b", 2), ("x", "y", 3)],
    )
    violations = exclusion_6d(cfg, 1, 43)
    assert len(violations) == 1
    assert violations[0].rule == "kodaira-low-degree"


def test_exclusion_6d_meeting_curve_reported():
    cfg = config_from_data(
        [("a", -2), ("b", -2), ("w", -2)],
        [("a", "b", 2), ("w", "a", 1)],
    )
    rules = [v.rule for v in exclusion_6d(cfg, 1, 43)]
    assert rules.count("kodaira-low-degree") == 1
    assert rules.count("meets-low-degree-divisor") == 1


def test_exclusion_6d_high_degree_divisor_clean():
    # the only fiber divisor has weight 8 > 6, so nothing to report
    verts = [(v, -2) for v in ["f1", "f2", "c1", "c2", "f3", "f4", "w"]]
    edges = [("f1", "c1"), ("f2", "c1"), ("c1", "c2"), ("c2", "f3"),
             ("c2", "f4"), ("w", "f1")]
    cfg = config_from_data(verts, edges)
    divs = find_kodaira_divisors(cfg)
    assert [d.tag for d in divs] == ["I*1"]
    assert exclusion_6d(cfg, 1, 43) == []


def test_exclusion_6d_skips_a_light_divisor_of_high_degree():
    # an I7 cycle of degree-2 curves beside a curve of square 2: the search
    # at weight 6d = 12 finds the I7, whose degree 14 exceeds 12
    cfg = config_from_data(
        [(f"c{i}", -2, 2) for i in range(7)] + [("p", 2, 1)],
        [(f"c{i}", f"c{(i + 1) % 7}") for i in range(7)],
    )
    assert classify(cfg).kind is SpanKind.HYPERBOLIC
    (div,) = find_kodaira_divisors(cfg, max_weight=12)
    assert (div.tag, div.weight, divisor_degree(div, cfg)) == ("I7", 7, 14)
    assert exclusion_6d(cfg, 2, 169) == []


def test_exclusion_6d_not_hyperbolic_empty():
    assert exclusion_6d(standard_diagram("AffineA", 3), 1, 43) == []


def test_exclusion_6d_preconditions():
    cfg = standard_diagram("A", 2)
    with pytest.raises(ValueError):
        exclusion_6d(cfg, 1, 42)
    cfg2 = config_from_data([("a", -2, 3)])
    with pytest.raises(ValueError):
        exclusion_6d(cfg2, 1, 43)


@functools.cache
def _memo_signature(rows):
    # random trees repeat the same few Gram matrices: one oracle run each
    return oracle_signature([list(r) for r in rows])


def _assert_step_cuts_exactly_the_indefinite(cfg):
    # every connected subset from every connected parent the search keeps:
    # the child is cut exactly when it has a positive direction or the
    # parent is degenerate, and it is final exactly when it is degenerate,
    # with the component its skeleton names equal to the recognised one;
    # a final parent grows nothing, since all its children are indefinite
    step, component = _diagram_search(cfg)
    kept = dict(_searched(cfg, step))
    kept[()] = None
    sig = {(): (0, 0, 0)}
    for subset in connected_subsets_reference(cfg, cfg.n):
        ids = [cfg.vertices[i].id for i in subset]
        sig[subset] = _memo_signature(gram(cfg.induced(ids)))
    for subset in sorted(sig.keys() - {()}):
        n_plus, _, n_zero = sig[subset]
        assert (subset in kept) == (n_plus == 0), subset
        for u in subset:
            parent = tuple(x for x in subset if x != u)
            if parent not in kept:
                continue
            if type(kept[parent]) is Final:
                assert n_plus > 0, (parent, u)
                continue
            state = step(kept[parent], u, mask_of(subset, cfg.n))
            assert (state is CUT) == (n_plus > 0 or sig[parent][2] > 0), (parent, u)
            if state is not CUT:
                assert (type(state) is Final) == (n_zero > 0), (parent, u)
            if type(state) is Final:
                ids = tuple(cfg.vertices[i].id for i in subset)
                comp = component(state)
                assert comp is not None and comp == recognize_component_reference(cfg, ids), subset


def _searched(cfg, step, reach=None):
    # the (subset, state) pairs the search yields, in order, each subset
    # read off its mask as an index tuple
    found = connected_vertex_subsets(cfg, cfg.n, step, None, reach)
    return [(indices(mask, cfg.n), state) for mask, state in found]


def _roots_config(n, edges):
    return config_from_data(
        [(f"v{i}", -2) for i in range(n)],
        [(f"v{i}", f"v{j}", m) for (i, j), m in edges.items()],
    )


@pytest.mark.parametrize(
    "edges",
    [
        # three forks along a chain, each with its own leaves
        [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6), (5, 7)],
        # a four-armed star with one arm grown, and a five-armed star
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    ],
)
def test_shape_prune_on_branched_trees(edges):
    n = 1 + max(j for _, j in edges)
    cfg = _roots_config(n, dict.fromkeys(edges, 1))
    kept = dict(_searched(cfg, _diagram_search(cfg)[0]))
    assert tuple(range(n)) not in kept
    _assert_step_cuts_exactly_the_indefinite(cfg)


@pytest.mark.parametrize(
    "diagram",
    [("A1Tilde",), ("AffineA", 5), ("AffineD", 4), ("AffineD", 7),
     ("AffineE", 6), ("AffineE", 7), ("AffineE", 8), ("E", 8), ("D", 6)],
)
def test_diagram_step_on_standard_diagrams(diagram):
    _assert_step_cuts_exactly_the_indefinite(standard_diagram(*diagram))


def _random_edges(data, n, mult):
    # a random tree (branch curves, long arms, stars) plus a few chords
    edges = {}
    for j in range(1, n):
        edges[(data.draw(st.integers(min_value=0, max_value=j - 1)), j)] = data.draw(mult)
    if n > 2:
        pair = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True)
        for i, j in data.draw(st.lists(pair, max_size=3)):
            edges[(min(i, j), max(i, j))] = data.draw(mult)
    return edges


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_shape_prune_matches_its_rules(data):
    # the diagram step's one rule: cut exactly the indefinite subsets
    n = data.draw(st.integers(min_value=1, max_value=9))
    edges = _random_edges(data, n, st.sampled_from([1, 1, 1, 1, 2, 3]))
    _assert_step_cuts_exactly_the_indefinite(_roots_config(n, edges))


def _assert_reach_is_exact(cfg):
    # the step cuts every child the diagram reach drops, so growing only
    # where it allows yields the same subsets with the same states, and so
    # the same components, as growing from every curve
    (step, component), adj = _diagram_search(cfg), cfg.adjacency()
    full = _searched(cfg, step)
    for subset, state in full:
        tips = None if type(state) is Final else _diagram_reach(state)
        if tips is not None:
            near = {w for v in subset for w in adj[v]} - set(subset)
            for u in near - {w for v in tips for w in adj[v]}:
                assert step(state, u, mask_of(subset + (u,), cfg.n)) is CUT, (subset, u)
    reached = _searched(cfg, step, _diagram_reach)
    assert reached == full
    finals = [state for _, state in reached if type(state) is Final]
    assert [component(s) for s in finals] == [component(s) for _, s in full if type(s) is Final]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_diagram_reach_is_exact_on_random_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    _assert_reach_is_exact(_roots_config(n, _random_edges(data, n, st.sampled_from([1, 1, 2, 3]))))


@pytest.mark.parametrize("diagram", ALL_KINDS)
def test_diagram_reach_is_exact_on_standard_diagrams(diagram):
    _assert_reach_is_exact(standard_diagram(*diagram))


@pytest.mark.parametrize("fibres, length", [(6, 4), (8, 3), (12, 2), (4, 6)])
def test_diagram_reach_is_exact_on_uniform_fibrations(fibres, length):
    _assert_reach_is_exact(fibres_with_section(fibres, length))


def _drawn_fibre_config(data, n, ids):
    # trees, cycles, stars and chords with isotropic curves and multiple
    # edges, curve i named ids[i]
    shape = data.draw(st.sampled_from(["tree", "cycle", "star"]))
    mult = st.sampled_from([1, 1, 1, 1, 2, 3])
    if shape == "tree":
        edges = _random_edges(data, n, mult)
    else:
        spokes = [(0, j) for j in range(1, n)]
        ring = [(j, j + 1) for j in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
        edges = {e: data.draw(mult) for e in (ring if shape == "cycle" else spokes)}
        edges.update(_random_edges(data, n, mult) if data.draw(st.booleans()) else {})
    square = st.sampled_from([-2, -2, -2, 0])
    squares = data.draw(st.lists(square, min_size=n, max_size=n))
    return config_from_data(
        list(zip(ids, squares)), [(ids[i], ids[j], m) for (i, j), m in edges.items()]
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_find_divisors_matches_shape_step_search(data):
    # the same divisor lists as the search that recognised every subset
    # its shape step kept, with and without a weight cap
    n = data.draw(st.integers(min_value=1, max_value=10))
    cfg = _drawn_fibre_config(data, n, [f"v{i}" for i in range(n)])
    cap = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=12)))
    assert find_kodaira_divisors(cfg, cap) == find_kodaira_divisors_reference(cfg, cap)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_find_divisors_matches_shape_step_search_with_shuffled_ids(data):
    # v0..v9 sort in index order; random names do not, so the search's
    # naming by id rank decides every canonical order here
    n = data.draw(st.integers(min_value=1, max_value=12))
    name = st.text(alphabet="abyz", min_size=1, max_size=3)
    ids = data.draw(st.lists(name, min_size=n, max_size=n, unique=True))
    cfg = _drawn_fibre_config(data, n, ids)
    cap = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=12)))
    assert find_kodaira_divisors(cfg, cap) == find_kodaira_divisors_reference(cfg, cap)


def test_recognition_runs_on_affine_subsets_only(monkeypatch):
    # one confirmation per divisor the search reports before the weight cap
    cfg = i4_fibres_with_section()
    calls = []
    real_confirmed = roots._confirmed

    def recording(tables, kind, n, curves):
        confirmed = real_confirmed(tables, kind, n, curves)
        calls.append((RootComponent(kind, n, ()), confirmed))
        return confirmed

    monkeypatch.setattr(roots, "_confirmed", recording)
    divisors = find_kodaira_divisors(cfg)
    assert len(calls) == len(divisors) == 496
    assert all(confirmed and comp.is_affine for comp, confirmed in calls)
    calls.clear()
    capped = find_kodaira_divisors(cfg, max_weight=4)
    assert all(confirmed and comp.is_affine for comp, confirmed in calls)
    assert capped == [d for d in divisors if d.weight <= 4]
    assert len(calls) == sum(len(d.support) <= 4 for d in divisors)


def test_fibre_search_step_counts_are_pinned(monkeypatch):
    # uniform fibres plus a zero section: how often the search steps, cuts
    # and ends growth does not vary between runs.  Each subset is built once,
    # from one parent, and never from a cut or final one; and a curve the
    # diagram reach drops never joins the subset.  On 6xI4 this builds 436
    # children it cuts, where probing every parent built 966 and growing
    # from every curve 2,766; on 12xI2, 298 where probing built 804
    recorded = recorded_steps(monkeypatch, kodaira)
    for fibres, length, divisors, steps, finite, cut in [
        (6, 4, 496, 2546, 1614, 436), (12, 2, 507, 1128, 323, 298)
    ]:
        recorded.clear()
        assert len(find_kodaira_divisors(fibres_with_section(fibres, length))) == divisors
        assert len(recorded) == steps
        assert sum(type(state) is tuple for state in recorded) == finite
        assert sum(state is CUT for state in recorded) == cut
        assert sum(type(state) is Final for state in recorded) == divisors
