import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import exact, graph, roots
from k3lat.exact import signature
from k3lat.graph import (
    CurveConfig,
    CurveVertex,
    Final,
    SpanKind,
    classify,
    config_from_data,
)
from k3lat.kodaira import find_kodaira_divisors
from k3lat.roots import (
    NotNegativeSemidefiniteError,
    decompose,
    max_rank_check,
    recognize_component,
    standard_diagram,
    standard_gram,
)

from conftest import ALL_KINDS, i4_fibres_with_section
from oracles import apply, connected_subsets_reference, gram, recognize_component_reference

SRC = Path(__file__).resolve().parents[1] / "src"

# the standard positive multiplicity patterns of the degenerate diagrams,
# in the canonical recognition order
AFFINE_KERNELS = {
    ("AffineA", 3): (1, 1, 1, 1),
    ("AffineD", 4): (2, 1, 1, 1, 1),
    ("AffineD", 6): (1, 1, 2, 2, 2, 1, 1),
    ("AffineE", 6): (3, 2, 1, 2, 1, 2, 1),
    ("AffineE", 7): (4, 2, 3, 2, 1, 3, 2, 1),
    ("AffineE", 8): (6, 3, 4, 2, 5, 4, 3, 2, 1),
}


def test_decompose_path():
    cfg = standard_diagram("A", 3)
    dec = decompose(cfg)
    assert dec.names() == ["A3"]
    assert dec.unrecognized == ()


def test_decompose_four_cycle():
    dec = decompose(standard_diagram("AffineA", 3))
    (comp,) = dec.components
    assert comp.name == "A~3"
    assert comp.kernel_vector == (1, 1, 1, 1)


def test_decompose_star():
    cfg = config_from_data(
        [("z", -2), ("a", -2), ("b", -2), ("c", -2), ("d", -2)],
        [("z", v) for v in "abcd"],
    )
    (comp,) = decompose(cfg).components
    assert comp.name == "D~4"
    assert comp.vertex_ids[0] == "z"
    assert comp.kernel_vector == (2, 1, 1, 1, 1)


def test_decompose_orthogonal_sum():
    cfg = standard_diagram("A", 2, prefix="a").disjoint_union(
        standard_diagram("E", 6, prefix="e")
    )
    dec = decompose(cfg)
    assert dec.names() == ["A2", "E6"]
    # no cross edges between recognized components
    parts = [set(c.vertex_ids) for c in dec.components]
    for s in parts:
        for t in parts:
            if s is t:
                continue
            for a, b, _ in cfg.edge_items():
                assert not (a in s and b in t)


def test_decompose_rejects_hyperbolic():
    cfg = config_from_data([("a", -2), ("b", -2)], [("a", "b", 3)])
    with pytest.raises(NotNegativeSemidefiniteError):
        decompose(cfg)


def test_double_edge_is_degenerate_rank_one_extension():
    dec = decompose(standard_diagram("A1Tilde"))
    (comp,) = dec.components
    assert comp.name == "A~1"
    assert comp.kernel_vector == (1, 1)


def _ring(names, squares=None, edges=None):
    # the cycle through the curves named, in order, listed in reverse so
    # that a curve's index is not its id rank
    squares = {v: -2 for v in names} | (squares or {})
    cycle = {(a, b): 1 for a, b in zip(names, names[1:] + names[:1])} | (edges or {})
    return config_from_data(
        [(v, squares[v]) for v in reversed(names)], [(a, b, m) for (a, b), m in cycle.items()]
    )


def test_confirmation_names_a_skeleton_by_id_rank():
    _, component = roots._diagram_search(_ring("wxyz"))
    comp = component(Final(("cycle", (2, 1, 0, 3))))
    assert comp == roots.RootComponent("AffineA", 3, ("w", "x", "y", "z"), (1, 1, 1, 1))


@pytest.mark.parametrize(
    "cfg, ring",
    [
        (_ring("wxyz", edges={("w", "y"): 1}), (0, 1, 2, 3)),  # an extra chord
        (_ring("wxyz", edges={("w", "x"): 2}), (0, 1, 2, 3)),  # multiplicity 2 where 1 is needed
        (_ring("wxyz", squares={"y": 0}), (0, 1, 2, 3)),  # a square-0 curve
        # a repeated curve: a triangle named as a hexagon meets every
        # other count the hexagon asks for
        (_ring("wxy"), (0, 1, 2, 0, 1, 2)),
    ],
)
def test_confirmation_rejects_a_gram_matrix_off_by_one_entry(cfg, ring):
    # each induced Gram matrix differs from the standard affine A one in
    # one way only; the confirmation compares every entry, so none passes
    _, component = roots._diagram_search(cfg)
    assert component(Final(("cycle", ring))) is None


def test_isotropic_vertex_component():
    dec = decompose(standard_diagram("IsotropicVertex"))
    (comp,) = dec.components
    assert comp.kind == "IsotropicVertex"
    assert comp.rank == 0


@pytest.mark.parametrize("kind,n", ALL_KINDS)
def test_recognition_round_trip(kind, n):
    cfg = standard_diagram(kind, n)
    dec = decompose(cfg)
    assert dec.unrecognized == ()
    (comp,) = dec.components
    assert comp.kind == kind
    assert comp.rank_param == n
    affine = kind.startswith("Affine")
    assert comp.rank == (cfg.n - 1 if affine else cfg.n)
    if affine:
        kern = comp.kernel_vector
        assert kern is not None and all(x >= 1 for x in kern)
        # the stored vector annihilates the component Gram matrix exactly
        sub = cfg.induced(comp.vertex_ids)
        aligned = [kern[comp.vertex_ids.index(v)] for v in sub.ids()]
        assert apply(gram(sub), aligned) == (0,) * sub.n
    else:
        assert signature(gram(cfg)) == (0, cfg.n, 0)


@pytest.mark.parametrize("kind,n", sorted(AFFINE_KERNELS))
def test_affine_kernel_patterns(kind, n):
    cfg = standard_diagram(kind, n)
    (comp,) = decompose(cfg).components
    assert comp.kernel_vector == AFFINE_KERNELS[(kind, n)]


def test_recognize_component_rejects_an_unknown_id():
    # a KeyError escaped before; the ValueError is the one induced raises
    cfg = standard_diagram("A", 3)
    for ids in (("zz",), ("v0", "zz"), ("v0", "zz", "q")):
        with pytest.raises(ValueError, match="unknown vertex ids") as got:
            recognize_component(cfg, ids)
        with pytest.raises(ValueError) as want:
            cfg.induced(ids)
        assert str(got.value) == str(want.value)


def test_recognize_component_rejects_indefinite_shapes():
    # a cycle with a chord is not semi-definite
    cfg = config_from_data(
        [(f"v{i}", -2) for i in range(4)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"), ("v0", "v2")],
    )
    assert recognize_component(cfg, cfg.ids()) is None
    # triple edge
    cfg2 = config_from_data([("a", -2), ("b", -2)], [("a", "b", 3)])
    assert recognize_component(cfg2, cfg2.ids()) is None
    # affine diagram plus an attached vertex is hyperbolic
    cfg3 = config_from_data(
        [(f"v{i}", -2) for i in range(5)],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"), ("v0", "v4")],
    )
    assert recognize_component(cfg3, cfg3.ids()) is None
    # a lone curve of square 2
    lone = config_from_data([("p", 2)])
    assert recognize_component(lone, ("p",)) is None
    # ids that are not connected: two A2 chains, a triangle beside a
    # curve, and a disjoint pair named with a repeat
    chains = standard_diagram("A", 2, prefix="x").disjoint_union(standard_diagram("A", 2, prefix="y"))
    triangle = standard_diagram("AffineA", 2).disjoint_union(standard_diagram("A", 1, prefix="w"))
    pair = config_from_data([("a", -2), ("b", -2)])
    for cfg, ids in ((chains, chains.ids()), (triangle, triangle.ids()), (pair, ("a", "b", "a"))):
        assert recognize_component(cfg, ids) is None
        assert recognize_component_reference(cfg, ids) is None


def test_star_rule_agrees_with_the_table():
    # every star of three arms of at most 9 curves, or of four or five arms
    # of at most 3: the diagram step's star rule lets through exactly D and
    # the stars of the table, as the signature-confirmed walker reads them
    tuples = [
        lengths
        for arms, longest in ((3, 9), (4, 3), (5, 3))
        for lengths in itertools.combinations_with_replacement(range(1, longest + 1), arms)
    ]
    assert len(tuples) == 165 + 15 + 21
    for lengths in tuples:
        curves = [("c", -2)] + [(f"a{i}_{j}", -2) for i, n in enumerate(lengths) for j in range(n)]
        edges = [
            ("c" if j == 0 else f"a{i}_{j - 1}", f"a{i}_{j}")
            for i, n in enumerate(lengths)
            for j in range(n)
        ]
        cfg = config_from_data(curves, edges)
        comp = recognize_component(cfg, cfg.ids())
        if len(lengths) == 3 and lengths[:2] == (1, 1):
            want = ("D", cfg.n)
        else:
            want = roots._STARS.get(lengths)
        assert (None if comp is None else (comp.kind, comp.rank_param)) == want, lengths
        assert comp == recognize_component_reference(cfg, cfg.ids()), lengths


def test_max_rank_check():
    dec21 = decompose(standard_diagram("A", 21))
    assert max_rank_check(dec21, 22) is True
    cfg22 = standard_diagram("A", 20, prefix="x").disjoint_union(
        standard_diagram("A", 2, prefix="y")
    )
    assert max_rank_check(decompose(cfg22), 22) is False
    cfg20 = standard_diagram("A", 19, prefix="x").disjoint_union(
        standard_diagram("A", 1, prefix="y")
    )
    assert max_rank_check(decompose(cfg20), 20) is False


def test_mixed_parabolic_decomposition():
    cfg = (
        standard_diagram("AffineA", 3, prefix="c")
        .disjoint_union(standard_diagram("A", 2, prefix="a"))
        .disjoint_union(standard_diagram("IsotropicVertex", prefix="i"))
    )
    dec = decompose(cfg)
    assert sorted(dec.names()) == ["A2", "A~3", "isotropic"]
    assert classify(cfg).kind.value == "Parabolic"


@functools.lru_cache(maxsize=None)
def _golden_run():
    """Recognition records for relabelled, shuffled standard diagrams and for
    every connected subset of 200 seeded random configurations (trees of
    (-2)-curves, and general graphs with multiple edges and isotropic
    vertices), plus the Kodaira divisors of each configuration.  Also
    collects every subset where recognition disagrees with the exact
    signature."""
    rng = random.Random(1907)
    records = []
    mismatches = []
    n_subsets = 0

    def rec(c):
        return None if c is None else (c.kind, c.rank_param, c.vertex_ids, c.kernel_vector)

    for kind, n in ALL_KINDS + [("A1Tilde", None), ("IsotropicVertex", None)]:
        cfg = standard_diagram(kind, n)
        fwd = dict(zip(cfg.ids(), [f"x{k}" for k in rng.sample(range(1000), cfg.n)]))
        vs = [CurveVertex(fwd[v.id], v.square) for v in cfg.vertices]
        rng.shuffle(vs)
        cfg = CurveConfig(vs, [(fwd[a], fwd[b], m) for a, b, m in cfg.edge_items()])
        records.append(rec(recognize_component(cfg, cfg.ids())))
    for t in range(200):
        n = rng.randint(2, 9)
        ids = [f"x{k}" for k in rng.sample(range(1000), n)]
        if t % 2 == 0:
            vs = [CurveVertex(v) for v in ids]
            es = [(ids[i], ids[rng.randrange(i)], 1) for i in range(1, n)]
        else:
            vs = [CurveVertex(v, rng.choice([-2, -2, -2, -2, -2, 0])) for v in ids]
            es = [
                (ids[i], ids[j], rng.choice([1, 1, 1, 1, 2, 3]))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
        cfg = CurveConfig(vs, es)
        for sub in connected_subsets_reference(cfg, 8):
            sub_ids = tuple(cfg.vertices[i].id for i in sub)
            comp = recognize_component(cfg, sub_ids)
            records.append(rec(comp))
            n_subsets += 1
            sig = signature(gram(cfg.induced(sub_ids)))
            recognizable = sig.n_plus == 0 and sig.n_zero <= 1
            degenerate = comp is not None and (
                comp.is_affine or comp.kind == "IsotropicVertex"
            )
            if (comp is not None) != recognizable or (
                comp is not None and degenerate != (sig.n_zero == 1)
            ):
                mismatches.append((t, sub_ids))
        records.append(
            [
                (d.tag, d.support, d.multiplicities, d.weight, d.euler_range,
                 d.nodal_or_cuspidal)
                for d in find_kodaira_divisors(cfg)
            ]
        )
    return records, mismatches, n_subsets


def test_recognition_golden_byte_identical():
    records, _, _ = _golden_run()
    assert len(records) == 7990
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "3676ea5a2df211cd"


def test_recognition_complete_against_signature():
    # a connected (-2)/isotropic configuration is recognized exactly when
    # its span is negative semi-definite with at most a one-dimensional
    # radical, and the recognized kind is degenerate exactly when the
    # radical is nonzero
    _, mismatches, n_subsets = _golden_run()
    assert n_subsets == 7705
    assert mismatches == []


def _brute_connected_subsets(cfg):
    """Every connected vertex subset as an id tuple in config order, by
    trying all subsets."""
    adj = {v: set() for v in cfg.ids()}
    for a, b, _ in cfg.edge_items():
        adj[a].add(b)
        adj[b].add(a)
    for r in range(1, cfg.n + 1):
        for sub in itertools.combinations(cfg.ids(), r):
            seen, todo = {sub[0]}, [sub[0]]
            while todo:
                for w in adj[todo.pop()] & set(sub) - seen:
                    seen.add(w)
                    todo.append(w)
            if len(seen) == r:
                yield sub


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_recognition_matches_signature_reference(data):
    # every connected subset of a random configuration, in config order,
    # reversed and with a repeated id: shape mismatches, multiple edges,
    # isotropic vertices and affine (degenerate) diagrams all go through
    # both recognizers
    n = data.draw(st.integers(min_value=1, max_value=9))
    labels = data.draw(st.permutations(range(n)))
    ids = [f"c{k}" for k in labels]
    squares = data.draw(st.lists(st.sampled_from([-2, -2, -2, 0]), min_size=n, max_size=n))
    edges = [
        (ids[i], ids[j], m)
        for i in range(n)
        for j in range(i + 1, n)
        if (m := data.draw(st.sampled_from([0, 0, 0, 0, 1, 1, 1, 2, 3])))
    ]
    cfg = config_from_data([(v, sq) for v, sq in zip(ids, squares)], edges)
    for sub in _brute_connected_subsets(cfg):
        for order in (sub, sub[::-1], sub + sub[:1]):
            assert recognize_component(cfg, order) == recognize_component_reference(
                cfg, order
            ), order


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_matches_recognition_reference_with_shuffled_ids(data):
    # disjoint standard diagrams of up to 12 curves in all, renamed at
    # random and listed in shuffled order, sometimes with one edge, square
    # or multiplicity changed: each component is what the reference
    # recognizes, and decomposition refuses a span with a positive direction
    kinds = [("A1Tilde", None), ("IsotropicVertex", None)] + [k for k in ALL_KINDS if k[1] <= 8]
    pieces = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    diagrams = [standard_diagram(kind, n, prefix=f"p{k}_") for k, (kind, n) in enumerate(pieces)]
    vertices = [(v.id, v.square) for d in diagrams for v in d.vertices]
    if len(vertices) > 12:
        vertices = vertices[:12]
    kept = {v for v, _ in vertices}
    edges = {(a, b): m for d in diagrams for a, b, m in d.edge_items() if {a, b} <= kept}
    if len(kept) > 1 and data.draw(st.booleans()):
        pair = st.lists(st.sampled_from(sorted(kept)), min_size=2, max_size=2, unique=True)
        i, j = data.draw(pair)
        edges[min(i, j), max(i, j)] = data.draw(st.sampled_from([1, 2, 3]))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(min_value=0, max_value=len(vertices) - 1))
        vertices[k] = (vertices[k][0], data.draw(st.sampled_from([0, 0, 2])))
    name = st.text(alphabet="abyz", min_size=1, max_size=3)
    names = data.draw(st.lists(name, min_size=len(vertices), max_size=len(vertices), unique=True))
    rename = dict(zip((v for v, _ in vertices), names))
    order = data.draw(st.permutations(range(len(vertices))))
    cfg = config_from_data(
        [(rename[vertices[k][0]], vertices[k][1]) for k in order],
        [(rename[a], rename[b], m) for (a, b), m in edges.items()],
    )
    if classify(cfg).kind in (SpanKind.HYPERBOLIC, SpanKind.INVALID):
        with pytest.raises(NotNegativeSemidefiniteError):
            decompose(cfg)
        return
    want = [(ids, recognize_component_reference(cfg, ids)) for ids in cfg.connected_components()]
    dec = decompose(cfg)
    assert dec.components == tuple(comp for _, comp in want if comp is not None)
    assert dec.unrecognized == tuple(ids for ids, comp in want if comp is None)


@pytest.mark.parametrize("n", [None, True, 2.0, "3"])
def test_standard_diagram_rank_parameter_is_an_int(n):
    # True built A1 named "ATrue", and 2.0 raised TypeError
    with pytest.raises(ValueError, match="needs a rank parameter that is an int"):
        standard_diagram("A", n)
    assert standard_diagram("A", 2).n == 2


@pytest.mark.parametrize(
    "kind, n, message",
    [
        ("A", 0, r"A\(n\) needs n >= 1"),
        ("AffineA", 1, r"AffineA\(n\) needs n >= 2"),
        ("D", 3, r"D\(n\) needs n >= 4"),
        ("AffineD", 3, r"AffineD\(n\) needs n >= 4"),
        ("E", 9, r"E\(9\) is not a diagram"),
        ("AffineE", 5, r"AffineE\(5\) is not a diagram"),
        ("B", 3, "unknown diagram kind 'B'"),
    ],
)
def test_standard_diagram_rejects_a_rank_or_kind_it_has_no_diagram_for(kind, n, message):
    with pytest.raises(ValueError, match=message):
        standard_diagram(kind, n)


@pytest.mark.parametrize("kind, n", [("A", 3), ("D", 5), ("E", 6), ("AffineE", 5)])
def test_radical_is_only_for_affine_diagrams(kind, n):
    with pytest.raises(ValueError, match="is not an affine diagram"):
        roots.radical(kind, n)


def test_standard_gram_table_builds_every_diagram():
    standard_gram.cache_clear()
    kinds = ALL_KINDS + [("A1Tilde", 1)]
    for kind, n in kinds:
        table = standard_gram(kind, n)
        want = gram(standard_diagram(kind, n))
        assert table == tuple(tuple(int(x) for x in row) for row in want)
        assert all(type(x) is int for row in table for x in row)
        assert standard_gram(kind, n) is table
    info = standard_gram.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(kinds), len(kinds), len(kinds))


def test_standard_gram_rejects_corrupted_radical(monkeypatch):
    standard_gram.cache_clear()
    true = roots.radical("AffineE", 6)
    monkeypatch.setattr(roots, "radical", lambda kind, n: (1,) * len(true))
    with pytest.raises(RuntimeError, match="radical"):
        standard_gram("AffineE", 6)
    # a failed build leaves no table entry behind
    monkeypatch.undo()
    assert standard_gram.cache_info().currsize == 0
    assert len(standard_gram("AffineE", 6)) == len(true)


def test_standard_gram_rejects_wrong_signature(monkeypatch):
    standard_gram.cache_clear()
    # a triangle passed off as A3 is semi-definite, not definite
    monkeypatch.setattr(roots, "standard_diagram", lambda kind, n: standard_diagram("AffineA", 2))
    with pytest.raises(RuntimeError, match="signature"):
        standard_gram("A", 3)
    monkeypatch.undo()
    standard_gram.cache_clear()


def test_standard_gram_check_survives_optimized_mode():
    code = (
        "from k3lat import roots\n"
        "roots.radical = lambda kind, n: (1,) * 9\n"
        "try:\n"
        "    roots.standard_gram('AffineE', 8)\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised"


def test_fibre_search_runs_one_elimination_per_diagram_type(monkeypatch):
    # the exact signature runs once per distinct diagram the search
    # recognizes, not once per matching subset
    standard_gram.cache_clear()
    roots._standard_rows.cache_clear()
    eliminations = []
    real_congruence = exact._congruence

    def counting(rows, witness=False):
        eliminations.append(rows)
        return real_congruence(rows, witness)

    kinds, matches, visited = set(), [], []
    real_confirmed = roots._confirmed

    def recording(tables, kind, n, curves):
        visited.append(curves)
        confirmed = real_confirmed(tables, kind, n, curves)
        if confirmed:
            kinds.add((kind, n))
            matches.append(curves)
        return confirmed

    for module in (exact, graph, roots):
        monkeypatch.setattr(module, "_congruence", counting)
    monkeypatch.setattr(roots, "_confirmed", recording)
    divisors = find_kodaira_divisors(i4_fibres_with_section())
    assert len(divisors) == 496
    assert [d.tag for d in divisors].count("I4") == 6
    # confirmation runs on the affine subsets only, one per divisor
    assert len(visited) == len(matches) == 496
    assert 0 < len(eliminations) <= len(kinds) == 6
    assert all(type(x) is int for g in eliminations for row in g for x in row)
