import pytest

from k3lat.graph import config_from_data

# the 83 standard diagrams the recognizer must round-trip, as (kind, n)
ALL_KINDS = (
    [("A", n) for n in range(1, 22)]
    + [("D", n) for n in range(4, 22)]
    + [("E", n) for n in (6, 7, 8)]
    + [("AffineA", n) for n in range(2, 22)]
    + [("AffineD", n) for n in range(4, 22)]
    + [("AffineE", n) for n in (6, 7, 8)]
)


def d6tilde_plus_three(attach=("f1", "f2", "f3")):
    """Double-fork chain (the 7-vertex degenerate diagram) with three extra
    curves attached to three of the four simple components."""
    verts = [(v, -2, 1) for v in ["f1", "f2", "c1", "c2", "c3", "f3", "f4"]]
    verts += [(f"s{i}", -2, 1) for i in range(1, 4)]
    edges = [("f1", "c1"), ("f2", "c1"), ("c1", "c2"), ("c2", "c3"),
             ("c3", "f3"), ("c3", "f4")]
    edges += [(f"s{i}", v) for i, v in enumerate(attach, start=1)]
    return config_from_data(verts, edges, name="d6tilde-plus-three")


def i3star_four_sections():
    """8-vertex double-fork chain with a disjoint section on each simple
    component; 12 vertices, hyperbolic of rank 12."""
    verts = [(v, -2, 1) for v in
             ["f1", "f2", "c1", "c2", "c3", "c4", "f3", "f4"]]
    verts += [(f"s{i}", -2, 1) for i in range(1, 5)]
    edges = [("f1", "c1"), ("f2", "c1"), ("c1", "c2"), ("c2", "c3"),
             ("c3", "c4"), ("c4", "f3"), ("c4", "f4")]
    edges += [("s1", "f1"), ("s2", "f2"), ("s3", "f3"), ("s4", "f4")]
    return config_from_data(verts, edges, name="i3star-four-sections")


def ivstar_three_a2():
    """Star with three arms of length four: the 7-vertex additive fiber
    diagram extended by a 2-chain on each arm; 13 vertices."""
    verts = [("z", -2, 1)]
    verts += [(f"a{i}{j}", -2, 1) for i in (1, 2, 3) for j in (1, 2, 3, 4)]
    edges = []
    for i in (1, 2, 3):
        edges.append(("z", f"a{i}1"))
        for j in (1, 2, 3):
            edges.append((f"a{i}{j}", f"a{i}{j + 1}"))
    return config_from_data(verts, edges, name="ivstar-three-a2")


@pytest.fixture
def d6tilde_cfg():
    return d6tilde_plus_three()


@pytest.fixture
def char3_cfg():
    return i3star_four_sections()


@pytest.fixture
def char2_cfg():
    return ivstar_three_a2()


def fibres_with_section(fibres, length):
    """``fibres`` fibres of type I_``length`` of -2 curves plus a zero
    section ``s`` meeting the first component of each: a fibration-shaped
    hyperbolic configuration with ``length * fibres + 1`` curves.  An I2
    fibre is two curves meeting twice."""
    verts = [("s", -2, 1)]
    edges = []
    for f in range(fibres):
        ids = [f"f{f}c{c}" for c in range(length)]
        verts += [(v, -2, 1) for v in ids]
        if length == 2:
            edges.append((ids[0], ids[1], 2))
        else:
            edges += [(ids[c], ids[(c + 1) % length]) for c in range(length)]
        edges.append(("s", ids[0]))
    return config_from_data(verts, edges, name=f"{fibres}xI{length}-plus-section")


def i4_fibres_with_section(fibres=6):
    """``fibres`` I4 cycles plus a zero section (:func:`fibres_with_section`)."""
    return fibres_with_section(fibres, 4)


def indices(mask, n):
    """The increasing index tuple of the subset ``mask`` of ``n`` curves,
    curve ``v`` at bit ``n - 1 - v``: the tests' own reading of the masks
    that the connected-subset enumerator yields."""
    return tuple(v for v in range(n) if mask >> (n - 1 - v) & 1)


def mask_of(subset, n):
    """The mask of the index tuple ``subset`` of ``n`` curves, the inverse
    of :func:`indices`."""
    return sum(1 << (n - 1 - v) for v in subset)


def recorded_steps(monkeypatch, module):
    """Every result the connected-subset enumerator gets from its step while
    ``module`` uses it, in call order: the returned list fills as the
    module's searches run."""
    real = module.connected_vertex_subsets
    results = []

    def recording(cfg, max_size, grow, root):
        def step(parent, u, mask):
            state = grow(parent, u, mask)
            results.append(state)
            return state

        return real(cfg, max_size, step, root)

    monkeypatch.setattr(module, "connected_vertex_subsets", recording)
    return results
