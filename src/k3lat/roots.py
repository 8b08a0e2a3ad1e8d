"""Recognition of (-2)-curve components as root diagrams.

A connected component of a negative (semi-)definite configuration is either
a simply-laced root diagram A/D/E, its affine extension (negative
semi-definite with a one-dimensional radical carrying the standard positive
multiplicities), a pair of curves joined by a double edge (the degenerate
rank-one extension), or an isolated isotropic vertex.  One step decides a
diagram's shape as a subgraph grows by one curve (:func:`_diagram_search`):
it carries the finite diagram (a centre and its arms), cuts the subgraph
once it is indefinite, and ends an affine one with its skeleton (a cycle, a
star, or a chain forked at both ends).  The fibre search of
:mod:`k3lat.kodaira` enumerates with it, growing a D or E diagram only
where :func:`_diagram_reach` says the step can keep a child, and
:func:`decompose` grows it over each component's curves.  A hit stays in
curve indices and masks until it is reported: its skeleton names each
curve by id rank, :func:`canonical_diagram` orders it (the one rule for
that order), and :func:`_confirmed` compares every entry of the standard
diagram's Gram matrix in that order with the curves' squares, edges and
neighbour masks; only a confirmed component gets its id tuple.  The
standard matrix comes from a table built once per diagram, and building it
checks the exact signature and, for affine kinds, that the radical
generator annihilates it; equal matrices share both, so a wrong match
cannot slip through.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .exact import _congruence
from .graph import (
    CUT, CurveConfig, CurveVertex, Final, SpanKind, classify, curve_bits, integer_gram,
    neighbour_masks,
)


class NotNegativeSemidefiniteError(ValueError):
    """Raised when decomposition is asked of a span with a positive direction."""


class RootComponent(NamedTuple):
    """One recognized connected component.

    ``kind`` is one of ``"A"``, ``"D"``, ``"E"``, ``"AffineA"``,
    ``"AffineD"``, ``"AffineE"``, ``"A1Tilde"``, ``"IsotropicVertex"``;
    ``rank_param`` is the subscript (1 for A1Tilde, None for IsotropicVertex).
    ``vertex_ids`` lists the vertices in canonical diagram order and
    ``kernel_vector`` (affine kinds only) gives the radical generator in
    that order.
    """

    kind: str
    rank_param: int | None
    vertex_ids: tuple[str, ...]
    kernel_vector: tuple[int, ...] | None = None

    @property
    def name(self) -> str:
        if self.kind == "A1Tilde":
            return "A~1"
        if self.kind == "IsotropicVertex":
            return "isotropic"
        if self.kind.startswith("Affine"):
            return f"{self.kind[-1]}~{self.rank_param}"
        return f"{self.kind}{self.rank_param}"

    @property
    def is_affine(self) -> bool:
        return self.kind.startswith("Affine") or self.kind == "A1Tilde"

    @property
    def rank(self) -> int:
        """Rank of the component's span: its size, less one for a kind with
        a radical (the affine kinds and the isotropic vertex)."""
        return len(self.vertex_ids) - (1 if self.is_affine or self.kind == "IsotropicVertex" else 0)


class Decomposition(NamedTuple):
    components: tuple[RootComponent, ...]
    unrecognized: tuple[tuple[str, ...], ...]

    def names(self) -> list[str]:
        return sorted(c.name for c in self.components)

    @property
    def total_rank(self) -> int:
        # unrecognized pieces count with full size, a safe upper bound
        return sum(c.rank for c in self.components) + sum(map(len, self.unrecognized))


# star-shaped diagrams other than D, keyed by their arm lengths in
# increasing order; E and affine E are exactly these, plus the 5-vertex
# affine D
_STARS = {
    (1, 2, 2): ("E", 6),
    (1, 2, 3): ("E", 7),
    (1, 2, 4): ("E", 8),
    (2, 2, 2): ("AffineE", 6),
    (1, 3, 3): ("AffineE", 7),
    (1, 2, 5): ("AffineE", 8),
    (1, 1, 1, 1): ("AffineD", 4),
}


def _star_arms(kind: str, n: int | None) -> tuple[int, ...] | None:
    return next((arms for arms, hit in _STARS.items() if hit == (kind, n)), None)


@functools.cache
def radical(kind: str, n: int) -> tuple[int, ...]:
    """Radical generator of an affine diagram in canonical vertex order:
    the standard positive multiplicities of the matching fiber type."""
    if kind == "A1Tilde":
        return (1, 1)
    if kind == "AffineA":
        return (1,) * (n + 1)
    if kind == "AffineD" and n > 4:
        # leaves, chain, leaves
        return (1, 1) + (2,) * (n - 3) + (1, 1)
    arms = _star_arms(kind, n) if kind.startswith("Affine") else None
    if arms is None:
        raise ValueError(f"{kind}({n}) is not an affine diagram")
    # the centre carries the lcm of (arm length + 1); each arm falls
    # linearly to zero one step beyond its leaf
    top = math.lcm(*(a + 1 for a in arms))
    return (top,) + tuple(top * (a - i) // (a + 1) for a in arms for i in range(a))


def canonical_diagram(skeleton: tuple) -> tuple[str, int, tuple]:
    """Kind, rank parameter and canonical vertex order of a connected root
    diagram given by its skeleton, in ids or labels that compare as ids do.

    A skeleton is one of

    * ``("cycle", ring)``: the curves around a cycle, from any of them in
      either direction; two curves are the pair meeting twice (A~1);
    * ``("star", centre, arms)``: a curve and the chains leaving it, each
      from the centre outward; a path has at most two arms, D has arm
      lengths (1, 1, k), the rest are looked up in one table, which holds
      every other star :func:`_diagram_search` lets through;
    * ``("forks", leaves, chain, leaves)``: a chain forked at both ends
      (D~n, n > 4), from one fork to the other, with each fork's two
      leaves.

    The canonical order is the one rule both the decomposition and the
    fibre search use: a cycle from the smallest id toward its smaller
    neighbour; a path from its smaller end; D as its two leaves, the fork,
    then the chain; any other star as the centre, then each arm outward,
    arms sorted by (length, ids); a forked chain from the fork with the
    smaller id, as its leaves, the chain, then the other fork's leaves,
    leaves in sorted order.
    """
    tag, *parts = skeleton
    if tag == "cycle":
        (ring,) = parts
        i = ring.index(min(ring))
        ring = ring[i:] + ring[:i]
        if ring[-1] < ring[1]:
            ring = ring[:1] + ring[:0:-1]
        return ("A1Tilde", 1, ring) if len(ring) == 2 else ("AffineA", len(ring) - 1, ring)
    if tag == "forks":
        first, chain, last = parts
        if chain[-1] < chain[0]:
            first, chain, last = last, chain[::-1], first
        order = tuple(sorted(first)) + chain + tuple(sorted(last))
        return "AffineD", len(order) - 1, order
    centre, arms = parts
    if len(arms) <= 2:
        path = (arms[1][::-1] if len(arms) == 2 else ()) + (centre,) + (arms[0] if arms else ())
        return "A", len(path), path if path[0] < path[-1] else path[::-1]
    arms = sorted(arms, key=lambda a: (len(a), a))
    lengths = tuple(map(len, arms))
    if len(arms) == 3 and lengths[:2] == (1, 1):
        return "D", 1 + sum(lengths), (arms[0][0], arms[1][0], centre) + arms[2]
    return (*_STARS[lengths], (centre,) + sum(arms, ()))


def _diagram_search(cfg: CurveConfig):
    """The step that decides a connected subgraph's diagram, and the naming
    of the diagram it ends in, for one search over ``cfg``: ``(grow,
    component)``, the one shape rule of the fibre search and of
    :func:`recognize_component`.

    A finite (negative definite) subset's state is ``(centre, arms)`` in
    curve indices: one curve and the chains leaving it, each from the
    centre outward; a path has at most two arms, D and E have three.  From
    it ``grow(state, u, mask)`` decides whether the subset grown by ``u``
    is finite, affine or indefinite (:data:`~k3lat.graph.CUT`), reading
    the subset's neighbours of ``u`` off one neighbour mask.  An affine
    subset's state is a :class:`~k3lat.graph.Final` skeleton
    (:func:`canonical_diagram`) naming each curve by its id rank, its id's
    position in sorted order, so that names compare as ids do.  A star
    whose arms have ``p_i - 1`` curves is finite, affine or indefinite as
    ``sum(1/p_i)`` exceeds, equals or falls short of the number of arms
    less two (the sign of its Gram determinant); the other affine diagrams
    are the closed path, the double edge and D~n (n > 4).  Having a
    positive direction is monotone, so the cut loses nothing, and a final
    subset needs no step: all its connected supergraphs are indefinite.
    The step reads the edges only, and a curve is in a subset's mask when
    its bit (:func:`~k3lat.graph.curve_bits`) is.

    ``component(state)`` orders a final skeleton or a finite state
    canonically and maps it back to curve indices once: the root component
    with its id tuple if :func:`_confirmed` confirms those curves, else
    None.
    """
    adj = cfg.adjacency()
    ids = cfg.ids()
    n = len(ids)
    bits = curve_bits(n)
    nbrs = neighbour_masks(cfg)
    # the curve of each id rank, and its inverse, the rank of each curve
    index = sorted(range(n), key=ids.__getitem__)
    rank = sorted(range(n), key=index.__getitem__)
    tables = (bits, [v.square for v in cfg.vertices], adj, nbrs)

    def named(curves):
        return tuple([rank[v] for v in curves])

    def star(centre, arms):
        sign = _star_sign(tuple(map(len, arms))) if len(arms) > 2 else 1
        if sign > 0:
            return centre, arms
        return Final(("star", rank[centre], tuple(map(named, arms)))) if sign == 0 else CUT

    def grow(state, u, mask):
        near = nbrs[u] & mask
        if not near:
            return u, ()
        centre, arms = state
        if near & near - 1:
            # A~n: u closes a path, meeting each of its two ends once
            ends = [arm[-1] for arm in arms] + [centre] * (2 - len(arms))
            hits = {(w, m) for w, m in adj[u].items() if bits[w] & near}
            if len(arms) < 3 and hits == {(w, 1) for w in ends}:
                back = arms[1][::-1] if len(arms) == 2 else ()
                return Final(("cycle", named((centre, *arms[0], u, *back))))
            return CUT
        w = n - near.bit_length()
        m = adj[u][w]
        if m > 1:
            # A~1 is two curves meeting twice
            return Final(("cycle", named((centre, u)))) if m == 2 and not arms else CUT
        if w == centre:
            return star(centre, arms + ((u,),))
        i = next(i for i, arm in enumerate(arms) if w in arm)
        arm, j = arms[i], arms[i].index(w)
        if j == len(arm) - 1:
            return star(centre, arms[:i] + (arm + (u,),) + arms[i + 1 :])
        if len(arms) < 3:
            # w becomes the centre of a star
            back = arm[:j][::-1] + (centre,) + (arms[1 - i] if len(arms) == 2 else ())
            return star(w, (arm[j + 1 :], back, (u,)))
        # a second branch curve: D~n from D_n, beside the end of the long
        # arm, whose last curve and u are the new fork's leaves
        if sorted(map(len, arms))[:2] == [1, 1] and j == len(arm) - 2:
            leaves = named(a[0] for a in arms[:i] + arms[i + 1 :])
            return Final(("forks", leaves, named((centre,) + arm[:-1]), named((arm[-1], u))))
        return CUT

    def component(state):
        affine = type(state) is Final
        if not affine:
            centre, arms = state
            state = ("star", rank[centre], tuple(map(named, arms)))
        kind, k, order = canonical_diagram(state)
        curves = [index[r] for r in order]
        if not _confirmed(tables, kind, k, curves):
            return None
        kernel = radical(kind, k) if affine else None
        return RootComponent(kind, k, tuple([ids[v] for v in curves]), kernel)

    return grow, component


@functools.cache
def _star_sign(lengths: tuple[int, ...]) -> int:
    """1, 0 or -1 as a star with arms of these lengths is finite, affine or
    indefinite (:func:`_diagram_search`)."""
    p = [a + 1 for a in lengths]
    whole = math.prod(p)
    excess = sum(whole // q for q in p) - (len(p) - 2) * whole
    return (excess > 0) - (excess < 0)


def _diagram_reach(state) -> list[int] | None:
    """The curves of a finite subset next to which :func:`_diagram_search`
    can keep a child, or None for all of them.  A star with three arms
    keeps only a child that meets it once: at an arm's end, at the centre
    of D4 (D~4) or beside the end of D_n's long arm (D~n); the step cuts
    every other child, and every subset that contains one."""
    centre, arms = state
    if len(arms) < 3:
        return None
    tips = [arm[-1] for arm in arms]
    if sorted(map(len, arms))[1] == 1:
        long = max(arms, key=len)
        tips.append(long[-2] if len(long) > 1 else centre)
    return tips


def recognize_component(cfg: CurveConfig, ids: tuple[str, ...]) -> RootComponent | None:
    """Recognize one connected induced subgraph as a root component.

    Returns None for anything that is not an ADE diagram, an affine
    extension, a double-edge pair, or an isolated isotropic vertex, and for
    ids that are not connected.  The step of :func:`_diagram_search` is
    grown over the curves breadth first from the least index, on the mask
    of the curves grown so far, and its naming confirms the diagram it ends
    in.  Repeated ids are read as their set, except that a lone curve or a
    pair meeting twice is recognised only from its ids without repeats.
    Work is proportional to the subset and its neighbourhood.  An id not in
    ``cfg`` raises the ``ValueError`` of :meth:`CurveConfig.induced`.
    """
    try:
        members = set(map(cfg.index_of, ids))
    except KeyError:
        raise ValueError(f"unknown vertex ids {sorted(set(ids).difference(cfg.ids()))}") from None
    if len(ids) == 1 and cfg.vertex(ids[0]).square == 0:
        return RootComponent("IsotropicVertex", None, (ids[0],))
    if len(members) < min(len(ids), 2):
        return None
    adj, bits = cfg.adjacency(), curve_bits(cfg.n)
    step, component = _diagram_search(cfg)
    order = [min(members)]
    grown = bits[order[0]]
    state = step(None, order[0], grown)
    for v in order:
        for u in adj[v]:
            if u in members and not grown & bits[u]:
                if type(state) is Final:
                    # every connected supergraph of an affine diagram is
                    # indefinite
                    return None
                grown |= bits[u]
                state = step(state, u, grown)
                if state is CUT:
                    return None
                order.append(u)
    if len(order) < len(members) or type(state) is Final and len(members) == 2 < len(ids):
        # not connected, or the pair meeting twice named with a repeat
        return None
    return component(state)


def _confirmed(tables: tuple, kind: str, n: int, curves: list[int]) -> bool:
    """Whether ``curves``, in canonical order, have the standard diagram's
    Gram matrix (:func:`standard_gram`, whose signature and radical were
    checked once), given the curves' bits, squares, adjacency and neighbour
    masks.  Every entry is compared: the curves are distinct, the squares
    and the standard edges match, and each curve meets as many of them as
    its standard row has edges (so every zero entry is zero)."""
    bits, squares, adj, nbrs = tables
    rows = _standard_rows(kind, n)
    mask = 0
    for v in curves:
        mask |= bits[v]
    if len(curves) != len(rows) or mask.bit_count() != len(rows):
        return False
    for v, (square, degree, edges) in zip(curves, rows):
        if squares[v] != square or (nbrs[v] & mask).bit_count() != degree:
            return False
        near = adj[v]
        for j, m in edges:
            if near.get(curves[j]) != m:
                return False
    return True


def decompose(cfg: CurveConfig) -> Decomposition:
    """Split a negative (semi-)definite configuration into recognized root
    components.

    Raises :class:`NotNegativeSemidefiniteError` when the span has a
    positive direction.  Components that match no diagram (possible only
    for adversarial input) are reported in ``unrecognized`` rather than
    raised, so checkers can keep going.
    """
    cls = classify(cfg)
    if cls.kind in (SpanKind.HYPERBOLIC, SpanKind.INVALID):
        raise NotNegativeSemidefiniteError(
            f"span is {cls.kind.value}; decomposition needs a negative "
            "semi-definite configuration"
        )
    components = []
    unrecognized = []
    for comp_ids in cfg.connected_components():
        rec = recognize_component(cfg, comp_ids)
        if rec is None:
            unrecognized.append(comp_ids)
        else:
            components.append(rec)
    return Decomposition(tuple(components), tuple(unrecognized))


def max_rank_check(dec: Decomposition, rho_max: int) -> bool:
    """Whether the definite span fits in a hyperbolic lattice of rank
    ``rho_max``: total rank must not exceed ``rho_max - 1``."""
    return dec.total_rank <= rho_max - 1


# -- standard diagram builders ------------------------------------------


def _chain_edges(ids: list[str]) -> list[tuple[str, str, int]]:
    return [(ids[i], ids[i + 1], 1) for i in range(len(ids) - 1)]


def standard_diagram(kind: str, n: int | None = None, prefix: str = "v") -> CurveConfig:
    """Build the standard diagram of the given kind with (-2)-vertices.

    Kinds: ``A``, ``D`` (n >= 4), ``E`` (n in 6..8), ``AffineA`` (n >= 2),
    ``AffineD`` (n >= 4), ``AffineE`` (n in 6..8), ``A1Tilde``,
    ``IsotropicVertex``.  Vertex ids are ``{prefix}0``, ``{prefix}1``, ...
    in the canonical order used by the recognizer.  The other kinds need a
    rank parameter ``n`` that is an int (a bool is not), else
    ``ValueError``.
    """
    mk = lambda k: f"{prefix}{k}"
    if kind == "IsotropicVertex":
        return CurveConfig([CurveVertex(mk(0), 0)], [], name="isotropic")
    if kind == "A1Tilde":
        vs = [CurveVertex(mk(0)), CurveVertex(mk(1))]
        return CurveConfig(vs, [(mk(0), mk(1), 2)], name="A~1")
    if type(n) is not int:
        raise ValueError(f"kind {kind!r} needs a rank parameter that is an int, got {n!r}")
    size = n + 1 if kind.startswith("Affine") else n
    ids = [mk(i) for i in range(size)]
    if kind == "A":
        if n < 1:
            raise ValueError("A(n) needs n >= 1")
        edges = _chain_edges(ids)
    elif kind == "AffineA":
        if n < 2:
            raise ValueError("AffineA(n) needs n >= 2 (use A1Tilde for n = 1)")
        edges = _chain_edges(ids) + [(ids[-1], ids[0], 1)]
    elif kind == "D":
        if n < 4:
            raise ValueError("D(n) needs n >= 4")
        # two leaves on a fork, then the chain
        edges = [(ids[0], ids[2], 1), (ids[1], ids[2], 1)] + _chain_edges(ids[2:])
    elif kind == "AffineD" and n != 4:
        if n < 4:
            raise ValueError("AffineD(n) needs n >= 4")
        # leaves 0,1 fork 2, chain, fork n-2, leaves n-1,n
        edges = (
            [(ids[0], ids[2], 1), (ids[1], ids[2], 1)]
            + _chain_edges(ids[2 : n - 1])
            + [(ids[n - 2], ids[n - 1], 1), (ids[n - 2], ids[n], 1)]
        )
    elif kind in ("E", "AffineE", "AffineD"):
        arms = _star_arms(kind, n)
        if arms is None:
            raise ValueError(f"{kind}({n}) is not a diagram")
        # the centre, then each arm outward
        edges, k = [], 1
        for arm_len in arms:
            edges += _chain_edges([ids[0]] + ids[k : k + arm_len])
            k += arm_len
    else:
        raise ValueError(f"unknown diagram kind {kind!r}")
    name = RootComponent(kind, n, ()).name
    return CurveConfig([CurveVertex(v) for v in ids], edges, name=name)


@functools.lru_cache(maxsize=None)
def standard_gram(kind: str, n: int | None) -> tuple[tuple[int, ...], ...]:
    """Integer Gram matrix of ``standard_diagram(kind, n)`` in canonical
    order, built once per diagram.

    Building an entry checks the exact signature, (0, size, 0) or
    (0, size - 1, 1) for an affine kind, and that an affine kind's
    :func:`radical` annihilates the matrix.  A failure raises
    ``RuntimeError``: the diagram table itself would be wrong.
    """
    cfg = standard_diagram(kind, n)
    g = tuple(map(tuple, integer_gram(cfg, range(cfg.n))))
    affine = RootComponent(kind, n, ()).is_affine
    want = (0, cfg.n - 1, 1) if affine else (0, cfg.n, 0)
    got = _congruence(g)[0]
    if got != want:
        raise RuntimeError(f"{cfg.name} has signature {got}, expected {want}")
    rad = radical(kind, n) if affine else ()
    if any(sum(x * y for x, y in zip(row, rad)) for row in g):
        raise RuntimeError(f"radical of {cfg.name} does not annihilate its Gram matrix")
    return g


@functools.cache
def _standard_rows(kind: str, n: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """Each row of :func:`standard_gram` as :func:`_confirmed` compares it,
    built once per diagram: its square, its number of edges, and its edges
    to later rows as ``(column, multiplicity)``."""
    rows = []
    for i, row in enumerate(standard_gram(kind, n)):
        later = tuple((j, m) for j, m in enumerate(row) if j > i and m)
        rows.append((row[i], len(row) - 1 - row.count(0), later))
    return tuple(rows)
