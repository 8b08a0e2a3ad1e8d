"""Configuration graphs of rational curves on a polarized surface.

A :class:`CurveConfig` is a loop-free multigraph: vertices carry a
self-intersection number and a polarization degree, edge multiplicities
record pairwise intersection numbers.  The induced integral symmetric form
is negative definite, negative semi-definite, hyperbolic (one positive
direction), or invalid (two or more positive directions, which the Hodge
index theorem forbids inside the Picard lattice of a surface).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import mul, or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import Signature, _congruence, row_echelon


class SpanKind(enum.Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"
    INVALID = "Invalid"


class CurveVertex(namedtuple("CurveVertex", "id square degree")):
    """A rational curve: label, self-intersection and polarization degree."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, id: str, square: int = -2, degree: int = 1):
        self = super().__new__(cls, id, square, degree)
        # a certificate's support is a tuple of str ids (verify_certificate)
        if not isinstance(self.id, str):
            raise ValueError(f"vertex id {self.id!r} must be a str")
        if not self.id:
            raise ValueError("vertex id must be nonempty")
        for field, value in (("square", self.square), ("degree", self.degree)):
            # a bool is an int to isinstance, so the type itself is checked
            if type(value) is not int:
                raise ValueError(f"vertex {self.id!r}: {field} {value!r} must be an int")
        if self.square % 2 != 0:
            raise ValueError(f"vertex {self.id!r}: square {self.square} must be even")
        if self.square < -2:
            raise ValueError(f"vertex {self.id!r}: square {self.square} must be >= -2")
        if self.degree < 1:
            raise ValueError(f"vertex {self.id!r}: degree {self.degree} must be >= 1")
        return self


class CurveConfig:
    """Ordered vertices plus the edge multiplicities, stored once as one
    adjacency per vertex index."""

    __slots__ = ("name", "vertices", "_index", "_adj")

    def __init__(
        self,
        vertices: Iterable[CurveVertex],
        edges: Iterable[tuple[str, str, int]] = (),
        name: str = "",
    ):
        self.name = name
        self.vertices = tuple(vertices)
        index: dict[str, int] = {}
        for pos, v in enumerate(self.vertices):
            if v.id in index:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            index[v.id] = pos
        self._index = index
        adj: list[dict[int, int]] = [{} for _ in self.vertices]
        for a, b, mult in edges:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ValueError(f"edge references unknown vertex {missing!r}")
            if a == b:
                raise ValueError(f"loop at vertex {a!r} not allowed")
            if type(mult) is not int or mult < 1:
                raise ValueError(
                    f"edge ({a!r},{b!r}): multiplicity {mult!r} must be an int >= 1"
                )
            i, j = index[a], index[b]
            if j in adj[i]:
                raise ValueError(f"duplicate edge ({a!r},{b!r})")
            adj[i][j] = adj[j][i] = mult
        # each row lists its neighbours in increasing index order
        self._adj = tuple(MappingProxyType(dict(sorted(row.items()))) for row in adj)

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def index_of(self, vid: str) -> int:
        return self._index[vid]

    def vertex(self, vid: str) -> CurveVertex:
        return self.vertices[self._index[vid]]

    def edge_items(self) -> list[tuple[str, str, int]]:
        """Each edge once as ``(a, b, mult)``, in increasing index pairs."""
        vs = self.vertices
        return [
            (vs[i].id, vs[j].id, m)
            for i, row in enumerate(self._adj)
            for j, m in row.items()
            if j > i
        ]

    def adjacency(self) -> tuple[Mapping[int, int], ...]:
        """Per vertex index, a read-only map from each neighbour's index
        (in increasing order) to the edge multiplicity."""
        return self._adj

    def edge_mult(self, a: str, b: str) -> int:
        i, j = self._index[a], self._index[b]
        if i == j:
            raise ValueError("no loops")
        return self._adj[i].get(j, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(v.degree for v in self.vertices)

    def neighbors(self, vid: str) -> list[str]:
        """Neighbour ids in config order."""
        return [self.vertices[j].id for j in self._adj[self._index[vid]]]

    def induced(self, ids: Sequence[str]) -> "CurveConfig":
        """Induced sub-configuration on the given vertex ids (config order)."""
        keep = set(ids)
        verts = [v for v in self.vertices if v.id in keep]
        if len(verts) != len(keep):
            unknown = keep - {v.id for v in self.vertices}
            raise ValueError(f"unknown vertex ids {sorted(unknown)}")
        sub_ids = {v.id for v in verts}
        edges = [
            (a, b, m) for a, b, m in self.edge_items() if a in sub_ids and b in sub_ids
        ]
        return CurveConfig(verts, edges, name=self.name)

    def disjoint_union(self, other: "CurveConfig") -> "CurveConfig":
        overlap = set(self.ids()) & set(other.ids())
        if overlap:
            raise ValueError(f"vertex ids overlap: {sorted(overlap)}")
        return CurveConfig(
            self.vertices + other.vertices, self.edge_items() + other.edge_items()
        )

    def connected_components(self) -> list[tuple[str, ...]]:
        """Vertex-id sets of connected components, in config order."""
        adj = self._adj
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(self.vertices[i].id for i in sorted(comp)))
        return comps

    def __repr__(self) -> str:
        return f"CurveConfig({self.name or 'unnamed'}, n={self.n})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurveConfig)
            and self.vertices == other.vertices
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(tuple(row.items()) for row in self._adj)))


def config_from_data(
    vertices: Iterable[tuple[str, int, int] | tuple[str, int]],
    edges: Iterable[tuple[str, str] | tuple[str, str, int]] = (),
    name: str = "",
) -> CurveConfig:
    """Convenience builder: vertices as (id, square[, degree]) tuples and
    edges as (a, b[, mult]) tuples."""
    vs = []
    for item in vertices:
        if len(item) == 2:
            vid, square = item
            vs.append(CurveVertex(vid, square))
        else:
            vid, square, degree = item
            vs.append(CurveVertex(vid, square, degree))
    es = []
    for item in edges:
        if len(item) == 2:
            es.append((item[0], item[1], 1))
        else:
            es.append(item)
    return CurveConfig(vs, es, name=name)


class LatticeClass(NamedTuple):
    """Definiteness class of the span of a configuration."""

    kind: SpanKind
    signature: Signature


class Violation(NamedTuple):
    """A named constraint breach: rule id, the offending vertices and an
    exact measure of how badly the constraint fails."""

    rule: str
    vertices: tuple[str, ...]
    message: str
    slack: Fraction | None = None


def integer_gram(cfg: CurveConfig, idx: Sequence[int]) -> list[list[int]]:
    """Integer Gram matrix of the curves at the indices ``idx``, in that
    order."""
    verts, adj = cfg.vertices, cfg.adjacency()
    return [
        [verts[i].square if i == j else adj[i].get(j, 0) for j in idx] for i in idx
    ]


def classify(cfg: CurveConfig) -> LatticeClass:
    """Elliptic / parabolic / hyperbolic trichotomy of the span.

    Two or more positive directions cannot occur inside the Picard lattice
    of a surface (Hodge index), so such input is reported as Invalid.  A
    vector of positive square, when there is one, is
    :func:`~k3lat.exact.positive_square_vector` of the Gram matrix.
    """
    return _gram_class(integer_gram(cfg, range(cfg.n)))


def _gram_class(g: list[list[int]]) -> LatticeClass:
    """The class of the span whose integer Gram matrix is ``g``, from one
    congruence."""
    sig = _congruence(g)[0]
    if sig.n_plus == 0:
        kind = SpanKind.ELLIPTIC if sig.n_zero == 0 else SpanKind.PARABOLIC
    else:
        kind = SpanKind.HYPERBOLIC if sig.n_plus == 1 else SpanKind.INVALID
    return LatticeClass(kind, sig)


def validate_pairings(cfg: CurveConfig, cls: LatticeClass) -> list[Violation]:
    """Check the edge-multiplicity constraints forced by the definiteness
    class: pairings lie in {0,1} for a definite span, in {0,1,2} for a
    semi-definite one, and isotropic vertices meet nothing."""
    out: list[Violation] = []
    if cls.kind is SpanKind.ELLIPTIC:
        for a, b, m in cfg.edge_items():
            if m > 1:
                out.append(
                    Violation(
                        "elliptic-pair",
                        (a, b),
                        f"C.C' = {m} but a negative definite span forces C.C' in {{0,1}}",
                        slack=Fraction(m - 1),
                    )
                )
    elif cls.kind is SpanKind.PARABOLIC:
        for a, b, m in cfg.edge_items():
            if m > 2:
                out.append(
                    Violation(
                        "parabolic-pair",
                        (a, b),
                        f"C.C' = {m} but a negative semi-definite span forces C.C' in {{0,1,2}}",
                        slack=Fraction(m - 2),
                    )
                )
        for v in cfg.vertices:
            if v.square != 0:
                continue
            for w in cfg.neighbors(v.id):
                m = cfg.edge_mult(v.id, w)
                out.append(
                    Violation(
                        "isotropic-orthogonal",
                        (v.id, w),
                        f"isotropic {v.id} meets {w} with D.C = {m}, "
                        "but an isotropic class pairs to zero with every curve",
                        slack=Fraction(m),
                    )
                )
    return out


class QuotientProjection(NamedTuple):
    """Linear projection from vertex space onto the nondegenerate quotient.

    ``basis_ids`` are the vertices whose classes form a basis; ``matrix``
    has one row per basis element and one column per original vertex, of
    which there are ``vertex_count`` (a quotient of rank 0 has no row to
    count them by).
    """

    basis_ids: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    vertex_count: int

    def apply(self, vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """The quotient coordinates of ``vec``, which has one entry per
        original vertex; another length is a ``ValueError``."""
        if len(vec) != self.vertex_count:
            raise ValueError(f"vector of {len(vec)} entries, not one per vertex")
        return tuple(sum(map(mul, row, map(Fraction, vec)), Fraction(0)) for row in self.matrix)


def _radical_reduction(
    cfg: CurveConfig,
) -> tuple[list[list[int]], int, list[list[int]], list[int]]:
    """``(g, p, rows, basis)``: the integer Gram matrix of ``cfg`` and its
    right-to-left reduction, which pivots on the complement of the kernel's
    left-to-right pivots.  Those curves, ``basis``, give a basis of the
    quotient by the radical; column ``j`` of ``g`` is ``sum_b rows[b][j] /
    p`` times column ``basis[b]``, so ``rows[b] / p`` is the projection row
    of curve ``basis[b]``."""
    g = integer_gram(cfg, range(cfg.n))
    p, rows, pivots = row_echelon(g, range(cfg.n - 1, -1, -1))
    return g, p, rows[::-1], pivots[::-1]


def quotient_by_kernel(
    cfg: CurveConfig,
) -> tuple[tuple[tuple[int, ...], ...], QuotientProjection]:
    """Gram matrix (int rows) of the quotient by the radical, plus the projection.

    The quotient is always nondegenerate with signature
    ``(n_plus, n_minus, 0)`` of the input.  When the input is already
    nondegenerate, the projection is the identity.
    """
    g, p, rows, basis = _radical_reduction(cfg)
    quotient = tuple(tuple(g[i][j] for j in basis) for i in basis)
    basis_ids = tuple(cfg.vertices[j].id for j in basis)
    matrix = tuple(tuple(Fraction(x, p) for x in row) for row in rows)
    return quotient, QuotientProjection(basis_ids, matrix, cfg.n)


# a step result that drops a subset, and everything grown from it, from
# connected_vertex_subsets
CUT = object()


class Final(tuple):
    """A step state that ends its subset's growth: the subset is yielded
    with it, but connected_vertex_subsets grows nothing from it."""

    __slots__ = ()


def curve_bits(n: int) -> list[int]:
    """The bit of each of ``n`` curves in the mask of a subset, curve ``v``
    at bit ``n - 1 - v``, so that a mask's binary digits list its curves in
    index order.  Other modules test and invert masks through this list."""
    return [1 << (n - 1 - v) for v in range(n)]


def neighbour_masks(cfg: CurveConfig) -> list[int]:
    """Per curve, the mask (:func:`curve_bits`) of its neighbours."""
    bits = curve_bits(cfg.n)
    return [sum([bits[w] for w in row]) for row in cfg.adjacency()]


def mask_indices(mask: int, n: int) -> tuple[int, ...]:
    """The increasing index tuple of the subset ``mask`` of ``n`` curves
    (:func:`curve_bits`)."""
    return tuple(i for i, bit in enumerate(f"{mask:0{n}b}") if bit == "1")


def connected_vertex_subsets(cfg: CurveConfig, max_size: int, grow, root, reach=None):
    """Yield ``(mask, state)`` for every connected vertex subset of at most
    ``max_size`` curves exactly once, in canonical order (size, then index
    tuple), each as its mask (:func:`curve_bits`) from enumeration on.

    Each subset is generated once, from one parent, by ESU (Wernicke,
    "Efficient detection of network motifs", IEEE/ACM TCBB 2006): it
    carries an extension, the curves it may still add, a singleton's being
    its neighbours after it.  They are taken lowest index first, each
    dropped before the next, and the child by ``w`` extends by what is
    left and by the neighbours of ``w`` after the subset's first curve
    that are neither in nor next to the subset.  A subset's state is
    ``grow(parent_state, u, mask)`` for that parent ``mask - {u}``, or if
    its state is None, for the first connected parent in canonical order
    whose state is not None, if any.  Singletons grow from ``root``, the
    state of the empty subset.  A step that returns :data:`CUT` drops the
    subset and everything grown from it, and one that returns a
    :class:`Final` state keeps the subset but grows nothing from it.  That
    loses nothing when cuts are monotone (every connected parent of a
    subset that is not cut is not cut either) and every connected superset
    of a final subset is cut.  Given ``reach``, a subset grows only by
    neighbours of the curves in ``reach(state)``, or of all its curves when
    that is None, and the other curves leave its extension.  That is exact
    when the step would cut, from any parent, every child that ``reach``
    drops: a subset that could still add such a curve contains that child,
    so it is cut too, and a kept child has the same parent as without
    ``reach``.  A level is built only once the previous one is consumed,
    and the search ends at the first empty level, however large
    ``max_size`` is.

    The smallest curve in the symmetric difference of two subsets of one
    size owns their highest differing bit, so within a level integer
    order, largest first, is canonical order.  A subset's first curve is
    its highest bit, and the curves after it are the bits below.
    """
    n = cfg.n
    nbrs = neighbour_masks(cfg)
    # (mask, parent state, u, extension, neighbours of its curves); no two masks equal
    grown = [(bit, root, u, nbrs[u] & bit - 1, nbrs[u]) for u, bit in enumerate(curve_bits(n))]
    parents = None
    for size in range(1, max_size + 1):
        last, kept = size == max_size, []
        for mask, parent, u, ext, near in grown:
            if parent is None and parents:
                rest = mask
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if (state := parents.get(mask ^ bit)) is not None:
                        parent, u = state, n - bit.bit_length()
                        break
            state = grow(parent, u, mask)
            if state is not CUT:
                if not last and type(state) is not Final:
                    kept.append((mask, ext, near, state))
                yield mask, state
        grown, parents = [], None
        for mask, ext, near, state in kept:
            if state is None and parents is None:
                parents = {mask: state for mask, _, _, state in kept if state is not None}
            if reach and (tips := reach(state)) is not None:
                ext &= reduce(or_, [nbrs[v] for v in tips], 0)
            later = (1 << mask.bit_length() - 1) - 1
            while ext:
                bit = 1 << ext.bit_length() - 1
                ext ^= bit
                u = n - bit.bit_length()
                grown.append((mask | bit, state, u, ext | nbrs[u] & ~near & later, near | nbrs[u]))
        if not grown:
            return
        grown.sort(reverse=True)


def check_caps(cfg: CurveConfig | None = None, /, **caps: int) -> None:
    """The one rule for a degree cap ``d``, a half-degree ``h`` and a size
    or weight cap: raise ``ValueError`` unless each of ``caps`` is an
    ``int``, not a bool, of at least 1, and, given ``cfg``, unless every
    curve degree is at most ``caps["d"]``."""
    if any(type(x) is not int or x < 1 for x in caps.values()):
        *rest, last = caps
        if not rest:
            raise ValueError(f"{last} must be positive and an int, got {caps[last]!r}")
        raise ValueError(f"{', '.join(rest)} and {last} must be positive integers")
    if cfg is not None:
        d = caps["d"]
        for v in cfg.vertices:
            if v.degree > d:
                raise ValueError(f"vertex {v.id!r} has degree {v.degree} > d = {d}")


def hodge_filter(cfg: CurveConfig, d: int, h: int) -> list[Violation]:
    """Hodge-index constraints on squares and pairings at polarization
    degree ``2h`` with all curve degrees capped by ``d``.

    Checks, exactly over the rationals:

    * ``C^2 <= d_C^2 / (2h)`` for every vertex;
    * ``C.C' <= d_C d_C'`` for every pair;
    * ``C.C' <= d_C d_C' / h`` when both squares are nonnegative (for large
      ``h`` this forces isotropic curves to be pairwise orthogonal);
    * ``C.C' <= 2`` for pairs of (-2)-curves once ``h > 42 d^2``.
    """
    check_caps(cfg, d=d, h=h)
    out: list[Violation] = []
    for v in cfg.vertices:
        cap = Fraction(v.degree * v.degree, 2 * h)
        if Fraction(v.square) > cap:
            out.append(
                Violation(
                    "square-bound",
                    (v.id,),
                    f"C^2 = {v.square} exceeds (C.H)^2/H^2 = {cap}",
                    slack=Fraction(v.square) - cap,
                )
            )
    for a, b, m in cfg.edge_items():
        va, vb = cfg.vertex(a), cfg.vertex(b)
        bezout = va.degree * vb.degree
        if m > bezout:
            out.append(
                Violation(
                    "pair-bezout",
                    (a, b),
                    f"C.C' = {m} exceeds d_C d_C' = {bezout}",
                    slack=Fraction(m - bezout),
                )
            )
        if va.square >= 0 and vb.square >= 0:
            cap = Fraction(bezout, h)
            if Fraction(m) > cap:
                out.append(
                    Violation(
                        "isotropic-pair",
                        (a, b),
                        f"C.C' = {m} exceeds d_C d_C'/h = {cap}; at this degree "
                        "two isotropic curves must be fibres of one fibration, "
                        "hence orthogonal",
                        slack=Fraction(m) - cap,
                    )
                )
        if va.square == -2 and vb.square == -2 and h > 42 * d * d and m > 2:
            out.append(
                Violation(
                    "pair-cap",
                    (a, b),
                    f"C.C' = {m} > 2 between (-2)-curves is impossible for "
                    f"h > 42 d^2",
                    slack=Fraction(m - 2),
                )
            )
    return out
