"""Fiber types of genus-one fibrations and their divisors on a configuration.

The type table records, for each fiber type, the component multiplicities,
the weight (their sum) and the Euler number.  Detection walks the connected
induced subgraphs of the configuration's (-2)-curves, each once, with
:func:`~k3lat.graph.connected_vertex_subsets` and reports every one that
carries an isotropic effective divisor of fiber shape.  The step and the
naming of its hits are :func:`k3lat.roots._diagram_search`, the one shape
rule that :func:`k3lat.roots.decompose` uses too: each subgraph carries the
finite ADE diagram it is, one that is indefinite is cut with all its
supergraphs, and one that is affine gets a final state that holds its
skeleton and is grown no further, since every connected supergraph of an
affine diagram is indefinite.  A D or E subgraph grows only where
:func:`k3lat.roots._diagram_reach` says the step can keep a child, so the
search builds none of the children it would cut there, nor any subgraph
that contains one.  Each affine subgraph stays in curve indices and masks
until it is named from its skeleton and confirmed, entry by entry, against
the standard diagram's Gram matrix (:func:`k3lat.roots._confirmed`); one
record per diagram holds its tag, weight and Euler range.
The dual graphs of some type pairs coincide (two curves meeting twice is a
2-cycle or a tangent pair; three curves meeting pairwise once is a triangle
or three concurrent lines), so detection returns merged tags for those.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .graph import (
    CurveConfig,
    Final,
    SpanKind,
    Violation,
    check_caps,
    classify,
    connected_vertex_subsets,
)
from .roots import _diagram_reach, _diagram_search, radical

# the star-shaped fibres, by the rank of their affine E diagram
_AFFINE_E_TAGS = {6: "IV*", 7: "III*", 8: "II*"}
# the additive types of fixed shape: (multiplicities, Euler number); an
# additive fibre of m components has Euler number m + 1
_FIXED_TYPES = {
    "II": ((1,), 2),
    "III": ((1, 1), 3),
    "IV": ((1, 1, 1), 4),
    **{tag: (radical("AffineE", k), k + 2) for k, tag in _AFFINE_E_TAGS.items()},
}


class KodairaType(NamedTuple):
    """One fiber type: tag, canonical component multiplicities, additivity
    and Euler number.

    Canonical component order: ``In`` lists the cycle in order; ``I*n``
    lists two simple leaves, the chain of double components, then the other
    two simple leaves; the star-shaped types list the branch component
    first and then each arm from the branch outward, shortest arm first.
    The multiplicities of ``I*n``, ``IV*``, ``III*`` and ``II*`` are the
    radical generators of the affine D and E diagrams, read from
    :func:`k3lat.roots.radical` in that same order.
    """

    tag: str
    multiplicities: tuple[int, ...]
    is_additive: bool
    euler: int

    @property
    def component_count(self) -> int:
        return len(self.multiplicities)

    @property
    def weight(self) -> int:
        return sum(self.multiplicities)


def parse_tag(tag: str) -> tuple[str, int | None]:
    """Split a fiber tag into (series, index): ("I", 4), ("I*", 2) or
    (tag, None) for the fixed additive types; any other tag, one that is
    not a str or not canonically spelt (``I04``, a non-ASCII digit, a
    trailing newline) included, raises ``ValueError``."""
    if not isinstance(tag, str):
        raise ValueError(f"fiber type tag must be a str, got {tag!r}")
    if tag in _FIXED_TYPES:
        return tag, None
    m = re.fullmatch(r"I(\*)?(0|[1-9][0-9]*)", tag)
    if m:
        return ("I*" if m.group(1) else "I"), int(m.group(2))
    raise ValueError(f"unknown fiber type tag {tag!r}")


def _series_euler(series: str, n: int) -> int:
    """The Euler number of ``In`` or ``I*n`` from :func:`parse_tag`'s
    series and index: ``n``, or ``n + 6`` for ``I*n``."""
    return n + 6 if series == "I*" else n


def type_table(tag: str) -> KodairaType:
    """The filled type record for an exact (unmerged) fiber tag; any other
    tag raises :func:`parse_tag`'s ``ValueError``."""
    if not isinstance(tag, str):
        parse_tag(tag)  # raises, where the cache would hash the tag first
    return _type_record(tag)


@functools.cache
def _type_record(tag: str) -> KodairaType:
    series, n = parse_tag(tag)
    if series == "I":
        # I0, the smooth fiber, has one component
        return KodairaType(tag, (1,) * max(n, 1), False, _series_euler(series, n))
    if series == "I*":
        return KodairaType(tag, radical("AffineD", n + 4), True, _series_euler(series, n))
    mults, euler = _FIXED_TYPES[tag]
    return KodairaType(tag, mults, True, euler)


class KodairaDivisor(NamedTuple):
    """An effective isotropic divisor of fiber shape found on a
    configuration: support vertices (canonical diagram order), the positive
    multiplicities, and the tag, possibly merged when the dual graph does
    not separate two types."""

    tag: str
    support: tuple[str, ...]
    multiplicities: tuple[int, ...]
    weight: int
    euler_range: tuple[int, int]
    nodal_or_cuspidal: bool = False


def _divisor_from_component(comp) -> KodairaDivisor:
    """The fiber divisor of a recognized affine root component."""
    tag, weight, euler_range = _fibre_of_diagram(comp.kind, comp.rank_param)
    return KodairaDivisor(tag, comp.vertex_ids, comp.kernel_vector, weight, euler_range)


@functools.cache
def _fibre_of_diagram(kind: str, k: int) -> tuple[str, int, tuple[int, int]]:
    """The tag, weight and Euler range of the fibres whose dual graph is the
    affine diagram ``(kind, k)``, built once per diagram; a dual graph
    shared by two types gets their merged tag and Euler range."""
    if kind == "A1Tilde":
        tags = ("I2", "III")
    elif kind == "AffineA":
        tags = ("I3", "IV") if k == 2 else (f"I{k + 1}",)
    elif kind == "AffineD":
        tags = (f"I*{k - 4}",)
    else:
        tags = (_AFFINE_E_TAGS[k],)
    first, last = type_table(tags[0]), type_table(tags[-1])
    return "_OR_".join(tags), first.weight, (first.euler, last.euler)


def find_kodaira_divisors(
    cfg: CurveConfig, max_weight: int | None = None
) -> list[KodairaDivisor]:
    """All fiber-shaped divisors supported on induced subgraphs of ``cfg``.

    Every isotropic curve counts as a one-component fiber (a nodal or
    cuspidal curve of arithmetic genus one), whatever it meets, and is
    flagged as such.  The others are the affine subgraphs of the
    (-2)-curves: the search step hands each one over as a final state
    holding its skeleton, which names the diagram and its canonical order;
    every one is confirmed by its integer Gram matrix in that order before
    it is reported.  Results are capped at ``max_weight`` (default 30, the
    largest standard weight) and sorted by (weight, support ids), which
    fixes a deterministic order.  Raises ``ValueError`` unless
    ``max_weight`` is a positive ``int`` (:func:`~k3lat.graph.check_caps`).
    """
    cap = 30 if max_weight is None else max_weight
    check_caps(max_weight=cap)
    out = [
        KodairaDivisor("I1", (v.id,), (1,), 1, (1, 2), nodal_or_cuspidal=True)
        for v in cfg.vertices if v.square == 0
    ]
    # multi-vertex divisors live on the (-2)-curves only
    roots_only = cfg.induced([v.id for v in cfg.vertices if v.square == -2])
    # weight >= support size for every type, so size-capped enumeration
    # cannot miss a divisor under the weight cap
    step, component = _diagram_search(roots_only)
    size = min(cap, roots_only.n)
    found = connected_vertex_subsets(roots_only, size, step, None, _diagram_reach)
    for comp in (component(state) for _, state in found if type(state) is Final):
        if comp is not None and (div := _divisor_from_component(comp)).weight <= cap:
            out.append(div)
    out.sort(key=lambda dv: (dv.weight, tuple(sorted(dv.support))))
    return out


def divisor_degree(div: KodairaDivisor, cfg: CurveConfig) -> int:
    """Polarization degree of the divisor: sum of multiplicity times curve
    degree over the support."""
    return sum(
        m * cfg.vertex(vid).degree for vid, m in zip(div.support, div.multiplicities)
    )


def exclusion_6d(cfg: CurveConfig, d: int, h: int) -> list[Violation]:
    """Low-degree fiber divisors are impossible on a hyperbolic
    configuration.

    For ``h > 42 d^2`` a fiber-shaped divisor of degree at most ``6d``
    would force every curve of the configuration into its fibration,
    making the span parabolic.  On a hyperbolic input this reports every
    such divisor, and every curve meeting one positively.  Non-hyperbolic
    input yields no violations (the statement does not apply).
    """
    check_caps(cfg, d=d, h=h)
    if h <= 42 * d * d:
        raise ValueError(f"h = {h} must exceed 42 d^2 = {42 * d * d}")
    if classify(cfg).kind is not SpanKind.HYPERBOLIC:
        return []
    out: list[Violation] = []
    for div in find_kodaira_divisors(cfg, max_weight=6 * d):
        deg = divisor_degree(div, cfg)
        if deg > 6 * d:
            continue
        out.append(
            Violation(
                "kodaira-low-degree",
                div.support,
                f"divisor of type {div.tag} has degree {deg} <= 6d = {6 * d}; "
                "a hyperbolic configuration cannot support it",
            )
        )
        support = set(div.support)
        for v in cfg.vertices:
            if v.id in support:
                continue
            pairs = zip(div.support, div.multiplicities)
            pairing = sum(m * cfg.edge_mult(v.id, sid) for sid, m in pairs)
            if pairing > 0:
                out.append(
                    Violation(
                        "meets-low-degree-divisor",
                        (v.id,) + div.support,
                        f"curve {v.id} meets the degree-{deg} divisor of type "
                        f"{div.tag} with pairing {pairing}; a low-degree fiber "
                        "class pairs to zero with every curve",
                    )
                )
    return out
