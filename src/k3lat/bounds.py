"""Degree bounds and exclusion certificates for hyperbolic configurations.

A configuration of curves with prescribed degrees determines, when the
linear system is solvable, a distinguished rational class pairing to the
degree with every curve; its square bounds twice the polarization degree
of any surface carrying the configuration.  When only a cap ``d`` on the
degrees is known, the square is in turn bounded by maximizing the inverse
Gram form over the degree box ``[0, d]^n``.  Two certified relaxations are
used:

* the positive-entry sum of the inverse Gram matrix times ``d^2``;
* the full entry sum times ``d^2``, certified optimal over the box by an
  explicit split of the inverse into an entrywise-nonnegative part plus a
  negative semi-definite part annihilating ``(1, ..., 1)``.

For the split we use a rank-one projector: with ``rho`` the row-sum vector
of the inverse ``W`` and ``S`` its total sum, ``W - rho rho^T / S`` is
negative semi-definite whenever ``S > 0`` and ``W`` (like the Gram matrix
it inverts) has signature ``(1, n-1)``, because such a form is negative
definite on the orthogonal complement of any positive vector (reverse
Cauchy-Schwarz: ``(x.Wx) S <= (x.rho)^2``).  The split exists exactly when
additionally ``rho >= 0`` entrywise.

Certificates are built and checked in integers.  Every inverse outside
the sweep comes from one builder, :func:`_support`: one fraction-free
(Bareiss) elimination of the integer Gram matrix ``G`` gives its
determinant and adjugate, so ``W = adj / det``, and its inertia from the
nested principal minors (Jacobi's rule; a congruence takes over in the
rare case where the elimination must leave the diagonal).  A split
``W = g0 + g+`` is held in integers over one denominator ``delta > 0``
(:class:`BoxWitness`), built from the adjugate and its row sums, and is
accepted when: ``G (delta W) = delta I``; ``delta g+ >= 0`` and
``(delta g0) 1 = 0``; and, unless ``g0 = 0``, ``S (delta g+) = rho rho^T``
for ``rho = (delta W) 1`` and ``S = sum(rho) > 0``, and ``G`` has inertia
``(1, k-1)``.  The last two make ``g0`` negative semi-definite by the
argument above, so ``g0`` itself is never eliminated.  Every emitted
witness passes this check, and :func:`verify_certificate` repeats it from
the configuration alone, sharing no elimination with the builder and
building no adjugate: the product check proves the witness the exact
inverse, so the bound is read off it, and the inertia comes from one
congruence of ``G``.  A rough certificate carries no witness, so its
check still rebuilds the adjugate by :func:`_support`.

The exclusion sweep runs in exact integers too.  It visits connected
subconfigurations once each, as bitmasks, through
:func:`~k3lat.graph.connected_vertex_subsets`.  Its step borders the
parent that grew the subset, or if that is degenerate the first
nondegenerate connected parent: the determinant and the adjugate of its
Gram matrix follow in ``O(k^2)`` by a fraction-free (Bareiss-Sylvester)
update, and its inertia by the sign of one Schur complement (Haynsworth
additivity).  The subsets of one level whose Gram matrices agree in their
stored orders, as across the fibres of a fibration, share one computed
state (:func:`_adjugate_sweep`).  A subconfiguration whose connected
parents are all degenerate takes one Bareiss elimination, and with a
record it is the only subset whose index tuple is built.  Every state
carries the row sums of its adjugate, which a bordered one updates in
``O(k)`` from its parent's.  One rule, :func:`_box_total`, reads the box
bound off them wherever its split applies.  Where it fails, the rough
sign sum is at least the sum of the row sums of its sign, so it is taken
only when that is below the least bound so far; else the subset is no
record.  A subconfiguration at the last level has no children, so its
entry keeps no adjugate; it builds one only for a sign sum.

A verdict scans only the sweep's records (:func:`sweep_records`), pulled
lazily, so one sweep serves every ``(d, h)``.  Only the certificate that
is returned is built, from its support's own Gram matrix by
:func:`_support`; its witness is checked and its bound held to the one the
sweep found.

The builders share their work through a span (:class:`_Span`), the one
owner of each piece of one configuration's lattice data, each computed at
most once: its integer Gram matrix, which it classifies and sweeps, the
:func:`_support` of each index tuple, and the certificate of each support
and cap, box or rough by one rule.  A public builder makes a span per
call, so nothing outlives it; ``catalog verify`` makes one per entry, so
that its entry sum, bound checks and exclusions share one elimination and
their equal certificates one build.  :func:`verify_certificate` takes no
span: it stays the independent check.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import tee
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import _congruence, bareiss, minor_signature, SingularMatrixError
from .graph import (
    CurveConfig,
    LatticeClass,
    SpanKind,
    _gram_class,
    _radical_reduction,
    check_caps,
    connected_vertex_subsets,
    curve_bits,
    integer_gram,
    mask_indices,
    neighbour_masks,
)


class DegenerateLatticeError(ValueError):
    """The Gram matrix has a kernel where a nondegenerate one is required."""


class NoDecompositionFoundError(ValueError):
    """No nonnegative-plus-semidefinite split of the inverse Gram matrix."""


INTRINSIC_SQUARE = "IntrinsicSquare"
ROUGH_POSITIVE_ENTRY_SUM = "RoughPositiveEntrySum"
BOX_OPTIMUM_DECOMPOSITION = "BoxOptimumDecomposition"


class IntrinsicPolarization(NamedTuple):
    """Solution of ``C . H = d_C`` on the nondegenerate quotient.

    ``exists`` is False exactly when some radical vector pairs nontrivially
    with the degree vector, in which case no class can satisfy all the
    equations.  ``coords`` are taken in the quotient basis ``basis_ids``.
    """

    exists: bool
    coords: tuple[Fraction, ...] = ()
    square: Fraction | None = None
    basis_ids: tuple[str, ...] = ()
    note: str = ""


class BoxWitness(NamedTuple):
    """Split ``W = g0 + g+`` of the inverse Gram matrix certifying that the
    box maximum of the inverse form sits at the all-``d`` corner, held as
    ``delta g0`` and ``delta g+``: k x k tuples of int rows over the int
    ``delta > 0``, built in lowest terms so that equal splits compare
    equal."""

    delta: int
    negative_part: tuple[tuple[int, ...], ...]
    nonnegative_part: tuple[tuple[int, ...], ...]


class BoundCertificate(NamedTuple):
    """An exact upper bound for twice the polarization degree, with enough
    provenance to re-verify it from scratch."""

    kind: str
    bound_on_2h: Fraction
    support_ids: tuple[str, ...]
    d: int
    witness: BoxWitness | IntrinsicPolarization | None = None
    note: str = ""


class ExclusionStatus(enum.Enum):
    ELLIPTIC_ADMISSIBLE = "EllipticAdmissible"
    ELLIPTIC_EXCLUDED = "EllipticExcluded"
    PARABOLIC_FIBRATION = "ParabolicFibration"
    HYPERBOLIC_EXCLUDED = "HyperbolicExcluded"
    HYPERBOLIC_UNDECIDED = "HyperbolicUndecided"
    INVALID_EXCLUDED = "InvalidExcluded"


class ExclusionVerdict(NamedTuple):
    status: ExclusionStatus
    certificates: tuple[BoundCertificate, ...] = ()
    notes: tuple[str, ...] = ()


class AdmissibleHRange(NamedTuple):
    """Largest polarization half-degree compatible with a configuration;
    ``h_max`` is None when every degree is admissible."""

    h_max: int | None
    note: str = ""


def intrinsic_polarization(cfg: CurveConfig) -> IntrinsicPolarization:
    """Solve for the class pairing to ``d_C`` with every curve.

    Works on the quotient by the radical.  The system is solvable iff the
    degree vector vanishes on the radical; nonexistence is data, not an
    error.  The class is ``adj d_B / det`` on the quotient basis ``B``, from
    :func:`_support` on ``B``.
    """
    g, _, _, basis = _radical_reduction(cfg)
    if not basis:
        return IntrinsicPolarization(
            False, note="the whole span is isotropic but degrees are positive"
        )
    degrees = cfg.degrees()
    d_b = [degrees[j] for j in basis]
    # the quotient is nondegenerate
    basis_ids, _, (det, adj, *_) = _support(cfg, basis)
    num = [sum(map(mul, row, d_b)) for row in adj]
    # the basis curves pair to their degrees by construction, and the
    # others all do iff the degree functional kills the radical
    for i, v in enumerate(cfg.vertices):
        pairing = sum(g[i][j] * x for j, x in zip(basis, num))
        if pairing != degrees[i] * det:
            return IntrinsicPolarization(
                False,
                note=(
                    f"overdetermined: curve {v.id} would need pairing "
                    f"{degrees[i]} but gets {Fraction(pairing, det)}"
                ),
            )
    return IntrinsicPolarization(
        True,
        coords=tuple(Fraction(x, det) for x in num),
        square=Fraction(sum(map(mul, num, d_b)), det),
        basis_ids=basis_ids,
    )


class _Adjugate(NamedTuple):
    """Integer data of one nondegenerate Gram matrix.

    ``det`` and ``adj`` are the determinant and adjugate of the Gram matrix
    in some order of its curves, so that its inverse is ``adj / det``,
    ``n_plus`` its positive inertia and ``sums`` the row sums of ``adj``,
    set once when the entry is made.  A sweep entry (:func:`_adjugate_sweep`)
    has its class ``cls`` and the ``total`` of :func:`_hyperbolic_total`
    (None for no record, which stays true as the least bound falls); one
    bordered at the sweep's cap, with no children, keeps no adjugate or
    class.
    """

    det: int
    adj: list[list[int]] | None
    n_plus: int
    sums: list[int]
    cls: int | None = 0
    total: int | None = None


def _adjugate(g: list[list[int]]) -> _Adjugate | None:
    """The entry of the Gram matrix ``g`` from one Bareiss elimination, or
    None when it is degenerate.  The inertia comes from the nested minors
    by Jacobi's rule, or from a congruence when the elimination had to
    leave the diagonal."""
    try:
        det, adj, minors = bareiss(g)
    except SingularMatrixError:
        return None
    if minors is None:
        n_plus = _congruence(g)[0].n_plus
    else:
        n_plus = minor_signature(minors).n_plus
    return _Adjugate(det, adj, n_plus, [sum(row) for row in adj])


def _support(cfg: CurveConfig, idx: Sequence[int]) -> tuple[tuple[str, ...], list, _Adjugate]:
    """The ids, integer Gram matrix and :func:`_adjugate` entry of the curves
    at ``idx``, from k3lat's one inversion; a degenerate support is an error."""
    g = integer_gram(cfg, idx)
    entry = _adjugate(g)
    if entry is None:
        raise DegenerateLatticeError(
            "configuration Gram matrix is degenerate; bounds need the nondegenerate quotient"
        )
    return tuple(cfg.vertices[i].id for i in idx), g, entry


class _Span:
    """The lattice data of one configuration, each piece computed at most
    once: its integer Gram matrix ``gram``, which the span classifies
    (``cls``) and sweeps, the :func:`_support` of each index tuple, and the
    :meth:`certificate` of each support and cap, which also holds the one
    rule that picks the box or the rough bound.  A span lives as long as
    the call that made it; each public builder makes its own, and
    :func:`verify_certificate` takes none."""

    def __init__(self, cfg: CurveConfig):
        self.cfg = cfg
        self.whole = tuple(range(cfg.n))
        self.support = cache(partial(_support, cfg))
        self._certificates: dict = {}

    @cached_property
    def gram(self) -> list[list[int]]:
        return integer_gram(self.cfg, self.whole)

    @cached_property
    def cls(self) -> LatticeClass:
        return _gram_class(self.gram)

    def certificate(self, idx: tuple[int, ...], d: int) -> BoundCertificate:
        """The certificate of the support ``idx`` at the cap ``d``: box, with
        its witness checked, when the support has inertia ``(1, k - 1)`` and
        :func:`_box_total` lets the split apply, else rough."""
        cert = self._certificates.get((idx, d))
        if cert is None:
            ids, g, entry = self.support(idx)
            if entry.n_plus == 1 and _box_total(entry.det, entry.sums):
                cert = _box_certificate(ids, g, entry, d)
            else:
                cert = _rough_certificate(ids, entry, d)
            self._certificates[idx, d] = cert
        return cert

    def rough_bound(self, d: int) -> BoundCertificate:
        """:func:`rough_bound` on the span."""
        ids, _, entry = _inverse_gram(self, d)
        return _rough_certificate(ids, entry, d)

    def bound(self, d: int) -> BoundCertificate:
        """The :meth:`certificate` of the whole configuration, checked as
        :meth:`rough_bound` is: the bound of ``k3lat bound --method auto``."""
        _inverse_gram(self, d)
        return self.certificate(self.whole, d)

    def box_certificate(self, d: int) -> BoundCertificate:
        """:func:`box_certificate` on the span."""
        cert = self.bound(d)
        if cert.kind != BOX_OPTIMUM_DECOMPOSITION:
            raise NoDecompositionFoundError(
                "the Gram matrix is not of inertia (1, k - 1)"
                if self.support(self.whole)[2].n_plus != 1
                else "inverse Gram matrix has a negative row sum; the rank-one "
                "split cannot certify the box optimum"
            )
        return cert

    def exclude_all(self, cases: Iterable[tuple[int, int]], subgraph_cap: int = 13,
                    use_pinned_degrees: bool = False) -> list[ExclusionVerdict]:
        """:func:`exclude_all` on the span."""
        cfg = self.cfg
        cases = list(cases)
        if type(use_pinned_degrees) is not bool:
            raise ValueError(f"use_pinned_degrees must be a bool, got {use_pinned_degrees!r}")
        for d, h in cases:
            check_caps(cfg, d=d, h=h, subgraph_cap=subgraph_cap)
        if not cases:
            return []
        cls = self.cls
        if cls.kind is not SpanKind.HYPERBOLIC:
            return [_span_verdict(cfg, cls.kind)] * len(cases)
        ip = intrinsic_polarization(cfg) if use_pinned_degrees else None
        # a subset of more curves than the rank is degenerate
        sweep = _records(cfg, self.gram, min(subgraph_cap, cfg.n - cls.signature.n_zero))
        return [
            _hyperbolic_verdict(self, d, h, subgraph_cap, ip, records)
            for (d, h), records in zip(cases, tee(sweep, len(cases)))
        ]


def _inverse_gram(span: _Span, d: int) -> tuple[tuple[str, ...], list, _Adjugate]:
    """The support of the whole configuration of ``span``, capped by ``d``
    and not negative definite."""
    check_caps(span.cfg, d=d)
    ids, g, entry = span.support(span.whole)
    if entry.n_plus == 0:
        raise ValueError(
            "configuration Gram matrix is negative definite; its inverse form bounds nothing"
        )
    return ids, g, entry


def _rough_total(det: int, adj: list[list[int]]) -> int:
    """``|det|`` times the rough bound at ``d = 1`` of the inverse
    ``adj / det``: the sum of its positive entries."""
    return abs(sum(x for row in adj for x in row if x * det > 0))


def _rough_certificate(
    ids: tuple[str, ...], entry: _Adjugate, d: int
) -> BoundCertificate:
    total = _rough_total(entry.det, entry.adj)
    return BoundCertificate(
        ROUGH_POSITIVE_ENTRY_SUM, Fraction(total * d * d, abs(entry.det)), ids, d
    )


def _box_certificate(
    ids: tuple[str, ...], g: list[list[int]], entry: _Adjugate, d: int
) -> BoundCertificate:
    """The box certificate from the inverse ``adj / det``, for which
    :func:`_box_total` is nonzero: ``g0 = 0`` when the inverse has no
    negative entry, so ``delta g+ = adj`` over ``delta = det``; else, with
    ``r`` the row sums of ``adj`` and ``total`` their sum,
    ``delta g+ = r r^T`` and ``delta g0 = total adj - r r^T`` over
    ``delta = det total``.  The witness keeps them in lowest terms."""
    det, adj, r = entry.det, entry.adj, entry.sums
    total = sum(r)
    if all(x * det >= 0 for row in adj for x in row):
        delta, g0, gplus = det, [[0] * len(adj) for _ in adj], adj
    else:
        delta = det * total
        gplus = [[ri * rj for rj in r] for ri in r]
        g0 = [
            [x * total - ri * rj for x, rj in zip(row, r)]
            for row, ri in zip(adj, r)
        ]
    c = math.gcd(delta, *(x for part in (g0, gplus) for row in part for x in row))
    c = c if delta > 0 else -c
    wit = BoxWitness(
        delta // c,
        *(tuple(tuple(x // c for x in row) for row in part) for part in (g0, gplus)),
    )
    fault = _witness_fault(g, wit, entry.n_plus)
    if fault is not None:
        raise AssertionError(f"box witness fails its check: {fault}")
    bound = Fraction(total * d * d, det)
    return BoundCertificate(BOX_OPTIMUM_DECOMPOSITION, bound, ids, d, witness=wit)


def rough_bound(cfg: CurveConfig, d: int) -> BoundCertificate:
    """Positive-entry sum of the inverse Gram matrix times ``d^2``.

    Valid because degrees are nonnegative and capped by ``d``, so each
    positive inverse entry contributes at most ``d^2`` to the square of the
    solution class.  A curve of degree above ``d`` is a ValueError, and so
    is a negative definite configuration, whose inverse form bounds nothing.
    """
    return _Span(cfg).rough_bound(d)


def box_certificate(cfg: CurveConfig, d: int) -> BoundCertificate:
    """Entry sum of the inverse Gram matrix times ``d^2``, certified to be
    the maximum of the inverse form over the degree box.

    Raises :class:`NoDecompositionFoundError` when the rank-one split does
    not apply (the Gram matrix is not of inertia ``(1, k - 1)``, some row
    sum of the inverse is negative, or the total sum is not positive);
    callers fall back to :func:`rough_bound`.  A curve of degree above
    ``d`` and a negative definite configuration are ValueErrors, as for
    :func:`rough_bound`.
    """
    return _Span(cfg).box_certificate(d)


def _witness_fault(g: list[list[int]], wit: BoxWitness, n_plus: int) -> str | None:
    """Why the box witness ``wit`` fails to certify the box optimum of the
    inverse ``W`` of the integer Gram matrix ``g`` of positive inertia
    ``n_plus``, or None when it holds.

    ``delta`` must be a positive int (a bool is not) and both parts k x k
    tuples of rows of ints.  Then it checks the integers as they are:
    ``g (delta W) = delta I``; ``delta g+ >= 0`` entrywise and
    ``(delta g0) 1 = 0``; and, unless ``g0 = 0``, the rank-one split
    ``S (delta g+) = rho rho^T`` with ``rho = (delta W) 1`` and
    ``S = sum(rho) > 0``, and the inertia ``(1, k - 1)`` of ``g``, which
    together make ``g0`` negative semi-definite (module docstring).
    """
    k, delta = len(g), wit.delta
    n0, npl = parts = wit.negative_part, wit.nonnegative_part
    if type(delta) is not int or delta < 1 or not all(
        isinstance(p, tuple) and len(p) == k and all(
            isinstance(r, tuple) and len(r) == k and set(map(type, r)) <= {int}
            for r in p
        )
        for p in parts
    ):
        return "the witness is not two k x k tuples of int rows over a positive int"
    w = [list(map(add, r0, rp)) for r0, rp in zip(n0, npl)]
    for i, row in enumerate(g):
        # row i of g (delta W): the rows of delta W that row i picks, summed
        acc = [0] * k
        for x, wl in zip(row, w):
            if x:
                acc = [a + x * b for a, b in zip(acc, wl)]
        acc[i] -= delta
        if any(acc):
            return "W is not the inverse of the Gram matrix"
    if any(x < 0 for row in npl for x in row):
        return "the nonnegative part has a negative entry"
    if any(sum(row) for row in n0):
        return "(1, ..., 1) is not in the kernel of the negative part"
    if any(any(row) for row in n0):
        rho = [sum(row) for row in w]
        total = sum(rho)
        if total <= 0 or any(
            total * x != ri * rj
            for ri, row in zip(rho, npl)
            for rj, x in zip(rho, row)
        ):
            return "the nonnegative part is not the rank-one split"
        if n_plus != 1:
            return "the Gram matrix is not of inertia (1, k - 1)"
    return None


def verify_certificate(cert: BoundCertificate, cfg: CurveConfig) -> bool:
    """Re-verify a certificate by independent recomputation from the
    configuration it was issued for, in the order of its support.  A box
    certificate is checked against its witness with no elimination of the
    builder's: the product check of :func:`_witness_fault` proves the
    witness the exact inverse, the bound is read off it, and the inertia
    comes from one congruence (a degenerate support fails the product
    check).  A rough certificate carries no witness, so its inverse is
    rebuilt by :func:`_support`, which built it.  Total: malformed input,
    such as an object that is not a :class:`BoundCertificate`, a support
    that is not a tuple of ids, an unknown, repeated or degenerate support,
    a degree cap ``d`` that is not an int (a bool is not) of at least 1 or
    below the degree of a support curve, a bound that is not an exact
    ``Fraction``, or a box witness whose ``delta`` is not a positive int or
    whose parts are not k x k tuples of int rows (:func:`_witness_fault`),
    is rejected rather than raised.  A support with no positive direction
    bounds nothing (the polarization's positive part may lie in its
    orthogonal complement), so every certificate on it is rejected."""
    if not isinstance(cert, BoundCertificate) or not isinstance(cert.support_ids, tuple):
        return False
    d, ids = cert.d, cert.support_ids
    if type(d) is not int or d < 1 or not isinstance(cert.bound_on_2h, Fraction):
        return False
    if not all(isinstance(v, str) for v in ids) or len(set(ids)) != len(ids):
        return False
    try:
        idx = tuple(cfg.index_of(v) for v in ids)
        if any(cfg.vertices[i].degree > d for i in idx):
            return False
        if cert.kind == ROUGH_POSITIVE_ENTRY_SUM:
            entry = _support(cfg, idx)[2]
            bound = _rough_certificate(ids, entry, d).bound_on_2h
            return entry.n_plus > 0 and cert.bound_on_2h == bound
        g = integer_gram(cfg, idx)
        n_plus = _congruence(g)[0].n_plus
        if n_plus == 0:
            return False
        if cert.kind == INTRINSIC_SQUARE:
            ip = intrinsic_polarization(cfg.induced(ids))
            return ip.exists and ip.square == cert.bound_on_2h
    except (KeyError, ValueError):
        return False
    wit = cert.witness
    if cert.kind != BOX_OPTIMUM_DECOMPOSITION or not isinstance(wit, BoxWitness):
        return False
    if _witness_fault(g, wit, n_plus):
        return False
    # the witness has passed as the inverse W = g0 + g+, and g0 1 = 0, so
    # the entry sum of W is that of g+
    total = sum(map(sum, wit.nonnegative_part))
    return cert.bound_on_2h == Fraction(total * d * d, wit.delta)


# the value of a key that the sweep's level has not met yet
_UNSEEN = object()


def _border(
    parent: _Adjugate, b: tuple[tuple[int, int], ...], c: int, cls: int | None, best: list
) -> _Adjugate | None:
    """The entry of class ``cls`` of ``parent`` bordered by the column ``b``
    and the square ``c``, with no adjugate when ``cls`` is None, as at the
    sweep's cap; None when it is degenerate.

    With ``D``, ``A`` and ``r`` the determinant, adjugate and row sums of
    the parent, put ``a = A b``.  Then ``t = D c - b.a`` is the new
    determinant, Sylvester's identity makes the new adjugate that of
    :func:`_border_rows`, so its row sums are ``(t r + a sum(a)) / D - a``
    and ``D - sum(a)``, and the Schur complement ``t / D`` adds one
    positive direction iff ``t D > 0`` (Haynsworth inertia additivity).
    An entry with no adjugate builds it only for the rough sum of
    :func:`_hyperbolic_total`.
    """
    det, adj = parent.det, parent.adj
    a = [sum([row[i] * x for i, x in b]) for row in adj]
    t = det * c - sum([a[i] * x for i, x in b])
    if t == 0:
        return None
    n_plus = parent.n_plus + (t * det > 0)
    sa = sum(a)
    sums = [(t * r + ai * sa) // det - ai for r, ai in zip(parent.sums, a)]
    sums.append(det - sa)
    rows = None if cls is None else _border_rows(det, adj, a, t)
    total = _hyperbolic_total(t, n_plus, sums, best)
    if total == 0:
        total = _rough_total(t, rows or _border_rows(det, adj, a, t))
    return _Adjugate(t, rows, n_plus, sums, cls, total)


def _border_rows(det: int, adj: list[list[int]], a: list[int], t: int) -> list[list[int]]:
    """The adjugate ``[[(t A + a a^T) / D, -a], [-a^T, D]]`` of the bordered
    matrix of :func:`_border`, each division exact."""
    rows = [
        [(t * x + ai * aj) // det for x, aj in zip(row, a)] + [-ai]
        for row, ai in zip(adj, a)
    ]
    rows.append([-ai for ai in a] + [det])
    return rows


def _adjugate_sweep(cfg: CurveConfig, g: list[list[int]], cap: int, best: list):
    """Yield ``(mask, state)`` for every connected vertex subset of at most
    ``cap`` curves in canonical order (size, then index tuple); ``g`` is the
    integer Gram matrix of the whole configuration, and ``best`` the least
    bound before each subset (:func:`_may_win`).  ``state`` is None for a
    degenerate subset, else ``(order, entry)``: ``entry`` is the
    :class:`_Adjugate` that its level's table holds for the subset's class,
    and ``order`` lists the subset's curves in the order its rows follow,
    or is ``()`` for a subset of ``cap`` curves, which nothing borders.

    Each subset ``parent + {u}`` borders the parent that grew it, or if
    that one is degenerate the first nondegenerate connected parent
    (:func:`~k3lat.graph.connected_vertex_subsets`).  Its entry depends
    only on the parent's Gram matrix in its order, the column ``b`` of
    ``u`` over that order (its nonzero ``(position, multiplicity)`` pairs)
    and the square ``c`` of ``u``.  When ``u`` meets a single curve of the
    subset, that curve's bit is ``nbrs[u] & mask`` and ``b`` its one
    position in ``order``; otherwise ``b`` is read by a scan of ``order``.
    The table of one level, the only one the next borders, keeps what
    :func:`_border` computes under ``(parent class, b, c)``, and every
    subset of that class holds it.  A class is the table's size before its
    entry is stored, so subsets of one level share a class only when their
    Gram matrices in their orders are equal; shared rows are never
    mutated.  A subset whose connected parents are all degenerate takes
    one Bareiss elimination in its index order, stored under the subset to
    number its class.
    """
    states: dict = {}
    size = 0
    nbrs = neighbour_masks(cfg)
    curve_of = {bit: v for v, bit in enumerate(curve_bits(cfg.n))}

    def step(parent, u, mask):
        nonlocal size
        k = mask.bit_count()
        if k != size:
            states.clear()
            size = k
        if parent is None:
            subset = mask_indices(mask, len(g))
            entry = _adjugate([[g[i][j] for j in subset] for i in subset])
            if entry is None:
                return None
            total = _hyperbolic_total(entry.det, entry.n_plus, entry.sums, best)
            if total == 0:
                total = _rough_total(entry.det, entry.adj)
            states[subset] = entry = entry._replace(cls=len(states), total=total)
            return ((), entry) if k == cap else (subset, entry)
        order, parent = parent
        col = g[u]
        w = curve_of.get(nbrs[u] & mask)
        if w is None:
            b = tuple([(i, col[v]) for i, v in enumerate(order) if col[v]])
        else:
            b = ((order.index(w), col[w]),)
        key = parent.cls, b, col[u]
        entry = states.get(key, _UNSEEN)
        if entry is _UNSEEN:
            cls = None if k == cap else len(states)
            entry = states[key] = _border(parent, b, col[u], cls, best)
        if entry is None:
            return None
        return ((), entry) if k == cap else (order + (u,), entry)

    return connected_vertex_subsets(cfg, cap, step, ((), _Adjugate(1, [], 0, [])))


def _box_total(det: int, sums: list[int]) -> int:
    """``|det|`` times the box bound at ``d = 1`` of the inverse
    ``adj / det`` whose adjugate has the row sums ``sums``, or 0 when the
    box split does not apply and the rough bound is the one to use.

    With ``sigma`` the sign of the determinant, the inverse is
    ``sigma * adj / |det|``.  The box split applies iff ``sigma`` times the
    entry sum is positive and no ``sigma`` times a row sum is negative (an
    inverse with no negative entry passes too, its entry sum being
    positive); its bound never exceeds the rough one and wins ties.
    Otherwise the rough bound sums the entries of sign ``sigma``.
    """
    total = sum(sums)
    if det > 0:
        return total if total > 0 and min(sums) >= 0 else 0
    return -total if total < 0 and max(sums) <= 0 else 0


def _may_win(det: int, sums: list[int], best: list) -> bool:
    """Whether a rough bound over ``det`` with row sums ``sums`` can beat ``best``,
    ``[total, |det|]`` of the least bound so far (``[1, 0]`` before any): a row's
    entries of the sign of ``det`` sum to at least its row sum of that sign."""
    return abs(sum(r for r in sums if r * det > 0)) * best[1] < best[0] * abs(det)


def _hyperbolic_total(det: int, n_plus: int, sums: list[int], best: list) -> int | None:
    """``|det|`` times the box bound at ``d = 1`` of :func:`_checked_certificate`
    for an inverse over ``det`` of inertia ``(1, k - 1)`` whose adjugate has
    the row sums ``sums``, or 0 when the rough bound is the one to use and
    can beat ``best`` (:func:`_may_win`), for the caller's :func:`_rough_total`
    of the adjugate; None for any other inertia, or when it cannot."""
    if n_plus != 1:
        return None
    total = _box_total(det, sums)
    return total if total or _may_win(det, sums, best) else None


def _checked_certificate(
    span: _Span, subset: tuple[int, ...], d: int, bound: Fraction
) -> BoundCertificate:
    """The certificate of one swept subset at the cap ``d``, the span's
    :meth:`_Span.certificate`, built from the subset's own Gram matrix.  It
    must carry the bound the sweep found."""
    cert = span.certificate(subset, d)
    if cert.bound_on_2h != bound:
        raise AssertionError(
            f"sweep bound {bound} differs from the rebuilt certificate's "
            f"{cert.bound_on_2h}"
        )
    return cert


def sweep_records(
    cfg: CurveConfig, cap: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(subset, total, |det|)`` for each hyperbolic connected subset
    of at most ``cap`` curves whose bound at ``d = 1``, ``total / |det|``,
    is a new strict minimum in canonical order (size, then index tuple).

    The bound at ``d`` is ``d^2`` times it, so the first subset below
    ``2h`` is a record, and so is the first at the least bound, the last.
    The sweep goes no further than its records are pulled.  A cap that is
    not an int of at least 1 is a ValueError, raised at the call.
    """
    check_caps(cap=cap)
    return _records(cfg, integer_gram(cfg, range(cfg.n)), cap)


def _records(
    cfg: CurveConfig, g: list[list[int]], cap: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The records of :func:`sweep_records` on the integer Gram matrix ``g``
    of the whole configuration, with ``cap`` already checked."""
    best = [1, 0]
    for mask, state in _adjugate_sweep(cfg, g, cap, best):
        if state is None or (entry := state[1]).total is None:
            continue
        total, den = entry.total, abs(entry.det)
        if total * best[1] < best[0] * den:
            best[:] = total, den
            yield mask_indices(mask, len(g)), total, den


def exclude(
    cfg: CurveConfig,
    d: int,
    h: int,
    subgraph_cap: int = 13,
    use_pinned_degrees: bool = False,
) -> ExclusionVerdict:
    """Decide whether the configuration can sit on a surface of
    polarization degree ``2h`` with all curve degrees at most ``d``.

    Definite spans are admissible iff they fit the rank bound; semi-definite
    spans always fit (their counts are governed by fiber budgets, checked
    elsewhere).  For a hyperbolic span the engine sweeps connected
    subconfigurations up to ``subgraph_cap`` vertices, and no more than the
    span's rank, in canonical order (size, then vertex order) and returns
    the first certificate whose bound is strictly below ``2h``, or else the
    best one found.  Certificates
    treat the degrees as unknown up to the cap ``d``; pass
    ``use_pinned_degrees=True`` to also use the exact degree data of the
    configuration, which is sound only when those degrees are known exactly.

    This is :func:`exclude_all` on the one case ``(d, h)``.  The verdict is
    a scan of the records of :func:`sweep_records`: the first whose bound
    at ``d`` is below ``2h`` excludes, and otherwise the last, the least
    bound of the sweep, is the undecided certificate unless the pinned
    square is no larger.  The records are pulled lazily, so an exclusion
    ends the sweep at its subset.  Only the certificate returned is built
    (:func:`_checked_certificate`).
    """
    return exclude_all(cfg, [(d, h)], subgraph_cap, use_pinned_degrees)[0]


def exclude_all(
    cfg: CurveConfig,
    cases: Iterable[tuple[int, int]],
    subgraph_cap: int = 13,
    use_pinned_degrees: bool = False,
) -> list[ExclusionVerdict]:
    """The verdict of :func:`exclude` for each ``(d, h)`` of ``cases``, in
    order, from one classification and at most one sweep.

    The call reads all of this off one :class:`_Span` of its own, so
    nothing is kept once it returns.  The cases share the records of
    :func:`sweep_records`, swept on the Gram matrix that the span
    classified, through :func:`itertools.tee`: each replays those already
    pulled before it pulls more, so the sweep runs only as far as the case
    that needs it furthest.  Cases that end at the same record share the
    span's one certificate of that support and cap, so they return equal
    ones.
    """
    return _Span(cfg).exclude_all(cases, subgraph_cap, use_pinned_degrees)


def _span_verdict(cfg: CurveConfig, kind: SpanKind) -> ExclusionVerdict:
    """The verdict on a span that is not hyperbolic, which needs no sweep."""
    if kind is SpanKind.ELLIPTIC:
        if cfg.n <= 21:
            return ExclusionVerdict(
                ExclusionStatus.ELLIPTIC_ADMISSIBLE,
                notes=(
                    f"negative definite with {cfg.n} <= 21 curves; "
                    "admissible for every degree",
                ),
            )
        return ExclusionVerdict(
            ExclusionStatus.ELLIPTIC_EXCLUDED,
            notes=(
                f"negative definite of rank {cfg.n} > 21 cannot embed in "
                "the Picard lattice of any such surface",
            ),
        )
    if kind is SpanKind.PARABOLIC:
        return ExclusionVerdict(
            ExclusionStatus.PARABOLIC_FIBRATION,
            notes=(
                "negative semi-definite: the curves are fiber components of "
                "a genus-one fibration; counts are bounded by the fiber "
                "budget, independently of the degree",
            ),
        )
    return ExclusionVerdict(
        ExclusionStatus.INVALID_EXCLUDED,
        notes=(
            "two independent positive directions violate the Hodge "
            "index theorem on any surface",
        ),
    )


def _hyperbolic_verdict(
    span: _Span, d: int, h: int, subgraph_cap: int, ip: IntrinsicPolarization | None,
    records: Iterator[tuple[tuple[int, ...], int, int]],
) -> ExclusionVerdict:
    """The verdict of one case on the hyperbolic ``span`` from the
    pinned-degree solution ``ip`` (None unless pinned) and a scan of the
    sweep's ``records``, pulled only up to the first below ``2h``; its
    certificate is :func:`_checked_certificate`."""
    two_h = Fraction(2 * h)
    notes: list[str] = []
    best: BoundCertificate | None = None
    if ip is not None and ip.exists:
        best = BoundCertificate(
            INTRINSIC_SQUARE, ip.square, span.cfg.ids(), d, witness=ip,
            note="square of the class solving C.H = d_C exactly",
        )
        if best.bound_on_2h < two_h:
            notes.append(f"2h = {two_h} exceeds the pinned-degree bound")
            return ExclusionVerdict(ExclusionStatus.HYPERBOLIC_EXCLUDED, (best,), tuple(notes))
    elif ip is not None:
        notes.append(f"pinned degrees admit no solution: {ip.note}")
    bound = None
    for subset, total, den in records:
        bound = Fraction(total * d * d, den)
        if bound < two_h:
            cert = _checked_certificate(span, subset, d, bound)
            notes.append(f"2h = {two_h} exceeds bound {cert.bound_on_2h}")
            return ExclusionVerdict(ExclusionStatus.HYPERBOLIC_EXCLUDED, (cert,), tuple(notes))
    # the last record holds the least bound
    if bound is not None and (best is None or bound < best.bound_on_2h):
        best = _checked_certificate(span, subset, d, bound)
    notes.append(f"no certificate below 2h = {two_h} on subgraphs up to {subgraph_cap} vertices")
    return ExclusionVerdict(
        ExclusionStatus.HYPERBOLIC_UNDECIDED, () if best is None else (best,), tuple(notes)
    )


def admissible_h_range(cfg: CurveConfig) -> AdmissibleHRange:
    """Upper bound for the half-degree ``h`` over all surfaces carrying the
    configuration with its pinned degrees; None means unbounded, and 0
    that no ``h >= 1`` is admissible."""
    return _h_range(_Span(cfg).cls, intrinsic_polarization(cfg))


def _h_range(cls: LatticeClass, ip: IntrinsicPolarization) -> AdmissibleHRange:
    """:func:`admissible_h_range` of a configuration of class ``cls`` whose
    :func:`intrinsic_polarization` is ``ip``."""
    if cls.kind in (SpanKind.ELLIPTIC, SpanKind.PARABOLIC):
        return AdmissibleHRange(
            None, note=f"{cls.kind.value.lower()} span: no constraint on h"
        )
    if cls.kind is SpanKind.INVALID:
        return AdmissibleHRange(
            0, note="two positive directions: impossible on any surface"
        )
    if not ip.exists:
        return AdmissibleHRange(
            0,
            note=(
                "no class solves C.H = d_C, so no surface carries the "
                "configuration with these degrees; " + ip.note
            ),
        )
    h_max = math.floor(ip.square / 2)
    if h_max < 1:
        return AdmissibleHRange(0, note=f"2h <= {ip.square} < 2: no h >= 1 is admissible")
    return AdmissibleHRange(
        h_max, note=f"2h <= {ip.square} forces h <= {h_max}"
    )
