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
negative semi-definite whenever ``S > 0``, because a form of signature
``(1, n-1)`` is negative definite on the orthogonal complement of any
positive vector.  The split exists exactly when additionally ``rho >= 0``
entrywise, and every emitted witness is re-verified exactly.

The exclusion sweep runs in exact integers.  It visits connected
subconfigurations level by level, and each one borders a nondegenerate
parent one curve smaller: the determinant and the adjugate of its Gram
matrix follow in ``O(k^2)`` by a fraction-free (Bareiss-Sylvester) update,
and its inertia by the sign of one Schur complement (Haynsworth
additivity).  Both bounds are read off the adjugate's entry, row and sign
sums; only the certificate that is returned is rebuilt from scratch, with
its witness built and checked.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact import (
    SymMatrix,
    _congruence,
    inverse,
    outer_rank_one,
    signature,
    SingularMatrixError,
)
from .graph import (
    CurveConfig,
    SpanKind,
    classify,
    gram,
    quotient_by_kernel,
)


class DegenerateLatticeError(ValueError):
    """The Gram matrix has a kernel where a nondegenerate one is required."""


class NoDecompositionFoundError(ValueError):
    """No nonnegative-plus-semidefinite split of the inverse Gram matrix."""


INTRINSIC_SQUARE = "IntrinsicSquare"
ROUGH_POSITIVE_ENTRY_SUM = "RoughPositiveEntrySum"
BOX_OPTIMUM_DECOMPOSITION = "BoxOptimumDecomposition"


@dataclass(frozen=True)
class IntrinsicPolarization:
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


@dataclass(frozen=True)
class BoxWitness:
    """Split ``inverse = negative_part + nonnegative_part`` certifying that
    the box maximum of the inverse form sits at the all-``d`` corner."""

    negative_part: SymMatrix
    nonnegative_part: SymMatrix
    x_max: tuple[Fraction, ...]


@dataclass(frozen=True)
class BoundCertificate:
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


@dataclass(frozen=True)
class ExclusionVerdict:
    status: ExclusionStatus
    certificates: tuple[BoundCertificate, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class AdmissibleHRange:
    """Largest polarization half-degree compatible with a configuration;
    ``h_max`` is None when every degree is admissible."""

    h_max: int | None
    note: str = ""


def intrinsic_polarization(cfg: CurveConfig) -> IntrinsicPolarization:
    """Solve for the class pairing to ``d_C`` with every curve.

    Works on the quotient by the radical.  The system is solvable iff the
    degree vector vanishes on the radical; nonexistence is data, not an
    error.
    """
    quotient, proj = quotient_by_kernel(cfg)
    degrees = [Fraction(v.degree) for v in cfg.vertices]
    # solvability: the degree functional must kill the radical, i.e. it must
    # be expressible through the quotient basis
    basis_pos = [cfg.index_of(b) for b in proj.basis_ids]
    rhs = tuple(degrees[j] for j in basis_pos)
    if quotient.n == 0:
        return IntrinsicPolarization(
            False, note="the whole span is isotropic but degrees are positive"
        )
    coords = inverse(quotient).apply(rhs)  # the quotient is nondegenerate
    # consistency on the remaining vertices detects a radical obstruction
    full = gram(cfg)
    basis_set = set(basis_pos)
    for i, v in enumerate(cfg.vertices):
        if i in basis_set:
            continue
        row = full.rows()[i]
        pairing = sum(
            (row[j] * c for j, c in zip(basis_pos, coords)), Fraction(0)
        )
        if pairing != degrees[i]:
            return IntrinsicPolarization(
                False,
                note=(
                    f"overdetermined: curve {v.id} would need pairing "
                    f"{degrees[i]} but gets {pairing}"
                ),
            )
    square = sum((c * r for c, r in zip(coords, rhs)), Fraction(0))
    return IntrinsicPolarization(
        True, coords=tuple(coords), square=square, basis_ids=proj.basis_ids
    )


def _inverse_gram(cfg: CurveConfig) -> SymMatrix:
    g = gram(cfg)
    try:
        return inverse(g)
    except SingularMatrixError:
        raise DegenerateLatticeError(
            "configuration Gram matrix is degenerate; bounds need the "
            "nondegenerate quotient"
        )


def rough_bound(cfg: CurveConfig, d: int) -> BoundCertificate:
    """Positive-entry sum of the inverse Gram matrix times ``d^2``.

    Valid because degrees are nonnegative and capped by ``d``, so each
    positive inverse entry contributes at most ``d^2`` to the square of the
    solution class.
    """
    if d < 1:
        raise ValueError("d must be positive")
    w = _inverse_gram(cfg)
    bound = w.positive_entry_sum() * d * d
    return BoundCertificate(
        ROUGH_POSITIVE_ENTRY_SUM, bound, cfg.ids(), d
    )


def box_certificate(cfg: CurveConfig, d: int) -> BoundCertificate:
    """Entry sum of the inverse Gram matrix times ``d^2``, certified to be
    the maximum of the inverse form over the degree box.

    Raises :class:`NoDecompositionFoundError` when the rank-one split does
    not apply (some row sum of the inverse is negative, or the total sum is
    not positive); callers fall back to :func:`rough_bound`.
    """
    if d < 1:
        raise ValueError("d must be positive")
    w = _inverse_gram(cfg)
    n = w.n
    ones = (Fraction(1),) * n
    x_max = (Fraction(d),) * n
    if w.min_entry() >= 0:
        g0 = SymMatrix.zero(n)
        gplus = w
    else:
        rho = w.row_sums()
        total = sum(rho, Fraction(0))
        if total <= 0 or any(r < 0 for r in rho):
            raise NoDecompositionFoundError(
                "inverse Gram matrix has a negative row sum; the rank-one "
                "split cannot certify the box optimum"
            )
        gplus = outer_rank_one(rho, Fraction(1) / total)
        g0 = w - gplus
    _check_box_witness(w, g0, gplus, ones)
    bound = w.entry_sum() * d * d
    return BoundCertificate(
        BOX_OPTIMUM_DECOMPOSITION,
        bound,
        cfg.ids(),
        d,
        witness=BoxWitness(g0, gplus, x_max),
    )


def _check_box_witness(
    w: SymMatrix, g0: SymMatrix, gplus: SymMatrix, ones: tuple[Fraction, ...]
) -> None:
    if g0 + gplus != w:
        raise AssertionError("witness does not sum to the inverse")
    if gplus.min_entry() < 0:
        raise AssertionError("nonnegative part has a negative entry")
    if any(x != 0 for x in g0.apply(ones)):
        raise AssertionError("all-ones vector not in the kernel of the split")
    if signature(g0).n_plus != 0:
        raise AssertionError("split part is not negative semi-definite")


def verify_certificate(cert: BoundCertificate, cfg: CurveConfig) -> bool:
    """Re-verify a certificate by independent recomputation from the
    configuration it was issued for.  Total: malformed input, such as an
    unknown or degenerate support, is rejected rather than raised."""
    try:
        sub = cfg.induced(cert.support_ids)
        if cert.kind == INTRINSIC_SQUARE:
            ip = intrinsic_polarization(sub)
            return ip.exists and ip.square == cert.bound_on_2h
        w = inverse(gram(sub))
    except (ValueError, SingularMatrixError):
        return False
    d = cert.d
    if cert.kind == ROUGH_POSITIVE_ENTRY_SUM:
        return cert.bound_on_2h == w.positive_entry_sum() * d * d
    if cert.kind == BOX_OPTIMUM_DECOMPOSITION:
        wit = cert.witness
        if not isinstance(wit, BoxWitness):
            return False
        ones = (Fraction(1),) * w.n
        try:
            _check_box_witness(w, wit.negative_part, wit.nonnegative_part, ones)
        except (AssertionError, ValueError):
            return False
        if wit.x_max != (Fraction(d),) * w.n:
            return False
        return cert.bound_on_2h == w.quadratic_form(wit.x_max)
    return False


def _subgraph_certificates(
    sub: CurveConfig, d: int
) -> list[BoundCertificate]:
    """Box and rough certificates for one nondegenerate hyperbolic
    subconfiguration, cheapest bound first."""
    certs = []
    try:
        certs.append(box_certificate(sub, d))
    except NoDecompositionFoundError:
        pass
    certs.append(rough_bound(sub, d))
    certs.sort(key=lambda c: c.bound_on_2h)
    return certs


class _Adjugate(NamedTuple):
    """Integer data of one nondegenerate subset in the exclusion sweep.

    ``order`` lists its vertex indices in the order that the rows of
    ``adj`` follow; ``det`` and ``adj`` are the determinant and adjugate of
    its Gram matrix in that order, and ``n_plus`` its positive inertia.
    """

    order: tuple[int, ...]
    det: int
    adj: list[list[int]]
    n_plus: int


# the empty subset, which every singleton borders
_EMPTY = _Adjugate((), 1, [], 0)


def _bordered(
    parent: _Adjugate, u: int, g: list[list[int]]
) -> _Adjugate | None:
    """The entry of ``parent + {u}``, or None when it is degenerate.

    With ``D``, ``A`` the determinant and adjugate of the parent and ``b``,
    ``c`` the column and diagonal entry of ``u``, put ``a = A b``.  Then
    ``t = D c - b.a`` is the new determinant, Sylvester's identity makes
    ``[[(t A + a a^T) / D, -a], [-a^T, D]]`` the new adjugate with exact
    division, and the Schur complement ``t / D`` adds one positive
    direction iff ``t D > 0`` (Haynsworth inertia additivity).
    """
    order, det, adj, n_plus = parent
    col = g[u]
    b = [(i, col[v]) for i, v in enumerate(order) if col[v]]
    a = [sum(row[i] * x for i, x in b) for row in adj]
    t = det * col[u] - sum(a[i] * x for i, x in b)
    if t == 0:
        return None
    rows = [
        [(t * x + ai * aj) // det for x, aj in zip(row, a)] + [-ai]
        for row, ai in zip(adj, a)
    ]
    rows.append([-ai for ai in a] + [det])
    return _Adjugate(order + (u,), t, rows, n_plus + (t * det > 0))


def _from_scratch(subset: tuple[int, ...], g: list[list[int]]) -> _Adjugate | None:
    """The entry of a subset whose connected parents are all degenerate.

    The congruence ``P^T m P = diag(d)`` has ``det P = +-1``, so the
    determinant is the product of the pivots.
    """
    m = SymMatrix([[g[i][j] for j in subset] for i in subset])
    d, _ = _congruence(m)
    if len(d) < m.n:
        return None
    det = math.prod(d)
    adj = [[int(det * x) for x in row] for row in inverse(m).rows()]
    return _Adjugate(subset, int(det), adj, sum(1 for x in d if x > 0))


def _adjugate_sweep(cfg: CurveConfig, cap: int):
    """Yield ``(subset, entry)`` for every connected vertex subset of at most
    ``cap`` curves in canonical order (size, then index tuple); ``entry``
    is an :class:`_Adjugate`, or None for a degenerate subset.

    Level ``k + 1`` is the set of ``S + {u}`` over ``S`` in level ``k`` and
    ``u`` a neighbour of ``S``: every connected set loses a leaf of a
    spanning tree to a connected set one smaller, so these are exactly the
    connected subsets.  Each subset borders the first nondegenerate parent
    met; one whose connected parents are all degenerate is computed from
    scratch.  A level is built only when the previous one has been consumed,
    and only two levels are held at a time.
    """
    g = [[int(x) for x in row] for row in gram(cfg).rows()]
    nbrs = [{j for j, x in enumerate(row) if x and j != i} for i, row in enumerate(g)]
    grown = {(i,): (_EMPTY, i) for i in range(cfg.n)}
    for size in range(1, cap + 1):
        level = []
        for subset, (parent, u) in sorted(grown.items()):
            if parent is None:
                entry = _from_scratch(subset, g)
            else:
                entry = _bordered(parent, u, g)
            level.append((subset, entry))
            yield subset, entry
        if size == cap:
            return
        grown = {}
        for subset, entry in level:
            for u in set().union(*(nbrs[v] for v in subset)).difference(subset):
                key = tuple(sorted(subset + (u,)))
                if key not in grown or grown[key][0] is None:
                    grown[key] = (entry, u)


def _sweep_bound(entry: _Adjugate, d: int) -> tuple[int, int]:
    """Numerator and positive denominator of the bound that
    ``_subgraph_certificates(sub, d)[0]`` carries, read off the adjugate.

    With ``sigma`` the sign of the determinant, the inverse is
    ``sigma * adj / |det|``.  The box split applies iff ``sigma`` times the
    entry sum is positive and no ``sigma`` times a row sum is negative (an
    inverse with no negative entry passes too, its entry sum being
    positive); its bound never exceeds the rough one and wins ties.
    Otherwise the rough bound sums the entries of sign ``sigma``.
    """
    sigma = 1 if entry.det > 0 else -1
    rows = [sigma * sum(row) for row in entry.adj]
    total = sum(rows)
    if total <= 0 or min(rows) < 0:
        total = sigma * sum(x for row in entry.adj for x in row if sigma * x > 0)
    return total * d * d, abs(entry.det)


def _checked_certificate(
    cfg: CurveConfig, subset: tuple[int, ...], d: int, bound: Fraction
) -> BoundCertificate:
    """Rebuild the certificate of one swept subset from scratch, box
    witness checked, and hold it to the bound the sweep found."""
    sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
    cert = _subgraph_certificates(sub, d)[0]
    if cert.bound_on_2h != bound:
        raise AssertionError(
            f"sweep bound {bound} differs from the rebuilt certificate's "
            f"{cert.bound_on_2h}"
        )
    return cert


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
    subconfigurations up to ``subgraph_cap`` vertices in canonical order
    (size, then vertex order) and returns the first certificate whose bound
    is strictly below ``2h``, or else the best one found.  Certificates
    treat the degrees as unknown up to the cap ``d``; pass
    ``use_pinned_degrees=True`` to also use the exact degree data of the
    configuration, which is sound only when those degrees are known exactly.

    The sweep keeps a bordered integer adjugate and the inertia of each
    nondegenerate subconfiguration, updated from a parent one curve smaller
    (inertia additivity), and reads each bound off it without building a
    witness.  The witness is built and checked only for the certificate
    returned, which must carry the bound the sweep found.
    """
    if d < 1 or h < 1 or subgraph_cap < 1:
        raise ValueError("d, h and subgraph_cap must be positive")
    for v in cfg.vertices:
        if v.degree > d:
            raise ValueError(f"vertex {v.id!r} has degree {v.degree} > d = {d}")
    cls = classify(cfg)
    if cls.kind is SpanKind.ELLIPTIC:
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
    if cls.kind is SpanKind.PARABOLIC:
        return ExclusionVerdict(
            ExclusionStatus.PARABOLIC_FIBRATION,
            notes=(
                "negative semi-definite: the curves are fiber components of "
                "a genus-one fibration; counts are bounded by the fiber "
                "budget, independently of the degree",
            ),
        )
    if cls.kind is SpanKind.INVALID:
        return ExclusionVerdict(
            ExclusionStatus.INVALID_EXCLUDED,
            notes=(
                "two independent positive directions violate the Hodge "
                "index theorem on any surface",
            ),
        )

    two_h = Fraction(2 * h)
    notes: list[str] = []
    best: BoundCertificate | None = None

    if use_pinned_degrees:
        ip = intrinsic_polarization(cfg)
        if ip.exists:
            cert = BoundCertificate(
                INTRINSIC_SQUARE,
                ip.square,
                cfg.ids(),
                d,
                witness=ip,
                note="square of the class solving C.H = d_C exactly",
            )
            if cert.bound_on_2h < two_h:
                return ExclusionVerdict(
                    ExclusionStatus.HYPERBOLIC_EXCLUDED,
                    certificates=(cert,),
                    notes=(f"2h = {two_h} exceeds the pinned-degree bound",),
                )
            best = cert
        else:
            notes.append(f"pinned degrees admit no solution: {ip.note}")

    best_ratio = None if best is None else best.bound_on_2h.as_integer_ratio()
    best_subset = None
    for subset, entry in _adjugate_sweep(cfg, min(subgraph_cap, cfg.n)):
        if entry is None or entry.n_plus != 1:
            continue
        num, den = _sweep_bound(entry, d)
        if num < 2 * h * den:
            cert = _checked_certificate(cfg, subset, d, Fraction(num, den))
            return ExclusionVerdict(
                ExclusionStatus.HYPERBOLIC_EXCLUDED,
                certificates=(cert,),
                notes=tuple(
                    notes + [f"2h = {two_h} exceeds bound {cert.bound_on_2h}"]
                ),
            )
        if best_ratio is None or num * best_ratio[1] < best_ratio[0] * den:
            best_ratio, best_subset = (num, den), subset
    if best_subset is not None:
        best = _checked_certificate(cfg, best_subset, d, Fraction(*best_ratio))
    return ExclusionVerdict(
        ExclusionStatus.HYPERBOLIC_UNDECIDED,
        certificates=() if best is None else (best,),
        notes=tuple(
            notes
            + [
                "no certificate below "
                + f"2h = {two_h} on subgraphs up to {subgraph_cap} vertices"
            ]
        ),
    )


def admissible_h_range(cfg: CurveConfig, d: int) -> AdmissibleHRange:
    """Upper bound for the half-degree ``h`` over all surfaces carrying the
    configuration with its pinned degrees; None means unbounded."""
    if d < 1:
        raise ValueError("d must be positive")
    cls = classify(cfg)
    if cls.kind in (SpanKind.ELLIPTIC, SpanKind.PARABOLIC):
        return AdmissibleHRange(
            None, note=f"{cls.kind.value.lower()} span: no constraint on h"
        )
    if cls.kind is SpanKind.INVALID:
        return AdmissibleHRange(
            0, note="two positive directions: impossible on any surface"
        )
    ip = intrinsic_polarization(cfg)
    if not ip.exists:
        return AdmissibleHRange(
            0,
            note=(
                "no class solves C.H = d_C, so no surface carries the "
                "configuration with these degrees; " + ip.note
            ),
        )
    h_max = math.floor(ip.square / 2)
    return AdmissibleHRange(
        h_max, note=f"2h <= {ip.square} forces h <= {h_max}"
    )
