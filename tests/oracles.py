"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against different
algorithms than the package: the characteristic polynomial comes from
exact determinant interpolation, eigenvalue sign counts from Sturm chains
(with multiplicities recovered by gcd recursion), rank from plain row
reduction, and box maxima from exhaustive enumeration.  The exceptions
are :func:`exclude_reference`, the per-subset exclusion sweep that
``bounds.exclude`` replaced, :func:`connected_subsets_reference`, the
depth-first enumeration that ``graph.connected_vertex_subsets`` replaced,
:func:`tuple_keyed_subsets_reference`, the level-wise enumerator keyed by
sorted index tuples, before bitmask keys and ESU extension sets,
:func:`recognize_component_reference`, the edge-scanning,
signature-confirmed recognition that ``roots.recognize_component``
replaced, with the shape walker along degree-two chains (:func:`_shape`)
that the package's one diagram step replaced,
:func:`verify_certificate_reference`, the Fraction inverse and dense
signature check that ``bounds.verify_certificate`` replaced,
:func:`witness_fault_reference`, the entry-by-entry product check that
``bounds._witness_fault``'s row sums replaced, and
the Fraction symmetric elimination :func:`congruence_reference` that the
fraction-free ``exact._congruence`` replaced, the congruence-based
:func:`inverse_reference`,
:func:`kernel_basis_reference` and :func:`quotient_by_kernel_reference`
that one Bareiss elimination or one row reduction replaced, the Fraction
Gauss-Jordan loop :func:`row_echelon_reference` that the fraction-free
``exact.row_echelon`` replaced, the dense integer loops
:func:`congruence_dense`, :func:`bareiss_dense` and
:func:`row_echelon_dense`, which step every row at every pivot and which
the ``exact`` loops that skip a zero multiplier replaced, the quotient,
inverse and apply path
:func:`intrinsic_polarization_reference` that one Bareiss elimination of
the quotient's integer Gram block replaced,
:func:`find_kodaira_divisors_reference`, the fibre search whose shape
step kept indefinite subsets and recognised every one it kept, and
:func:`extremal_lookup_reference`, the catalog lookup keyed on raw extremal
payloads before they were read as profiles, and :func:`rows_reference`, the
object-by-object read of an input array that ``formats.Fields.rows``
replaced; all are kept as references for differential tests.

The Fraction matrix API that the package no longer calls lives here too,
on plain rows (a rational matrix is a tuple of rows of Fractions):
:func:`gram`, :func:`submatrix`, :func:`apply` and :func:`inverse` (one
``exact.bareiss`` elimination, as ``exact.inverse`` was), with
:func:`witness_parts` and :func:`integer_witness` between a box witness's
integers and its split as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from k3lat import exact
from k3lat.bounds import (
    BOX_OPTIMUM_DECOMPOSITION,
    INTRINSIC_SQUARE,
    ROUGH_POSITIVE_ENTRY_SUM,
    BoundCertificate,
    BoxWitness,
    ExclusionStatus,
    ExclusionVerdict,
    IntrinsicPolarization,
    NoDecompositionFoundError,
    box_certificate,
    exclude,
    intrinsic_polarization,
    rough_bound,
)
from k3lat.exact import (
    Signature,
    SingularMatrixError,
    _integer,
    _primitive_integer,
    signature,
)
from k3lat.graph import (
    CUT,
    CurveConfig,
    Final,
    QuotientProjection,
    SpanKind,
    classify,
    integer_gram,
)
from k3lat.kodaira import KodairaDivisor, _divisor_from_component
from k3lat.roots import _STARS, RootComponent, canonical_diagram, radical


# -- the Fraction matrix API ------------------------------------------------


def fraction_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix with these rows as a tuple of rows of Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def gram(cfg: CurveConfig) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the intersection form in vertex order."""
    return fraction_rows(integer_gram(cfg, range(cfg.n)))


def submatrix(m, indices) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(m[i][j] for j in indices) for i in indices)


def apply(m, vec) -> tuple[Fraction, ...]:
    """Matrix-vector product."""
    return tuple(sum((a * Fraction(x) for a, x in zip(row, vec)), Fraction(0)) for row in m)


def inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse ``s adj(s m) / det(s m)``, with ``s`` the lcm of the
    denominators of ``m``, from one ``exact.bareiss`` elimination; raises
    :class:`SingularMatrixError` on a degenerate input."""
    s, rows = exact._scaled(m)
    det, adj, _ = exact.bareiss(rows)
    return tuple(tuple(Fraction(s * x, det) for x in row) for row in adj)


def witness_parts(wit: BoxWitness):
    """The split ``(g0, g+)`` that a box witness holds over its ``delta``,
    as tuples of Fraction rows."""
    return tuple(
        tuple(tuple(Fraction(x, wit.delta) for x in row) for row in part)
        for part in (wit.negative_part, wit.nonnegative_part)
    )


def integer_witness(g0, gplus) -> BoxWitness:
    """The box witness of the split ``(g0, g+)`` given as rows of
    rationals, over the lcm of their denominators."""
    parts = [[[Fraction(x) for x in row] for row in part] for part in (g0, gplus)]
    delta = lcm(*(x.denominator for part in parts for row in part for x in row))
    return BoxWitness(
        delta,
        *(tuple(tuple(int(x * delta) for x in row) for row in part) for part in parts),
    )


# -- exact determinant and rank (independent row reduction) ---------------


def det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        result *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * result


def quadratic_form(m, vec) -> Fraction:
    """``v^T M v``, exactly."""
    return sum((Fraction(x) * y for x, y in zip(vec, apply(m, vec))), Fraction(0))


def min_entry(m) -> Fraction:
    """The least entry of ``m``; 0 for the empty matrix."""
    return min((x for row in m for x in row), default=Fraction(0))


def identity_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))


def matrix_sum(a, b) -> tuple[tuple[Fraction, ...], ...]:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def entry_sum(m) -> Fraction:
    return sum((x for row in m for x in row), Fraction(0))


def row_reduce_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    a = [list(map(Fraction, r)) for r in rows]
    n, m = len(a), len(a[0])
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(n):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


# -- polynomial arithmetic (coefficients low to high) ----------------------


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return poly_trim(out)


def poly_scale(p: list[Fraction], c: Fraction) -> list[Fraction]:
    return poly_trim([c * a for a in p])


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return poly_trim([Fraction(i) * c for i, c in enumerate(p)][1:])


def poly_divmod(p: list[Fraction], q: list[Fraction]):
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while len(poly_trim(rem)) >= len(q):
        rem = poly_trim(rem)
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] += factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = rem[:-1]
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def charpoly(rows: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients (low to high) of ``det(x I - M)`` via interpolation at
    ``n + 1`` integer points and Lagrange reconstruction."""
    n = len(rows)
    xs = [Fraction(k) for k in range(n + 1)]
    ys = []
    for x in xs:
        shifted = [
            [x * Fraction(i == j) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        ys.append(det(shifted))
    result: list[Fraction] = []
    for i, xi in enumerate(xs):
        term = [ys[i]]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = poly_mul(term, [-xj, Fraction(1)])
            denom *= xi - xj
        result = poly_add(result, poly_scale(term, Fraction(1) / denom))
    return poly_trim(result)


# -- Sturm chains ----------------------------------------------------------


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [poly_trim(list(p)), poly_derivative(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_scale(r, Fraction(-1)))
    return [c for c in chain if c]


def _variations(signs: list[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _sign_at(p: list[Fraction], x: Fraction) -> int:
    v = poly_eval(p, x)
    return (v > 0) - (v < 0)


def _sign_at_inf(p: list[Fraction], positive: bool) -> int:
    lead = p[-1]
    s = (lead > 0) - (lead < 0)
    if positive:
        return s
    return s if (len(p) - 1) % 2 == 0 else -s


def sturm_distinct_in_halflines(p: list[Fraction]) -> tuple[int, int]:
    """Distinct real roots of ``p`` in (0, inf) and (-inf, 0);
    requires ``p(0) != 0``."""
    chain = _sturm_chain(p)
    at_zero = _variations([_sign_at(c, Fraction(0)) for c in chain])
    at_plus = _variations([_sign_at_inf(c, True) for c in chain])
    at_minus = _variations([_sign_at_inf(c, False) for c in chain])
    return at_zero - at_plus, at_minus - at_zero


def root_sign_counts(p: list[Fraction]) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of real roots with multiplicity.

    Valid for polynomials with all roots real (characteristic polynomials
    of symmetric matrices).  Multiplicities come from the gcd recursion:
    every root of multiplicity m of p is a root of gcd(p, p') of
    multiplicity m - 1.
    """
    p = poly_trim(list(p))
    zeros = 0
    while p and p[0] == 0:
        zeros += 1
        p = p[1:]
    pos = neg = 0
    q = p
    while len(q) > 1:
        dpos, dneg = sturm_distinct_in_halflines(q)
        pos += dpos
        neg += dneg
        q = poly_gcd(q, poly_derivative(q))
    return pos, neg, zeros


def oracle_signature(rows: list[list[Fraction]]) -> tuple[int, int, int]:
    """Inertia of a symmetric matrix from the characteristic polynomial:
    Sturm root-sign counts with gcd multiplicities."""
    return root_sign_counts(charpoly(rows))


# -- the Fraction congruence and the inverse, kernel and quotient built on it --


def congruence_reference(m) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Symmetric elimination ``P^T m P = diag(d, 0, ..., 0)``.

    Returns the nonzero pivots ``d`` in elimination order and the columns
    ``p`` of ``P``; ``p[len(d):]`` span the kernel.  Step ``k`` pivots on the
    first nonzero diagonal at or after ``k``; failing that, the first nonzero
    off-diagonal ``(r, c)`` of the trailing block (row-major) is moved onto
    the diagonal by adding row and column ``c`` to ``r``.  Eliminated rows
    and columns vanish on the trailing block, so only that block is updated.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    p = [[Fraction(i == j) for i in range(n)] for j in range(n)]
    d: list[Fraction] = []
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][r] != 0), None)
        if piv is None:
            off = next(
                ((r, c) for r in range(k, n) for c in range(r + 1, n) if a[r][c] != 0),
                None,
            )
            if off is None:
                break
            piv, c = off
            for j in range(k, n):
                a[piv][j] += a[c][j]
            for i in range(k, n):
                a[i][piv] += a[i][c]
            p[piv] = [x + y for x, y in zip(p[piv], p[c])]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
            p[k], p[piv] = p[piv], p[k]
        pivot = a[k][k]
        d.append(pivot)
        row_k = a[k]
        nz_a = [j for j in range(k + 1, n) if row_k[j] != 0]
        nz_p = [(i, x) for i, x in enumerate(p[k]) if x != 0]
        for r in nz_a:
            f = row_k[r] / pivot
            row_r, p_r = a[r], p[r]
            for j in nz_a:
                row_r[j] -= f * row_k[j]
            for i, x in nz_p:
                p_r[i] -= f * x
    return d, p


def signature_and_witness_reference(m):
    """Inertia ``(n+, n-, n0)`` of ``m`` and the column of ``P`` at the
    first positive pivot of :func:`congruence_reference` (None if none)."""
    d, p = congruence_reference(m)
    n_plus = sum(1 for x in d if x > 0)
    j = next((j for j, x in enumerate(d) if x > 0), None)
    witness = None if j is None else tuple(p[j])
    return (n_plus, len(d) - n_plus, len(m) - len(d)), witness


def inverse_reference(m) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse ``P diag(d)^-1 P^T``; raises
    :class:`SingularMatrixError` on a degenerate input."""
    n = len(m)
    d, p = congruence_reference(m)
    if len(d) < n:
        raise SingularMatrixError("matrix is singular")
    w = [[Fraction(0)] * n for _ in range(n)]
    for dj, col in zip(d, p):
        nz = [(i, x) for i, x in enumerate(col) if x != 0]
        for a, (i, x) in enumerate(nz):
            s = x / dj
            w_i = w[i]
            for l, y in nz[a:]:
                w_i[l] += s * y
    for i in range(n):
        for l in range(i):
            w[i][l] = w[l][i]
    return tuple(map(tuple, w))


def row_echelon_reference(rows, cols) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduction of rational ``rows``, pivoting through
    ``cols`` in the given order on the first row at or after the next pivot
    row that is nonzero there.  Returns ``(reduced, pivots)``:
    ``reduced[i]`` is 1 at column ``pivots[i]`` and 0 at every other pivot
    column; rows left without a pivot are dropped."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in cols:
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a[: len(pivots)], pivots


# -- the dense integer loops that the sparse ones in ``exact`` replaced ---------


def congruence_dense(
    rows: Sequence[Sequence[int]], witness: bool = False
) -> tuple[Signature, tuple[Fraction, ...] | None]:
    """Inertia of the integer symmetric matrix ``m`` with these ``rows``
    from the symmetric elimination ``P^T m P = diag(d, 0, ..., 0)``, run
    fraction-free; with ``witness``, also the column ``v`` of ``P`` at the
    first positive pivot, checked to have ``v^T m v > 0`` (None when no
    pivot is positive).

    Step ``k`` pivots on the first nonzero diagonal at or after ``k``;
    failing that, the first nonzero off-diagonal ``(r, c)`` of the trailing
    block (row-major) is moved onto the diagonal by adding row and column
    ``c`` to ``r``.  Every trailing row takes Bareiss's exact step
    ``(pivot x - f y) // prev``, so the trailing block and the tracked
    columns of ``P`` are ``prev`` times those of the rational elimination,
    and ``d_k`` has the sign of ``pivot * prev``.  Columns of ``P`` are
    tracked only for a witness, and only up to the first positive pivot.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    p = [[int(i == j) for i in range(n)] for j in range(n)] if witness else None
    n_plus = n_minus = 0
    vec, prev = None, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][r]), None)
        if piv is None:
            off = next(
                ((r, c) for r in range(k, n) for c in range(r + 1, n) if a[r][c]),
                None,
            )
            if off is None:
                break
            piv, c = off
            for j in range(k, n):
                a[piv][j] += a[c][j]
            for i in range(k, n):
                a[i][piv] += a[i][c]
            if p:
                p[piv] = [x + y for x, y in zip(p[piv], p[c])]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
            if p:
                p[k], p[piv] = p[piv], p[k]
        pivot = a[k][k]
        if (pivot > 0) != (prev > 0):
            n_minus += 1
        else:
            n_plus += 1
            if p:
                q, p = p[k], None
                vec = tuple(Fraction(x, prev) for x in q)
        if p:
            p_k = p[k]
            for r in range(k + 1, n):
                f = a[r][k]
                p[r] = [(pivot * x - f * y) // prev for x, y in zip(p[r], p_k)]
        tail_k = a[k][k + 1 :]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], tail_k)]
        prev = pivot
    # v = q / prev and prev^2 > 0, so the check runs on q in integers
    if vec is not None and not sum(x * sum(map(mul, row, q)) for x, row in zip(q, rows)) > 0:
        raise AssertionError("congruence transform lost its positive direction")
    return Signature(n_plus, n_minus, n - n_plus - n_minus), vec


def bareiss_dense(rows: Rows) -> tuple[int, list[list[int]], list[int] | None]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a square integer
    matrix ``m``, run on ``[m | I]``.

    Returns ``(det, adj, minors)``: the determinant and adjugate of ``m``
    and, when every step pivoted on the diagonal, the nested nonzero
    principal minors in pivot order (the last one is ``det``), else None.
    Step ``k`` swaps rows and columns together to bring the first nonzero
    diagonal at or after ``k`` into place; when every trailing diagonal is 0
    it swaps in the first row with a nonzero entry in column ``k`` alone,
    and no minors are reported.  Every division is exact by Sylvester's
    identity.  Raises :class:`SingularMatrixError` on a singular input.
    """
    n = len(rows)
    a = [
        [_integer(x) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    order = list(range(n))  # order[k]: the input column now at position k
    minors: list[int] | None = []
    sign = prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][r]), None)
        if piv is None:
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            sign, minors = -sign, None
        elif piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            order[k], order[piv] = order[piv], order[k]
        row_k = a[k]
        p = row_k[k]
        tail_k = row_k[k + 1 :]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[k + 1 :] = [
                    (p * x - f * y) // prev for x, y in zip(row[k + 1 :], tail_k)
                ]
        prev = p
        if minors is not None:
            minors.append(p)
    # the row operations Y satisfy Y m P = det(m P) I for the column
    # permutation P, so adj(m) = sign * P Y
    adj: list[list[int]] = [[]] * n
    for k, row in enumerate(a):
        adj[order[k]] = [sign * x for x in row[n:]]
    return sign * prev, adj, minors


def row_echelon_dense(
    rows: Iterable[Sequence[int | Fraction]], cols: Iterable[int]
) -> tuple[int, list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan reduction of integer ``rows``, pivoting
    through ``cols`` in the given order on the first row at or after the
    next pivot row that is nonzero there; every other row takes the exact
    step ``(p x - f y) // prev``.  Returns ``(p, reduced, pivots)``:
    ``reduced[i]`` is ``p`` at column ``pivots[i]`` and 0 at every other
    pivot column, so ``reduced / p`` is the reduced form (``p = 1`` without
    a pivot).  Rows left without a pivot are dropped.
    """
    a = [[_integer(x) for x in row] for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in cols:
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_r = a[r]
        p = row_r[col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, row_r)]
        prev = p
        pivots.append(col)
    return prev, a[: len(pivots)], pivots


def kernel_basis_reference(m) -> list[tuple[int, ...]]:
    """Canonical kernel basis: the congruence's kernel columns reduced from
    the rightmost column, as primitive integer vectors, sorted."""
    n = len(m)
    d, p = congruence_reference(m)
    reduced, _ = row_echelon_reference(p[len(d):], range(n - 1, -1, -1))
    basis = []
    for vec in reduced:
        s = lcm(*(x.denominator for x in vec))
        basis.append(_primitive_integer([int(x * s) for x in vec]))
    return sorted(basis)


def quotient_by_kernel_reference(cfg):
    """Quotient by the radical from the reduced kernel basis: its pivot
    columns are dropped, and each dropped vertex projects to minus its
    reduced kernel row on the kept ones."""
    m = gram(cfg)
    n = cfg.n
    # pivot columns of the reduced kernel are dropped; the remaining vertices
    # descend to a basis of the quotient
    rows, pivots = row_echelon_reference(kernel_basis_reference(m), range(n))
    basis_pos = [j for j in range(n) if j not in pivots]
    proj = [[Fraction(j == bp) for j in range(n)] for bp in basis_pos]
    for row, pc in zip(rows, pivots):
        # e_pc = -sum over free columns of row[free] * e_free (mod radical)
        for bi, bp in enumerate(basis_pos):
            proj[bi][pc] = -row[bp]
    quotient = submatrix(m, basis_pos)
    basis_ids = tuple(cfg.vertices[j].id for j in basis_pos)
    return quotient, QuotientProjection(basis_ids, tuple(tuple(r) for r in proj), n)


def intrinsic_polarization_reference(cfg) -> IntrinsicPolarization:
    """``bounds.intrinsic_polarization`` as it was before the integer solve:
    the Fraction quotient, its Fraction inverse applied to the basis
    degrees, and Fraction pairings with every other curve."""
    quotient, proj = quotient_by_kernel_reference(cfg)
    degrees = [Fraction(v.degree) for v in cfg.vertices]
    basis_pos = [cfg.index_of(b) for b in proj.basis_ids]
    rhs = tuple(degrees[j] for j in basis_pos)
    if not quotient:
        return IntrinsicPolarization(
            False, note="the whole span is isotropic but degrees are positive"
        )
    coords = apply(inverse_reference(quotient), rhs)
    full = gram(cfg)
    for i, v in enumerate(cfg.vertices):
        if i in basis_pos:
            continue
        pairing = sum((full[i][j] * c for j, c in zip(basis_pos, coords)), Fraction(0))
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


# -- brute force box maximization ------------------------------------------


def box_max(inv_rows: list[list[Fraction]], d: int) -> Fraction:
    """Exhaustive maximum of ``x^T W x`` over integer points of
    ``[0, d]^n``."""
    n = len(inv_rows)
    best = None
    for point in product(range(d + 1), repeat=n):
        val = Fraction(0)
        for i in range(n):
            if point[i] == 0:
                continue
            for j in range(n):
                if point[j]:
                    val += inv_rows[i][j] * point[i] * point[j]
        if best is None or val > best:
            best = val
    return best


# -- the per-subset exclusion sweep ------------------------------------------


def subgraph_certificates_reference(sub, d):
    """The box and rough certificates of a nondegenerate hyperbolic
    configuration from the public builders, least bound first and box
    first on a tie: the first is the one ``bounds.exclude`` must pick."""
    certs = []
    try:
        certs.append(box_certificate(sub, d))
    except NoDecompositionFoundError:
        pass
    certs.append(rough_bound(sub, d))
    return sorted(certs, key=lambda c: c.bound_on_2h)


def exclude_reference(cfg, d, h, subgraph_cap=13, use_pinned_degrees=False):
    """``bounds.exclude`` as a plain per-subset loop: every connected subset
    up to the cap in canonical order, filtered by a fresh signature, with
    fresh box and rough certificates from scratch.

    Only hyperbolic spans are re-implemented; the others never reach the
    sweep and are answered by ``exclude`` itself.
    """
    if classify(cfg).kind is not SpanKind.HYPERBOLIC:
        return exclude(cfg, d, h, subgraph_cap, use_pinned_degrees)
    two_h = Fraction(2 * h)
    notes: list[str] = []
    best = None
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
    subsets = sorted(
        connected_subsets_reference(cfg, min(subgraph_cap, cfg.n)),
        key=lambda s: (len(s), s),
    )
    for subset in subsets:
        sub = cfg.induced(tuple(cfg.vertices[i].id for i in subset))
        sig = signature(gram(sub))
        if sig.n_plus != 1 or sig.n_zero != 0:
            continue
        certs = subgraph_certificates_reference(sub, d)
        for cert in certs:
            if best is None or cert.bound_on_2h < best.bound_on_2h:
                best = cert
        if certs and certs[0].bound_on_2h < two_h:
            return ExclusionVerdict(
                ExclusionStatus.HYPERBOLIC_EXCLUDED,
                certificates=(certs[0],),
                notes=tuple(
                    notes + [f"2h = {two_h} exceeds bound {certs[0].bound_on_2h}"]
                ),
            )
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


# -- connected subsets, depth first ---------------------------------------------


def connected_subsets_reference(cfg, max_size):
    """Every connected vertex subset of size <= ``max_size`` exactly once,
    as increasing index tuples, in depth-first order: the enumeration that
    ``graph.connected_vertex_subsets`` replaced.

    Standard enumeration with a forbidden set: each subset is grown from
    its minimal vertex, and once a frontier vertex has been tried at some
    level it is banned from all sibling branches, which makes the
    generation path of every subset unique.  Like the package before it,
    it yields every singleton even for ``max_size < 1``; callers pass at
    least 1.
    """
    adj = cfg.adjacency()

    def extend(sub, forbidden):
        yield sub
        if len(sub) >= max_size:
            return
        in_sub = set(sub)
        frontier = sorted(
            {u for v in sub for u in adj[v]} - in_sub - set(forbidden)
        )
        blocked = set(forbidden)
        for v in frontier:
            grown = tuple(sorted(sub + (v,)))
            yield from extend(grown, frozenset(blocked))
            blocked.add(v)

    for s in range(cfg.n):
        yield from extend((s,), frozenset(range(s)))


def tuple_keyed_subsets_reference(cfg, max_size, grow, root):
    """``graph.connected_vertex_subsets`` before ESU extension sets, with
    each level keyed by sorted index tuples and ordered by sorting them: a
    child of every parent that grows is probed, and it borders the first
    such parent in canonical order whose state is not None, else the last.
    On a step that keeps the enumerator's contract (monotone cuts, every
    superset of a final subset cut) it yields the same ``(subset, state)``
    stream, and steps every subset that the enumerator steps."""
    nbrs = [set(row) for row in cfg.adjacency()]
    grown = {(u,): (root, u) for u in range(cfg.n)}
    for size in range(1, max_size + 1):
        level = []
        for subset, (parent, u) in sorted(grown.items()):
            state = grow(parent, u, subset)
            if state is not CUT:
                level.append((subset, state))
                yield subset, state
        if size == max_size:
            return
        grown = {}
        for subset, state in level:
            if type(state) is Final:
                continue
            for u in set().union(*(nbrs[v] for v in subset)).difference(subset):
                key = tuple(sorted(subset + (u,)))
                if key not in grown or grown[key][0] is None:
                    grown[key] = (state, u)
        if not grown:
            return


# -- the signature-confirmed recognition ----------------------------------------


def _walk(nbrs: dict[str, list[str]], v: str, prev: str) -> tuple[str, ...]:
    """Follow ``v`` away from ``prev`` through vertices of degree two.

    The walk ends at the first vertex of another degree (included) or, on
    a cycle, just before it would come back to ``prev``.
    """
    out = [v]
    stop = prev
    while len(nbrs[v]) == 2:
        a, b = nbrs[v]
        v, prev = (b if a == prev else a), v
        if v == stop:
            break
        out.append(v)
    return tuple(out)


def _shape(nbrs: dict[str, list[str]], n_edges: int) -> tuple[str, int, tuple[str, ...]] | None:
    """Kind, rank parameter and canonical vertex order of a simple graph
    shaped like a connected root diagram with at least two vertices; None
    for any other shape.  The walk finds the skeleton, and
    ``roots.canonical_diagram`` names it."""
    n = len(nbrs)
    deg = {v: len(ws) for v, ws in nbrs.items()}
    if n_edges == n:
        if any(d != 2 for d in deg.values()):
            return None
        start = next(iter(nbrs))
        ring = (start,) + _walk(nbrs, nbrs[start][0], start)
        return canonical_diagram(("cycle", ring)) if len(ring) == n else None
    if n_edges != n - 1:
        return None
    branch = [v for v in nbrs if deg[v] >= 3]
    if not branch:
        ends = [v for v in nbrs if deg[v] == 1]
        if len(ends) != 2:
            return None
        path = _walk(nbrs, nbrs[ends[0]][0], ends[0])
        return canonical_diagram(("star", ends[0], (path,))) if len(path) + 1 == n else None
    if len(branch) == 2:
        # forks at both ends of a chain
        f1, f2 = branch
        leaves = [tuple(w for w in nbrs[f] if deg[w] == 1) for f in branch]
        if deg[f1] != 3 or deg[f2] != 3 or [len(ls) for ls in leaves] != [2, 2]:
            return None
        (first,) = (w for w in nbrs[f1] if deg[w] != 1)
        chain = (f1,) + _walk(nbrs, first, f1)
        if chain[-1] != f2 or len(chain) + 4 != n:
            return None
        return canonical_diagram(("forks", leaves[0], chain, leaves[1]))
    if len(branch) != 1:
        return None
    center = branch[0]
    arms = tuple(_walk(nbrs, w, center) for w in nbrs[center])
    if any(deg[a[-1]] != 1 for a in arms) or 1 + sum(map(len, arms)) != n:
        return None
    # canonical_diagram names D and the stars of its table only
    lengths = tuple(sorted(map(len, arms)))
    if lengths not in _STARS and (len(arms) != 3 or lengths[:2] != (1, 1)):
        return None
    return canonical_diagram(("star", center, arms))


def recognize_component_reference(cfg, ids):
    """``roots.recognize_component`` as it was before the shared adjacency,
    the Gram table and the diagram step: the induced edges from a scan of
    every edge, the shape walk :func:`_shape`, then the exact signature of
    the induced Gram matrix and, for affine kinds, the radical check on
    every match."""
    if len(ids) == 1:
        v = cfg.vertex(ids[0])
        if v.square == 0:
            return RootComponent("IsotropicVertex", None, (v.id,))
        if v.square == -2:
            return RootComponent("A", 1, (v.id,))
        return None
    if any(cfg.vertex(v).square != -2 for v in ids):
        return None
    idset = set(ids)
    edges = [(a, b, m) for a, b, m in cfg.edge_items() if a in idset and b in idset]
    if any(m != 1 for _, _, m in edges):
        if len(ids) != 2 or edges[0][2] != 2:
            return None
        shape = ("A1Tilde", 1, sorted(ids))
    else:
        nbrs = {v: [] for v in ids}
        for a, b, _ in edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        shape = _shape(nbrs, len(edges))
        if shape is None:
            return None
    kind, param, order = shape
    comp = RootComponent(kind, param, tuple(order))
    if comp.is_affine:
        comp = comp._replace(kernel_vector=radical(kind, param))
    sub = cfg.induced(comp.vertex_ids)
    g = gram(sub)
    if comp.is_affine:
        coef = dict(zip(comp.vertex_ids, comp.kernel_vector))
        if any(apply(g, [coef[v] for v in sub.ids()])):
            return None
    want = (0, sub.n - 1, 1) if comp.is_affine else (0, sub.n, 0)
    return comp if signature(g) == want else None


# -- the Fraction certificate check ---------------------------------------------


def _check_box_witness_reference(w, g0, gplus, ones):
    if matrix_sum(g0, gplus) != w:
        raise AssertionError("witness does not sum to the inverse")
    if min_entry(gplus) < 0:
        raise AssertionError("nonnegative part has a negative entry")
    if any(x != 0 for x in apply(g0, ones)):
        raise AssertionError("all-ones vector not in the kernel of the split")
    if signature(g0).n_plus != 0:
        raise AssertionError("split part is not negative semi-definite")


def verify_certificate_reference(cert, cfg):
    """``bounds.verify_certificate`` as it was before the integer checker:
    a Fraction inverse of the induced Gram matrix (in config order, whatever
    the support order), and for box certificates the witness read as
    Fractions, summed against it, and a dense signature of its negative
    part.  It checks ``d`` only through the bound at the all-``d``
    corner."""
    try:
        sub = cfg.induced(cert.support_ids)
        if cert.kind == INTRINSIC_SQUARE:
            ip = intrinsic_polarization(sub)
            return ip.exists and ip.square == cert.bound_on_2h
        w = inverse_reference(gram(sub))
    except (ValueError, SingularMatrixError):
        return False
    d = cert.d
    if cert.kind == ROUGH_POSITIVE_ENTRY_SUM:
        positive = sum((x for row in w for x in row if x > 0), Fraction(0))
        return cert.bound_on_2h == positive * d * d
    if cert.kind == BOX_OPTIMUM_DECOMPOSITION:
        wit = cert.witness
        if not isinstance(wit, BoxWitness):
            return False
        ones = (Fraction(1),) * len(w)
        try:
            _check_box_witness_reference(w, *witness_parts(wit), ones)
        except (AssertionError, TypeError, ValueError, ZeroDivisionError):
            return False
        return cert.bound_on_2h == quadratic_form(w, (Fraction(d),) * len(w))
    return False


def witness_fault_reference(g, wit: BoxWitness, n_plus: int) -> str | None:
    """``bounds._witness_fault`` as it was before its product check summed
    whole rows: the type check an ``all`` over the entries, and
    ``g (delta W)`` checked one entry at a time, each a sum over the
    nonzero entries of its row of ``g``."""
    k, delta = len(g), wit.delta
    n0, npl = parts = wit.negative_part, wit.nonnegative_part
    if type(delta) is not int or delta < 1 or not all(
        isinstance(p, tuple) and len(p) == k and all(
            isinstance(r, tuple) and len(r) == k and all(type(x) is int for x in r)
            for r in p
        )
        for p in parts
    ):
        return "the witness is not two k x k tuples of int rows over a positive int"
    w = [[a + b for a, b in zip(r0, rp)] for r0, rp in zip(n0, npl)]
    for i, row in enumerate(g):
        nz = [(l, x) for l, x in enumerate(row) if x]
        for j in range(k):
            if sum(x * w[l][j] for l, x in nz) != (delta if i == j else 0):
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


# -- the fibre search with the shape step ----------------------------------------


def find_kodaira_divisors_reference(
    cfg: CurveConfig, max_weight: int | None = None
) -> list[KodairaDivisor]:
    """All fiber-shaped divisors supported on induced subgraphs of ``cfg``.

    An isolated isotropic vertex counts as a one-component fiber (a nodal
    or cuspidal curve of arithmetic genus one) and is flagged as such.
    Results are capped at ``max_weight`` (default 30, the largest standard
    weight) and sorted by (weight, support ids), which fixes a
    deterministic order.  Raises ``ValueError`` for ``max_weight < 1``.
    """
    cap = 30 if max_weight is None else max_weight
    if cap < 1:
        raise ValueError(f"max_weight must be at least 1, got {cap}")
    out: list[KodairaDivisor] = []
    for v in cfg.vertices:
        if v.square == 0:
            out.append(
                KodairaDivisor(
                    "I1", (v.id,), (1,), 1, (1, 2), nodal_or_cuspidal=True
                )
            )
    # multi-vertex divisors live on the (-2)-curves only
    roots_only = cfg.induced([v.id for v in cfg.vertices if v.square == -2])
    # weight >= support size for every type, so size-capped enumeration
    # cannot miss a divisor under the weight cap; the empty subset's shape
    # state is all zeros, and the tuple-keyed enumerator hands each step its
    # subset as an index tuple
    for subset, _ in tuple_keyed_subsets_reference(
        roots_only, min(cap, roots_only.n), _shape_prune(roots_only), (0, 0, 0, 0)
    ):
        ids = tuple(roots_only.vertices[i].id for i in subset)
        comp = recognize_component_reference(roots_only, ids)
        if comp is None or not comp.is_affine:
            continue
        div = _divisor_from_component(comp)
        if div.weight <= cap:
            out.append(div)
    out.sort(key=lambda dv: (dv.weight, tuple(sorted(dv.support))))
    return out


def _shape_prune(cfg: CurveConfig):
    """Enumeration step for the subgraph search.

    A subset's state is ``(top, edges, branch, high)``: its largest edge
    multiplicity, its number of adjacent pairs, its number of vertices of
    degree at least 3 and its largest degree.  Adding ``u`` changes the
    degrees of ``u`` and its neighbours only, so one step costs the degrees
    of those.  It returns ``CUT`` where no affine diagram can grow: a
    vertex of degree above 4, more than two branch vertices, a degree-4
    vertex outside the 5-vertex star, a multiple edge beyond the 2-vertex
    case, or a proper supergraph of a cycle.  All of these only grow under
    extension, so the cut is monotone and loses nothing.
    """
    adj = cfg.adjacency()

    def grow(state, u, subset):
        top, edges, branch, high = state
        # u's own degree counts in the edges only: it never exceeds a
        # neighbour's unless it is 3 or more, and then, the parent being
        # connected, the subset has more edges than curves and is cut
        for w, m in adj[u].items():
            if w in subset:
                edges += 1
                if m > top:
                    top = m
                dw = len(adj[w].keys() & subset)
                if dw == 3:
                    branch += 1
                if dw > high:
                    high = dw
        size = len(subset)
        if (
            top >= 3
            or (top == 2 and size > 2)
            or edges > size
            # a connected subset with as many edges as vertices is a cycle
            # exactly when no degree exceeds 2
            or (edges == size and high != 2)
            or branch > 2
            or high > 4
            or (high == 4 and size > 5)
        ):
            return CUT
        return top, edges, branch, high

    return grow


def extremal_lookup_reference(prof, entries):
    """The extremal entries whose raw payload has the profile's
    characteristic, fibration kind and sorted fibre tags (deltas ignored)."""

    def payload_key(payload):
        tags = sorted(f["type"] for f in payload["fibers"] for _ in range(f["count"]))
        return payload["characteristic"], payload["quasi_elliptic"], tuple(tags)

    key = (prof.characteristic, prof.quasi_elliptic, tuple(sorted(prof.tags())))
    return [e for e in entries if e.kind == "extremal" and payload_key(e.payload) == key]


def rows_reference(data, key, columns, build):
    """``build(*fields)`` for each object of the array ``key`` of the
    ``formats.Fields`` ``data``, each object copied into a ``Fields`` and
    read with ``only`` and ``typed``, a ``ValueError`` from ``build`` raised
    as that object's error."""
    out = []
    for obj in data.typed(key, list, items=dict):
        obj.only(*columns)
        fields = [obj.typed(name, kind, fallback) for name, (kind, fallback) in columns.items()]
        try:
            out.append(build(*fields))
        except ValueError as exc:
            raise obj.error(str(exc)) from exc
    return out
