"""Exact linear algebra over the rationals for symmetric matrices.

A matrix is a sequence of rows of ``int`` and ``Fraction`` entries; there
is no matrix class.  Results are exact (arbitrary-precision integers, no
rounding ever).  There are three eliminations, all fraction-free loops on
integers (Bareiss's step ``(p x - f y) // prev``), and each exact question
is answered by one of them.  A symmetric congruence
``P^T M P = diag(d, 0, ..., 0)`` gives :func:`signature` (signs of ``d``)
and :func:`positive_square_vector` (a column of ``P``; both at once from
:func:`signature_and_witness`).
:func:`bareiss` gives the determinant, the adjugate (so the inverse is
``adj / det``, kept in integers by its callers) and, when it pivots only
on the diagonal, the nested principal minors whose signs give the inertia
(:func:`minor_signature`).
:func:`row_echelon` gives ``(p, reduced, pivots)`` with ``reduced / p`` in
reduced row echelon form: one left-to-right reduction gives
:func:`kernel_basis`, one right-to-left the quotient by the radical
(``graph.quotient_by_kernel``).

All three skip a zero multiplier.  Each row keeps the pivot ``div`` it
was last stepped with (1 at the start).  A step that finds ``f = 0`` in a
row leaves it alone; one that finds ``f != 0`` sets the row to
``(p x - f y) // div`` and ``div = p``.  A row is brought up to date, to
``x prev // div``, before it is read as a pivot row, folded or returned;
in the two Gauss-Jordan loops, which step it again later, a pivot row
then keeps ``div = p``, as the dense loop leaves it unscaled at its own
step.  This is exact and gives the dense loop's values: a step the dense
loop takes with ``f = 0`` multiplies the row by ``p_k / p_(k-1)``, and
these factors telescope to ``prev / div``; so both formulas equal the
dense row, an integer by Sylvester's identity.  Curve graphs are sparse,
so most steps are of this kind.

The public functions scale a rational matrix by the lcm of its
denominators first; that step is also the one check that the rows form a
square, symmetric, exact matrix.  No function modifies its input and all
are pure; concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Rows = Sequence[Sequence[int | Fraction]]


class SingularMatrixError(ZeroDivisionError):
    """Raised when a matrix that must be invertible has a kernel."""


class Signature(NamedTuple):
    """Inertia of a symmetric form: counts of positive, negative and zero
    eigen-directions.  ``n_plus + n_minus + n_zero`` equals the dimension."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def _congruence(
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
    ``c`` to ``r``.  A trailing row with a nonzero multiplier ``f`` takes
    Bareiss's exact step ``(pivot x - f y) // div``, with ``div`` the pivot
    it was last stepped with, and a row with ``f = 0`` is left alone (see
    the module docstring); a row read as a pivot or folded is first brought
    up to ``prev``.  So an up-to-date trailing row, and its tracked column
    of ``P``, is ``prev`` times that of the rational elimination, and
    ``d_k`` has the sign of ``pivot * prev``.  Columns of ``P`` are tracked
    only for a witness, only up to the first positive pivot, and each on
    the divisor of its row.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    p = [[int(i == j) for i in range(n)] for j in range(n)] if witness else None
    div = [1] * n
    n_plus = n_minus = 0
    vec, prev = None, 1

    def catch_up(r: int, k: int) -> None:
        # row r from column k on, and its column of P, times prev / div[r]
        d = div[r]
        if d != prev:
            a[r][k:] = [x * prev // d for x in a[r][k:]]
            if p:
                p[r] = [x * prev // d for x in p[r]]
            div[r] = prev

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
            catch_up(piv, k)
            catch_up(c, k)
            for j in range(k, n):
                a[piv][j] += a[c][j]
            for i in range(k, n):
                a[i][piv] += a[i][c]
            if p:
                p[piv] = [x + y for x, y in zip(p[piv], p[c])]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            div[k], div[piv] = div[piv], div[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
            if p:
                p[k], p[piv] = p[piv], p[k]
        catch_up(k, k)
        pivot = a[k][k]
        if (pivot > 0) != (prev > 0):
            n_minus += 1
        else:
            n_plus += 1
            if p:
                q, p = p[k], None
                vec = tuple(Fraction(x, prev) for x in q)
        tail_k = a[k][k + 1 :]
        p_k = p[k] if p else None
        for r in range(k + 1, n):
            row = a[r]
            f = row[k]
            if f:
                d = div[r]
                row[k + 1 :] = [(pivot * x - f * y) // d for x, y in zip(row[k + 1 :], tail_k)]
                if p:
                    p[r] = [(pivot * x - f * y) // d for x, y in zip(p[r], p_k)]
                div[r] = pivot
        prev = pivot
    # v = q / prev and prev^2 > 0, so the check runs on q in integers
    if vec is not None and not sum(x * sum(map(mul, row, q)) for x, row in zip(q, rows)) > 0:
        raise AssertionError("congruence transform lost its positive direction")
    return Signature(n_plus, n_minus, n - n_plus - n_minus), vec


def _integer(x) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"matrix entries must be integers, got {x!r}")


def bareiss(rows: Rows) -> tuple[int, list[list[int]], list[int] | None]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a square integer
    matrix ``m``, run on ``[m | I]``.

    Returns ``(det, adj, minors)``: the determinant and adjugate of ``m``
    and, when every step pivoted on the diagonal, the nested nonzero
    principal minors in pivot order (the last one is ``det``), else None.
    Step ``k`` swaps rows and columns together to bring the first nonzero
    diagonal at or after ``k`` into place; when every trailing diagonal is 0
    it swaps in the first row with a nonzero entry in column ``k`` alone,
    and no minors are reported.  A row with a nonzero multiplier takes the
    exact step ``(p x - f y) // div`` on the pivot ``div`` it last saw, a
    row with a zero one is left alone, and the pivot row and the adjugate
    are brought up to date first (see the module docstring).  Every
    division is exact by Sylvester's identity.  Raises
    :class:`SingularMatrixError` on a singular input.
    """
    n = len(rows)
    a = [
        [_integer(x) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    div = [1] * n
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
            div[k], div[piv] = div[piv], div[k]
            sign, minors = -sign, None
        elif piv != k:
            a[k], a[piv] = a[piv], a[k]
            div[k], div[piv] = div[piv], div[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            order[k], order[piv] = order[piv], order[k]
        row_k, d = a[k], div[k]
        if d != prev:
            row_k[k:] = [x * prev // d for x in row_k[k:]]
        div[k] = p = row_k[k]
        tail_k = row_k[k + 1 :]
        for i, row in enumerate(a):
            f = row[k]
            if f and i != k:
                d = div[i]
                row[k + 1 :] = [
                    (p * x - f * y) // d for x, y in zip(row[k + 1 :], tail_k)
                ]
                div[i] = p
        prev = p
        if minors is not None:
            minors.append(p)
    # the row operations Y satisfy Y m P = det(m P) I for the column
    # permutation P, so adj(m) = sign * P Y
    adj: list[list[int]] = [[]] * n
    for k, (row, d) in enumerate(zip(a, div)):
        adj[order[k]] = [sign * x * prev // d for x in row[n:]]
    return sign * prev, adj, minors


def minor_signature(minors: Sequence[int]) -> Signature:
    """Inertia of a nondegenerate symmetric matrix from its nested nonzero
    principal minors ``M_1, ..., M_n`` (Jacobi's rule): one negative
    direction per sign change in ``1, M_1, ..., M_n``."""
    n_minus = sum(1 for x, y in zip((1, *minors), minors) if (x > 0) != (y > 0))
    return Signature(len(minors) - n_minus, n_minus, 0)


def row_echelon(
    rows: Iterable[Sequence[int | Fraction]], cols: Iterable[int]
) -> tuple[int, list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan reduction of integer ``rows``, pivoting
    through ``cols`` in the given order on the first row at or after the
    next pivot row that is nonzero there; every other row with a nonzero
    multiplier takes the exact step ``(p x - f y) // div`` on the pivot
    ``div`` it last saw, and one with a zero multiplier is left alone (see
    the module docstring).  Returns ``(p, reduced, pivots)``:
    ``reduced[i]`` is ``p`` at column ``pivots[i]`` and 0 at every other
    pivot column, so ``reduced / p`` is the reduced form (``p = 1`` without
    a pivot).  Rows left without a pivot are dropped.
    """
    a = [[_integer(x) for x in row] for row in rows]
    div = [1] * len(a)
    pivots: list[int] = []
    prev = 1
    for col in cols:
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        div[r], div[piv] = div[piv], div[r]
        row_r, d = a[r], div[r]
        if d != prev:
            a[r] = row_r = [x * prev // d for x in row_r]
        div[r] = p = row_r[col]
        for i, (row, d) in enumerate(zip(a, div)):
            f = row[col]
            if f and i != r:
                a[i] = [(p * x - f * y) // d for x, y in zip(row, row_r)]
                div[i] = p
        prev = p
        pivots.append(col)
    reduced = [[x * prev // d for x in row] for row, d in zip(a, div[: len(pivots)])]
    return prev, reduced, pivots


def _scaled(rows: Rows) -> tuple[int, list[list[int]]]:
    """``(s, s m)`` for the matrix ``m`` with these ``rows``, with ``s`` the
    lcm of its denominators.  Raises TypeError on an entry that is not an
    ``int`` or a ``Fraction``, and ValueError unless ``m`` is square and
    symmetric."""
    inexact = [x for row in rows for x in row if not isinstance(x, (int, Fraction))]
    if inexact:
        raise TypeError(f"matrix entries must be exact rationals, got {type(inexact[0]).__name__}")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    s = lcm(*(x.denominator for row in rows for x in row))
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in rows]


def signature(rows: Rows) -> Signature:
    """Inertia of a symmetric matrix, computed exactly."""
    return _congruence(_scaled(rows)[1])[0]


def signature_and_witness(rows: Rows) -> tuple[Signature, tuple[Fraction, ...] | None]:
    """Inertia of ``m`` and a vector ``v`` with ``v^T m v > 0`` (None if the
    form is negative semi-definite), from one congruence."""
    return _congruence(_scaled(rows)[1], witness=True)


def positive_square_vector(rows: Rows) -> tuple[Fraction, ...] | None:
    """A vector ``v`` with ``v^T m v > 0``, or None if the form is negative
    semi-definite."""
    return signature_and_witness(rows)[1]


def _primitive_integer(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its content, signed so that its
    leading nonzero entry is positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def kernel_basis(rows: Rows) -> list[tuple[int, ...]]:
    """Basis of ``{x : m x = 0}`` as primitive integer vectors.

    The list is empty exactly when ``m`` is nondegenerate.  The basis is
    canonical: a column of ``m`` is free when left-to-right row reduction of
    ``m`` finds no pivot in it, and there is one vector per free column,
    nonzero there and zero on every other free column.  Vectors have content
    1 and a positive leading entry, sorted lexicographically.
    """
    n = len(rows)
    p, reduced, pivots = row_echelon(_scaled(rows)[1], range(n))
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [p * (j == f) for j in range(n)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f]
        basis.append(_primitive_integer(vec))
    return sorted(basis)

