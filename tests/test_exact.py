import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat.exact import (
    SingularMatrixError,
    _congruence,
    bareiss,
    kernel_basis,
    minor_signature,
    positive_square_vector,
    row_echelon,
    signature,
    signature_and_witness,
)

from oracles import (
    apply,
    bareiss_dense,
    congruence_dense,
    congruence_reference,
    det,
    identity_matrix,
    inverse,
    inverse_reference,
    kernel_basis_reference,
    oracle_signature,
    quadratic_form,
    row_echelon_dense,
    row_echelon_reference,
    row_reduce_rank,
    signature_and_witness_reference,
)


def test_signature_a2_negative_definite():
    assert signature([[-2, 1], [1, -2]]) == (0, 2, 0)


def test_signature_zero_form():
    assert signature([[0]]) == (0, 0, 1)


def test_signature_hyperbolic_pair():
    # (1, 1) has square 2 > 0 while the determinant is -5
    m = [[-2, 3], [3, -2]]
    assert signature(m) == (1, 1, 0)
    assert quadratic_form(m, (1, 1)) == 2


def test_signature_identity():
    assert signature(identity_matrix(4)) == (4, 0, 0)


def test_kernel_zero_form():
    assert kernel_basis([[0]]) == [(1,)]


def test_kernel_four_cycle():
    m = [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]]
    basis = kernel_basis(m)
    assert basis == [(1, 1, 1, 1)]
    assert apply(m, basis[0]) == (0, 0, 0, 0)


def test_kernel_nondegenerate_empty():
    assert kernel_basis([[-2, 1], [1, -2]]) == []


def test_inverse_examples():
    m = [[0, 1], [1, -2]]
    assert inverse(m) == ((2, 1), (1, 0))
    assert inverse(identity_matrix(3)) == identity_matrix(3)
    a2 = [[-2, 1], [1, -2]]
    third = Fraction(1, 3)
    assert inverse(a2) == ((-2 * third, -third), (-third, -2 * third))


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse([[0]])


def test_symmetry_enforced():
    # every public entry point checks its rows the same way
    for fn in (signature, signature_and_witness, positive_square_vector, kernel_basis):
        with pytest.raises(ValueError, match="not symmetric at \\(0,1\\)"):
            fn([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="square"):
            fn([[0, 1]])
        with pytest.raises(ValueError, match="square"):
            fn([[0, 1], [1]])
        # an inexact entry is a type error, before the shape is looked at
        with pytest.raises(TypeError, match="exact rationals, got float"):
            fn([[0.5, 1], [1]])
        with pytest.raises(TypeError):
            fn([[0, None], [None, 0]])
        # int and Fraction entries alike
        assert fn([[Fraction(-2), 1], [Fraction(1), -2]]) == fn([[-2, 1], [1, -2]])


def test_positive_square_vector():
    m = [[-2, 3], [3, -2]]
    v = positive_square_vector(m)
    assert quadratic_form(m, v) > 0
    assert positive_square_vector([[-2]]) is None


def _random_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = rng.randint(-4, 4)
    return entries


def test_signature_matches_sturm_oracle_seeded():
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _random_symmetric(rng, n)
        assert signature(m) == oracle_signature(m)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_signature_properties_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    for i in range(n):
        for j in range(i + 1, n):
            entries[j][i] = entries[i][j]
    m = entries
    sig = signature(m)
    # independent oracles: Sturm sign counts and row-reduction rank
    assert sig == oracle_signature(m)
    assert sig.n_zero == n - row_reduce_rank(m)
    # congruence transform really diagonalizes
    _, cols = congruence_reference(m)
    for a, u in enumerate(cols):
        for b, v in enumerate(cols):
            if a != b:
                assert sum(x * y for x, y in zip(u, apply(m, v))) == 0
    # kernel vectors annihilate exactly
    for vec in kernel_basis(m):
        assert apply(m, vec) == (Fraction(0),) * n
    # exact two-sided inverse on nondegenerate input
    if sig.n_zero == 0:
        w = inverse(m)
        for i in range(n):
            row = tuple(sum(m[i][k] * w[k][j] for k in range(n)) for j in range(n))
            assert row == tuple(Fraction(i == j) for j in range(n))


def test_kernel_basis_primitive_and_sorted():
    m = [[0, 0], [0, 0]]
    assert kernel_basis(m) == [(0, 1), (1, 0)]


def test_large_entries_exact():
    # entries big enough that naive floating point would lose exactness
    big = 10**30
    m = [[big, 1], [1, big]]
    w = inverse(m)
    assert apply(w, (big, 1)) == (Fraction(1), Fraction(0))


def test_golden_outputs_byte_identical():
    # pins the witness vector, the canonical kernel basis and the inverse
    # on a family that hits the zero-diagonal repair and nullity >= 2
    rng = random.Random(1907)
    out = []
    for _ in range(400):
        n = rng.randint(1, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.choice([-2, -2, 0, 0, 2])
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.choice([0, 0, 0, 1, 1, -1, 2])
        try:
            inv = inverse(a)
        except SingularMatrixError:
            inv = None
        out.append(
            (tuple(signature(a)), positive_square_vector(a), kernel_basis(a), inv)
        )
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == "961c70724f4efd16"


# -- the Bareiss inverse and the one-reduction kernel against the references ----


def _check_against_references(m):
    assert kernel_basis(m) == kernel_basis_reference(m)
    try:
        want = inverse_reference(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            inverse(m)
    else:
        assert inverse(m) == want


def _symmetric_rows(data, n, entry, diagonal):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = data.draw(diagonal)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(entry)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_and_kernel_match_references_hypothesis(data):
    n = data.draw(st.integers(min_value=0, max_value=7))
    entry = st.integers(min_value=-4, max_value=4)
    rows = _symmetric_rows(data, n, entry, st.one_of(st.just(0), entry))
    _check_against_references(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_and_inverse_on_nullity_two_hypothesis(data):
    # a core of rank r <= n - 2 pulled back along a map of the n indices to
    # the core's indices or to nothing: repeated and unused indices give a
    # kernel of dimension at least 2, and unused ones zero diagonals
    n = data.draw(st.integers(min_value=2, max_value=7))
    r = data.draw(st.integers(min_value=0, max_value=n - 2))
    entry = st.integers(min_value=-4, max_value=4)
    core = _symmetric_rows(data, r, entry, st.one_of(st.just(0), entry))
    lift = data.draw(
        st.lists(st.sampled_from((None, *range(r))), min_size=n, max_size=n)
    )
    rows = [
        [0 if a is None or b is None else core[a][b] for b in lift] for a in lift
    ]
    assert n - row_reduce_rank(rows) >= 2
    _check_against_references(rows)
    assert len(kernel_basis(rows)) == n - row_reduce_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_of_fraction_entries_matches_reference_hypothesis(data):
    # non-integer entries: the inverse scales by the lcm of the denominators
    n = data.draw(st.integers(min_value=1, max_value=6))
    entry = st.builds(
        Fraction,
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    rows = _symmetric_rows(data, n, entry, entry)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    rows[i][i] = Fraction(data.draw(st.sampled_from((1, -1, 3, -5))), 2)
    _check_against_references(rows)


# -- fraction-free elimination ---------------------------------------------------


def _check_bareiss(rows):
    n = len(rows)
    want = det(rows)
    if want == 0:
        with pytest.raises(SingularMatrixError):
            bareiss(rows)
        return None
    d, adj, minors = bareiss(rows)
    assert d == want
    w = inverse_reference(rows)
    assert adj == [[d * x for x in row] for row in w]
    if minors is not None:
        assert len(minors) == n and minors[-1] == d and all(minors)
        assert minor_signature(minors) == oracle_signature(rows)
    return minors


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bareiss_matches_oracles_hypothesis(data):
    # sparse entries and zero diagonals, so that singular inputs and the
    # off-diagonal fallback both occur
    n = data.draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = data.draw(entry)
    _check_bareiss(rows)


def test_bareiss_seeded_hits_both_paths():
    rng = random.Random(6113)
    seen = {"minors": 0, "fallback": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 0, 1, -1, 2))
        if det(rows) == 0:
            seen["singular"] += 1
        minors = _check_bareiss(rows)
        if det(rows) != 0:
            seen["minors" if minors is not None else "fallback"] += 1
    assert min(seen.values()) > 10, seen


@pytest.mark.parametrize(
    "rows, want",
    [
        # two square-0 curves meeting once
        ([[0, 1], [1, 0]], (-1, [[0, -1], [-1, 0]])),
        # the diagonal pivot -2 first, then a zero-diagonal trailing block
        (
            [[0, 1, 0], [1, 0, 0], [0, 0, -2]],
            (2, [[0, 2, 0], [2, 0, 0], [0, 0, -1]]),
        ),
    ],
)
def test_bareiss_zero_diagonal_reports_no_minors(rows, want):
    d, adj, minors = bareiss(rows)
    assert (d, adj) == want
    assert minors is None


def test_bareiss_nested_minors_in_pivot_order():
    # the zero first diagonal is skipped: pivots on -2, then the 2x2 minor
    # of {1, 0}, then the determinant
    d, adj, minors = bareiss([[0, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert minors == [-2, -1, 2] and d == 2
    assert minor_signature(minors) == (1, 2, 0)


def test_bareiss_rejects_singular_and_non_integer_input():
    for rows in ([[0]], [[1, 1], [1, 1]], [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]):
        with pytest.raises(SingularMatrixError):
            bareiss(rows)
    with pytest.raises(ValueError):
        bareiss([[Fraction(1, 2)]])
    assert bareiss([]) == (1, [], [])


# -- the fraction-free reduction against the Fraction loop it replaced ---------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_echelon_matches_reference_hypothesis(data):
    # rectangular rows spanned by r <= min(rows, cols) random ones, some of
    # them zero, reduced left to right and right to left
    n_rows = data.draw(st.integers(min_value=0, max_value=6))
    n_cols = data.draw(st.integers(min_value=1, max_value=6))
    r = data.draw(st.integers(min_value=0, max_value=min(n_rows, n_cols)))
    entry = st.integers(min_value=-4, max_value=4)
    core = [[data.draw(entry) for _ in range(n_cols)] for _ in range(r)]
    weights = st.sampled_from((0, 0, 1, -1, 2, -3))
    rows = []
    for _ in range(n_rows):
        w = [data.draw(weights) for _ in core]
        rows.append([sum(a * row[j] for a, row in zip(w, core)) for j in range(n_cols)])
    cols = data.draw(st.sampled_from((range(n_cols), range(n_cols - 1, -1, -1))))
    p, reduced, pivots = row_echelon(rows, cols)
    want, want_pivots = row_echelon_reference(rows, cols)
    assert pivots == want_pivots
    assert [[Fraction(x, p) for x in row] for row in reduced] == want
    assert all(row[c] == p for row, c in zip(reduced, pivots))


def test_row_echelon_rejects_non_integer_input():
    # a non-integral entry would otherwise be floor-divided
    with pytest.raises(ValueError):
        row_echelon([[Fraction(1, 2)]], [0])
    assert row_echelon([[Fraction(4), 2]], [1, 0]) == (2, [[4, 2]], [1])
    assert row_echelon([], range(3)) == (1, [], [])


# -- the fraction-free congruence against the Fraction loop it replaced -------


def _check_congruence(m):
    want_sig, want_vec = signature_and_witness_reference(m)
    sig, vec = signature_and_witness(m)
    assert (sig, vec) == (want_sig, want_vec)
    assert signature(m) == sig and positive_square_vector(m) == vec
    if vec is not None:
        assert quadratic_form(m, vec) > 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_congruence_matches_reference_hypothesis(data):
    # a core pulled back along a map of the n indices to the core's indices
    # or to nothing gives nullity >= n - r; zero diagonals force the fold
    n = data.draw(st.integers(min_value=1, max_value=9))
    r = data.draw(st.integers(min_value=0, max_value=n))
    entry = st.integers(min_value=-4, max_value=4)
    diagonal = st.sampled_from((st.just(0), st.one_of(st.just(0), entry), entry))
    core = _symmetric_rows(data, r, entry, data.draw(diagonal))
    extra = data.draw(
        st.lists(st.sampled_from((None, *range(r))), min_size=n - r, max_size=n - r)
    )
    lift = data.draw(st.permutations(list(range(r)) + extra))
    rows = [
        [0 if a is None or b is None else core[a][b] for b in lift] for a in lift
    ]
    if r <= n - 2:
        assert n - row_reduce_rank(rows) >= 2
    _check_congruence(rows)
    # the integer entry point returns the same, on int entries
    want_sig, want_vec = signature_and_witness_reference(rows)
    sig, vec = _congruence(rows, witness=True)
    assert (sig, vec) == (want_sig, want_vec)
    assert _congruence(rows)[0] == sig


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_congruence_of_fraction_entries_matches_reference_hypothesis(data):
    # non-integer entries: the congruence runs on the lcm-scaled matrix
    n = data.draw(st.integers(min_value=1, max_value=7))
    entry = st.builds(
        Fraction,
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    rows = _symmetric_rows(data, n, entry, st.one_of(st.just(Fraction(0)), entry))
    i, j = data.draw(st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 2))
    rows[i][j] = rows[j][i] = Fraction(data.draw(st.sampled_from((1, -1, 3, -5))), 2)
    _check_congruence(rows)


# -- the loops that skip a zero multiplier against the dense loops -----------


def _block_diagonal(blocks):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[start + i][start : start + len(row)] = row
        start += len(block)
    return rows


def _fibres_with_section(data):
    """Chains of -2 curves (A_n), some closed into cycles (I_n, with a
    double edge for n = 2), each met once by one section of square -2, -1
    or 0."""
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        n = data.draw(st.integers(min_value=1, max_value=5))
        block = [[-2 * (i == j) + (abs(i - j) == 1) for j in range(n)] for i in range(n)]
        if n > 1 and data.draw(st.booleans()):
            block[0][-1] += 1
            block[-1][0] += 1
        blocks.append(block)
    rows = _block_diagonal(blocks + [[[data.draw(st.sampled_from((-2, -1, 0)))]]])
    start, s = 0, len(rows) - 1
    for block in blocks:
        v = start + data.draw(st.integers(min_value=0, max_value=len(block) - 1))
        rows[s][v] = rows[v][s] = 1
        start += len(block)
    return rows


def _sparse_symmetric(data):
    """A sparse symmetric integer matrix in one of four shapes, its indices
    permuted: diagonal blocks, fibres with a section, a zero diagonal (the
    congruence's fold, Bareiss's row-only swap), or one of these with a
    row and column repeated, which is singular."""
    entry = st.sampled_from((0, 0, 0, 0, 1, 1, -1, 2, -3))
    shape = data.draw(st.sampled_from(("blocks", "fibres", "zero diagonal", "singular")))
    if shape == "fibres" or (shape == "singular" and data.draw(st.booleans())):
        rows = _fibres_with_section(data)
    elif shape == "zero diagonal":
        n = data.draw(st.integers(min_value=1, max_value=7))
        rows = _symmetric_rows(data, n, entry, st.just(0))
    else:
        diagonal = st.sampled_from((0, 0, -2, -2, -1, 1, 2))
        sizes = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
        rows = _block_diagonal([_symmetric_rows(data, n, entry, diagonal) for n in sizes])
    if shape == "singular":
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows = [row + [row[i]] for row in rows]
        rows.append(list(rows[i]))
    order = data.draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in order] for i in order]


def _singular_step(eliminate, rows):
    """The step ``k`` at which ``eliminate(rows)`` finds ``rows`` singular."""
    with pytest.raises(SingularMatrixError) as info:
        eliminate(rows)
    tb = info.tb
    while tb.tb_next:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["k"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loops_match_the_dense_loops_hypothesis(data):
    rows = _sparse_symmetric(data)
    n = len(rows)
    assert _congruence(rows) == congruence_dense(rows)
    assert _congruence(rows, witness=True) == congruence_dense(rows, witness=True)
    try:
        want = bareiss_dense(rows)
    except SingularMatrixError:
        assert _singular_step(bareiss, rows) == _singular_step(bareiss_dense, rows)
    else:
        assert bareiss(rows) == want
    # rectangular: some of the rows, in drawn order, over a column subset
    # reduced left to right or right to left
    index = st.integers(min_value=0, max_value=n - 1)
    picked = [rows[i] for i in data.draw(st.lists(index, unique=True))]
    cols = sorted(data.draw(st.sets(index, min_size=1)), reverse=data.draw(st.booleans()))
    assert row_echelon(picked, cols) == row_echelon_dense(picked, cols)
