import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from plectic.errors import DegenerateInputError, InputError
from plectic.lattices import (
    IntMatrix,
    _xgcd,
    coefficient_shells,
    fraction_det,
    fraction_inverse,
    hermite_normal_form,
    int_combination,
    kernel_integer,
    lll_reduce,
    row_lattice_basis,
    saturation,
    smith_normal_form,
    solve_integer,
    torsion_free_quotient,
)


def column(v) -> IntMatrix:
    """The integer column vector v as a one-column matrix."""
    return IntMatrix.from_rows([[x] for x in v])


def lattices_equal(a_rows, b_rows) -> bool:
    """Exact equality of the row lattices spanned by two generator lists:
    a comparison of their Hermite normal forms."""
    a, b = (row_lattice_basis(IntMatrix.from_rows(r)) if r else [] for r in (a_rows, b_rows))
    return a == b


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(m.det()) == 1


def snf_invariants_oracle(rows):
    """Invariant factors via gcds of k x k minors: d_k = D_k / D_{k-1},
    independent of any elimination strategy."""
    import itertools

    m = [list(r) for r in rows]
    R, C = len(m), len(m[0])
    out = []
    prev = 1
    for k in range(1, min(R, C) + 1):
        g = 0
        for ri in itertools.combinations(range(R), k):
            for ci in itertools.combinations(range(C), k):
                sub = IntMatrix.from_rows([[m[i][j] for j in ci] for i in ri])
                g = math.gcd(g, abs(sub.det()))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def check_snf(m):
    U, D, V = smith_normal_form(m)
    assert (U @ m @ V).entries == D.entries
    assert is_unimodular(U) and is_unimodular(V)
    diag = [D.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.entries[i][j] == 0
    return diag


def test_snf_identity():
    U, D, V = smith_normal_form(IntMatrix.identity(3))
    assert D.entries == IntMatrix.identity(3).entries
    assert U.entries == IntMatrix.identity(3).entries
    assert V.entries == IntMatrix.identity(3).entries


def test_snf_small_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    diag = check_snf(m)
    assert diag == snf_invariants_oracle(m.entries) == [2, 4]


def test_snf_zero():
    m = IntMatrix.from_rows([[0, 0], [0, 0]])
    U, D, V = smith_normal_form(m)
    assert D.is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**30),
)
def test_snf_random(rows, cols, seed):
    rng = random.Random(seed)
    m = IntMatrix.from_rows(
        [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
    )
    diag = check_snf(m)
    assert [d for d in diag if d] == snf_invariants_oracle(m.entries)


STANDARD2 = [(1, 0), (0, 1)]


def test_torsion_free_quotient_self():
    assert torsion_free_quotient(STANDARD2, STANDARD2) == []


def test_torsion_free_quotient_finite():
    assert torsion_free_quotient([[2, 0], [0, 2]], STANDARD2) == []


def test_torsion_free_quotient_rank_one():
    q = torsion_free_quotient([[2, 0]], STANDARD2)
    assert len(q) == 1
    assert sorted(abs(x) for x in q[0]) == [0, 1]
    assert abs(q[0][1]) == 1


def test_torsion_free_quotient_containment_error():
    with pytest.raises(InputError):
        torsion_free_quotient([[1, 0]], [[2, 0], [0, 2]])


def test_torsion_free_quotient_rejects_dependent_ambient_rows():
    with pytest.raises(InputError):
        torsion_free_quotient([[2, 0]], [[1, 0], [2, 0]])
    with pytest.raises(InputError):
        torsion_free_quotient([[1, 0, 0]], STANDARD2)


def test_quotient_rank_matches_saturation():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        m = IntMatrix.from_rows(rows)
        if m.rank() != m.rows:
            continue
        q = torsion_free_quotient(rows, IntMatrix.identity(4).entries)
        sat_rank = len(saturation(m))
        assert len(q) == 4 - sat_rank


def test_kernel_and_solve():
    A = IntMatrix.from_rows([[1, 2, 3]])
    ker = kernel_integer(A)
    assert len(ker) == 2
    for k in ker:
        assert sum(a * b for a, b in zip(A.entries[0], k)) == 0
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(A, column((4, 9))) == column((2, 3))
    assert solve_integer(A, column((3, 9))) is None
    assert solve_integer(A, IntMatrix.from_rows([[4, 2], [9, 3]])) == \
        IntMatrix.from_rows([[2, 1], [3, 1]])
    assert solve_integer(A, IntMatrix.from_rows([[4, 3], [9, 9]])) is None


def test_matrices_without_rows_or_columns():
    """Transposes and products take their shapes from rows and cols, not
    from the entries, so matrices with no rows work."""
    empty = IntMatrix(0, 3, ())
    assert empty.transpose() == IntMatrix(3, 0, ((), (), ()))
    assert empty.transpose().transpose() == empty
    assert IntMatrix(2, 0, ((), ())) @ empty == IntMatrix.from_rows([[0] * 3] * 2)
    assert IntMatrix(2, 0, ((), ())).transpose() == IntMatrix(0, 2, ())
    square = IntMatrix(0, 0, ())
    assert square.transpose() == square and square @ square == square
    assert square @ empty == IntMatrix(0, 3, ())


def test_row_basis_and_saturation():
    rows = row_lattice_basis(IntMatrix.from_rows([[2, 0], [0, 2], [1, 1]]))
    m = IntMatrix.from_rows(rows)
    assert m.rows == 2 and abs(m.det()) == 2
    assert saturation(IntMatrix.from_rows([[2, 0]])) == [(1, 0)]


def test_serialization_round_trip():
    m = IntMatrix.from_rows([[2**80, -1], [0, 7]])
    back = IntMatrix.from_json(m.to_json())
    assert back.entries == m.entries


# Scaled embedding of the all-entries Hom constraint U J = J U (as in
# tests/test_tori.py::single_stage_kernel) for Hom(E, E) with
# E = C / (Z + Z(0.3 + 1.7i)) at the default 128-bit precision: an identity
# block beside the constraint matrix scaled by 2^75 (entries up to 2^76).
# Past 2^53 a float-rounded size reduction cannot converge on it.
HOM_EMBEDDING_G1 = [
    [1, 0, 0, 0, 0, -66224245265654316987970, -22222901095857154527331, 0],
    [0, 1, 0, 0, 22222901095857154527331, 13333740657514292222951, 0,
     -22222901095857154527331],
    [0, 0, 1, 0, 66224245265654316987970, 0, -13333740657514292222951,
     -66224245265654316987970],
    [0, 0, 0, 1, 0, 66224245265654316987970, 22222901095857154527331, 0],
]

# its LLL basis at the default delta = 3/4
HOM_EMBEDDING_G1_REDUCED = [
    (1, 0, 0, 1, 0, 0, 0, 0),
    (-15, -149, 50, 15, -175173819, -31580599, 24672380, 175173819),
    (13510803208230733, 134207311868425279, -45036010694102445, -13510803208230733,
     1935629524213699, -29516893938185691, -10294722031112051, -1935629524213699),
    (3882965748130663168, 38570793098097920194, -12943219160435544374, -3882965748130663169,
     -11534369080729358566, 175884374618980006604, 61343958411885111127, 11534369080729358566),
]


def gram_schmidt_oracle(rows):
    """Exact Gram-Schmidt over Q: (mu, squared norms of the b*_i)."""
    ortho, norms, mu = [], [], []
    for b in rows:
        v = [Fraction(x) for x in b]
        coeffs = []
        for w, nw in zip(ortho, norms):
            c = sum(Fraction(x) * y for x, y in zip(b, w)) / nw
            coeffs.append(c)
            v = [x - c * y for x, y in zip(v, w)]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
        mu.append(coeffs)
    return mu, norms


def test_lll_reduces_hom_embedding_exactly():
    red = lll_reduce(HOM_EMBEDDING_G1)
    assert lattices_equal(red, HOM_EMBEDDING_G1)
    mu, norms = gram_schmidt_oracle(red)
    assert all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
    for k in range(1, len(red)):
        assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
    # the identity endomorphism is the only short vector, so LLL puts it first
    assert red[0] in {(1, 0, 0, 1, 0, 0, 0, 0), (-1, 0, 0, -1, 0, 0, 0, 0)}
    # the default delta is 3/4, and its basis is pinned bit for bit
    assert red == lll_reduce(HOM_EMBEDDING_G1, Fraction(3, 4)) == HOM_EMBEDDING_G1_REDUCED


def test_snf_of_lll_reduced_embedding():
    # a skewed input on which a remainder-swapping Smith form grows its
    # entries exponentially; HOM_EMBEDDING_G1 holds an identity block, so
    # every invariant factor is 1
    red = IntMatrix.from_rows(lll_reduce(HOM_EMBEDDING_G1))
    assert check_snf(red.transpose()) == [1, 1, 1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 2**30),
       st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)]))
def test_lll_random(n, extra, seed, delta):
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(n + extra)] for _ in range(n)]
    if IntMatrix.from_rows(rows).rank() < n:
        with pytest.raises(DegenerateInputError):
            lll_reduce(rows, delta)
        return
    red = lll_reduce(rows, delta)
    assert lattices_equal(red, rows)
    mu, norms = gram_schmidt_oracle(red)
    assert all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
    for k in range(1, n):
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]


@pytest.mark.parametrize("delta", [Fraction(1, 4), Fraction(1, 5), 0, 1, Fraction(5, 4), 0.75,
                                   mp.mpf("0.75"), "3/4", None])
def test_lll_rejects_a_bad_lovasz_constant(delta):
    with pytest.raises(InputError, match="delta"):
        lll_reduce([[1, 0], [0, 1]], delta)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [2, 4, 6]],
        [[1, 0], [0, 1], [1, 1]],
        [[0, 0, 0], [1, 0, 0]],
        [[3, 1, 4], [1, 5, 9], [4, 6, 13]],
    ],
)
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(DegenerateInputError):
        lll_reduce(rows)


def shells_oracle(rank, bound, positive_first):
    """Filter the whole box, one shell at a time, in itertools order."""
    import itertools

    out = []
    for h in range(1, bound + 1):
        for v in itertools.product(range(-h, h + 1), repeat=rank):
            if max(abs(c) for c in v) != h:
                continue
            if positive_first and next(c for c in v if c) < 0:
                continue
            out.append(v)
    return out


@pytest.mark.parametrize("positive_first", [False, True])
@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_coefficient_shells_match_box_oracle(rank, bound, positive_first):
    got = list(coefficient_shells(rank, bound, positive_first))
    assert got == shells_oracle(rank, bound, positive_first)
    full = (2 * bound + 1) ** rank - 1
    assert len(got) == (full // 2 if positive_first else full)


def test_int_combination():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [-1, 5]])
    assert int_combination((2, -3), (a, b)) == a.scale(2) + b.scale(-3)
    assert int_combination((0, 0), (a, b)) == IntMatrix.from_rows([[0, 0], [0, 0]])


def leibniz_det(rows):
    """Determinant as the signed sum over permutations, with no elimination."""
    import itertools

    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(Fraction(rows[i][perm[i]]) for i in range(n))
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fraction_det_matches_leibniz(n):
    rng = random.Random(n)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            rows[-1] = [2 * x for x in rows[0]]  # singular
        assert fraction_det(rows) == leibniz_det(rows)


@given(st.integers(1, 8), st.integers(0, 2**30))
def test_fraction_inverse_matches_column_solves(n, seed):
    rng = random.Random(seed)
    A = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    if A.det() == 0:
        with pytest.raises(DegenerateInputError):
            fraction_inverse(A)
        return
    ref = sympy.Matrix(A.entries).inv()
    inv = fraction_inverse(A)
    assert inv == tuple(tuple(Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(n))
                        for i in range(n))
    assert all(sum(A.entries[i][k] * inv[k][j] for k in range(n)) == int(i == j)
               for i in range(n) for j in range(n))


def test_fraction_inverse_singular_raises():
    with pytest.raises(DegenerateInputError):
        fraction_inverse(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))


def random_matrix(rng, rows, cols):
    """Entries in [-9, 9]; now and then a zero row or a row that repeats a
    combination of the others, so that ranks below min(rows, cols) occur."""
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (rows - 1)])]
    return IntMatrix.from_rows(m)


def random_unimodular(rng, n):
    """A product of random elementary row operations on the identity."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            v[i] = [-x for x in v[i]]
        else:
            q = rng.randint(-3, 3)
            v[i] = [x + q * y for x, y in zip(v[i], v[j])]
    return IntMatrix.from_rows(v)


def solve_integer_snf(A, b):
    """The Smith-form solve this module used before the Hermite form."""
    U, D, V = smith_normal_form(A)
    ub = U.apply(tuple(int(x) for x in b))
    y = [0] * A.cols
    r = min(D.rows, D.cols)
    for i in range(A.rows):
        d = D.entries[i][i] if i < r else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    return V.apply(tuple(y))


def lattices_equal_containment(a_rows, b_rows):
    """Lattice equality as mutual containment, one solve per generator."""
    def contained(A, B):
        bt = IntMatrix.from_rows(B).transpose()
        return all(solve_integer_snf(bt, row) is not None for row in A)

    return contained(a_rows, b_rows) and contained(b_rows, a_rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**30))
def test_hermite_normal_form_random(rows, cols, seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rows, cols)
    H, U = hermite_normal_form(A)
    assert is_unimodular(U)
    assert (U @ A).entries == H.entries + ((0,) * cols,) * (rows - H.rows)
    leads = [next(j for j, x in enumerate(r) if x) for r in H.entries]
    assert leads == sorted(set(leads))  # echelon: leading columns strictly increase
    for k, p in enumerate(leads):
        assert H.entries[k][p] > 0
        assert all(0 <= H.entries[i][p] < H.entries[k][p] for i in range(k))
    V = random_unimodular(rng, rows)
    assert hermite_normal_form(V @ A)[0] == H
    assert kernel_integer(V @ A) == kernel_integer(A)
    assert saturation(V @ A) == saturation(A)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**30))
def test_solve_and_equality_match_smith_references(rows, cols, seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rows, cols)
    for _ in range(3):
        if rng.random() < 0.5:  # in the image
            b = A.apply([rng.randint(-3, 3) for _ in range(cols)])
        else:
            b = [rng.randint(-9, 9) for _ in range(rows)]
        x = solve_integer(A, column(b))
        assert (x is None) == (solve_integer_snf(A, b) is None)
        if x is not None:
            assert A @ x == column(b)
    a_rows = [list(r) for r in A.entries]
    same = [list(r) for r in (random_unimodular(rng, rows) @ A).entries]
    other = [r[:] for r in a_rows]
    other[rng.randrange(rows)][rng.randrange(cols)] += rng.choice((-1, 1))
    for b_rows in (same, other, a_rows + [[2 * x for x in a_rows[0]]], [a_rows[0]]):
        assert lattices_equal(a_rows, b_rows) == lattices_equal_containment(a_rows, b_rows)


def test_solve_integer_rejects_wrong_length():
    with pytest.raises(InputError):
        solve_integer(IntMatrix.from_rows([[1, 0], [0, 1]]), column((1, 2, 3)))
    with pytest.raises(InputError):
        solve_integer(IntMatrix.from_rows([[1, 0], [0, 1]]), column((1,)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**30))
def test_solve_integer_solves_every_column_at_once(rows, cols, k, seed):
    """A X = B with several right-hand sides, some in the image of A and
    some not: None exactly when the Smith-form solve fails on some column,
    and otherwise A X = B; a B with no columns gives a cols x 0 matrix."""
    rng = random.Random(seed)
    A = random_matrix(rng, rows, cols)
    bs = [A.apply([rng.randint(-3, 3) for _ in range(cols)]) if rng.random() < 0.7
          else [rng.randint(-9, 9) for _ in range(rows)] for _ in range(k)]
    B = IntMatrix(rows, k, tuple(tuple(b[i] for b in bs) for i in range(rows)))
    X = solve_integer(A, B)
    assert (X is None) == any(solve_integer_snf(A, b) is None for b in bs)
    if X is not None:
        assert (X.rows, X.cols) == (cols, k)
        assert A @ X == B if k else X.entries == ((),) * cols


def test_multi_column_solves_make_one_hermite_form(monkeypatch):
    """fraction_inverse, an ideal's order action and a five-column solve
    each reduce against a single Hermite form."""
    import plectic.lattices as lattices
    from plectic.numberfields import FieldOrder, FractionalIdealRep

    ideal = FractionalIdealRep(FieldOrder.quadratic(0, -20),
                               ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    calls = []

    def counted(m):
        calls.append(m)
        return hermite_normal_form(m)

    monkeypatch.setattr(lattices, "hermite_normal_form", counted)
    A = IntMatrix.from_rows([[2, 1, 0, 3], [0, 1, 4, 1], [1, 0, 1, 0], [3, 2, 0, 5]])
    fraction_inverse(A)
    assert len(calls) == 1
    ideal.action(1)
    assert len(calls) == 2
    B = A @ IntMatrix.from_rows([[1, 0, 2, -1, 3], [0, 1, 1, 1, 0],
                                 [2, -1, 0, 0, 1], [0, 0, 1, 2, -2]])
    assert A @ solve_integer(A, B) == B
    assert len(calls) == 3


def paired_hermite_normal_form(m: IntMatrix):
    """hermite_normal_form before the one elimination: the transform u
    built beside a, and every Bezout row step made on both."""
    R, C = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    r = 0
    for j in range(C):
        if r == R:
            break
        for i in range(r + 1, R):
            if a[i][j]:
                g, x, y = _xgcd(a[r][j], a[i][j])
                p, q = a[r][j] // g, a[i][j] // g
                for w in (a, u):
                    w[r], w[i] = ([x * s + y * t for s, t in zip(w[r], w[i])],
                                  [p * t - q * s for s, t in zip(w[r], w[i])])
        if not a[r][j]:
            continue
        if a[r][j] < 0:
            a[r], u[r] = [-s for s in a[r]], [-s for s in u[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                for w in (a, u):
                    w[i] = [s - q * t for s, t in zip(w[i], w[r])]
        r += 1
    H = IntMatrix(r, C, tuple(tuple(row) for row in a[:r]))
    return H, IntMatrix(R, R, tuple(tuple(row) for row in u))


def two_form_kernel_integer(A: IntMatrix):
    """kernel_integer before the one elimination: the Hermite form of the
    rows of U past the rank, for U*A^T = H."""
    H, U = paired_hermite_normal_form(A.transpose())
    if H.rows == A.cols:
        return []
    return list(paired_hermite_normal_form(IntMatrix.from_rows(U.entries[H.rows:]))[0].entries)


def two_form_saturation(A: IntMatrix):
    """saturation before the one elimination: four Hermite forms."""
    ker = two_form_kernel_integer(A)
    if not ker:
        return [tuple(r) for r in IntMatrix.identity(A.cols).entries]
    return two_form_kernel_integer(IntMatrix.from_rows(ker))


@st.composite
def degenerate_matrices(draw):
    """Up to 6 x 8, entries in [-9, 9]; each row fresh, zero, a repeat of
    an earlier row or a small combination of two earlier rows, so zero
    rows, repeated rows and every rank below min(rows, cols) occur."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.integers(-9, 9)
    m = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")) if m
                    else st.sampled_from(("fresh", "zero")))
        if kind == "zero":
            m.append([0] * cols)
        elif kind == "repeat":
            m.append(list(draw(st.sampled_from(m))))
        elif kind == "combination":
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            r1, r2 = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            m.append([max(-9, min(9, a * x + b * y)) for x, y in zip(r1, r2)])
        else:
            m.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return IntMatrix.from_rows(m)


@settings(max_examples=300, deadline=None)
@given(degenerate_matrices())
def test_one_elimination_matches_the_paired_references(A):
    """H and U bit for bit, and the kernel, saturation, row basis and rank
    of the one elimination equal those of the paired (a, u) steps."""
    H, U = paired_hermite_normal_form(A)
    assert hermite_normal_form(A) == (H, U)
    assert row_lattice_basis(A) == list(H.entries)
    assert A.rank() == H.rows
    assert kernel_integer(A) == two_form_kernel_integer(A)
    assert saturation(A) == two_form_saturation(A)


def test_kernel_and_saturation_of_no_rows():
    """A matrix with no rows has all of Z^cols as its kernel, and the
    saturation of its (zero) row lattice is zero."""
    empty = IntMatrix(0, 3, ())
    assert kernel_integer(empty) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert saturation(empty) == []
    assert saturation(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == \
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_row_basis_and_rank_carry_no_transform():
    """1,500 integer combinations of four rows of Z^16: their Hermite basis
    and rank come out within a 4 MB tracemalloc peak, where a 1,500 x 1,500
    transform alone takes about 36 MB."""
    rng = random.Random(16)
    base = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(4)]
    A = IntMatrix.from_rows(
        [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(16)]
         for cs in ([rng.randint(-5, 5) for _ in range(4)] for _ in range(1500))])
    for f, want in ((row_lattice_basis, 4), (IntMatrix.rank, 4)):
        tracemalloc.start()
        try:
            got = f(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got if isinstance(got, int) else len(got)) == want
        assert peak <= 4_000_000, f"{f.__qualname__}: tracemalloc peak {peak / 1e6:.1f} MB"
