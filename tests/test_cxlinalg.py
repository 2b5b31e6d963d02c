import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raw, reference_frob, reference_lu, reference_solve

from plectic import cxlinalg as cx
from plectic.config import get_precision, working_precision
from plectic.errors import DegenerateInputError, InputError


def random_matrix(n, cols, complex_entries, seed):
    """Gaussian entries, each row scaled by its own power of two so that
    partial pivoting has a choice to make."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        scale = mp.ldexp(1, rng.randint(-20, 20))
        rows.append([scale * (mp.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) if complex_entries
                              else mp.mpf(rng.gauss(0, 1))) for _ in range(cols)])
    return mp.matrix(rows)


def det(A):
    """det(A) from `lu`, and 0 when `lu` finds A singular."""
    f = cx.lu(A)
    return mp.mpf(0) if f is None else f.det()


def unit_roundoff():
    return mp.mpf(2) ** -get_precision()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.booleans(), st.integers(0, 2**30))
def test_inverse_residual_is_rounding(n, complex_entries, seed):
    A = random_matrix(n, n, complex_entries, seed)
    with working_precision():
        X = cx.inverse(A)
        resid = cx.frob(A * X - mp.eye(n))
        assert resid <= n * unit_roundoff() * cx.frob(A) * cx.frob(X)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 16), st.booleans(), st.integers(0, 2**30))
def test_solve_and_det_match_mpmath(n, complex_entries, seed):
    """Both LUs are backward stable, so their answers agree to the roundoff
    times the condition number kappa = ||A||_F ||A^-1||_F."""
    A = random_matrix(n, n, complex_entries, seed)
    b = random_matrix(n, 1, complex_entries, seed + 1)
    with working_precision():
        kappa = cx.frob(A) * cx.frob(cx.inverse(A))
        bound = mp.mpf(2) ** (8 - get_precision()) * kappa
        x = cx.solve(A, b)
        assert cx.frob(x - mp.lu_solve(A, b)) <= bound * cx.frob(x)
        d = det(A)
        assert abs(d - mp.det(A)) <= bound * abs(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.booleans(), st.integers(0, 2**30))
def test_singular_matrices_have_no_lu(n, complex_entries, seed):
    """An exact zero column, a repeated row, and a product of integer factors
    of rank below n: `lu` returns None and never raises."""
    rng = random.Random(seed)
    A = random_matrix(n, n, complex_entries, seed)
    zero_col = A.copy()
    j = rng.randrange(n)
    for i in range(n):
        zero_col[i, j] = 0
    repeated = A.copy()
    i, k = rng.sample(range(n), 2)
    for j in range(n):
        repeated[k, j] = repeated[i, j]
    r = rng.randrange(1, n)
    B = mp.matrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)])
    C = mp.matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)])
    with working_precision():
        for M in (zero_col, repeated, B * C):
            assert cx.lu(M) is None
            assert det(M) == 0
            with pytest.raises(DegenerateInputError):
                cx.inverse(M)


def test_lu_needs_a_square_matrix():
    with pytest.raises(InputError):
        cx.lu(mp.matrix(2, 3))
    with pytest.raises(InputError):
        cx.solve(mp.matrix(2, 3), mp.matrix(2, 1))


def test_solve_of_a_block_matches_its_columns():
    A = random_matrix(5, 5, True, 7)
    B = random_matrix(5, 3, True, 8)
    with working_precision():
        factors = cx.lu(A)
        X = factors.solve(B)
        assert cx.frob(A * X - B) < mp.mpf(10) ** -35 * cx.frob(B)
        for j in range(3):
            assert factors.solve(B[:, j]).tolist() == X[:, j].tolist()


def test_det_sign_follows_row_swaps():
    with working_precision():
        assert det(mp.matrix([[0, 1], [1, 0]])) == -1
        assert det(mp.matrix([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30


def _real(exponents, special):
    """An mpf: 0, an odd mantissa of up to 600 bits at an exponent drawn
    from `exponents`, or (when `special`) inf, -inf or nan."""
    values = [st.just(mp.mpf(0)),
              st.builds(lambda m, s, e: mp.mpf((s, 2 * m + 1, e, (2 * m + 1).bit_length())),
                        st.integers(0, 2**600), st.integers(0, 1), exponents)]
    if special:
        values.append(st.sampled_from([mp.inf, -mp.inf, mp.nan]))
    return st.one_of(*values)


@st.composite
def _dot_case(draw):
    """Two vectors of mpf and mpc with an offset k into the first, at a
    precision of 53-522 bits.  Exponents cluster near a centre in [-1000,
    1000] or spread across all of it; some terms repeat with the sign of
    one factor flipped, so that parts of the sum cancel exactly."""
    centre = draw(st.integers(-1000, 1000))
    exponents = draw(st.sampled_from([st.integers(centre - 8, centre + 8),
                                      st.integers(-1000, 1000)]))
    real = _real(exponents, draw(st.integers(0, 9)) == 0)
    entry = st.one_of(real, st.builds(mp.mpc, real, real))
    n = draw(st.integers(0, 20))
    a = draw(st.lists(entry, min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    for t in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n // 2 if n else 0)):
        a.append(a[t])
        b.append(-b[t])
    order = draw(st.permutations(range(len(a))))
    a, b = [a[t] for t in order], [b[t] for t in order]
    head = draw(st.lists(entry, max_size=3))
    return head + a, b, len(head), draw(st.integers(53, 522))


@settings(max_examples=400, deadline=None)
@given(_dot_case())
def test_dot_kernel_is_fdot_bit_for_bit(case):
    """mpf or mpc alike, the kernel returns what `mp.fdot` does."""
    a, b, k, prec = case
    with mp.workprec(prec):
        assert raw(cx._dot(cx._Vec(a), cx._Vec(b), k)) == raw(mp.fdot(a[k:], b))


@pytest.mark.parametrize("a,b,k,want", [
    # 2^-108 lies 107 bits below 1, past 2 * 53: mpf_sum drops it
    ([1, 2**-108, -1], [1, 1, 1], 0, 0),
    ([1, 2**-107, -1], [1, 1, 1], 0, 2**-107),
    # the same drop where every partial sum stays above the term's size
    ([1, 2**-108, mp.ldexp(1 - 2**107, -107)], [1, 1, 1], 0, 2**-107),
    # 1 arrives 108 bits above the running sum 2^-108, which mpf_sum drops
    ([2**-108, 1, -1], [1, 1, 1], 0, 0),
    # the real parts of the first pair leave a running sum of 1 before 2^108
    # arrives and replaces it
    ([(2**60 + 1, 2**60), 2**108, -2**108, 2**40], [(1, 1), 1, 1, 1], 0, (2**40, 2**61)),
    ([], [], 0, 0),
    ([(0, 0)], [1], 0, (0, 0)),
    # an mpc before the offset does not make the result an mpc
    ([(1, 1), 2, 3], [5, 7], 1, 31),
], ids=["term-dropped", "term-kept", "term-dropped-large-sums", "sum-dropped",
        "complex-sum-dropped", "empty", "complex-zero", "offset"])
def test_dot_kernel_keeps_what_mpf_sum_drops(a, b, k, want):
    """At 53 bits `mp.fdot` loses terms across gaps of more than 106 bits,
    and the kernel returns what it returns.  Entries are exact: an int, a
    dyadic float or an mpf, or a pair of them for an mpc."""
    def exact(x):
        with mp.workprec(400):
            return mp.mpc(*x) if isinstance(x, tuple) else mp.mpf(x)

    a, b, want = [exact(x) for x in a], [exact(x) for x in b], exact(want)
    with mp.workprec(53):
        got = cx._dot(cx._Vec(a), cx._Vec(b), k)
        assert raw(got) == raw(mp.fdot(a[k:], b)) == raw(want)


def _mixed_matrix(rows, cols, seed, spread=20):
    """Entries mpf, mpc or exact zero, each row scaled by 2^[-spread, spread]."""
    rng = random.Random(seed)
    out = mp.matrix(rows, cols)
    for i in range(rows):
        scale = mp.ldexp(1, rng.randint(-spread, spread))
        for j in range(cols):
            kind = rng.randrange(3)
            if kind:
                x = mp.mpf(rng.gauss(0, 1)) / 3
                out[i, j] = scale * (x if kind == 1 else mp.mpc(x, mp.mpf(rng.gauss(0, 1)) / 7))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 300),
       st.integers(0, 2**30))
def test_matmul_is_mpmath_product(rows, inner, cols, spread, seed):
    A = _mixed_matrix(rows, inner, seed, spread)
    B = _mixed_matrix(inner, cols, seed + 1, spread)
    with working_precision():
        assert raw(cx.matmul(A, B)) == raw(A * B)
    assert raw(cx.matmul(A, B)) == raw(A * B)  # at mpmath's own precision
    with pytest.raises(ValueError):
        cx.matmul(A, mp.matrix(inner + 1, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 300), st.integers(0, 2**30))
def test_frob_rounds_as_the_mpf_loop(rows, cols, spread, seed):
    A = _mixed_matrix(rows, cols, seed, spread)
    with mp.workprec(300):  # entries carry more bits than the working precision
        A = A * mp.mpf(1) / 3
    assert raw(cx.frob(A)) == raw(reference_frob(A))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 300), st.integers(0, 2**30),
       st.booleans())
def test_sub_is_mpmath_difference(rows, cols, spread, seed, long_b):
    """Mixed mpf, mpc and zero entries, with A and (when long_b) B carrying
    more bits than the precision, so that the negation of B rounds too."""
    A, B = _mixed_matrix(rows, cols, seed, spread), _mixed_matrix(rows, cols, seed + 1, spread)
    with mp.workprec(300):
        A = A * mp.mpf(1) / 3
        if long_b:
            B = B * mp.mpf(1) / 7
    with working_precision():
        assert raw(cx.sub(A, B)) == raw(A - B)
    assert raw(cx.sub(A, B)) == raw(A - B)  # at mpmath's own precision
    with pytest.raises(ValueError):
        cx.sub(A, mp.matrix(rows + 1, cols))


def _same_lu(A, B):
    """`lu(A)` and `LU.solve(B)` against the mp.fdot reference, bit for bit."""
    f, ref = cx.lu(A), reference_lu(A)
    if ref is None:
        assert f is None
        return
    assert raw([f.perm, f.lower, f.diag, f.upper, f.sign, f.prec]) == raw(list(ref))
    assert raw(f.solve(B)) == raw(reference_solve(ref, B))
    assert raw(f.solve(mp.eye(A.rows))) == raw(reference_solve(ref, mp.eye(A.rows)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 400), st.integers(0, 2**30))
def test_lu_and_solve_are_the_fdot_crout(n, spread, seed):
    """Mixed mpf/mpc entries with rows scaled up to 2^400 apart, and the
    three singular shapes of `test_singular_matrices_have_no_lu`."""
    rng = random.Random(seed)
    A = _mixed_matrix(n, n, seed, spread)
    B = _mixed_matrix(n, 3, seed + 1, spread)
    with working_precision():
        _same_lu(A, B)
        if n >= 2:
            zero_col, repeated = A.copy(), A.copy()
            j, (i, k) = rng.randrange(n), rng.sample(range(n), 2)
            for t in range(n):
                zero_col[t, j] = 0
                repeated[k, t] = repeated[i, t]
            r = rng.randrange(1, n)
            L = mp.matrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)])
            R = mp.matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)])
            for M in (zero_col, repeated, L * R):
                assert cx.lu(M) is None and reference_lu(M) is None
