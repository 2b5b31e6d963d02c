import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        d = cx.det(A)
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
            assert cx.det(M) == 0
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
        assert cx.det(mp.matrix([[0, 1], [1, 0]])) == -1
        assert cx.det(mp.matrix([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30
