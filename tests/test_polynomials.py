"""The exact integer polynomial routines of plectic.tori and
plectic.numberfields, checked against sympy (a test dependency only), and
tori._rm_poly checked against the minimal-polynomial test it replaces: the
Krylov minimal polynomial, kept here as the reference."""

import functools
import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from plectic.lattices import IntMatrix
from plectic.numberfields import (
    _generates_totally_real_field,
    _is_irreducible,
    _real_root_count,
)
from plectic.tori import _rm_poly

X = sympy.Symbol("x")


def krylov_min_poly(N: IntMatrix) -> tuple:
    """Minimal polynomial of a square integer matrix: monic, with integer
    coefficients, highest degree first.

    It is the first linear dependency among vec(I), vec(N), vec(N^2), ...
    (Krylov), found by fraction-free elimination on Python ints: each power
    is reduced against the echelon rows of the earlier ones, carrying its
    combination of the powers, until one reduces to zero.  The monic
    minimal polynomial divides the characteristic polynomial, so its
    coefficients are integers (Gauss's lemma) and the last division is
    exact.
    """
    n = N.rows
    echelon = []  # (pivot column, reduced row, its combination of the powers)
    P = IntMatrix.identity(n)
    for k in range(n + 1):  # Cayley-Hamilton: a dependency by k = n
        row = [x for r in P.entries for x in r]
        combo = [int(j == k) for j in range(n + 1)]
        for piv, erow, ecombo in echelon:
            c = row[piv]
            if c:
                a = erow[piv]
                row = [a * x - c * y for x, y in zip(row, erow)]
                combo = [a * x - c * y for x, y in zip(combo, ecombo)]
        if not any(row):
            return tuple(c // combo[k] for c in reversed(combo[:k + 1]))
        g = math.gcd(*row, *combo)
        echelon.append((next(i for i, x in enumerate(row) if x),
                        [x // g for x in row], [x // g for x in combo]))
        P = P @ N
    raise AssertionError("unreachable: the characteristic polynomial annihilates N")


def sympy_min_poly(N: IntMatrix):
    """The least-degree product of powers of the irreducible factors of the
    characteristic polynomial that annihilates N."""
    M = sympy.Matrix(N.entries)
    factors = sympy.factor_list(M.charpoly(X).as_expr(), X)[1]
    products = [sympy.Poly(sympy.Mul(*(f**e for (f, _), e in zip(factors, exps))), X)
                for exps in itertools.product(*(range(1, e + 1) for _, e in factors))]
    for p in sorted(products, key=lambda p: p.degree()):
        value = sympy.zeros(N.rows)
        for c in p.all_coeffs():  # Horner
            value = value * M + c * sympy.eye(N.rows)
        if value.is_zero_matrix:
            return tuple(int(c) for c in p.all_coeffs())
    raise AssertionError("the characteristic polynomial annihilates N")


def sympy_coeffs(expr):
    return tuple(int(c) for c in sympy.Poly(expr, X).all_coeffs())


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(square_matrices)
def test_min_poly_matches_sympy(rows):
    N = IntMatrix.from_rows(rows)
    assert krylov_min_poly(N) == sympy_min_poly(N)


@pytest.mark.parametrize("rows", [
    [[0, 0], [0, 0]],
    [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
], ids=["zero", "scalar", "repeated-eigenvalue", "repeated-block", "jordan"])
def test_min_poly_of_derogatory_matrices(rows):
    N = IntMatrix.from_rows(rows)
    assert krylov_min_poly(N) == sympy_min_poly(N)


@pytest.mark.parametrize("expr, degree, expected", [
    (X**2 - 2, 2, True),
    (X**2 - 4, 2, False),
    ((X - 1) * (X - 2), 2, False),
    ((X**2 - 2) * (X**2 - 3), 4, False),
    (X**3 - 3 * X + 1, 3, True),
    (X**3 - 2, 3, False),
], ids=["x2-2", "x2-4", "(x-1)(x-2)", "(x2-2)(x2-3)", "x3-3x+1", "x3-2"])
def test_totally_real_field_fixed_cases(expr, degree, expected):
    p = sympy_coeffs(expr)
    P = sympy.Poly(expr, X)
    assert _real_root_count(p) == len(P.real_roots())
    if _real_root_count(p) == degree:  # the one case its caller lets through
        assert _is_irreducible(p) == P.is_irreducible
    assert _generates_totally_real_field(p, degree) is expected
    assert not _generates_totally_real_field(p, degree + 1)


monic = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(lambda c: (1, *c)))
small_monic = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(lambda c: (1, *c)))
products = st.tuples(small_monic, small_monic).map(
    lambda pq: sympy_coeffs(sympy.Poly(pq[0], X) * sympy.Poly(pq[1], X)))


def symmetric_charpoly(n):
    """Characteristic polynomials of A + A^T, A an n x n integer matrix:
    all their roots are real, and they are irreducible more often than not."""
    return st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda a: sympy.Poly((sympy.Matrix(n, n, a) + sympy.Matrix(n, n, a).T).charpoly(X)
                             .as_expr(), X))


# squarefree, all roots real, degree 3-8, reducible and irreducible: the two
# strategies above rarely give such polynomials, the only ones that reach the
# root intervals of _is_irreducible
totally_real = st.one_of(
    st.integers(3, 8).flatmap(symmetric_charpoly),
    st.tuples(st.integers(1, 4).flatmap(symmetric_charpoly),
              st.integers(2, 4).flatmap(symmetric_charpoly)).map(lambda pq: pq[0] * pq[1]),
).filter(lambda P: P.degree() <= 8 and P.is_sqf).map(lambda P: sympy_coeffs(P.as_expr()))


@settings(max_examples=120, deadline=None)
@given(st.one_of(monic, products, totally_real))
def test_sturm_count_and_irreducibility_match_sympy(p):
    P = sympy.Poly(p, X)
    d = len(p) - 1
    assert _real_root_count(p) == len(P.sqf_part().real_roots())
    if _real_root_count(p) == d:
        assert _is_irreducible(p) == P.is_irreducible
    assert _generates_totally_real_field(p, d) == (P.is_irreducible
                                                   and len(P.real_roots()) == d)


@functools.cache
def sympy_totally_real_quadratic(e, c):
    """sympy's verdict on x^2 + e x + c: irreducible with two real roots."""
    P = sympy.Poly((1, e, c), X)
    return P.count_roots() == 2 and P.is_irreducible


def test_quadratic_field_test_matches_sympy():
    """Every monic x^2 + bx + c with |b|, |c| <= 60: negative, zero and
    square discriminants.  Both properties survive x -> x - j, so sympy
    decides the translate x^2 + ex + (c - j(j + e)), b = 2j + e, e in
    {0, 1}, once for all (b, c) that share it."""
    for b in range(-60, 61):
        j, e = divmod(b, 2)
        for c in range(-60, 61):
            assert _generates_totally_real_field((1, b, c), 2) is \
                sympy_totally_real_quadratic(e, c - j * (j + e)), (b, c)


# ----------------------------------------------------------------------
# tori._rm_poly against the minimal-polynomial path it replaces
# ----------------------------------------------------------------------


def old_rm_poly(N: IntMatrix, g: int):
    """The per-candidate test `detect_rm` ran before `_rm_poly`."""
    p = krylov_min_poly(N)
    return p if _generates_totally_real_field(p, g) else None


def companion(m):
    """Companion matrix of the monic m (highest degree first)."""
    d = len(m) - 1
    return [[int(i == j + 1) for j in range(d - 1)] + [-m[d - i]] for i in range(d)]


def blocks(rows_of_blocks):
    """Block matrix from a grid of equal-size square blocks, None for zero."""
    d = next(len(b) for row in rows_of_blocks for b in row if b is not None)
    return [sum(((b[i] if b is not None else [0] * d) for b in row), [])
            for row in rows_of_blocks for i in range(d)]


def conjugate(rows, ops):
    """U N U^-1, U the product of the row operations row_i += k row_j in ops."""
    N = IntMatrix.from_rows(rows)
    n = N.rows
    for i, j, k in ops:
        if i % n == j % n:
            continue
        E = [[int(a == b) for b in range(n)] for a in range(n)]
        E_inv = [r[:] for r in E]
        E[i % n][j % n], E_inv[i % n][j % n] = k, -k
        N = IntMatrix.from_rows(E) @ N @ IntMatrix.from_rows(E_inv)
    return N


def assert_rm_poly_matches(N: IntMatrix, g: int):
    expected = old_rm_poly(N, g)
    assert _rm_poly(N, g) == expected
    return expected


row_ops = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
                   max_size=6)
random_even = st.sampled_from([4, 6]).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n))
# diag(C_m, C_m) for a random monic m of degree 2 or 3, in a random basis: both
# accepted and rejected candidates, the latter with traces that pass
doubled_companions = st.tuples(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(lambda c: (1, *c))),
    row_ops,
).map(lambda mo: conjugate(blocks([[companion(mo[0]), None], [None, companion(mo[0])]]), mo[1]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_even.map(IntMatrix.from_rows), doubled_companions))
def test_rm_poly_matches_min_poly_path(N):
    assert_rm_poly_matches(N, N.rows // 2)


RM_POLYS = [(1, 0, -2), (1, -1, -1), (1, 0, -3, 1)]


@pytest.mark.parametrize("m", RM_POLYS, ids=["x2-2", "x2-x-1", "x3-3x+1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rm_poly_accepts_doubled_companion(m, seed):
    rng = random.Random(seed)
    C = companion(m)
    ops = [(rng.randrange(6), rng.randrange(6), rng.choice((-2, -1, 1, 2))) for _ in range(8)]
    N = conjugate(blocks([[C, None], [None, C]]), ops)
    assert assert_rm_poly_matches(N, len(m) - 1) == m


@pytest.mark.parametrize("m", RM_POLYS, ids=["x2-2", "x2-x-1", "x3-3x+1"])
def test_rm_poly_rejects_non_semisimple_block(m):
    """[[C_m, I], [0, C_m]] has characteristic polynomial m^2, so its half
    traces give m, which passes the field test; only m(N) != 0 rejects it."""
    C = companion(m)
    d = len(m) - 1
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    N = IntMatrix.from_rows(blocks([[C, ident], [None, C]]))
    semisimple = IntMatrix.from_rows(blocks([[C, None], [None, C]]))
    P, Q = N, semisimple
    for _ in range(d):
        assert sum(P.entries[i][i] for i in range(2 * d)) == sum(
            Q.entries[i][i] for i in range(2 * d))
        P, Q = P @ N, Q @ semisimple
    assert _generates_totally_real_field(m, d)
    assert assert_rm_poly_matches(N, d) is None


@pytest.mark.parametrize("rows, g", [
    (blocks([[companion((1, 0, 1)), None], [None, companion((1, 0, 2))]]), 2),
    ([[0] * 4 for _ in range(4)], 2),
    ([[0] * 6 for _ in range(6)], 3),
    ([[3 * (i == j) for j in range(4)] for i in range(4)], 2),
    ([[-2 * (i == j) for j in range(6)] for i in range(6)], 3),
    (blocks([[companion((1, -3, 2)), None], [None, companion((1, -3, 2))]]), 2),
    (blocks([[companion((1, -3, 2)), None], [None, companion((1, 0, -2))]]), 2),
], ids=["cm-product", "zero-4", "zero-6", "scalar-4", "scalar-6", "(x-1)(x-2)-doubled",
        "(x-1)(x-2)+(x2-2)"])
def test_rm_poly_rejects_non_rm_candidates(rows, g):
    assert assert_rm_poly_matches(IntMatrix.from_rows(rows), g) is None
