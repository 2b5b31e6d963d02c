"""The exact integer polynomial routines of plectic.tori and
plectic.numberfields, checked against sympy (a test dependency only)."""

import itertools

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
from plectic.tori import _min_poly

X = sympy.Symbol("x")


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
    assert _min_poly(N) == sympy_min_poly(N)


@pytest.mark.parametrize("rows", [
    [[0, 0], [0, 0]],
    [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
], ids=["zero", "scalar", "repeated-eigenvalue", "repeated-block", "jordan"])
def test_min_poly_of_derogatory_matrices(rows):
    N = IntMatrix.from_rows(rows)
    assert _min_poly(N) == sympy_min_poly(N)


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
