import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plectic import numberfields
from plectic.errors import InputError
from plectic.lattices import coefficient_shells
from plectic.numberfields import FieldOrder, FractionalIdealRep


def test_rationals():
    Q = FieldOrder.rationals()
    assert Q.degree == 1 and Q.is_maximal
    assert [[float(x) for x in row] for row in Q.embeddings()] == [[1.0]]


def test_quadratic_maximal_detection():
    assert FieldOrder.quadratic_maximal(5).min_poly == (1, -1, -1)
    assert FieldOrder.quadratic_maximal(2).min_poly == (1, 0, -2)
    assert FieldOrder.quadratic(0, -5).is_maximal is False  # Z[sqrt5] is index 2
    assert FieldOrder.quadratic(0, -18).is_maximal is False  # Z[3 sqrt2]


def test_not_totally_real_rejected():
    with pytest.raises(InputError):
        FieldOrder.quadratic(0, 1)  # x^2 + 1


def test_reducible_min_poly_rejected():
    with pytest.raises(InputError, match="irreducible"):
        FieldOrder.quadratic(3, 2)  # (x - 1)(x - 2): Z x Z, not an order in a field
    table = (((1, 0), (0, 1)), ((0, 1), (-1, 2)))  # w^2 = 2w - 1
    with pytest.raises(InputError, match="irreducible"):
        FieldOrder(2, (1, -2, 1), table)  # (x - 1)^2


def test_embeddings_sorted():
    O5 = FieldOrder.quadratic_maximal(5)
    emb = O5.embeddings()
    assert float(emb[0][1]) < float(emb[1][1])


def test_norm_and_mult():
    O2 = FieldOrder.quadratic_maximal(2)
    x = (Fraction(3), Fraction(1))  # 3 + sqrt2
    assert O2.norm(x) == Fraction(7)
    y = O2.mul_coords(x, x)  # (3 + sqrt2)^2 = 11 + 6 sqrt2
    assert y == (Fraction(11), Fraction(6))


def test_nonprincipal_ideal_class():
    O10 = FieldOrder.quadratic_maximal(10)
    P2 = FractionalIdealRep(O10, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    assert P2.norm() == 2
    assert P2.is_principal(30) is None
    assert not P2.same_class(O10.unit_ideal())
    assert P2.same_class(P2)
    sq = P2.multiply(P2)  # (2) is principal
    assert sq.is_principal(30) is not None


def test_principal_ideal_class():
    O10 = FieldOrder.quadratic_maximal(10)
    gen = (Fraction(4), Fraction(1))  # norm 6
    I = O10.unit_ideal().scaled(gen)
    assert I.norm() == 6
    assert I.same_class(O10.unit_ideal())


def _rows(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_same_class_finds_generator_beyond_search_bound():
    """P = (2, sqrt46) is principal, generated by 156 + 23 sqrt46 of norm
    2, whose height is above 50: the search misses it, the class check
    does not."""
    O46 = FieldOrder.quadratic_maximal(46)
    P = FractionalIdealRep(O46, _rows((2, 0), (0, 1)))
    assert O46.norm((156, 23)) == 2 and P._coordinates([(156, 23)]) is not None
    assert P.same_class(O46.unit_ideal())
    assert P.is_principal(50) is None
    for bound in (0, -1):
        with pytest.raises(InputError, match="search_bound"):
            P.is_principal(bound)


def test_same_class_fixed_cases():
    O10 = FieldOrder.quadratic_maximal(10)  # class number 2
    P2 = FractionalIdealRep(O10, _rows((2, 0), (0, 1)))
    assert not P2.same_class(O10.unit_ideal())
    assert P2.multiply(P2).same_class(O10.unit_ideal())

    O79 = FieldOrder.quadratic_maximal(79)  # class number 3
    P3 = FractionalIdealRep(O79, _rows((3, 0), (1, 1)))  # (3, 1 + sqrt79)
    P3sq = P3.multiply(P3)
    cube = P3sq.multiply(P3)
    assert not P3.same_class(O79.unit_ideal())
    assert not P3sq.same_class(O79.unit_ideal())
    assert cube.same_class(O79.unit_ideal())
    assert cube.is_principal(50) is not None
    assert P3sq.same_class(P3.conjugate())  # P3 conj(P3) = (3)
    assert not P3.same_class(P3.conjugate())

    O20 = FieldOrder.quadratic(0, -20)  # Z[sqrt20], inside Z[sqrt5] with index 2
    I = FractionalIdealRep(O20, _rows((2, 0), (0, 1)))  # (2, sqrt20)
    sqrt5 = (0, Fraction(1, 2))  # not in Z[sqrt20], yet sqrt5 * I lies in I
    assert I._coordinates([O20.mul_coords(sqrt5, row) for row in I.basis]) is not None
    assert not I.same_class(O20.unit_ideal())
    assert not I.same_class(I)  # I conj(I) = 2 I, not principal in Z[sqrt20]
    assert I.is_principal(50) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-60, 10), st.integers(-12, 12), st.integers(0, 2**16),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(1, 7))
def test_same_class_decision(t, n, b, pick, gen, den):
    """The ideal I = (a, b + w) of Z[w], w^2 = t w - n, for a divisor a of
    Nm(b + w).  Its form is a (a, 2b + t, c), c = Nm(b + w) / a, so I is
    invertible exactly when gcd(a, 2b + t, c) = 1."""
    disc = t * t - 4 * n
    assume(disc > 0 and math.isqrt(disc) ** 2 != disc and gen != (0, 0))
    O = FieldOrder.quadratic(t, n)
    norm_b = b * b + t * b + n
    divisors = [a for a in range(1, abs(norm_b) + 1) if norm_b % a == 0]
    a = divisors[pick % len(divisors)]
    I = FractionalIdealRep(O, _rows((a, 0), (b, 1)))
    invertible = math.gcd(a, 2 * b + t, norm_b // a) == 1
    principal = I.same_class(O.unit_ideal())
    assert I.same_class(I) == invertible
    if norm_oracle_generator(I, 4) is not None:
        assert principal
    x = (Fraction(gen[0], den), Fraction(gen[1]))
    assert I.scaled(x).same_class(O.unit_ideal()) == principal
    assert I.scaled(x).same_class(I) == invertible


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-60, 10), st.integers(-12, 12), st.integers(0, 2**16),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.integers(1, 7),
       st.integers(-4, 4), st.integers(1, 3))
def test_ideal_action_matches_rational_solve(t, n, b, pick, gen, den, skew, q):
    """action(k) against sympy's rational solve of B^T X = P_k, with the
    basis rows as the columns of B^T and the products omega_k * row as
    those of P_k, on x (a, b + w) in a skewed basis, with the second row
    scaled by q.  The rows span an ideal exactly when every X is integral;
    otherwise the constructor raises InputError."""
    disc = t * t - 4 * n
    assume(disc > 0 and math.isqrt(disc) ** 2 != disc and gen != (0, 0))
    O = FieldOrder.quadratic(t, n)
    norm_b = b * b + t * b + n
    divisors = [d for d in range(1, abs(norm_b) + 1) if norm_b % d == 0]
    a = divisors[pick % len(divisors)]
    x = (Fraction(gen[0], den), Fraction(gen[1]))
    r0, r1 = FractionalIdealRep(O, _rows((a, 0), (b, 1))).scaled(x).basis
    rows = (tuple(u + skew * v for u, v in zip(r0, r1)), tuple(q * v for v in r1))
    units = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    Bt = sympy.Matrix(2, 2, lambda i, j: sympy.Rational(rows[j][i]))
    want = [Bt.solve(sympy.Matrix(2, 2, lambda i, j: sympy.Rational(O.mul_coords(u, rows[j])[i])))
            for u in units]
    if all(v.is_integer for X in want for v in X):
        ideal = FractionalIdealRep(O, rows)
        for k, X in enumerate(want):
            assert ideal.action(k).entries == tuple(tuple(int(v) for v in X.row(i))
                                                    for i in range(2))
    else:
        with pytest.raises(InputError):
            FractionalIdealRep(O, rows)


def test_same_class_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("same_class searched a coefficient box")

    monkeypatch.setattr(numberfields, "coefficient_shells", no_search)
    O10 = FieldOrder.quadratic_maximal(10)
    P2 = FractionalIdealRep(O10, _rows((2, 0), (0, 1)))
    assert not P2.same_class(O10.unit_ideal())
    assert P2.same_class(P2)
    assert P2.is_principal() is None


def test_closure_enforced():
    O2 = FieldOrder.quadratic_maximal(2)
    with pytest.raises(InputError):
        FractionalIdealRep(O2, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(3))))


def test_field_json_round_trip():
    O5 = FieldOrder.quadratic_maximal(5)
    back = FieldOrder.from_json(O5.to_json())
    assert back == O5


def test_is_principal_returns_least_height_generator():
    O10 = FieldOrder.quadratic_maximal(10)
    assert O10.unit_ideal().is_principal() == (1, 0)


def norm_oracle_generator(ideal, bound):
    """The generator search with FieldOrder.norm on each Fraction
    combination, in the same shell order as is_principal."""
    d = ideal.order.degree
    for coeffs in coefficient_shells(d, bound, positive_first=True):
        x = tuple(sum(Fraction(c) * ideal.basis[i][k] for i, c in enumerate(coeffs))
                  for k in range(d))
        if abs(ideal.order.norm(x)) == ideal.norm():
            return x
    return None


def _ideals(D):
    O = FieldOrder.quadratic_maximal(D)
    half, third = Fraction(1, 2), Fraction(1, 3)
    out = [O.unit_ideal()]
    for gen in [(3, 1), (half, third), (7, -2)]:
        out.append(O.unit_ideal().scaled(gen))
    out.append(out[1].multiply(out[3]))
    (a0, a1), (b0, b1) = out[1].basis  # the same ideal on a skewed basis
    out.append(FractionalIdealRep(O, ((a0 + 5 * b0, a1 + 5 * b1), (b0, b1))))
    if D == 10:
        P2 = FractionalIdealRep(O, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
        out += [P2, P2.scaled((half, third)), P2.multiply(out[1]), P2.multiply(P2)]
    return out


@pytest.mark.parametrize("D", [2, 5, 10])
def test_is_principal_matches_norm_oracle(D):
    found = []
    for ideal in _ideals(D):
        for bound in (1, 3, 8):
            want = norm_oracle_generator(ideal, bound)
            assert ideal.is_principal(bound) == want
            found.append(want is not None)
    assert any(found)
    if D == 10:
        assert not all(found)
