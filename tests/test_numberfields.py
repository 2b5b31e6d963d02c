from fractions import Fraction

import pytest

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
