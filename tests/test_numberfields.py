from fractions import Fraction

import pytest

from plectic.errors import InputError
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
