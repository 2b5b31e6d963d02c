import json

import mpmath as mp
import pytest

import plectic.serialize as ser
from conftest import subspace_distance
from plectic import cxlinalg as cx
from plectic.config import working_precision
from plectic.errors import InputError, reading
from plectic.hodge import elliptic_h1, tensor
from plectic.lattices import IntMatrix
from plectic.numberfields import FieldOrder
from plectic.tori import construct_rm_torus


def test_complex_round_trip_fidelity():
    with working_precision():
        z = mp.sqrt(mp.mpc("2", "3")) + mp.mpc(0, 1) / 7
        back = ser.complex_from_json(ser.complex_to_json(z))
        assert abs(z - back) < mp.mpf("1e-38")


def test_complex_rejects_bad_shape():
    with pytest.raises(InputError):
        ser.complex_from_json(["1.0"])
    with pytest.raises(InputError), reading("bad decimal"):
        ser.complex_from_json(["not a number", "0"])


def test_phs_round_trip():
    t = tensor(elliptic_h1(1, mp.mpc("0.3", "1.7")), elliptic_h1(1, mp.mpc("-0.2", "0.9")))
    obj = ser.phs_to_json(t)
    text = json.dumps(obj)
    back = ser.phs_from_json(json.loads(text))
    assert back.n == t.n and back.rank == t.rank
    for bd in t.pieces:
        assert subspace_distance(back.pieces[bd], t.pieces[bd]) < mp.mpf("1e-36")


def test_torus_round_trip_preserves_rm():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc("0.13", "1.07"), mp.mpc("-0.4", "0.83")])
    back = ser.torus_from_json(json.loads(json.dumps(ser.torus_to_json(t))))
    assert back.g == 2
    assert back.rm is not None
    assert back.rm.field.min_poly == (1, -1, -1)
    _, resid = back.multiplier(back.rm.action[1])
    assert resid < mp.mpf("1e-36")


def test_datum_round_trip():
    from plectic.shimura import StronglyPrimitiveDatum

    F = IntMatrix.from_rows([[1, 0], [0, -1]])
    d = StronglyPrimitiveDatum(1, (F,), cx.mpm([[1], [mp.mpc(0, 1)]]))
    back = ser.datum_from_json(json.loads(json.dumps(ser.datum_to_json(d))))
    assert back.r == 1 and back.rank == 2 and not back.hecke


def test_cycle_round_trip():
    from plectic.abeljacobi import PlecticCycle

    c = PlecticCycle.elementary([(mp.mpc("0.25", "0.75"), 0), (1, mp.mpc(0, 1))])
    back = ser.cycle_from_json(json.loads(json.dumps(ser.cycle_to_json(c))))
    assert back.n == 2
    with working_precision():
        for (a1, b1), (a2, b2) in zip(c.terms[0][1], back.terms[0][1]):
            assert abs(a1 - a2) < mp.mpf("1e-38") and abs(b1 - b2) < mp.mpf("1e-38")


def test_flat_torus_round_trip():
    from plectic.flat import FlatTorus

    t = FlatTorus(((1, 0.3 + 1.7j), (1, 1j)), (1.0, 2.5))
    obj = {"factors": [[ser.complex_to_json(w1), ser.complex_to_json(w2)] for w1, w2 in t.factors],
           "weights": [repr(float(w)) for w in t.weights]}
    back = ser.flat_torus_from_json(json.loads(json.dumps(obj)))
    assert back.weights == t.weights
    assert all(abs(complex(a) - complex(b)) < 1e-15
               for fa, fb in zip(t.factors, back.factors) for a, b in zip(fa, fb))


def test_quotient_datum_round_trip():
    from plectic.abeljacobi import QuotientDatum

    d = QuotientDatum(((1, mp.mpc(0, 1)), (1, mp.mpc("0.3", "1.7"))))
    back = ser.quotient_datum_from_json(
        json.loads(json.dumps(ser.quotient_datum_to_json(d))))
    assert back.n == 2
