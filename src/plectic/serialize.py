"""JSON round-trips for every wire format.

Real and imaginary parts serialize as decimal strings at the configured
working precision, so values survive tool boundaries beyond the 64-bit
float range; integers stay exact through decimal strings in the
integer-matrix format.

Each `*_from_json` reads its document inside one `errors.reading` guard,
which reports a missing key or a value of the wrong type or shape as one
`InputError`, and then builds its objects outside the guard.  Integer
fields take JSON integers (`errors.json_int`), and the integer-matrix
entries also decimal integer strings; 1.5 and true are input errors,
never truncated.  Decimals (real and imaginary parts) take JSON strings
only; the flat-torus weights alone also take JSON numbers, though not
true or false.
"""

from __future__ import annotations

import mpmath as mp

from .config import decimal_digits, working_precision
from .errors import InputError, json_int, reading
from .lattices import IntMatrix
from .numberfields import FieldOrder

__all__ = [
    "real_to_json", "complex_to_json", "complex_from_json",
    "phs_to_json", "phs_from_json", "classical_to_json",
    "torus_to_json", "torus_from_json", "rm_to_json", "rm_from_json",
    "datum_to_json", "datum_from_json", "cycle_to_json", "cycle_from_json",
    "flat_torus_from_json", "certificate_to_json",
    "int_rows_to_json", "int_rows_from_json",
]


def real_to_json(x) -> str:
    with working_precision():
        return _real_str(x, decimal_digits())


def _real_str(x, digits) -> str:
    """`real_to_json` without the precision context, for writers that hold
    it and have read `decimal_digits()` once."""
    return mp.nstr(x if isinstance(x, mp.mpf) else mp.mpf(x), digits, strip_zeros=False)


def _decimal(s):
    """A finite decimal, for readers that hold `reading` and the working
    precision; inf and nan are input errors.  A decimal is a JSON string: a
    JSON number (true, 1.5) raises TypeError for `reading` to report."""
    if type(s) is not str:
        raise TypeError(f"expected a decimal string, not {s!r}")
    x = mp.mpf(s)
    if not mp.isfinite(x):
        raise InputError(f"decimal {s!r} is not finite")
    return x


def complex_to_json(z) -> list:
    z = mp.mpmathify(z)
    with working_precision():
        return _complex_str(z, decimal_digits())


def _complex_str(z, digits) -> list:
    return [_real_str(mp.re(z), digits), _real_str(mp.im(z), digits)]


def complex_from_json(pair):
    with working_precision():
        return _complex(pair)


def _complex(pair):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputError("complex values serialize as [re, im]")
    return mp.mpc(_decimal(pair[0]), _decimal(pair[1]))


def matrix_to_json(m: mp.matrix) -> list:
    """Rows of [re, im] decimal pairs, under one precision context."""
    with working_precision():
        digits = decimal_digits()
        return [[_complex_str(m[i, j], digits) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(rows) -> mp.matrix:
    if not rows:
        raise InputError("empty complex matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InputError("complex matrix rows differ in length")
    out = mp.matrix(len(rows), len(rows[0]))
    with working_precision():
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                out[i, j] = _complex(v)
    return out


def int_rows_to_json(m: IntMatrix) -> list:
    return [[int(x) for x in r] for r in m.entries]


def int_rows_from_json(rows) -> IntMatrix:
    """Rows of JSON integers (Frobenius and Hecke matrices, cup matrices),
    read inside the caller's guard."""
    return IntMatrix.from_rows([_ints(r) for r in rows])


def _ints(values) -> tuple:
    return tuple(json_int(x) for x in values)


def phs_to_json(h) -> dict:
    return {
        "n": h.n,
        "rank": h.rank,
        "pieces": [
            {
                "alpha": list(bd.alpha),
                "beta": list(bd.beta),
                "basis": matrix_to_json(basis),
            }
            for bd, basis in h.sorted_pieces()
        ],
    }


def phs_from_json(obj: dict):
    from .hodge import PlecticHodgeStructure

    with reading("bad plectic-structure JSON"):
        n, rank = json_int(obj["n"]), json_int(obj["rank"])
        pieces = {(_ints(p["alpha"]), _ints(p["beta"])): matrix_from_json(p["basis"])
                  for p in obj["pieces"]}
    return PlecticHodgeStructure(n, rank, pieces)


def classical_to_json(h) -> dict:
    """A structure of degree 1, its pieces keyed by the weights (p, q)."""
    return {
        "rank": h.rank,
        "pieces": [
            {"p": bd.weights[0], "q": bd.weights[1], "basis": matrix_to_json(basis)}
            for bd, basis in h.sorted_pieces()
        ],
    }


def torus_to_json(t) -> dict:
    out = {"g": t.g, "periods": matrix_to_json(t.periods)}
    if t.rm is not None:
        out["rm"] = rm_to_json(t.rm)
    return out


def torus_from_json(obj: dict):
    from .tori import ComplexTorus

    with reading("bad torus JSON"):
        g = json_int(obj["g"])
        periods = matrix_from_json(obj["periods"])
    rm = rm_from_json(obj["rm"]) if "rm" in obj else None
    return ComplexTorus(g, periods, rm=rm)


def rm_to_json(rm) -> dict:
    return {
        "field": rm.field.to_json(),
        "action": [a.to_json() for a in rm.action],
    }


def rm_from_json(obj: dict):
    from .tori import RMStructure

    with reading("bad rm JSON"):
        field, action = obj["field"], list(obj["action"])
    return RMStructure(FieldOrder.from_json(field),
                       tuple(IntMatrix.from_json(a) for a in action))


def certificate_to_json(cert) -> dict:
    return {
        "field": cert.field.to_json(),
        "z": [complex_to_json(c) for c in cert.z],
        "ideal": cert.ideal.to_json(),
        "iso": matrix_to_json(cert.iso),
        "residual": real_to_json(cert.residual),
    }


def datum_to_json(d) -> dict:
    out = {
        "r": d.r,
        "rank": d.rank,
        "frobenii": [int_rows_to_json(f) for f in d.frobenii],
        "holo": matrix_to_json(d.holo),
    }
    if d.hecke:
        out["hecke"] = [int_rows_to_json(t) for t in d.hecke]
    return out


def datum_from_json(obj: dict):
    from .shimura import StronglyPrimitiveDatum

    with reading("bad datum JSON"):
        r = json_int(obj["r"])
        frobenii = tuple(int_rows_from_json(f) for f in obj["frobenii"])
        holo = matrix_from_json(obj["holo"])
        hecke = tuple(int_rows_from_json(t) for t in obj.get("hecke", []))
    return StronglyPrimitiveDatum(r, frobenii, holo, hecke)


def cycle_to_json(c) -> dict:
    return {
        "terms": [
            {
                "coeff": int(coeff),
                "lifts": [[complex_to_json(x), complex_to_json(y)] for x, y in lifts],
            }
            for coeff, lifts in c.terms
        ]
    }


def cycle_from_json(obj: dict):
    from .abeljacobi import PlecticCycle

    with reading("bad cycle JSON"):
        terms = []
        for t in obj["terms"]:
            lifts = tuple(
                (complex_from_json(p[0]), complex_from_json(p[1])) for p in t["lifts"]
            )
            terms.append((json_int(t["coeff"]), lifts))
    return PlecticCycle(tuple(terms))


def flat_torus_from_json(obj: dict):
    from .flat import FlatTorus

    with reading("bad flat-torus JSON"):
        factors = tuple(
            (complex(complex_from_json(w1)), complex(complex_from_json(w2)))
            for w1, w2 in obj["factors"]
        )
        weights = tuple(_weight(w) for w in obj["weights"])
    return FlatTorus(factors, weights)


def _weight(w) -> float:
    """A flat-torus weight: a JSON number or a decimal string.  A bool (true
    is an int to Python) raises TypeError for `reading` to report."""
    if type(w) is bool:
        raise TypeError(f"expected a number or a decimal string, not {w!r}")
    return float(w)


def quotient_datum_to_json(d) -> dict:
    return {"factors": [[complex_to_json(a), complex_to_json(b)] for a, b in d.factors]}


def quotient_datum_from_json(obj: dict):
    from .abeljacobi import QuotientDatum

    with reading("bad quotient datum JSON"):
        factors = tuple(
            (complex_from_json(a), complex_from_json(b)) for a, b in obj["factors"]
        )
    return QuotientDatum(factors)
