"""Totally real field orders and fractional ideals, at desk scale.

Orders are given by an integral basis with its multiplication table; the
first basis element is always 1.  Everything structural is exact (ints
and Fractions); only embeddings into R are floating point, at the
configured precision.  Maximal orders are computed for degree <= 2 only,
which is all the acceptance surface needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .config import working_precision
from .errors import DegenerateInputError, InputError
from .lattices import (
    IntMatrix,
    coefficient_shells,
    fraction_det,
    fraction_solve,
    fraction_to_mpf,
    int_combination,
    row_lattice_basis,
)

__all__ = ["FieldOrder", "FractionalIdealRep"]


def _poly_real_roots(coeffs):
    """All roots of a monic integer polynomial, ascending; error if any
    root has a nonzero imaginary part (the totally-real check)."""
    with working_precision():
        roots = mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=120)
        tol = mp.mpf(2) ** (-mp.mp.prec // 2)
        out = []
        for r in roots:
            if abs(mp.im(r)) > tol * max(1, abs(r)):
                raise InputError("polynomial is not totally real")
            out.append(mp.re(r))
        return sorted(out)


@dataclass(frozen=True)
class FieldOrder:
    """Order in a totally real field: degree, minimal polynomial of a
    designated generator, and the structure constants of an integral
    basis whose first element is 1."""

    degree: int
    min_poly: tuple  # monic, highest degree first: (1, a_{d-1}, ..., a_0)
    mult_table: tuple  # c[i][j][k]: omega_i * omega_j = sum_k c[i][j][k] omega_k
    is_maximal: bool = False

    def __post_init__(self):
        d = self.degree
        if len(self.min_poly) != d + 1 or self.min_poly[0] != 1:
            raise InputError("min_poly must be monic of degree equal to the field degree")
        if len(self.mult_table) != d or any(len(r) != d or any(len(k) != d for k in r)
                                            for r in self.mult_table):
            raise InputError("mult_table must be d x d x d")
        _poly_real_roots(self.min_poly)  # totally real, or raise
        self._check_table()

    # -- constructors ---------------------------------------------------

    @classmethod
    def rationals(cls) -> "FieldOrder":
        return cls(1, (1, -1), (((1,),),), is_maximal=True)

    @classmethod
    def quadratic(cls, t: int, n: int, is_maximal: bool | None = None) -> "FieldOrder":
        """Order Z[w] with w^2 = t*w - n (min poly x^2 - t x + n)."""
        disc = t * t - 4 * n
        if disc <= 0:
            raise InputError("quadratic order is not totally real")
        if is_maximal is None:
            is_maximal = _fundamental_part(disc) == disc
        table = (
            ((1, 0), (0, 1)),
            ((0, 1), (-n, t)),
        )
        return cls(2, (1, -t, n), tuple(tuple(tuple(r) for r in row) for row in table),
                   is_maximal=is_maximal)

    @classmethod
    def quadratic_maximal(cls, D: int) -> "FieldOrder":
        """Maximal order of Q(sqrt(D)) for squarefree D > 1."""
        if D <= 1:
            raise InputError("need a squarefree integer > 1")
        if D % 4 == 1:
            return cls.quadratic(1, (1 - D) // 4, is_maximal=True)
        return cls.quadratic(0, -D, is_maximal=True)

    # -- structure ------------------------------------------------------

    def _check_table(self):
        d = self.degree
        t = self.mult_table
        for j in range(d):  # omega_1 = 1 acts as identity
            if tuple(t[0][j]) != tuple(int(k == j) for k in range(d)):
                raise InputError("first basis element must be 1")
        for i in range(d):
            for j in range(d):
                if tuple(t[i][j]) != tuple(t[j][i]):
                    raise InputError("multiplication table is not commutative")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self.mul_coords(self.mul_coords(_unit(d, i), _unit(d, j)),
                                           _unit(d, k))
                    right = self.mul_coords(_unit(d, i),
                                            self.mul_coords(_unit(d, j), _unit(d, k)))
                    if left != right:
                        raise InputError("multiplication table is not associative")

    def mul_coords(self, x, y):
        """Product of two elements given by basis coordinates (exact)."""
        d = self.degree
        out = [Fraction(0)] * d
        for i in range(d):
            if x[i] == 0:
                continue
            for j in range(d):
                if y[j] == 0:
                    continue
                f = Fraction(x[i]) * Fraction(y[j])
                for k in range(d):
                    out[k] += f * self.mult_table[i][j][k]
        return tuple(out)

    def mult_matrix(self, x) -> tuple:
        """Regular representation of x (rational coordinates allowed):
        columns are the coordinates of x * omega_j."""
        d = self.degree
        cols = [self.mul_coords(x, _unit(d, j)) for j in range(d)]
        return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))

    def norm(self, x) -> Fraction:
        """Field norm of an element given by coordinates (exact)."""
        return fraction_det(self.mult_matrix(x))

    def embeddings(self) -> list:
        """Real embedding values of the basis elements, one row per
        embedding, ordered by ascending root of min_poly."""
        roots = _poly_real_roots(self.min_poly)
        if self.degree == 1:
            return [[mp.mpf(1)]]
        if self.degree == 2:
            return [[mp.mpf(1), r] for r in roots]
        raise InputError("embeddings beyond degree 2 are out of scope")

    def element_embedding(self, x, emb) -> mp.mpf:
        """sigma(x) for coordinates x and one embedding row."""
        with working_precision():
            return mp.fsum(fraction_to_mpf(c) * e for c, e in zip(x, emb))

    def discriminant(self) -> int:
        """Discriminant of min_poly (degree <= 2)."""
        if self.degree == 1:
            return 1
        _, b, c = self.min_poly
        return b * b - 4 * c

    def unit_ideal(self) -> "FractionalIdealRep":
        rows = tuple(tuple(Fraction(int(i == j)) for j in range(self.degree))
                     for i in range(self.degree))
        return FractionalIdealRep(self, rows)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "min_poly": list(self.min_poly),
            "integral_basis_mult_table": [[list(k) for k in row] for row in self.mult_table],
            "is_maximal": self.is_maximal,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FieldOrder":
        try:
            return cls(
                int(obj["degree"]),
                tuple(int(c) for c in obj["min_poly"]),
                tuple(tuple(tuple(int(x) for x in k) for k in row)
                      for row in obj["integral_basis_mult_table"]),
                is_maximal=bool(obj.get("is_maximal", False)),
            )
        except KeyError as exc:
            raise InputError(f"bad field JSON: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad field JSON: {exc}") from exc


def _unit(d, i):
    return tuple(Fraction(int(j == i)) for j in range(d))


def _fundamental_part(disc: int) -> int:
    """Largest fundamental discriminant d with disc = f^2 d."""
    f = 1
    k = 2
    rem = disc
    while k * k <= rem:
        while rem % (k * k) == 0 and _is_disc(rem // (k * k)):
            rem //= k * k
            f *= k
        k += 1
    return rem


def _is_disc(d: int) -> bool:
    return d % 4 in (0, 1)


@dataclass(frozen=True)
class FractionalIdealRep:
    """Fractional ideal: Z-basis rows in integral-basis coordinates."""

    order: FieldOrder
    basis: tuple  # d rows of d Fractions

    def __post_init__(self):
        d = self.order.degree
        if len(self.basis) != d or any(len(r) != d for r in self.basis):
            raise InputError("ideal basis must be square of size the degree")
        if fraction_det(self.basis) == 0:
            raise DegenerateInputError("ideal basis is singular")
        self._check_closure()

    def _check_closure(self):
        d = self.order.degree
        for k in range(d):
            gen = _unit(d, k)
            for row in self.basis:
                prod = self.order.mul_coords(row, gen)
                if not self._contains(prod):
                    raise InputError("ideal basis is not closed under the order action")

    def _contains(self, x) -> bool:
        coords = fraction_solve([[self.basis[j][i] for j in range(self.order.degree)]
                                 for i in range(self.order.degree)], x)
        return all(c.denominator == 1 for c in coords)

    def norm(self) -> Fraction:
        """Index-style norm |det(basis)| relative to the order."""
        return abs(fraction_det(self.basis))

    def scaled(self, x) -> "FractionalIdealRep":
        """The ideal x * self for a field element x (coordinates)."""
        rows = tuple(self.order.mul_coords(x, row) for row in self.basis)
        return FractionalIdealRep(self.order, rows)

    def multiply(self, other: "FractionalIdealRep") -> "FractionalIdealRep":
        if self.order is not other.order and self.order != other.order:
            raise InputError("ideals over different orders")
        d = self.order.degree
        prods = [self.order.mul_coords(a, b) for a in self.basis for b in other.basis]
        den = 1
        for row in prods:
            for x in row:
                den = math.lcm(den, x.denominator)
        int_rows = [[int(x * den) for x in row] for row in prods]
        basis = row_lattice_basis(IntMatrix.from_rows(int_rows))
        rows = tuple(tuple(Fraction(x, den) for x in row) for row in basis)
        return FractionalIdealRep(self.order, rows)

    def conjugate(self) -> "FractionalIdealRep":
        """Galois conjugate (degree 2 only)."""
        if self.order.degree != 2:
            raise InputError("conjugate ideal implemented for degree 2 only")
        t = -self.order.min_poly[1]
        rows = tuple((a + t * b, -b) for a, b in self.basis)
        return FractionalIdealRep(self.order, rows)

    def is_principal(self, search_bound: int = 50):
        """Generator x with |Nm(x)| = Nm(ideal) of least height, or None
        when none is found within search_bound.

        The search runs over the basis combinations with coefficients in
        [-search_bound, search_bound], shell by shell in the max-norm and
        up to sign, since |Nm(-x)| = |Nm(x)|.  A hit is a certificate of
        principality; None means "not found within the bound" and is not
        a proof of the converse, so class checks should compare against a
        known representative.

        Norms are evaluated in integers: with L the lcm of the basis
        denominators, Nm(L x) = det of the same combination of the
        multiplication matrices of the scaled basis, to be compared with
        Nm(ideal) * L^d.  The Fraction generator is built on a hit only.
        """
        d = self.order.degree
        scale = math.lcm(*(x.denominator for row in self.basis for x in row))
        mats = [IntMatrix.from_rows(self.order.mult_matrix(tuple(scale * x for x in row)))
                for row in self.basis]
        target = int(self.norm() * scale**d)
        for coeffs in coefficient_shells(d, search_bound, positive_first=True):
            if abs(int_combination(coeffs, mats).det()) == target:
                return tuple(sum(Fraction(c) * self.basis[i][k] for i, c in enumerate(coeffs))
                             for k in range(d))
        return None

    def same_class(self, other: "FractionalIdealRep", search_bound: int = 50) -> bool:
        """Class equality via principality of self * conj(other) (degree 2)."""
        if self.order.degree == 1:
            return True
        prod = self.multiply(other.conjugate())
        return prod.is_principal(search_bound) is not None

    def to_json(self) -> dict:
        return {"basis": [[str(x) for x in row] for row in self.basis]}

    @classmethod
    def from_json(cls, order: FieldOrder, obj: dict) -> "FractionalIdealRep":
        try:
            rows = tuple(tuple(Fraction(s) for s in row) for row in obj["basis"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad ideal JSON: {exc}") from exc
        return cls(order, rows)
