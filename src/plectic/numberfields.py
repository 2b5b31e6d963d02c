"""Totally real field orders and fractional ideals, at desk scale.

Orders are given by an integral basis with its multiplication table; the
first basis element is always 1.  Everything structural is exact (ints
and Fractions); only embeddings into R are floating point, at the
configured precision.  Maximal orders are computed for degree <= 2 only,
which is all the acceptance surface needs.

A minimal polynomial is accepted only if it is irreducible with all its
roots real, decided exactly on those real roots: a Sturm count shows
that all d roots are real and distinct, and Sturm bisection isolates
them in rational intervals, narrow enough that every monic integer
factor can be read off a subset of them and checked by exact division.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .config import working_precision
from .errors import DegenerateInputError, InputError, json_int, reading
from .lattices import (
    IntMatrix,
    coefficient_shells,
    fraction_det,
    fraction_to_mpf,
    int_combination,
    row_lattice_basis,
    solve_integer,
)

__all__ = ["FieldOrder", "FractionalIdealRep"]


def _generates_totally_real_field(p, degree: int) -> bool:
    """Whether the monic integer polynomial p (highest degree first) is
    irreducible of the given degree with all its roots real.

    Three exact tests, cheapest first: the degree; `degree` distinct real
    roots, counted by a Sturm sequence; irreducibility over Q.
    """
    return len(p) - 1 == degree and _real_root_count(p) == degree and _is_irreducible(p)


def _real_root_count(p) -> int:
    """Number of distinct real roots of the integer polynomial p, from the
    sign changes of its Sturm sequence at -inf and at +inf."""
    seq = _sturm_sequence(p)
    at_plus = [q[0] for q in seq]
    at_minus = [q[0] * (-1) ** (len(q) - 1) for q in seq]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def _sign_changes(values) -> int:
    """Sign changes along `values`, zeros dropped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_sequence(p):
    """p, p', then the negated remainders down to gcd(p, p'), each scaled
    by a positive constant, which leaves every sign count unchanged."""
    seq = [tuple(p), _derivative(p)]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(tuple(-c for c in r))
    return seq


def _derivative(p):
    d = len(p) - 1
    return tuple(c * (d - i) for i, c in enumerate(p[:-1]))


def _pseudo_remainder(a, b):
    """The remainder of c * a by b for some integer c > 0, divided by its
    content; () when b divides a."""
    lead = abs(b[0])
    sign = 1 if b[0] > 0 else -1
    r = list(a)
    while r and len(r) >= len(b):
        top = sign * r[0]
        r = [lead * x - top * y for x, y in zip(r, list(b) + [0] * (len(r) - len(b)))][1:]
        while r and r[0] == 0:
            r.pop(0)
    g = math.gcd(*r)
    return tuple(x // g for x in r)


def _poly_eval(p, x):
    """p(x) for integer coefficients p and a rational x (Horner)."""
    value = Fraction(0)
    for c in p:
        value = value * x + c
    return value


def _is_irreducible(p) -> bool:
    """Whether the monic integer polynomial p is irreducible over Q.

    Degree 2: the discriminant is not a square.  Above that, p must have
    d distinct real roots (its one caller has counted them).  A factor of
    degree k <= d/2 is monic with integer coefficients (Gauss), and its
    roots are k of the roots of p.  From the Cauchy bound on, every
    interval (a, b] is halved and the halves that hold a root are kept,
    counted as V(a) - V(b), V(x) the sign changes of the Sturm sequence
    at x.  Once the d roots are apart, the halving goes on until the
    intervals pin each possible factor (:func:`_factor_candidates`), and
    exact division confirms or refutes each candidate, so a miss is a
    proof.
    """
    d = len(p) - 1
    if d <= 1:
        return True
    if d == 2:
        disc = p[1] * p[1] - 4 * p[2]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    seq = _sturm_sequence(p)

    @functools.cache
    def changes(x):
        return _sign_changes([_poly_eval(q, x) for q in seq])

    bound = Fraction(1 + max(abs(c) for c in p[1:]))  # every root lies in (-bound, bound)
    intervals = [(-bound, bound)]
    while True:
        halves = [h for a, b in intervals for h in ((a, (a + b) / 2), ((a + b) / 2, b))]
        intervals = [(a, b) for a, b in halves if changes(a) > changes(b)]
        if len(intervals) == d and (candidates := _factor_candidates(intervals)) is not None:
            return all(_pseudo_remainder(p, q) for q in candidates)


def _factor_candidates(intervals):
    """The monic integer polynomials prod (x - m_i), rounded, over every
    subset of at most d/2 root intervals, m_i their midpoints: the factor
    whose roots a subset holds, if there is one.  None when the intervals
    are too wide for that, judged on (x + M + w)^k - (x + M)^k, k = d/2,
    M the largest |m_i| and w the largest half-width: its coefficients
    bound how far those of any prod (x - r_i) lie from these."""
    k = len(intervals) // 2
    size = max(abs(a + b) for a, b in intervals) / 2
    half = max(b - a for a, b in intervals) / 2
    if any(math.comb(k, j) * ((size + half) ** j - size ** j) >= Fraction(1, 2)
           for j in range(1, k + 1)):
        return None
    out = []
    for j in range(1, k + 1):
        for subset in itertools.combinations(intervals, j):
            approx = [Fraction(1)]
            for a, b in subset:
                approx = _poly_mul_linear(approx, -(a + b) / 2)
            out.append(tuple(round(c) for c in approx))
    return out


def _poly_mul_linear(q, a):
    """q(x) * (x + a) for rational coefficients, highest first."""
    return [x + a * y for x, y in zip(q + [0], [0] + q)]


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
        if not _generates_totally_real_field(self.min_poly, d):
            raise InputError("min_poly must be irreducible with all its roots real")
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
        if self.degree == 1:
            return [[mp.mpf(1)]]
        if self.degree != 2:
            raise InputError("embeddings beyond degree 2 are out of scope")
        _, b, c = self.min_poly
        with working_precision():  # the larger root in size, then c / big: no cancellation
            root = mp.sqrt(b * b - 4 * c)
            big = -(b + root) / 2 if b >= 0 else (root - b) / 2
            return [[mp.mpf(1), r] for r in sorted((big, c / big))]

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
        with reading("bad field JSON"):
            degree = json_int(obj["degree"])
            min_poly = tuple(json_int(c) for c in obj["min_poly"])
            table = tuple(tuple(tuple(json_int(x) for x in k) for k in row)
                          for row in obj["integral_basis_mult_table"])
            is_maximal = bool(obj.get("is_maximal", False))
        return cls(degree, min_poly, table, is_maximal=is_maximal)


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


def _denominator(rows) -> int:
    """The lcm of the denominators of a matrix of Fractions."""
    return math.lcm(*(x.denominator for row in rows for x in row))


def _represents_unit(form, disc: int) -> bool:
    """Whether the primitive integer form (a, b, c) of discriminant disc > 0,
    not a square, takes the value 1 or -1.

    Cohen's rho (GTM 138, Def. 5.6.4) reduces the form, then walks the
    cycle of reduced forms equivalent to it; the form represents +-1
    exactly when that cycle holds a form (+-1, b, c) (Cohen Prop. 5.6.6,
    Buchmann & Vollmer 6.10).  Every test is on integers: with s =
    isqrt(disc), x < sqrt(disc) is x <= s, since disc is not a square.
    """
    s = math.isqrt(disc)

    def rho(a, b, c):
        m = 2 * abs(c)
        if abs(c) > s:  # r = -b mod 2|c| in (-|c|, |c|]
            r = -b % m
            r = r - m if r > abs(c) else r
        else:  # r = -b mod 2|c| in (sqrt(disc) - 2|c|, sqrt(disc))
            r = s - (s + b) % m
        return c, r, (r * r - disc) // (4 * c)

    def reduced(a, b, c):  # |sqrt(disc) - 2|a|| < b < sqrt(disc)
        return 0 < b <= s and s - b < 2 * abs(a) <= s + b

    while not reduced(*form):
        form = rho(*form)
    start = form
    while abs(form[0]) != 1:
        form = rho(*form)
        if form == start:
            return False
    return True


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
        # omega_0 = 1 (FieldOrder._check_table) maps the ideal to itself
        for k in range(1, self.order.degree):
            self.action(k)

    def action(self, k: int) -> IntMatrix:
        """Multiplication by the order's basis element omega_k on this
        ideal's basis, as an integer matrix: column j holds the coordinates
        of omega_k times basis row j.  Raises InputError when a product
        lies outside the ideal."""
        d = self.order.degree
        X = self._coordinates([self.order.mul_coords(_unit(d, k), row) for row in self.basis])
        if X is None:
            raise InputError("ideal basis is not closed under the order action")
        return X

    def _coordinates(self, elements) -> IntMatrix | None:
        """Integer coordinates of the elements on the basis, one column per
        element, or None when some element is not in the ideal: one
        solve_integer against the basis scaled by the lcm of its
        denominators."""
        scale = _denominator(self.basis)
        ys = [[scale * Fraction(c) for c in x] for x in elements]
        if any(c.denominator != 1 for y in ys for c in y):
            return None
        d = self.order.degree
        columns = IntMatrix.from_rows([[scale * row[i] for row in self.basis] for i in range(d)])
        rhs = IntMatrix(len(ys), d, tuple(tuple(int(c) for c in y) for y in ys))
        return solve_integer(columns, rhs.transpose())

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
        den = _denominator(prods)
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
        principality.  In degree 2 the search runs only when
        :meth:`_generated_by_one_element` has decided that a generator
        exists, so None means "not principal" when that decision says so,
        and "a generator exists but none within the bound" otherwise.
        Class checks use :meth:`same_class`, which is exact in degree <= 2.

        Norms are evaluated in integers: with L the lcm of the basis
        denominators, Nm(L x) = det of the same combination of the
        multiplication matrices of the scaled basis, to be compared with
        Nm(ideal) * L^d.  The Fraction generator is built on a hit only.
        A search_bound below 1 searches nothing and raises InputError.
        """
        if search_bound < 1:
            raise InputError("search_bound must be >= 1")
        d = self.order.degree
        if d == 2 and not self._generated_by_one_element():
            return None
        scale = _denominator(self.basis)
        mats = [IntMatrix.from_rows(self.order.mult_matrix(tuple(scale * x for x in row)))
                for row in self.basis]
        target = int(self.norm() * scale**d)
        for coeffs in coefficient_shells(d, search_bound, positive_first=True):
            if abs(int_combination(coeffs, mats).det()) == target:
                return tuple(sum(Fraction(c) * self.basis[i][k] for i, c in enumerate(coeffs))
                             for k in range(d))
        return None

    def _generated_by_one_element(self) -> bool:
        """Whether this ideal of a quadratic order is principal, decided
        exactly on its binary quadratic form (Cohen, GTM 138, 5.2 and 5.6).

        With (a, b) the basis scaled to integral elements, N(x a + y b) is
        an integer form whose primitive part f has the discriminant of the
        ideal's multiplier ring.  An ideal whose multiplier ring is larger
        than the order is not invertible, so not principal.  Otherwise the
        content of N(x a + y b) is |Nm| of the scaled ideal, so an element
        of norm +-Nm, a generator, exists exactly when f represents +-1.
        Neither the basis nor its orientation matters: GL2(Z) changes
        leave the represented values alone.
        """
        scale = _denominator(self.basis)
        alpha, beta = (tuple(scale * x for x in row) for row in self.basis)
        a, c = int(self.order.norm(alpha)), int(self.order.norm(beta))
        b = int(self.order.norm(tuple(x + y for x, y in zip(alpha, beta)))) - a - c
        g = math.gcd(a, b, c)
        form = (a // g, b // g, c // g)
        disc = self.order.discriminant()
        return form[1] ** 2 - 4 * form[0] * form[2] == disc and _represents_unit(form, disc)

    def same_class(self, other: "FractionalIdealRep") -> bool:
        """Class equality, exact in degree <= 2: whether self * conj(other)
        is principal."""
        if self.order.degree == 1:
            return True
        return self.multiply(other.conjugate())._generated_by_one_element()

    def to_json(self) -> dict:
        return {"basis": [[str(x) for x in row] for row in self.basis]}

    @classmethod
    def from_json(cls, order: FieldOrder, obj: dict) -> "FractionalIdealRep":
        with reading("bad ideal JSON"):
            rows = tuple(tuple(Fraction(s) for s in row) for row in obj["basis"])
        return cls(order, rows)
