"""Exact integer-matrix and lattice algebra.

Everything here is exact: entries are Python ints or Fractions and no
routine rounds, apart from :func:`fraction_to_mpf`.  A lattice is a list
of integer basis rows (or an :class:`IntMatrix` holding them).

The Hermite normal form is the one lattice normal form: ranks, kernels,
saturations, row-lattice bases, integer solves, lattice equality and
torsion-free quotients all come from :func:`hermite_normal_form`, and
every basis they return is the canonical (Hermite) one.  It is also the
one solve: :func:`solve_integer` solves A X = B for every column of B
against one Hermite form of A^T, and the exact rational inverse
(:func:`fraction_inverse`) is the adjugate over the determinant, one such
solve against det(A) I.  The Smith form is built from it too, for the
elementary divisors.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DegenerateInputError, InputError, json_int, reading

__all__ = [
    "IntMatrix",
    "hermite_normal_form",
    "smith_normal_form",
    "torsion_free_quotient",
    "kernel_integer",
    "row_lattice_basis",
    "saturation",
    "solve_integer",
    "fraction_det",
    "fraction_inverse",
    "lll_reduce",
    "coefficient_shells",
    "int_combination",
    "fraction_to_mpf",
]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InputError("inconsistent matrix dimensions")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if not data:
            raise InputError("empty matrix needs explicit dimensions")
        return cls(len(data), len(data[0]), data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix product shape mismatch")
        ot = list(zip(*other.entries)) if other.rows else [()] * other.cols
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix sum shape mismatch")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(
            self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.entries)
        )

    def transpose(self) -> "IntMatrix":
        data = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix(self.cols, self.rows, data)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        data = []
        for r1 in self.entries:
            for r2 in other.entries:
                data.append(tuple(a * b for a in r1 for b in r2))
        return IntMatrix(self.rows * other.rows, self.cols * other.cols, tuple(data))

    def apply(self, vec):
        """Matrix times integer column vector."""
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def det(self) -> int:
        """Exact determinant (fraction-free Bareiss elimination)."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def rank(self) -> int:
        return hermite_normal_form(self)[0].rows

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    # -- serialization (entries as decimal strings, exact) -------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(x) for r in self.entries for x in r],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntMatrix":
        with reading("bad integer-matrix JSON"):
            rows, cols = json_int(obj["rows"]), json_int(obj["cols"])
            flat = [json_int(s, strings=True) for s in obj["entries"]]
        if len(flat) != rows * cols:
            raise InputError("integer-matrix JSON entry count mismatch")
        data = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
        return cls(rows, cols, data)


def hermite_normal_form(m: IntMatrix):
    """Row Hermite normal form: returns (H, U) with U unimodular and U*m
    equal to H followed by m.rows - H.rows zero rows.

    H has one row per rank and echelon shape; each leading entry is
    positive and the entries above it lie in [0, leading).  H depends only
    on the row lattice of m, so it is that lattice's canonical basis
    (Cohen, GTM 138, section 2.4).  Each column is cleared below the pivot
    by Bezout row steps, so no remainder sequence runs on the entries.
    """
    R, C = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    r = 0
    for j in range(C):
        if r == R:
            break
        for i in range(r + 1, R):
            if a[i][j]:
                # unimodular 2x2 row step: a[r][j] <- gcd, a[i][j] <- 0
                g, x, y = _xgcd(a[r][j], a[i][j])
                p, q = a[r][j] // g, a[i][j] // g
                for w in (a, u):
                    w[r], w[i] = ([x * s + y * t for s, t in zip(w[r], w[i])],
                                  [p * t - q * s for s, t in zip(w[r], w[i])])
        if not a[r][j]:
            continue
        if a[r][j] < 0:
            a[r], u[r] = [-s for s in a[r]], [-s for s in u[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                for w in (a, u):
                    w[i] = [s - q * t for s, t in zip(w[i], w[r])]
        r += 1
    H = IntMatrix(r, C, tuple(tuple(row) for row in a[:r]))
    return H, IntMatrix(R, R, tuple(tuple(row) for row in u))


def smith_normal_form(m: IntMatrix):
    """Diagonalize over Z: returns (U, D, V) with U*m*V == D.

    U and V are unimodular and the diagonal of D is nonnegative with each
    entry dividing the next (zeros trail).  Row and column Hermite forms
    alternate until the matrix is diagonal; then one unimodular step on
    each side turns each diagonal pair (a, b) into (gcd(a, b), lcm(a, b)).
    """
    R, C = m.rows, m.cols
    U, V, D = IntMatrix.identity(R), IntMatrix.identity(C), m
    while True:
        W = hermite_normal_form(D)[1]
        U, D = W @ U, W @ D
        if _is_diagonal(D):
            break
        W = hermite_normal_form(D.transpose())[1].transpose()
        V, D = V @ W, D @ W
        if _is_diagonal(D):
            break
    d = list(D.diagonal())
    u, v = [list(r) for r in U.entries], [list(r) for r in V.entries]
    for i, j in itertools.combinations(range(sum(1 for x in d if x)), 2):
        a, b = d[i], d[j]
        if b % a:
            g, x, y = _xgcd(a, b)
            u[i], u[j] = ([x * s + y * t for s, t in zip(u[i], u[j])],
                          [(a * t - b * s) // g for s, t in zip(u[i], u[j])])
            for row in v:
                row[i], row[j] = row[i] + row[j], (x * a * row[j] - y * b * row[i]) // g
            d[i], d[j] = g, a * b // g
    D = tuple(tuple(d[i] if i == j else 0 for j in range(C)) for i in range(R))
    return (IntMatrix(R, R, tuple(map(tuple, u))), IntMatrix(R, C, D),
            IntMatrix(C, C, tuple(map(tuple, v))))


def _is_diagonal(D: IntMatrix) -> bool:
    return all(x == 0 for i, r in enumerate(D.entries) for j, x in enumerate(r) if i != j)


def _xgcd(a: int, b: int):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) > 0; a, b not both zero."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def fraction_det(A) -> Fraction:
    """Exact determinant of a square rational matrix: IntMatrix.det of the
    rows scaled by the lcm of their denominators, over those scales."""
    rows = [[Fraction(x) for x in row] for row in A]
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    ints = IntMatrix.from_rows([[x * s for x in row] for row, s in zip(rows, scales)])
    return Fraction(ints.det(), math.prod(scales))


def fraction_inverse(A: IntMatrix):
    """Exact inverse of a nonsingular integer matrix, as Fraction rows: the
    adjugate over det(A), the integer solution X of A X = det(A) I.
    Raises DegenerateInputError when A is singular."""
    det = A.det()
    if det == 0:
        raise DegenerateInputError("singular rational system")
    X = solve_integer(A, IntMatrix.identity(A.rows).scale(det))
    return tuple(tuple(Fraction(x, det) for x in row) for row in X.entries)


def fraction_to_mpf(x) -> mp.mpf:
    """An int or Fraction as an mpf at the current precision."""
    f = Fraction(x)
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def kernel_integer(A: IntMatrix):
    """Z-basis of {x in Z^cols : A x = 0} in Hermite normal form; the
    result is saturated.  The rows of U past the rank, for U*A^T = H,
    span it."""
    H, U = hermite_normal_form(A.transpose())
    if H.rows == A.cols:
        return []
    return row_lattice_basis(IntMatrix.from_rows(U.entries[H.rows:]))


def row_lattice_basis(A: IntMatrix):
    """Z-basis (list of rows) of the lattice generated by the rows of A:
    its Hermite normal form."""
    return list(hermite_normal_form(A)[0].entries)


def saturation(A: IntMatrix):
    """Z-basis of the saturation of the row lattice of A in Z^cols, in
    Hermite normal form: the kernel of its kernel."""
    ker = kernel_integer(A)
    if not ker:
        return [tuple(r) for r in IntMatrix.identity(A.cols).entries]
    return kernel_integer(IntMatrix.from_rows(ker))


def solve_integer(A: IntMatrix, B: IntMatrix):
    """One integer solution X of A X = B, or None when some column of B
    has none.

    With U*A^T = H in Hermite normal form, the columns of B are reduced
    together against the echelon rows of H; their coefficients Y give
    X = U^T Y.  One Hermite form serves every right-hand side."""
    if B.rows != A.rows:
        raise InputError("right-hand side row count mismatch")
    H, U = hermite_normal_form(A.transpose())
    rest = [list(r) for r in B.entries]  # B - H^T Y so far
    Y = []
    for h in H.entries:
        lead = next(j for j, v in enumerate(h) if v)
        if any(v % h[lead] for v in rest[lead]):
            return None
        y = [v // h[lead] for v in rest[lead]]
        for i, c in enumerate(h):
            if c:
                rest[i] = [s - c * t for s, t in zip(rest[i], y)]
        Y.append(y)
    if any(any(r) for r in rest):
        return None
    return IntMatrix(A.cols, B.cols, tuple(
        tuple(sum(u[i] * y[j] for u, y in zip(U.entries, Y)) for j in range(B.cols))
        for i in range(A.cols)))


def lll_reduce(rows, delta=Fraction(3, 4)):
    """LLL-reduced basis of the lattice spanned by `rows`, for the Lovasz
    constant `delta`, an exact rational in (1/4, 1) (3/4 by default);
    InputError otherwise.  A smaller delta swaps less and reduces less.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): the Gram-Schmidt data are
    kept as the integers d_i = det(Gram of b_1..b_i) and
    lambda_ij = d_j * mu_ij, so every division is exact and no rational
    or floating-point number is formed.  The rows must be linearly
    independent; otherwise DegenerateInputError is raised.
    """
    if not isinstance(delta, numbers.Rational) or not Fraction(1, 4) < delta < 1:
        raise InputError(f"LLL constant delta must be a rational in (1/4, 1), got {delta!r}")
    num, den = delta.numerator, delta.denominator
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n == 0:
        return []

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # row k (0-based) holds Cohen's d_{k+1} in d[k + 1]; d[0] = 1
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise DegenerateInputError("LLL input rows are linearly dependent")
            else:
                d[k + 1] = u

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
        d[k] = B

    gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        # Lovasz condition B_k >= (delta - mu^2) B_{k-1}, scaled to integers
        if den * d[k + 1] * d[k - 1] < num * d[k] ** 2 - den * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return [tuple(r) for r in b]


def coefficient_shells(rank: int, bound: int, positive_first: bool = False):
    """Nonzero integer vectors of length `rank` by max-norm shell
    h = 1..bound, lexicographic within a shell; with positive_first, only
    those whose first nonzero entry is positive (one of each pair +-v).

    A shell is built directly: a leading entry with |c| = h leaves the rest
    free in [-h, h], any other leading entry puts the rest on the shell.
    """
    for h in range(1, bound + 1):
        yield from _shell(rank, h, positive_first)


def _shell(rank, h, positive_first):
    if rank == 0:
        return
    for c in range(0 if positive_first else -h, h + 1):
        if abs(c) == h:
            rest = itertools.product(range(-h, h + 1), repeat=rank - 1)
        else:
            rest = _shell(rank - 1, h, positive_first and c == 0)
        for r in rest:
            yield (c,) + r


def int_combination(coeffs, mats) -> IntMatrix:
    """The integer matrix sum of c_i * mats[i]; the mats share one shape."""
    rows, cols = mats[0].rows, mats[0].cols
    terms = [(c, M.entries) for c, M in zip(coeffs, mats) if c]
    return IntMatrix(rows, cols, tuple(
        tuple(sum(c * e[i][j] for c, e in terms) for j in range(cols)) for i in range(rows)))


def lattices_equal(a_rows, b_rows) -> bool:
    """Exact equality of the row lattices spanned by two generator lists:
    a comparison of their Hermite normal forms."""
    a, b = (row_lattice_basis(IntMatrix.from_rows(r)) if r else [] for r in (a_rows, b_rows))
    return a == b


def torsion_free_quotient(sub_rows, ambient_rows):
    """Basis rows of (ambient/sub) modulo torsion; representatives are
    returned in the coordinates that both row lists share.

    The ambient rows must be independent over Q and the sub rows must lie
    in their lattice; InputError is raised otherwise.  With X the
    coordinates of the sub rows in the ambient basis and K =
    kernel_integer(X), v -> K v maps the ambient lattice onto Z^rank(K)
    with kernel the saturation of sub, so integer right inverses of K
    represent the quotient's basis."""
    ambient = IntMatrix.from_rows(ambient_rows)
    if ambient.rank() != ambient.rows:
        raise InputError("ambient lattice rows must be independent over Q")
    if not sub_rows:
        return list(ambient.entries)
    at = ambient.transpose()
    coords = solve_integer(at, IntMatrix.from_rows(sub_rows).transpose())
    if coords is None:
        raise InputError("sub lattice is not contained in the ambient lattice")
    ker = kernel_integer(coords.transpose())
    if not ker:
        return []
    K = IntMatrix.from_rows(ker)
    return list((at @ solve_integer(K, IntMatrix.identity(K.rows))).transpose().entries)
