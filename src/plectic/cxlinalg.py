"""Complex linear algebra at the configured working precision (mpmath).

Every dense square solve in the package goes through one LU kernel.
`lu(A)` is the Crout factorization PA = LU with partial pivoting (Golub &
Van Loan, *Matrix Computations*, 4th ed., section 3.2), held on plain row
lists: each entry of L and U is one exact dot product of a row of L
against a column of U.  The pivot is the entry of largest |re| + |im| in
its column, which costs no square root.  The factorization runs at the
caller's precision plus 10 guard bits, as mpmath's own `inverse` and
`lu_solve` do, and its results keep those bits.  A pivot with |re| + |im|
at most ||A||_1 * eps (the norm in the same measure, eps at the caller's
precision, mpmath's rule for `det`) means A is singular, and `lu` returns
None.  Taking eps at the raised precision instead would judge by the
guard bits: the last pivot of an exactly singular integer product, left
by rounding, reached 18 ||A||_1 eps at that precision.  `inverse`,
`solve` and `det` are built on `lu`; the first two raise
`DegenerateInputError` on a singular matrix, and `det` returns 0.
`lattice_lu` adds the test that lattice generators span: a Hadamard
ratio at least the tolerance.

The dot products of `lu`, `LU.solve` and `matmul` share one exact kernel
(Kulisch, *Computer Arithmetic and Validity*, 2nd ed.): a vector of mpf
and mpc is held as Gaussian-integer mantissas over one shared exponent,
sum a_k b_k is one Python sum of exact integer products, and the sum is
rounded once by `from_man_exp`.  `mp.fdot` also sums the exact products
and rounds once, and `mpf_sum` drops a term only across an exponent gap
of more than twice the precision, so the two agree bit for bit, mpf or
mpc alike, whenever the product exponents span at most 2 * prec bits.
Otherwise, or for an inf or nan entry, the kernel calls `mp.fdot`.  The
saving comes from converting each row and column once: `lu` grows its L
rows and U columns in this form, an `LU` converts its rows once for all
the columns `solve` is given, and `matmul` converts each row of A and
column of B once.  `frob` makes mpmath's roundings on raw libmp values.

A subspace question about pieces that together form a basis is read in
piece coordinates: `piece_coordinates` stacks the piece bases into B and
inverts B by one LU, and `outside` is the share of a matrix's columns
that lies outside one piece, read from those coordinates.  mpmath's SVD
remains only behind `nullspace`, whose one library caller is
`shimura._restrict_structure` (the Hodge pieces of a character piece).
It waits on the traced benchmark (ROADMAP item 1): a canonical basis from
`_restrict_structure` takes the RM certificate's residuals from about
1e-17 to about 1e-40, which makes the planted hodge-jacobians job pass
(CHANGES.md FOUND lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpc_abs, mpf_abs, mpf_add, mpf_pow_int, mpf_sqrt

from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError

__all__ = [
    "mpm", "conj", "ctranspose", "hstack", "frob", "kron", "matmul", "nullspace",
    "piece_coordinates", "outside", "real_imag_stack", "LU", "lu", "lattice_lu", "inverse",
    "solve", "det",
]

_LU_GUARD_BITS = 10
_MPC = mp.mpc


class _Vec:
    """A growing vector of mpf and mpc, `vals`, also held exactly as
    vals[k] = (re[k] + i im[k]) 2^e with integer re and im; `im` is None
    until an mpc arrives.  Its nonzero parts have exponents in [e, hi];
    `last_mpc` is the index of the last mpc (-1 for none), and `finite`
    turns False at an inf or nan, whose re and im are left 0."""

    __slots__ = ("vals", "re", "im", "e", "hi", "last_mpc", "finite")

    def __init__(self, vals=()):
        self.vals, self.re, self.im = [], [], None
        self.e = self.hi = None
        self.last_mpc, self.finite = -1, True
        for x in vals:
            self.append(x)

    def append(self, x):
        k = len(self.vals)
        self.vals.append(x)
        if type(x) is _MPC:
            (rs, rm, rx, _), (is_, im, ix, _) = x._mpc_
            if self.im is None:
                self.im = [0] * k
            self.last_mpc = k
        else:
            (rs, rm, rx, _), is_, im, ix = x._mpf_, 0, 0, 0
        if (rx and not rm) or (ix and not im):  # inf or nan
            self.finite = False
            rm = im = 0
        if rm or im:
            if not im:
                lo = hi = rx
            elif not rm:
                lo = hi = ix
            else:
                lo, hi = min(rx, ix), max(rx, ix)
            if self.e is None:
                self.e, self.hi = lo, hi
            else:
                if lo < self.e:
                    d = self.e - lo
                    self.re = [v << d for v in self.re]
                    if self.im is not None:
                        self.im = [v << d for v in self.im]
                    self.e = lo
                self.hi = max(self.hi, hi)
            if rm:
                rm = (-rm if rs else rm) << (rx - self.e)
            if im:
                im = (-im if is_ else im) << (ix - self.e)
        self.re.append(rm)
        if self.im is not None:
            self.im.append(im)


def _dot(a: _Vec, b: _Vec, k: int = 0):
    """sum_t a.vals[k + t] * b.vals[t] over the len(b.vals) = len(a.vals) - k
    terms at the current precision: `mp.fdot(a.vals[k:], b.vals)` bit for
    bit, an mpc exactly when one of those entries is an mpc.

    `mpf_sum`, under `mp.fdot`, adds the exact products as integers and
    rounds once.  It drops a term, or its running sum, only where a term's
    exponent and the top bit of another term or of a nonzero partial sum
    lie more than 2 * prec bits apart.  Every such exponent lies in
    [a.e + b.e, a.hi + b.hi] and every such top bit above a.e + b.e, so when
    that range spans at most 2 * prec bits nothing is dropped, and the exact
    sum rounded once is `mp.fdot`'s result.  Otherwise, and for an inf or
    nan entry, this calls `mp.fdot`."""
    prec, rnd = mp.mp._prec_rounding  # as mp.fdot reads them
    ac, bc = a.last_mpc >= k, b.last_mpc >= 0
    if a.finite and b.finite:
        if a.e is None or b.e is None:
            return _MPC(0) if ac or bc else mp.mpf(0)
        if (a.hi - a.e) + (b.hi - b.e) <= 2 * prec:
            ar, e = a.re[k:] if k else a.re, a.e + b.e
            re = sum(map(mul, ar, b.re))
            if not (ac or bc):
                return mp.mp.make_mpf(from_man_exp(re, e, prec, rnd))
            im = sum(map(mul, ar, b.im)) if bc else 0
            if ac:
                ai = a.im[k:] if k else a.im
                im += sum(map(mul, ai, b.re))
                if bc:
                    re -= sum(map(mul, ai, b.im))
            return mp.mp.make_mpc((from_man_exp(re, e, prec, rnd), from_man_exp(im, e, prec, rnd)))
    return mp.fdot(a.vals[k:], b.vals)


def mpm(rows) -> mp.matrix:
    """Build an mpmath matrix from nested sequences of numbers."""
    rows = list(rows)
    m = mp.matrix(len(rows), len(rows[0]) if rows else 0)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            m[i, j] = mp.mpmathify(x)
    return m


def conj(A: mp.matrix) -> mp.matrix:
    B = A.copy()
    for i in range(A.rows):
        for j in range(A.cols):
            B[i, j] = mp.conj(A[i, j])
    return B


def ctranspose(A: mp.matrix) -> mp.matrix:
    return conj(A).T


def hstack(mats) -> mp.matrix:
    mats = [m for m in mats if m.cols > 0]
    if not mats:
        raise DegenerateInputError("hstack of no columns")
    rows = mats[0].rows
    out = mp.matrix(rows, sum(m.cols for m in mats))
    c = 0
    for m in mats:
        for j in range(m.cols):
            for i in range(rows):
                out[i, c] = m[i, j]
            c += 1
    return out


def frob(A: mp.matrix) -> mp.mpf:
    """sqrt(sum |a_ij|^2) at working precision, with mpmath's roundings
    (each |a_ij|, its square, each partial sum, the root) made on raw
    libmp values."""
    with working_precision():
        prec, rnd = mp.mp._prec_rounding  # as mpf arithmetic reads them
        acc = fzero
        for row in A.tolist():
            for x in row:
                a = mpc_abs(x._mpc_, prec, rnd) if type(x) is _MPC else mpf_abs(x._mpf_, prec, rnd)
                acc = mpf_add(acc, mpf_pow_int(a, 2, prec, rnd), prec, rnd)
        return mp.mp.make_mpf(mpf_sqrt(acc, prec, rnd))


def kron(A: mp.matrix, B: mp.matrix) -> mp.matrix:
    out = mp.matrix(A.rows * B.rows, A.cols * B.cols)
    with working_precision():
        for i in range(A.rows):
            for j in range(A.cols):
                a = A[i, j]
                for k in range(B.rows):
                    for l in range(B.cols):
                        out[i * B.rows + k, j * B.cols + l] = a * B[k, l]
    return out


def matmul(A: mp.matrix, B: mp.matrix) -> mp.matrix:
    """A * B at the current precision, entry for entry as mpmath's product
    (one `mp.fdot` per entry), with each row of A and column of B converted
    once for the exact dot kernel."""
    if A.cols != B.rows:
        raise ValueError("dimensions not compatible for multiplication")
    cols = [_Vec(c) for c in zip(*B.tolist())]
    out = mp.matrix(A.rows, B.cols)
    for i, r in enumerate(A.tolist()):
        r = _Vec(r)
        for j, c in enumerate(cols):
            out[i, j] = _dot(r, c)
    return out


def _svd(A: mp.matrix):
    # mpmath convention: A = U * diag(S) * V  (V is the right factor itself)
    with working_precision():
        U, S, V = mp.mp.svd(A.copy())
    return U, [S[i] for i in range(S.rows)], V


def nullspace(A: mp.matrix, rtol=None) -> mp.matrix:
    """Orthonormal basis (columns) of the right nullspace."""
    if A.rows < A.cols:
        # pad with zero rows so the SVD returns a full right factor
        rows = [[A[i, j] for j in range(A.cols)] for i in range(A.rows)]
        rows += [[mp.mpf(0)] * A.cols for _ in range(A.cols - A.rows)]
        A = mp.matrix(rows)
    _, s, V = _svd(A)
    rtol = resolve_tolerance(rtol)
    top = s[0] if s else mp.mpf(0)
    r = sum(1 for x in s if top > 0 and x > rtol * top)
    return ctranspose(V)[:, r:] if r < A.cols else mp.matrix(A.cols, 0)


def piece_coordinates(pieces, what: str):
    """For (key, basis) pairs: the square stack B of the bases, its inverse
    X by one LU at working precision (None when LU finds B singular), and
    key -> the rows of X, as a slice, that give that piece's coordinates.
    Raises DegenerateInputError, naming `what`, when B is not square."""
    B = hstack([basis for _, basis in pieces])
    if B.cols != B.rows:
        raise DegenerateInputError(f"{what} do not fill the space")
    block, start = {}, 0
    for key, basis in pieces:
        block[key] = slice(start, start + basis.cols)
        start += basis.cols
    with working_precision():
        factors = lu(B)
        X = None if factors is None else factors.solve(mp.eye(B.rows))
    return B, X, block


def outside(A: mp.matrix, B: mp.matrix, X: mp.matrix, rows: slice) -> mp.mpf:
    """||A - B_rows (X A)_rows||_F / ||A||_F: the share of col(A) outside the
    piece whose coordinates are `rows`, for X = B^-1 from `piece_coordinates`.
    This oblique residual is never below the orthogonal one, ||A - P A||_F /
    ||A||_F with P the orthogonal projector onto the piece."""
    return frob(A - matmul(B[:, rows], matmul(X[rows, :], A))) / frob(A)


def real_imag_stack(A: mp.matrix) -> mp.matrix:
    """Real 2r x c matrix stacking Re(A) over Im(A)."""
    out = mp.matrix(2 * A.rows, A.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            out[i, j] = mp.re(A[i, j])
            out[A.rows + i, j] = mp.im(A[i, j])
    return out


def _mag(x):
    """|re| + |im|: the pivot measure, within a factor sqrt(2) of |x|."""
    return abs(x.real) + abs(x.imag)


@dataclass(frozen=True)
class LU:
    """PA = LU of a square matrix, from `lu`, at `prec` bits."""

    perm: list  # perm[i] is the row of A in row i of PA
    lower: list  # lower[i] = L[i, :i]; L has a unit diagonal
    diag: list  # diag[i] = U[i, i]
    upper: list  # upper[i] = U[i, i+1:] reversed, so back substitution appends
    sign: int  # det(P)
    prec: int

    @cached_property
    def _rows(self):
        """`lower` and `upper` as kernel vectors, converted once for every solve."""
        return [_Vec(r) for r in self.lower], [_Vec(r) for r in self.upper]

    def solve(self, B) -> mp.matrix:
        """X with A X = B, for B with any number of columns."""
        n = len(self.perm)
        if B.rows != n:
            raise InputError("right-hand side has the wrong number of rows")
        lower, upper = self._rows
        X = mp.matrix(n, B.cols)
        with mp.workprec(self.prec):
            for j, b in enumerate(zip(*B.tolist())):
                y = [b[p] for p in self.perm]
                # leading zeros of PB stay zero in L^-1 PB (unit vectors of an inverse)
                i0 = next((i for i, v in enumerate(y) if v), n)
                head = _Vec(y[i0:i0 + 1])  # y[i0:i]
                for i in range(i0 + 1, n):
                    y[i] -= _dot(lower[i], head, i0)
                    head.append(y[i])
                xr = _Vec()  # x[n-1], x[n-2], ...
                for i in range(n - 1, -1, -1):
                    xr.append((y[i] - _dot(upper[i], xr)) / self.diag[i])
                for i, v in enumerate(reversed(xr.vals)):
                    X[i, j] = v
        return X

    def det(self):
        with mp.workprec(self.prec):
            return self.sign * mp.fprod(self.diag)


def lu(A) -> LU | None:
    """Crout LU with partial pivoting of the square mpmath matrix A, or None
    when a pivot is at most ||A||_1 * eps (A is singular to the caller's
    precision)."""
    if A.rows != A.cols:
        raise InputError("LU needs a square matrix")
    n = A.rows
    rows = A.tolist()
    eps = +mp.eps  # evaluated now, at the caller's precision
    prec = mp.mp.prec + _LU_GUARD_BITS
    with mp.workprec(prec):
        norm1 = max((mp.fsum(_mag(r[j]) for r in rows) for j in range(n)), default=0)
        tol = norm1 * eps
        perm = list(range(n))
        lower = [_Vec() for _ in range(n)]  # lower[i] holds L[i, m] for the m done so far
        ucols = [_Vec() for _ in range(n)]  # ucols[j] holds U[m, j] for the m done so far
        sign = 1
        for k in range(n):
            uk = ucols[k]
            col = [rows[i][k] - _dot(lower[i], uk) for i in range(k, n)]
            p = max(range(n - k), key=lambda t: _mag(col[t]))
            piv = col[p]
            if _mag(piv) <= tol:
                return None
            if p:
                q = k + p
                rows[k], rows[q] = rows[q], rows[k]
                lower[k], lower[q] = lower[q], lower[k]
                perm[k], perm[q] = perm[q], perm[k]
                col[0], col[p] = piv, col[0]
                sign = -sign
            uk.append(piv)
            lk, rk = lower[k], rows[k]
            for j in range(k + 1, n):
                ucols[j].append(rk[j] - _dot(lk, ucols[j]))
            for t in range(1, n - k):
                lower[k + t].append(col[t] / piv)
    diag = [ucols[i].vals[i] for i in range(n)]
    upper = [[ucols[j].vals[i] for j in range(n - 1, i, -1)] for i in range(n)]
    return LU(perm, [v.vals for v in lower], diag, upper, sign, prec)


def lattice_lu(A, tol) -> LU | None:
    """`lu` of the real square matrix A whose columns generate a lattice,
    or None when they do not span a full one at tolerance tol: `lu` finds
    A singular, or the Hadamard ratio |det A| / prod ||column|| (1 for
    orthogonal columns, whatever their lengths) is below tol."""
    f = lu(A)
    if f is None or abs(f.det()) < tol * mp.fprod(mp.norm(c) for c in zip(*A.tolist())):
        return None
    return f


def _factor(A) -> LU:
    f = lu(A)
    if f is None:
        raise DegenerateInputError("matrix is singular to working precision")
    return f


def inverse(A) -> mp.matrix:
    """A^-1 by `lu`; raises DegenerateInputError when A is singular."""
    return _factor(A).solve(mp.eye(A.rows))


def solve(A, B) -> mp.matrix:
    """X with A X = B for square A, by `lu`; raises DegenerateInputError
    when A is singular."""
    return _factor(A).solve(B)


def det(A):
    """det(A) by `lu`, and 0 when `lu` finds A singular."""
    f = lu(A)
    return mp.mpf(0) if f is None else f.det()
