"""Complex linear algebra at the configured working precision (mpmath).

Every dense square solve in the package goes through one LU kernel.
`lu(A)` is the Crout factorization PA = LU with partial pivoting (Golub &
Van Loan, *Matrix Computations*, 4th ed., section 3.2), held on plain row
lists: each entry of L and U is one `mp.fdot` of a row of L against a
column of U.  The pivot is the entry of largest |re| + |im| in its column,
which costs no square root.  The factorization runs at the caller's
precision plus 10 guard bits, as mpmath's own `inverse` and `lu_solve` do,
and its results keep those bits.  A pivot with |re| + |im| at most
||A||_1 * eps (the norm in the same measure, eps at the caller's
precision, mpmath's rule for `det`) means A is singular, and `lu` returns
None.  Taking eps at the raised precision instead would judge by the
guard bits: the last pivot of an exactly singular integer product, left
by rounding, reached 18 ||A||_1 eps at that precision.  `inverse`,
`solve` and `det` are built on `lu`; the first two raise
`DegenerateInputError` on a singular matrix, and `det` returns 0.
`lattice_lu` adds the test that lattice generators span: a Hadamard
ratio at least the tolerance.

mpmath's SVD remains behind `nullspace` and `subspace_residual`, each
with one library caller: `nullspace` in `shimura._restrict_structure`
(the Hodge pieces of a character piece) and `subspace_residual` in
`tori.jacobian_is_abelian_certificate` (does the order action preserve
those pieces).  Both wait on the traced benchmark (ROADMAP item 1): a
canonical basis from `_restrict_structure` takes the certificate's
residuals from about 1e-17 to about 1e-40, and forming the certificate's
product at working precision does the same, so either change makes the
planted hodge-jacobians job pass (CHANGES.md FOUND lines).  Every other
subspace question is read in piece coordinates or from an LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError

__all__ = [
    "mpm", "conj", "ctranspose", "hstack", "frob", "kron", "nullspace", "subspace_residual",
    "real_imag_stack", "LU", "lu", "lattice_lu", "inverse", "solve", "det",
]

_LU_GUARD_BITS = 10


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
    with working_precision():
        acc = mp.mpf(0)
        for i in range(A.rows):
            for j in range(A.cols):
                acc += abs(A[i, j]) ** 2
        return mp.sqrt(acc)


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


def subspace_residual(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.mpf:
    """How far col(A) sticks out of col(B), relative to ||A||: A less its
    least-squares fit B B^+ A, with B^+ the SVD pseudo-inverse."""
    with working_precision():
        na = frob(A)
        if na == 0:
            return mp.mpf(0)
        if B.cols == 0:
            return mp.mpf(1)
        U, s, V = _svd(B)
        rtol = resolve_tolerance(rtol)
        top = s[0] if s else mp.mpf(0)
        Sd = mp.matrix(len(s), len(s))
        for i, x in enumerate(s):
            Sd[i, i] = 1 / x if (top > 0 and x > rtol * top) else mp.mpf(0)
        R = A - B * (ctranspose(V) * Sd * ctranspose(U) * A)
        return frob(R) / na


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

    def solve(self, B) -> mp.matrix:
        """X with A X = B, for B with any number of columns."""
        n = len(self.perm)
        if B.rows != n:
            raise InputError("right-hand side has the wrong number of rows")
        X = mp.matrix(n, B.cols)
        with mp.workprec(self.prec):
            for j, b in enumerate(zip(*B.tolist())):
                y = [b[p] for p in self.perm]
                # leading zeros of PB stay zero in L^-1 PB (unit vectors of an inverse)
                i0 = next((i for i, v in enumerate(y) if v), n)
                for i in range(i0 + 1, n):
                    y[i] -= mp.fdot(self.lower[i][i0:], y[i0:i])
                xr = []  # x[n-1], x[n-2], ...
                for i in range(n - 1, -1, -1):
                    xr.append((y[i] - mp.fdot(self.upper[i], xr)) / self.diag[i])
                for i, v in enumerate(reversed(xr)):
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
        lower = [[] for _ in range(n)]  # lower[i][m] = L[i, m] for the m done so far
        ucols = [[] for _ in range(n)]  # ucols[j][m] = U[m, j] for the m done so far
        sign = 1
        for k in range(n):
            uk = ucols[k]
            col = [rows[i][k] - mp.fdot(lower[i], uk) for i in range(k, n)]
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
                ucols[j].append(rk[j] - mp.fdot(lk, ucols[j]))
            for t in range(1, n - k):
                lower[k + t].append(col[t] / piv)
    diag = [ucols[i][i] for i in range(n)]
    upper = [[ucols[j][i] for j in range(n - 1, i, -1)] for i in range(n)]
    return LU(perm, lower, diag, upper, sign, prec)


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
