"""Complex linear algebra at the configured working precision (mpmath)."""

from __future__ import annotations

import mpmath as mp

from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError

__all__ = [
    "mpm", "conj", "ctranspose", "hstack", "frob", "kron", "nullspace", "lstsq",
    "subspace_residual", "real_imag_stack",
]


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


def lstsq(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.matrix:
    """Least-squares solve via the SVD pseudo-inverse (B may have many columns)."""
    U, s, V = _svd(A)
    rtol = resolve_tolerance(rtol)
    top = s[0] if s else mp.mpf(0)
    with working_precision():
        Sd = mp.matrix(len(s), len(s))
        for i, x in enumerate(s):
            Sd[i, i] = 1 / x if (top > 0 and x > rtol * top) else mp.mpf(0)
        return ctranspose(V) * Sd * ctranspose(U) * B


def subspace_residual(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.mpf:
    """How far col(A) sticks out of col(B), relative to ||A||."""
    with working_precision():
        na = frob(A)
        if na == 0:
            return mp.mpf(0)
        if B.cols == 0:
            return mp.mpf(1)
        R = A - B * lstsq(B, A, rtol)
        return frob(R) / na


def real_imag_stack(A: mp.matrix) -> mp.matrix:
    """Real 2r x c matrix stacking Re(A) over Im(A)."""
    out = mp.matrix(2 * A.rows, A.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            out[i, j] = mp.re(A[i, j])
            out[A.rows + i, j] = mp.im(A[i, j])
    return out
