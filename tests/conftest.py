import mpmath as mp
import pytest

from plectic import cxlinalg as cx
from plectic.config import resolve_tolerance, set_precision, working_precision


@pytest.fixture(autouse=True, scope="session")
def configured_precision():
    set_precision(128)
    yield


@pytest.fixture()
def square_lattice():
    return (mp.mpf(1), mp.mpc(0, 1))


@pytest.fixture()
def generic_tau():
    return mp.mpc("0.3", "1.7")


def projector(A: mp.matrix, rtol=None) -> mp.matrix:
    """Orthogonal projector onto the column span of A: U_r U_r^H from an SVD,
    keeping the singular values above rtol times the largest."""
    with working_precision():
        U, S, _ = mp.mp.svd(A.copy())
        s = [S[i] for i in range(S.rows)]
        if not s or s[0] == 0:
            return mp.matrix(A.rows, A.rows)
        rtol = resolve_tolerance(rtol)
        r = sum(1 for x in s if x > rtol * s[0])
        Q = U[:, :r]
        return Q * cx.ctranspose(Q)


def subspace_residual(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.mpf:
    """How far col(A) sticks out of col(B), relative to ||A||: A less its
    least-squares fit B B^+ A, with B^+ the SVD pseudo-inverse keeping the
    singular values above rtol times the largest."""
    with working_precision():
        na = cx.frob(A)
        if na == 0:
            return mp.mpf(0)
        if B.cols == 0:
            return mp.mpf(1)
        U, S, V = mp.mp.svd(B.copy())
        s = [S[i] for i in range(S.rows)]
        rtol = resolve_tolerance(rtol)
        top = s[0] if s else mp.mpf(0)
        Sd = mp.matrix(len(s), len(s))
        for i, x in enumerate(s):
            Sd[i, i] = 1 / x if (top > 0 and x > rtol * top) else mp.mpf(0)
        R = A - cx.matmul(B, cx.matmul(cx.matmul(cx.matmul(cx.ctranspose(V), Sd),
                                                cx.ctranspose(U)), A))
        return cx.frob(R) / na


def subspace_distance(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.mpf:
    """Frobenius distance between the orthogonal projectors of two spans."""
    with working_precision():
        return cx.frob(projector(A, rtol) - projector(B, rtol))


def reference_frob(A: mp.matrix) -> mp.mpf:
    """The Frobenius norm as an mpf loop at working precision: the
    roundings `cxlinalg.frob` must reproduce."""
    with working_precision():
        acc = mp.mpf(0)
        for i in range(A.rows):
            for j in range(A.cols):
                acc += abs(A[i, j]) ** 2
        return mp.sqrt(acc)


def reference_lu(A):
    """Crout LU with partial pivoting, each entry of L and U one `mp.fdot`:
    (perm, lower, diag, upper, sign, prec) as the fields of `cxlinalg.LU`,
    or None when a pivot is at most ||A||_1 * eps."""
    n = A.rows
    rows = A.tolist()
    eps = +mp.eps
    prec = mp.mp.prec + 10

    def mag(x):
        return abs(x.real) + abs(x.imag)

    with mp.workprec(prec):
        norm1 = max((mp.fsum(mag(r[j]) for r in rows) for j in range(n)), default=0)
        tol = norm1 * eps
        perm = list(range(n))
        lower = [[] for _ in range(n)]
        ucols = [[] for _ in range(n)]
        sign = 1
        for k in range(n):
            uk = ucols[k]
            col = [rows[i][k] - mp.fdot(lower[i], uk) for i in range(k, n)]
            p = max(range(n - k), key=lambda t: mag(col[t]))
            piv = col[p]
            if mag(piv) <= tol:
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
    return perm, lower, diag, upper, sign, prec


def reference_solve(factors, B) -> mp.matrix:
    """X with A X = B from `reference_lu(A)`, each step one `mp.fdot`."""
    perm, lower, diag, upper, _, prec = factors
    n = len(perm)
    X = mp.matrix(n, B.cols)
    with mp.workprec(prec):
        for j, b in enumerate(zip(*B.tolist())):
            y = [b[p] for p in perm]
            i0 = next((i for i, v in enumerate(y) if v), n)
            for i in range(i0 + 1, n):
                y[i] -= mp.fdot(lower[i][i0:], y[i0:i])
            xr = []
            for i in range(n - 1, -1, -1):
                xr.append((y[i] - mp.fdot(upper[i], xr)) / diag[i])
            for i, v in enumerate(reversed(xr)):
                X[i, j] = v
    return X


def raw(x):
    """The type and libmp value of an mpf or mpc, nested through lists,
    tuples and matrices, for bit-for-bit comparisons."""
    if isinstance(x, mp.matrix):
        return raw(x.tolist())
    if isinstance(x, (list, tuple)):
        return [raw(v) for v in x]
    if isinstance(x, mp.mpc):
        return "mpc", x._mpc_
    if isinstance(x, mp.mpf):
        return "mpf", x._mpf_
    return x
