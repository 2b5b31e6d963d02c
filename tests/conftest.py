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


def subspace_distance(A: mp.matrix, B: mp.matrix, rtol=None) -> mp.mpf:
    """Frobenius distance between the orthogonal projectors of two spans."""
    with working_precision():
        return cx.frob(projector(A, rtol) - projector(B, rtol))
