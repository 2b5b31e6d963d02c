"""Plectic Hodge structures: bidegree decompositions of H (x) C with
conjugation symmetry, their refinement to classical Hodge structures,
filtrations, tensor products, morphism and orthogonality checks, and the
Jacobian construction.

Pieces are stored as explicit complex basis matrices in lattice
coordinates; bases compose under Kronecker products and feed directly
into period-matrix assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from . import cxlinalg as cx
from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError
from .lattices import IntMatrix
from .tori import ComplexTorus

__all__ = [
    "Bidegree",
    "PlecticHodgeStructure",
    "ClassicalHodgeStructure",
    "ValidationReport",
    "validate",
    "refine_to_classical",
    "is_effective_weight_one",
    "hodge_filtration",
    "tensor",
    "plectic_jacobian",
    "check_morphism",
    "orthogonality_check",
    "elliptic_h1",
    "trivial_structure",
]


@dataclass(frozen=True)
class Bidegree:
    """Pair of integer vectors of equal length n."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise InputError("alpha and beta must have equal length")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def weights(self):
        return sum(self.alpha), sum(self.beta)

    def conjugate(self) -> "Bidegree":
        return Bidegree(self.beta, self.alpha)

    def concat(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.alpha + other.alpha, self.beta + other.beta)

    def complement(self) -> "Bidegree":
        return Bidegree(tuple(1 - a for a in self.alpha), tuple(1 - b for b in self.beta))

    def is_effective_weight_one(self) -> bool:
        return all(a in (0, 1) and b in (0, 1) and a + b == 1
                   for a, b in zip(self.alpha, self.beta))

    def key(self):
        return (self.alpha, self.beta)


def _as_bidegree(k) -> Bidegree:
    if isinstance(k, Bidegree):
        return k
    a, b = k
    return Bidegree(tuple(int(x) for x in a), tuple(int(x) for x in b))


@dataclass(frozen=True)
class PlecticHodgeStructure:
    """Decomposition of (Z^rank (x) C) into bidegree pieces, each given
    by a complex basis matrix in lattice coordinates."""

    n: int
    rank: int
    pieces: dict

    def __post_init__(self):
        if self.rank < 0:
            raise InputError("lattice rank must be nonnegative")
        norm = {}
        for k, v in self.pieces.items():
            bd = _as_bidegree(k)
            if bd.n != self.n:
                raise InputError("piece bidegree length must equal the plectic degree")
            if v.rows != self.rank:
                raise InputError("piece basis height must equal the lattice rank")
            if v.cols == 0:
                continue
            norm[bd] = v
        object.__setattr__(self, "pieces", norm)

    def sorted_pieces(self):
        return sorted(self.pieces.items(), key=lambda kv: kv[0].key())

    def piece(self, alpha, beta) -> mp.matrix:
        bd = Bidegree(tuple(alpha), tuple(beta))
        if bd in self.pieces:
            return self.pieces[bd]
        return mp.matrix(self.rank, 0)

    def total_piece_dim(self) -> int:
        return sum(v.cols for v in self.pieces.values())


@dataclass(frozen=True)
class ClassicalHodgeStructure:
    """Classical (p, q)-decomposition, same storage conventions."""

    rank: int
    pieces: dict  # (p, q) -> basis matrix

    def sorted_pieces(self):
        return sorted(self.pieces.items(), key=lambda kv: kv[0])

    def jacobian(self) -> ComplexTorus:
        """Complex torus H \\ (H (x) C) / F^1 of a weight-one structure."""
        keys = set(self.pieces.keys())
        if keys != {(1, 0), (0, 1)}:
            raise InputError("jacobian needs an effective weight-one structure")
        return _quotient_torus(self.pieces[(1, 0)], self.pieces[(0, 1)])


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    span_defect: mp.mpf
    conjugation_residual: mp.mpf
    piece_dims: dict
    messages: tuple = ()


def validate(h: PlecticHodgeStructure, tol=None) -> ValidationReport:
    """Check direct-sum completeness and conjugation symmetry in piece
    coordinates: B stacks the piece bases and X = B^-1 (one LU).

    span_defect is ||I - B X||_F when ||B||_F ||X||_F tol < rank, and 1
    otherwise or when LU finds B singular: rounding noise when the pieces
    span, >= 1 when they do not; ||B||_F ||X||_F >= rank, with equality
    for orthonormal pieces.  conjugation_residual is the worst, over
    pieces p with conjugate piece q, of ||conj(B_p) - B_q (X conj(B_p))_q||_F
    / ||conj(B_p)||_F, the share of conj(H^{a,b}) outside H^{b,a}; it is 1
    for a missing or wrong-sized conjugate piece, and when the pieces do not
    span.  Passes iff both are below tol.
    """
    tol = resolve_tolerance(tol)
    total = h.total_piece_dim()
    if total != h.rank:
        raise InputError(
            f"piece dimensions sum to {total}, lattice rank is {h.rank}"
        )
    pieces = h.sorted_pieces()
    messages = []
    with working_precision():
        B, X, block = cx.piece_coordinates(pieces, "pieces")
        if X is not None and cx.frob(B) * cx.frob(X) * tol < h.rank:
            span_defect = cx.frob(mp.eye(h.rank) - cx.matmul(B, X))
        else:
            X, span_defect = None, mp.mpf(1)
        conj_res = mp.mpf(0)
        for bd, basis in pieces:
            other = h.pieces.get(bd.conjugate())
            if other is None:
                messages.append(f"missing conjugate piece for {bd.key()}")
                res = mp.mpf(1)
            elif other.cols != basis.cols:
                messages.append(f"conjugate piece for {bd.key()} has dimension "
                                f"{other.cols}, not {basis.cols}")
                res = mp.mpf(1)
            elif X is None:
                res = mp.mpf(1)
            else:
                res = cx.outside(cx.conj(basis), B, X, block[bd.conjugate()])
            conj_res = max(conj_res, res)
        passed = bool(span_defect < tol and conj_res < tol)
    dims = {bd.key(): v.cols for bd, v in pieces}
    return ValidationReport(passed, span_defect, conj_res, dims, tuple(messages))


def refine_to_classical(h: PlecticHodgeStructure) -> ClassicalHodgeStructure:
    """Sum the pieces with |alpha| = p and |beta| = q."""
    grouped = {}
    for bd, basis in h.sorted_pieces():
        grouped.setdefault(bd.weights, []).append(basis)
    pieces = {pq: cx.hstack(mats) for pq, mats in grouped.items()}
    return ClassicalHodgeStructure(h.rank, pieces)


def is_effective_weight_one(h: PlecticHodgeStructure) -> bool:
    return all(bd.is_effective_weight_one() for bd in h.pieces)


def hodge_filtration(h: PlecticHodgeStructure, j: int) -> mp.matrix:
    """Concatenated basis of the pieces with alpha_j >= 1 (j is 1-based)."""
    if not 1 <= j <= h.n:
        raise InputError(f"index {j} out of range 1..{h.n}")
    if not is_effective_weight_one(h):
        raise InputError("filtration is defined for effective weight-one structures")
    mats = [v for bd, v in h.sorted_pieces() if bd.alpha[j - 1] >= 1]
    F = cx.hstack(mats)
    if 2 * F.cols != h.rank:
        raise DegenerateInputError("filtration does not have half the rank")
    return F


def tensor(a: PlecticHodgeStructure, b: PlecticHodgeStructure) -> PlecticHodgeStructure:
    """Tensor product: Z^(rank a) (x) Z^(rank b) = Z^(rank a * rank b) on
    the Kronecker basis, pieces by Kronecker product at concatenated
    bidegrees."""
    pieces = {}
    for bda, va in a.sorted_pieces():
        for bdb, vb in b.sorted_pieces():
            pieces[bda.concat(bdb)] = cx.kron(va, vb)
    return PlecticHodgeStructure(a.n + b.n, a.rank * b.rank, pieces)


def plectic_jacobian(h: PlecticHodgeStructure, j: int) -> ComplexTorus:
    """The complex torus H \\ (H (x) C) / F^{1_j}, with the conjugate
    filtration as the complement of F^{1_j}."""
    F = hodge_filtration(h, j)
    comp = cx.hstack([v for bd, v in h.sorted_pieces() if bd.alpha[j - 1] == 0])
    return _quotient_torus(F, comp)


def _quotient_torus(F: mp.matrix, comp: mp.matrix) -> ComplexTorus:
    _, X, block = cx.piece_coordinates([("F", F), ("comp", comp)], "filtration and complement")
    return _coordinate_torus(X, block["comp"])


def _coordinate_torus(X, rows: slice) -> ComplexTorus:
    """H \\ (H (x) C) / F for X = [F | comp]^-1 from `cx.piece_coordinates`
    (None when singular): the periods are the comp coordinates, X[rows, :]."""
    if X is None:
        raise DegenerateInputError("filtration complement is degenerate")
    with working_precision():
        periods = X[rows, :]
        try:
            return ComplexTorus(periods.rows, periods)
        except DegenerateInputError as exc:
            raise DegenerateInputError(
                "lattice does not project to a full lattice in the quotient"
            ) from exc


def check_morphism(f: IntMatrix, src: PlecticHodgeStructure,
                   dst: PlecticHodgeStructure, tol=None) -> bool:
    """True iff the complexification of f maps each src piece into the
    dst piece of the same bidegree: read in the coordinates of the dst
    piece basis, each image's share outside its own block is at most tol.
    Raises DegenerateInputError when the dst pieces are not a basis."""
    tol = resolve_tolerance(tol)
    if f.rows != dst.rank or f.cols != src.rank:
        raise InputError("morphism matrix shape mismatch")
    B, X, block = cx.piece_coordinates(dst.sorted_pieces(), "target pieces")
    if X is None:
        raise DegenerateInputError("target pieces are linearly dependent")
    with working_precision():
        fc = cx.mpm(f.entries)
        for bd, basis in src.sorted_pieces():
            image = cx.matmul(fc, basis)
            if cx.frob(image) < tol:
                continue
            if bd not in block or cx.outside(image, B, X, block[bd]) > tol:
                return False
    return True


def orthogonality_check(h: PlecticHodgeStructure, pairing: IntMatrix, tol=None,
                        companion: PlecticHodgeStructure | None = None) -> bool:
    """Check that each piece H^{a,b} is exactly the annihilator, under
    the given perfect integer pairing P, of every companion piece except
    the complementary one (complements taken against the all-ones
    weight).  The companion defaults to h itself, the middle-degree
    self-pairing case.  With W = P (those companion pieces), a piece of a
    structure that passes `validate` is that annihilator iff its dimension
    is rank - W.cols and ||basis^T W||_F <= tol ||basis||_F ||W||_F."""
    tol = resolve_tolerance(tol)
    if companion is None:
        companion = h
    if pairing.rows != h.rank or pairing.cols != companion.rank:
        raise InputError("pairing shape mismatch")
    if pairing.rows != pairing.cols or abs(pairing.det()) != 1:
        raise DegenerateInputError("pairing is not perfect")
    with working_precision():
        P = cx.mpm(pairing.entries)
        for bd, basis in h.sorted_pieces():
            comp_bd = bd.complement()
            others = [v for kd, v in companion.sorted_pieces() if kd != comp_bd]
            if not others:
                continue
            W = cx.matmul(P, cx.hstack(others))
            if basis.cols != h.rank - W.cols:
                return False
            if cx.frob(cx.matmul(basis.T, W)) > tol * cx.frob(basis) * cx.frob(W):
                return False
    return True


def elliptic_h1(omega1, omega2) -> PlecticHodgeStructure:
    """Degree-one structure of the torus C / (Z w1 + Z w2): the rank-two
    lattice with H^{1,0} spanned by (w1, w2)."""
    with working_precision():
        w1, w2 = mp.mpmathify(omega1), mp.mpmathify(omega2)
        if mp.im(w2 * mp.conj(w1)) == 0:  # Im(w2 / w1) = 0, or w1 = 0
            raise InputError("lattice generators are collinear")
        hol = cx.mpm([[w1], [w2]])
        pieces = {
            Bidegree((1,), (0,)): hol,
            Bidegree((0,), (1,)): cx.conj(hol),
        }
    return PlecticHodgeStructure(1, 2, pieces)


def trivial_structure(n: int = 0) -> PlecticHodgeStructure:
    """Rank-one structure concentrated at bidegree (0, 0)."""
    pieces = {Bidegree((0,) * n, (0,) * n): cx.mpm([[1]])}
    return PlecticHodgeStructure(n, 1, pieces)
