"""Plectic Hodge structures: bidegree decompositions of H (x) C with
conjugation symmetry, their refinement to classical Hodge structures,
filtrations, tensor products, morphism and orthogonality checks, every
Jacobian as one quotient, `jacobian(h, keep)` = H \\ (H (x) C) / F for F the
pieces whose bidegree satisfies `keep`, and the RM algebraicity certificate.

A classical Hodge structure is a plectic one of degree n = 1, with the
(p, q) piece at `Bidegree((p,), (q,))`; there is no separate type.
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
from .tori import AlgebraizationResult, ComplexTorus, RMStructure, algebraize_rm, detect_rm

__all__ = [
    "Bidegree",
    "PlecticHodgeStructure",
    "ValidationReport",
    "validate",
    "refine_to_classical",
    "is_effective_weight_one",
    "hodge_filtration",
    "tensor",
    "jacobian",
    "plectic_jacobian",
    "jacobian_is_abelian_certificate",
    "check_morphism",
    "orthogonality_check",
    "elliptic_h1",
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
            span_defect = cx.frob(cx.sub(mp.eye(h.rank), cx.matmul(B, X)))
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


def refine_to_classical(h: PlecticHodgeStructure) -> PlecticHodgeStructure:
    """The classical structure, of degree 1: its (p, q) piece sums the
    pieces with |alpha| = p and |beta| = q."""
    grouped = {}
    for bd, basis in h.sorted_pieces():
        grouped.setdefault(bd.weights, []).append(basis)
    pieces = {Bidegree((p,), (q,)): cx.hstack(mats) for (p, q), mats in grouped.items()}
    return PlecticHodgeStructure(1, h.rank, pieces)


def is_effective_weight_one(h: PlecticHodgeStructure) -> bool:
    return all(bd.is_effective_weight_one() for bd in h.pieces)


def _weight_one_index(h: PlecticHodgeStructure, j: int):
    if not 1 <= j <= h.n:
        raise InputError(f"index {j} out of range 1..{h.n}")
    if not is_effective_weight_one(h):
        raise InputError("filtration is defined for effective weight-one structures")


def hodge_filtration(h: PlecticHodgeStructure, j: int) -> mp.matrix:
    """Concatenated basis of the pieces with alpha_j >= 1 (j is 1-based)."""
    _weight_one_index(h, j)
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


def jacobian(h: PlecticHodgeStructure, keep) -> ComplexTorus:
    """H \\ (H (x) C) / F, for F the sum of the pieces whose bidegree
    satisfies the predicate `keep`: B = [F | comp], F and the other pieces
    each in `sorted_pieces` order, is inverted once, and the periods are the
    comp rows of B^-1, the lattice vectors' coordinates along comp."""
    return _jacobian(h, keep)[0]


def _jacobian(h: PlecticHodgeStructure, keep):
    """`jacobian`, with the (B, X = B^-1, bidegree -> rows of X) of its one
    factorization, as `cx.piece_coordinates` returns them."""
    pieces = h.sorted_pieces()
    F = [(bd, v) for bd, v in pieces if keep(bd)]
    comp = [(bd, v) for bd, v in pieces if not keep(bd)]
    g = sum(v.cols for _, v in F)
    if 2 * g != h.rank:
        raise DegenerateInputError("filtration does not have half the rank")
    B, X, block = cx.piece_coordinates(F + comp, "filtration and complement")
    if X is None:
        raise DegenerateInputError("filtration complement is degenerate")
    with working_precision():
        periods = X[g:, :]
        try:
            return ComplexTorus(periods.rows, periods), (B, X, block)
        except DegenerateInputError as exc:
            raise DegenerateInputError(
                "lattice does not project to a full lattice in the quotient"
            ) from exc


def plectic_jacobian(h: PlecticHodgeStructure, j: int) -> ComplexTorus:
    """The j-th plectic Jacobian H \\ (H (x) C) / F^{1_j} of an effective
    weight-one structure (j is 1-based): `jacobian` by the pieces with
    alpha_j = 1, with the conjugate filtration (alpha_j = 0) as complement."""
    _weight_one_index(h, j)
    return jacobian(h, lambda bd: bd.alpha[j - 1] == 1)


H10, H01 = Bidegree((1,), (0,)), Bidegree((0,), (1,))


def jacobian_is_abelian_certificate(h: PlecticHodgeStructure, rm: RMStructure | None = None,
                                    height_bound: int = 10, tol=None) -> AlgebraizationResult:
    """Algebraicity certificate for the Jacobian of an effective weight-one
    structure of degree 1 carrying real multiplication: the (z, ideal)
    normal form of the Jacobian torus, by `algebraize_rm`.

    The torus is `jacobian(h, keep)` with keep = H^{1,0}, and the one
    inverse X of B = [H^{1,0} | H^{0,1}] it is read from also reads off the
    share of each action matrix's image of a piece that lies outside that
    piece.

    With rm=None the field is the first one detect_rm meets within
    height_bound; a torus with several real-multiplication fields may be
    certified for another field than expected (the dual of
    construct_rm_torus(Q(sqrt 5), [i, 2i]) gives Q(sqrt 2)).  Pass rm to
    certify a specific action.
    """
    tol = resolve_tolerance(tol)
    if h.n != 1 or h.pieces.keys() != {H10, H01}:
        raise InputError("the certificate needs a structure of degree 1 with pieces "
                         "H^{1,0} and H^{0,1}")
    torus, (B, X, block) = _jacobian(h, lambda bd: bd == H10)
    if rm is None:
        rm = detect_rm(torus, height_bound)
        if rm is None:
            raise DegenerateInputError("no real multiplication detected on the Jacobian")
    if 2 * rm.field.degree != h.rank:
        raise InputError("field degree must be half the lattice rank")
    for a in rm.action:
        for bd in (H10, H01):
            # the image is formed at mpmath's ambient precision (ROADMAP item 2)
            image = cx.matmul(cx.mpm(a.entries), h.pieces[bd])
            with working_precision():
                resid = cx.outside(image, B, X, block[bd])
            if resid > tol * 1000:
                raise InputError("supplied action does not preserve the Hodge pieces")
    return algebraize_rm(torus, rm, tol=tol)


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


def orthogonality_check(h: PlecticHodgeStructure, pairing: IntMatrix, tol=None) -> bool:
    """Check that each piece H^{a,b} is exactly the annihilator, under
    the given perfect integer pairing P, of every other piece except the
    complementary one (complements taken against the all-ones weight): the
    middle-degree self-pairing case.  With W = P (those other pieces), a
    piece of a structure that passes `validate` is that annihilator iff its
    dimension is rank - W.cols and ||basis^T W||_F <= tol ||basis||_F ||W||_F."""
    tol = resolve_tolerance(tol)
    if pairing.rows != h.rank or pairing.cols != h.rank:
        raise InputError("pairing shape mismatch")
    if abs(pairing.det()) != 1:
        raise DegenerateInputError("pairing is not perfect")
    with working_precision():
        P = cx.mpm(pairing.entries)
        for bd, basis in h.sorted_pieces():
            comp_bd = bd.complement()
            others = [v for kd, v in h.sorted_pieces() if kd != comp_bd]
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
