"""Strongly primitive structures from commuting involutions.

This layer consumes synthetic data (lattice, commuting integer
involutions, a holomorphic subspace): everything downstream of that
datum is linear algebra, and that is what runs here.  No arithmetic
groups, orders, or automorphic forms are computed; optional Hecke
operators are user-supplied commuting integer matrices and only their
compatibilities are checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath as mp

from . import cxlinalg as cx
from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError
from .hodge import (
    H01,
    H10,
    Bidegree,
    PlecticHodgeStructure,
    ValidationReport,
    _coordinate_torus,
    check_morphism,
    jacobian_is_abelian_certificate,
    validate,
)
from .lattices import IntMatrix, kernel_integer, solve_integer
from .numberfields import FieldOrder
from .tori import ComplexTorus, RMStructure, _rm_poly

__all__ = [
    "StronglyPrimitiveDatum",
    "CupOperator",
    "build_plectic_from_frobenii",
    "strongly_primitive",
    "nu_hodge_structure",
    "character_decompose",
    "plectic_jacobian_qsv",
    "QSVJacobianResult",
]


@dataclass(frozen=True)
class StronglyPrimitiveDatum:
    """Lattice with r commuting integer involutions and a holomorphic
    subspace whose involution translates decompose the complexification."""

    r: int
    frobenii: tuple  # r IntMatrix involutions
    holo: mp.matrix  # rank x h complex basis of the holomorphic piece
    hecke: tuple = ()

    def __post_init__(self):
        if len(self.frobenii) != self.r:
            raise InputError("need one involution per plectic index")
        rank = self.rank
        ident = IntMatrix.identity(rank)
        for fr in self.frobenii:
            if fr.rows != rank or fr.cols != rank:
                raise InputError("involution size mismatch")
            if (fr @ fr).entries != ident.entries:
                raise InputError("frobenius matrices must square to the identity")
        for a, b in itertools.combinations(self.frobenii, 2):
            if (a @ b).entries != (b @ a).entries:
                raise InputError("frobenius matrices must commute")
        for t in self.hecke:
            for fr in self.frobenii:
                if (t @ fr).entries != (fr @ t).entries:
                    raise InputError("hecke operators must commute with the involutions")
            for t2 in self.hecke:
                if (t @ t2).entries != (t2 @ t).entries:
                    raise InputError("hecke operators must commute with each other")
        if self.holo.rows != rank:
            raise InputError("holomorphic basis height must equal the lattice rank")
        if self.holo.cols * 2 ** self.r != rank:
            raise InputError("rank must equal 2^r times the holomorphic dimension")

    @property
    def rank(self) -> int:
        return self.frobenii[0].rows if self.frobenii else self.holo.rows

    @property
    def h(self) -> int:
        return self.holo.cols

    def frobenius_product(self, beta) -> IntMatrix:
        out = IntMatrix.identity(self.rank)
        for nu, bit in enumerate(beta):
            if bit:
                out = out @ self.frobenii[nu]
        return out


@dataclass(frozen=True)
class CupOperator:
    """Integer morphism of bidegree (1_nu, 1_nu) into a target structure."""

    nu: int  # 1-based
    matrix: IntMatrix
    target: PlecticHodgeStructure


def build_plectic_from_frobenii(d: StronglyPrimitiveDatum, tol=None
                               ) -> tuple[PlecticHodgeStructure, ValidationReport]:
    """Effective weight-one plectic structure with pieces the involution
    translates of the holomorphic subspace, and the `validate` report that
    checked its conjugation symmetry (a structure that fails it raises)."""
    tol = resolve_tolerance(tol)
    pieces = {}
    with working_precision():
        for beta in itertools.product((0, 1), repeat=d.r):
            alpha = tuple(1 - b for b in beta)
            fr = d.frobenius_product(beta)
            pieces[Bidegree(alpha, beta)] = cx.matmul(cx.mpm(fr.entries), d.holo)
    phs = PlecticHodgeStructure(d.r, d.rank, pieces)
    report = validate(phs, tol)
    if not report.passed:
        if report.span_defect >= tol:
            raise DegenerateInputError("involution translates do not span in direct sum")
        raise DegenerateInputError(
            "holomorphic subspace is not conjugation-compatible with the involutions"
        )
    for t in d.hecke:
        if not check_morphism(t, phs, phs, tol):
            raise DegenerateInputError("hecke operator is not a plectic morphism")
    return phs, report


def strongly_primitive(h: PlecticHodgeStructure, cups, tol=None) -> PlecticHodgeStructure:
    """Maximal torsion-free quotient of the joint kernel of the cup
    operators, with its induced pieces.

    Verifies that each cup is a morphism of bidegree (1_nu, 1_nu) and
    that its complexified kernel is the sum of the pieces with alpha_nu
    or beta_nu equal to one.
    """
    tol = resolve_tolerance(tol)
    if not cups:
        return h
    with working_precision():
        for cup in cups:
            _check_cup(h, cup, tol)
            predicted = sum(
                v.cols for bd, v in h.sorted_pieces()
                if bd.alpha[cup.nu - 1] == 1 or bd.beta[cup.nu - 1] == 1
            )
            if h.rank - cup.matrix.rank() != predicted:
                raise DegenerateInputError(
                    "cup kernel does not match the predicted sum of pieces"
                )
        stacked = IntMatrix.from_rows(
            [row for cup in cups for row in cup.matrix.entries]
        )
        kernel = kernel_integer(stacked)
        survivors = sum(
            v.cols for bd, v in h.sorted_pieces()
            if all(bd.alpha[c.nu - 1] == 1 or bd.beta[c.nu - 1] == 1 for c in cups)
        )
        if len(kernel) != survivors:
            raise DegenerateInputError(
                "joint cup kernel does not match the predicted sum of pieces"
            )
        pieces = {}
        if kernel:
            K = cx.mpm([list(r) for r in kernel]).T  # columns span the kernel
            for bd, basis in h.sorted_pieces():
                should_die = any(
                    bd.alpha[cup.nu - 1] == 0 and bd.beta[cup.nu - 1] == 0 for cup in cups
                )
                if should_die:
                    continue
                # K has full column rank
                coords = cx.solve(cx.matmul(K.T, K), cx.matmul(K.T, basis))
                resid = cx.frob(cx.matmul(K, coords) - basis) / max(mp.mpf(1), cx.frob(basis))
                if resid > tol:
                    raise DegenerateInputError(
                        "surviving piece does not lie in the integral kernel"
                    )
                pieces[bd] = coords
        rank = len(kernel)
    return PlecticHodgeStructure(h.n, rank, pieces)


def _check_cup(h: PlecticHodgeStructure, cup: CupOperator, tol):
    nu = cup.nu
    if not 1 <= nu <= h.n:
        raise InputError("cup index out of range")
    if cup.matrix.cols != h.rank or cup.matrix.rows != cup.target.rank:
        raise InputError("cup matrix shape mismatch")
    B, X, block = cx.piece_coordinates(cup.target.sorted_pieces(), "cup target pieces")
    if X is None:
        raise DegenerateInputError("cup target pieces are linearly dependent")
    L = cx.mpm(cup.matrix.entries)
    for bd, basis in h.sorted_pieces():
        image = cx.matmul(L, basis)
        img_norm = cx.frob(image)
        in_kernel = bd.alpha[nu - 1] == 1 or bd.beta[nu - 1] == 1
        if in_kernel:
            if img_norm > tol * max(1, cx.frob(basis)):
                raise DegenerateInputError(
                    "cup operator does not kill the predicted kernel piece"
                )
            continue
        shifted = Bidegree(
            bd.alpha[: nu - 1] + (bd.alpha[nu - 1] + 1,) + bd.alpha[nu:],
            bd.beta[: nu - 1] + (bd.beta[nu - 1] + 1,) + bd.beta[nu:],
        )
        if img_norm <= tol:
            continue
        if shifted not in block or cx.outside(image, B, X, block[shifted]) > tol:
            raise DegenerateInputError("cup operator is not a plectic morphism")


def nu_hodge_structure(d: StronglyPrimitiveDatum, nu: int, tol=None) -> PlecticHodgeStructure:
    """Weight-one structure of degree 1 whose F^1 collects the pieces of
    `build_plectic_from_frobenii(d)` with beta_nu = 0, and whose H^{0,1} the
    others.  It inherits that structure's span and conjugation checks.  The
    involutions other than the nu-th are automorphisms of it by construction:
    they commute and square to 1, so Frob_mu maps the translate at beta to
    the one at beta + e_mu, whose nu-th bit is the same."""
    return _nu_structure(d, nu, tol)[0]


def _nu_structure(d: StronglyPrimitiveDatum, nu: int, tol):
    """`nu_hodge_structure`, with the X = [F^1 | C^1]^-1 it is factored in
    and the rows of X that hold the C^1 coordinates.  The columns follow
    beta in `itertools.product` order, as the translates were formed."""
    if not 1 <= nu <= d.r:
        raise InputError("nu out of range")
    phs, _ = build_plectic_from_frobenii(d, tol)
    parts = ([], [])  # F^1, C^1
    for beta in itertools.product((0, 1), repeat=d.r):
        parts[beta[nu - 1]].append(phs.piece(tuple(1 - b for b in beta), beta))
    F1, C1 = cx.hstack(parts[0]), cx.hstack(parts[1])
    _, X, block = cx.piece_coordinates([("F1", F1), ("C1", C1)], "involution translates")
    if X is None:
        raise DegenerateInputError("involution translates do not span in direct sum")
    return PlecticHodgeStructure(1, d.rank, {H10: F1, H01: C1}), X, block["C1"]


def character_decompose(d: StronglyPrimitiveDatum, nu: int):
    """Simultaneous rational eigenspace decomposition under the
    involutions other than nu, indexed by sign characters; each piece
    must have rank twice the holomorphic dimension."""
    if not 1 <= nu <= d.r:
        raise InputError("nu out of range")
    others = [m for m in range(1, d.r + 1) if m != nu]
    out = {}
    total = 0
    for chi in itertools.product((1, -1), repeat=len(others)):
        rows = []
        for mu, sign in zip(others, chi):
            m = d.frobenii[mu - 1] - IntMatrix.identity(d.rank).scale(sign)
            rows.extend(m.entries)
        basis = kernel_integer(IntMatrix.from_rows(rows)) if rows else \
            [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]
        if len(basis) != 2 * d.h:
            raise DegenerateInputError(
                "character piece does not have rank twice the holomorphic dimension"
            )
        total += len(basis)
        out[chi] = IntMatrix.from_rows(basis)
    if total != d.rank:
        raise DegenerateInputError("character pieces do not fill the lattice")
    return out


@dataclass(frozen=True)
class QSVJacobianResult:
    torus: ComplexTorus
    certificates: dict  # character -> AlgebraizationResult
    skipped: tuple      # characters with no real multiplication found


def plectic_jacobian_qsv(d: StronglyPrimitiveDatum, nu: int,
                         height_bound: int = 8, tol=None) -> QSVJacobianResult:
    """Jacobian of the nu-th weight-one structure, plus an algebraicity
    certificate on every character piece where a real-multiplication
    action is supplied (via Hecke restriction) or detected."""
    tol = resolve_tolerance(tol)
    h1, X, rows = _nu_structure(d, nu, tol)
    torus = _coordinate_torus(X, rows)  # plectic_jacobian(h1, 1), from the same factorization
    chars = character_decompose(d, nu)
    certs = {}
    skipped = []
    for chi, basis in sorted(chars.items()):
        h_chi = _restrict_structure(h1, basis, tol)
        rm = _hecke_rm(d, basis) if d.hecke else None
        try:
            certs[chi] = jacobian_is_abelian_certificate(h_chi, rm, height_bound, tol=tol)
        except DegenerateInputError:
            skipped.append(chi)
    return QSVJacobianResult(torus, certs, tuple(skipped))


def _restrict_structure(h1: PlecticHodgeStructure, basis: IntMatrix, tol):
    """Weight-one structure, of degree 1, induced on a rational character
    piece, in the coordinates of its integral basis."""
    with working_precision():
        P = cx.mpm(basis.entries).T  # columns span the piece
        pieces = {}
        for bd, B in h1.sorted_pieces():
            stacked = cx.hstack([B, P * mp.mpf(-1)])
            null = cx.nullspace(stacked, tol)
            if null.cols == 0:
                continue
            pieces[bd] = null[B.cols :, :]  # intersection written in piece coordinates
        total = sum(v.cols for v in pieces.values())
        if total != basis.rows:
            raise DegenerateInputError("character piece is not compatible with F^1")
    return PlecticHodgeStructure(1, basis.rows, pieces)


def _hecke_rm(d: StronglyPrimitiveDatum, basis: IntMatrix) -> RMStructure | None:
    """Order generated by a Hecke restriction with a totally real
    minimal polynomial of the right degree, if one is supplied."""
    want, k = basis.rows // 2, basis.rows
    bt = basis.transpose()
    # each Hecke operator commutes with the involutions, so it maps this
    # saturated eigenlattice into itself: one solve restricts them all
    images = IntMatrix.from_rows([r for t in d.hecke for r in (t @ bt).transpose().entries])
    X = solve_integer(bt, images.transpose())
    if X is None:
        raise DegenerateInputError("a Hecke operator does not preserve a character piece")
    for j in range(len(d.hecke)):
        restricted = IntMatrix(k, k, tuple(r[j * k:(j + 1) * k] for r in X.entries))
        p = _rm_poly(restricted, want)
        if p is None:
            continue
        if want == 1:
            return RMStructure(FieldOrder.rationals(), (IntMatrix.identity(basis.rows),))
        if want == 2:
            field = FieldOrder.quadratic(-p[1], p[2])
            return RMStructure(field, (IntMatrix.identity(basis.rows), restricted))
    return None
