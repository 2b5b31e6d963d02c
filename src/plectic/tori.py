"""Complex tori via period matrices: duals, endomorphism lattices,
real-multiplication detection, and the algebraization pipeline that
normalizes an RM torus to the standard model C_Sigma / (O_L z + ideal).

Exact integer work (orders, module decompositions, minimal polynomials)
runs over Z and Q, and real-multiplication detection decides its fields
with the exact tests of :mod:`plectic.numberfields`; period-matrix work
runs at the configured mpmath precision.  Hom lattices are found one
source generator at a time, each by a staged exact integral LLL
(:func:`plectic.lattices.lll_reduce`); a map is kept only when it commutes
with the complex structures to the precision floor, then saturated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import cxlinalg as cx
from .config import default_tolerance, resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError, SearchExhaustedError
from .lattices import (
    IntMatrix,
    coefficient_shells,
    fraction_inverse,
    int_combination,
    kernel_integer,
    lll_reduce,
    row_lattice_basis,
    saturation,
    solve_integer,
    torsion_free_quotient,
)
from .numberfields import (
    FieldOrder,
    FractionalIdealRep,
    _fundamental_part,
    _generates_totally_real_field,
    _unit,
)

__all__ = [
    "ComplexTorus",
    "RMStructure",
    "RMCertificate",
    "AlgebraizationResult",
    "dual_torus",
    "product_torus",
    "power_torus",
    "endomorphisms",
    "hom_lattice",
    "detect_rm",
    "construct_rm_torus",
    "enlarge_to_maximal",
    "steinitz_decompose",
    "algebraize_rm",
    "jacobian_is_abelian_certificate",
    "tori_isomorphic",
]


@dataclass(frozen=True)
class ComplexTorus:
    """V/Lambda presented by a g x 2g period matrix whose columns
    generate the lattice, which they must span at the working precision
    and default tolerance (`cxlinalg.lattice_lu`); optionally carries a
    real-multiplication witness."""

    g: int
    periods: mp.matrix
    rm: "RMStructure | None" = None

    def __post_init__(self):
        if self.periods.rows != self.g or self.periods.cols != 2 * self.g:
            raise InputError("period matrix must be g x 2g")
        with working_precision():
            if cx.lattice_lu(self.real_matrix(), default_tolerance()) is None:
                raise DegenerateInputError("periods do not span a full lattice")

    def real_matrix(self) -> mp.matrix:
        """2g x 2g real matrix whose columns are the lattice generators."""
        return cx.real_imag_stack(self.periods)

    def complex_structure(self) -> mp.matrix:
        """Multiplication by i written on lattice coordinates."""
        g = self.g
        with working_precision():
            P = self.real_matrix()
            J0 = mp.matrix(2 * g, 2 * g)
            for k in range(g):
                J0[k, g + k] = mp.mpf(-1)
                J0[g + k, k] = mp.mpf(1)
            return cx.solve(P, cx.matmul(J0, P))

    def multiplier(self, N: IntMatrix):
        """Complex matrix M with M * periods = periods * N, and the
        relative residual of that equation."""
        with working_precision():
            Pi = self.periods
            return _multiplier_fit(Pi)(cx.matmul(Pi, cx.mpm(N.entries)))


def _multiplier_fit(Pi):
    """The map B -> (M, residual) with M = B Pi^H (Pi Pi^H)^-1, the
    least-squares solution of M Pi = B, and the relative residual of
    that equation; (Pi Pi^H)^-1 is formed once, here."""
    Ph = cx.ctranspose(Pi)
    Ginv = cx.inverse(cx.matmul(Pi, Ph))

    def fit(B):
        M = cx.matmul(cx.matmul(B, Ph), Ginv)
        return M, cx.frob(cx.matmul(M, Pi) - B) / max(mp.mpf(1), cx.frob(B))

    return fit


@dataclass(frozen=True)
class RMStructure:
    """Action of an order's integral basis on the lattice of a torus."""

    field: FieldOrder
    action: tuple  # one IntMatrix per basis element; action[0] == identity

    def __post_init__(self):
        d = self.field.degree
        if len(self.action) != d:
            raise InputError("need one action matrix per basis element")
        n = self.action[0].rows
        if any(a.rows != n or a.cols != n for a in self.action):
            raise InputError("action matrices must be square of equal size")
        if self.action[0].entries != IntMatrix.identity(n).entries:
            raise InputError("action of 1 must be the identity")
        for a, b in itertools.combinations(self.action, 2):
            if (a @ b).entries != (b @ a).entries:
                raise InputError("action matrices do not commute")
        for i in range(d):
            for j in range(d):
                prod = self.action[i] @ self.action[j]
                want = int_combination(self.field.mult_table[i][j], self.action)
                if prod.entries != want.entries:
                    raise InputError("action does not satisfy the multiplication table")

    @property
    def lattice_rank(self) -> int:
        return self.action[0].rows


@dataclass(frozen=True)
class AlgebraizationResult:
    z: tuple  # one mpc per real embedding, all with positive imaginary part
    ideal: FractionalIdealRep
    iso: mp.matrix  # complex g x g carrying the input torus onto the model
    residual: mp.mpf
    model: ComplexTorus


@dataclass(frozen=True)
class RMCertificate:
    field: FieldOrder
    z: tuple
    ideal: FractionalIdealRep
    iso: mp.matrix
    residual: mp.mpf


# ----------------------------------------------------------------------
# basic constructions
# ----------------------------------------------------------------------


def dual_torus(t: ComplexTorus) -> ComplexTorus:
    """Dual torus: lattice of antilinear functionals integral against
    Im<.,.> on the original lattice."""
    g = t.g
    with working_precision():
        # solve Im(sum_i w_i conj(period_ij)) = delta_jk for each dual generator
        A = mp.matrix(2 * g, 2 * g)
        for j in range(2 * g):
            for i in range(g):
                p = t.periods[i, j]
                A[j, i] = -mp.im(p)          # coefficient of Re(w_i)
                A[j, g + i] = mp.re(p)       # coefficient of Im(w_i)
        sol = cx.inverse(A)
        dual = mp.matrix(g, 2 * g)
        for k in range(2 * g):
            for i in range(g):
                dual[i, k] = mp.mpc(sol[i, k], sol[g + i, k])
        return ComplexTorus(g, dual)


def product_torus(a: ComplexTorus, b: ComplexTorus) -> ComplexTorus:
    g = a.g + b.g
    out = mp.matrix(g, 2 * g)
    for i in range(a.g):
        for j in range(2 * a.g):
            out[i, j] = a.periods[i, j]
    for i in range(b.g):
        for j in range(2 * b.g):
            out[a.g + i, 2 * a.g + j] = b.periods[i, j]
    return ComplexTorus(g, out)


def power_torus(t: ComplexTorus, k: int) -> ComplexTorus:
    out = t
    for _ in range(k - 1):
        out = product_torus(out, t)
    return out


# ----------------------------------------------------------------------
# hom lattices: integer relations column by column (LLL + exact checks)
# ----------------------------------------------------------------------


_STAGE_BITS = 16  # scale step between the LLL stages of _integral_relations


def _integral_relations(V, K, ver_bits):
    """Basis of the v in span_Z(V) with K v integral (V independent
    integer vectors, K a real matrix as a list of rows): the exact
    `lll_reduce` of x = (a, w) -> x || 2^s (K V a - w), v = a V, in the
    stages s = 16, 32, ..., top = floor(3 ver_bits / 4), each from the x
    the previous stage left, with K V rounded at 2^top and shifted down.
    A relation of height h misses by about 2^-ver_bits h, a Diophantine
    near-miss by about 2^-top h: v is kept when |K v - w| <= 2^-ver_bits h len(v).
    """
    r, m = len(V), len(K)
    top = (3 * ver_bits) // 4
    # C[j] is constraint j, (K V a)_j - w_j, at the top scale
    C = [[int(mp.nint(mp.ldexp(mp.fdot(row, v), top))) for v in V]
         + [-(i == j) << top for i in range(m)] for j, row in enumerate(K)]
    X = IntMatrix.identity(r + m).entries
    for bits in [*range(_STAGE_BITS, top, _STAGE_BITS), top]:
        k = top - bits
        Cs = [[(c + (1 << k >> 1)) >> k for c in col] for col in C]
        rows = [[*x, *(sum(map(operator.mul, x, col)) for col in Cs)] for x in X]
        X = [row[:r + m] for row in lll_reduce(rows)]
    out = []
    for x in X:
        v = [sum(map(operator.mul, x[:r], col)) for col in zip(*V)]
        bound = mp.ldexp(max(map(abs, v), default=0) * len(v), -ver_bits)
        if any(v) and all(abs(mp.fdot(row, v) - w) <= bound for row, w in zip(K, x[r:])):
            out.append(v)
    return out


def hom_lattice(src: ComplexTorus, dst: ComplexTorus):
    """Z-basis of Hom(src, dst): the integer U with U J_src = J_dst U.

    The pivots of `cxlinalg.lu` pick g_src C-independent generators F of
    the source; any other is Pi_src e_k = sum_l c_lk Pi_src e_{F_l}, so
    U e_k = sum_l (Re c_lk + Im c_lk J_dst) U e_{F_l} = K_k v, with v the
    2 g_dst g_src entries of U[:, F].  Starting from Z^that, each dependent
    k keeps the v with K_k v integral (`_integral_relations`).  A survivor
    is assembled into U and kept only if every entry of U J_src - J_dst U
    is within 2^-ver_bits max(1, h) n (h its height, n its size); the kept
    set is saturated exactly.
    """
    with working_precision():
        ver_bits = mp.mp.prec - 40
        J_dst = dst.complex_structure()
        J_src = J_dst if src is dst else src.complex_structure()
        Pi, g, r, c = src.periods, src.g, 2 * dst.g, 2 * src.g
        free = cx.lu(cx.hstack([Pi.T, cx.ctranspose(Pi)])).perm[:g]
        dep = [k for k in range(c) if k not in free]
        coef = cx.solve(cx.mpm([[Pi[i, j] for j in free] for i in range(g)]),
                        cx.mpm([[Pi[i, k] for k in dep] for i in range(g)]))
        Ks = [[[mp.re(coef[l, t]) * (i == j) + mp.im(coef[l, t]) * J_dst[i, j]
                for l in range(g) for j in range(r)] for i in range(r)] for t in range(len(dep))]
        V = IntMatrix.identity(r * g).entries
        for K in Ks:
            V = _integral_relations(V, K, ver_bits)
        found = []
        for v in V:
            cols = {j: v[l * r:(l + 1) * r] for l, j in enumerate(free)}
            cols.update((k, [int(mp.nint(mp.fdot(row, v))) for row in K]) for k, K in zip(dep, Ks))
            U = cx.mpm([[cols[j][i] for j in range(c)] for i in range(r)])
            bound = mp.ldexp(max(1, *map(abs, U)) * r * c, -ver_bits)
            if all(abs(x) <= bound for x in cx.matmul(U, J_src) - cx.matmul(J_dst, U)):
                found.append(tuple(int(x) for x in U))
    if not found:
        return []
    # the Hermite basis of the saturation can be badly skewed; reduce
    return [_unvec(v, r, c) for v in lll_reduce(saturation(IntMatrix.from_rows(found)))]


def endomorphisms(t: ComplexTorus, height_bound: int, tol=None):
    """Z-basis of the lattice generated by integer endomorphism matrices
    with entries bounded by height_bound, paired with their complex
    multipliers."""
    if height_bound < 1:
        raise InputError("height_bound must be >= 1")
    basis = hom_lattice(t, t)
    if not basis:
        return []
    bounded = _bounded_lattice_elements(basis, height_bound)
    if not bounded:
        return []
    rows = row_lattice_basis(IntMatrix.from_rows([_vec(N) for N in bounded]))
    n = 2 * t.g
    out = []
    tol = resolve_tolerance(tol)
    for r in rows:
        N = _unvec(r, n, n)
        M, resid = t.multiplier(N)
        if resid > tol * 100:
            raise DegenerateInputError("endomorphism candidate failed verification")
        out.append((N, M))
    return out


def _vec(N: IntMatrix):
    return tuple(x for row in N.entries for x in row)


def _unvec(v, rows, cols) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(tuple(v[i * cols + j] for j in range(cols))
                                       for i in range(rows)))


def _bounded_lattice_elements(basis, height_bound):
    """Elements of the lattice spanned by `basis` whose entries stay
    within height_bound, one of each pair +-N, from the coefficient
    vectors in [-height_bound, height_bound]^rank."""
    if len(basis) > 6:
        # reduced bases at desk scale are short; fall back to filtering
        return [N for N in basis if max(abs(x) for r in N.entries for x in r) <= height_bound]
    combos = (int_combination(c, basis)
              for c in coefficient_shells(len(basis), height_bound, positive_first=True))
    return [N for N in combos if max(abs(x) for r in N.entries for x in r) <= height_bound]


# ----------------------------------------------------------------------
# real multiplication: detection
# ----------------------------------------------------------------------


def _rm_poly(N: IntMatrix, g: int):
    """N's minimal polynomial (monic ints, highest degree first) when it is
    irreducible of degree g with all its roots real, else None; N is a
    2g x 2g integer matrix.

    Half traces s_k = tr(N^k)/2, k = 1..g, give by Newton's identities
    k m_k = -(m_{k-1} s_1 + ... + m_0 s_k) the monic degree-g polynomial
    m whose roots have power sums s_k (Cohen, GTM 138, §4.3).  A trace
    that is odd or a division that is inexact rejects N at once; so does
    `_generates_totally_real_field(m, g)`; N is accepted only if m(N) = 0.

    The accept set is exactly that of "the minimal polynomial p is
    irreducible of degree g with all roots real".  If p is, N's
    characteristic polynomial has p as its only irreducible factor, so it
    is p^2; then tr(N^k) is twice the k-th power sum of p's roots, the
    Newton divisions are exact, m = p and p(N) = 0.  Conversely, if
    m(N) = 0 then p divides m, and m is irreducible, so p = m.  The zero
    and scalar matrices give m = x^g or (x - a)^g, which have one real
    root, so they are rejected for g >= 2.
    """
    n = N.rows
    cols = tuple(zip(*N.entries))
    traces = [sum(N.entries[i][i] for i in range(n))]
    P = N  # N^(k-1)
    for k in range(2, g + 1):
        # tr(N^k) = sum_ij (N^(k-1))_ij N_ji: N^g itself is never formed
        traces.append(sum(sum(a * b for a, b in zip(row, col))
                          for row, col in zip(P.entries, cols)))
        if k < g:
            P = P @ N
    if any(t % 2 for t in traces):
        return None
    s = [t // 2 for t in traces]
    m = [1]
    for k in range(1, g + 1):
        q, r = divmod(-sum(m[k - i] * s[i - 1] for i in range(1, k + 1)), k)
        if r:
            return None
        m.append(q)
    if not _generates_totally_real_field(m, g):
        return None
    value = IntMatrix.identity(n)
    for c in m[1:]:  # Horner: m(N)
        value = value @ N + IntMatrix.identity(n).scale(c)
    return tuple(m) if value.is_zero() else None


def detect_rm(t: ComplexTorus, height_bound: int = 10, field_hint: FieldOrder | None = None):
    """Search the endomorphism lattice for the action of a totally real
    field of degree g; returns an RMStructure, or None when no such
    field is found within height_bound.

    Candidates are the combinations of the reduced Hom(T, T) basis with
    coefficients in [-height_bound, height_bound], by increasing height
    and up to sign; at rank > 6 only the first six basis vectors are
    combined, so None then says nothing about the rest of the lattice.
    Each candidate N is decided exactly by `_rm_poly`: from the half
    traces tr(N^k)/2 and Newton's identities, then one identity m(N) = 0
    for a candidate m that is irreducible with g real roots.  The first
    N it accepts generates the field.  The returned order is
    theta^{-1}(End(T)), the full order realized on the lattice, so
    already-maximal actions are detected as maximal.  A non-generic torus
    can carry several real-multiplication fields; pass field_hint to
    select a specific one (matched on the fundamental discriminant,
    degree 2 only).  A height_bound below 1 raises InputError.
    """
    if height_bound < 1:
        raise InputError("height_bound must be >= 1")
    g = t.g
    if g == 1:
        return RMStructure(FieldOrder.rationals(), (IntMatrix.identity(2),))
    basis = hom_lattice(t, t)
    if not basis:
        return None
    searched = basis[:6]  # at rank > 6 only the first six basis vectors are combined
    for coeffs in coefficient_shells(len(searched), height_bound, positive_first=True):
        N = int_combination(coeffs, searched)
        # zero, scalar, CM and non-semisimple directions are all rejected here
        p = _rm_poly(N, g)
        if p is None:
            continue
        if field_hint is not None and not _same_quadratic_field(p, field_hint):
            continue
        return _order_from_generator(N, basis, g)
    return None


def _same_quadratic_field(p, field: FieldOrder) -> bool:
    if field.degree != 2 or len(p) != 3:
        raise InputError("field hints are supported for degree 2 only")
    return _fundamental_part(p[1] * p[1] - 4 * p[2]) == _fundamental_part(field.discriminant())


def _order_from_generator(N: IntMatrix, endo_basis, g: int):
    """Full order End(T) intersect Q(N), presented on a basis {1, w, ...}."""
    n = N.rows
    powers = []
    P = IntMatrix.identity(n)
    for _ in range(g):
        powers.append(_vec(P))
        P = P @ N
    S = IntMatrix.from_rows(powers)
    comp = kernel_integer(S)  # null space of the row span of S
    K = IntMatrix.from_rows([_vec(B) for B in endo_basis])
    cvecs = kernel_integer(IntMatrix.from_rows(comp) @ K.transpose())
    order_rows = [K.transpose().apply(c) for c in cvecs]
    order_rows = row_lattice_basis(IntMatrix.from_rows(order_rows))
    if len(order_rows) != g:
        raise DegenerateInputError("order lattice has unexpected rank")
    # normalize the basis so that the identity comes first
    ident = _vec(IntMatrix.identity(n))
    basis_vecs = [ident] + torsion_free_quotient([ident], order_rows)
    mats = [_unvec(v, n, n) for v in basis_vecs]
    # multiplication table over the normalized basis, exact
    Bt = IntMatrix.from_rows(basis_vecs).transpose()
    prods = IntMatrix.from_rows([_vec(a @ b) for a in mats for b in mats]).transpose()
    X = solve_integer(Bt, prods)
    if X is None:
        raise DegenerateInputError("detected order is not closed under products")
    cols = X.transpose().entries  # column i * g + j: mats[i] @ mats[j] on the basis
    table = tuple(cols[i * g:(i + 1) * g] for i in range(g))
    coeffs = _rm_poly(mats[1], g) if g >= 2 else (1, -1)
    if coeffs is None:
        raise DegenerateInputError("the order's second basis element does not generate the field")
    if g == 2:
        tt, nn = -coeffs[1], coeffs[2]
        field = FieldOrder.quadratic(tt, nn)
    else:
        field = FieldOrder(g, coeffs, tuple(table))
    return RMStructure(field, tuple(mats))


# ----------------------------------------------------------------------
# real multiplication: construction and normalization
# ----------------------------------------------------------------------


def construct_rm_torus(field: FieldOrder, z, ideal: FractionalIdealRep | None = None) -> ComplexTorus:
    """Torus C_Sigma / (O.z + ideal) over all real embeddings of the
    order, carrying the evident action."""
    d = field.degree
    if ideal is None:
        ideal = field.unit_ideal()
    if len(z) != d:
        raise InputError("z must have one component per real embedding")
    with working_precision():
        zz = [mp.mpmathify(c) for c in z]
        if any(mp.im(c) <= 0 for c in zz):
            raise InputError("every component of z must have positive imaginary part")
        emb = field.embeddings()
        periods = mp.matrix(d, 2 * d)
        for l in range(d):
            for k in range(d):
                periods[l, k] = field.element_embedding(_unit(d, k), emb[l]) * zz[l]
            for i in range(d):
                periods[l, d + i] = field.element_embedding(ideal.basis[i], emb[l])
        action = []
        for k in range(d):
            Mk = field.mult_matrix(_unit(d, k))
            Ck = ideal.action(k).entries
            n = 2 * d
            rows = [[0] * n for _ in range(n)]
            for i in range(d):
                for j in range(d):
                    rows[i][j] = int(Fraction(Mk[i][j]))
                    rows[d + i][d + j] = Ck[i][j]
            action.append(IntMatrix.from_rows(rows))
        rm = RMStructure(field, tuple(action))
        return ComplexTorus(d, periods, rm=rm)


def enlarge_to_maximal(t: ComplexTorus, rm: RMStructure):
    """Pass to the isogenous torus with action by the maximal order.

    Returns (torus, rm, inclusion) where inclusion expresses the old
    lattice basis in the new one; the new lattice L' satisfies
    L <= L' <= (1/n) L with n the index of the order.
    """
    field = rm.field
    if field.is_maximal:
        n = rm.lattice_rank
        return t, rm, IntMatrix.identity(n)
    if field.degree != 2:
        raise InputError("maximal orders beyond degree 2 are out of scope")
    t0, n0 = -field.min_poly[1], field.min_poly[2]
    disc = t0 * t0 - 4 * n0
    d0 = _fundamental_part(disc)
    f = math.isqrt(disc // d0)
    if f * f * d0 != disc:
        raise InputError("failed to compute the maximal order (reducible min_poly?)")
    a = next(
        a for a in range(0, 2 * f * f + 1)
        if (t0 + 2 * a) % f == 0 and (a * a + a * t0 + n0) % (f * f) == 0
    )
    A = rm.action[1]
    n = A.rows
    shifted = A + IntMatrix.identity(n).scale(a)
    stacked = [list(r) for r in IntMatrix.identity(n).scale(f).entries]
    stacked += [list(r) for r in shifted.transpose().entries]  # columns generate the image
    Ht = IntMatrix.from_rows(row_lattice_basis(IntMatrix.from_rows(stacked))).transpose()
    # the columns of Ht span f * Lambda', so those of Ht / f are the new basis
    with working_precision():
        new_periods = cx.matmul(t.periods, cx.mpm(Ht.entries) / f)
    # the generator shifted / f on the new basis: Ht^-1 (shifted Ht) / f, exact
    X = solve_integer(Ht, shifted @ Ht)
    if X is None or any(x % f for r in X.entries for x in r):
        raise DegenerateInputError("enlarged lattice is not stable under the maximal order")
    Agen = IntMatrix(n, n, tuple(tuple(x // f for x in r) for r in X.entries))
    tmax = (t0 + 2 * a) // f
    nmax = (a * a + a * t0 + n0) // (f * f)
    field_max = FieldOrder.quadratic(tmax, nmax, is_maximal=True)
    rm_max = RMStructure(field_max, (IntMatrix.identity(n), Agen))
    # (Ht / f)^-1 = f Ht^-1 expresses the old basis in the new one
    inclusion = solve_integer(Ht, IntMatrix.identity(n).scale(f))
    if inclusion is None:
        raise DegenerateInputError("old lattice does not embed in the enlarged one")
    new_t = ComplexTorus(t.g, new_periods, rm=rm_max)
    return new_t, rm_max, inclusion


def steinitz_decompose(rm: RMStructure):
    """Unimodular change of basis exhibiting the lattice as O_L + ideal.

    Returns (U, ideal): the columns of U list first a basis {w_k . v} of
    a free rank-one summand, then an equivariant lift of the quotient,
    which is realized as the fractional ideal."""
    field = rm.field
    d = field.degree
    if not field.is_maximal:
        raise InputError("steinitz decomposition requires a maximal order")
    n = rm.lattice_rank
    if n != 2 * d:
        raise InputError("lattice must have rank two over the order")
    v = _find_free_vector(rm)
    M1_rows = [rm.action[k].apply(v) for k in range(d)]
    # the summand is saturated, so pi maps the lattice onto Z^d with kernel it
    pi = IntMatrix.from_rows(kernel_integer(IntMatrix.from_rows(M1_rows)))
    sec = solve_integer(pi, IntMatrix.identity(d))
    B = [pi @ rm.action[k] @ sec for k in range(d)]
    # realize the quotient as a fractional ideal via q0 = first basis vector
    q0 = tuple(int(i == 0) for i in range(d))
    # the ideal's basis rows are the columns of A^-1, A having columns B_k q0
    rows = fraction_inverse(IntMatrix.from_rows([B[k].apply(q0) for k in range(d)]))
    ideal = FractionalIdealRep(field, rows)
    S = _equivariant_section(rm, pi, B)
    cols_U = M1_rows + [tuple(S.entries[i][j] for i in range(n)) for j in range(d)]
    U = IntMatrix.from_rows(cols_U).transpose()
    if abs(U.det()) != 1:
        raise DegenerateInputError("steinitz change of basis is not unimodular")
    return U, ideal


def _find_free_vector(rm: RMStructure):
    """Lattice vector whose order-orbit is a saturated free summand."""
    d = rm.field.degree
    n = rm.lattice_rank
    for cand in coefficient_shells(n, 3):
        M = IntMatrix.from_rows([rm.action[k].apply(cand) for k in range(d)])
        H = row_lattice_basis(M)
        if len(H) == d and saturation(M) == H:
            return cand
    raise SearchExhaustedError("no order-primitive lattice vector found")


def _equivariant_section(rm: RMStructure, pi: IntMatrix, B):
    """Integer section S with pi S = I and S B_k = A_k S for all k."""
    d = rm.field.degree
    n = rm.lattice_rank
    Id = IntMatrix.identity(d)
    # on the row-major vec(S): vec(pi S) = (pi (x) I_d) vec(S) and
    # vec(S B_k - A_k S) = (I_n (x) B_k^T - A_k (x) I_d) vec(S)
    blocks = [pi.kron(Id)] + [IntMatrix.identity(n).kron(B[k].transpose()) - rm.action[k].kron(Id)
                              for k in range(1, d)]
    system = IntMatrix.from_rows([r for M in blocks for r in M.entries])
    rhs = [(x,) for x in _vec(Id)] + [(0,)] * (system.rows - d * d)
    sol = solve_integer(system, IntMatrix.from_rows(rhs))
    if sol is None:
        raise DegenerateInputError("no equivariant splitting over the order")
    return _unvec([x for (x,) in sol.entries], n, d)


def algebraize_rm(t: ComplexTorus, rm: RMStructure, sign_bound: int = 50, tol=None) -> AlgebraizationResult:
    """Normalize an RM torus to the standard model: eigen-split V over
    the real embeddings, read off the two Steinitz coordinates, and
    correct signs by a small field element so every modulus lands in the
    upper half plane.  Row l of the eigen-split is the largest row of the
    spectral projector prod_{m != l} (M - sigma_m I), M the generator's
    analytic action: a left eigenvector of M for sigma_l by Cayley-Hamilton,
    whose scale cancels in iso through mu_l."""
    tol = resolve_tolerance(tol)
    field = rm.field
    d = field.degree
    if rm.lattice_rank != 2 * t.g or t.g != d:
        raise InputError("torus dimension must equal the field degree")
    if not field.is_maximal:
        raise InputError("algebraization runs after enlarge_to_maximal")
    with working_precision():
        emb = field.embeddings()
        if d > 1:
            Mgen, resid = t.multiplier(rm.action[1])
            if resid > tol * 100:
                raise DegenerateInputError("order action is not holomorphic on this torus")
        split = []  # row l: a left eigenvector of Mgen for emb[l]
        for l in range(d):
            P = mp.eye(d)
            for m in range(d):
                if m != l:
                    P = cx.matmul(P, Mgen - emb[m][1] * mp.eye(d))
            split.append(max(P.tolist(), key=lambda row: mp.fsum(abs(x) ** 2 for x in row)))
        W = cx.mpm(split)
        U, ideal0 = steinitz_decompose(rm)
        C = cx.matmul(cx.matmul(W, t.periods), cx.mpm(U.entries))
        lam = [C[l, 0] for l in range(d)]
        mu = []
        for l in range(d):
            vals = []
            for i in range(d):
                s = field.element_embedding(ideal0.basis[i], emb[l])
                vals.append(C[l, d + i] / s)
            spread = max(abs(a - b) for a in vals for b in vals)
            if spread > tol * 1000 * max(1, abs(vals[0])):
                raise DegenerateInputError("inconsistent module coordinates")
            mu.append(vals[0])
        tau = [lam[l] / mu[l] for l in range(d)]
        x = _sign_correction(field, emb, tau, sign_bound)
        z = tuple(field.element_embedding(x, emb[l]) * tau[l] for l in range(d))
        ideal = ideal0.scaled(x)
        iso = cx.matmul(mp.diag([field.element_embedding(x, emb[l]) / mu[l] for l in range(d)]), W)
        model = construct_rm_torus(field, z, ideal)
        resid = cx.frob(cx.matmul(cx.matmul(iso, t.periods), cx.mpm(U.entries)) - model.periods)
        resid = resid / max(mp.mpf(1), cx.frob(model.periods))
    return AlgebraizationResult(z, ideal, iso, resid, model)


def _sign_correction(field: FieldOrder, emb, tau, bound: int):
    """Field element x with sigma(x) * Im(tau_sigma) > 0 at every
    embedding, enumerated by height; exists by density of the field in
    its archimedean algebra."""
    d = field.degree
    signs = [mp.sign(mp.im(c)) for c in tau]
    for cand in coefficient_shells(d, bound):
        x = tuple(Fraction(c) for c in cand)
        vals = [field.element_embedding(x, emb[l]) for l in range(d)]
        if all(v * s > 0 for v, s in zip(vals, signs)):
            return x
    raise SearchExhaustedError("sign-correction search exhausted; raise the bound")


def jacobian_is_abelian_certificate(h, rm: RMStructure | None = None,
                                    height_bound: int = 10, tol=None) -> RMCertificate:
    """Algebraicity certificate for the Jacobian of an effective
    weight-one structure carrying real multiplication: the (z, ideal)
    normal form of the Jacobian torus.

    With rm=None the field is the first one detect_rm meets within
    height_bound; a torus with several real-multiplication fields may be
    certified for another field than expected (the dual of
    construct_rm_torus(Q(sqrt 5), [i, 2i]) gives Q(sqrt 2)).  Pass rm to
    certify a specific action.

    `h` must expose `.rank`, `.pieces` keyed by (p, q), and `.jacobian()`.
    """
    tol = resolve_tolerance(tol)
    keys = set(h.pieces.keys())
    if not keys <= {(1, 0), (0, 1)}:
        raise InputError("structure is not effective of weight one")
    torus = h.jacobian()
    if rm is None:
        rm = detect_rm(torus, height_bound)
        if rm is None:
            raise DegenerateInputError("no real multiplication detected on the Jacobian")
    if 2 * rm.field.degree != h.rank:
        raise InputError("field degree must be half the lattice rank")
    # the B that h.jacobian() has inverted, so X is not None
    pieces = [(pq, h.pieces[pq]) for pq in ((1, 0), (0, 1))]
    B, X, block = cx.piece_coordinates(pieces, "Hodge pieces")
    for a in rm.action:
        for key, basis in pieces:
            # the image is formed at mpmath's ambient precision (ROADMAP item 2)
            image = cx.matmul(cx.mpm(a.entries), basis)
            with working_precision():
                resid = cx.outside(image, B, X, block[key])
            if resid > tol * 1000:
                raise InputError("supplied action does not preserve the Hodge pieces")
    t2, rm2, _ = enlarge_to_maximal(torus, rm)
    res = algebraize_rm(t2, rm2, tol=tol)
    return RMCertificate(rm2.field, res.z, res.ideal, res.iso, res.residual)


def tori_isomorphic(t1: ComplexTorus, t2: ComplexTorus, tol=None, coeff_bound: int = 4):
    """Search Hom(t1, t2) for a unimodular lattice map with a complex
    multiplier; returns (found, multiplier, lattice_map, residual).

    The first candidate within tol is returned, by increasing coefficient
    height up to sign; at rank > 6 only the basis vectors and their
    pairwise sums are tried.  A miss returns the closest candidate.  A
    coeff_bound below 1 raises InputError."""
    if coeff_bound < 1:
        raise InputError("coeff_bound must be >= 1")
    tol = resolve_tolerance(tol)
    if t1.g != t2.g:
        return False, None, None, mp.mpf("inf")
    homs = hom_lattice(t1, t2)
    if not homs:
        return False, None, None, mp.mpf("inf")
    best = (False, None, None, mp.mpf("inf"))
    if len(homs) > 6:
        combos = homs + [a + b for a, b in itertools.combinations(homs, 2)]
    else:
        combos = (int_combination(c, homs)
                  for c in coefficient_shells(len(homs), coeff_bound, positive_first=True))
    with working_precision():
        fit = _multiplier_fit(t1.periods)
        for U in combos:
            if abs(U.det()) != 1:
                continue
            M, resid = fit(cx.matmul(t2.periods, cx.mpm(U.entries)))
            if resid < tol:
                return True, M, U, resid
            if resid < best[3]:
                best = (False, M, U, resid)
    return best
