"""Complex tori via period matrices: duals, endomorphism lattices,
real-multiplication detection, and the algebraization pipeline that
normalizes an RM torus to the standard model C_Sigma / (O_L z + ideal).

Exact integer work (orders, module decompositions, minimal polynomials)
runs over Z and Q, and real-multiplication detection decides its fields
with the exact tests of :mod:`plectic.numberfields`; period-matrix work
runs at the configured mpmath precision.  Hom lattices are found one
source generator at a time, each by a staged exact integral LLL
(:func:`plectic.lattices.lll_reduce`), weak (delta = 3/10) below the top
scale and delta = 3/4 at it; End searches a complement of the identity,
which it always contains.  A map is kept only when it commutes with the
complex structures to the precision floor, then saturated.  The complex
structures and constraint matrices are formed once with mpmath and
rounded once to fixed-point integers round(2^p x) at the working
precision p; the relation search and both acceptance tests run on those
integers.
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
    "tori_isomorphic",
]


@dataclass(frozen=True)
class ComplexTorus:
    """V/Lambda presented by a g x 2g period matrix whose columns
    generate the lattice, which they must span at the working precision
    and default tolerance (`cxlinalg.lattice_lu`); optionally carries a
    real-multiplication witness.  The LU of `real_matrix()` formed by that
    check is kept (outside the fields, so it takes no part in == or repr)
    and serves `complex_structure` and `reduce` at the same precision."""

    g: int
    periods: mp.matrix
    rm: "RMStructure | None" = None

    def __post_init__(self):
        if self.periods.rows != self.g or self.periods.cols != 2 * self.g:
            raise InputError("period matrix must be g x 2g")
        with working_precision():
            f = cx.lattice_lu(self.real_matrix(), default_tolerance())
            if f is None:
                raise DegenerateInputError("periods do not span a full lattice")
            object.__setattr__(self, "_lu", (mp.mp.prec, f))

    def _factors(self) -> cx.LU:
        """LU of `real_matrix()` at the current precision: the one formed at
        construction, or a new one at any other precision."""
        prec, f = self._lu
        return f if prec == mp.mp.prec else cx._factor(self.real_matrix())

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
            return self._factors().solve(cx.matmul(J0, P))

    def reduce(self, coords):
        """Babai rounding of a point of V given by its g complex coordinates:
        its lattice coordinates (the solve of [Re; Im] against `real_matrix()`)
        rounded to integers c.  Returns (the point minus sum_k c_k * column
        k, c, the length of that remainder)."""
        with working_precision():
            sol = self._factors().solve(
                mp.matrix([mp.re(v) for v in coords] + [mp.im(v) for v in coords]))
            ints = tuple(int(mp.nint(sol[k])) for k in range(2 * self.g))
            red = list(coords)
            for k, c in enumerate(ints):
                for i in range(self.g):
                    red[i] = red[i] - c * self.periods[i, k]
            dist = mp.sqrt(mp.fsum(abs(v) ** 2 for v in red))
            return tuple(red), ints, dist

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
        return M, cx.frob(cx.sub(cx.matmul(M, Pi), B)) / max(mp.mpf(1), cx.frob(B))

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
    field: FieldOrder  # the maximal order the model is built over
    z: tuple  # one mpc per real embedding, all with positive imaginary part
    ideal: FractionalIdealRep
    iso: mp.matrix  # complex g x g carrying the (enlarged) torus onto the model
    index: int  # [enlarged lattice : input lattice]; iso is an isomorphism iff 1
    residual: mp.mpf
    model: ComplexTorus


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


_STAGE_BITS = 32  # scale step between the LLL stages of _integral_relations
_STAGE_DELTA = Fraction(3, 10)  # Lovasz constant of every stage below the top one


def _fixed(x, p):
    """round(2^p x) for a real mpf x, exactly (ties upward)."""
    sign, man, exp, _ = x._mpf_
    man, exp = -man if sign else man, exp + p
    return man << exp if exp >= 0 else (man + (1 << -exp >> 1)) >> -exp


def _integral_relations(V, K, p, ver_bits):
    """Basis of the v in span_Z(V) with K v integral (V independent
    integer vectors, K a real matrix given as the integer rows
    round(2^p K)): the exact `lll_reduce` of x = (a, w) -> x || 2^s (K V a - w),
    v = a V, in the stages s = 32, 64, ..., top = floor(3 ver_bits / 4), each
    from the x the previous stage left, with K V rounded at 2^top and shifted
    down.  The stages below top only carry the basis up to the next scale,
    so they reduce weakly (delta = 3/10); the stage at top, whose basis the
    test below reads, reduces with delta = 3/4.  A relation of height h
    misses by about 2^-ver_bits h, a Diophantine near-miss by about
    2^-top h: v is kept when |K v - w| <= 2^-ver_bits h len(v), tested on
    integers as |round(2^p K) v - 2^p w| <= 2^(p - ver_bits) h len(v); the
    rounding of K adds at most len(v) h / 2 to the left side, far inside
    that allowance.
    """
    r, m = len(V), len(K)
    top = (3 * ver_bits) // 4
    s = p - top
    # C[j] is constraint j, (K V a)_j - w_j, at the top scale
    C = [[(sum(map(operator.mul, row, v)) + (1 << s >> 1)) >> s for v in V]
         + [-(i == j) << top for i in range(m)] for j, row in enumerate(K)]
    X = IntMatrix.identity(r + m).entries
    for bits in [*range(_STAGE_BITS, top, _STAGE_BITS), top]:
        k = top - bits
        Cs = [[(c + (1 << k >> 1)) >> k for c in col] for col in C]
        rows = [[*x, *(sum(map(operator.mul, x, col)) for col in Cs)] for x in X]
        delta = _STAGE_DELTA if bits < top else Fraction(3, 4)
        X = [row[:r + m] for row in lll_reduce(rows, delta)]
    out = []
    for x in X:
        v = [sum(map(operator.mul, x[:r], col)) for col in zip(*V)]
        bound = max(map(abs, v), default=0) * len(v) << (p - ver_bits)
        if any(v) and all(abs(sum(map(operator.mul, row, v)) - (w << p)) <= bound
                          for row, w in zip(K, x[r:])):
            out.append(v)
    return out


def hom_lattice(src: ComplexTorus, dst: ComplexTorus):
    """Z-basis of Hom(src, dst): the integer U with U J_src = J_dst U.

    The pivots of `cxlinalg.lu` pick g_src C-independent generators F of
    the source; any other is Pi_src e_k = sum_l c_lk Pi_src e_{F_l}, so
    U e_k = sum_l (Re c_lk + Im c_lk J_dst) U e_{F_l} = K_k v, with v the
    2 g_dst g_src entries of U[:, F].  J_src, J_dst and each K_k are formed
    at the working precision p and rounded once to the integers
    round(2^p x); everything after that is integer arithmetic.  Starting
    from Z^that, each dependent k keeps the v with K_k v integral
    (`_integral_relations`).  For End (src is dst) the identity's v is
    known, so the search starts from a complement of it instead, and the
    identity is put back in front of the survivors: End = Z identity plus
    its part in the complement, as that v is primitive, and End holds the
    identity even where the LLL basis shows it only as a sum of
    near-relations, none of which passes the test below.  A survivor is assembled into U, its dependent
    columns rounded from K_k v, and kept only if every entry of
    U J_src - J_dst U is within 2^-ver_bits max(1, h) n (h its height, n its
    size), tested as the integer products against
    2^(p - ver_bits) max(1, h) n; the kept set is saturated exactly.
    """
    with working_precision():
        p = mp.mp.prec
        J_dst = dst.complex_structure()
        Pi, g, r, c = src.periods, src.g, 2 * dst.g, 2 * src.g
        free = cx.lu(cx.hstack([Pi.T, cx.ctranspose(Pi)])).perm[:g]
        dep = [k for k in range(c) if k not in free]
        coef = cx.solve(cx.mpm([[Pi[i, j] for j in free] for i in range(g)]),
                        cx.mpm([[Pi[i, k] for k in dep] for i in range(g)]))
        Ks = [[[_fixed(mp.re(coef[l, t]) * (i == j) + mp.im(coef[l, t]) * J_dst[i, j], p)
                for l in range(g) for j in range(r)] for i in range(r)] for t in range(len(dep))]
        Jd = [[_fixed(x, p) for x in row] for row in J_dst.tolist()]
        Js = Jd if src is dst else [[_fixed(x, p) for x in row]
                                    for row in src.complex_structure().tolist()]
    ver_bits = p - 40
    V = IntMatrix.identity(r * g).entries
    if src is dst:
        # the identity's v is 1 at entry free[0], so the other unit vectors
        # span a complement C of it, and End = Z identity + (End meet C)
        identity = tuple(int(i == j) for j in free for i in range(r))
        V = V[:free[0]] + V[free[0] + 1:]
    for K in Ks:
        V = _integral_relations(V, K, p, ver_bits)
    if src is dst:
        V = [identity, *V]
    Js_cols = list(zip(*Js))
    found = []
    for v in V:
        cols = {j: v[l * r:(l + 1) * r] for l, j in enumerate(free)}
        cols.update((k, [(sum(map(operator.mul, row, v)) + (1 << p >> 1)) >> p for row in K])
                    for k, K in zip(dep, Ks))
        U = [[cols[j][i] for j in range(c)] for i in range(r)]
        U_cols = list(zip(*U))
        bound = max(1, *(abs(x) for row in U for x in row)) * r * c << (p - ver_bits)
        if all(abs(sum(map(operator.mul, u, jc)) - sum(map(operator.mul, jr, uc))) <= bound
               for u, jr in zip(U, Jd) for jc, uc in zip(Js_cols, U_cols)):
            found.append(tuple(x for row in U for x in row))
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
    with working_precision():
        fit = _multiplier_fit(t.periods)
        for r in rows:
            N = _unvec(r, n, n)
            M, resid = fit(cx.matmul(t.periods, cx.mpm(N.entries)))
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


def _contract(A: IntMatrix, B: IntMatrix) -> int:
    """tr(A B) = sum_ab A_ab B_ba, with the product AB never formed."""
    return sum(sum(map(operator.mul, row, col)) for row, col in zip(A.entries, zip(*B.entries)))


def _power_traces(N: IntMatrix, g: int):
    """tr(N^k), k = 1..g; N^g itself is never formed."""
    traces = [sum(N.entries[i][i] for i in range(N.rows))]
    P = N  # N^(k-1)
    for k in range(2, g + 1):
        traces.append(_contract(P, N))
        if k < g:
            P = P @ N
    return traces


class _TraceForms:
    """The power sums tr(N(c)^k), k = 1..degree, of N(c) = sum_i c_i B_i
    as integer forms in the coefficient vector c, built once for a basis
    B_1..B_r (Cohen, GTM 138, §4.3).

    tr(N^k) is the sum over words w of length k of c_w tr(B_w), so the
    coefficient of a monomial is the sum of tr(B_w) over the distinct
    orderings w of its indices: tr(B_i) in degree 1, tr(B_i^2) and
    2 tr(B_i B_j) for i < j in degree 2.  Monomials with a zero
    coefficient are dropped.  The forms are exact, so a call returns
    `_power_traces(N(c), degree)` without forming N(c).  Above degree 2
    there are no forms, and a call forms N(c) and its powers.
    """

    def __init__(self, basis, degree: int):
        self.basis, self.degree = basis, degree
        if degree > 2:
            return
        r = range(len(basis))
        self.linear = [sum(B.entries[i][i] for i in range(B.rows)) for B in basis]
        self.quadratic = [(a, i, j) for i, j in itertools.combinations_with_replacement(r, 2)
                          if (a := (1 if i == j else 2) * _contract(basis[i], basis[j]))]

    def __call__(self, c):
        if self.degree > 2:
            return _power_traces(int_combination(c, self.basis), self.degree)
        traces = [sum(map(operator.mul, self.linear, c)),
                  sum(a * c[i] * c[j] for a, i, j in self.quadratic)]
        return traces[:self.degree]


def _field_poly(traces, g: int):
    """The monic degree-g polynomial m (ints, highest degree first) whose
    roots have the power sums s_k = traces[k-1]/2, when m is irreducible
    with g real roots; else None.

    Newton's identities k m_k = -(m_{k-1} s_1 + ... + m_0 s_k) give m
    (Cohen, GTM 138, §4.3).  An odd trace or an inexact division returns
    None at once; so does `_generates_totally_real_field(m, g)`.
    """
    if any(t % 2 for t in traces):
        return None
    s = [t // 2 for t in traces]
    m = [1]
    for k in range(1, g + 1):
        q, r = divmod(-sum(m[k - i] * s[i - 1] for i in range(1, k + 1)), k)
        if r:
            return None
        m.append(q)
    return tuple(m) if _generates_totally_real_field(m, g) else None


def _annihilates(m, N: IntMatrix) -> bool:
    """Whether m(N) = 0, by Horner."""
    n = N.rows
    value = IntMatrix.identity(n)
    for c in m[1:]:
        value = value @ N + IntMatrix.identity(n).scale(c)
    return value.is_zero()


def _rm_poly(N: IntMatrix, g: int):
    """N's minimal polynomial (monic ints, highest degree first) when it is
    irreducible of degree g with all its roots real, else None; N is a
    2g x 2g integer matrix.

    Two steps: `_field_poly` turns the traces tr(N^k), k = 1..g, into the
    candidate m, and N is accepted only if m(N) = 0 (`_annihilates`).

    The accept set is exactly that of "the minimal polynomial p is
    irreducible of degree g with all roots real".  If p is, N's
    characteristic polynomial has p as its only irreducible factor, so it
    is p^2; then tr(N^k) is twice the k-th power sum of p's roots, the
    Newton divisions are exact, m = p and p(N) = 0.  Conversely, if
    m(N) = 0 then p divides m, and m is irreducible, so p = m.  The zero
    and scalar matrices give m = x^g or (x - a)^g, which have one real
    root, so they are rejected for g >= 2.
    """
    m = _field_poly(_power_traces(N, g), g)
    return m if m is not None and _annihilates(m, N) else None


def _rm_candidates(basis, g: int, height_bound: int):
    """(N, m) for every N = sum_i c_i basis[i] that `_rm_poly(N, g)`
    accepts, with m = `_rm_poly(N, g)`, c running through
    `coefficient_shells(len(basis), height_bound, positive_first=True)`
    in order.

    Each candidate's traces come from the `_TraceForms` of the basis, so
    at g <= 2 N is formed only for the candidates whose m passes
    `_field_poly`, and then checked by m(N) = 0.
    """
    forms = _TraceForms(basis, g)
    for coeffs in coefficient_shells(len(basis), height_bound, positive_first=True):
        m = _field_poly(forms(coeffs), g)
        if m is None:
            continue
        N = int_combination(coeffs, basis)
        if _annihilates(m, N):
            yield N, m


def detect_rm(t: ComplexTorus, height_bound: int = 10, field_hint: FieldOrder | None = None):
    """Search the endomorphism lattice for the action of a totally real
    field of degree g; returns an RMStructure, or None when no such
    field is found within height_bound.

    Candidates are the combinations of the reduced Hom(T, T) basis with
    coefficients in [-height_bound, height_bound], by increasing height
    and up to sign; at rank > 6 only the first six basis vectors are
    combined, so None then says nothing about the rest of the lattice.
    Each candidate N is decided exactly, as `_rm_poly` decides it: for
    g <= 2 the power-sum forms tr(N^k), k = 1..g, of the searched basis
    are built once per call (`_TraceForms`) and evaluated on each
    coefficient vector (above g = 2 each N and its powers are formed);
    the half traces give m by Newton's identities, and only for an m
    that is irreducible with g real roots is m(N) = 0 checked.  The
    first N it accepts generates the field.
    The returned order is theta^{-1}(End(T)), the full order realized on
    the lattice, so already-maximal actions are detected as maximal.  A
    non-generic torus can carry several real-multiplication fields; pass
    field_hint to select a specific one (matched on the fundamental
    discriminant, degree 2 only).  A height_bound below 1 raises
    InputError.
    """
    if height_bound < 1:
        raise InputError("height_bound must be >= 1")
    g = t.g
    if g == 1:
        return RMStructure(FieldOrder.rationals(), (IntMatrix.identity(2),))
    basis = hom_lattice(t, t)
    if not basis:
        return None
    # at rank > 6 only the first six basis vectors are combined
    for N, m in _rm_candidates(basis[:6], g, height_bound):
        if field_hint is not None and not _same_quadratic_field(m, field_hint):
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


def algebraize_rm(t: ComplexTorus, rm: RMStructure, tol=None) -> AlgebraizationResult:
    """Normalize an RM torus to the standard model: pass to the maximal
    order (`enlarge_to_maximal`), eigen-split V over the real embeddings,
    read off the two Steinitz coordinates, and correct signs by a small
    field element so every modulus lands in the upper half plane.  Row l
    of the eigen-split is the largest row of the spectral projector
    prod_{m != l} (M - sigma_m I), M the generator's analytic action: a
    left eigenvector of M for sigma_l by Cayley-Hamilton, whose scale
    cancels in iso through mu_l.  iso acts on the enlarged torus, which
    is the input torus when its order is already maximal; on the input
    lattice it is an isogeny of degree `index`, |det| of the inclusion."""
    tol = resolve_tolerance(tol)
    t, rm, inclusion = enlarge_to_maximal(t, rm)
    field = rm.field
    d = field.degree
    if rm.lattice_rank != 2 * t.g or t.g != d:
        raise InputError("torus dimension must equal the field degree")
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
        x = _sign_correction(field, emb, tau)
        z = tuple(field.element_embedding(x, emb[l]) * tau[l] for l in range(d))
        ideal = ideal0.scaled(x)
        iso = cx.matmul(mp.diag([field.element_embedding(x, emb[l]) / mu[l] for l in range(d)]), W)
        model = construct_rm_torus(field, z, ideal)
        resid = cx.frob(cx.matmul(cx.matmul(iso, t.periods), cx.mpm(U.entries)) - model.periods)
        resid = resid / max(mp.mpf(1), cx.frob(model.periods))
    return AlgebraizationResult(field, z, ideal, iso, abs(inclusion.det()), resid, model)


def _sign_correction(field: FieldOrder, emb, tau):
    """Field element x with sigma(x) * Im(tau_sigma) > 0 at every
    embedding, enumerated by height up to 50; exists by density of the
    field in its archimedean algebra."""
    d = field.degree
    signs = [mp.sign(mp.im(c)) for c in tau]
    for cand in coefficient_shells(d, 50):
        x = tuple(Fraction(c) for c in cand)
        vals = [field.element_embedding(x, emb[l]) for l in range(d)]
        if all(v * s > 0 for v, s in zip(vals, signs)):
            return x
    raise SearchExhaustedError("sign-correction search exhausted")


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
