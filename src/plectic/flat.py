"""Spectral model of refined differential forms on flat product tori.

Basis elements are exp(2*pi*i <m, x>) dz_A ^ dzbar_B with m running over
the dual lattice (coordinates bounded by the truncation) and one
holomorphic / antiholomorphic bit per complex factor.  Trigonometric
polynomials are closed under every operator built here, so nothing is
discretized.

Every operator built here is diagonal in frequency and acts on the 4^n
refined types by a fixed map.
Its multiplier for a pair of refined types is a polynomial in the
frequency coordinates z_j (z_j = a m1 + b m2 for factor j's digits a, b
and dual generators m1, m2) and their conjugates, so an operator is
stored as coefficients over such monomials, one polynomial per pair of
types (see OperatorMatrix).  The factor (pi i)^|e| of a monomial e is
left out of its coefficient and the metric weights enter as the exact
rationals of their floats, so the derivatives, their adjoints and
everything composed from them have exact rational coefficients.  They
are held as Python ints over one positive int denominator per operator,
so sums, products and adjoints multiply and add ints only.  The refined
identities, the Laplacian decomposition, the Laplacian's kernel and its
independence of the metric are decided on those ints, exactly and for
every truncation.  Every Laplacian P P* + P* P here (Delta_d, Delta_del,
each Delta_{xi_j}) is formed by one column pass, one source type at a
time, and each cross term, the refined identities among them, is decided
as the one off-diagonal block of a column it fills (_laplacian_pass).  The
frequencies are never listed: the one reported size, that of a nonzero
residual, is a closed form in the coefficients and the exact corner
values of |z_j|^2 (see _residual).  A form space takes at most
MAX_FACTORS factors, since its 4^n refined types are listed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import cxlinalg as cx
from .config import working_precision
from .errors import DegenerateInputError, InputError
from .lattices import fraction_to_mpf

__all__ = [
    "FlatTorus",
    "FourierFormSpace",
    "OperatorMatrix",
    "build_space",
    "xi_operator",
    "xi_bar_operator",
    "del_operator",
    "d_operator",
    "adjoint",
    "laplacian_d",
    "xi_laplacians",
    "verify_refined_identities",
    "verify_laplacian_sum",
    "harmonic_space",
    "metric_independence_check",
    "extract_plectic_structure",
    "ResidualReport",
    "LaplacianReport",
]


MAX_FACTORS = 6  # 4^6 = 4,096 refined types


def check_factor_count(n: int) -> None:
    """InputError unless a form space over n factors is within MAX_FACTORS:
    the refined types, 4^n of them, are listed, and the Laplacian check at
    n = MAX_FACTORS already takes about a second."""
    if n > MAX_FACTORS:
        raise InputError(f"a flat form space takes at most {MAX_FACTORS} factors "
                         f"({4 ** MAX_FACTORS} refined types), got {n}")


@dataclass(frozen=True)
class FlatTorus:
    """Product of n rank-two lattices in C with per-factor metric weights
    (the flat metric is sum_j w_j |dz_j|^2)."""

    factors: tuple  # ((w1, w2) per factor), complex generators
    weights: tuple

    def __post_init__(self):
        if not self.factors:
            raise InputError("a flat torus needs at least one factor")
        if len(self.factors) != len(self.weights):
            raise InputError("one weight per factor required")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise InputError("metric weights must be finite and positive")
        for pair in self.factors:
            finite = all(math.isfinite(x) for w in map(complex, pair) for x in (w.real, w.imag))
            if not finite or _real_generators(pair)[1] == 0:
                raise InputError("factor lattice is degenerate or not finite")

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def square(cls, n: int, weights=None) -> "FlatTorus":
        if weights is None:
            weights = (1.0,) * n
        return cls(((1.0 + 0.0j, 1.0j),) * n, tuple(float(w) for w in weights))

    def dual_generators(self) -> list:
        """Per factor, the basis (m1, m2) dual to (w1, w2) under
        Re(z * conj(w)), each as its exact (real, imaginary) pair: the
        columns of the inverse of [[Re w1, Im w1], [Re w2, Im w2]], with the
        generators' floats taken as the rationals they are."""
        out = []
        for pair in self.factors:
            ((a, b), (c, d)), det = _real_generators(pair)
            out.append(((d / det, -c / det), (-b / det, a / det)))
        return out


def _real_generators(pair):
    """The rows [Re w, Im w] of a factor's two finite generators, as the
    exact rationals of their floats, and their determinant: the lattice is
    degenerate exactly when it is 0."""
    (a, b), (c, d) = ((Fraction(w.real), Fraction(w.imag)) for w in map(complex, pair))
    return ((a, b), (c, d)), a * d - b * c


class FourierFormSpace:
    """Finite form space: frequencies with dual-lattice coordinates in
    [-N, N], times the 4^n refined types.  A basis element is indexed by
    freq_idx * type_count + type_idx, the frequencies' digits running
    lexicographically; no operator here lists them."""

    def __init__(self, torus: FlatTorus, truncation: int):
        if truncation < 0:
            raise InputError("truncation must be nonnegative")
        check_factor_count(torus.n)
        self.torus = torus
        self.truncation = int(truncation)
        n = torus.n
        self.freq_count = (2 * self.truncation + 1) ** (2 * n)
        self.types = [
            (alpha, beta)
            for alpha in itertools.product((0, 1), repeat=n)
            for beta in itertools.product((0, 1), repeat=n)
        ]
        self.type_index = {t: i for i, t in enumerate(self.types)}
        self.type_count = len(self.types)
        self.dim = self.freq_count * self.type_count

    def variable(self, k: int) -> tuple:
        """Exponents of z_(k+1) for k < n, of conj(z_(k-n+1)) for n <= k < 2n."""
        return tuple(int(i == k) for i in range(2 * self.torus.n))

    @functools.cached_property
    def halves(self) -> dict:
        """Per half of a refined type (alpha or beta), the product over j of
        the numerator of 2 / w_j, w_j the rational of its float, where the
        slot is set and of its denominator where it is not."""
        ratios = [(2 / Fraction(w)).as_integer_ratio()[::-1] for w in self.torus.weights]
        return {bits: math.prod(r[bit] for r, bit in zip(ratios, bits))
                for bits in itertools.product((0, 1), repeat=self.torus.n)}

    @functools.cached_property
    def slot_factors(self) -> tuple:
        """Gram entry over the volume, one per refined type, exactly, as
        (numerators, denominator): the product of the type's two halves
        over that of the two halves with no slot set."""
        h = self.halves
        return [h[alpha] * h[beta] for alpha, beta in self.types], h[(0,) * self.torus.n] ** 2

    @functools.cached_property
    def slot_inverses(self) -> tuple:
        """(L, [L / g_t]) for L the lcm of the slot factors' numerators g_t:
        G_dst / G_src is g_dst (L / g_src) over L.  Each prime's largest
        power in a product of two halves is the square of its largest in
        one, so L is M^2 for M the lcm of the halves."""
        h = self.halves
        m = math.lcm(*h.values())
        inverse = {bits: m // x for bits, x in h.items()}
        return m * m, [inverse[alpha] * inverse[beta] for alpha, beta in self.types]

    @functools.cached_property
    def squares(self) -> dict:
        """The exponents of each |z_j|^2 = z_j conj(z_j), mapped to j."""
        n = self.torus.n
        return {tuple(int(i in (j, n + j)) for i in range(2 * n)): j for j in range(n)}

    @functools.cached_property
    def laplacian(self) -> "OperatorMatrix":
        """Delta_d = d d* + d* d from _laplacian_pass of d, read through
        laplacian_d.  Its (2n)(2n - 1) cross terms must all vanish, so that it
        is type-block-diagonal; DegenerateInputError is raised otherwise."""
        total, cross = _laplacian_pass(d_operator(self))
        if cross:
            raise DegenerateInputError("Laplacian cross terms failed to anticommute")
        return total

    @functools.cached_property
    def radii_squared(self) -> list:
        """Per factor j, the largest |z_j|^2 over the truncation box, exactly.
        |z_j|^2 is a convex quadratic form in factor j's two digits, so it
        is largest at a corner of their square [-N, N]^2."""
        N = self.truncation
        return [max((a * x1 + b * x2) ** 2 + (a * y1 + b * y2) ** 2
                    for a, b in itertools.product((N, -N), repeat=2))
                for (x1, y1), (x2, y2) in self.torus.dual_generators()]


@dataclass
class OperatorMatrix:
    """Operator on a Fourier form space, stored by refined type as
    scalar coefficients over frequency monomials.

    blocks[(dst, src)], for type indices dst and src, is a polynomial
    {exponents: coefficient} in the frequency coordinates: exponents e has
    length 2n, e[j] is the power of z_j and e[n + j] that of its
    conjugate, and coefficient c stands for (c / den) (pi i)^|e| times
    that monomial, |e| = sum(e), with den the operator's one positive int
    denominator.  The operator sends the basis element of type src at
    frequency m to the polynomial's value at m times the one of type dst
    at the same frequency.  Absent pairs are zero.  Coefficients are
    Python ints.  +, -, scalar *, @ (composition) and adjoint change
    coefficients and den only.
    """

    space: FourierFormSpace
    blocks: dict
    den: int = 1

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _sum([self, other])

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1) * other

    def __mul__(self, scalar) -> "OperatorMatrix":
        """scalar times the operator; an int, a Fraction or a float, taken
        as the exact rational it is."""
        num, den = scalar.as_integer_ratio()
        blocks = {key: {e: num * c for e, c in p.items()} for key, p in self.blocks.items()}
        return OperatorMatrix(self.space, blocks, self.den * den)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composition: (self @ other) applies other first."""
        by_src, sums, blocks = _by_src(self), {}, {}
        for (mid, src), pb in other.blocks.items():
            for dst, pa in by_src.get(mid, ()):
                _add_product(blocks.setdefault((dst, src), {}), pa, pb, sums)
        return OperatorMatrix(self.space, blocks, den=self.den * other.den)

    def is_zero(self) -> bool:
        """Whether every coefficient is exactly zero."""
        return not any(c for p in self.blocks.values() for c in p.values())


def _add_product(acc: dict, pa: dict, pb: dict, sums: dict) -> None:
    """Add the product of the polynomials pa and pb into acc; sums holds
    the sums of exponents formed so far."""
    for ea, ca in pa.items():
        for eb, cb in pb.items():
            e = sums.get((ea, eb))
            if e is None:
                e = sums[ea, eb] = tuple(map(operator.add, ea, eb))
            c = ca * cb
            acc[e] = acc[e] + c if e in acc else c


def build_space(torus: FlatTorus, truncation: int) -> FourierFormSpace:
    return FourierFormSpace(torus, truncation)


def _raise_sign(bits, j0) -> int:
    return -1 if sum(bits[:j0]) % 2 else 1


def _type_shift_operator(space, j0, kind) -> dict:
    """Blocks of a slot-raising operator; kind ("xi" or "xi_bar") selects
    multiplier and slot."""
    if kind == "xi":
        mono = space.variable(space.torus.n + j0)
    else:
        mono = space.variable(j0)
    blocks = {}
    for t, (alpha, beta) in enumerate(space.types):
        if kind == "xi_bar":
            if beta[j0]:
                continue
            t2 = space.type_index[(alpha, beta[:j0] + (1,) + beta[j0 + 1 :])]
            sign = (-1 if sum(alpha) % 2 else 1) * _raise_sign(beta, j0)
        else:
            if alpha[j0]:
                continue
            t2 = space.type_index[(alpha[:j0] + (1,) + alpha[j0 + 1 :], beta)]
            sign = _raise_sign(alpha, j0)
        blocks[(t2, t)] = {mono: sign}
    return blocks


def xi_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """The dz_j-component of the exterior derivative (1-based j); sends
    type (alpha, beta) with alpha_j = 0 to (alpha + 1_j, beta) and kills
    the rest."""
    _check_j(space, j)
    return OperatorMatrix(space, _type_shift_operator(space, j - 1, "xi"))


def xi_bar_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """The dzbar_j-component of the exterior derivative (1-based j)."""
    _check_j(space, j)
    return OperatorMatrix(space, _type_shift_operator(space, j - 1, "xi_bar"))


def _check_j(space, j):
    if not 1 <= j <= space.torus.n:
        raise InputError(f"factor index {j} out of range 1..{space.torus.n}")


def _sum(ops) -> OperatorMatrix:
    """The sum of one or more operators over the lcm of their
    denominators, in one pass over their blocks."""
    ops = list(ops)
    den = math.lcm(*(op.den for op in ops))
    blocks = {}
    for op in ops:
        k = den // op.den
        for key, p in op.blocks.items():
            acc = blocks.setdefault(key, {})
            for e, c in p.items():
                c *= k
                acc[e] = acc[e] + c if e in acc else c
    return OperatorMatrix(ops[0].space, blocks, den)


def del_operator(space: FourierFormSpace) -> OperatorMatrix:
    return _sum([xi_operator(space, j + 1) for j in range(space.torus.n)])


def d_operator(space: FourierFormSpace) -> OperatorMatrix:
    n = space.torus.n
    return _sum([xi_operator(space, j + 1) for j in range(n)]
                + [xi_bar_operator(space, j + 1) for j in range(n)])


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Adjoint for the inner product with diagonal Gram matrix:
    A* = G^-1 A^H G, so block (dst, src) with polynomial a becomes block
    (src, dst) with polynomial conj(a) G_dst / G_src: each coefficient, a
    real int, is multiplied by (-1)^|e| for the conjugate of (pi i)^|e| and
    scaled by the exact ratio of slot factors (the volume cancels), and z_j
    and conj(z_j) swap places.  The ratio is g_dst (L / g_src) over L
    (FourierFormSpace.slot_inverses), so the result's denominator is
    op.den L."""
    g, _ = op.space.slot_factors
    scale, inverses = op.space.slot_inverses
    n = op.space.torus.n
    blocks = {}
    for (dst, src), p in op.blocks.items():
        ratio = g[dst] * inverses[src]
        blocks[(src, dst)] = {e[n:] + e[:n]: (-1) ** sum(e) * c * ratio
                              for e, c in p.items()}
    return OperatorMatrix(op.space, blocks, den=op.den * scale)


def _laplacian_pass(p: OperatorMatrix, cross_only: bool = False) -> tuple:
    """P P* + P* P for P a sum of operators P_i that each raise one slot i
    of the refined type (d, del or one xi_j), one source type t at a time.

    P* lowers one slot per term.  Column t adds up the paths t -> mid ->
    dst through P* then P and through P then P*.  Its block
    (t + e_i - e_j, t), i != j, is the one cross term P_i P_j* + P_j* P_i,
    since the type difference fixes the slot pair (i, j); its diagonal
    block (t, t) is the sum of the diagonal terms P_i P_i* + P_i* P_i.
    Returns the diagonal blocks as an OperatorMatrix over den = P.den P*.den
    and, over the same den, the off-diagonal blocks with a coefficient that
    is not zero, as {(dst, src): polynomial}; the rest of each column is
    dropped, so no cross term that vanishes is held.  With cross_only the
    paths t -> mid -> t are not formed and the diagonal comes back
    without blocks, for a caller that reads only the cross terms.  The sums
    of exponents are formed once per call.
    """
    p_star = adjoint(p)
    up, down = _by_src(p), _by_src(p_star)
    sums, diagonal, cross = {}, {}, {}
    for t in range(p.space.type_count):
        column = {}
        for first, second in ((down, up), (up, down)):
            for mid, pa in first.get(t, ()):
                for dst, pb in second.get(mid, ()):
                    if dst != t or not cross_only:
                        _add_product(column.setdefault(dst, {}), pb, pa, sums)
        if t in column:
            diagonal[t, t] = column.pop(t)
        for dst, q in column.items():
            if any(q.values()):
                cross[dst, t] = q
    return OperatorMatrix(p.space, diagonal, den=p.den * p_star.den), cross


def xi_laplacians(space: FourierFormSpace):
    """Delta_{xi_j} = xi_j xi_j* + xi_j* xi_j for each j, each type-diagonal."""
    return [_laplacian_pass(xi_operator(space, j + 1))[0] for j in range(space.torus.n)]


def laplacian_d(space: FourierFormSpace) -> OperatorMatrix:
    """Hodge Laplacian of d on the space: its cached `laplacian`."""
    return space.laplacian


def _by_src(op: OperatorMatrix) -> dict:
    """op's blocks by source type: src -> [(dst, polynomial)]."""
    out = {}
    for (dst, src), p in op.blocks.items():
        out.setdefault(src, []).append((dst, p))
    return out


def _residual(op: OperatorMatrix) -> float:
    """0.0 when every coefficient of op is exactly zero, else the largest
    over the types dst of sum |c| pi^|e| prod_j R_j^(e[j] + e[n + j]) over
    the terms of every block (dst, src), with R_j^2 the largest |z_j|^2
    over the truncation box (FourierFormSpace.radii_squared).  Each |z_j|
    depends on factor j's digits alone, so one frequency reaches every R_j
    at once, and this is op's largest absolute row sum over the box
    whenever each polynomial's terms agree in phase there (single
    monomials, and sums of |z_j|^2 with coefficients of one sign: every
    operator the reports measure); otherwise it is an upper bound.  It is
    summed in mpmath at 113 bits from the exact R_j^2 and the exact
    |c| / op.den, each reduced to lowest terms before it is rounded as
    fraction_to_mpf rounds it, and rounded once to a double, inf beyond
    its range.  Each monomial's pi^|e| and product of R_j is formed once,
    and so is each distinct term (e, c): the terms repeat across types
    (the report's half-sum difference at n = 3 has 192 terms and 3
    distinct ones), and a repeated term is the same mpf, so the sums are
    those of every term formed anew, bit for bit."""
    if op.is_zero():
        return 0.0
    n, den = op.space.torus.n, op.den
    with mp.workprec(113):
        radii = [mp.sqrt(fraction_to_mpf(r2)) for r2 in op.space.radii_squared]
        sizes = {e: (mp.pi ** sum(e), mp.fprod(radii[k % n] ** power for k, power in enumerate(e)))
                 for e in set().union(*op.blocks.values())}
        terms, rows = {}, {}
        for (dst, _), p in op.blocks.items():
            row = []
            for e, c in p.items():
                term = terms.get((e, c))
                if term is None:
                    term = terms[e, c] = _abs_over(c, den) * sizes[e][0] * sizes[e][1]
                row.append(term)
            rows[dst] = rows.get(dst, 0) + mp.fsum(row)
        return float(max(rows.values()))


def _abs_over(c: int, den: int) -> mp.mpf:
    """|c| / den at the current precision, in lowest terms first."""
    g = math.gcd(c, den)
    return mp.mpf(abs(c) // g) / mp.mpf(den // g)


@dataclass(frozen=True)
class ResidualReport:
    identity: str
    max_residual: float
    dims: dict
    passed: bool


def verify_refined_identities(space: FourierFormSpace) -> ResidualReport:
    """Decide xi_j xi_k* + xi_k* xi_j = 0 for all j != k exactly on the
    coefficients: they are the cross terms of _laplacian_pass of
    del = sum_j xi_j, and its blocks of type difference e_j - e_k are that
    one anticommutator's; the pass skips the diagonal terms, which no
    identity reads.  max_residual is the largest _residual over the
    anticommutators, 0.0 when the identities hold."""
    delta_del, cross = _laplacian_pass(del_operator(space), cross_only=True)
    pairs = {}
    for (dst, src), p in cross.items():
        pairs.setdefault(tuple(map(operator.sub, space.types[dst][0], space.types[src][0])),
                         {})[dst, src] = p
    worst = max((_residual(OperatorMatrix(space, blocks, den=delta_del.den))
                 for blocks in pairs.values()), default=0.0)
    dims = {"dim": space.dim, "n": space.torus.n, "truncation": space.truncation}
    return ResidualReport("anticommutators", worst, dims, not cross)


@dataclass(frozen=True)
class LaplacianReport:
    sum_residual: float          # || Delta_d - 2 sum_j Delta_{xi_j} ||
    dolbeault_residual: float    # || Delta_d - 2 Delta_del ||, the same number
    half_sum_residual: float     # || Delta_d - (1/2) sum_j Delta_{xi_j} ||, reported only
    cross_term_max: float        # 0.0: laplacian_d raises unless every cross term is zero
    block_diagonal_exact: bool   # True: laplacian_d keeps the diagonal blocks only
    dims: dict
    passed: bool


def verify_laplacian_sum(space: FourierFormSpace) -> LaplacianReport:
    """Decide the Laplacian decomposition exactly on the coefficients:
    Delta_d = 2 sum_j Delta_{xi_j} and Delta_d = 2 Delta_del.  Delta_del
    is _laplacian_pass of del = sum_j xi_j: its diagonal is
    sum_j Delta_{xi_j} by construction, and its cross terms
    xi_j xi_k* + xi_k* xi_j are among those laplacian_d has found zero.  So
    the two differences are one operator, and sum_residual and
    dolbeault_residual one _residual.  laplacian_d is type-block-diagonal
    by construction, so cross_term_max is 0.0 and block_diagonal_exact
    True.  The half-coefficient variant's residual is reported but is not
    part of the verdict: the asserted identity pins the coefficient at 2.
    """
    dd = laplacian_d(space)
    delta_del, cross = _laplacian_pass(del_operator(space))
    diff = dd - 2 * delta_del
    residual = _residual(diff)
    dims = {"dim": space.dim, "n": space.torus.n, "truncation": space.truncation}
    return LaplacianReport(residual, residual, _residual(dd - Fraction(1, 2) * delta_del), 0.0,
                           True, dims, diff.is_zero() and not cross)


@dataclass(frozen=True)
class HarmonicBasis:
    """The harmonic forms of type (alpha, beta): spanned by the unit vectors
    at the frequencies with z_j = 0, that is with both digits of factor j
    zero, for every j in factors (see _kernel_factors)."""

    space: FourierFormSpace
    alpha: tuple
    beta: tuple
    factors: tuple

    @property
    def dim(self) -> int:
        return (2 * self.space.truncation + 1) ** (2 * (self.space.torus.n - len(self.factors)))


def _kernel_factors(space: FourierFormSpace, t: int) -> tuple:
    """The factors j on which the Laplacian's kernel on type t has z_j = 0.

    Exactly, its diagonal coefficients on t are sum_j c_j z_j conj(z_j)
    with every c_j of one sign, so it vanishes where z_j = 0 for every j
    with c_j != 0.  DegenerateInputError if they have any other form."""
    squares = space.squares
    p = {e: c for e, c in laplacian_d(space).blocks.get((t, t), {}).items() if c}
    if not set(p) <= set(squares) or len({c > 0 for c in p.values()}) > 1:
        raise DegenerateInputError("the Laplacian's diagonal is not a definite sum of |z_j|^2")
    return tuple(sorted(squares[e] for e in p))


def harmonic_space(space: FourierFormSpace, alpha, beta) -> HarmonicBasis:
    """Kernel of the Hodge Laplacian on forms of one refined type: the
    unit vectors at the frequencies where its diagonal vanishes."""
    alpha, beta = tuple(alpha), tuple(beta)
    if (alpha, beta) not in space.type_index:
        raise InputError("unknown refined type")
    return HarmonicBasis(space, alpha, beta,
                         _kernel_factors(space, space.type_index[(alpha, beta)]))


def metric_independence_check(torus: FlatTorus, weights_a, weights_b, truncation: int) -> dict:
    """Decide exactly whether two flat metrics on torus have the same
    harmonic projection on every form of the truncated space.

    Each metric's Laplacian is diagonal in the Fourier basis, so its
    harmonic projection keeps a form's coefficients at the frequencies
    where the Laplacian's diagonal vanishes, type by type, and drops the
    rest.  The projections agree on every form exactly when both
    Laplacians vanish at the same frequencies, that is when
    _kernel_factors agrees on every type.  residual and
    projection_difference read 0.0 when it does and inf otherwise.
    """
    sa, sb = (FourierFormSpace(FlatTorus(torus.factors, tuple(float(w) for w in ws)), truncation)
              for ws in (weights_a, weights_b))
    passed = all(_kernel_factors(sa, t) == _kernel_factors(sb, t) for t in range(sa.type_count))
    gap = 0.0 if passed else math.inf
    return {"residual": gap, "projection_difference": gap, "passed": passed}


def extract_plectic_structure(space: FourierFormSpace, degree: int):
    """Plectic structure on the degree-k integral cohomology whose pieces
    are the computed harmonic spaces.  Each piece is spanned by the
    constant form of its type, the harmonic form at frequency 0, whose
    periods are the minors of its slots' pairings with the lattice
    generators; they are formed in mpmath at working precision, and the
    structure is validated at the default tolerance."""
    from .hodge import Bidegree, PlecticHodgeStructure, validate

    n = space.torus.n
    if not 0 <= degree <= 2 * n:
        raise InputError("degree out of range")
    subsets = list(itertools.combinations(range(2 * n), degree))
    rank = len(subsets)
    gens = [(j, mp.mpc(complex(w))) for j, pair in enumerate(space.torus.factors) for w in pair]
    pieces = {}
    total = 0
    for (alpha, beta) in space.types:
        if sum(alpha) + sum(beta) != degree:
            continue
        total += harmonic_space(space, alpha, beta).dim
        slot_rows = _slot_rows(alpha, beta, gens, n)
        with working_precision():
            pieces[Bidegree(alpha, beta)] = cx.mpm(
                [[_minor(slot_rows, subset)] for subset in subsets])
    expected = math.comb(2 * n, degree)
    if total != expected:
        raise DegenerateInputError(
            f"harmonic rank {total} does not match the exterior-algebra count {expected}"
        )
    phs = PlecticHodgeStructure(n, rank, pieces)
    report = validate(phs)
    if not report.passed:
        raise DegenerateInputError("extracted structure failed validation")
    return phs


def _slot_rows(alpha, beta, gens, n):
    """Rows of pairing values of the chosen dz/dzbar slots against the
    ambient lattice generators."""
    rows = []
    for j in range(n):
        if alpha[j]:
            rows.append([lam if fj == j else 0 for (fj, lam) in gens])
    for j in range(n):
        if beta[j]:
            rows.append([mp.conj(lam) if fj == j else 0 for (fj, lam) in gens])
    return rows


def _minor(rows, cols):
    """Determinant of the rows restricted to the columns cols, expanded
    along the first row.  A row of factor j is zero off the two columns of
    factor j, so at most 2^len(rows) terms survive."""
    if not rows:
        return mp.mpc(1)
    first, rest = rows[0], rows[1:]
    return mp.fsum((-1) ** i * first[c] * _minor(rest, cols[:i] + cols[i + 1:])
                   for i, c in enumerate(cols) if first[c])
