"""Spectral model of refined differential forms on flat product tori.

Basis elements are exp(2*pi*i <m, x>) dz_A ^ dzbar_B with m running over
the dual lattice (coordinates bounded by the truncation) and one
holomorphic / antiholomorphic bit per complex factor.  Trigonometric
polynomials are closed under every operator built here, so nothing is
discretized.

Every operator built here is diagonal in frequency and acts on the 4^n
refined types by a fixed map (the Hodge star also negates frequencies).
Its multiplier for a pair of refined types is a polynomial in the
frequency coordinates z_j = freq_cx[:, j] and their conjugates, so an
operator is stored as coefficients over such monomials, one polynomial
per pair of types (see OperatorMatrix).  The factor (pi i)^|e| of a
monomial e is left out of its coefficient and the metric weights enter as
the exact rationals of their floats, so the derivatives, their adjoints
and everything composed from them have exact rational coefficients.  The
refined identities, the Laplacian decomposition and the Laplacian's
kernel are decided on those coefficients, exactly and for every
truncation.  Arrays over the frequencies (numpy, IEEE double precision)
are formed only where a number is read: the size of a nonzero residual,
or an operator applied to a vector.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import cxlinalg as cx
from .config import working_precision
from .errors import DegenerateInputError, InputError

__all__ = [
    "FlatTorus",
    "FourierFormSpace",
    "OperatorMatrix",
    "build_space",
    "xi_operator",
    "xi_bar_operator",
    "e_operator",
    "partial_operator",
    "partial_bar_operator",
    "del_operator",
    "delbar_operator",
    "d_operator",
    "adjoint",
    "laplacian",
    "laplacian_d",
    "xi_laplacians",
    "verify_refined_identities",
    "verify_laplacian_sum",
    "harmonic_space",
    "hodge_star",
    "metric_independence_check",
    "seeded_closed_form",
    "extract_plectic_structure",
    "ResidualReport",
    "LaplacianReport",
]


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
        for w1, w2 in self.factors:
            area = self._area(complex(w1), complex(w2))
            if area == 0 or not math.isfinite(area):
                raise InputError("factor lattice is degenerate or not finite")

    @staticmethod
    def _area(w1: complex, w2: complex) -> float:
        return w1.real * w2.imag - w1.imag * w2.real

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def square(cls, n: int, weights=None) -> "FlatTorus":
        if weights is None:
            weights = (1.0,) * n
        return cls(((1.0 + 0.0j, 1.0j),) * n, tuple(float(w) for w in weights))

    def lattice_matrix(self) -> np.ndarray:
        """2n x 2n real block-diagonal presentation of the lattice."""
        n = self.n
        out = np.zeros((2 * n, 2 * n))
        for j, (w1, w2) in enumerate(self.factors):
            w1, w2 = complex(w1), complex(w2)
            out[2 * j, 2 * j : 2 * j + 2] = (w1.real, w2.real)
            out[2 * j + 1, 2 * j : 2 * j + 2] = (w1.imag, w2.imag)
        return out

    def dual_generators(self):
        """Per factor, the basis dual to (w1, w2) under Re(z * conj(w))."""
        out = []
        for w1, w2 in self.factors:
            w1, w2 = complex(w1), complex(w2)
            L = np.array([[w1.real, w1.imag], [w2.real, w2.imag]])
            D = np.linalg.inv(L)  # columns are the dual vectors
            out.append((complex(D[0, 0], D[1, 0]), complex(D[0, 1], D[1, 1])))
        return out


class FourierFormSpace:
    """Finite form space: frequencies with dual-lattice coordinates in
    [-N, N], times the 4^n refined types."""

    def __init__(self, torus: FlatTorus, truncation: int):
        if truncation < 0:
            raise InputError("truncation must be nonnegative")
        self.torus = torus
        self.truncation = int(truncation)
        n = torus.n
        N = self.truncation
        side = 2 * N + 1
        self.freq_count = side ** (2 * n)
        grids = np.meshgrid(*([np.arange(-N, N + 1)] * (2 * n)), indexing="ij")
        self.freq_digits = np.stack([g.ravel() for g in grids], axis=1)  # (F, 2n)
        duals = torus.dual_generators()
        self.freq_cx = np.zeros((self.freq_count, n), dtype=np.complex128)
        for j in range(n):
            m1, m2 = duals[j]
            self.freq_cx[:, j] = self.freq_digits[:, 2 * j] * m1 + self.freq_digits[:, 2 * j + 1] * m2
        self.types = [
            (alpha, beta)
            for alpha in itertools.product((0, 1), repeat=n)
            for beta in itertools.product((0, 1), repeat=n)
        ]
        self.type_index = {t: i for i, t in enumerate(self.types)}
        self.type_count = len(self.types)
        self.dim = self.freq_count * self.type_count
        self.gram = self._gram()
        self._cache = {}
        self.one = (0,) * (2 * n)  # exponents of the constant monomial

    def variable(self, k: int) -> tuple:
        """Exponents of z_(k+1) for k < n, of conj(z_(k-n+1)) for n <= k < 2n."""
        return tuple(int(i == k) for i in range(2 * self.torus.n))

    def _gram(self) -> np.ndarray:
        """Diagonal of the L^2 Gram matrix, one entry per refined type
        (the same at every frequency)."""
        vol = 1.0
        for (w1, w2), w in zip(self.torus.factors, self.torus.weights):
            vol *= w * abs(FlatTorus._area(complex(w1), complex(w2)))
        factors = [2.0 / w for w in self.torus.weights]
        return np.array([_slot_factor(factors, alpha, beta, vol)
                         for alpha, beta in self.types])

    @functools.cached_property
    def slot_factors(self) -> list:
        """Gram entry over the volume, one per refined type, exactly: the
        weights enter as the rationals their floats are."""
        factors = [2 / Fraction(w) for w in self.torus.weights]
        return [_slot_factor(factors, alpha, beta, 1) for alpha, beta in self.types]

    def index(self, freq_idx: int, type_idx: int) -> int:
        return freq_idx * self.type_count + type_idx

    def negated_freq_indices(self) -> np.ndarray:
        """Index of -m for each frequency m: the digits run over a
        symmetric range in lexicographic order, so -m sits at F - 1 - m."""
        return np.arange(self.freq_count - 1, -1, -1)

    def conj_involution(self) -> np.ndarray:
        """Index involution (m, alpha, beta) -> (-m, beta, alpha)."""
        type_map = np.array([self.type_index[(beta, alpha)] for (alpha, beta) in self.types])
        return (self.negated_freq_indices()[:, None] * self.type_count + type_map).ravel()


def _slot_factor(factors, alpha, beta, start=1.0):
    """start times factors[j] = 2 / w_j for each set slot of alpha and of
    beta: the squared length of dz_j and of dzbar_j is 2 / w_j."""
    return math.prod((f for f, a, b in zip(factors, alpha, beta) for bit in (a, b) if bit),
                     start=start)


@dataclass
class OperatorMatrix:
    """Operator on a Fourier form space, stored by refined type as
    scalar coefficients over frequency monomials.

    blocks[(dst, src)], for type indices dst and src, is a polynomial
    {exponents: coefficient} in the frequency coordinates: exponents e has
    length 2n, e[j] is the power of z_j = freq_cx[:, j] and e[n + j] that
    of its conjugate, and coefficient c stands for c (pi i)^|e| times that
    monomial, |e| = sum(e).  The operator sends the basis element of type
    src at frequency m to the polynomial's value at m times the one of type
    dst at the same frequency.  Absent pairs are zero.  Coefficients are
    exact (int or Fraction) except the Hodge star's complex constants.  +,
    -, scalar *, @ (composition) and adjoint change coefficients only;
    multipliers() forms the arrays over the frequencies.  A conjugate-linear
    operator (conjugates_argument, the Hodge star) conjugates the
    coefficients of its argument first and sends frequency m to -m; it may
    be scaled and added to another conjugate-linear operator, but not
    composed or added to a linear one.
    """

    space: FourierFormSpace
    blocks: dict
    name: str = ""
    conjugates_argument: bool = False

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.conjugates_argument != other.conjugates_argument:
            raise InputError("cannot add a linear and a conjugate-linear operator")
        blocks = {key: dict(p) for key, p in self.blocks.items()}
        for key, p in other.blocks.items():
            acc = blocks.setdefault(key, {})
            for e, c in p.items():
                acc[e] = acc[e] + c if e in acc else c
        return OperatorMatrix(self.space, blocks, conjugates_argument=self.conjugates_argument)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1) * other

    def __mul__(self, scalar) -> "OperatorMatrix":
        blocks = {key: {e: scalar * c for e, c in p.items()} for key, p in self.blocks.items()}
        return OperatorMatrix(self.space, blocks, conjugates_argument=self.conjugates_argument)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composition: (self @ other) applies other first."""
        return OperatorMatrix(self.space, _compose(self, other, {}))

    def multipliers(self):
        """(arrays, column): the multiplier of block key over all
        frequencies is arrays[:, column[key]], one column per distinct
        polynomial; each monomial is formed once."""
        distinct, column = {}, {}
        for key, p in self.blocks.items():
            column[key] = distinct.setdefault(tuple(sorted(p.items())), len(distinct))
        z = self.space.freq_cx
        variables = np.concatenate([z, np.conj(z)], axis=1)  # z_j, then conj(z_j)
        monomials = {}
        arrays = np.zeros((self.space.freq_count, len(distinct)), dtype=np.complex128)
        for col, p in enumerate(distinct):
            for e, c in p:
                if e not in monomials:
                    mono = np.full(len(variables), (1j * math.pi) ** sum(e))
                    for k, power in enumerate(e):
                        if power:
                            mono *= variables[:, k] ** power
                    monomials[e] = mono
                arrays[:, col] += complex(c) * monomials[e]
        return arrays, column

    def is_zero(self) -> bool:
        """Whether every coefficient is exactly zero."""
        return not any(c for p in self.blocks.values() for c in p.values())


def _compose(a: OperatorMatrix, b: OperatorMatrix, blocks: dict) -> dict:
    """blocks with the blocks of the composition a b (b first) added in."""
    if a.conjugates_argument or b.conjugates_argument:
        raise InputError("composition is defined for linear operators only")
    by_src = {}
    for (dst, mid), pa in a.blocks.items():
        by_src.setdefault(mid, []).append((dst, pa))
    for (mid, src), pb in b.blocks.items():
        for dst, pa in by_src.get(mid, ()):
            acc = blocks.setdefault((dst, src), {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    e, c = tuple(map(operator.add, ea, eb)), ca * cb
                    acc[e] = acc[e] + c if e in acc else c
    return blocks


def _anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a b + b a, composed into one set of blocks."""
    return OperatorMatrix(a.space, _compose(b, a, _compose(a, b, {})))


def build_space(torus: FlatTorus, truncation: int) -> FourierFormSpace:
    return FourierFormSpace(torus, truncation)


def _raise_sign(bits, j0) -> int:
    return -1 if sum(bits[:j0]) % 2 else 1


def _type_shift_operator(space, j0, kind) -> dict:
    """Blocks of a slot-raising operator; kind selects multiplier and slot."""
    if kind == "xi":
        mono = space.variable(space.torus.n + j0)
    elif kind == "xi_bar":
        mono = space.variable(j0)
    else:  # e
        mono = space.one
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
    return OperatorMatrix(space, _type_shift_operator(space, j - 1, "xi"), f"xi_{j}")


def xi_bar_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """The dzbar_j-component of the exterior derivative (1-based j)."""
    _check_j(space, j)
    return OperatorMatrix(space, _type_shift_operator(space, j - 1, "xi_bar"), f"xibar_{j}")


def e_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """Wedge with dz_j."""
    _check_j(space, j)
    return OperatorMatrix(space, _type_shift_operator(space, j - 1, "e"), f"e_{j}")


def _diag_operator(space, k) -> dict:
    """pi i times the variable k on every type."""
    return {(t, t): {space.variable(k): 1} for t in range(space.type_count)}


def partial_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """Coefficientwise d/dz_j (diagonal in the Fourier basis)."""
    _check_j(space, j)
    return OperatorMatrix(space, _diag_operator(space, space.torus.n + j - 1), f"partial_{j}")


def partial_bar_operator(space: FourierFormSpace, j: int) -> OperatorMatrix:
    """Coefficientwise d/dzbar_j (diagonal in the Fourier basis)."""
    _check_j(space, j)
    return OperatorMatrix(space, _diag_operator(space, j - 1), f"partialbar_{j}")


def _check_j(space, j):
    if not 1 <= j <= space.torus.n:
        raise InputError(f"factor index {j} out of range 1..{space.torus.n}")


def _sum(ops, name) -> OperatorMatrix:
    ops = iter(ops)
    return replace(sum(ops, next(ops)), name=name)


def del_operator(space: FourierFormSpace) -> OperatorMatrix:
    return _sum([xi_operator(space, j + 1) for j in range(space.torus.n)], "del")


def delbar_operator(space: FourierFormSpace) -> OperatorMatrix:
    return _sum([xi_bar_operator(space, j + 1) for j in range(space.torus.n)], "delbar")


def d_operator(space: FourierFormSpace) -> OperatorMatrix:
    return _sum([del_operator(space), delbar_operator(space)], "d")


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Adjoint for the inner product with diagonal Gram matrix:
    A* = G^-1 A^H G, so block (dst, src) with polynomial a becomes block
    (src, dst) with polynomial conj(a) G_dst / G_src: each coefficient is
    conjugated, times (-1)^|e| for the conjugate of (pi i)^|e|, and scaled
    by the exact ratio of slot factors (the volume cancels), and z_j and
    conj(z_j) swap places."""
    if op.conjugates_argument:
        raise InputError("adjoint is defined for linear operators only")
    G = op.space.slot_factors
    n = op.space.torus.n
    blocks = {(src, dst): {e[n:] + e[:n]: (-1) ** sum(e) * c.conjugate() * G[dst] / G[src]
                           for e, c in p.items()}
              for (dst, src), p in op.blocks.items()}
    return OperatorMatrix(op.space, blocks, op.name + "*")


def laplacian(op: OperatorMatrix) -> OperatorMatrix:
    a = adjoint(op)
    return replace(_anticommutator(op, a), name=f"Delta_{op.name}")


def _components(space):
    n = space.torus.n
    return [xi_operator(space, j + 1) for j in range(n)] + [
        xi_bar_operator(space, j + 1) for j in range(n)
    ]


def xi_laplacians(space: FourierFormSpace):
    return [laplacian(xi_operator(space, j + 1)) for j in range(space.torus.n)]


def laplacian_d(space: FourierFormSpace) -> OperatorMatrix:
    """Hodge Laplacian of d, assembled componentwise.

    d splits into the 2n type-raising components; the diagonal terms
    P P* + P* P add up while every cross term P Q* + Q* P anticommutes
    to zero, so the assembly keeps only the diagonal terms and the
    result is type-block-diagonal by construction.  All (2n)(2n - 1)
    cross terms are checked to have exactly zero coefficients first;
    DegenerateInputError is raised otherwise.  The result is cached on
    the space.
    """
    key = "laplacian_d"
    if key in space._cache:
        return space._cache[key]
    comps = _components(space)
    adjs = [adjoint(c) for c in comps]
    if not all(_anticommutator(comps[i], adjs[j]).is_zero()
               for i, j in itertools.permutations(range(len(comps)), 2)):
        raise DegenerateInputError("Laplacian cross terms failed to anticommute")
    total = _sum((_anticommutator(c, a) for c, a in zip(comps, adjs)), "Delta_d")
    space._cache[key] = total
    return total


def _residual(op: OperatorMatrix) -> float:
    """0.0 when every coefficient of op is exactly zero, else its largest
    absolute row sum over the truncation box.  The row sum of type dst adds
    the absolute multipliers of the blocks (dst, src), so it is the product
    of the absolute multipliers with column dst of a count matrix; types
    with equal count columns have equal row sums, and only the distinct
    columns are multiplied.  inf when a coefficient exceeds the range of a
    double."""
    if op.is_zero():
        return 0.0
    try:
        arrays, column = op.multipliers()
    except OverflowError:
        return math.inf
    counts = np.zeros((arrays.shape[1], op.space.type_count))
    for (dst, _), col in column.items():
        counts[col, dst] += 1
    return float((np.abs(arrays) @ np.unique(counts, axis=1)).max(initial=0.0))


@dataclass(frozen=True)
class ResidualReport:
    identity: str
    max_residual: float
    dims: dict
    passed: bool


def verify_refined_identities(space: FourierFormSpace) -> ResidualReport:
    """Decide xi_j xi_k* + xi_k* xi_j = 0 for all j != k exactly on the
    coefficients; max_residual is the largest _residual, 0.0 when the
    identities hold."""
    n = space.torus.n
    xis = [xi_operator(space, j + 1) for j in range(n)]
    adjs = [adjoint(x) for x in xis]
    ops = [_anticommutator(xis[j], adjs[k]) for j, k in itertools.permutations(range(n), 2)]
    worst = max((_residual(op) for op in ops), default=0.0)
    dims = {"dim": space.dim, "n": n, "truncation": space.truncation}
    return ResidualReport("anticommutators", worst, dims, all(op.is_zero() for op in ops))


@dataclass(frozen=True)
class LaplacianReport:
    sum_residual: float          # || Delta_d - 2 sum_j Delta_{xi_j} ||
    dolbeault_residual: float    # || Delta_d - 2 Delta_del ||
    half_sum_residual: float     # || Delta_d - (1/2) sum_j Delta_{xi_j} ||, reported only
    cross_term_max: float        # 0.0: laplacian_d raises unless every cross term is zero
    block_diagonal_exact: bool
    dims: dict
    passed: bool


def verify_laplacian_sum(space: FourierFormSpace) -> LaplacianReport:
    """Decide the Laplacian decomposition exactly on the coefficients:
    Delta_d = 2 sum_j Delta_{xi_j} and Delta_d = 2 Delta_del, plus
    type-block diagonality (exact for the assembled Laplacian).  Each
    residual is _residual of the difference.

    The residual of the half-coefficient variant is measured and
    reported but is not part of the pass verdict: Delta_del equals the
    sum of the xi-Laplacians, so the two asserted identities pin the
    coefficient at 2.
    """
    dd = laplacian_d(space)
    s = _sum(xi_laplacians(space), "sum_j Delta_xi_j")
    sum_op = dd - 2 * s
    dol_op = dd - 2 * laplacian(del_operator(space))
    block_ok = all(c == 0 for (dst, src), p in dd.blocks.items() if dst != src
                   for c in p.values())
    dims = {"dim": space.dim, "n": space.torus.n, "truncation": space.truncation}
    passed = sum_op.is_zero() and dol_op.is_zero() and block_ok
    return LaplacianReport(_residual(sum_op), _residual(dol_op),
                           _residual(dd - Fraction(1, 2) * s), 0.0, block_ok, dims, passed)


@dataclass(frozen=True)
class HarmonicBasis:
    space: FourierFormSpace
    alpha: tuple
    beta: tuple
    coefficients: np.ndarray  # (freq_count, dim of kernel)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]

    def full_vectors(self) -> np.ndarray:
        """Embed the basis into the ambient form space."""
        out = np.zeros((self.space.dim, self.dim), dtype=np.complex128)
        t = self.space.type_index[(self.alpha, self.beta)]
        idx = np.arange(self.space.freq_count) * self.space.type_count + t
        out[idx, :] = self.coefficients
        return out


def _kernel_factors(space: FourierFormSpace, t: int) -> tuple:
    """The factors j on which the Laplacian's kernel on type t has z_j = 0.

    Exactly, its diagonal coefficients on t are sum_j c_j z_j conj(z_j)
    with every c_j of one sign, so it vanishes where z_j = 0 for every j
    with c_j != 0.  DegenerateInputError if they have any other form."""
    n = space.torus.n
    squares = {tuple(int(i in (j, n + j)) for i in range(2 * n)): j for j in range(n)}
    p = {e: c for e, c in laplacian_d(space).blocks.get((t, t), {}).items() if c}
    if not set(p) <= set(squares) or len({c > 0 for c in p.values()}) > 1:
        raise DegenerateInputError("the Laplacian's diagonal is not a definite sum of |z_j|^2")
    return tuple(sorted(squares[e] for e in p))


def _harmonic_frequencies(space: FourierFormSpace, factors: tuple) -> np.ndarray:
    """Mask of the frequencies with z_j = 0, that is with both digits of
    factor j zero, for every j in factors (see _kernel_factors)."""
    digits = space.freq_digits.reshape(space.freq_count, space.torus.n, 2)
    return ~digits[:, list(factors)].any(axis=(1, 2))


def harmonic_space(space: FourierFormSpace, alpha, beta) -> HarmonicBasis:
    """Kernel of the Hodge Laplacian on forms of one refined type: the
    unit vectors at the frequencies where its diagonal vanishes."""
    alpha, beta = tuple(alpha), tuple(beta)
    if (alpha, beta) not in space.type_index:
        raise InputError("unknown refined type")
    factors = _kernel_factors(space, space.type_index[(alpha, beta)])
    kernel = np.nonzero(_harmonic_frequencies(space, factors))[0]
    coeffs = np.zeros((space.freq_count, len(kernel)), dtype=np.complex128)
    coeffs[kernel, np.arange(len(kernel))] = 1.0
    return HarmonicBasis(space, alpha, beta, coeffs)


def hodge_star(space: FourierFormSpace) -> OperatorMatrix:
    """Conjugate-linear Hodge star: psi ^ (star eta) = (psi, eta) vol.

    The blocks are constants, the images of basis elements; applying the
    operator to a general vector conjugates its coefficients first
    (conjugates_argument is set).  Types map to their slotwise
    complements and frequencies negate.
    """
    n = space.torus.n
    weights = space.torus.weights
    factors = [2.0 / w for w in weights]
    vol_coeff = 1.0 + 0.0j
    for w in weights:
        vol_coeff *= 1j * w / 2.0
    interleaved = [s for j in range(n) for s in (j, n + j)]
    vol_coeff *= _perm_sign(interleaved)
    blocks = {}
    for t, (alpha, beta) in enumerate(space.types):
        slots = [j for j in range(n) if alpha[j]] + [n + j for j in range(n) if beta[j]]
        cal = tuple(1 - a for a in alpha)
        cbe = tuple(1 - b for b in beta)
        cslots = [j for j in range(n) if cal[j]] + [n + j for j in range(n) if cbe[j]]
        c_b = _slot_factor(factors, alpha, beta) * vol_coeff * _perm_sign(slots + cslots)
        blocks[(space.type_index[(cal, cbe)], t)] = {space.one: complex(c_b)}
    return OperatorMatrix(space, blocks, "star", conjugates_argument=True)


def apply_operator(op: OperatorMatrix, vec: np.ndarray) -> np.ndarray:
    """op applied to a vector of length dim, or to each column of a (dim, k) array."""
    space = op.space
    v = np.asarray(vec).reshape((space.freq_count, space.type_count) + np.shape(vec)[1:])
    v = np.conj(v) if op.conjugates_argument else v
    out = np.zeros(v.shape, dtype=np.complex128)
    arrays, column = op.multipliers()
    for (dst, src), col in column.items():
        out[:, dst] += arrays[:, col].reshape((-1,) + (1,) * (v.ndim - 2)) * v[:, src]
    if op.conjugates_argument:
        out = out[space.negated_freq_indices()]
    return out.reshape(np.shape(vec))


def _perm_sign(seq) -> int:
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def metric_independence_check(torus: FlatTorus, weights_a, weights_b, coefficients,
                              truncation: int, tol: float = 1e-9):
    """Compare harmonic projections of one closed form under two flat
    metrics; the residual is the distance of their difference to the
    image of d (measured in the first metric).

    On a flat torus the Laplacian's kernel is the zero frequency for
    every metric, so both projections are the restriction of the form to
    frequency 0, their difference is exactly 0 and the check cannot fail:
    it is a smoke check of the pipeline, not a test of the theorem.
    """
    ta = FlatTorus(torus.factors, tuple(float(w) for w in weights_a))
    tb = FlatTorus(torus.factors, tuple(float(w) for w in weights_b))
    sa = FourierFormSpace(ta, truncation)
    sb = FourierFormSpace(tb, truncation)
    psi = np.asarray(coefficients, dtype=np.complex128)
    if psi.shape != (sa.dim,):
        raise InputError("coefficient vector has the wrong length")
    d = d_operator(sa)
    dnorm = float(np.abs(apply_operator(d, psi)).max())
    if dnorm > 1e-8 * max(1.0, float(np.abs(psi).max())):
        raise InputError("input form is not closed")
    delta = _harmonic_projection(sa, psi) - _harmonic_projection(sb, psi)
    w = np.sqrt(sa.gram)
    scale = float(np.linalg.norm(w * psi.reshape(sa.freq_count, sa.type_count)))
    resid = _distance_to_image(d, w, delta) / max(1.0, scale)
    return {
        "residual": resid,
        "projection_difference": float(np.linalg.norm(delta)),
        "passed": bool(resid < tol),
    }


def seeded_closed_form(space: FourierFormSpace, seed: int) -> np.ndarray:
    """A closed form with a known class: dz_1 at frequency 0 plus d of a
    complex Gaussian vector drawn from numpy's default_rng(seed)."""
    n = space.torus.n
    rng = np.random.default_rng(seed)
    psi = np.zeros(space.dim, dtype=complex)
    t0 = space.type_index[((1,) + (0,) * (n - 1), (0,) * n)]
    psi[space.index(_zero_freq_index(space), t0)] = 1.0
    zeta = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return psi + apply_operator(d_operator(space), zeta)


def _distance_to_image(op: OperatorMatrix, w: np.ndarray, delta: np.ndarray) -> float:
    """min over x of || w (op x - delta) || for a weight w per type: one
    dense least-squares problem per frequency where delta is nonzero."""
    F, T = op.space.freq_count, op.space.type_count
    target = w * delta.reshape(F, T)
    freqs = np.nonzero(np.any(target != 0, axis=1))[0]
    mats = np.zeros((len(freqs), T, T), dtype=np.complex128)
    arrays, column = op.multipliers()
    for (dst, src), col in column.items():
        mats[:, dst, src] = w[dst] * arrays[freqs, col]
    sq = 0.0
    for A, b in zip(mats, target[freqs]):
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        sq += float(np.linalg.norm(A @ x - b)) ** 2
    return math.sqrt(sq)


def _harmonic_projection(space: FourierFormSpace, psi: np.ndarray) -> np.ndarray:
    """psi restricted to the kernel of the (diagonal) Laplacian."""
    factors = [_kernel_factors(space, t) for t in range(space.type_count)]
    masks = {f: _harmonic_frequencies(space, f) for f in set(factors)}
    return np.where(np.stack([masks[f] for f in factors], axis=1).ravel(), psi, 0)


def extract_plectic_structure(space: FourierFormSpace, degree: int):
    """Plectic structure on the degree-k integral cohomology whose pieces
    are the computed harmonic spaces; the minors that span them are formed
    in mpmath at working precision, and the structure is validated at the
    default tolerance."""
    from .hodge import Bidegree, PlecticHodgeStructure, validate
    from .lattices import Lattice

    n = space.torus.n
    if not 0 <= degree <= 2 * n:
        raise InputError("degree out of range")
    subsets = list(itertools.combinations(range(2 * n), degree))
    rank = len(subsets)
    gens = [(j, mp.mpc(complex(w))) for j, pair in enumerate(space.torus.factors) for w in pair]
    m0 = _zero_freq_index(space)
    pieces = {}
    total = 0
    for (alpha, beta) in space.types:
        if sum(alpha) + sum(beta) != degree:
            continue
        hb = harmonic_space(space, alpha, beta)
        total += hb.dim
        if hb.dim == 0:
            continue
        slot_rows = _slot_rows(alpha, beta, gens, n)
        with working_precision():
            minors = [_minor(slot_rows, subset) for subset in subsets]
            pieces[Bidegree(alpha, beta)] = cx.mpm(
                [[complex(coef) * m for coef in hb.coefficients[m0]] for m in minors])
    expected = math.comb(2 * n, degree)
    if total != expected:
        raise DegenerateInputError(
            f"harmonic rank {total} does not match the exterior-algebra count {expected}"
        )
    phs = PlecticHodgeStructure(n, Lattice.standard(rank), pieces)
    report = validate(phs)
    if not report.passed:
        raise DegenerateInputError("extracted structure failed validation")
    return phs


def _zero_freq_index(space) -> int:
    return (space.freq_count - 1) // 2


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
