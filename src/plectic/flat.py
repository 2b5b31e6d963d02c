"""Spectral model of refined differential forms on flat product tori.

Basis elements are exp(2*pi*i <m, x>) dz_A ^ dzbar_B with m running over
the dual lattice (coordinates bounded by the truncation) and one
holomorphic / antiholomorphic bit per complex factor.  Trigonometric
polynomials are closed under every operator built here, so residuals
measure floating-point error only, never discretization error.

Every operator built here is diagonal in frequency and acts on the 4^n
refined types by a fixed map (the Hodge star also negates frequencies).
Its multiplier for a pair of refined types is a polynomial in the
frequency coordinates z_j = freq_cx[:, j] and their conjugates, so an
operator is stored as scalar coefficients over such monomials, one
polynomial per pair of types (see OperatorMatrix).  Sums, products and
adjoints then change scalars only; arrays over the frequencies are formed
where a number is read (norms, the Laplacian's diagonal, applying an
operator), and only for the operator's distinct polynomials.  Norms and the
Laplacian's diagonal are reduced one block of at most _BLOCK frequencies at
a time, so no array spans all frequencies times all refined types.  The
Laplacian is a diagonal multiplier, and its kernel is where that
multiplier vanishes.

This module deliberately works in IEEE double precision (numpy); its
acceptance tolerances are stated for that regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InputError

_BLOCK = 4096  # frequencies per block of a reduction over the frequencies

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
        return np.array([_slot_factor(self.torus.weights, alpha, beta, vol)
                         for alpha, beta in self.types])

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


def _slot_factor(weights, alpha, beta, start=1.0) -> float:
    """start times 2 / w_j for each set slot of alpha and of beta: the
    squared length of dz_j and of dzbar_j is 2 / w_j."""
    return math.prod((2.0 / w for w, a, b in zip(weights, alpha, beta) for bit in (a, b) if bit),
                     start=start)


@dataclass
class OperatorMatrix:
    """Operator on a Fourier form space, stored by refined type as
    scalar coefficients over frequency monomials.

    blocks[(dst, src)], for type indices dst and src, is a polynomial
    {exponents: coefficient} in the frequency coordinates: exponents has
    length 2n, exponents[j] is the power of z_j = freq_cx[:, j] and
    exponents[n + j] that of its conjugate.  The operator sends the basis
    element of type src at frequency m to the polynomial's value at m
    times the one of type dst at the same frequency.  Absent pairs are
    zero.  +, -, scalar *, @ (composition) and adjoint change coefficients
    only; multipliers() forms the arrays, and _frequency_blocks the
    monomials one block of frequencies at a time.  A conjugate-linear
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
                acc[e] = acc.get(e, 0) + c
        return OperatorMatrix(self.space, blocks, conjugates_argument=self.conjugates_argument)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "OperatorMatrix":
        blocks = {key: {e: scalar * c for e, c in p.items()} for key, p in self.blocks.items()}
        return OperatorMatrix(self.space, blocks, conjugates_argument=self.conjugates_argument)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composition: (self @ other) applies other first."""
        if self.conjugates_argument or other.conjugates_argument:
            raise InputError("composition is defined for linear operators only")
        by_src = {}
        for (dst, mid), a in self.blocks.items():
            by_src.setdefault(mid, []).append((dst, a))
        blocks = {}
        for (mid, src), b in other.blocks.items():
            for dst, a in by_src.get(mid, ()):
                acc = blocks.setdefault((dst, src), {})
                for ea, ca in a.items():
                    for eb, cb in b.items():
                        e = tuple(x + y for x, y in zip(ea, eb))
                        acc[e] = acc.get(e, 0) + ca * cb
        return OperatorMatrix(self.space, blocks)

    def multipliers(self):
        """(arrays, column): the multiplier of block key over the
        frequencies is arrays[:, column[key]], one column per distinct
        polynomial (see _polynomials)."""
        monos, coeffs, column = _polynomials(self.blocks)
        arrays = np.empty((self.space.freq_count, coeffs.shape[1]), dtype=np.complex128)
        for rows, block in _frequency_blocks(self.space):
            arrays[rows] = block.monomials(monos) @ coeffs
        return arrays, column


def _polynomials(blocks: dict):
    """(monos, coeffs, column) for the blocks {key: polynomial}: the
    monomials of the distinct polynomials, their coefficients (one row per
    monomial, one column per distinct polynomial) and the column of each
    key.  Blocks with equal coefficients share a column, so each distinct
    multiplier is evaluated once."""
    distinct, column = {}, {}
    for key, p in blocks.items():
        column[key] = distinct.setdefault(tuple(sorted(p.items())), len(distinct))
    monos = sorted({e for p in distinct for e, _ in p})
    row = {e: i for i, e in enumerate(monos)}
    coeffs = np.zeros((len(monos), len(distinct)), dtype=np.complex128)
    for col, p in enumerate(distinct):
        for e, c in p:
            coeffs[row[e], col] = c
    return monos, coeffs, column


def _frequency_blocks(space: FourierFormSpace):
    """Yield (rows, block) over consecutive runs of at most _BLOCK
    frequencies; block.monomials(monos) @ coeffs are the multipliers at
    the frequencies rows (see _polynomials)."""
    for start in range(0, space.freq_count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        yield rows, _FrequencyBlock(space, rows)


class _FrequencyBlock:
    """Monomials at a run of frequencies, each formed once, from its
    quotient by the last variable it contains."""

    def __init__(self, space: FourierFormSpace, rows: slice):
        z = space.freq_cx[rows].T
        self.variables = np.concatenate([z, np.conj(z)])  # z_j, then conj(z_j)
        self.known = {space.one: np.ones(self.variables.shape[1], dtype=np.complex128)}

    def power_product(self, e: tuple) -> np.ndarray:
        arr = self.known.get(e)
        if arr is None:
            k = max(i for i, p in enumerate(e) if p)
            arr = self.power_product(e[:k] + (e[k] - 1,) + e[k + 1 :]) * self.variables[k]
            self.known[e] = arr
        return arr

    def monomials(self, monos) -> np.ndarray:
        """(rows, len(monos)) array of the monomials monos (exponent
        tuples, see OperatorMatrix)."""
        out = np.empty((self.variables.shape[1], len(monos)), dtype=np.complex128)
        for i, e in enumerate(monos):
            out[:, i] = self.power_product(e)
        return out


def build_space(torus: FlatTorus, truncation: int) -> FourierFormSpace:
    return FourierFormSpace(torus, truncation)


def _raise_sign(bits, j0) -> int:
    return -1 if sum(bits[:j0]) % 2 else 1


def _type_shift_operator(space, j0, kind) -> dict:
    """Blocks of a slot-raising operator; kind selects multiplier and slot."""
    if kind == "xi":
        mono, coeff = space.variable(space.torus.n + j0), math.pi * 1j
    elif kind == "xi_bar":
        mono, coeff = space.variable(j0), math.pi * 1j
    else:  # e
        mono, coeff = space.one, 1.0 + 0.0j
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
        blocks[(t2, t)] = {mono: sign * coeff}
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
    return {(t, t): {space.variable(k): math.pi * 1j} for t in range(space.type_count)}


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
    conjugated and scaled, and z_j and conj(z_j) swap places."""
    if op.conjugates_argument:
        raise InputError("adjoint is defined for linear operators only")
    G = op.space.gram.tolist()
    n = op.space.torus.n
    blocks = {(src, dst): {e[n:] + e[:n]: c.conjugate() * (G[dst] / G[src])
                           for e, c in p.items()}
              for (dst, src), p in op.blocks.items()}
    return OperatorMatrix(op.space, blocks, op.name + "*")


def laplacian(op: OperatorMatrix) -> OperatorMatrix:
    a = adjoint(op)
    return replace(op @ a + a @ op, name=f"Delta_{op.name}")


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
    result is type-block-diagonal by construction.  The measured maximum
    of the cross terms (floating-point noise only) is cached as
    `laplacian_cross_max` and re-checked by verify_laplacian_sum.  For
    the harmonic mask, `laplacian_diag` caches (absdiag, column, norm):
    the absolute values of the distinct diagonal multipliers,
    (freq_count, number of distinct ones), the column of absdiag that
    holds type t's multiplier at column[t], and their maximum (the
    operator norm).  They are formed one block of frequencies at a time.
    """
    key = "laplacian_d"
    if key in space._cache:
        return space._cache[key]
    comps = _components(space)
    adjs = [adjoint(c) for c in comps]
    total = _sum((c @ a + a @ c for c, a in zip(comps, adjs)), "Delta_d")
    cross_max = _maxabs(*(comps[i] @ adjs[j] + adjs[j] @ comps[i]
                          for i, j in itertools.permutations(range(len(comps)), 2)))
    monos, coeffs, column = _polynomials(total.blocks)
    diag = sorted({column[(t, t)] for t in range(space.type_count)})
    type_column = np.array([diag.index(column[(t, t)]) for t in range(space.type_count)])
    absdiag = np.empty((space.freq_count, len(diag)))
    for rows, block in _frequency_blocks(space):
        absdiag[rows] = np.abs(block.monomials(monos) @ coeffs[:, diag])
    norm = float(absdiag.max())  # the largest absolute row sum of a diagonal operator
    if cross_max > 1e-10 * max(1.0, norm):
        raise DegenerateInputError("Laplacian cross terms failed to anticommute")
    space._cache[key] = total
    space._cache["laplacian_cross_max"] = cross_max
    space._cache["laplacian_diag"] = (absdiag, type_column, norm)
    return total


def _maxabs(*ops: OperatorMatrix) -> float:
    """Largest absolute entry of the operators, which share one space;
    each block of frequencies forms their monomials once."""
    polynomials = [_polynomials(op.blocks)[:2] for op in ops]
    return max((float(np.abs(block.monomials(monos) @ coeffs).max(initial=0.0))
                for _, block in _frequency_blocks(ops[0].space)
                for monos, coeffs in polynomials), default=0.0)


def _infnorm(op: OperatorMatrix) -> float:
    """Largest absolute row sum.  The row sum of type dst adds the
    absolute multipliers of the blocks (dst, src), so it is the product of
    the absolute multipliers with column dst of a count matrix; types with
    equal count columns have equal row sums, and only the distinct columns
    are multiplied."""
    monos, coeffs, column = _polynomials(op.blocks)
    counts = np.zeros((coeffs.shape[1], op.space.type_count))
    for (dst, _), col in column.items():
        counts[col, dst] += 1
    counts = np.unique(counts, axis=1)
    return max((float((np.abs(block.monomials(monos) @ coeffs) @ counts).max(initial=0.0))
                for _, block in _frequency_blocks(op.space)), default=0.0)


@dataclass(frozen=True)
class ResidualReport:
    identity: str
    max_residual: float
    dims: dict
    passed: bool


def verify_refined_identities(space: FourierFormSpace, tol: float = 1e-10) -> ResidualReport:
    """Max operator-norm residual of xi_j xi_k* + xi_k* xi_j over all
    j != k."""
    n = space.torus.n
    xis = [xi_operator(space, j + 1) for j in range(n)]
    adjs = [adjoint(x) for x in xis]
    worst = 0.0
    for j, k in itertools.permutations(range(n), 2):
        worst = max(worst, _infnorm(xis[j] @ adjs[k] + adjs[k] @ xis[j]))
    dims = {"dim": space.dim, "n": n, "truncation": space.truncation}
    return ResidualReport("anticommutators", worst, dims, worst < tol)


@dataclass(frozen=True)
class LaplacianReport:
    sum_residual: float          # || Delta_d - 2 sum_j Delta_{xi_j} ||
    dolbeault_residual: float    # || Delta_d - 2 Delta_del ||
    half_sum_residual: float     # || Delta_d - (1/2) sum_j Delta_{xi_j} ||, reported only
    cross_term_max: float        # largest off-diagonal anticommutator entry
    block_diagonal_exact: bool
    dims: dict
    passed: bool


def verify_laplacian_sum(space: FourierFormSpace, tol: float = 1e-10) -> LaplacianReport:
    """Check the Laplacian decomposition: Delta_d = 2 sum_j Delta_{xi_j}
    and Delta_d = 2 Delta_del, plus type-block diagonality (exact for
    the assembled Laplacian).

    The residual of the half-coefficient variant is measured and
    reported but is not part of the pass verdict: Delta_del equals the
    sum of the xi-Laplacians, so the two asserted identities pin the
    coefficient at 2.
    """
    dd = laplacian_d(space)
    cross_max = space._cache.get("laplacian_cross_max", 0.0)
    s = _sum(xi_laplacians(space), "sum_j Delta_xi_j")
    sum_res = _infnorm(dd - 2 * s)
    half_res = _infnorm(dd - 0.5 * s)
    dol_res = _infnorm(dd - 2 * laplacian(del_operator(space)))
    block_ok = all(c == 0 for (dst, src), p in dd.blocks.items() if dst != src
                   for c in p.values())
    dims = {"dim": space.dim, "n": space.torus.n, "truncation": space.truncation}
    passed = bool(sum_res < tol and dol_res < tol and cross_max < tol and block_ok)
    return LaplacianReport(sum_res, dol_res, half_res, cross_max, block_ok, dims, passed)


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


def _harmonic_mask(space: FourierFormSpace, tol: float = 1e-9):
    """(mask, column): mask[:, column[t]] marks the frequencies where the
    Laplacian's diagonal multiplier on type t is at most tol times its
    norm (at least 1); mask has one column per distinct multiplier."""
    laplacian_d(space)
    absdiag, column, norm = space._cache["laplacian_diag"]
    return absdiag <= tol * max(1.0, norm), column


def harmonic_space(space: FourierFormSpace, alpha, beta, tol: float = 1e-9) -> HarmonicBasis:
    """Kernel of the Hodge Laplacian on forms of one refined type."""
    alpha, beta = tuple(alpha), tuple(beta)
    if (alpha, beta) not in space.type_index:
        raise InputError("unknown refined type")
    t = space.type_index[(alpha, beta)]
    mask, column = _harmonic_mask(space, tol)
    kernel = np.nonzero(mask[:, column[t]])[0]
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
        c_b = _slot_factor(weights, alpha, beta) * vol_coeff * _perm_sign(slots + cslots)
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
    mask, column = _harmonic_mask(space)
    return np.where(mask[:, column].ravel(), psi, 0)


def extract_plectic_structure(space: FourierFormSpace, degree: int):
    """Plectic structure on the degree-k integral cohomology whose pieces
    are the computed harmonic spaces."""
    from . import cxlinalg as cx
    from .hodge import Bidegree, PlecticHodgeStructure, validate
    from .lattices import Lattice

    n = space.torus.n
    if not 0 <= degree <= 2 * n:
        raise InputError("degree out of range")
    subsets = list(itertools.combinations(range(2 * n), degree))
    rank = len(subsets)
    gens = []
    for j, (w1, w2) in enumerate(space.torus.factors):
        gens.append((j, complex(w1)))
        gens.append((j, complex(w2)))
    pieces = {}
    total = 0
    for (alpha, beta) in space.types:
        if sum(alpha) + sum(beta) != degree:
            continue
        hb = harmonic_space(space, alpha, beta)
        total += hb.dim
        if hb.dim == 0:
            continue
        m0 = _zero_freq_index(space)
        slot_rows = _slot_rows(alpha, beta, gens, n)
        cols = []
        for c in range(hb.dim):
            coef = hb.coefficients[m0, c]
            vec = [coef * _minor(slot_rows, subset) for subset in subsets]
            cols.append(vec)
        basis = cx.mpm([[cols[c][r] for c in range(hb.dim)] for r in range(rank)])
        pieces[Bidegree(alpha, beta)] = basis
    expected = math.comb(2 * n, degree)
    if total != expected:
        raise DegenerateInputError(
            f"harmonic rank {total} does not match the exterior-algebra count {expected}"
        )
    phs = PlecticHodgeStructure(n, Lattice.standard(rank), pieces)
    report = validate(phs, tol=1e-7)
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
            rows.append([lam if fj == j else 0.0 for (fj, lam) in gens])
    for j in range(n):
        if beta[j]:
            rows.append([np.conj(lam) if fj == j else 0.0 for (fj, lam) in gens])
    return rows


def _minor(rows, subset):
    k = len(rows)
    if k == 0:
        return 1.0 + 0.0j
    m = np.array([[row[i] for i in subset] for row in rows], dtype=np.complex128)
    return complex(np.linalg.det(m))
