"""Plectic zero-cycles on products of elliptic curves and their
Abel-Jacobi images.

Cycles store explicit lifts (the iterated integral is defined on lifts;
the quotient image is derived data).  On translation quotients every
basis form is a constant product of dz's and dzbar's, so all integrals
are closed-form products.  The Abel-Jacobi target is a complex torus
(`tori.ComplexTorus`) whose period columns integrate the basis forms over
the product loops, and a point is reduced by that torus's Babai rounding.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import mpmath as mp

from .config import resolve_tolerance, working_precision
from .errors import DegenerateInputError, InputError
from .hodge import PlecticHodgeStructure, elliptic_h1, tensor
from .tori import ComplexTorus

__all__ = [
    "QuotientDatum",
    "PlecticCycle",
    "PeriodFunctional",
    "AbelJacobiPoint",
    "iterated_integral",
    "period_lattice",
    "abel_jacobi",
    "relift",
    "theorem_b_harness",
    "HarnessReport",
]


@dataclass(frozen=True)
class QuotientDatum:
    """Product of rank-two translation lattices in C, together with the
    tensor plectic structure of the quotient tori."""

    factors: tuple  # ((w1, w2) per factor)

    def __post_init__(self):
        for w1, w2 in self.factors:
            w1, w2 = mp.mpmathify(w1), mp.mpmathify(w2)
            if mp.im(w2 * mp.conj(w1)) == 0:  # Im(w2 / w1) = 0, or w1 = 0
                raise InputError("factor lattice generators are collinear")

    @property
    def n(self) -> int:
        return len(self.factors)

    def structure(self) -> PlecticHodgeStructure:
        out = None
        for w1, w2 in self.factors:
            h = elliptic_h1(w1, w2)
            out = h if out is None else tensor(out, h)
        return out

    def form_indices(self, nu: int):
        """F^{1_nu} basis forms, as beta-tuples (dzbar slots), beta_nu = 0."""
        if not 1 <= nu <= self.n:
            raise InputError("nu out of range")
        return [
            beta
            for beta in itertools.product((0, 1), repeat=self.n)
            if beta[nu - 1] == 0
        ]


@dataclass(frozen=True)
class PlecticCycle:
    """Formal sum of elementary tensors of degree-zero divisors, stored
    through one lift pair (x, y) per factor and term."""

    terms: tuple  # (coeff, ((x_1, y_1), ..., (x_n, y_n)))

    def __post_init__(self):
        if not self.terms:
            raise InputError("cycle needs at least one term")
        width = len(self.terms[0][1])
        for coeff, lifts in self.terms:
            if len(lifts) != width:
                raise InputError("terms must agree on the number of factors")
            int(coeff)

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    @classmethod
    def elementary(cls, lifts) -> "PlecticCycle":
        return cls(((1, tuple((mp.mpmathify(x), mp.mpmathify(y)) for x, y in lifts)),))


@dataclass(frozen=True)
class PeriodFunctional:
    """Linear functional on the chosen F^{1_nu} basis, one complex
    coordinate per basis form."""

    nu: int
    coordinates: tuple


def iterated_integral(d: QuotientDatum, c: PlecticCycle, beta) -> mp.mpc:
    """Integral of the constant product form indexed by beta over the
    cycle: per factor x - y (dz slots) or its conjugate (dzbar slots),
    multiplied out and summed over terms."""
    beta = tuple(beta)
    if len(beta) != d.n or c.n != d.n:
        raise InputError("form index or cycle width mismatch")
    with working_precision():
        total = mp.mpc(0)
        for coeff, lifts in c.terms:
            prod = mp.mpc(int(coeff))
            for b, (x, y) in zip(beta, lifts):
                dz = mp.mpmathify(x) - mp.mpmathify(y)
                prod *= dz if b == 0 else mp.conj(dz)
            total += prod
        return total


def functional(d: QuotientDatum, c: PlecticCycle, nu: int) -> PeriodFunctional:
    coords = tuple(iterated_integral(d, c, beta) for beta in d.form_indices(nu))
    return PeriodFunctional(nu, coords)


def period_lattice(d: QuotientDatum, nu: int) -> ComplexTorus:
    """Lattice of functionals integrating the F^{1_nu} basis over the
    product cycles built from one lattice loop per factor, as a torus of
    dimension 2^(n-1): column k of its periods is the generator of the k-th
    loop choice in {0, 1}^n.  Mixed cycles supported on fewer factors
    vanish on product forms and are omitted.  Rank deficient when the
    generators do not span at the default tolerance (`ComplexTorus`)."""
    betas = d.form_indices(nu)
    choices = list(itertools.product((0, 1), repeat=d.n))
    periods = mp.matrix(len(betas), len(choices))
    with working_precision():
        for k, choice in enumerate(choices):
            mus = [mp.mpmathify(d.factors[j][choice[j]]) for j in range(d.n)]
            for i, beta in enumerate(betas):
                val = mp.mpc(1)
                for j in range(d.n):
                    val *= mus[j] if beta[j] == 0 else mp.conj(mus[j])
                periods[i, k] = val
    try:
        return ComplexTorus(len(betas), periods)
    except DegenerateInputError:
        raise DegenerateInputError("period lattice is rank deficient") from None


@dataclass(frozen=True)
class AbelJacobiPoint:
    functional: PeriodFunctional
    reduced: tuple          # representative of the class modulo periods
    lattice_coords: tuple   # integer combination subtracted


def abel_jacobi(d: QuotientDatum, c: PlecticCycle, nu: int) -> AbelJacobiPoint:
    """Period functional of the cycle, reduced modulo the period lattice."""
    phi = functional(d, c, nu)
    lat = period_lattice(d, nu)
    red, ints, _ = lat.reduce(phi.coordinates)
    return AbelJacobiPoint(phi, red, ints)


def relift(c: PlecticCycle, d: QuotientDatum, mode: str, seed: int) -> PlecticCycle:
    """Replace lifts without changing the image cycle on the quotient.

    diagonal: translate every factor entry of one term by one group
    element (a lattice vector per factor).  factorwise: translate a
    single lift entry of a single factor by a lattice vector, which
    changes the chosen divisor representative but not its image.
    """
    rng = random.Random(seed)
    terms = [list(t) for t in c.terms]
    idx = rng.randrange(len(terms))
    coeff, lifts = terms[idx]
    lifts = [list(p) for p in lifts]
    with working_precision():
        if mode == "diagonal":
            for j in range(d.n):
                gamma = _random_lattice_vector(rng, d.factors[j])
                lifts[j][0] = lifts[j][0] + gamma
                lifts[j][1] = lifts[j][1] + gamma
        elif mode == "factorwise":
            j = rng.randrange(d.n)
            entry = rng.randrange(2)
            lam = _random_lattice_vector(rng, d.factors[j], nonzero=True)
            lifts[j][entry] = lifts[j][entry] + lam
        else:
            raise InputError("mode must be 'diagonal' or 'factorwise'")
    terms[idx] = (coeff, tuple(tuple(p) for p in lifts))
    return PlecticCycle(tuple((co, li) for co, li in terms))


def _random_lattice_vector(rng, factor, nonzero: bool = False):
    w1, w2 = mp.mpmathify(factor[0]), mp.mpmathify(factor[1])
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if nonzero and a == 0 and b == 0:
            continue
        return a * w1 + b * w2


@dataclass(frozen=True)
class ModeReport:
    mode: str
    trials: int
    max_residual: float
    memberships: tuple
    membership_failures: int


@dataclass(frozen=True)
class HarnessReport:
    nu: int
    seed: int
    diagonal: ModeReport
    factorwise: ModeReport


def theorem_b_harness(d: QuotientDatum, c: PlecticCycle, nu: int,
                      trials: int, seed: int, tol=None) -> HarnessReport:
    """Relift the cycle in both modes and measure how far the difference
    of the two functionals is from the period lattice.

    The harness measures, it does not assert: diagonal relifts leave the
    integrand invariant so their residual is floating-point noise, while
    factorwise relifts produce kernel-class representatives whose
    lattice membership is exactly the experimental question (guaranteed
    by classical theory only for a single factor).
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    tol = resolve_tolerance(tol)
    lat = period_lattice(d, nu)
    base = functional(d, c, nu)
    reports = {}
    with working_precision():
        for mode in ("diagonal", "factorwise"):
            worst = mp.mpf(0)
            verdicts = []
            for t in range(trials):
                c2 = relift(c, d, mode, seed + 1000003 * t + (0 if mode == "diagonal" else 1))
                phi2 = functional(d, c2, nu)
                diff = tuple(a - b for a, b in zip(phi2.coordinates, base.coordinates))
                if mode == "diagonal":
                    resid = mp.sqrt(mp.fsum(abs(v) ** 2 for v in diff))
                else:
                    _, _, resid = lat.reduce(diff)
                worst = max(worst, resid)
                verdicts.append(bool(resid < tol))
            reports[mode] = ModeReport(mode, trials, float(worst), tuple(verdicts),
                                       sum(1 for v in verdicts if not v))
    return HarnessReport(nu, seed, reports["diagonal"], reports["factorwise"])
