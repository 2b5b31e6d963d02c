import random

import mpmath as mp
import pytest

from conftest import classical_aj
from plectic.abeljacobi import (
    PlecticCycle,
    QuotientDatum,
    abel_jacobi,
    functional,
    iterated_integral,
    period_lattice,
    relift,
    theorem_b_harness,
)
from plectic.config import default_tolerance, working_precision
from plectic.errors import DegenerateInputError, InputError
from plectic.hodge import plectic_jacobian
from plectic.tori import dual_torus, tori_isomorphic

SQ = (1, mp.mpc(0, 1))
GEN1 = (1, mp.mpc("0.3", "1.7"))
GEN2 = (1, mp.mpc("-0.2", "0.9"))


def _generators(lat):
    """The period columns of the Abel-Jacobi target, one per loop choice."""
    return [tuple(lat.periods[i, k] for i in range(lat.g)) for k in range(2 * lat.g)]


def test_iterated_integral_closed_forms():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(1 + 1j, 0), (1j, 0)])
    with working_precision():
        assert abs(iterated_integral(d, c, (0, 1)) - (1 - 1j)) < mp.mpf("1e-30")
        assert abs(iterated_integral(d, c, (0, 0)) - (1 + 1j) * 1j) < mp.mpf("1e-30")


def test_iterated_integral_empty_path():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(0.7 + 0.2j, 0.7 + 0.2j), (1j, 0)])
    assert iterated_integral(d, c, (0, 0)) == 0


def test_iterated_integral_n1_fundamental_theorem():
    d = QuotientDatum((GEN1,))
    c = PlecticCycle.elementary([(2 + 1j, 0.5)])
    with working_precision():
        assert abs(iterated_integral(d, c, (0,)) - (1.5 + 1j)) < mp.mpf("1e-30")


def test_period_lattice_n1_classical():
    lat = period_lattice(QuotientDatum((GEN1,)), 1)
    assert len(_generators(lat)) == 2
    vals = {complex(g[0]) for g in _generators(lat)}
    assert any(abs(v - 1) < 1e-30 for v in vals)
    assert any(abs(v - complex(GEN1[1])) < 1e-30 for v in vals)


def test_period_lattice_n2_rank_four():
    lat = period_lattice(QuotientDatum((SQ, SQ)), 1)
    assert 2 * lat.g == 4
    coords = {tuple(complex(x) for x in g) for g in _generators(lat)}
    assert (1 + 0j, 1 + 0j) in coords
    assert (1j, -1j) in coords  # (mu1 mu2, mu1 conj(mu2)) with mu2 = i


def test_period_lattice_scaling():
    d1 = QuotientDatum((SQ, SQ))
    d2 = QuotientDatum((SQ, (2, mp.mpc(0, 2))))
    l1 = period_lattice(d1, 1)
    l2 = period_lattice(d2, 1)
    with working_precision():
        s1 = sorted(abs(x) for g in _generators(l1) for x in g)
        s2 = sorted(abs(x) for g in _generators(l2) for x in g)
        assert all(abs(2 * a - b) < mp.mpf("1e-30") for a, b in zip(s1, s2))


def test_degenerate_period_lattice_raises():
    with pytest.raises(InputError):
        QuotientDatum(((1, 2),))  # collinear generators


def _scaled_datum_and_cycle(s):
    with working_precision():
        s = mp.mpf(s)
        w = (s, mp.mpc("0.3", "1.1") * s)
        lifts = [(mp.mpc("0.3", "0.7") * s, mp.mpc("0.1", "0") * s),
                 (mp.mpc("0", "0.2") * s, mp.mpc("0.5", "0") * s),
                 (mp.mpc("0.4", "0.4") * s, 0)]
        return QuotientDatum((w, w, w)), PlecticCycle.elementary(lifts)


def test_period_lattice_rank_does_not_depend_on_scale():
    """The rank test is the scale-free Hadamard ratio, so shrinking every
    period by the same factor changes neither the rank nor any verdict."""
    seen = set()
    for s in ("0.01", "0.1", "1", "10"):
        d, c = _scaled_datum_and_cycle(s)
        rep = theorem_b_harness(d, c, 1, 5, 11)
        seen.add((2 * period_lattice(d, 1).g, rep.diagonal.memberships,
                  rep.factorwise.memberships))
    assert seen == {(8, (True,) * 5, (False,) * 5)}


def test_nearly_collinear_factor_is_rank_deficient():
    with working_precision():
        skew = (1, mp.mpc(1, mp.ldexp(1, -80)))  # Im(w2 / w1) = 2^-80, not 0
    for factors in ((skew,), (SQ, SQ, skew)):
        with pytest.raises(DegenerateInputError, match="rank deficient"):
            period_lattice(QuotientDatum(factors), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_target_reduce_is_babai_rounding(n):
    """The target's reduce rounds the lattice coordinates of [Re; Im] to
    the integers that an independent mpmath solve gives, and the reduced
    point differs from the input by that combination of period columns."""
    rng = random.Random(n)
    with working_precision():
        factors = tuple((1, mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6)))
                        for _ in range(n))
    lat = period_lattice(QuotientDatum(factors), 1)
    with working_precision():
        P = lat.real_matrix()
        for _ in range(10):
            coords = tuple(mp.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(lat.g))
            red, ints, dist = lat.reduce(coords)
            x = mp.lu_solve(P, mp.matrix([mp.re(v) for v in coords] + [mp.im(v) for v in coords]))
            assert ints == tuple(int(mp.nint(x[k])) for k in range(2 * lat.g))
            for i in range(lat.g):
                comb = mp.fsum(c * lat.periods[i, k] for k, c in enumerate(ints))
                assert abs(coords[i] - red[i] - comb) < mp.mpf(2) ** -110
            assert dist == mp.sqrt(mp.fsum(abs(v) ** 2 for v in red))


@pytest.mark.parametrize("nu", [1, 2])
def test_target_is_isomorphic_to_the_plectic_jacobian(nu):
    """At n = 2 the Abel-Jacobi target and the plectic Jacobian are both
    ComplexTorus, and tori_isomorphic finds an isomorphism from the target
    to J and to its dual."""
    with working_precision():
        d = QuotientDatum(((1, mp.mpc("0.3", "1.1")), (1, mp.mpc("-0.2", "0.9"))))
    target = period_lattice(d, nu)
    J = plectic_jacobian(d.structure(), nu)
    for other in (J, dual_torus(J)):
        found, _, _, resid = tori_isomorphic(target, other)
        assert found and resid < mp.mpf("1e-30")


def test_abel_jacobi_matches_classical():
    d = QuotientDatum((GEN1,))
    rng = random.Random(9)
    with working_precision():
        for _ in range(30):
            x = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            pt = abel_jacobi(d, PlecticCycle.elementary([(x, y)]), 1)
            assert abs(pt.reduced[0] - classical_aj(GEN1, x, y)) < mp.mpf("1e-30")


def test_abel_jacobi_zero_cycle():
    d = QuotientDatum((GEN1, GEN2))
    c = PlecticCycle.elementary([(0.25 + 0.5j, 0.25 + 0.5j), (1j, 0)])
    pt = abel_jacobi(d, c, 1)
    assert all(v == 0 for v in pt.functional.coordinates)


def test_abel_jacobi_product_formula_before_reduction():
    d = QuotientDatum((GEN1, GEN2))
    x1, y1 = mp.mpc("0.2", "0.1"), mp.mpc("0.05", "0.02")
    x2, y2 = mp.mpc("0.1", "0.3"), mp.mpc("0.0", "0.1")
    c = PlecticCycle.elementary([(x1, y1), (x2, y2)])
    phi = functional(d, c, 1)
    with working_precision():
        d1, d2 = x1 - y1, x2 - y2
        assert abs(phi.coordinates[0] - d1 * d2) < mp.mpf("1e-30")
        assert abs(phi.coordinates[1] - d1 * mp.conj(d2)) < mp.mpf("1e-30")


def test_abel_jacobi_additive():
    d = QuotientDatum((GEN1, GEN2))
    c1 = PlecticCycle.elementary([(0.3 + 0.7j, 0.1), (0.2j, 0.5)])
    c2 = PlecticCycle.elementary([(1.2 - 0.3j, 0.4j), (0.9, 0.1 + 0.1j)])
    with working_precision():
        f1 = functional(d, c1, 1).coordinates
        f2 = functional(d, c2, 1).coordinates
        f12 = functional(d, PlecticCycle(c1.terms + c2.terms), 1).coordinates
        assert all(abs(a + b - c) < mp.mpf(2) ** -100 for a, b, c in zip(f1, f2, f12))


def test_classical_aj_trivials():
    assert classical_aj(SQ, 0.5, 0.5) == 0
    with working_precision():
        assert abs(classical_aj(SQ, 1 + 1j, 0)) < mp.mpf("1e-30")
        got = classical_aj(SQ, (1 + 1j) / 2, 0)
        assert abs(got - (0.5 + 0.5j)) < mp.mpf("1e-30")


def test_diagonal_relift_exact_functional_invariance():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(0.3 + 0.7j, 0.1), (0.2j, 0.5)])
    with working_precision():
        base = functional(d, c, 1).coordinates
        for seed in range(5):
            c2 = relift(c, d, "diagonal", seed)
            f2 = functional(d, c2, 1).coordinates
            assert all(abs(a - b) < mp.mpf(2) ** -90 for a, b in zip(base, f2))


def test_factorwise_relift_same_image():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(0.3 + 0.7j, 0.1), (0.2j, 0.5)])
    c2 = relift(c, d, "factorwise", 3)
    diffs = 0
    with working_precision():
        for (x1, y1), (x2, y2) in zip(c.terms[0][1], c2.terms[0][1]):
            for a, b in ((x1, x2), (y1, y2)):
                delta = b - a
                if abs(delta) > mp.mpf("1e-30"):
                    diffs += 1
                    # the shift is a lattice vector of the square lattice
                    assert abs(mp.re(delta) - mp.nint(mp.re(delta))) < mp.mpf("1e-30")
                    assert abs(mp.im(delta) - mp.nint(mp.im(delta))) < mp.mpf("1e-30")
    assert diffs == 1  # exactly one lift entry moved


def test_relift_mode_validation():
    d = QuotientDatum((SQ,))
    c = PlecticCycle.elementary([(0.5, 0)])
    with pytest.raises(InputError):
        relift(c, d, "sideways", 0)


def test_harness_n1_memberships():
    d = QuotientDatum((GEN1,))
    c = PlecticCycle.elementary([(0.3 + 0.7j, 0.1)])
    rep = theorem_b_harness(d, c, 1, 20, 42, tol=1e-10)
    assert rep.diagonal.membership_failures == 0
    assert rep.diagonal.max_residual < 1e-10
    assert rep.factorwise.membership_failures == 0
    assert rep.factorwise.max_residual < 1e-10


def test_harness_n2_reports_experimental():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(0.3 + 0.7j, 0.1), (0.2j, 0.5)])
    rep = theorem_b_harness(d, c, 1, 10, 7, tol=1e-10)
    assert rep.diagonal.membership_failures == 0
    assert rep.factorwise.trials == 10
    assert len(rep.factorwise.memberships) == 10  # verdicts recorded, not asserted


def test_harness_deterministic():
    d = QuotientDatum((SQ, SQ))
    c = PlecticCycle.elementary([(0.3 + 0.7j, 0.1), (0.2j, 0.5)])
    r1 = theorem_b_harness(d, c, 1, 8, 123, tol=1e-10)
    r2 = theorem_b_harness(d, c, 1, 8, 123, tol=1e-10)
    assert r1 == r2
