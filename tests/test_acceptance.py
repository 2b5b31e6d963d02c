"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured quantities.  Tolerances are pinned here and do
not move."""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from conftest import classical_aj
from plectic import cxlinalg as cx
from plectic.abeljacobi import (
    PlecticCycle,
    QuotientDatum,
    abel_jacobi,
    theorem_b_harness,
)
from plectic.config import working_precision
from plectic.flat import (
    FlatTorus,
    build_space,
    harmonic_space,
    verify_laplacian_sum,
    verify_refined_identities,
)
from plectic.hodge import elliptic_h1, plectic_jacobian, tensor, validate
from plectic.lattices import IntMatrix, smith_normal_form
from plectic.numberfields import FieldOrder, FractionalIdealRep
from plectic.shimura import StronglyPrimitiveDatum, character_decompose
from plectic.tori import (
    ComplexTorus,
    algebraize_rm,
    construct_rm_torus,
    dual_torus,
    power_torus,
    tori_isomorphic,
)


def report(number, ok, description, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {verdict} - {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def test_criterion_1_refined_identities():
    rng = np.random.default_rng(20240811)
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        for N in (1, 2):
            for _ in range(5):
                weights = tuple(rng.uniform(0.5, 3.0, n))
                space = build_space(FlatTorus.square(n, weights), N)
                rep = verify_refined_identities(space)
                worst = max(worst, rep.max_residual)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    report(1, ok, "refined Hodge identities on n in {2,3}, N in {1,2}, 5 random weights",
           f"max residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_laplacian_decomposition():
    rng = np.random.default_rng(20240812)
    worst_sum = worst_dol = 0.0
    blocks_ok = True
    for n in (2, 3):
        for N in (1, 2):
            weights = tuple(rng.uniform(0.5, 3.0, n))
            space = build_space(FlatTorus.square(n, weights), N)
            rep = verify_laplacian_sum(space)
            worst_sum = max(worst_sum, rep.sum_residual)
            worst_dol = max(worst_dol, rep.dolbeault_residual)
            blocks_ok = blocks_ok and rep.block_diagonal_exact
    ok = worst_sum < 1e-10 and worst_dol < 1e-10 and blocks_ok
    report(2, ok, "Laplacian decomposition and exact block diagonality",
           f"sum residual {worst_sum:.3e}, Dolbeault residual {worst_dol:.3e}, "
           f"blocks exact {blocks_ok}")


def test_criterion_3_plectic_structure_extraction():
    taus = [mp.mpc("0.3", "1.7"), mp.mpc("-0.2", "0.9"), mp.mpc("0.1", "1.3")]
    worst_conj = mp.mpf(0)
    ok = True
    for n in (1, 2, 3):
        factors = tuple((1, complex(taus[j])) for j in range(n))
        space = build_space(FlatTorus(factors, (1.0,) * n), 1)
        for alpha in itertools.product((0, 1), repeat=n):
            for beta in itertools.product((0, 1), repeat=n):
                ok = ok and harmonic_space(space, alpha, beta).dim == 1
        from plectic.flat import extract_plectic_structure

        for k in range(0, 2 * n + 1):
            phs = extract_plectic_structure(space, k)
            ok = ok and phs.rank == math.comb(2 * n, k)
            rep = validate(phs, tol=1e-9)
            ok = ok and rep.passed
            worst_conj = max(worst_conj, rep.conjugation_residual)
    report(3, ok, "harmonic refined types on products of elliptic curves (n <= 3)",
           f"all dims 1, ranks binomial, conjugation residual {float(worst_conj):.3e}")


def test_criterion_4_product_formula():
    rng = random.Random(20240813)
    worst = mp.mpf(0)
    ok = True
    for trial in range(10):
        tau1 = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        tau2 = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        h = tensor(elliptic_h1(1, tau1), elliptic_h1(1, tau2))
        for j, tau in ((1, tau1), (2, tau2)):
            J = plectic_jacobian(h, j)
            E = ComplexTorus(1, cx.mpm([[1, tau]]))
            target = power_torus(dual_torus(E), 2)
            found, _, _, resid = tori_isomorphic(J, target)
            ok = ok and found and resid < mp.mpf("1e-9")
            worst = max(worst, resid)
    report(4, ok, "plectic Jacobian of a tensor product matches the dual-power model",
           f"10 random pairs, both indices, worst residual {float(worst):.3e}")


def test_criterion_5_algebraization_round_trip():
    t0 = time.monotonic()
    rng = random.Random(20240814)
    worst = mp.mpf(0)
    ok = True
    for D in (2, 5):
        field = FieldOrder.quadratic_maximal(D)
        for _ in range(20):
            z = [mp.mpc(rng.uniform(-1, 1), rng.uniform(0.4, 2.0)) for _ in range(2)]
            gen = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 3)))
            ideal = field.unit_ideal().scaled(gen)
            t = construct_rm_torus(field, z, ideal)
            res = algebraize_rm(t, t.rm)
            found, _, _, resid = tori_isomorphic(t, res.model)
            ok = ok and found and res.residual < mp.mpf("1e-9") and resid < mp.mpf("1e-9")
            worst = max(worst, res.residual, resid)
    # one non-principal ideal over Q(sqrt 10): class must be preserved
    O10 = FieldOrder.quadratic_maximal(10)
    P2 = FractionalIdealRep(O10, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    t = construct_rm_torus(O10, [mp.mpc("0.1", "1.3"), mp.mpc("0.2", "0.7")], P2)
    res = algebraize_rm(t, t.rm)
    class_ok = res.ideal.same_class(P2) and not res.ideal.same_class(O10.unit_ideal())
    ok = ok and class_ok and res.residual < mp.mpf("1e-9")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(5, ok, "algebraization round trips over Q(sqrt2), Q(sqrt5), Q(sqrt10)",
           f"40 principal + 1 nonprincipal, worst residual {float(worst):.3e}, "
           f"class preserved {class_ok}, {elapsed:.1f}s")


def test_criterion_6_character_dimensions():
    flip = IntMatrix.from_rows([[1, 0], [0, -1]])
    i2 = IntMatrix.identity(2)
    W = cx.kron(cx.mpm([[1], [mp.mpc(0, 1)]]), cx.mpm([[1], [mp.mpc(0, 1)]]))
    d = StronglyPrimitiveDatum(2, (flip.kron(i2), i2.kron(flip)), W)
    chars = character_decompose(d, 1)
    dims = sorted(basis.rows for basis in chars.values())
    ok = len(chars) == 2 and dims == [2, 2]
    report(6, ok, "character decomposition of the r=2, h=1 datum",
           f"{len(chars)} characters with ranks {dims} (exact integer kernels)")


def test_criterion_7_classical_limit():
    tau = mp.mpc("0.3", "1.7")
    d1 = QuotientDatum(((1, tau),))
    rng = random.Random(20240815)
    worst = mp.mpf(0)
    ok = True
    with working_precision():
        for _ in range(100):
            x = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            pt = abel_jacobi(d1, PlecticCycle.elementary([(x, y)]), 1)
            diff = abs(pt.reduced[0] - classical_aj((1, tau), x, y))
            worst = max(worst, diff)
            ok = ok and diff < mp.mpf("1e-10")
    diag_worst = 0.0
    for n in (1, 2, 3):
        dn = QuotientDatum(((1, mp.mpc(0, 1)),) * n)
        lifts = [(mp.mpc("0.31", "0.77") * (j + 1), mp.mpc("0.11", "0.05") * (j + 2))
                 for j in range(n)]
        rep = theorem_b_harness(dn, PlecticCycle.elementary(lifts), 1, 20, 99, tol=1e-10)
        diag_worst = max(diag_worst, rep.diagonal.max_residual)
        ok = ok and rep.diagonal.membership_failures == 0
    ok = ok and diag_worst < 1e-20
    report(7, ok, "n=1 Abel-Jacobi equals the classical map; diagonal relifts invariant",
           f"100 draws, worst residual {float(worst):.3e}; "
           f"diagonal noise (n<=3) {diag_worst:.3e}")


def test_criterion_8_theorem_b_harness():
    sq = (1, mp.mpc(0, 1))
    d2 = QuotientDatum((sq, sq))
    c2 = PlecticCycle.elementary([(mp.mpc("0.3", "0.7"), mp.mpc("0.1", "0")),
                                  (mp.mpc(0, "0.2"), mp.mpc("0.5", "0"))])
    rep_a = theorem_b_harness(d2, c2, 1, 100, 2024, tol=1e-10)
    rep_b = theorem_b_harness(d2, c2, 1, 100, 2024, tol=1e-10)
    deterministic = rep_a == rep_b
    emitted = (len(rep_a.factorwise.memberships) == 100
               and rep_a.factorwise.trials == 100)
    d1 = QuotientDatum(((1, mp.mpc("0.3", "1.7")),))
    c1 = PlecticCycle.elementary([(mp.mpc("0.3", "0.7"), mp.mpc("0.1", "0"))])
    rep1 = theorem_b_harness(d1, c1, 1, 100, 2024, tol=1e-10)
    n1_ok = (rep1.factorwise.membership_failures == 0
             and rep1.factorwise.max_residual < 1e-10)
    ok = deterministic and emitted and n1_ok and rep_a.diagonal.membership_failures == 0
    # the n=2 factorwise verdicts are experimental output, recorded only
    report(8, ok, "theorem-B harness: deterministic, verdicts emitted, n=1 membership",
           f"n=2 factorwise membership failures {rep_a.factorwise.membership_failures}"
           f"/100 (recorded, not asserted); n=1 worst {rep1.factorwise.max_residual:.3e}")


def test_criterion_9_snf_oracle_equivalence():
    from test_lattices import snf_invariants_oracle

    rng = random.Random(20240816)
    ok = True
    for _ in range(50):
        m = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(4)] for _ in range(4)]
        )
        _, D, _ = smith_normal_form(m)
        mine = [d for d in D.diagonal() if d != 0]
        oracle = snf_invariants_oracle(m.entries)
        ok = ok and mine == oracle
    report(9, ok, "Smith form agrees with the minor-gcd oracle on 50 random 4x4",
           "exact agreement of invariant factors")
