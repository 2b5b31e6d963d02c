import itertools
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plectic.tori as tori
from conftest import raw
from plectic import cxlinalg as cx
from plectic.config import set_precision, working_precision
from plectic.errors import InputError
from plectic.hodge import (
    H01,
    H10,
    PlecticHodgeStructure,
    elliptic_h1,
    jacobian_is_abelian_certificate,
    refine_to_classical,
    tensor,
)
from plectic.lattices import (
    IntMatrix,
    coefficient_shells,
    int_combination,
    kernel_integer,
    lll_reduce,
    row_lattice_basis,
    saturation,
    solve_integer,
    torsion_free_quotient,
)
from plectic.numberfields import FieldOrder, FractionalIdealRep, _generates_totally_real_field
from plectic.tori import (
    ComplexTorus,
    RMStructure,
    algebraize_rm,
    construct_rm_torus,
    detect_rm,
    dual_torus,
    endomorphisms,
    enlarge_to_maximal,
    hom_lattice,
    product_torus,
    steinitz_decompose,
    tori_isomorphic,
)
from test_polynomials import (
    RM_POLYS,
    blocks,
    companion,
    conjugate,
    doubled_companions,
    krylov_min_poly,
)


def elliptic(tau):
    return ComplexTorus(1, cx.mpm([[1, tau]]))


def test_complex_structure_reuses_the_construction_factorization():
    """complex_structure() solves with the LU that the span check formed:
    bit for bit the fresh solve at the construction precision, and at
    another precision the fresh solve of that precision."""
    with working_precision():
        t = ComplexTorus(2, cx.mpm([[1, 0, mp.mpc("0.3", "1.1"), mp.mpc("0.1", "0.2")],
                                    [0, 1, mp.mpc("0.2", "-0.1"), mp.mpc("-0.2", "0.9")]]))

    def fresh():
        with working_precision():
            P = t.real_matrix()
            J0 = mp.matrix(4, 4)
            J0[0, 2] = J0[1, 3] = -1
            J0[2, 0] = J0[3, 1] = 1
            return cx.solve(P, cx.matmul(J0, P))

    assert raw(t.complex_structure()) == raw(fresh())
    set_precision(256)
    try:
        assert raw(t.complex_structure()) == raw(fresh())
    finally:
        set_precision(128)


def test_dual_square_torus_self_dual():
    E = elliptic(mp.mpc(0, 1))
    ok, _, _, resid = tori_isomorphic(E, dual_torus(E))
    assert ok and resid < mp.mpf("1e-30")


def test_biduality_random():
    rng = random.Random(3)
    for _ in range(10):
        tau = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        E = elliptic(tau)
        ok, _, _, resid = tori_isomorphic(E, dual_torus(dual_torus(E)))
        assert ok and resid < mp.mpf("1e-30")


def test_dual_of_product_is_product_of_duals():
    E1, E2 = elliptic(mp.mpc("0.3", "1.7")), elliptic(mp.mpc("-0.2", "0.9"))
    lhs = dual_torus(product_torus(E1, E2))
    rhs = product_torus(dual_torus(E1), dual_torus(E2))
    ok, _, _, resid = tori_isomorphic(lhs, rhs)
    assert ok and resid < mp.mpf("1e-30")


def brute_force_endos_g1(t: ComplexTorus, bound: int, tol=1e-12):
    """Exhaustive oracle over 2x2 integer matrices with bounded entries."""
    out = []
    with working_precision():
        for entries in itertools.product(range(-bound, bound + 1), repeat=4):
            N = IntMatrix(2, 2, ((entries[0], entries[1]), (entries[2], entries[3])))
            _, resid = t.multiplier(N)
            if resid < tol and not N.is_zero():
                out.append(N)
    return out


def test_endomorphisms_contain_identity():
    t = elliptic(mp.mpc("0.37", "1.21"))
    endos = endomorphisms(t, 3)
    vecs = [tuple(x for r in N.entries for x in r) for N, _ in endos]
    B = IntMatrix.from_rows(vecs).transpose()
    assert solve_integer(B, IntMatrix.from_rows([[1], [0], [0], [1]])) is not None


def test_square_torus_endos_match_bruteforce():
    t = elliptic(mp.mpc(0, 1))
    endos = endomorphisms(t, 3)
    assert len(endos) == 2
    oracle = brute_force_endos_g1(t, 3)
    B = IntMatrix.from_rows(
        [tuple(x for r in N.entries for x in r) for N, _ in endos]
    ).transpose()
    oracle_vecs = IntMatrix.from_rows([[x for r in N.entries for x in r] for N in oracle])
    assert solve_integer(B, oracle_vecs.transpose()) is not None
    # multiplication by i is present
    assert solve_integer(B, IntMatrix.from_rows([[0], [1], [-1], [0]])) is not None


def test_generic_two_torus_has_rank_one():
    rng = random.Random(5)
    with working_precision():
        P = mp.matrix(2, 4)
        P[0, 0], P[1, 1] = 1, 1
        P[0, 2] = mp.mpc(rng.uniform(-1, 1), rng.uniform(1, 2))
        P[0, 3] = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf("0.25")
        P[1, 2] = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf("0.25")
        P[1, 3] = mp.mpc(rng.uniform(-1, 1), rng.uniform(1, 2))
    t = ComplexTorus(2, P)
    endos = endomorphisms(t, 5)
    assert len(endos) == 1
    N = endos[0][0]
    assert abs(N.entries[0][0]) == 1 and N.entries == IntMatrix.identity(4).scale(N.entries[0][0]).entries


def test_endomorphisms_closed_under_product():
    t = elliptic(mp.mpc(0, 1))
    endos = endomorphisms(t, 3)
    B = IntMatrix.from_rows(
        [tuple(x for r in N.entries for x in r) for N, _ in endos]
    ).transpose()
    products = [N1 @ N2 for (N1, _), (N2, _) in itertools.product(endos, repeat=2)]
    vecs = [[x for r in P.entries for x in r] for P in products]
    small = IntMatrix.from_rows([v for v in vecs if max(map(abs, v)) <= 3])
    assert solve_integer(B, small.transpose()) is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_endomorphisms_basis_ignores_hit_order(seed, monkeypatch):
    # the reported basis is the Hermite normal form of the hits, so the
    # order in which the search meets them does not matter
    t = elliptic(mp.mpc(0, 1))
    want = [N.entries for N, _ in endomorphisms(t, 3)]
    search = tori._bounded_lattice_elements

    def shuffled(basis, height_bound):
        hits = search(basis, height_bound)
        random.Random(seed).shuffle(hits)
        return hits

    monkeypatch.setattr(tori, "_bounded_lattice_elements", shuffled)
    assert [N.entries for N, _ in endomorphisms(t, 3)] == want


# the fields and ideals of the rm-certify benchmark: a principal ideal
# (generator in the basis {1, w}) or, for Q(sqrt 10), P2 = (2, sqrt 10)
@pytest.mark.parametrize("D,gen", [(2, (3, 1)), (3, (2, 1)), (5, (2, 1)), (10, None),
                                   (10, (4, 1)), (13, (1, 1))])
def test_detect_rm_presents_maximal_order_on_one_and_w(D, gen):
    O = FieldOrder.quadratic_maximal(D)
    if gen is None:
        rows = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    else:
        x = tuple(Fraction(c) for c in gen)
        rows = (x, O.mul_coords(x, (Fraction(0), Fraction(1))))
    rng = random.Random(D)
    with working_precision():
        z = [mp.mpc(rng.uniform(-1, 1), rng.uniform(0.5, 1.5)) for _ in range(2)]
        A = mp.matrix([[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 2 * (i == j)
                        for j in range(2)] for i in range(2)])
        t = ComplexTorus(2, A * construct_rm_torus(O, z, FractionalIdealRep(O, rows)).periods)
    rm = detect_rm(t, 6)
    # (1, -t, n) with t in {0, 1}: the presentation of quadratic_maximal(D)
    assert rm.field.min_poly[1] in (0, -1)
    assert rm.field.min_poly == O.min_poly and rm.field.is_maximal


def test_detect_rm_elliptic_is_rational():
    rm = detect_rm(elliptic(mp.mpc("0.3", "1.7")))
    assert rm.field.degree == 1
    assert rm.action[0].entries == IntMatrix.identity(2).entries


def test_search_bounds_below_one_are_input_errors():
    E = elliptic(mp.mpc("0.3", "1.7"))
    for bound in (0, -3):
        with pytest.raises(InputError, match="height_bound"):
            detect_rm(E, bound)  # checked before the g = 1 shortcut
        with pytest.raises(InputError, match="coeff_bound"):
            tori_isomorphic(E, E, coeff_bound=bound)


def test_detect_rm_cm_curve_rejects_imaginary():
    rm = detect_rm(elliptic(mp.mpc(0, 1)))
    assert rm.field.degree == 1  # Q(i) is not totally real


def test_construct_and_redetect_sqrt5():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc(0, 1), mp.mpc(0, 2)])
    rm = detect_rm(t, field_hint=O5)
    assert rm is not None
    assert rm.field.min_poly == (1, -1, -1)
    assert rm.field.is_maximal


def test_construct_generic_point_detects_maximal():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc("0.13", "1.07"), mp.mpc("-0.41", "0.83")])
    rm = detect_rm(t)
    assert rm is not None and rm.field.min_poly == (1, -1, -1) and rm.field.is_maximal


def test_construct_sqrt2_action_squares_to_two():
    O2 = FieldOrder.quadratic_maximal(2)
    t = construct_rm_torus(O2, [mp.mpc(0, 1), mp.mpc(0, 1)])
    A = t.rm.action[1]
    assert (A @ A).entries == IntMatrix.identity(4).scale(2).entries


def test_construct_rejects_lower_half_plane():
    O2 = FieldOrder.quadratic_maximal(2)
    with pytest.raises(InputError):
        construct_rm_torus(O2, [mp.mpc(0, 1), mp.mpc(0, -1)])


def test_construct_nonprincipal_steinitz_class():
    O10 = FieldOrder.quadratic_maximal(10)
    P2 = FractionalIdealRep(O10, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    t = construct_rm_torus(O10, [mp.mpc("0.1", "1.3"), mp.mpc("0.2", "0.7")], P2)
    _, ideal = steinitz_decompose(t.rm)
    assert ideal.same_class(P2)
    assert not ideal.same_class(O10.unit_ideal())


def test_enlarge_identity_when_maximal():
    O2 = FieldOrder.quadratic_maximal(2)
    t = construct_rm_torus(O2, [mp.mpc(0, 1), mp.mpc(0, 2)])
    t2, rm2, inc = enlarge_to_maximal(t, t.rm)
    assert inc.entries == IntMatrix.identity(4).entries


def test_enlarge_identity_degree_one():
    t = elliptic(mp.mpc("0.3", "1.7"))
    rm = detect_rm(t)
    _, rm2, inc = enlarge_to_maximal(t, rm)
    assert inc.entries == IntMatrix.identity(2).entries
    assert rm2.field.is_maximal


def test_enlarge_suborder_module():
    # lattice built over Z[3 sqrt2]: genuine index-3 order, index-9 lattice
    Osub = FieldOrder.quadratic(0, -18)
    t = construct_rm_torus(Osub, [mp.mpc("0.2", "1.1"), mp.mpc("-0.4", "0.9")])
    t2, rm2, inc = enlarge_to_maximal(t, t.rm)
    assert rm2.field.min_poly == (1, 0, -2)
    assert rm2.field.is_maximal
    assert abs(inc.det()) == 9
    # sandwich: old lattice inside new (integral inclusion), 3 * new inside old
    import sympy

    assert all((3 * x).is_integer for x in sympy.Matrix(inc.entries).inv())


# enlarge_to_maximal on Z[f w] at z = (0.2 + 1.1i, -0.4 + 0.9i), recorded from
# the rational Gauss-Jordan implementation that the Hermite solves replaced.
ENLARGED = {  # conductor -> (periods, action of the generator, inclusion)
    2: (
        [
            [
                ("0.2000000000000000111022302462515654042363", "1.100000000000000088817841970012523233891"),
                ("-0.3464101615137754779351161321368137514155", "-1.905255888325765176717205886341573827853"),
                ("1.000000000000000000000000000000000000000", "0.0"),
                ("-1.732050807568877293527446341505872366943", "0.0"),
            ],
            [
                ("-0.4000000000000000222044604925031308084726", "0.9000000000000000222044604925031308084726"),
                ("-0.6928203230275509558702322642736275028310", "1.558845726811989602633955435026563686302"),
                ("1.000000000000000000000000000000000000000", "0.0"),
                ("1.732050807568877293527446341505872366943", "0.0"),
            ],
        ],
        [[0, 3, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
    ),
    4: (
        [
            [
                ("-0.1236067977499789765024730099837099068123", "-0.6798373876248843879174906626868601956379"),
                ("-0.4472135954999579641071762662189852178608", "-2.459674775249768864652823295386243625166"),
                ("-0.6180339887498948482045868343656381177203", "0.0"),
                ("-2.236067977499789696409173668731276235441", "0.0"),
            ],
            [
                ("-0.6472135954999579752094065124705506220971", "1.456230589874905399311699929653369680957"),
                ("-0.8944271909999159282143525324379704357217", "2.012461179749810776418939366803608553442"),
                ("1.618033988749894848204586834365638117720", "0.0"),
                ("2.236067977499789696409173668731276235441", "0.0"),
            ],
        ],
        [[3, 5, 0, 0], [-1, -2, 0, 0], [0, 0, 3, 5], [0, 0, -1, -2]],
        [[2, 0, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 0], [0, 0, -1, 2]],
    ),
    6: (
        [
            [
                ("-0.1236067977499789765024730099837099068123", "-0.6798373876248843879174906626868601956379"),
                ("-0.4472135954999579641071762662189852178608", "-2.459674775249768864652823295386243625166"),
                ("-0.6180339887498948482045868343656381177203", "0.0"),
                ("-2.236067977499789696409173668731276235441", "0.0"),
            ],
            [
                ("-0.6472135954999579752094065124705506220971", "1.456230589874905399311699929653369680957"),
                ("-0.8944271909999159282143525324379704357217", "2.012461179749810776418939366803608553442"),
                ("1.618033988749894848204586834365638117720", "0.0"),
                ("2.236067977499789696409173668731276235441", "0.0"),
            ],
        ],
        [[3, 5, 0, 0], [-1, -2, 0, 0], [0, 0, 3, 5], [0, 0, -1, -2]],
        [[2, 0, 0, 0], [-1, 3, 0, 0], [0, 0, 2, 0], [0, 0, -1, 3]],
    ),
}


@pytest.mark.parametrize("f,t,n", [(2, 0, -12), (4, 0, -20), (6, 0, -45)])
def test_enlarge_matches_recorded_values(f, t, n):
    from plectic.serialize import matrix_to_json

    periods, action, inclusion = ENLARGED[f]
    torus = construct_rm_torus(FieldOrder.quadratic(t, n),
                               [mp.mpc("0.2", "1.1"), mp.mpc("-0.4", "0.9")])
    t2, rm2, inc = enlarge_to_maximal(torus, torus.rm)
    assert matrix_to_json(t2.periods) == [[list(z) for z in row] for row in periods]
    assert rm2.action[1].entries == tuple(map(tuple, action))
    assert inc.entries == tuple(map(tuple, inclusion))


def test_steinitz_free_module():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc(0, 1), mp.mpc(0, 1.5)])
    U, ideal = steinitz_decompose(t.rm)
    assert abs(U.det()) == 1
    assert ideal.same_class(O5.unit_ideal())


def test_steinitz_regenerates_lattice():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc("0.07", "0.9"), mp.mpc("0.4", "1.2")])
    U, _ = steinitz_decompose(t.rm)
    assert abs(U.det()) == 1  # unimodular change of basis: spans the lattice exactly


def test_steinitz_requires_maximal():
    Osub = FieldOrder.quadratic(0, -18)
    t = construct_rm_torus(Osub, [mp.mpc(0, 1), mp.mpc(0, 1)])
    with pytest.raises(InputError):
        steinitz_decompose(t.rm)


def test_algebraize_round_trip_sqrt5():
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc(0, 1), mp.mpc(0, 2)])
    res = algebraize_rm(t, t.rm)
    assert res.residual < mp.mpf("1e-9")
    assert all(mp.im(c) > 0 for c in res.z)
    ok, _, _, resid = tori_isomorphic(t, res.model)
    assert ok and resid < mp.mpf("1e-9")


def test_algebraize_degree_one():
    tau = mp.mpc("0.37", "2.11")
    t = elliptic(tau)
    res = algebraize_rm(t, detect_rm(t))
    assert res.residual < mp.mpf("1e-30")
    ok, _, _, _ = tori_isomorphic(t, res.model)
    assert ok


def test_algebraize_random_sqrt2():
    rng = random.Random(17)
    O2 = FieldOrder.quadratic_maximal(2)
    for _ in range(5):
        z = [mp.mpc(rng.uniform(-1, 1), rng.uniform(0.4, 2.0)) for _ in range(2)]
        t = construct_rm_torus(O2, z)
        res = algebraize_rm(t, t.rm)
        assert res.residual < mp.mpf("1e-9")


def test_algebraize_enlarges_a_non_maximal_order():
    """On the Z[sqrt 5] torus at z = (0.31 + 1.17i, -0.42 + 0.83i),
    algebraize_rm passes to the maximal order itself: the same model, bit
    for bit, as enlarge_to_maximal followed by algebraize_rm.  Its iso is
    then an isogeny of degree 4 on the input lattice, and says so."""
    Z5 = FieldOrder.quadratic(0, -5)
    t = construct_rm_torus(Z5, [mp.mpc("0.31", "1.17"), mp.mpc("-0.42", "0.83")])
    assert not t.rm.field.is_maximal
    res = algebraize_rm(t, t.rm)
    t2, rm2, _ = enlarge_to_maximal(t, t.rm)
    want = algebraize_rm(t2, rm2)
    assert res.field == want.field == rm2.field and res.field.is_maximal
    assert res.z == want.z and res.ideal == want.ideal
    assert res.iso.tolist() == want.iso.tolist() and res.residual == want.residual
    assert (res.index, want.index) == (4, 1)


def test_certificate_elliptic():
    h = refine_to_classical(elliptic_h1(1, mp.mpc("0.3", "1.7")))
    cert = jacobian_is_abelian_certificate(h)
    assert cert.field.degree == 1
    assert cert.residual < mp.mpf("1e-20")
    assert mp.im(cert.z[0]) > 0


def test_certificate_detects_rm_on_g2_jacobian():
    # weight-one structure with H^{1,0} spanned by the transposed periods of
    # a generic Q(sqrt 5) torus; its Jacobian is the dual torus, which keeps
    # the real multiplication.  rm=None makes the certificate search for it.
    O5 = FieldOrder.quadratic_maximal(5)
    t = construct_rm_torus(O5, [mp.mpc("0.31", "1.13"), mp.mpc("-0.27", "0.71")])
    hol = t.periods.T
    h = PlecticHodgeStructure(1, 4, {H10: hol, H01: cx.conj(hol)})
    cert = jacobian_is_abelian_certificate(h)
    assert cert.field.min_poly == (1, -1, -1)
    assert cert.field.is_maximal
    assert cert.residual < mp.mpf("1e-9")
    assert all(mp.im(z) > 0 for z in cert.z)


def test_certificate_rank_mismatch():
    h = refine_to_classical(elliptic_h1(1, mp.mpc("0.3", "1.7")))
    O2 = FieldOrder.quadratic_maximal(2)
    bad = RMStructure(
        O2,
        (IntMatrix.identity(4),
         construct_rm_torus(O2, [mp.mpc(0, 1), mp.mpc(0, 1)]).rm.action[1]),
    )
    with pytest.raises(InputError):
        jacobian_is_abelian_certificate(h, bad)


def test_certificate_needs_degree_one():
    h = tensor(elliptic_h1(1, mp.mpc("0.3", "1.7")), elliptic_h1(1, mp.mpc("-0.2", "0.9")))
    with pytest.raises(InputError, match="degree 1"):
        jacobian_is_abelian_certificate(h)


def single_stage_kernel(L):
    """Integer kernel of the real matrix L from one LLL of the embedding
    x -> x || x C at scale 2^top, C = L^T rounded, with each kernel vector
    checked against L at the precision floor and the set saturated."""
    m, n = L.rows, L.cols
    with working_precision():
        ver_bits = mp.mp.prec - 40
        scale = mp.mpf(2) ** ((3 * ver_bits) // 4)
        floor = mp.mpf(2) ** (-ver_bits)
        rows = [[int(k == i) for k in range(n)] + [int(mp.nint(scale * L[j, i]))
                                                   for j in range(m)] for i in range(n)]
        found = []
        for row in lll_reduce(rows):
            x = row[:n]
            if all(v == 0 for v in x):
                continue
            h = max(abs(v) for v in x)
            resid = max(abs(mp.fsum(L[j, i] * x[i] for i in range(n))) for j in range(m))
            if resid <= floor * max(1, h) * n:
                found.append(tuple(x))
    if not found:
        return []
    return lll_reduce(saturation(IntMatrix.from_rows(found)))


def reference_hom_lattice(src, dst):
    """Hom(src, dst) as the integer kernel of U J_src - J_dst U = 0 in all
    (2 g_dst)(2 g_src) entries of U at once, by `single_stage_kernel`."""
    with working_precision():
        J1 = src.complex_structure()
        J2 = dst.complex_structure()
        r, c = 2 * dst.g, 2 * src.g
        # constraint U J1 - J2 U = 0, columns indexed by entries of U
        L = mp.matrix(r * c, r * c)
        for i in range(r):
            for j in range(c):
                col = i * c + j
                for jj in range(c):  # (U J1)[i, jj] gets U[i, j] * J1[j, jj]
                    L[i * c + jj, col] += J1[j, jj]
                for ii in range(r):  # (J2 U)[ii, j] gets J2[ii, i] * U[i, j]
                    L[ii * c + j, col] -= J2[ii, i]
        vecs = single_stage_kernel(L)
    return [IntMatrix(r, c, tuple(tuple(v[i * c + j] for j in range(c)) for i in range(r)))
            for v in vecs]


def _seeded_rm_torus(D, seed, ideal=None):
    rng = random.Random(seed)
    z = [mp.mpc(round(rng.uniform(-1, 1), 4), round(rng.uniform(0.5, 1.5), 4))
         for _ in range(2)]
    return construct_rm_torus(FieldOrder.quadratic_maximal(D), z, ideal)


def _assert_matches_reference(src, dst=None):
    dst = src if dst is None else dst
    found = hom_lattice(src, dst)
    assert [N.entries for N in found] == [N.entries for N in reference_hom_lattice(src, dst)]
    return found


def _hom_reference_cases():
    """(src, dst or None for src) and the ranks of Hom(src, dst) at 64, 128
    and 256 bits, built at the working precision."""
    with working_precision():
        cm_b = mp.mpc(0, mp.sqrt(2))
        # at working precision tau = (3 + 17i)/10 and (-2 + 9i)/10 both lie in
        # Q(i), so E and E2 are isogenous CM curves; built at 53 bits, E is not
        E, E2 = elliptic(mp.mpc("0.3", "1.7")), elliptic(mp.mpc("-0.2", "0.9"))
    O10 = FieldOrder.quadratic_maximal(10)
    P2 = FractionalIdealRep(O10, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    rm5 = _seeded_rm_torus(5, 2)
    EE2 = product_torus(E, E2)
    return [
        ((_seeded_rm_torus(2, 1), None), (2, 2, 2)), ((rm5, None), (2, 2, 2)),
        ((_seeded_rm_torus(13, 3), None), (2, 2, 2)), ((_seeded_rm_torus(3, 5), None), (2, 2, 2)),
        ((_seeded_rm_torus(10, 6), None), (2, 2, 2)),
        ((_seeded_rm_torus(10, 7, P2), None), (2, 2, 2)),
        ((product_torus(elliptic(mp.mpc(0, 1)), elliptic(cm_b)), None), (4, 4, 4)),
        # the 53-bit tau lies in Q(i) with denominator 2^54, so End holds maps of
        # height about 2^110: 256 bits find one, and 64 bits (a 36-bit acceptance
        # test) pass a near-miss of height 149
        ((elliptic(mp.mpc("0.3", "1.7")), None), (2, 1, 2)),
        ((elliptic(mp.mpc(0, 1)), None), (2, 2, 2)),
        ((rm5, dual_torus(rm5)), (2, 2, 2)), ((E, EE2), (4, 4, 4)), ((EE2, E), (4, 4, 4)),
        ((rm5, EE2), (0, 0, 0)), ((product_torus(EE2, E), None), (18, 18, 18)),
    ]


def test_hom_lattice_matches_single_stage_reference():
    try:
        for k, bits in enumerate((64, 128, 256)):
            set_precision(bits)
            cases = _hom_reference_cases()
            ranks = [len(_assert_matches_reference(src, dst)) for (src, dst), _ in cases]
            assert ranks == [rank[k] for _, rank in cases], bits
    finally:
        set_precision(128)


def test_hom_acceptance_threshold():
    """An RM torus with one period scaled by 1 + 2^-80: its RM survives the
    acceptance test at 64 and 96 bits (allowances 2^-36 and 2^-68, as the
    working precision carries 12 guard bits) and fails it from 128 bits
    (2^-100) on, while the unperturbed torus keeps rank 2 at every
    precision."""
    O5 = FieldOrder.quadratic_maximal(5)
    try:
        set_precision(512)
        with working_precision():
            z = [mp.mpf(1) / 3 + 1j * mp.sqrt(3), mp.mpf(-2) / 7 + 1j * mp.e]
            t = construct_rm_torus(O5, z)
            P = t.periods.copy()
            P[0, 1] *= 1 + mp.ldexp(1, -80)
            bent = ComplexTorus(2, P)
        ranks = {}
        for bits in (64, 96, 128, 192, 256):
            set_precision(bits)
            ranks[bits] = (len(hom_lattice(t, t)), len(hom_lattice(bent, bent)))
    finally:
        set_precision(128)
    assert ranks == {64: (2, 2), 96: (2, 2), 128: (2, 1), 192: (2, 1), 256: (2, 1)}


def cm_product_json():
    """CI's E_{i sqrt 2} x E_{i sqrt 5} in the coordinate change
    A = [[2, 1 + i], [-i, 3]], written by `torus_to_json` at 128 bits."""
    from plectic.serialize import torus_to_json

    with working_precision():
        A = mp.matrix([[2, mp.mpc(1, 1)], [mp.mpc(0, -1), 3]])
        P = A * mp.matrix([[1, 1j * mp.sqrt(2), 0, 0], [0, 0, 1, 1j * mp.sqrt(5)]])
        return torus_to_json(ComplexTorus(2, P))


def test_end_contains_the_identity():
    """Read back at more bits than it was written with, the CM product keeps
    only the identity (from 256 bits), but End always holds it: at 192 bits
    the identity was only a combination of near-relations, each of which
    failed the acceptance test, and End came back empty."""
    from plectic.serialize import torus_from_json

    doc = cm_product_json()
    identity = IntMatrix.from_rows([[x] for x in tori._vec(IntMatrix.identity(4))])
    try:
        for bits in (64, 128, 192, 256, 512):
            set_precision(bits)
            t = torus_from_json(doc)
            basis = [tori._vec(N) for N in hom_lattice(t, t)]
            assert basis, bits
            A = IntMatrix.from_rows(list(zip(*basis)))
            assert solve_integer(A, identity) is not None, bits
    finally:
        set_precision(128)


def test_generic_three_torus_has_only_scalars():
    rng = random.Random(11)
    with working_precision():
        P = mp.matrix(3, 6)
        for i in range(3):
            P[i, i] = 1
            P[i, 3 + i] = mp.mpc(rng.uniform(-1, 1), rng.uniform(1, 2))
            for j in range(3):
                if j != i:
                    P[i, 3 + j] = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf("0.25")
    t = ComplexTorus(3, P)
    assert [N.entries for N in hom_lattice(t, t)] == [IntMatrix.identity(6).entries]


def min_poly_detect_rm(t: ComplexTorus, height_bound: int, field_hint=None):
    """detect_rm's search with the minimal-polynomial test of each candidate
    that it used before `_rm_poly`, as the reference for its search order."""
    basis = hom_lattice(t, t)
    searched = basis[:6]
    for coeffs in coefficient_shells(len(searched), height_bound, positive_first=True):
        N = int_combination(coeffs, searched)
        p = krylov_min_poly(N)
        if not _generates_totally_real_field(p, t.g):
            continue
        if field_hint is not None and not tori._same_quadratic_field(p, field_hint):
            continue
        return tori._order_from_generator(N, t.g)
    return None


def _cm_product(d1, d2, rng):
    """E_{tau1} x E_{tau2}, tau_k in Q(sqrt -d_k), in a random complex basis."""
    with working_precision():
        tau = [mp.mpf(rng.randint(-2, 2)) / rng.randint(2, 5)
               + 1j * mp.mpf(rng.randint(1, 3)) / rng.randint(1, 2) * mp.sqrt(d)
               for d in (d1, d2)]
        A = mp.matrix([[mp.mpc(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
                        + 2 * (i == j) for j in range(2)] for i in range(2)])
        return ComplexTorus(2, A * mp.matrix([[1, tau[0], 0, 0], [0, 0, 1, tau[1]]]))


def _same_rm(a, b):
    if a is None or b is None:
        return a is b
    return (a.field.min_poly == b.field.min_poly
            and [N.entries for N in a.action] == [N.entries for N in b.action])


def test_detect_rm_keeps_min_poly_search_order():
    rng = random.Random(7)
    for d1, d2 in ((2, 5), (7, 11)):
        t = _cm_product(d1, d2, rng)
        for height_bound in (1, 2, 3):
            assert detect_rm(t, height_bound) is None
            assert min_poly_detect_rm(t, height_bound) is None
    O5 = FieldOrder.quadratic_maximal(5)
    t = dual_torus(construct_rm_torus(O5, [mp.mpc(0, 1), mp.mpc(0, 2)]))
    assert t.rm is None
    rm = detect_rm(t, 10)
    assert rm.field.min_poly == (1, 0, -2)  # Q(sqrt 2) is met before Q(sqrt 5)
    assert _same_rm(rm, min_poly_detect_rm(t, 10))
    hinted = detect_rm(t, 10, field_hint=O5)
    assert hinted.field.min_poly == (1, -1, -1)
    assert _same_rm(hinted, min_poly_detect_rm(t, 10, field_hint=O5))


def test_detect_rm_on_a_rank_eight_cm_torus_matches_the_reference():
    """An RM torus over Q(sqrt 2) at z_j = sigma_j(1/3 + sqrt2/5 + (3 + sqrt 2) i),
    a CM point with CM by F(i) (ROADMAP item 15): End has rank 8, so only
    the first six basis vectors are searched, with six-variable forms."""
    F = FieldOrder.quadratic_maximal(2)
    with working_precision():
        z = [F.element_embedding((Fraction(1, 3), Fraction(1, 5)), e)
             + 1j * F.element_embedding((3, 1), e) for e in F.embeddings()]
    t = construct_rm_torus(F, z)
    assert len(hom_lattice(t, t)) == 8
    rm = detect_rm(t, 1)
    assert rm is not None
    assert _same_rm(rm, min_poly_detect_rm(t, 1))


def _power_traces_by_products(N, k):
    traces, P = [], N
    for _ in range(k):
        traces.append(sum(P.entries[i][i] for i in range(P.rows)))
        P = P @ N
    return traces


def _int_matrices(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(IntMatrix.from_rows)


# integer bases of 4 x 4 and 6 x 6 matrices, rank <= 6; the second kind holds I and a
# doubled companion matrix, so some of its combinations have real multiplication
int_bases = st.one_of(
    st.sampled_from([4, 6]).flatmap(lambda n: st.lists(_int_matrices(n), min_size=1, max_size=6)),
    doubled_companions.flatmap(lambda D: st.lists(_int_matrices(D.rows), max_size=4).map(
        lambda ms: [IntMatrix.identity(D.rows), D, *ms])))


@settings(max_examples=80, deadline=None)
@given(int_bases, st.data())
def test_trace_forms_are_the_power_traces(basis, data):
    forms = [tori._TraceForms(basis, k) for k in (1, 2, 3)]
    coeffs = st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis))
    for _ in range(4):
        c = data.draw(coeffs)
        want = _power_traces_by_products(int_combination(c, basis), 3)
        assert [f(c) for f in forms] == [want[:1], want[:2], want]


@settings(max_examples=40, deadline=None)
@given(int_bases)
def test_detect_rm_decides_each_candidate_as_rm_poly(basis):
    g = basis[0].rows // 2
    bound = 2 if len(basis) <= 4 else 1
    got = [(N.entries, m) for N, m in tori._rm_candidates(basis, g, bound)]
    want = []
    for c in coefficient_shells(len(basis), bound, positive_first=True):
        N = int_combination(c, basis)
        if (m := tori._rm_poly(N, g)) is not None:
            want.append((N.entries, m))
    assert got == want


@pytest.mark.parametrize("m", RM_POLYS, ids=["x2-2", "x2-x-1", "x3-3x+1"])
def test_rm_candidates_accept_a_doubled_companion(m):
    n = 2 * (len(m) - 1)
    C = conjugate(blocks([[companion(m), None], [None, companion(m)]]), [(0, 1, 2), (3, 1, -1)])
    basis = [IntMatrix.identity(n), C, IntMatrix.from_rows(
        [[(i * j) % 3 - 1 for j in range(n)] for i in range(n)])]
    got = list(tori._rm_candidates(basis, n // 2, 2))
    assert got and all(tori._rm_poly(N, n // 2) == p for N, p in got)
    assert (C, m) in got


def end_basis_order_from_generator(N: IntMatrix, endo_basis, g: int):
    """tori._order_from_generator before it read the order from N alone:
    End(T) meet Q(N) cut out of the End basis by two integer kernels."""
    n = N.rows
    powers = []
    P = IntMatrix.identity(n)
    for _ in range(g):
        powers.append(tori._vec(P))
        P = P @ N
    comp = kernel_integer(IntMatrix.from_rows(powers))  # null space of the row span of S
    K = IntMatrix.from_rows([tori._vec(B) for B in endo_basis])
    cvecs = kernel_integer(IntMatrix.from_rows(comp) @ K.transpose())
    order_rows = row_lattice_basis(IntMatrix.from_rows([K.transpose().apply(c) for c in cvecs]))
    assert len(order_rows) == g
    ident = tori._vec(IntMatrix.identity(n))
    basis_vecs = [ident] + torsion_free_quotient([ident], order_rows)
    mats = [tori._unvec(v, n, n) for v in basis_vecs]
    Bt = IntMatrix.from_rows(basis_vecs).transpose()
    prods = IntMatrix.from_rows([tori._vec(a @ b) for a in mats for b in mats]).transpose()
    cols = solve_integer(Bt, prods).transpose().entries
    table = tuple(cols[i * g:(i + 1) * g] for i in range(g))
    coeffs = tori._rm_poly(mats[1], g)
    field = (FieldOrder.quadratic(-coeffs[1], coeffs[2]) if g == 2
             else FieldOrder(g, coeffs, tuple(table)))
    return RMStructure(field, tuple(mats))


def _p2(D):
    return FractionalIdealRep(FieldOrder.quadratic_maximal(D),
                              ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))


@pytest.mark.parametrize("field,z,ideal", [
    (FieldOrder.quadratic_maximal(2), ("0.23", "1.09", "-0.37", "0.81"), None),
    (FieldOrder.quadratic_maximal(5), ("0.13", "1.07", "-0.41", "0.83"), None),
    (FieldOrder.quadratic_maximal(13), ("-0.29", "0.94", "0.44", "1.21"), None),
    (FieldOrder.quadratic_maximal(10), ("0.1", "1.3", "0.2", "0.7"), _p2(10)),
    # the non-maximal Z[sqrt 5] of CI's rm5.json
    (FieldOrder.quadratic(0, -5), ("0.31", "1.17", "-0.42", "0.83"), None),
], ids=["sqrt2", "sqrt5", "sqrt13", "sqrt10-P2", "Z[sqrt5]"])
def test_order_from_the_generator_alone_matches_the_end_basis_reference(field, z, ideal):
    """detect_rm reads End(T) meet Q(N) as the saturation of 1, N, ...,
    N^(g-1): the same field, maximality and action matrices as the order
    cut out of the End basis."""
    t = construct_rm_torus(field, [mp.mpc(z[0], z[1]), mp.mpc(z[2], z[3])], ideal)
    basis = hom_lattice(t, t)
    N, _ = next(tori._rm_candidates(basis[:6], t.g, 6))
    want = end_basis_order_from_generator(N, basis, t.g)
    rm = detect_rm(t, 6)
    assert rm.field == want.field and rm.field.is_maximal == field.is_maximal
    assert [A.entries for A in rm.action] == [A.entries for A in want.action]
