import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subspace_distance
from plectic import cxlinalg as cx
from plectic import flat
from plectic.errors import DegenerateInputError, InputError
from plectic.flat import (
    FlatTorus,
    _distance_to_image,
    _residual,
    adjoint,
    apply_operator,
    build_space,
    d_operator,
    del_operator,
    e_operator,
    extract_plectic_structure,
    harmonic_space,
    hodge_star,
    laplacian,
    laplacian_d,
    metric_independence_check,
    partial_bar_operator,
    partial_operator,
    verify_laplacian_sum,
    verify_refined_identities,
    xi_bar_operator,
    xi_operator,
)

GENERIC = FlatTorus(((1, 0.3 + 1.7j), (1, -0.2 + 0.9j)), (1.0, 1.0))


def maxabs(op):
    """Largest absolute entry of an operator."""
    arrays, _ = op.multipliers()
    return float(np.abs(arrays).max(initial=0.0))


def coefficients(op):
    """The nonzero coefficients of an operator, by block."""
    out = {key: {e: c for e, c in p.items() if c} for key, p in op.blocks.items()}
    return {key: p for key, p in out.items() if p}


def dense(op):
    """Dense matrix of an operator, column by column from unit vectors."""
    return apply_operator(op, np.eye(op.space.dim))


def test_space_dimensions():
    assert build_space(FlatTorus.square(1), 0).dim == 4
    assert build_space(FlatTorus.square(2), 1).dim == 3**4 * 16 == 1296


def test_conjugation_involution_squares_to_identity():
    s = build_space(FlatTorus.square(2), 1)
    inv = s.conj_involution()
    assert np.array_equal(inv[inv], np.arange(s.dim))
    from plectic.flat import _zero_freq_index

    assert np.array_equal(s.freq_digits[s.negated_freq_indices()], -s.freq_digits)
    assert not s.freq_digits[_zero_freq_index(s)].any()


def test_xi_nilpotent_and_sums_to_del():
    s = build_space(GENERIC, 1)
    for j in (1, 2):
        x = xi_operator(s, j)
        assert maxabs(x @ x) == 0.0
    total = xi_operator(s, 1) + xi_operator(s, 2)
    assert maxabs(del_operator(s) - total) == 0.0


def test_xi_kills_constants():
    s = build_space(FlatTorus.square(1), 1)
    v = np.zeros(s.dim, dtype=complex)
    from plectic.flat import _zero_freq_index

    v[s.index(_zero_freq_index(s), s.type_index[((0,), (0,))])] = 1.0
    assert np.abs(apply_operator(xi_operator(s, 1), v)).max() == 0.0


def test_operator_grading():
    s = build_space(GENERIC, 1)
    T = s.type_count
    for j, op, da, db in [
        (1, xi_operator(s, 1), (1, 0), (0, 0)),
        (2, xi_bar_operator(s, 2), (0, 0), (0, 1)),
    ]:
        rows, cols = np.nonzero(dense(op))
        assert len(rows) > 0
        for r, c in zip(rows, cols):
            (a1, b1) = s.types[c % T]
            (a2, b2) = s.types[r % T]
            assert tuple(x - y for x, y in zip(a2, a1)) == da
            assert tuple(x - y for x, y in zip(b2, b1)) == db
            assert r // T == c // T  # frequencies never mix


def test_adjoint_involutive():
    s = build_space(GENERIC, 1)
    x = xi_operator(s, 1)
    assert maxabs(adjoint(adjoint(x)) - x) < 1e-15


def test_partial_adjoint_is_minus_partial_bar():
    s = build_space(GENERIC, 1)
    for j in (1, 2):
        diff = adjoint(partial_operator(s, j)) + partial_bar_operator(s, j)
        assert maxabs(diff) < 1e-15


def test_wedge_adjoint_anticommutator():
    s = build_space(GENERIC, 1)
    e1s = adjoint(e_operator(s, 1))
    e2 = e_operator(s, 2)
    assert maxabs(e1s @ e2 + e2 @ e1s) < 1e-15


def test_identities_n1_vacuous():
    rep = verify_refined_identities(build_space(FlatTorus.square(1), 1))
    assert rep.passed and rep.max_residual == 0.0


def test_identities_n2_N2():
    rep = verify_refined_identities(build_space(FlatTorus.square(2), 2))
    assert rep.passed and rep.max_residual < 1e-10


def test_identities_n3_weighted():
    rep = verify_refined_identities(build_space(FlatTorus.square(3, (1.0, 2.0, 3.0)), 1))
    assert rep.passed and rep.max_residual < 1e-10


def test_identities_and_laplacian_n4_N1():
    """Dimension 3^8 * 4^4 = 1,679,616."""
    s = build_space(FlatTorus.square(4, (1.0, 1.5, 0.7, 2.0)), 1)
    assert s.dim == 6561 * 256
    for verify in (verify_refined_identities, verify_laplacian_sum):
        t0 = time.monotonic()
        rep = verify(s)
        assert rep.passed and time.monotonic() - t0 < 30.0


def test_laplacian_sum_n1_classical():
    rep = verify_laplacian_sum(build_space(FlatTorus.square(1), 2))
    assert rep.passed
    assert rep.dolbeault_residual < 1e-10


def test_laplacian_sum_n2():
    rep = verify_laplacian_sum(build_space(GENERIC, 1))
    assert rep.passed
    assert rep.sum_residual < 1e-10 and rep.dolbeault_residual < 1e-10
    assert rep.block_diagonal_exact
    # the half-coefficient variant is reported and visibly fails
    assert rep.half_sum_residual > 1.0


def test_laplacian_assembly_matches_direct_product():
    s = build_space(GENERIC, 1)
    assert coefficients(laplacian_d(s)) == coefficients(laplacian(d_operator(s)))


def test_residual_is_the_largest_row_sum():
    """_residual against row sums over every (frequency, type) pair, on
    operators whose row sums differ by type, and 0.0 on an exact zero."""
    s = build_space(FlatTorus(GENERIC.factors, (1.3, 0.7)), 1)
    d = d_operator(s)
    for op in (d, adjoint(d), laplacian_d(s)):
        arrays, column = op.multipliers()
        rowsums = np.zeros((s.freq_count, s.type_count))
        for (dst, _), col in column.items():
            rowsums[:, dst] += np.abs(arrays[:, col])
        assert abs(_residual(op) - rowsums.max()) <= 1e-12 * rowsums.max()
    assert _residual(d - d) == 0.0


def test_harmonic_dimensions_all_types():
    s = build_space(GENERIC, 1)
    for alpha in itertools.product((0, 1), repeat=2):
        for beta in itertools.product((0, 1), repeat=2):
            assert harmonic_space(s, alpha, beta).dim == 1


def test_betti_numbers():
    s = build_space(GENERIC, 1)
    totals = {k: 0 for k in range(5)}
    for alpha, beta in s.types:
        totals[sum(alpha) + sum(beta)] += harmonic_space(s, alpha, beta).dim
    assert totals == {k: math.comb(4, k) for k in range(5)}


def test_harmonic_conjugation_symmetry():
    s = build_space(GENERIC, 1)
    negf = s.negated_freq_indices()
    h = harmonic_space(s, (1, 0), (0, 1))
    hc = harmonic_space(s, (0, 1), (1, 0))
    conj = np.conj(h.coefficients)[negf, :]
    # spans agree after conjugation and frequency negation
    assert np.linalg.matrix_rank(np.hstack([conj, hc.coefficients])) == hc.dim


def test_kernel_of_laplacian_inside_kernel_of_d():
    s = build_space(GENERIC, 1)
    d = d_operator(s)
    for alpha, beta in s.types:
        hb = harmonic_space(s, alpha, beta)
        vecs = hb.full_vectors()
        if vecs.size:
            assert np.abs(apply_operator(d, vecs)).max() < 1e-12


def test_ker_d_meets_image_of_dstar_trivially():
    s = build_space(FlatTorus.square(1), 1)
    d = dense(d_operator(s))
    ds = dense(adjoint(d_operator(s)))
    # principal angles between ker(d) and im(d*), rank-truncated bases
    _, sv, vt = np.linalg.svd(d)
    ker = vt[np.sum(sv > 1e-9 * sv[0]):].conj().T
    u2, sv2, _ = np.linalg.svd(ds)
    img = u2[:, :np.sum(sv2 > 1e-9 * sv2[0])]
    overlap = np.linalg.svd(ker.conj().T @ img, compute_uv=False)
    assert overlap.max() < 1 - 1e-8


def test_star_involution_sign_by_degree():
    s = build_space(FlatTorus.square(2, (1.0, 1.5)), 1)
    st = hodge_star(s)
    from plectic.flat import _zero_freq_index

    f0 = _zero_freq_index(s)
    for t, (alpha, beta) in enumerate(s.types):
        k = sum(alpha) + sum(beta)
        v = np.zeros(s.dim, dtype=complex)
        v[s.index(f0, t)] = 1.0
        vv = apply_operator(st, apply_operator(st, v))
        assert abs(vv[s.index(f0, t)] - (-1) ** k) < 1e-12


def test_star_of_one_is_volume_form():
    s = build_space(FlatTorus.square(2, (2.0, 1.0)), 0)
    st = hodge_star(s)
    v = np.zeros(s.dim, dtype=complex)
    t0 = s.type_index[((0, 0), (0, 0))]
    v[s.index(0, t0)] = 1.0
    img = apply_operator(st, v)
    top = s.type_index[((1, 1), (1, 1))]
    # omega^n/n! = prod_j (i h_j / 2) dz_j dzbar_j, reordered to canonical
    expect = (1j * 2.0 / 2) * (1j * 1.0 / 2) * (-1)  # interleave sign for n=2
    assert abs(img[s.index(0, top)] - expect) < 1e-14


def test_star_maps_harmonic_type_to_complement():
    s = build_space(GENERIC, 1)
    st = hodge_star(s)
    h = harmonic_space(s, (1, 0), (0, 1))
    img = apply_operator(st, h.full_vectors()[:, 0])
    target = harmonic_space(s, (0, 1), (1, 0)).full_vectors()[:, 0]
    nz = np.nonzero(img)[0]
    assert set(nz) == set(np.nonzero(target)[0])


def test_metric_independence_constant_form():
    res = metric_independence_check(GENERIC, (1.0, 1.0), (0.5, 2.5),
                                    _constant_plus_exact(GENERIC, exact=False), 1)
    assert res["passed"] and res["projection_difference"] < 1e-12


def test_metric_independence_constant_plus_exact():
    res = metric_independence_check(GENERIC, (1.0, 1.0), (0.5, 2.5),
                                    _constant_plus_exact(GENERIC, exact=True), 1)
    assert res["passed"] and res["residual"] < 1e-9


def test_distance_to_image_matches_dense_least_squares():
    s = build_space(FlatTorus(((1, 0.3 + 1.7j),), (1.7,)), 1)
    d = d_operator(s)
    w = np.sqrt(s.gram)
    W = np.diag(np.tile(w, s.freq_count))
    rng = np.random.default_rng(5)
    delta = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    delta[: s.type_count] = 0  # one frequency with nothing to fit
    x = np.linalg.lstsq(W @ dense(d), W @ delta, rcond=None)[0]
    expect = np.linalg.norm(W @ (dense(d) @ x - delta))
    assert abs(_distance_to_image(d, w, delta) - expect) < 1e-12 * expect


def test_metric_independence_rejects_open_form():
    s = build_space(GENERIC, 1)
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    with pytest.raises(InputError):
        metric_independence_check(GENERIC, (1.0, 1.0), (0.5, 2.5), vec, 1)


def _constant_plus_exact(torus, exact: bool):
    s = build_space(torus, 1)
    from plectic.flat import _zero_freq_index

    psi = np.zeros(s.dim, dtype=complex)
    psi[s.index(_zero_freq_index(s), s.type_index[((1, 0), (0, 1))])] = 1.0
    if exact:
        rng = np.random.default_rng(7)
        zeta = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
        psi = psi + apply_operator(d_operator(s), zeta)
    return psi


def test_extract_elliptic():
    from plectic.hodge import elliptic_h1

    s = build_space(FlatTorus(((1, 0.3 + 1.7j),), (1.0,)), 1)
    phs = extract_plectic_structure(s, 1)
    h = elliptic_h1(1, 0.3 + 1.7j)
    for bd in phs.pieces:
        assert subspace_distance(phs.pieces[bd], h.pieces[bd]) < 1e-9


def test_extract_total_rank_binomial():
    s = build_space(GENERIC, 1)
    for k in range(0, 5):
        phs = extract_plectic_structure(s, k)
        assert phs.rank == math.comb(4, k)
        assert sum(v.cols for v in phs.pieces.values()) == phs.rank


def test_extract_tensor_part_matches_tensor_structure():
    from plectic.hodge import elliptic_h1, tensor

    s = build_space(GENERIC, 1)
    phs = extract_plectic_structure(s, 2)
    t12 = tensor(elliptic_h1(1, 0.3 + 1.7j), elliptic_h1(1, -0.2 + 0.9j))
    subsets = list(itertools.combinations(range(4), 2))
    sel = [i for i, sub in enumerate(subsets) if sub[0] in (0, 1) and sub[1] in (2, 3)]
    for bd, basis in phs.sorted_pieces():
        if not bd.is_effective_weight_one():
            continue
        sub = cx.mpm([[basis[r, c] for c in range(basis.cols)] for r in sel])
        rest = [abs(basis[r, c]) for r in range(basis.rows) if r not in sel
                for c in range(basis.cols)]
        assert max(rest) < 1e-12
        assert subspace_distance(sub, t12.pieces[bd]) < 1e-7


def test_conjugate_linear_sum_keeps_the_flag():
    s = build_space(GENERIC, 1)
    star = hodge_star(s)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    twice = apply_operator(2 * star, v)
    assert np.abs(apply_operator(star + star, v) - twice).max() <= 1e-14 * np.abs(twice).max()
    assert (star + star).conjugates_argument and (star - 0.5 * star).conjugates_argument


def test_sum_of_linear_and_conjugate_linear_raises():
    s = build_space(GENERIC, 1)
    with pytest.raises(InputError):
        hodge_star(s) + d_operator(s)
    with pytest.raises(InputError):
        d_operator(s) - hodge_star(s)


def test_composition_with_conjugate_linear_raises():
    s = build_space(GENERIC, 1)
    with pytest.raises(InputError):
        hodge_star(s) @ d_operator(s)
    with pytest.raises(InputError):
        d_operator(s) @ hodge_star(s)
    with pytest.raises(InputError):
        adjoint(hodge_star(s))


@pytest.fixture(scope="module")
def generic_algebra():
    """xi_j, xibar_j, e_j, partial_j, partialbar_j (j = 1, 2) and d on
    GENERIC at N = 1 with their dense matrices and largest absolute
    entries, and one column per refined type at a seeded frequency."""
    s = build_space(GENERIC, 1)
    ops = [d_operator(s)]
    for j in (1, 2):
        ops += [xi_operator(s, j), xi_bar_operator(s, j), e_operator(s, j),
                partial_operator(s, j), partial_bar_operator(s, j)]
    rng = np.random.default_rng(11)
    cols = rng.integers(s.freq_count, size=s.type_count) * s.type_count + np.arange(s.type_count)
    mats = [dense(op) for op in ops]
    return s, [(op, A, np.abs(A).max()) for op, A in zip(ops, mats)], cols


def _close(got, want, scale):
    """Entrywise agreement to 1e-12 relative to the operands' largest entry."""
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_composition_matches_dense_product(generic_algebra):
    s, ops, cols = generic_algebra
    unit = np.eye(s.dim)[:, cols]
    for (a, A, amax), (b, B, bmax) in itertools.product(ops, repeat=2):
        Bc = B[:, cols]
        rows = np.any(Bc, axis=1)  # the other rows of Bc add exact zeros to A @ Bc
        _close(apply_operator(a @ b, unit), A[:, rows] @ Bc[rows], amax * bmax)


def test_sum_matches_dense_sum(generic_algebra):
    s, ops, cols = generic_algebra
    unit = np.eye(s.dim)[:, cols]
    for (a, A, amax), (b, B, bmax) in itertools.combinations_with_replacement(ops, 2):
        _close(apply_operator(a + b, unit), A[:, cols] + B[:, cols], max(amax, bmax))


def test_adjoint_matches_dense_adjoint(generic_algebra):
    s, ops, _ = generic_algebra
    g = np.tile(s.gram, s.freq_count)
    for a, A, amax in ops:
        _close(dense(adjoint(a)), (A.conj().T * g) / g[:, None], amax)


_factor = st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2 * math.pi),
                    st.floats(-1.0, 1.0), st.floats(0.5, 2.0))


def _torus(factors):
    """Per factor (r, theta, x, y), weight: w1 = r e^(i theta), w2 = w1 (x + i y)."""
    lattices = []
    for (r, theta, x, y), _ in factors:
        w1 = r * complex(math.cos(theta), math.sin(theta))
        lattices.append((w1, w1 * complex(x, y)))
    return FlatTorus(tuple(lattices), tuple(w for _, w in factors))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_factor, st.floats(0.5, 2.0)), min_size=1, max_size=2),
       st.integers(0, 1))
def test_random_flat_tori(factors, truncation):
    """Weights in [0.5, 2]."""
    s = build_space(_torus(factors), truncation)
    assert verify_refined_identities(s).passed
    assert verify_laplacian_sum(s).passed
    assert coefficients(laplacian_d(s)) == coefficients(laplacian(d_operator(s)))
    for alpha, beta in s.types:
        assert harmonic_space(s, alpha, beta).dim == 1


def _without_alpha_sign(xi_bar):
    """xi_bar_operator without the sign (-1)^|alpha| of its source type."""
    def mutated(space, j):
        op = xi_bar(space, j)
        return replace(op, blocks={
            (dst, src): {e: (-1) ** sum(space.types[src][0]) * c for e, c in p.items()}
            for (dst, src), p in op.blocks.items()})
    return mutated


def _without_swap(adj):
    """adjoint without the swap of z_j and conj(z_j)."""
    def mutated(op):
        n = op.space.torus.n
        out = adj(op)
        return replace(out, blocks={key: {e[n:] + e[:n]: c for e, c in p.items()}
                                    for key, p in out.blocks.items()})
    return mutated


def _laplacian_verdict(space):
    """verify_laplacian_sum's verdict, False when laplacian_d finds a
    cross term that is not exactly zero."""
    try:
        return verify_laplacian_sum(space).passed
    except DegenerateInputError:
        return False


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_factor, st.fractions(Fraction(1, 20), 20, max_denominator=60)),
                min_size=1, max_size=4))
def test_identities_exact_on_random_rational_weights(factors):
    """Truncation 0, where every multiplier but the constant ones vanishes,
    so only the coefficients can decide: the anticommutators, all cross
    terms, Delta_d = 2 sum_j Delta_xi_j and Delta_d = 2 Delta_del hold
    exactly, laplacian_d is laplacian(d) coefficient by coefficient, and
    dropping xibar's sign (-1)^|alpha| or the adjoint's swap of z_j and
    conj(z_j) each fails the Laplacian check."""
    torus = _torus(factors)
    s = build_space(torus, 0)
    ident = verify_refined_identities(s)
    assert ident.passed and ident.max_residual == 0.0
    lap = verify_laplacian_sum(s)  # laplacian_d raises unless every cross term is zero
    assert lap.passed and lap.sum_residual == lap.dolbeault_residual == 0.0
    assert coefficients(laplacian_d(s)) == coefficients(laplacian(d_operator(s)))
    with mock.patch.object(flat, "xi_bar_operator", _without_alpha_sign(flat.xi_bar_operator)):
        assert not _laplacian_verdict(build_space(torus, 0))
    with mock.patch.object(flat, "adjoint", _without_swap(flat.adjoint)):
        assert not _laplacian_verdict(build_space(torus, 0))


@pytest.mark.parametrize("step", ["verify_laplacian_sum", "harmonic_space"])
def test_flat_reductions_bound_peak_memory(step):
    """tracemalloc's peak, which counts numpy's buffers, over one step on a
    fresh space at (n, N) = (3, 2), dimension 10^6: about 30 MB when the
    reductions formed whole (freq_count, type_count) arrays, about 4 MB
    block by block."""
    s = build_space(FlatTorus.square(3, (1.0, 2.0, 3.0)), 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if step == "verify_laplacian_sum":
            assert verify_laplacian_sum(s).passed
        else:
            assert harmonic_space(s, (1, 0, 0), (0, 1, 1)).dim == 1
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
