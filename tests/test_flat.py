import itertools
import json
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subspace_distance
from plectic import cxlinalg as cx
from plectic import flat
from plectic.cli import main
from plectic.errors import DegenerateInputError, InputError
from plectic.flat import (
    FlatTorus,
    _residual,
    adjoint,
    build_space,
    d_operator,
    del_operator,
    e_operator,
    extract_plectic_structure,
    harmonic_space,
    hodge_star,
    laplacian_d,
    metric_independence_check,
    partial_bar_operator,
    partial_operator,
    verify_laplacian_sum,
    verify_refined_identities,
    xi_bar_operator,
    xi_operator,
)
from plectic.lattices import fraction_to_mpf

GENERIC = FlatTorus(((1, 0.3 + 1.7j), (1, -0.2 + 0.9j)), (1.0, 1.0))


def frequencies(space):
    """Digits (F, 2n) and coordinates z (F, n) of every frequency in the
    order of the basis: digits in [-N, N], lexicographic, so -m sits at
    F - 1 - m and frequency 0 at (F - 1) / 2.  Factor j's dual generators
    are the columns of the inverse of [[Re w1, Im w1], [Re w2, Im w2]]."""
    n, N = space.torus.n, space.truncation
    digits = np.array(list(itertools.product(range(-N, N + 1), repeat=2 * n)))
    z = np.zeros((len(digits), n), dtype=complex)
    for j, (w1, w2) in enumerate(space.torus.factors):
        w1, w2 = complex(w1), complex(w2)
        D = np.linalg.inv([[w1.real, w1.imag], [w2.real, w2.imag]])
        z[:, j] = digits[:, 2 * j : 2 * j + 2] @ (D[0] + 1j * D[1])
    return digits, z


def multipliers(op):
    """Each block's polynomial at every frequency in double precision: the
    numpy evaluator that the exact coefficients, c / op.den, are checked
    against."""
    _, z = frequencies(op.space)
    variables = np.concatenate([z, z.conj()], axis=1)
    return {key: sum((complex(c) / op.den * (1j * np.pi) ** sum(e)
                      * np.prod(variables ** np.array(e), axis=1)
                      for e, c in p.items()), np.zeros(len(z), dtype=complex))
            for key, p in op.blocks.items()}


def apply(op, vec):
    """op applied to a vector of length dim, or to each column of a (dim, k) array."""
    s = op.space
    v = np.asarray(vec).reshape((s.freq_count, s.type_count) + np.shape(vec)[1:])
    v = np.conj(v) if op.conjugates_argument else v
    out = np.zeros(v.shape, dtype=complex)
    for (dst, src), values in multipliers(op).items():
        out[:, dst] += values.reshape((-1,) + (1,) * (v.ndim - 2)) * v[:, src]
    if op.conjugates_argument:
        out = out[::-1]  # frequency m goes to -m
    return out.reshape(np.shape(vec))


def dense(op):
    """Dense matrix of an operator, column by column from unit vectors."""
    return apply(op, np.eye(op.space.dim))


def maxabs(op):
    """Largest absolute entry of an operator."""
    return max((float(np.abs(v).max()) for v in multipliers(op).values()), default=0.0)


def index(space, freq_idx, type_idx):
    return freq_idx * space.type_count + type_idx


def zero_freq(space):
    return (space.freq_count - 1) // 2


def conjugation(space):
    """Index involution (m, alpha, beta) -> (-m, beta, alpha)."""
    type_map = np.array([space.type_index[(beta, alpha)] for alpha, beta in space.types])
    return (np.arange(space.freq_count)[::-1, None] * space.type_count + type_map).ravel()


def harmonic_vectors(hb):
    """The unit vectors that span a harmonic space, in the ambient form space."""
    s = hb.space
    digits, _ = frequencies(s)
    freqs = np.nonzero(~digits.reshape(s.freq_count, s.torus.n, 2)[:, list(hb.factors)]
                       .any(axis=(1, 2)))[0]
    out = np.zeros((s.dim, len(freqs)), dtype=complex)
    out[index(s, freqs, s.type_index[(hb.alpha, hb.beta)]), np.arange(len(freqs))] = 1.0
    return out


def anticommutator(a, b):
    """a b + b a as one whole operator, from @ and +: the reference that
    the library's column pass is checked against."""
    return a @ b + b @ a


def coefficients(op):
    """The nonzero coefficients of an operator, by block, as the exact
    rationals c / op.den."""
    out = {key: {e: Fraction(c, op.den) for e, c in p.items() if c}
           for key, p in op.blocks.items()}
    return {key: p for key, p in out.items() if p}


def test_space_dimensions():
    assert build_space(FlatTorus.square(1), 0).dim == 4
    assert build_space(FlatTorus.square(2), 1).dim == 3**4 * 16 == 1296


def test_conjugation_involution_squares_to_identity():
    """Conjugation of forms is an involution and commutes with Delta_d,
    which is type-diagonal, so it conjugates Delta_d's matrix."""
    s = build_space(GENERIC, 1)
    inv = conjugation(s)
    assert np.array_equal(inv[inv], np.arange(s.dim))
    digits, _ = frequencies(s)
    assert np.array_equal(digits[::-1], -digits) and not digits[zero_freq(s)].any()
    D = dense(laplacian_d(s))
    assert np.abs(D[np.ix_(inv, inv)] - D.conj()).max() <= 1e-12 * np.abs(D).max()


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
    v[index(s, zero_freq(s), s.type_index[((0,), (0,))])] = 1.0
    assert np.abs(apply(xi_operator(s, 1), v)).max() == 0.0


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
    d = d_operator(s)
    assert coefficients(laplacian_d(s)) == coefficients(d @ adjoint(d) + adjoint(d) @ d)


def test_residual_is_the_largest_row_sum():
    """_residual against row sums over every (frequency, type) pair, on
    operators whose row sums differ by type or whose monomials hold squares
    (Delta_d d), and 0.0 on an exact zero."""
    s = build_space(FlatTorus(((0.8 + 0.3j, -0.2 + 1.1j), (1.1 - 0.4j, 0.5 + 0.9j)), (1.3, 0.7)), 1)
    d = d_operator(s)
    for op in (d, adjoint(d), laplacian_d(s), laplacian_d(s) @ d):
        rowsums = np.zeros((s.freq_count, s.type_count))
        for (dst, _), values in multipliers(op).items():
            rowsums[:, dst] += np.abs(values)
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
    h = harmonic_space(s, (1, 0), (0, 1))
    hc = harmonic_space(s, (0, 1), (1, 0))
    conj = np.conj(harmonic_vectors(h))[conjugation(s), :]
    # spans agree after conjugation and frequency negation
    assert np.linalg.matrix_rank(np.hstack([conj, harmonic_vectors(hc)])) == hc.dim


def test_kernel_of_laplacian_inside_kernel_of_d():
    """Each harmonic space, from the numpy evaluator: Delta_d and d kill
    its vectors, and it is all of Delta_d's kernel on its type."""
    s = build_space(GENERIC, 1)
    d, dd = d_operator(s), laplacian_d(s)
    diagonal = multipliers(dd)
    for t, (alpha, beta) in enumerate(s.types):
        hb = harmonic_space(s, alpha, beta)
        vecs = harmonic_vectors(hb)
        assert np.abs(apply(d, vecs)).max() < 1e-12
        assert np.abs(apply(dd, vecs)).max() < 1e-12
        assert hb.dim == vecs.shape[1] == np.sum(np.abs(diagonal[(t, t)]) < 1e-12) == 1


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
    f0 = zero_freq(s)
    for t, (alpha, beta) in enumerate(s.types):
        k = sum(alpha) + sum(beta)
        v = np.zeros(s.dim, dtype=complex)
        v[index(s, f0, t)] = 1.0
        vv = apply(st, apply(st, v))
        assert abs(vv[index(s, f0, t)] - (-1) ** k) < 1e-12


def test_star_of_one_is_volume_form():
    s = build_space(FlatTorus.square(2, (2.0, 1.0)), 0)
    st = hodge_star(s)
    v = np.zeros(s.dim, dtype=complex)
    t0 = s.type_index[((0, 0), (0, 0))]
    v[index(s, 0, t0)] = 1.0
    img = apply(st, v)
    top = s.type_index[((1, 1), (1, 1))]
    # omega^n/n! = prod_j (i h_j / 2) dz_j dzbar_j, reordered to canonical
    expect = (1j * 2.0 / 2) * (1j * 1.0 / 2) * (-1)  # interleave sign for n=2
    assert abs(img[index(s, 0, top)] - expect) < 1e-14


def test_star_maps_harmonic_type_to_complement():
    s = build_space(GENERIC, 1)
    st = hodge_star(s)
    h = harmonic_space(s, (1, 0), (0, 1))
    img = apply(st, harmonic_vectors(h)[:, 0])
    target = harmonic_vectors(harmonic_space(s, (0, 1), (1, 0)))[:, 0]
    nz = np.nonzero(img)[0]
    assert set(nz) == set(np.nonzero(target)[0])


def test_metric_independence_constant_form():
    """The exact verdict against the numpy evaluator: both metrics'
    Laplacians vanish at the same (frequency, type) pairs, frequency 0 among
    them, so they project the constant forms, and every other form, alike."""
    res = metric_independence_check(GENERIC, (1.0, 1.0), (0.5, 2.5), 1)
    assert res == {"residual": 0.0, "projection_difference": 0.0, "passed": True}
    kernels = []
    for weights in ((1.0, 1.0), (0.5, 2.5)):
        s = build_space(FlatTorus(GENERIC.factors, weights), 1)
        diagonal = multipliers(laplacian_d(s))
        kernels.append(np.stack([np.abs(diagonal[(t, t)]) < 1e-12
                                 for t in range(s.type_count)], axis=1))
    assert np.array_equal(*kernels) and kernels[0][zero_freq(s)].all()


def _drop_square(laplacian_d, weights, j):
    """laplacian_d, except that on the space with these weights type 0's
    diagonal loses its |z_j|^2 term."""
    def mutated(space):
        op = laplacian_d(space)
        if space.torus.weights != weights:
            return op
        n = space.torus.n
        square = tuple(int(i in (j, n + j)) for i in range(2 * n))
        blocks = dict(op.blocks)
        blocks[(0, 0)] = {e: c for e, c in op.blocks[(0, 0)].items() if e != square}
        return replace(op, blocks=blocks)
    return mutated


def test_metric_independence_fails_on_a_changed_kernel(capsys):
    """With one |z_j|^2 dropped from the second metric's Laplacian, its
    kernel on type 0 holds the 3^2 frequencies with z_2 = 0, which the first
    one's does not: the check fails and the CLI exits 1."""
    argv = ["flat", "metric-independence", "--n", "2", "--truncation", "1",
            "--weights-a", "1,1", "--weights-b", "0.5,2.5"]
    with mock.patch.object(flat, "laplacian_d", _drop_square(flat.laplacian_d, (0.5, 2.5), 0)):
        res = metric_independence_check(GENERIC, (1.0, 1.0), (0.5, 2.5), 1)
        code = main(argv)
        s = build_space(FlatTorus(GENERIC.factors, (0.5, 2.5)), 1)
        hb = harmonic_space(s, *s.types[0])
    assert hb.factors == (1,) and hb.dim == harmonic_vectors(hb).shape[1] == 9
    assert res == {"residual": math.inf, "projection_difference": math.inf, "passed": False}
    assert code == 1 and json.loads(capsys.readouterr().out)["payload"]["passed"] is False


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
    twice = apply(2 * star, v)
    assert np.abs(apply(star + star, v) - twice).max() <= 1e-14 * np.abs(twice).max()
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
    """xi_j, xibar_j, e_j, partial_j, partialbar_j (j = 1, 2), d and d* on
    GENERIC at N = 1 with their dense matrices and largest absolute
    entries, and one column per refined type at a seeded frequency.  d*
    has a denominator other than 1, so sums and products mix them."""
    s = build_space(GENERIC, 1)
    ops = [d_operator(s), adjoint(d_operator(s))]
    assert ops[1].den > 1
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
        _close(apply(a @ b, unit), A[:, rows] @ Bc[rows], amax * bmax)


def test_sum_matches_dense_sum(generic_algebra):
    s, ops, cols = generic_algebra
    unit = np.eye(s.dim)[:, cols]
    for (a, A, amax), (b, B, bmax) in itertools.combinations_with_replacement(ops, 2):
        _close(apply(a + b, unit), A[:, cols] + B[:, cols], max(amax, bmax))


def test_adjoint_matches_dense_adjoint(generic_algebra):
    s, ops, _ = generic_algebra
    nums, den = s.slot_factors
    g = np.tile([x / den for x in nums], s.freq_count)
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
    d = d_operator(s)
    assert coefficients(laplacian_d(s)) == coefficients(anticommutator(d, adjoint(d)))
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


def _negated_block(component, k):
    """component (xi_operator or xi_bar_operator) with one block of its
    j = 1 operator, the k-th modulo their number, negated."""
    def mutated(space, j):
        op = component(space, j)
        if j != 1:
            return op
        key = list(op.blocks)[k % len(op.blocks)]
        return replace(op, blocks={**op.blocks, key: {e: -c for e, c in op.blocks[key].items()}})
    return mutated


def _laplacian_verdict(space):
    """verify_laplacian_sum's verdict, False when laplacian_d finds a
    cross term that is not exactly zero."""
    try:
        return verify_laplacian_sum(space).passed
    except DegenerateInputError:
        return False


def _reference_adjoint(space, blocks):
    """The adjoint of Fraction blocks from its definition: block (dst, src)
    becomes block (src, dst), each coefficient times (-1)^|e| G_dst / G_src
    with z_j and conj(z_j) swapped, where G_t is the product of 2 / w_j
    over the set slots of type t."""
    gram = [math.prod(2 / Fraction(w) for w, a, b in zip(space.torus.weights, alpha, beta)
                      for bit in (a, b) if bit)
            for alpha, beta in space.types]
    n = space.torus.n
    return {(src, dst): {e[n:] + e[:n]: (-1) ** sum(e) * c * gram[dst] / gram[src]
                         for e, c in p.items()}
            for (dst, src), p in blocks.items()}


def _reference_product(a, b, out):
    """out with the Fraction blocks of a b (b first) added in."""
    by_mid = {}
    for (dst, mid), pa in a.items():
        by_mid.setdefault(mid, []).append((dst, pa))
    for (mid, src), pb in b.items():
        for dst, pa in by_mid.get(mid, ()):
            acc = out.setdefault((dst, src), {})
            for (ea, ca), (eb, cb) in itertools.product(pa.items(), pb.items()):
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
    return out


_rational_weight = st.one_of(st.fractions(Fraction(1, 20), 20, max_denominator=60),
                             st.sampled_from([1e300, 1e-300]))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_factor, _rational_weight), min_size=1, max_size=4),
       st.integers(0, 2**16))
def test_identities_exact_on_random_rational_weights(factors, k):
    """Truncation 0, where every multiplier but the constant ones vanishes,
    so only the coefficients can decide: the anticommutators, all cross
    terms, Delta_d = 2 sum_j Delta_xi_j and Delta_d = 2 Delta_del hold
    exactly, laplacian_d is d d* + d* d coefficient by coefficient, and
    dropping xibar's sign (-1)^|alpha| or the adjoint's swap of z_j and
    conj(z_j), or negating one block of xibar_1, each fails the Laplacian
    check.  Weights include 1e300 and 1e-300, whose rationals have about
    a thousand bits.  The coefficients
    of xi_j, of its adjoint and of laplacian_d are ints, and over their
    operator's den they equal the Fractions composed from the definition
    G_dst / G_src."""
    torus = _torus(factors)
    s = build_space(torus, 0)
    xis = [xi_operator(s, j + 1) for j in range(s.torus.n)]
    adjs = [adjoint(x) for x in xis]
    reference = {}
    for p in map(coefficients, xis + [xi_bar_operator(s, j + 1) for j in range(s.torus.n)]):
        p_star = _reference_adjoint(s, p)
        reference = _reference_product(p_star, p, _reference_product(p, p_star, reference))
    for op in xis + adjs + [laplacian_d(s)]:
        assert type(op.den) is int and op.den > 0
        assert all(type(c) is int for p in op.blocks.values() for c in p.values())
    for op, want in [(laplacian_d(s), reference)] + [
            (a, _reference_adjoint(s, coefficients(x))) for a, x in zip(adjs, xis)]:
        assert coefficients(op) == {key: {e: c for e, c in p.items() if c}
                                    for key, p in want.items() if any(p.values())}
    ident = verify_refined_identities(s)
    assert ident.passed and ident.max_residual == 0.0
    lap = verify_laplacian_sum(s)  # laplacian_d raises unless every cross term is zero
    assert lap.passed and lap.sum_residual == lap.dolbeault_residual == 0.0
    d = d_operator(s)
    assert coefficients(laplacian_d(s)) == coefficients(anticommutator(d, adjoint(d)))
    with mock.patch.object(flat, "xi_bar_operator", _without_alpha_sign(flat.xi_bar_operator)):
        assert not _laplacian_verdict(build_space(torus, 0))
    with mock.patch.object(flat, "adjoint", _without_swap(flat.adjoint)):
        assert not _laplacian_verdict(build_space(torus, 0))
    with mock.patch.object(flat, "xi_bar_operator", _negated_block(flat.xi_bar_operator, k)):
        assert not _laplacian_verdict(build_space(torus, 0))


def _components(space):
    """The 2n components xi_j and xibar_j of d, each raising one slot,
    read from flat at call time so that a patched constructor is used."""
    n = space.torus.n
    return ([flat.xi_operator(space, j + 1) for j in range(n)]
            + [flat.xi_bar_operator(space, j + 1) for j in range(n)])


def _cross_terms(space):
    """The (2n)(2n - 1) cross terms P_i P_j* + P_j* P_i, i != j, of the
    components P_i of d, each a whole operator a b + b a: the reference
    for what laplacian_d decides blockwise."""
    comps = _components(space)
    adjs = [adjoint(c) for c in comps]
    return [comps[i] @ adjs[j] + adjs[j] @ comps[i]
            for i, j in itertools.permutations(range(len(comps)), 2)]


def _reference_laplacian_d(space):
    """Delta_d as the sum of the diagonal terms P_i P_i* + P_i* P_i, each
    a whole operator a b + b a; DegenerateInputError unless every cross
    term is exactly zero."""
    if not all(op.is_zero() for op in _cross_terms(space)):
        raise DegenerateInputError("Laplacian cross terms failed to anticommute")
    return flat._sum(c @ adjoint(c) + adjoint(c) @ c for c in _components(space))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_factor, _rational_weight), min_size=1, max_size=4),
       st.integers(0, 2**16))
def test_laplacian_pass_decides_each_cross_term_in_its_block(factors, k):
    """Truncation 0, n = 1..4.  The cross terms' blocks (t + e_i - e_j, t)
    are pairwise disjoint and off the diagonal, so the column-wise pass
    sees each cross term alone in its block.  laplacian_d, from the one
    column pass (flat has no _anticommutator), equals the sum of the
    diagonal terms block for block, den included, and raises exactly where
    the reference check finds a cross term that is not zero: on xibar
    without its sign (-1)^|alpha| and with one block of xibar_1 negated."""
    torus = _torus(factors)
    s = build_space(torus, 0)
    cross = _cross_terms(s)
    keys = [set(op.blocks) for op in cross]
    n = s.torus.n
    assert len(cross) == 2 * n * (2 * n - 1) and all(op.is_zero() for op in cross)
    assert all(dst != src for ks in keys for dst, src in ks)
    assert sum(map(len, keys)) == len(set().union(*keys))
    assert not hasattr(flat, "_anticommutator") and not hasattr(flat, "laplacian")
    got = laplacian_d(s)
    want = _reference_laplacian_d(s)
    assert got.blocks == want.blocks and got.den == want.den
    for mutation in (_without_alpha_sign(flat.xi_bar_operator),
                     _negated_block(flat.xi_bar_operator, k)):
        with mock.patch.object(flat, "xi_bar_operator", mutation):
            with pytest.raises(DegenerateInputError):
                _reference_laplacian_d(build_space(torus, 0))
            with pytest.raises(DegenerateInputError, match="failed to anticommute"):
                laplacian_d(build_space(torus, 0))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_factor, _rational_weight), min_size=2, max_size=4),
       st.integers(0, 2**16))
def test_identities_fail_with_the_largest_anticommutator_residual(factors, k):
    """n = 2..4.  Delta_del, the column pass of del, and each
    Delta_{xi_j} equal the whole a a* + a* a, block for block with den.
    With one drawn block of xi_1 negated the refined identities fail, and
    max_residual equals, as a double, the largest _residual over the
    n(n - 1) whole anticommutators xi_j xi_k* + xi_k* xi_j.  At truncation
    0 every R_j is 0, so the coefficients alone decide and every residual
    is 0.0; at truncation 1 the residuals are positive."""
    torus = _torus(factors)
    n = torus.n
    mutated = _negated_block(flat.xi_operator, k)
    for truncation in (0, 1):
        s = build_space(torus, truncation)
        xis = [xi_operator(s, j + 1) for j in range(n)]
        for got, p in [(flat._laplacian_pass(del_operator(s))[0], del_operator(s))] + list(
                zip(flat.xi_laplacians(s), xis)):
            want = anticommutator(p, adjoint(p))
            assert got.den == want.den
            assert got.blocks == {key: q for key, q in want.blocks.items() if any(q.values())}
        with mock.patch.object(flat, "xi_operator", mutated):
            rep = verify_refined_identities(s)
        whole = [anticommutator(x, adjoint(y)) for x, y in
                 itertools.permutations([mutated(s, j + 1) for j in range(n)], 2)]
        assert rep.passed is False
        assert rep.max_residual == max(_residual(op) for op in whole)
        assert (rep.max_residual > 0.0) == (truncation > 0)


def _reference_residual(op):
    """_residual from its per-term formula: per type, the fsum over the
    terms of its blocks of |c| / den pi^|e| prod_j R_j^(e[j] + e[n + j]),
    each term formed anew, at 113 bits."""
    if op.is_zero():
        return 0.0
    n, den = op.space.torus.n, op.den
    with mp.workprec(113):
        radii = [mp.sqrt(fraction_to_mpf(r2)) for r2 in op.space.radii_squared]
        rows = {}
        for (dst, _), p in op.blocks.items():
            rows[dst] = rows.get(dst, 0) + mp.fsum(
                flat._abs_over(c, den) * mp.pi ** sum(e)
                * mp.fprod(radii[k % n] ** power for k, power in enumerate(e))
                for e, c in p.items())
        return float(max(rows.values()))


@pytest.mark.parametrize("weights", [(0.9123, 1.1011, 1.0571), (1e300, 1e-300, 1.0)],
                         ids=["near-one", "extreme"])
def test_residual_is_its_per_term_formula_bit_for_bit(weights):
    """_residual, which forms each distinct term once, against the fsum of
    every term formed anew: equal as doubles, on d, d*, Delta_d d and the
    half-coefficient difference of the Laplacian report, and on d + d*,
    where one monomial z_j carries two sizes of coefficient (1 from xibar_j,
    G_dst / G_src from xi_j*), so a term looked up by its monomial alone
    would be wrong."""
    s = build_space(FlatTorus.square(3, weights), 1)
    d = d_operator(s)
    half = laplacian_d(s) - Fraction(1, 2) * flat._sum(flat.xi_laplacians(s))
    for op in (d, adjoint(d), laplacian_d(s) @ d, half, d + adjoint(d)):
        got = _residual(op)
        assert got > 0.0 and got == _reference_residual(op)


@pytest.mark.parametrize("step,n,N", [("verify_laplacian_sum", 3, 2), ("harmonic_space", 3, 2),
                                      ("verify_laplacian_sum", 5, 0),
                                      ("verify_refined_identities", 5, 0)],
                         ids=["verify_laplacian_sum", "harmonic_space", "verify_laplacian_sum-5-0",
                              "verify_refined_identities-5-0"])
def test_flat_reductions_bound_peak_memory(step, n, N):
    """tracemalloc's peak over one step on a fresh space.  At (n, N) =
    (3, 2), dimension 10^6, the steps hold operator coefficients and no
    arrays over the frequencies, about 0.4 MB; an array of one complex
    double per basis element alone would take 16 MB.  At (5, 0), 1,024
    refined types, the Laplacian check peaks near 6 MB and the refined
    identities, the pass over del alone, near 3.5 MB; a whole d d*
    operator held at once would peak near 17 MB."""
    s = build_space(FlatTorus.square(n, (1.0, 2.0, 3.0, 0.7, 1.3)[:n]), N)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if step == "verify_laplacian_sum":
            assert verify_laplacian_sum(s).passed
        elif step == "verify_refined_identities":
            assert verify_refined_identities(s).passed
        else:
            assert harmonic_space(s, (1, 0, 0), (0, 1, 1)).dim == 1
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
