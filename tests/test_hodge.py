import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import projector, subspace_distance, subspace_residual
from plectic import cxlinalg as cx
from plectic.config import resolve_tolerance, working_precision
from plectic.errors import DegenerateInputError, InputError
from plectic.hodge import (
    Bidegree,
    PlecticHodgeStructure,
    check_morphism,
    elliptic_h1,
    hodge_filtration,
    is_effective_weight_one,
    orthogonality_check,
    plectic_jacobian,
    refine_to_classical,
    tensor,
    trivial_structure,
    validate,
)
from plectic.lattices import IntMatrix
from plectic.tori import ComplexTorus, dual_torus, power_torus, tori_isomorphic

TAU1 = mp.mpc("0.3", "1.7")
TAU2 = mp.mpc("-0.2", "0.9")


def broken_symmetry():
    return PlecticHodgeStructure(1, 2, {
        Bidegree((1,), (0,)): cx.mpm([[1], [TAU1]]),
        Bidegree((0,), (1,)): cx.mpm([[1], [TAU2]]),
    })


def test_validate_elliptic_passes():
    rep = validate(elliptic_h1(1, TAU1))
    assert rep.passed
    assert rep.span_defect < mp.mpf("1e-30")
    assert rep.conjugation_residual < mp.mpf("1e-30")


def test_validate_broken_symmetry_fails():
    rep = validate(broken_symmetry())
    assert not rep.passed
    assert rep.conjugation_residual > mp.mpf("0.1")


def test_validate_tensor_closure():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    assert validate(t).passed


def test_validate_dimension_mismatch_raises():
    with pytest.raises(InputError):
        validate(PlecticHodgeStructure(1, 2, {
            Bidegree((1,), (0,)): cx.mpm([[1], [TAU1]]),
        }))


def test_refine_n1_identity():
    h = elliptic_h1(1, TAU1)
    cl = refine_to_classical(h)
    assert {bd.weights: v.cols for bd, v in cl.sorted_pieces()} == {(1, 0): 1, (0, 1): 1}


def test_refine_kunneth_dims():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    cl = refine_to_classical(t)
    dims = {bd.weights: v.cols for bd, v in cl.sorted_pieces()}
    assert cl.n == 1 and dims == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


@pytest.mark.parametrize("h", [
    elliptic_h1(1, TAU1),
    refine_to_classical(tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))),
], ids=["elliptic", "refined-tensor"])
def test_refine_degree_one_keeps_keys_and_bases(h):
    """A classical structure is a plectic one of degree 1, and refining it
    changes nothing: the same keys and the same bases, bit for bit."""
    cl = refine_to_classical(h)
    assert cl.n == 1 and cl.rank == h.rank
    assert cl.pieces.keys() == h.pieces.keys()
    assert all(cl.pieces[bd].tolist() == h.pieces[bd].tolist() for bd in h.pieces)


def test_refine_preserves_total_dimension():
    t = tensor(tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2)), elliptic_h1(1, TAU1))
    cl = refine_to_classical(t)
    assert sum(v.cols for v in cl.pieces.values()) == t.rank == 8


def test_effectivity():
    assert is_effective_weight_one(elliptic_h1(1, TAU1))
    bad = PlecticHodgeStructure(1, 2, {
        Bidegree((2,), (-1,)): cx.mpm([[1], [TAU1]]),
        Bidegree((-1,), (2,)): cx.mpm([[1], [mp.conj(TAU1)]]),
    })
    assert not is_effective_weight_one(bad)
    t3 = tensor(tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2)), elliptic_h1(1, TAU1))
    assert is_effective_weight_one(t3)


def test_filtration_n1():
    h = elliptic_h1(1, TAU1)
    F = hodge_filtration(h, 1)
    assert subspace_distance(F, h.pieces[Bidegree((1,), (0,))]) < mp.mpf("1e-30")


def test_filtration_tensor_formula():
    # F^{1_1}(H1 (x) H2) = F^1 H^1(T_1) (x) H^1(T_2, C)
    h1, h2 = elliptic_h1(1, TAU1), elliptic_h1(1, TAU2)
    t = tensor(h1, h2)
    F = hodge_filtration(t, 1)
    full2 = cx.hstack([h2.pieces[Bidegree((1,), (0,))], h2.pieces[Bidegree((0,), (1,))]])
    want = cx.kron(h1.pieces[Bidegree((1,), (0,))], full2)
    assert F.cols == t.rank // 2 == 2
    assert subspace_distance(F, want) < mp.mpf("1e-30")


def test_filtration_enumeration_and_range():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    F = hodge_filtration(t, 2)
    parts = [t.pieces[Bidegree((1, 1), (0, 0))], t.pieces[Bidegree((0, 1), (1, 0))]]
    assert subspace_distance(F, cx.hstack(parts)) < mp.mpf("1e-30")
    with pytest.raises(InputError):
        hodge_filtration(t, 3)


def test_filtration_half_rank_every_index():
    t3 = tensor(tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2)), elliptic_h1(1, TAU1))
    for j in (1, 2, 3):
        assert hodge_filtration(t3, j).cols == t3.rank // 2


def test_tensor_with_trivial():
    h = elliptic_h1(1, TAU1)
    t = tensor(h, trivial_structure(0))
    assert t.rank == 2 and t.n == 1
    assert {bd.key() for bd in t.pieces} == {((1,), (0,)), ((0,), (1,))}


def test_tensor_rank_four_pieces():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    assert t.rank == 4
    assert all(v.cols == 1 for v in t.pieces.values())
    assert is_effective_weight_one(t)


def test_tensor_associativity_dims():
    a, b, c = elliptic_h1(1, TAU1), elliptic_h1(1, TAU2), elliptic_h1(1, mp.mpc(0, 1))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert {k.key(): v.cols for k, v in left.sorted_pieces()} == \
        {k.key(): v.cols for k, v in right.sorted_pieces()}


def test_jacobian_n1_is_dual_torus():
    h = elliptic_h1(1, TAU1)
    J = plectic_jacobian(h, 1)
    E = ComplexTorus(1, cx.mpm([[1, TAU1]]))
    ok, _, _, resid = tori_isomorphic(J, dual_torus(E))
    assert ok and resid < mp.mpf("1e-30")


def test_jacobian_tensor_product_formula():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    J = plectic_jacobian(t, 1)
    E1 = ComplexTorus(1, cx.mpm([[1, TAU1]]))
    target = power_torus(dual_torus(E1), 2)
    ok, _, _, resid = tori_isomorphic(J, target)
    assert ok and resid < mp.mpf("1e-9")


def test_jacobian_dimension():
    t = tensor(elliptic_h1(1, TAU1), elliptic_h1(1, TAU2))
    for j in (1, 2):
        assert plectic_jacobian(t, j).g == t.rank // 2


def test_jacobian_degenerate_projection():
    hol = cx.mpm([[1], [TAU1]])
    h = PlecticHodgeStructure(1, 2, {
        Bidegree((1,), (0,)): hol,
        Bidegree((0,), (1,)): hol,  # complement coincides with the filtration
    })
    with pytest.raises(DegenerateInputError):
        plectic_jacobian(h, 1)


def test_jacobian_exactly_dependent_pieces_raise():
    # pivot column of the stack [c, y, c, x] is exactly zero at the third step
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    h = PlecticHodgeStructure(2, t.rank, {
        **t.pieces, Bidegree((0, 0), (1, 1)): t.pieces[Bidegree((0, 1), (1, 0))]})
    with pytest.raises(DegenerateInputError):
        plectic_jacobian(h, 2)
    assert validate(h).span_defect == 1


def test_morphism_identity_scalar_swap():
    h = elliptic_h1(1, TAU1)
    assert check_morphism(IntMatrix.identity(2), h, h)
    assert check_morphism(IntMatrix.identity(2).scale(3), h, h)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert not check_morphism(swap, h, h)


def test_morphism_shape_mismatch():
    h = elliptic_h1(1, TAU1)
    t = tensor(h, h)
    with pytest.raises(InputError):
        check_morphism(IntMatrix.identity(2), h, t)


def test_morphism_composition_stability():
    h = elliptic_h1(1, TAU1)
    f = IntMatrix.identity(2).scale(2)
    g = IntMatrix.identity(2).scale(-3)
    assert check_morphism(f, h, h) and check_morphism(g, h, h)
    assert check_morphism(g @ f, h, h)


def test_orthogonality_elliptic_and_tensor():
    h = elliptic_h1(1, TAU1)
    symp = IntMatrix.from_rows([[0, 1], [-1, 0]])
    assert orthogonality_check(h, symp)
    t = tensor(h, elliptic_h1(1, TAU2))
    assert orthogonality_check(t, symp.kron(symp))


def test_orthogonality_random_pairing_fails():
    h = elliptic_h1(1, TAU1)
    assert not orthogonality_check(h, IntMatrix.from_rows([[1, 1], [0, 1]]))


def test_orthogonality_non_perfect_raises():
    h = elliptic_h1(1, TAU1)
    with pytest.raises(DegenerateInputError):
        orthogonality_check(h, IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_validate_names_wrong_sized_conjugate_piece():
    cols = cx.mpm([[1, 0], [TAU1, 1], [0, TAU2]])
    h = PlecticHodgeStructure(1, 3, {
        Bidegree((1,), (0,)): cols,
        Bidegree((0,), (1,)): cx.mpm([[1], [0], [1]]),
    })
    rep = validate(h)
    assert not rep.passed and rep.conjugation_residual == 1
    assert rep.messages == (
        "conjugate piece for ((0,), (1,)) has dimension 2, not 1",
        "conjugate piece for ((1,), (0,)) has dimension 1, not 2",
    )


# The checks as they were made with SVD projectors, kept as references for
# the piece-coordinate checks above.

def reference_validate(h):
    """(span_defect, conjugation_residual) from orthogonal projectors."""
    with working_precision():
        stacked = cx.hstack([v for _, v in h.sorted_pieces()])
        span_defect = cx.frob(mp.eye(h.rank) - projector(stacked))
        conj_res = mp.mpf(0)
        for bd, basis in h.sorted_pieces():
            other = h.pieces.get(bd.conjugate())
            if other is None or other.cols != basis.cols:
                conj_res = mp.mpf(1)
                continue
            d = subspace_distance(cx.conj(basis), other)
            if d > conj_res:
                conj_res = d
    return span_defect, conj_res


def reference_check_morphism(f, src, dst, tol=None):
    tol = resolve_tolerance(tol)
    with working_precision():
        fc = cx.mpm(f.entries)
        for bd, basis in src.sorted_pieces():
            image = fc * basis
            if cx.frob(image) < tol:
                continue
            target = dst.pieces.get(bd)
            if target is None:
                return False
            if subspace_residual(image, target, tol) > tol:
                return False
    return True


def reference_orthogonality_check(h, pairing, tol=None):
    tol = resolve_tolerance(tol)
    with working_precision():
        P = cx.mpm(pairing.entries)
        for bd, basis in h.sorted_pieces():
            others = [v for kd, v in h.sorted_pieces() if kd != bd.complement()]
            if not others:
                continue
            ann = cx.nullspace((P * cx.hstack(others)).T, tol)
            if ann.cols != basis.cols:
                return False
            if subspace_distance(ann, basis, tol) > tol:
                return False
    return True


def failing_part(span_defect, conjugation_residual, tol=None):
    """Which check a structure fails first: span, conjugation or neither."""
    tol = resolve_tolerance(tol)
    if span_defect >= tol:
        return "span"
    return "conjugation" if conjugation_residual >= tol else None


def assert_validate_matches_reference(h):
    rep = validate(h)
    ref = reference_validate(h)
    assert rep.passed == (failing_part(*ref) is None)
    assert failing_part(rep.span_defect, rep.conjugation_residual) == failing_part(*ref)
    return rep


taus = st.builds(mp.mpc, st.floats(-1, 1), st.floats(0.3, 3))


def tensor_of(ts):
    h = elliptic_h1(1, ts[0])
    for t in ts[1:]:
        h = tensor(h, elliptic_h1(1, t))
    return h


def with_piece(h, bd, basis):
    return PlecticHodgeStructure(h.n, h.rank, {**h.pieces, bd: basis})


@settings(max_examples=10, deadline=None)
@given(st.lists(taus, min_size=1, max_size=3), st.data())
def test_validate_agrees_with_projector_reference(ts, data):
    h = tensor_of(ts)
    assert assert_validate_matches_reference(h).passed
    keys = [bd for bd, _ in h.sorted_pieces()]
    bd = data.draw(st.sampled_from(keys))
    nudged = h.pieces[bd].copy()
    nudged[data.draw(st.integers(0, h.rank - 1)), 0] += mp.mpf("1e-3")
    rep = assert_validate_matches_reference(with_piece(h, bd, nudged))
    assert failing_part(rep.span_defect, rep.conjugation_residual) == "conjugation"
    other = data.draw(st.sampled_from([k for k in keys if k != bd]))
    rep = assert_validate_matches_reference(with_piece(h, bd, h.pieces[other]))
    assert failing_part(rep.span_defect, rep.conjugation_residual) == "span"


@pytest.mark.parametrize("ratio,part", [("1e-25", "span"), ("1e-15", None)])
def test_validate_condition_gate_matches_projector_cutoff(ratio, part):
    # the stack [[1, 1], [i r, -i r]] has singular values sqrt(2) and sqrt(2) r
    rep = assert_validate_matches_reference(elliptic_h1(1, mp.mpc(0, mp.mpf(ratio))))
    assert failing_part(rep.span_defect, rep.conjugation_residual) == part


def test_validate_duplicated_real_column_fails_on_span_only():
    col = cx.mpm([[1], [2]])
    h = PlecticHodgeStructure(1, 2, {
        Bidegree((1,), (0,)): col, Bidegree((0,), (1,)): col})
    rep = assert_validate_matches_reference(h)
    assert failing_part(rep.span_defect, rep.conjugation_residual) == "span"


@settings(max_examples=10, deadline=None)
@given(st.lists(taus, min_size=1, max_size=2),
       st.lists(st.integers(-3, 3), min_size=16, max_size=16), st.integers(-4, 4))
def test_check_morphism_agrees_with_projector_reference(ts, entries, k):
    h = tensor_of(ts)
    r = h.rank
    maps = [IntMatrix.identity(r), IntMatrix.identity(r).scale(k),
            IntMatrix.from_rows([[int(i + j == r - 1) for j in range(r)] for i in range(r)]),
            IntMatrix.from_rows([entries[i * r:(i + 1) * r] for i in range(r)])]
    for f in maps:
        assert check_morphism(f, h, h) == reference_check_morphism(f, h, h)
    assert check_morphism(maps[0], h, h) and check_morphism(maps[1], h, h)


@settings(max_examples=10, deadline=None)
@given(st.lists(taus, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)),
                max_size=6))
def test_orthogonality_agrees_with_projector_reference(ts, moves):
    h = tensor_of(ts)
    symp = IntMatrix.from_rows([[0, 1], [-1, 0]])
    power = symp
    for _ in ts[1:]:
        power = power.kron(symp)
    assert orthogonality_check(h, power)
    assert reference_orthogonality_check(h, power)
    rows = [list(row) for row in IntMatrix.identity(h.rank).entries]
    for i, j, c in moves:  # row operations keep the determinant 1
        i, j = i % h.rank, j % h.rank
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    unimodular = IntMatrix.from_rows(rows) @ power
    assert orthogonality_check(h, unimodular) == reference_orthogonality_check(h, unimodular)
