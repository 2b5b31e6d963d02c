import mpmath as mp
import pytest

from conftest import subspace_distance, subspace_residual
from plectic import cxlinalg as cx
from plectic.config import working_precision
from plectic.errors import DegenerateInputError, InputError
from plectic.hodge import (
    Bidegree,
    PlecticHodgeStructure,
    elliptic_h1,
    hodge_filtration,
    is_effective_weight_one,
    tensor,
    validate,
)
from plectic.lattices import IntMatrix
from plectic.numberfields import FieldOrder
from plectic.shimura import (
    CupOperator,
    StronglyPrimitiveDatum,
    build_plectic_from_frobenii,
    character_decompose,
    nu_hodge_structure,
    plectic_jacobian_qsv,
    strongly_primitive,
    _hecke_rm,
)
from plectic.tori import (
    ComplexTorus,
    construct_rm_torus,
    dual_torus,
    power_torus,
    tori_isomorphic,
)

FLIP = IntMatrix.from_rows([[1, 0], [0, -1]])
I2 = IntMatrix.identity(2)


def elliptic_datum():
    return StronglyPrimitiveDatum(1, (FLIP,), cx.mpm([[1], [mp.mpc(0, 1)]]))


def tensor_datum(hecke=()):
    W = cx.kron(cx.mpm([[1], [mp.mpc(0, 1)]]), cx.mpm([[1], [mp.mpc(0, 1)]]))
    return StronglyPrimitiveDatum(2, (FLIP.kron(I2), I2.kron(FLIP)), W, hecke)


def rm_surface_datum():
    """r=2, h=2: tensor of the degree-one structure of an RM abelian
    surface (purely imaginary moduli, so conjugation preserves the
    lattice) with a square elliptic curve; carries a Hecke operator
    realizing multiplication by sqrt(2)."""
    O2 = FieldOrder.quadratic_maximal(2)
    A = construct_rm_torus(O2, [mp.mpc(0, 1), mp.mpc(0, "1.5")])
    W_A = A.periods.T  # rows of the period matrix span H^{1,0} in dual coords
    fr_A = IntMatrix.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    t_A = A.rm.action[1].transpose()
    frob1 = fr_A.kron(I2)
    frob2 = IntMatrix.identity(4).kron(FLIP)
    W = cx.kron(W_A, cx.mpm([[1], [mp.mpc(0, 1)]]))
    hecke = (t_A.kron(I2),)
    return StronglyPrimitiveDatum(2, (frob1, frob2), W, hecke), O2


def test_datum_validation():
    with pytest.raises(InputError):
        StronglyPrimitiveDatum(1, (IntMatrix.from_rows([[1, 1], [0, 1]]),),
                               cx.mpm([[1], [mp.mpc(0, 1)]]))
    with pytest.raises(InputError):
        StronglyPrimitiveDatum(1, (FLIP,), cx.mpm([[1], [0], [0]]))


def test_build_elliptic():
    phs = build_plectic_from_frobenii(elliptic_datum())
    h = elliptic_h1(1, mp.mpc(0, 1))
    for bd in phs.pieces:
        assert subspace_distance(phs.pieces[bd], h.pieces[bd]) < mp.mpf("1e-30")


def test_build_identity_translate_is_holo():
    d = tensor_datum()
    phs = build_plectic_from_frobenii(d)
    assert subspace_distance(phs.pieces[Bidegree((1, 1), (0, 0))], d.holo) == 0


def test_build_tensor_equals_tensor_structure():
    phs = build_plectic_from_frobenii(tensor_datum())
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    for bd in phs.pieces:
        assert subspace_distance(phs.pieces[bd], t.pieces[bd]) < mp.mpf("1e-30")


def test_build_rejects_incompatible_holo():
    bad = StronglyPrimitiveDatum(1, (FLIP,), cx.mpm([[1], [mp.mpc("0.5", "1")]]))
    with pytest.raises(DegenerateInputError):
        build_plectic_from_frobenii(bad)


def test_frobenii_permute_pieces():
    d = tensor_datum()
    phs = build_plectic_from_frobenii(d)
    with working_precision():
        for mu in range(d.r):
            fr = cx.mpm(d.frobenii[mu].entries)
            for bd, basis in phs.sorted_pieces():
                beta2 = tuple(
                    (b + (1 if k == mu else 0)) % 2 for k, b in enumerate(bd.beta)
                )
                target = phs.pieces[Bidegree(tuple(1 - b for b in beta2), beta2)]
                assert subspace_distance(fr * basis, target) < mp.mpf("1e-30")


def test_nu_structure_matches_filtration():
    d = tensor_datum()
    ns = nu_hodge_structure(d, 1)
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    F = hodge_filtration(t, 1)
    assert ns.pieces[(1, 0)].cols == d.rank // 2
    assert subspace_distance(ns.pieces[(1, 0)], F) < mp.mpf("1e-30")


def test_nu_structure_excludes_nu_itself():
    d = tensor_datum()
    ns = nu_hodge_structure(d, 1)
    with working_precision():
        fr1 = cx.mpm(d.frobenii[0].entries)
        F1 = ns.pieces[(1, 0)]
        # Fr_nu swaps the beta_nu bit, so it does not preserve F^{1_nu}
        assert subspace_residual(fr1 * F1, F1) > mp.mpf("0.5")


def test_character_decompose_elliptic_trivial():
    chars = character_decompose(elliptic_datum(), 1)
    assert list(chars.keys()) == [()]
    assert chars[()].rows == 2


def test_character_decompose_tensor():
    chars = character_decompose(tensor_datum(), 1)
    assert sorted(chars.keys()) == [(-1,), (1,)]
    assert all(b.rows == 2 for b in chars.values())
    total = sum(b.rows for b in chars.values())
    assert total == 4


def test_character_pieces_are_eigenspaces():
    d = tensor_datum()
    chars = character_decompose(d, 1)
    fr2 = d.frobenii[1]
    for chi, basis in chars.items():
        for row in basis.entries:
            assert fr2.apply(row) == tuple(chi[0] * x for x in row)


def extra_piece_cup():
    """A rank-6 structure, E x E plus a (0, 0) piece on two extra
    coordinates, and the nonzero cup that kills exactly that piece."""
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    pieces = {}
    for bd, B in t.sorted_pieces():
        pieces[bd] = cx.mpm([[B[i, j] for j in range(B.cols)] for i in range(4)]
                            + [[0], [0]])
    extra = cx.mpm([[0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])
    pieces[Bidegree((0, 0), (0, 0))] = extra
    hbig = PlecticHodgeStructure(2, 6, pieces)
    tgt = PlecticHodgeStructure(2, 2, {
        Bidegree((1, 0), (1, 0)): cx.mpm([[1, 0], [0, 1]]),
    })
    cup = CupOperator(1, IntMatrix.from_rows([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]), tgt)
    return hbig, cup


def test_strongly_primitive_drops_extra_piece():
    hbig, cup = extra_piece_cup()
    out = strongly_primitive(hbig, [cup])
    assert out.rank == 4
    assert is_effective_weight_one(out)
    assert validate(out).passed


def test_strongly_primitive_zero_cups_identity():
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    tgt = PlecticHodgeStructure(2, 2, {
        Bidegree((1, 0), (1, 0)): cx.mpm([[1, 0], [0, 1]]),
    })
    out = strongly_primitive(t, [CupOperator(1, IntMatrix.zeros(2, 4), tgt)])
    assert out.rank == t.rank
    assert {bd.key() for bd in out.pieces} == {bd.key() for bd in t.pieces}


def test_strongly_primitive_rejects_non_morphism():
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    tgt = PlecticHodgeStructure(2, 2, {
        Bidegree((1, 0), (1, 0)): cx.mpm([[1, 0], [0, 1]]),
    })
    bad = CupOperator(1, IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0]]), tgt)
    with pytest.raises(DegenerateInputError):
        strongly_primitive(t, [bad])


@pytest.mark.parametrize("pieces,message", [
    ({Bidegree((1, 0), (1, 0)): [[1], [0]]}, "cup target pieces do not fill the space"),
    ({Bidegree((1, 0), (1, 0)): [[1], [0]], Bidegree((0, 1), (0, 1)): [[2], [0]]},
     "cup target pieces are linearly dependent"),
], ids=["not-filling", "dependent"])
def test_cup_target_pieces_must_be_a_basis(pieces, message):
    """The target's pieces are factored once, before any image is read, so
    even a zero cup needs them to be a basis of the target."""
    t = tensor(elliptic_h1(1, mp.mpc(0, 1)), elliptic_h1(1, mp.mpc(0, 1)))
    tgt = PlecticHodgeStructure(2, 2, {bd: cx.mpm(b) for bd, b in pieces.items()})
    with pytest.raises(DegenerateInputError, match=message):
        strongly_primitive(t, [CupOperator(1, IntMatrix.zeros(2, 4), tgt)])


def test_dependent_translates_are_rejected():
    """Holomorphic line (1, 0) under the flip: F^1 equals its conjugate, and
    both the structure and the nu-th structure reject the datum."""
    d = StronglyPrimitiveDatum(1, (FLIP,), cx.mpm([[1], [0]]))
    for build in (build_plectic_from_frobenii, lambda d: nu_hodge_structure(d, 1)):
        with pytest.raises(DegenerateInputError,
                           match="involution translates do not span in direct sum"):
            build(d)


def test_qsv_jacobian_elliptic():
    res = plectic_jacobian_qsv(elliptic_datum(), 1)
    E = ComplexTorus(1, cx.mpm([[1, mp.mpc(0, 1)]]))
    ok, _, _, _ = tori_isomorphic(res.torus, dual_torus(E))
    assert ok
    assert list(res.certificates.keys()) == [()]
    cert = res.certificates[()]
    assert cert.field.degree == 1 and cert.residual < mp.mpf("1e-20")


def test_qsv_jacobian_tensor_formula():
    res = plectic_jacobian_qsv(tensor_datum(), 1)
    E = ComplexTorus(1, cx.mpm([[1, mp.mpc(0, 1)]]))
    ok, _, _, resid = tori_isomorphic(res.torus, power_torus(dual_torus(E), 2))
    assert ok and resid < mp.mpf("1e-9")
    assert len(res.certificates) == 2 and not res.skipped


def test_qsv_jacobian_rm_surface_certificates():
    d, O2 = rm_surface_datum()
    phs = build_plectic_from_frobenii(d)
    assert validate(phs).passed
    chars = character_decompose(d, 1)
    assert all(b.rows == 4 for b in chars.values())
    res = plectic_jacobian_qsv(d, 1)
    assert len(res.certificates) == 2 and not res.skipped
    for cert in res.certificates.values():
        assert cert.field.degree == 2
        assert cert.field.min_poly == (1, 0, -2)
        assert cert.residual < mp.mpf("1e-9")
        assert all(mp.im(z) > 0 for z in cert.z)


def test_hecke_restriction_skips_operators_without_rm():
    """All Hecke operators are restricted by one solve; the identity
    restricts to a scalar, which generates no real quadratic field, so
    the next operator's restriction is the one used."""
    d, O2 = rm_surface_datum()
    d2 = StronglyPrimitiveDatum(d.r, d.frobenii, d.holo, (IntMatrix.identity(d.rank),) + d.hecke)
    for basis in character_decompose(d, 1).values():
        rm = _hecke_rm(d2, basis, None)
        assert rm == _hecke_rm(d, basis, None)
        assert rm.field.min_poly == O2.min_poly


def test_hecke_must_commute():
    bad_hecke = IntMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        StronglyPrimitiveDatum(1, (FLIP,), cx.mpm([[1], [mp.mpc(0, 1)]]), (bad_hecke,))
