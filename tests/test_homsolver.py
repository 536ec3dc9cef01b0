"""Morphism-space solver: hom bases, kernels/images/cokernels with induced
coactions, exactness reports, isomorphism search."""
from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercomod.bialgebra import get_preset
from supercomod.comodule import (
    Comodule,
    direct_sum,
    identity_morphism,
    simple_comodule,
    tensor,
    zero_morphism,
)
from supercomod.homsolver import (
    cokernel,
    equalizer,
    find_isomorphism,
    hom_space,
    image,
    is_exact,
    is_isomorphism,
    is_short_exact,
    kernel,
)
from supercomod.objects import (
    build_F,
    build_J,
    build_Jn,
    build_PhiF,
    cap_morphism,
    psi_H,
    theta_J,
    u_suspension_iso,
    verschiebung,
    xi0_multiplication,
)

BBAR3 = get_preset("bbar", 3)


def test_hom_F11_J02():
    hs = hom_space(build_F(3, 1, 1, 40), build_J(3, 0, 2))
    assert hs.dim == 1
    f = hs.basis[0]
    assert f.check() == []
    assert not f.is_zero()


def test_hom_between_disjoint_simples():
    S1 = simple_comodule(BBAR3, (1, 0))
    S2 = simple_comodule(BBAR3, (0, 1))
    assert hom_space(S1, S2).dim == 0


def test_end_of_theta_J01():
    T = theta_J(3, 0, 1)
    hs = hom_space(T, T)
    assert hs.dim == 1


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_representability_both_sides(a, b):
    PH = psi_H(3, 30)
    expected = PH.dim((a, b))
    assert hom_space(build_F(3, a, b, 30), PH).dim == expected
    assert hom_space(PH, build_J(3, a, b)).dim == expected


def test_hom_space_basis_members_are_morphisms():
    hs = hom_space(build_J(3, 0, 3), build_J(3, 0, 1))
    assert hs.dim == 1
    for f in hs.basis:
        assert f.check() == []


def test_kernel_of_identity_is_zero():
    J = build_J(3, 0, 1)
    K, _ = kernel(identity_morphism(J))
    assert K.poincare() == {}


def test_kernel_of_verschiebung():
    K, inc = kernel(verschiebung(3, 1))
    assert K.poincare() == {(0, 3): 1, (1, 2): 1}
    assert K.validate() == []
    assert inc.check() == []


def test_image_of_cap():
    I, inc = image(cap_morphism(3, "t0"))
    assert I.poincare() == {(1, 0): 1}
    assert I.validate() == []
    assert inc.check() == []


def test_rank_nullity():
    f = verschiebung(3, 1)
    K, _ = kernel(f)
    I, _ = image(f)
    for d in f.source.degrees():
        assert K.dim(d) + I.dim(d) == f.source.dim(d)


def test_cokernel_of_xi0_multiplication():
    Q, pr = cokernel(xi0_multiplication(3, 3))
    assert Q.poincare() == {(1, 0): 1, (0, 1): 1}
    assert Q.validate() == []
    assert pr.check() == []
    # projection is surjective degreewise
    for d in Q.degrees():
        assert pr.block(d).rank() == Q.dim(d)


def test_hom_space_on_a_cokernel():
    # The induced coaction of a quotient carries numpy integer coefficients.
    Q, _ = cokernel(xi0_multiplication(3, 3))
    hs = hom_space(Q, Q)
    assert hs.dim == 1
    assert is_isomorphism(hs.basis[0]) and hs.basis[0].check() == []
    assert hom_space(Q, build_J(3, 1, 0)).dim == 1
    assert hom_space(build_J(3, 1, 0), Q).dim == 0


def test_equalizer_of_identities_is_source():
    J = build_J(3, 0, 3)
    E, _ = equalizer(identity_morphism(J), identity_morphism(J))
    assert E.poincare() == J.poincare()


def test_equalizer_with_zero_is_kernel():
    f = verschiebung(3, 1)
    E, _ = equalizer(f, zero_morphism(f.source, f.target))
    K, _ = kernel(f)
    assert E.poincare() == K.poincare()


def test_mahowald_instance_short_exact():
    f = xi0_multiplication(3, 3)
    g = verschiebung(3, 1)
    report = is_short_exact(f, g)
    assert report.ok, report.failures
    # dims add up: 2 + 2 = 4
    assert sum(f.source.poincare().values()) + sum(g.target.poincare().values()) \
        == sum(f.target.poincare().values())


def test_exactness_failure_reports_witness():
    f = xi0_multiplication(3, 3)
    report = is_exact([f, identity_morphism(f.target)])
    assert not report.ok
    assert any("composite" in msg or "dim im" in msg for msg in report.failures)


def test_guards_compare_coactions_not_just_components():
    J = build_J(3, 0, 2)
    # same components, coaction split into its diagonal part
    N = Comodule(J.preset, J.components,
                 {lab: [t for t in terms if t[1] == lab] for lab, terms in J.coaction.items()},
                 box=None)
    reordered = Comodule(J.preset, J.components,
                         {lab: terms[::-1] for lab, terms in J.coaction.items()}, box=None)
    other_preset = Comodule(get_preset("b", 3), J.components, J.coaction, box=None)
    assert N.components == J.components and N.coaction != J.coaction
    assert reordered.coaction != J.coaction  # same terms, another order
    assert J.matches(reordered) and J.matches(build_J(3, 0, 2))
    assert not J.matches(N) and not J.matches(other_preset)
    idJ, idN = identity_morphism(J), identity_morphism(N)
    with pytest.raises(ValueError, match="composition mismatch"):
        idJ.compose(idN)
    with pytest.raises(ValueError, match="composition mismatch"):
        idJ.compose(identity_morphism(other_preset))
    assert idJ.compose(identity_morphism(reordered)).blocks == idJ.blocks
    with pytest.raises(ValueError, match="shared source"):
        equalizer(idJ, idN)
    report = is_exact([idN, idJ])
    assert not report.ok and report.failures == ["joint 0: target/source mismatch"]
    E, _ = equalizer(idJ, identity_morphism(reordered))
    assert E.poincare() == J.poincare()


def test_trivial_complex_exact():
    J = build_J(3, 0, 2)
    S = simple_comodule(BBAR3, (0, 0))
    # im(id) = J = ker(J -> 0), so the joint is exact
    assert is_exact([identity_morphism(J), zero_morphism(J, S)]).ok
    # im(0 -> J) = 0 = ker(id)
    assert is_exact([zero_morphism(S, J), identity_morphism(J)]).ok


def test_isomorphism_predicate():
    assert is_isomorphism(identity_morphism(build_J(3, 0, 4)))
    assert is_isomorphism(xi0_multiplication(3, 2))
    assert not is_isomorphism(xi0_multiplication(3, 3))
    assert is_isomorphism(u_suspension_iso(3, 2))


def test_tensor_splitting_J11():
    T = tensor(build_J(3, 1, 0), build_J(3, 0, 1))
    iso = find_isomorphism(build_J(3, 1, 1), T)
    assert iso is not None
    assert iso.check() == []
    assert is_isomorphism(iso)


def test_brown_gitler_even_instance():
    iso = find_isomorphism(theta_J(3, 0, 2), build_Jn(3, 4))
    assert iso is not None and is_isomorphism(iso)


def test_brown_gitler_n32_is_certified():
    hs = hom_space(theta_J(3, 0, 32), build_Jn(3, 64))
    assert hs.dim == 1
    f = hs.basis[0]
    assert is_isomorphism(f)
    assert f.check() == []


ORACLE_BOX = 14


def _standard_object(p: int, kind: str, a: int, b: int):
    if kind == "J":
        return build_J(p, a, b)
    if kind == "F":
        return build_F(p, a, b, ORACLE_BOX)
    if kind == "S":
        return simple_comodule(get_preset("bbar", p), (a, b))
    return psi_H(p, ORACLE_BOX)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5]),
       parts=st.lists(st.tuples(st.sampled_from("JFSH"), st.integers(0, 2),
                                st.integers(0, 3)), min_size=1, max_size=3),
       combine=st.sampled_from(["tensor", "sum"]),
       a=st.integers(0, 2), b=st.integers(0, 3))
def test_cofree_and_representability_oracles(p, parts, combine, a, b):
    """dim hom(M, J(a,b)) = dim M_(a,b) = dim hom(F(a,b), M), counted by a
    route that shares no code with the solver."""
    mods = [_standard_object(p, *part) for part in parts]
    M = mods[0]
    if combine == "sum":
        M = direct_sum(mods)
    else:
        for N in mods[1:]:
            M = tensor(M, N)
    expected = M.dim((a, b))
    assert hom_space(M, build_J(p, a, b)).dim == expected
    assert hom_space(build_F(p, a, b, ORACLE_BOX), M).dim == expected


def test_phi_F2_sits_in_sequence():
    K, inc = build_PhiF(3, 2, 24)
    assert K.poincare() == {
        (1, 1): 1, (1, 3): 1, (1, 9): 1,
        (0, 4): 1, (0, 10): 1, (0, 12): 1,
    }
    assert K.validate() == []
    assert inc.check() == []


def test_hom_space_logs_system_size(caplog):
    with caplog.at_level(logging.DEBUG, logger="supercomod"):
        hom_space(build_F(3, 1, 1, 40), build_J(3, 0, 2))
    solver, hom = caplog.records
    assert solver.name == "supercomod.fplinalg"
    for word in ("rows given", "unique", "nnz"):
        assert word in solver.getMessage()
    assert hom.name == "supercomod.homsolver"
    for word in ("unknowns", "rows emitted", "rank", "dim 1"):
        assert word in hom.getMessage()


def test_hom_space_respects_box():
    hs = hom_space(build_F(3, 1, 1, 40), build_J(3, 0, 2), box=20)
    assert hs.box == 20
    assert hs.dim == 1
