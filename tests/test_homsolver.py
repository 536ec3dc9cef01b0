"""Morphism-space solver: hom bases, kernels/images/cokernels with induced
coactions, exactness reports, isomorphism verdicts."""
from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercomod.bialgebra import get_preset
from supercomod.comodule import (
    Comodule,
    ComoduleMorphism,
    TrustedRegion,
    direct_sum,
    identity_morphism,
    morphism_from_assignment,
    simple_comodule,
    suspend,
    tensor,
    truncate,
    zero_comodule,
    zero_morphism,
)
from supercomod.fplinalg import FpMatrix
from supercomod.homsolver import (
    _induced,
    cofree_map,
    cokernel,
    equalizer,
    find_isomorphism,
    free_map,
    hom_space,
    image,
    is_exact,
    is_isomorphism,
    is_short_exact,
    kernel,
)
from supercomod.objects import (
    build_F,
    build_H,
    build_J,
    build_Jn,
    build_PhiF,
    canonical_l,
    cap_morphism,
    psi_H,
    theta_J,
    u_suspension_iso,
    verschiebung,
    xi0_multiplication,
)

from support import fp_matrix

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
    # hom_space on a quotient whose coaction `_induced` pushed through a projection
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
    for combine in (idJ.add, idJ.sub):
        with pytest.raises(ValueError, match="addition mismatch"):
            combine(idN)
    assert idJ.add(identity_morphism(reordered)).blocks == idJ.scale(2).blocks
    # one-dimensional comodules in the same degree with different labels
    shifted_J00 = suspend(build_J(3, 0, 0), (0, 1))
    simple = simple_comodule(J.preset, (0, 1), label="e")
    with pytest.raises(ValueError, match="addition mismatch"):
        identity_morphism(shifted_J00).sub(identity_morphism(simple))
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


def test_isomorphism_requires_a_comodule_map():
    # J(0,1) does not split, so identity blocks onto the split sum of its
    # two simples are a degreewise bijection but not a comodule map
    J = build_J(3, 0, 1)
    S = direct_sum([simple_comodule(BBAR3, (0, 1)), simple_comodule(BBAR3, (1, 0))])
    f = ComoduleMorphism(J, S, {d: FpMatrix.identity(3, 1) for d in J.degrees()})
    assert all(f.block(d).rank() == S.dim(d) == J.dim(d) for d in S.degrees())
    assert f.check() != []
    assert not is_isomorphism(f)


def test_tensor_splitting_J11():
    T = tensor(build_J(3, 1, 0), build_J(3, 0, 1))
    verdict, iso = find_isomorphism(build_J(3, 1, 1), T)
    assert verdict == "iso"
    assert iso.check() == []
    assert is_isomorphism(iso)


def test_brown_gitler_even_instance(caplog):
    # the "iso" verdict: Theta J(0,2) -> J(4); Theta J(0,2) has one line in
    # degree 4, where J(4) is cofree, so the closed-form candidate is
    # certified and no system is solved
    with caplog.at_level(logging.DEBUG, logger="supercomod"):
        verdict, iso = find_isomorphism(theta_J(3, 0, 2), build_Jn(3, 4))
    assert verdict == "iso" and is_isomorphism(iso)
    (record,) = caplog.records
    assert record.name == "supercomod.homsolver"
    for word in ("cofree candidate certified", "Theta(J(0,2)) -> J4", "dim"):
        assert word in record.getMessage()


def test_verdict_iso_inside_a_smaller_box():
    # a smaller box is a truncation of the objects; the verdict and the
    # comodule-map check both read it from them
    F = build_F(3, 1, 1, 10)
    T = tensor(build_F(3, 1, 0, 10), build_F(3, 0, 1, 10))
    for M, N in ((F, T), (truncate(F, 6), truncate(T, 6))):
        verdict, iso = find_isomorphism(M, N)
        assert verdict == "iso" and iso.check() == []


def test_verdict_none_by_poincare_tables():
    assert build_J(3, 0, 2).poincare() != build_J(3, 0, 3).poincare()
    assert find_isomorphism(build_J(3, 0, 2), build_J(3, 0, 3)) == ("none", None)


def test_verdict_none_by_a_one_line_hom():
    # equal tables, and every morphism is a multiple of one that is not
    # bijective
    J = build_J(3, 0, 1)
    S = direct_sum([simple_comodule(BBAR3, (0, 1)), simple_comodule(BBAR3, (1, 0))])
    assert J.poincare() == S.poincare()
    hs = hom_space(J, S)
    assert hs.dim == 1 and not is_isomorphism(hs.basis[0])
    assert find_isomorphism(J, S) == ("none", None)


def test_verdict_undecided_is_not_none():
    J = build_J(3, 0, 1)
    D = direct_sum([J, J])
    assert hom_space(D, D).dim == 4
    assert find_isomorphism(D, D) == ("undecided", None)
    # an isomorphism exists all the same
    assert is_isomorphism(identity_morphism(D))


def test_failed_cofree_candidate_falls_back_to_the_solver(caplog):
    # the simples with J(1,1)'s table: the candidate is not an isomorphism,
    # and "none" is proven by the one-line hom space
    J = build_J(3, 1, 1)
    S = direct_sum([simple_comodule(BBAR3, d) for d, n in sorted(J.poincare().items())
                    for _ in range(n)])
    assert S.poincare() == J.poincare()
    assert not is_isomorphism(cofree_map(S, J, S.basis(J.cofree_on)[0]))
    with caplog.at_level(logging.DEBUG, logger="supercomod.homsolver"):
        assert find_isomorphism(S, J) == ("none", None)
    route, hom = caplog.records
    assert "solver after a failed cofree candidate" in route.getMessage()
    assert hom.getMessage().startswith("hom_space")


def test_splitting_of_F_takes_the_free_candidate(caplog):
    # F(1,1) is free on (1,1), where F(1,0) (x) F(0,1) is one line, so the
    # closed-form map of that element is certified and no system is solved
    T = tensor(build_F(3, 1, 0, 10), build_F(3, 0, 1, 10))
    with caplog.at_level(logging.DEBUG, logger="supercomod"):
        verdict, iso = find_isomorphism(build_F(3, 1, 1, 10), T)
    assert verdict == "iso" and is_isomorphism(iso)
    (record,) = caplog.records
    assert "F(1,1) -> F(1,0)(x)F(0,1): free candidate certified" in record.getMessage()


def test_failed_free_candidate_falls_back_to_the_solver(caplog):
    # the simples with F(1,1)'s table: the candidate is not an isomorphism,
    # and "none" is proven by the one-line hom space
    F = build_F(3, 1, 1, 10)
    S = direct_sum([simple_comodule(BBAR3, d) for d, n in sorted(F.poincare().items())
                    for _ in range(n)])
    assert not is_isomorphism(free_map(F, S, S.basis(F.free_on)[0]))
    with caplog.at_level(logging.DEBUG, logger="supercomod.homsolver"):
        assert find_isomorphism(F, S) == ("none", None)
    route, hom = caplog.records
    assert "solver after a failed free candidate" in route.getMessage()
    assert hom.getMessage().startswith("hom_space")


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
    route that shares no code with the solver; and the closed-form maps
    M -> J(a,b) of the dual basis of M_(a,b), and F(a,b) -> M of its basis,
    span the solver's hom spaces."""
    mods = [_standard_object(p, *part) for part in parts]
    M = mods[0]
    if combine == "sum":
        M = direct_sum(mods)
    else:
        for N in mods[1:]:
            M = tensor(M, N)
    expected = M.dim((a, b))
    J, F = build_J(p, a, b), build_F(p, a, b, ORACLE_BOX)

    def rank(maps, degrees):
        if not maps:
            return 0
        rows = [[x for d in degrees for row in f.block(d).to_list() for x in row]
                for f in maps]
        return fp_matrix(p, rows).rank()

    for solved, closed, source, target in (
            (hom_space(M, J).basis, [cofree_map(M, J, g) for g in M.basis((a, b))], M, J),
            (hom_space(F, M).basis, [free_map(F, M, n) for n in M.basis((a, b))], F, M)):
        degrees = [d for d in source.degrees()
                   if d in TrustedRegion(source, target) and target.dim(d)]
        assert len(solved) == expected
        assert rank(closed, degrees) == rank(solved, degrees) \
            == rank(closed + solved, degrees) == expected


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
    hs = hom_space(truncate(build_F(3, 1, 1, 40), 20), build_J(3, 0, 2))
    assert hs.box == 20
    assert hs.dim == 1


def _cut_to_common_bound(*mods):
    """The objects truncated to the bound of their trusted region."""
    bound = TrustedRegion(*mods).bound
    return [truncate(M, bound) for M in mods]


def test_objects_with_different_bounds_are_read_in_their_common_region():
    # every answer on objects stored to different bounds is the answer on
    # the objects truncated to their common bound
    F40, F30 = build_F(3, 1, 1, 40), build_F(3, 1, 1, 30)
    T = tensor(build_F(3, 1, 0, 26), build_F(3, 0, 1, 40))
    zero = zero_comodule(BBAR3)
    for M, N in ((F40, F30), (F40, T), (build_F(3, 1, 1, 22), T)):
        answers = []
        for A, B in ((M, N), _cut_to_common_bound(M, N)):
            verdict, f = find_isomorphism(A, B)
            answers.append((verdict, f.blocks, is_isomorphism(f), f.check(),
                            bool(is_short_exact(zero_morphism(zero, A), f))))
        assert answers[0] == answers[1] and answers[0][0] == "iso", answers
    for M, N in ((F40, F30), (F30, F40),
                 (truncate(psi_H(3, 30), 12), build_J(3, 1, 2))):
        spaces = [hom_space(M, N), hom_space(*_cut_to_common_bound(M, N))]
        assert [s.dim for s in spaces] == [1, 1]
        assert spaces[0].basis[0].blocks == spaces[1].basis[0].blocks
        assert (spaces[0].source, spaces[0].target) == (M, N)
    # over the full algebra a coaction lowers degree by up to one, through
    # w, so a source degree just past the bound reaches into the region
    answers = []
    for M, N in ((build_H(3, 30), build_H(3, 20)),
                 _cut_to_common_bound(build_H(3, 30), build_H(3, 20))):
        f = morphism_from_assignment(M, N, {lab: [(1, lab)] for lab in N.coaction})
        answers.append((f.check(), is_isomorphism(f), [g.blocks for g in hom_space(M, N).basis]))
    assert answers[0] == answers[1] and answers[0][:2] == ([], True), answers
    assert len(answers[0][2]) == 3

    F, S = build_F(3, 4, 0, 40), suspend(build_F(3, 2, 0, 24), (2, 0))
    assert canonical_l(3, 4, 0, 40, target=S).check() == []
    assert canonical_l(3, 4, 0, 40, *_cut_to_common_bound(F, S)).check() == []

    mods = [F40, F30, build_J(3, 1, 1)]
    S, C = direct_sum(mods), direct_sum(_cut_to_common_bound(*mods))
    assert S.matches(C) and (S.box, S.name) == (C.box, C.name)


def test_restrict_cuts_only_an_object_that_may_store_past_the_bound():
    F30, G30, F40 = build_F(3, 1, 1, 30), build_F(3, 0, 1, 30), build_F(3, 1, 1, 40)
    J = build_J(3, 1, 2)  # finite, stored up to total degree 5
    assert TrustedRegion(F30, G30).restrict(F30) is F30
    assert TrustedRegion(F30, J).restrict(J) is J
    assert TrustedRegion(J).restrict(J) is J
    cut = TrustedRegion(F40, F30).restrict(F40)
    assert cut.matches(truncate(F40, 30)) and cut.box == 30
    H = truncate(psi_H(3, 30), 3)  # stored up to total degree 3
    cut = TrustedRegion(H, J).restrict(J)
    assert cut.matches(truncate(J, 3)) and cut.box == 3


# ---------------------------------------------------------------------------
# the sub- and quotient builder


SUBQUOTIENT_BOX = 12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5]),
       source=st.lists(st.tuples(st.sampled_from("JF"), st.integers(0, 2),
                                 st.integers(0, 3)), min_size=1, max_size=2),
       target=st.lists(st.tuples(st.sampled_from("JF"), st.integers(0, 2),
                                 st.integers(0, 3)), max_size=1),
       copies=st.integers(1, 2), data=st.data())
def test_kernel_image_cokernel_of_drawn_morphisms(p, source, target, copies, data):
    """Kernel, image and cokernel of a combination of hom-space basis
    elements are comodules, their maps are comodule maps, and
    0 -> ker f -> M -> N -> coker f -> 0 is exact."""
    def obj(parts):
        mods = [build_J(p, a, b) if kind == "J" else build_F(p, a, b, SUBQUOTIENT_BOX)
                for kind, a, b in parts]
        return mods[0] if len(mods) == 1 else direct_sum(mods)

    M = obj(source * copies)
    # a cofree summand J(d) receives a morphism from M for each basis element
    # of M_d; a copy of M gives blocks of rank above 1
    cofree = [("J", *data.draw(st.sampled_from(M.degrees())))]
    N = obj(target + cofree + source * copies)
    basis = hom_space(M, N).basis
    coeffs = data.draw(st.lists(st.sampled_from([0, 1, p - 1]), min_size=len(basis),
                                max_size=len(basis)))
    f = zero_morphism(M, N)
    for c, g in zip(coeffs, basis):
        f = f.add(g.scale(c))
    K, inc = kernel(f)
    I, incl = image(f)
    Q, pr = cokernel(f)
    for X in (K, I, Q):
        assert X.validate() == []
    for g in (inc, incl, pr):
        assert g.check() == []
    report = is_exact([inc, f, pr])
    assert report.ok, report.failures
    for d in K.degrees():
        assert inc.block(d).rank() == K.dim(d)
    for d in Q.degrees():
        assert pr.block(d).rank() == Q.dim(d)
    for d in f.source.degrees():
        assert I.dim(d) == f.block(d).rank()


def test_subcomodule_builder_rejects_a_span_not_closed():
    J = build_J(3, 0, 1)  # t0 in degree (1,0) coacts onto x0 in degree (0,1)
    t0_only = {(1, 0): fp_matrix(3, [[1]])}
    with pytest.raises(ValueError, match="span not closed.*outside the span"):
        _induced(J, t0_only, t0_only, "S", sub=True)
    # both degrees meet the span, but 0:t0 coacts onto 0:x0, outside it
    J2 = direct_sum([J, J])
    coords = {(1, 0): fp_matrix(3, [[1, 0]]), (0, 1): fp_matrix(3, [[0, 1]])}
    vectors = {d: m.transpose() for d, m in coords.items()}
    with pytest.raises(ValueError, match="span not closed under the coaction at degree"):
        _induced(J2, vectors, coords, "S", sub=True)
