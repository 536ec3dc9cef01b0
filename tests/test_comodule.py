"""Tests for the generic comodule layer: validation, tensor/suspend/dual,
corestrictions, truncation, morphisms, actions, and Poincare tables."""

from __future__ import annotations

import pytest

from supercomod.bialgebra import (
    Monomial,
    coproduct,
    format_monomial,
    get_preset,
    mono_tau,
    mono_u,
    mono_xi,
    parse_monomial,
)
from supercomod.comodule import (
    Comodule,
    ComoduleMorphism,
    action_composite,
    corestrict_psi,
    corestrict_theta,
    direct_sum,
    dualize_left,
    embed_xi_polynomial,
    identity_morphism,
    instability_check,
    morphism_from_assignment,
    poincare_product,
    poincare_theta,
    simple_comodule,
    steenrod_action,
    summand_inclusion,
    summand_projection,
    suspend,
    tensor,
    truncate,
    zero_comodule,
)
from supercomod.fplinalg import FpMatrix

from support import closure_dims, operation_closure, poincare_shift

BBAR3 = get_preset("bbar", 3)
AT3 = get_preset("atilde", 3)


def ts(s):
    return parse_monomial(s)


# ---------------------------------------------------------------------------
# simples and validation


def test_simple_comodule_validates():
    S = simple_comodule(BBAR3, (1, 2))
    assert S.validate() == []
    assert S.poincare() == {(1, 2): 1}
    ((c, lab, b),) = S.coaction["e"]
    assert (c, lab, b) == (1, "e", ts("u*x0^2"))


def test_simple_single_graded():
    S = simple_comodule(AT3, 3)
    assert S.validate() == []
    assert S.coaction["e"] == ((1, "e", ts("u^3")),) or S.coaction["e"] == [
        (1, "e", ts("u^3"))
    ]


def test_zero_comodule_validates():
    assert zero_comodule(BBAR3).validate() == []


def test_validate_catches_wrong_counit():
    # psi(m) = m (x) t0 has the right degrees but epsilon(t0) = 0
    M = Comodule(
        BBAR3,
        {(1, 0): ["m"]},
        {"m": [(1, "m", mono_tau(0))]},
        box=None,
    )
    errs = M.validate()
    assert errs and any("counit" in e for e in errs)


def test_validate_catches_inhomogeneous_term():
    M = Comodule(
        BBAR3,
        {(0, 1): ["a"], (1, 0): ["b"]},
        {
            "a": [(1, "a", mono_xi(0))],
            "b": [(1, "a", mono_u())],  # left(u) = (1,0) != deg(a)
        },
        box=None,
    )
    errs = M.validate()
    assert errs and any("homogene" in e or "degree" in e for e in errs)


def test_validate_catches_coassociativity_break():
    # counit-compatible but mixing x0 and u coactions inconsistently:
    # psi(b) = a (x) t0 + b (x) u is counital and homogeneous, but
    # (psi x 1)psi(b) develops an a (x) x0 (x) t0 term that (1 x D)psi(b)
    # only matches with coefficient 1 from D(t0) = x0 (x) t0 + t0 (x) u.
    M = Comodule(
        BBAR3,
        {(0, 1): ["a"], (1, 0): ["b"]},
        {
            "a": [(1, "a", mono_xi(0)), (1, "a", mono_xi(0))],  # 2*x0: wrong
            "b": [(1, "a", mono_tau(0)), (1, "b", mono_u())],
        },
        box=None,
    )
    errs = M.validate()
    assert errs and any("coassociativity" in e for e in errs)


def test_coactions_raise_degree():
    # psi may point at higher-degree basis elements: that is the normal
    # direction (dual to multiplication), and validates.
    M = Comodule(
        BBAR3,
        {(0, 1): ["a"], (0, 3): ["c"]},
        {
            "a": [(1, "a", mono_xi(0)), (1, "c", mono_xi(1))],
            "c": [(1, "c", ts("x0^3"))],
        },
        box=None,
    )
    assert M.validate() == []


def test_unknown_target_label_rejected():
    with pytest.raises(ValueError):
        Comodule(
            BBAR3,
            {(0, 1): ["a"]},
            {"a": [(1, "ghost", mono_xi(0))]},
            box=None,
        )


# ---------------------------------------------------------------------------
# tensor, suspend, dual


def _J(p, a, b):
    from supercomod.objects import build_J

    return build_J(p, a, b)


def test_tensor_unit_is_identity_on_dims():
    J = _J(3, 0, 2)
    U = simple_comodule(BBAR3, (0, 0))
    T = tensor(J, U)
    assert T.poincare() == J.poincare()
    assert T.validate() == []


def test_tensor_matches_J11_splitting():
    T = tensor(_J(3, 1, 0), _J(3, 0, 1))
    assert T.validate() == []
    assert T.poincare() == {(1, 1): 1, (2, 0): 1}
    assert T.poincare() == _J(3, 1, 1).poincare()


def test_tensor_poincare_is_product():
    M, N = _J(3, 0, 2), _J(3, 0, 3)
    T = tensor(M, N)
    assert T.poincare() == poincare_product(M.poincare(), N.poincare())


def test_tensor_and_direct_sum_take_the_least_box_and_margin():
    def unit(box, margin):
        return Comodule(BBAR3, {(0, 0): ["e"]}, {"e": [(1, "e", Monomial())]},
                        box=box, margin=margin)

    cases = [  # (box, margin) of the two inputs, then of the result
        ((None, 0), (None, 0), (None, 0)),
        ((8, 2), (None, 0), (8, 2)),
        ((None, 0), (6, 1), (6, 1)),
        ((8, 1), (6, 2), (6, 1)),
    ]
    for first, second, want in cases:
        M, N = unit(*first), unit(*second)
        for out in (tensor(M, N), direct_sum([M, N])):
            assert (out.box, out.margin) == want, (first, second)


def test_tensor_rejects_colliding_labels():
    # a|b (x) c and a (x) b|c both join to a|b|c
    def units(*labels):
        return Comodule(BBAR3, {(0, 0): list(labels)},
                        {lab: [(1, lab, Monomial())] for lab in labels}, box=None)

    with pytest.raises(ValueError, match="duplicate label 'a|b|c'"):
        tensor(units("a|b", "a"), units("c", "b|c"))


def test_suspend_shifts_dims():
    J = _J(3, 0, 1)
    S = suspend(J, (0, 1))
    assert S.poincare() == {(0, 2): 1, (1, 1): 1}
    assert S.validate() == []


def test_theta_commutes_with_suspension_on_tables():
    J = _J(3, 0, 2)
    lhs = poincare_theta(suspend(J, (1, 1)).poincare())
    rhs = poincare_shift(poincare_theta(J.poincare()), 1 + 2 * 1)
    assert lhs == rhs


def test_dualize_left_sign():
    # left comodule on the right-(1,0) monomials u, t0, with lambda = D
    M = dualize_left(
        BBAR3,
        {(1, 0): ["u"], (0, 1): ["t0"]},
        {
            "u": [(1, mono_u(), "u")],
            "t0": [(1, mono_xi(0), "t0"), (1, mono_tau(0), "u")],
        },
        box=4,
    )
    assert M.validate() == []
    # psi(u*) = u* (x) u  -  t0* (x) t0 : the odd algebra factor flips sign
    terms = {(lab, b): c for c, lab, b in M.coaction["u"]}
    assert terms[("u", mono_u())] == 1
    assert terms[("t0", mono_tau(0))] == 3 - 1
    # psi(t0*) = t0* (x) x0
    assert {(lab, b): c for c, lab, b in M.coaction["t0"]} == {
        ("t0", mono_xi(0)): 1
    }


# ---------------------------------------------------------------------------
# corestriction, embedding, truncation


def test_corestrict_chain_on_H():
    from supercomod.objects import build_H

    H = build_H(3, 14)
    PH = corestrict_psi(H)
    assert PH.preset.name == "bbar"
    assert PH.validate() == []
    TPH = corestrict_theta(PH)
    assert TPH.preset.name == "atilde"
    assert TPH.validate() == []
    # Lambda(y) (x) F[x] has exactly one basis element in every degree
    assert all(n == 1 for d, n in TPH.poincare().items() if d <= 14)


def test_corestrict_theta_merges_components():
    TJ = corestrict_theta(_J(3, 0, 1))
    assert TJ.poincare() == {1: 1, 2: 1}


def test_embed_xi_polynomial():
    XP = get_preset("xi_poly", 3)
    # duals of the weight-one xi-generators: psi(g_s) = sum g_j (x) x_{j-s}^{3^s}
    comps = {(0, 3**j): [f"g{j}"] for j in range(3)}
    coact = {
        f"g{s}": [
            (1, f"g{j}", Monomial(xi=((j - s, 3**s),)))
            for j in range(s, 3)
        ]
        for s in range(3)
    }
    M = Comodule(XP, comps, coact, box=18)
    assert M.validate() == []
    E = embed_xi_polynomial(M)
    assert E.preset.name == "bbar"
    assert E.validate() == []
    assert E.poincare() == {(0, 1): 1, (0, 3): 1, (0, 9): 1}


def test_truncate_H_and_idempotence():
    from supercomod.objects import build_H

    H = build_H(3, 16)
    T = truncate(H, 10)
    assert T.box == 10
    assert T.validate() == []
    T2 = truncate(T, 10)
    assert T2.components == T.components


def test_truncate_margin_violation():
    B3 = get_preset("b", 3)
    M = Comodule(B3, {(0, 0): ["e"]}, {"e": [(1, "e", Monomial())]}, box=5, margin=0)
    with pytest.raises(ValueError, match="margin"):
        truncate(M, 3)


def test_truncate_cannot_grow():
    from supercomod.objects import build_F

    F = build_F(3, 1, 0, 10)
    with pytest.raises(ValueError):
        truncate(F, 20)


def test_json_roundtrip():
    J = _J(3, 0, 3)
    J2 = Comodule.from_json(J.to_json())
    assert J2.components == J.components
    assert J2.coaction == J.coaction
    assert J2.preset == J.preset
    assert J2.box == J.box


def test_from_dict_parses_each_distinct_monomial_text_once(monkeypatch):
    from supercomod import comodule
    from supercomod.objects import build_H_tensor

    doc = build_H_tensor(3, 2, 16).to_dict()
    texts = [entry["monomial"] for entry in doc["coaction"]]
    calls = []
    monkeypatch.setattr(comodule, "parse_monomial",
                        lambda text: calls.append(text) or parse_monomial(text))
    assert Comodule.from_dict(doc).to_dict() == doc
    assert len(calls) == len(set(texts)) < len(texts)
    # a bad text raises the parser's error at the first entry that has one
    for i, text in ((9, "t0*t0"), (3, "w^2"), (5, "w^2")):
        doc["coaction"][i]["monomial"] = text
    with pytest.raises(ValueError, match="w is exterior"):
        Comodule.from_dict(doc)


def test_json_roundtrip_single_graded():
    from supercomod.objects import build_Jn

    J = build_Jn(3, 4)
    J2 = Comodule.from_json(J.to_json())
    assert J2.components == J.components
    assert J2.coaction == J.coaction


# ---------------------------------------------------------------------------
# morphisms


def test_identity_is_comodule_map():
    J = _J(3, 0, 4)
    assert identity_morphism(J).check() == []


def test_assignment_rejects_degree_mismatch():
    J = _J(3, 0, 1)
    with pytest.raises(ValueError):
        morphism_from_assignment(J, J, {"x0": [(1, "t0")]})


def test_morphism_checks_the_shape_of_zero_blocks():
    J = _J(3, 0, 2)
    with pytest.raises(ValueError, match=r"block at \(1, 1\) has shape \(3, 5\), expected"):
        ComoduleMorphism(J, J, {(1, 1): FpMatrix.zeros(3, 3, 5)})
    # a zero block of the right shape is accepted and not stored
    d = J.degrees()[0]
    f = ComoduleMorphism(J, J, {d: FpMatrix.zeros(3, J.dim(d), J.dim(d))})
    assert f.blocks == {} and f.is_zero()


def _mod_p_pair(f_b: int):
    """Over bbar at p = 3, the comodule S: psi(a) = a (x) u + b (x) t0,
    psi(b) = b (x) x0, its copy T with 2 b (x) t0 in psi(a), and the map
    a -> 2a, b -> f_b b from S to T."""
    terms = {"a": [(1, "a", mono_u()), (1, "b", mono_tau(0))], "b": [(1, "b", mono_xi(0))]}
    S = Comodule(BBAR3, {(1, 0): ["a"], (0, 1): ["b"]}, terms, box=None)
    terms["a"][1] = (2, "b", mono_tau(0))
    T = Comodule(BBAR3, S.components, terms, box=None)
    assert S.validate() == [] and T.validate() == []
    return morphism_from_assignment(S, T, {"a": [(2, "a")], "b": [(f_b, "b")]})


def test_check_compares_the_two_sides_mod_p():
    # at b (x) t0 the sides sum to 2 * 2 = 4 and 1 * 1 = 1, equal mod 3
    assert _mod_p_pair(1).check() == []
    # with b -> 2b they are 4 and 2: reported as the residues 1 and 2
    assert _mod_p_pair(2).check() == [
        "a: psi f - (f x 1) psi has term b (x) t0 with coeffs 1 vs 2"]


def test_compose_and_rank():
    from supercomod.objects import verschiebung, xi0_multiplication

    V = verschiebung(3, 1)
    m = xi0_multiplication(3, 3)
    comp = V.compose(m)  # J(0,2)-suspension -> J(0,3) -> J(0,1)
    assert comp.is_zero()  # x0-multiples die under V_1
    assert V.block((0, 1)).rank() == 1 and V.block((1, 0)).rank() == 1


def test_direct_sum_and_projections():
    A, B = _J(3, 0, 1), _J(3, 0, 2)
    S = direct_sum([A, B])
    assert S.validate() == []
    assert S.total_dim() == A.total_dim() + B.total_dim()
    inc = summand_inclusion(S, [A, B], 1)
    prj = summand_projection(S, [A, B], 1)
    assert inc.check() == [] and prj.check() == []
    assert prj.compose(inc).blocks == identity_morphism(B).blocks


# ---------------------------------------------------------------------------
# actions


def test_action_of_unit_is_identity():
    from supercomod.objects import theta_psi_H

    M = theta_psi_H(3, 10)
    blocks = steenrod_action(M, Monomial())
    for d in M.degrees():
        if M.dim(d):
            assert blocks[d] == FpMatrix.identity(3, M.dim(d))


def test_action_rejects_bigraded():
    from supercomod.objects import build_H

    with pytest.raises(ValueError):
        steenrod_action(build_H(3, 8), mono_tau(0))


def test_milnor_composition_identities():
    # beta P1 = act(t0*x1)  and  P1 beta = act(t0*x1) + act(t1)
    from supercomod.objects import theta_psi_H

    M = theta_psi_H(3, 40)
    t0, x1 = mono_tau(0), Monomial(xi=((1, 1),))
    bP = action_composite(M, t0, x1)
    Pb = action_composite(M, x1, t0)
    tx = steenrod_action(M, ts("t0*x1"))
    t1 = steenrod_action(M, mono_tau(1))
    bound = 40 - 5  # stay clear of the shift-5 edge
    for d in M.degrees():
        if d > bound:
            continue
        lhs = bP.get(d, FpMatrix.zeros(3, M.dim(d + 5), M.dim(d)))
        assert lhs == tx.get(d, lhs.scale(0)), d
        rhs = Pb.get(d, FpMatrix.zeros(3, M.dim(d + 5), M.dim(d)))
        want = tx.get(d, rhs.scale(0)).add(t1.get(d, rhs.scale(0)))
        assert rhs == want, d


def test_instability_check_on_H():
    from supercomod.objects import theta_psi_H

    assert instability_check(theta_psi_H(3, 20)) == []


@pytest.mark.parametrize("p, box, top", [(3, 40, 10), (2, 40, 40)])
def test_instability_check_covers_every_power_operation_in_the_box(monkeypatch, p, box, top):
    # P^i (degree 4i at p = 3) and Sq^i (degree i at p = 2) fit in the box
    # exactly for i <= top; at odd p the Bockstein of each is checked too
    from supercomod import comodule
    from supercomod.objects import build_H, theta_psi_H

    M = theta_psi_H(p, box) if p != 2 else build_H(2, box)
    seen = []
    real = comodule.steenrod_action
    monkeypatch.setattr(comodule, "steenrod_action",
                        lambda obj, lam: seen.append(lam) or real(obj, lam))
    assert instability_check(M) == []
    for i in range(1, top + 1):
        assert mono_xi(1, i) in seen, i
        if p != 2:
            assert Monomial(tau=(0,), xi=((1, i),)) in seen, i
    assert mono_xi(1, top + 1) not in seen


@pytest.mark.parametrize("p, box", [(3, 12), (5, 24), (2, 5)])
def test_instability_thresholds_are_e_plus_2i_and_i_at_p_2(monkeypatch, p, box):
    # an action that is nonzero one degree below the threshold and at it is
    # reported exactly below it: beta^e P^i at e + 2i, Sq^i at i
    from supercomod import comodule
    from supercomod.objects import build_H, theta_psi_H

    M = theta_psi_H(p, box) if p != 2 else build_H(2, box)
    real = comodule.steenrod_action
    thresholds = {}
    for i in range(1, box // (2 * p - 2 if p != 2 else 1) + 1):
        for e in (0, 1) if p != 2 else (0,):
            thresholds[Monomial(tau=(0,) * e, xi=((1, i),))] = e + 2 * i if p != 2 else i

    def action(obj, lam):
        if lam not in thresholds:
            return real(obj, lam)
        t = thresholds[lam]
        return {t - 1: FpMatrix.identity(p, 1), t: FpMatrix.identity(p, 1)}

    monkeypatch.setattr(comodule, "steenrod_action", action)
    assert instability_check(M) == [
        f"{'Bockstein of ' if op.tau else ''}power operation {op.xi[0][1]} "
        f"does not vanish on degree {t - 1} < {t}" for op, t in thresholds.items()]


def test_closure_of_single_grouplike():
    S = simple_comodule(AT3, 2)
    span = operation_closure(S, [(2, [1])], [mono_tau(0), Monomial(xi=((1, 1),))])
    assert closure_dims(span) == {2: 1}
