"""Standard objects: cyclic duals J, coinduced duals F, the ambient algebra
H, and the canonical maps between them."""
from __future__ import annotations

import functools
import math
from pathlib import Path

import pytest

from supercomod.bialgebra import (
    ONE,
    Monomial,
    coproduct,
    enumerate_left,
    enumerate_right,
    format_monomial,
    get_preset,
    mono_tau,
    mono_u,
    mono_xi,
    parse_monomial,
    quotient_map,
    total_of,
)
from supercomod.comodule import (
    Comodule,
    action_table,
    corestrict_theta,
    direct_sum,
    morphism_from_assignment,
    simple_comodule,
    suspend,
    tensor,
    truncate,
    zero_comodule,
)
from supercomod.functorcomb import count_hom
from supercomod.homsolver import cokernel, image, kernel
from supercomod.objects import (
    build_F,
    build_Fn,
    build_H,
    build_H_tensor,
    build_J,
    build_Jn,
    build_PhiF,
    canonical_l,
    canonical_r,
    canonical_u,
    cap_morphism,
    mu_quotient,
    parse_object_id,
    psi_H,
    theta_F,
    theta_J,
    theta_psi_H,
    u_suspension_iso,
    verschiebung,
    verschiebung_twisted,
    xi0_multiplication,
)
from support import (
    action_block,
    cap_assignment,
    division_assignment,
    mu_assignment,
    multiplication_assignment,
    steenrod_action_reference,
    tensor_reference,
)


def images(f):
    out = {}
    for d in f.source.degrees():
        for lab in f.source.basis(d):
            img = f.image_of(lab)
            if img:
                out[lab] = img
    return out


# ---------------------------------------------------------------------------
# J objects


def test_J01_basis():
    J = build_J(3, 0, 1)
    assert {d: J.basis(d) for d in J.degrees()} == {(1, 0): ["t0"], (0, 1): ["x0"]}
    assert J.validate() == []


def test_J03_basis():
    J = build_J(3, 0, 3)
    assert {d: J.basis(d) for d in J.degrees()} == {
        (1, 0): ["t1"],
        (0, 1): ["x1"],
        (1, 2): ["t0*x0^2"],
        (0, 3): ["x0^3"],
    }
    assert J.validate() == []


def test_J04_poincare():
    J = build_J(3, 0, 4)
    assert J.poincare() == {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 3): 1, (0, 4): 1}
    assert J.basis((1, 1)) == ["t0*x1", "t1*x0"]
    assert J.validate() == []


def test_J11_is_suspended_J01():
    J = build_J(3, 1, 1)
    assert {d: J.basis(d) for d in J.degrees()} == {
        (2, 0): ["t0*u"],
        (1, 1): ["u*x0"],
    }


@pytest.mark.parametrize("n", range(0, 10))
def test_J0n_dims_count_pairs(n):
    J = build_J(3, 0, n)
    for d in J.degrees():
        s, t = d
        assert J.dim(d) == count_hom(3, n, s, t)
    assert sum(J.poincare().values()) == sum(
        count_hom(3, n, s, t) for s in range(n + 1) for t in range(n + 1)
    )


def test_Jn_small():
    J2 = build_Jn(3, 2)
    assert {d: J2.basis(d) for d in J2.degrees()} == {1: ["t0"], 2: ["u^2"]}
    J3 = build_Jn(3, 3)
    assert {d: J3.basis(d) for d in J3.degrees()} == {2: ["t0*u"], 3: ["u^3"]}
    assert J2.validate() == []
    assert J3.validate() == []


def test_theta_J01():
    T = theta_J(3, 0, 1)
    assert T.poincare() == {1: 1, 2: 1}
    assert T.validate() == []


def test_J_p5():
    J = build_J(5, 0, 2)
    assert {d: J.basis(d) for d in J.degrees()} == {
        (1, 1): ["t0*x0"],
        (0, 2): ["x0^2"],
    }
    assert J.validate() == []


# ---------------------------------------------------------------------------
# F objects (duals of single right components)


def test_F10_poincare():
    F = build_F(3, 1, 0, 30)
    assert F.poincare() == {(1, 0): 1, (0, 1): 1, (0, 3): 1, (0, 9): 1}
    assert F.validate() == []


def test_F01_poincare():
    F = build_F(3, 0, 1, 30)
    assert F.poincare() == {(0, 1): 1, (0, 3): 1, (0, 9): 1}
    assert F.validate() == []


def test_F20_poincare():
    F = build_F(3, 2, 0, 24)
    assert F.poincare() == {
        (2, 0): 1,
        (1, 1): 1,
        (1, 3): 1,
        (1, 9): 1,
        (0, 4): 1,
        (0, 10): 1,
        (0, 12): 1,
    }
    assert F.validate() == []


def test_F11_dim():
    F = build_F(3, 1, 1, 40)
    assert sum(F.poincare().values()) == 12
    assert F.validate() == []


@pytest.mark.parametrize("n,dim", [(1, 4), (2, 9), (3, 16), (4, 24), (5, 31), (6, 37)])
def test_Fn_dims(n, dim):
    F = build_Fn(3, n, 40)
    assert sum(F.poincare().values()) == dim
    assert F.validate() == []


def test_F_p5():
    F = build_F(5, 1, 0, 30)
    assert F.poincare() == {(1, 0): 1, (0, 1): 1, (0, 5): 1}
    assert F.validate() == []


# ---------------------------------------------------------------------------
# the ambient object H


def test_H_coaction_of_y():
    H = build_H(3, 30)
    terms = {(lab, str(b)): c for c, lab, b in H.coaction["y"]}
    assert terms == {("y", "u"): 1, ("x", "t0"): 1, ("x^3", "t1"): 1, ("x^9", "t2"): 1}
    assert H.validate() == []


def test_H_coaction_of_x():
    H = build_H(3, 30)
    terms = {(lab, str(b)): c for c, lab, b in H.coaction["x"]}
    assert terms == {("y", "w"): 1, ("x", "x0"): 1, ("x^3", "x1"): 1, ("x^9", "x2"): 1}


def test_H_power_coefficients():
    # psi(x^2) = psi(x)^2; the polynomial part carries multinomial weights
    H = build_H(3, 30)
    terms = {(lab, str(b)): c for c, lab, b in H.coaction["x^2"]}
    assert terms[("x^2", "x0^2")] == 1
    assert terms[("x^4", "x0*x1")] == 2
    assert terms[("y*x", "w*x0")] == 2


def test_H_p2():
    H = build_H(2, 20)
    terms = {(lab, str(b)): c for c, lab, b in H.coaction["x"]}
    assert terms == {
        ("x", "x0"): 1,
        ("x^2", "x1"): 1,
        ("x^4", "x2"): 1,
        ("x^8", "x3"): 1,
        ("x^16", "x4"): 1,
    }
    assert H.validate() == []


def test_H_p5():
    H = build_H(5, 24)
    terms = {(lab, str(b)) for _, lab, b in H.coaction["y"]}
    assert terms == {("y", "u"), ("x", "t0"), ("x^5", "t1")}
    assert H.validate() == []


def test_theta_psi_H_dims():
    T = theta_psi_H(3, 30)
    assert all(T.dim(d) == 1 for d in T.degrees())
    assert sorted(T.degrees()) == list(range(31))
    assert T.validate() == []


def test_H_tensor_square_validates():
    T = build_H_tensor(3, 2, 16)
    assert T.validate() == []
    # rank of the degree-2 component of H (x) H: 1|x, x|1, y|y
    assert T.dim((0, 1)) == 2
    assert T.dim((2, 0)) == 1


# ---------------------------------------------------------------------------
# operations on Theta Psi H: closed forms


def op_entry(M, lam, src_deg):
    return action_block(M, action_table(M), lam, src_deg).to_list()


def test_bockstein_of_y():
    T = theta_psi_H(3, 30)
    assert op_entry(T, mono_tau(0), 1) == [[1]]  # beta(y) = x
    assert op_entry(T, mono_tau(0), 2) == [[0]]  # beta(x) = 0


def test_power_operations_closed_form():
    T = theta_psi_H(3, 40)
    # P^i(x^m) = binomial(m, i) x^{m + 2i} at p = 3, x^m in degree 2m
    for m in range(1, 12):
        for i in range(1, 6):
            if 2 * (m + 2 * i) > 40:
                continue
            c = math.comb(m, i) % 3
            assert op_entry(T, mono_xi(1, i), 2 * m) == [[c]], (m, i)


def test_top_power_is_frobenius():
    T = theta_psi_H(3, 40)
    for m in (1, 2, 3, 4):
        assert op_entry(T, mono_xi(1, m), 2 * m) == [[1]]


def test_milnor_primitive_q1():
    T = theta_psi_H(3, 30)
    assert op_entry(T, mono_tau(1), 1) == [[1]]  # Q_1(y) = x^3
    assert op_entry(T, mono_tau(1), 2) == [[0]]  # Q_1(x) = 0


def test_squares_p2():
    # Sq^i(x^m) = C(m,i) x^{m+i}; the x0-padding in the coaction terms
    # must be absorbed the same way u-padding is at odd primes.
    H = build_H(2, 20)
    for i in (1, 2, 3):
        for m in range(1, 6):
            assert op_entry(H, mono_xi(1, i), m) == [[math.comb(m, i) % 2]]
    assert op_entry(H, mono_xi(1, 2), 1) == [[0]]  # below the excess


# the action table against the reference that splits the pad off by letter
# fields: objects padded by u (over atilde) and H at p = 2, padded by x0
PADDED_OBJECTS = {
    "Theta Psi H p=3": lambda: theta_psi_H(3, 40),
    "Theta Psi H p=5": lambda: theta_psi_H(5, 40),
    "F(5) p=3": lambda: build_Fn(3, 5, 40),
    "F(8) p=3": lambda: build_Fn(3, 8, 40),
    "J(7) p=3": lambda: build_Jn(3, 7),
    "J(10) p=3": lambda: build_Jn(3, 10),
    "H p=2": lambda: build_H(2, 40),
}


@pytest.mark.parametrize("name", sorted(PADDED_OBJECTS))
def test_steenrod_action_matches_the_letter_field_reference(name):
    # operations not divisible by the pad; the table files every term under
    # one of them, and a block the table lacks reads as zero
    M = PADDED_OBJECTS[name]()
    table = action_table(M)
    assert all(M.preset.row.unpadded(lam) is lam for lam in table), name
    ops = ["1", "t0", "t1", "t0*t1", "x2", "x1*x2", "t1*x1"]
    ops += [f"{t}x1^{i}" for t in ("", "t0*") for i in (1, 2, 3)]
    hit = 0
    for op in map(parse_monomial, ops):
        want = steenrod_action_reference(M, op)
        assert set(table.get(op, {})) <= set(want), (name, str(op))
        for d, mat in want.items():
            assert action_block(M, table, op, d) == mat, (name, str(op), d)
        hit += any(not mat.is_zero() for mat in want.values())
    assert hit >= 3, name  # the comparison is not between zero maps only


# ---------------------------------------------------------------------------
# canonical morphisms


def test_verschiebung_one():
    V = verschiebung(3, 1)
    assert V.source.name == "J(0,3)" and V.target.name == "J(0,1)"
    assert images(V) == {"t1": [(1, "t0")], "x1": [(1, "x0")]}
    assert V.check() == []


def test_verschiebung_needs_positive_index():
    with pytest.raises(ValueError):
        verschiebung(3, 0)


def test_twisted_verschiebung_one():
    V = verschiebung_twisted(3, 1)
    assert V.source.name == "J(0,4)" and V.target.name == "J(1,1)"
    assert images(V) == {"t0*t1": [(1, "t0*u")], "t0*x1": [(1, "u*x0")]}
    assert V.check() == []


def test_cap_by_t0():
    f = cap_morphism(3, "t0")
    assert f.source.name == "J(0,1)" and f.target.name == "J(1,0)"
    assert images(f) == {"t0": [(1, "u")]}
    assert f.check() == []


def test_xi0_multiplication_injective():
    f = xi0_multiplication(3, 3)
    assert images(f) == {
        "s|t0*x0": [(1, "t0*x0^2")],
        "s|x0^2": [(1, "x0^3")],
    }
    assert f.check() == []
    for d in f.source.degrees():
        assert f.block(d).rank() == f.source.dim(d)


def test_u_suspension_iso():
    f = u_suspension_iso(3, 1)
    assert images(f) == {"s|t0": [(1, "t0*u")], "s|x0": [(1, "u*x0")]}
    assert f.check() == []
    for d in f.source.degrees():
        assert f.source.dim(d) == f.target.dim(d) == f.block(d).rank()


def test_mu_quotient_images():
    f = mu_quotient(3, 2, 0, 1, 24)
    assert f.source.name == "F2"
    img = images(f)
    assert img["u^2"] == [(1, "x0")]
    assert img["x1"] == [(1, "x1")]
    assert "t0*u" not in img and "t0*t1" not in img
    assert f.check() == []

    g = mu_quotient(3, 2, 2, 0, 24)
    img2 = images(g)
    assert img2["u^2"] == [(1, "u^2")]
    assert img2["t0*u"] == [(1, "t0*u")]
    assert img2["t0*t1"] == [(1, "t0*t1")]
    assert g.check() == []


def test_canonical_l_normalization():
    f = canonical_l(3, 2, 0, 24)
    img = images(f)
    assert img == {"u^2": [(1, "s|1")]}
    assert f.check() == []


def test_canonical_r_normalization():
    f = canonical_r(3, 0, 1, 24)
    assert images(f) == {"x0": [(1, "s|1")]}
    assert f.check() == []


def test_canonical_u_on_F20():
    f = canonical_u(3, 2, 0, 24)
    img = images(f)
    assert img == {
        "u^2": [(1, "s|u")],
        "t0*u": [(1, "s|t0")],
        "t1*u": [(1, "s|t1")],
        "t2*u": [(1, "s|t2")],
    }
    assert f.check() == []
    with pytest.raises(ValueError):
        canonical_u(3, 0, 1, 24)


@pytest.mark.parametrize("p", [3, 5])
def test_canonical_maps_match_the_hand_written_formulas(p):
    # each canonical map is the closed form of one element; the formulas of
    # tests/support write it out monomial by monomial.  Weights a + 2b <= 8
    # at box 30.
    box, bbar = 30, get_preset("bbar", p)
    F = functools.cache(lambda a, b: build_F(p, a, b, box))
    pairs = [(cap_morphism(p, lam), cap_assignment(p, lam))
             for b in range(5) for lam in enumerate_left(bbar, (0, b))]
    pairs += [(xi0_multiplication(p, m), multiplication_assignment(p, mono_xi(0), m - 1))
              for m in range(1, 5)]
    pairs += [(u_suspension_iso(p, n), multiplication_assignment(p, mono_u(), n))
              for n in range(4)]
    for n in range(9):
        Fn = build_Fn(p, n, box)
        for b in range(n // 2 + 1):
            a = n - 2 * b
            f = mu_quotient(p, n, a, b, box, target=corestrict_theta(F(a, b)), source=Fn)
            pairs.append((f, mu_assignment(p, n, a, b, box, f.target)))
            for divide, shift in ((canonical_l, (2, 0)), (canonical_r, (0, 1)),
                                  (canonical_u, (1, 0))):
                q = (a - shift[0], b - shift[1])
                if min(q) >= 0:
                    f = divide(p, a, b, box, source=F(a, b), target=suspend(F(*q), shift))
                    pairs.append((f, division_assignment(p, a, b, box, shift, f.target)))
    for f, assign in pairs:
        ref = morphism_from_assignment(f.source, f.target, assign)
        for d in f.source.degrees():
            assert f.block(d) == ref.block(d), (f.source.name, d)


def test_phi_F_low_weights():
    F0, inc0 = build_PhiF(3, 0, 20)
    assert F0.poincare() == {(0, 0): 1}
    F1, inc1 = build_PhiF(3, 1, 20)
    assert F1.poincare() == {(1, 0): 1, (0, 1): 1, (0, 3): 1, (0, 9): 1}
    assert inc1.source is F1


# ---------------------------------------------------------------------------
# object ids


@pytest.mark.parametrize(
    "text,name",
    [
        ("J:0,3", "J(0,3)"),
        ("F:1,0", "F(1,0)"),
        ("Fn:2", "F2"),
        ("Jn:3", "J3"),
        ("H", "H"),
        ("H^2", "H^(x)2"),
        ("PhiF:1", "PhiF(1)"),
    ],
)
def test_parse_object_id(text, name):
    M = parse_object_id(text, 3, 16)
    assert M.name == name


def test_constructions_name_their_results():
    assert theta_F(3, 1, 1, 20).name == "Theta(F(1,1))"
    assert theta_J(3, 1, 2).name == "Theta(J(1,2))"
    assert psi_H(3, 12).name == "Psi(H)"
    assert theta_psi_H(3, 12).name == "Theta(Psi(H))"
    assert suspend(build_J(3, 0, 2), (0, 1)).name == "S(0, 1)J(0,2)"


@pytest.mark.parametrize("bad", ["nope", "J:0", "F:", "H^", "Fn:x", ""])
def test_parse_object_id_rejects(bad):
    with pytest.raises(ValueError):
        parse_object_id(bad, 3, 16)



@pytest.mark.parametrize("text,box,message", [
    ("F:1,1", 2, "object 'F:1,1' has no basis element in the box 2; the least box for it is 3"),
    ("Fn:5", 4, "object 'Fn:5' has no basis element in the box 4; the least box for it is 5"),
    ("PhiF:3", 8, "object 'PhiF:3' has no basis element in the box 8"),
])
def test_parse_object_id_refuses_an_object_its_box_leaves_empty(text, box, message):
    with pytest.raises(ValueError) as refused:
        parse_object_id(text, 3, box)
    assert str(refused.value) == message
    assert parse_object_id(text, 3, 20).total_dim()


# The dump of each object, recorded before the elements of B (x) B became
# plain dicts: it pins the order of every coaction's terms, which the
# coproduct, the product in B (x) B and the coaction of a tensor product set.
DUMPS = Path(__file__).resolve().parent / "data" / "dumps"


@pytest.mark.parametrize("p,text,box,file", [
    (3, "J:1,3", 30, "J1-3_p3.json"),
    (3, "Jn:7", 30, "Jn7_p3.json"),
    (3, "PhiF:2", 20, "PhiF2_p3_box20.json"),
    (3, "F:2,1", 20, "F2-1_p3_box20.json"),
    (3, "H", 20, "H_p3_box20.json"),
    (2, "H", 20, "H_p2_box20.json"),
    (3, "H^2", 8, "H2_p3_box8.json"),
])
def test_dump_matches_the_recorded_one(p, text, box, file):
    assert parse_object_id(text, p, box).to_json(indent=2) == (DUMPS / file).read_text()


# ---------------------------------------------------------------------------
# the trusted constructor against the validating one


def _validated_J(preset, left):
    """J rebuilt from the coproduct through the validating `Comodule(...)`,
    with the coaction as plain term lists for it to check and merge."""
    span = enumerate_left(preset, left)
    components: dict = {}
    for m in span:
        components.setdefault(preset.right_degree(m), []).append(format_monomial(m))
    coaction = {format_monomial(m): [(c, format_monomial(m1), b2)
                                     for (m1, b2), c in coproduct(preset, m).items()]
                for m in span}
    return Comodule(preset, components, coaction, box=None)


def _validated_F(preset, right, box):
    """F rebuilt from the coproduct through the validating `Comodule(...)`,
    with the dual coaction as plain term lists for it to check and merge."""
    span = enumerate_right(preset, right, box)
    components: dict = {}
    for m in span:
        components.setdefault(preset.left_degree(m), []).append(m)
    coaction: dict = {format_monomial(m): [] for m in span}
    for m in [m for ms in components.values() for m in ms]:  # dualize_left's order
        for (b1, m2), c in coproduct(preset, m).items():
            if format_monomial(m2) in coaction:
                coaction[format_monomial(m2)].append(
                    (-c if b1.parity else c, format_monomial(m), b1))
    return Comodule(preset, {d: list(map(format_monomial, ms)) for d, ms in components.items()},
                    coaction, box=box)


def _validated_push(M, dst_name, regrade):
    """M pushed term by term through the quotient to dst, unmerged, and
    merged by the validating `Comodule(...)`; `regrade` collapses bidegrees
    to total degrees with each component's labels sorted."""
    dst = get_preset(dst_name, M.p)
    images = {b: quotient_map(M.preset, dst, b) for terms in M.coaction.values()
              for _, _, b in terms}
    coaction = {lab: [(c, t, images[b]) for c, t, b in terms if images[b] is not None]
                for lab, terms in M.coaction.items()}
    components = M.components
    if regrade:
        components = {}
        for d in M.degrees():
            components.setdefault(total_of(d), []).extend(M.components[d])
        components = {n: sorted(labs) for n, labs in components.items()}
    return Comodule(dst, components, coaction, box=M.box)


def _assert_same(trusted, validated):
    assert trusted.matches(validated)
    assert trusted.components == validated.components
    # dump writes each coaction in its stored order
    assert trusted.coaction == validated.coaction
    assert all(type(terms) is tuple for terms in trusted.coaction.values())
    assert trusted.box == validated.box
    for lab in validated.coaction:
        assert trusted.degree_of(lab) == validated.degree_of(lab)
        assert trusted.index_of(lab) == validated.index_of(lab)


def test_corestriction_merges_terms_that_meet_in_the_quotient():
    # not a valid comodule (x0 and u^2 differ in bidegree), so that x0 and
    # u^2 meet under Theta: 1 + 1 stays, 1 + 2 cancels at p = 3
    bbar = get_preset("bbar", 3)
    x0, u2 = mono_xi(0), mono_u(2)
    M = Comodule(bbar, {(0, 0): ["e"], (0, 1): ["f", "g"]},
                 {"f": [(1, "e", x0), (1, "e", u2)], "g": [(1, "e", x0), (2, "e", u2)]},
                 box=None)
    _assert_same(corestrict_theta(M), _validated_push(M, "atilde", True))
    assert corestrict_theta(M).coaction["f"] == ((2, "e", u2),)
    assert corestrict_theta(M).coaction["g"] == ()


@pytest.mark.parametrize("p", [3, 5])
def test_trusted_builders_match_the_validating_constructor(p):
    bbar, atilde = get_preset("bbar", p), get_preset("atilde", p)
    for a in range(4):
        for b in range(4):
            _assert_same(build_J(p, a, b), _validated_J(bbar, (a, b)))
    for n in range(13):
        _assert_same(build_Jn(p, n), _validated_J(atilde, n))
    for a in range(4):
        for b in range(4):
            _assert_same(build_F(p, a, b, 40), _validated_F(bbar, (a, b), 40))
    for n in range(10):
        _assert_same(build_Fn(p, n, 40), _validated_F(atilde, n, 40))
    for eps in (0, 1):
        for n in range(7):
            _assert_same(theta_J(p, eps, n),
                         _validated_push(_validated_J(bbar, (eps, n)), "atilde", True))
    H = build_H(p, 24)
    _assert_same(H, _revalidated(H))
    _assert_same(psi_H(p, 24), _validated_push(H, "bbar", False))
    _assert_same(theta_psi_H(p, 24),
                 _validated_push(_validated_push(H, "bbar", False), "atilde", True))
    _assert_same(simple_comodule(bbar, (1, 2)), _revalidated(simple_comodule(bbar, (1, 2))))
    _assert_same(zero_comodule(bbar), _revalidated(zero_comodule(bbar)))
    S = direct_sum([build_J(p, 1, 1), build_F(p, 1, 0, 30), build_J(p, 0, 2)])
    _assert_same(S, _revalidated(S))
    f = canonical_u(p, 2, 0, 30)
    for construction in (kernel, image, cokernel):
        Q, _ = construction(f)
        _assert_same(Q, _revalidated(Q))


def _revalidated(M):
    """M rebuilt from its own data by the validating `Comodule(...)`, which
    merges and checks it again: the same comodule iff M is stored as that
    constructor stores it."""
    return Comodule(M.preset, M.components,
                    {lab: list(terms) for lab, terms in M.coaction.items()},
                    box=M.box)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_no_builder_stores_a_degree_above_its_box(p):
    # a truncation stores no degree above its box; H, which has a basis
    # element in every degree, fills it
    H, H9 = build_H(p, 13), build_H(p, 9)
    filled = [H, build_H_tensor(p, 2, 13), truncate(build_H(p, 20), 13),
              tensor(H, H9), direct_sum([H9, H])]
    built = []
    if p != 2:
        F, P9 = build_F(p, 1, 1, 13), psi_H(p, 9)
        filled.append(theta_psi_H(p, 13))
        built = [F, tensor(F, P9), direct_sum([P9, F, build_J(p, 1, 2)])]
    for M in filled + built:
        top = max(total_of(d) for d in M.components)
        assert top <= M.box and M.box in (9, 13), (M.name, M.box, top)
        assert top == M.box or M in built, (M.name, M.box, top)


# ---------------------------------------------------------------------------
# the tensor product against the pairwise product through `product`


def test_tensor_matches_the_pairwise_product():
    _assert_same(tensor(build_J(3, 1, 0), build_J(3, 0, 2)),
                 tensor_reference(build_J(3, 1, 0), build_J(3, 0, 2)))
    _assert_same(tensor(build_F(3, 2, 0, 30), build_F(3, 0, 1, 30)),
                 tensor_reference(build_F(3, 2, 0, 30), build_F(3, 0, 1, 30)))
    for p, box in ((3, 20), (2, 20)):
        H = build_H(p, box)
        _assert_same(tensor(H, H), tensor_reference(H, H))
    H = build_H(3, 20)
    _assert_same(tensor(tensor(H, H), H), tensor_reference(tensor_reference(H, H), H))
    bbar = get_preset("bbar", 3)
    for M in (build_F(3, 1, 1, 30), build_J(3, 2, 1)):
        for d in ((1, 0), (0, 1)):
            _assert_same(suspend(M, d), tensor_reference(simple_comodule(bbar, d, "s"), M))


def _meeting_pair(c: int, extra: int):
    """Hand-built (not valid) comodules whose f (x) g meets u*x0 from
    u (x) x0, then x0 (x) u with coefficient c, then 1 (x) u*x0 with
    coefficient `extra` (no such term when 0)."""
    bbar = get_preset("bbar", 3)
    u, x0, ux0 = mono_u(), mono_xi(0), Monomial(u=1, xi=((0, 1),))
    M = Comodule(bbar, {(0, 0): ["e"], (1, 1): ["f"]},
                 {"f": [(1, "e", u), (1, "e", x0), (1, "e", ONE)]}, box=None)
    N = Comodule(bbar, {(0, 0): ["h"], (1, 1): ["g"]},
                 {"g": [(1, "h", x0), (c, "h", u), (extra, "h", ux0)]}, box=None)
    return M, N, ux0


@pytest.mark.parametrize("c, extra, expected", [
    (1, 0, 2),  # 1 + 1 stays
    (2, 0, 0),  # 1 + 2 cancels mod 3
    (2, 1, 1),  # 1 + 2 cancels, then 1 comes back at its first place
])
def test_tensor_merges_the_products_that_meet(c, extra, expected):
    M, N, ux0 = _meeting_pair(c, extra)
    T = tensor(M, N)
    _assert_same(T, tensor_reference(M, N))
    meets = [(k, coeff) for k, (coeff, _, b) in enumerate(T.coaction["f|g"]) if b is ux0]
    assert meets == ([(0, expected)] if expected else [])
