from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from supercomod.bialgebra import (
    ONE,
    Monomial,
    TensorSum,
    cache_stats,
    check_bialgebra_axioms,
    check_hopf_ideal,
    coproduct,
    counit,
    enumerate_box,
    enumerate_component,
    enumerate_left,
    enumerate_right,
    format_monomial,
    get_preset,
    mono,
    mono_tau,
    mono_u,
    mono_w,
    mono_xi,
    parse_monomial,
    product,
    quotient_map,
)

B3 = get_preset("b", 3)
BBAR3 = get_preset("bbar", 3)
AT3 = get_preset("atilde", 3)
B2 = get_preset("b2", 2)


def ts(p, *terms):
    out = TensorSum(p)
    for c, a, b in terms:
        out.add_term(parse_monomial(a), parse_monomial(b), c)
    return out


# ---------------------------------------------------------------------------
# monomial syntax and product


def test_parse_format_roundtrip():
    for s in ["1", "u", "w", "t0", "x0", "u^3", "x1^4", "w*t0*t3*u^2*x1^4", "t1*x0^2"]:
        m = parse_monomial(s)
        assert format_monomial(m) == s
        assert parse_monomial(format_monomial(m)) == m


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_monomial("t0^2")
    with pytest.raises(ValueError):
        parse_monomial("w^2")
    with pytest.raises(ValueError):
        parse_monomial("y3")
    with pytest.raises(ValueError):
        parse_monomial("x1^0")
    with pytest.raises(ValueError):
        parse_monomial("t0*t0")
    with pytest.raises(ValueError):
        parse_monomial("w*w")
    with pytest.raises(ValueError):
        parse_monomial("u^-1")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"w": 2}, "w exponent"),
        ({"tau": (1, 0)}, "tau indices"),
        ({"xi": ((1, 0),)}, "xi exponents"),
        ({"xi": ((2, 1), (1, 1))}, "xi indices"),
        ({"u": -1}, "u exponent"),
    ],
)
def test_monomial_rejects_invalid_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Monomial(**kwargs)
    args = (kwargs.get("w", 0), kwargs.get("tau", ()), kwargs.get("u", 0), kwargs.get("xi", ()))
    with pytest.raises(ValueError, match=message):
        Monomial(*args)


def test_equal_monomials_are_one_object():
    m = Monomial(w=1, tau=(0, 2), u=3, xi=((1, 2),))
    assert Monomial(1, (0, 2), 3, ((1, 2),)) is m
    assert Monomial(w=1, tau=[0, 2], u=3, xi=[[1, 2]]) is m
    assert mono(1, (2, 0), 3, [(1, 2)]) is m
    assert parse_monomial("u^3*x1^2*t2*w*t0") is m
    # the parser sorts factors, so an unsorted text names a valid monomial
    assert parse_monomial("x2*x1^2") is Monomial(xi=((1, 2), (2, 1)))
    assert parse_monomial("t1*t0") is mono_tau(0, 1)
    assert product(parse_monomial("x1^2"), parse_monomial("u*x1"))[1] is parse_monomial("u*x1^3")
    assert mono_u(0) is ONE and parse_monomial("1") is ONE and ONE.is_one()
    # integer-like input is stored as int; other numbers are refused
    assert Monomial(w=True, u=np.int64(2), xi=((np.int64(1), 3),)) is parse_monomial("w*u^2*x1^3")
    with pytest.raises(TypeError):
        Monomial(u=1.0)
    assert not mono_xi(0).is_one()


def test_monomial_pickles_to_the_interned_object():
    m = parse_monomial("w*t0*u^2*x1^4")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(m, protocol)) is m
    assert copy.copy(m) is m and copy.deepcopy(m) is m


def test_monomial_is_immutable():
    m = parse_monomial("t0*u")
    with pytest.raises(AttributeError):
        m.u = 3
    with pytest.raises(AttributeError):
        m.parity = 0
    with pytest.raises(AttributeError):
        del m.tau
    with pytest.raises(AttributeError):
        m.extra = 1
    assert (m.u, m.parity) == (1, 1)


def test_monomial_repr_and_accessors():
    m = parse_monomial("w*t0*u^2*x1^4*x3")
    assert repr(m) == "Monomial(w=1, tau=(0,), u=2, xi=((1, 4), (3, 1)))"
    assert repr(ONE) == "Monomial(w=0, tau=(), u=0, xi=())"
    assert str(m) == "w*t0*u^2*x1^4*x3"
    assert m.sort_key() == (1, (0,), 2, ((1, 4), (3, 1)))
    assert m.xi_dict() == {1: 4, 3: 1}
    assert m.parity == 0 and mono_tau(0, 1, 2).parity == 1


def _reference_product(m1, m2):
    # the straightforward product: exterior letters w < t0 < t1 < ..., sign
    # from counting inversions, xi exponents added in a dict
    if m1.w and m2.w or set(m1.tau) & set(m2.tau):
        return 0, None
    e1 = ([-1] if m1.w else []) + list(m1.tau)
    e2 = ([-1] if m2.w else []) + list(m2.tau)
    inversions = sum(1 for a in e1 for b in e2 if a > b)
    xi = m1.xi_dict()
    for j, e in m2.xi:
        xi[j] = xi.get(j, 0) + e
    out = Monomial(m1.w + m2.w, tuple(sorted(m1.tau + m2.tau)), m1.u + m2.u,
                   tuple(sorted(xi.items())))
    return (-1 if inversions % 2 else 1), out


def test_product_matches_reference():
    monomials = enumerate_box(B3, 9) + [parse_monomial("t0*t1*t2*x0*x1^2*x2")]
    for m1 in monomials:
        for m2 in monomials:
            assert product(m1, m2) == _reference_product(m1, m2), (m1, m2)


def test_cache_stats_reports_the_caches():
    m = parse_monomial("t1*u^2*x0*x1^3")
    coproduct(B3, m)
    before = cache_stats()
    coproduct(B3, m)
    after = cache_stats()
    assert after["coproduct"]["hits"] == before["coproduct"]["hits"] + 1
    assert after["coproduct"]["misses"] == before["coproduct"]["misses"]
    info = coproduct.cache_info()
    assert after["coproduct"] == {"hits": info.hits, "misses": info.misses,
                                  "size": info.currsize}
    assert after["generator_power_coproduct"]["size"] > 0
    Monomial(u=987654, xi=((7, 1),))
    assert cache_stats()["interned_monomials"] == after["interned_monomials"] + 1


def test_product_signs():
    # t1 * t0 = -t0 * t1
    s, m = product(mono_tau(1), mono_tau(0))
    assert s == -1 and m == mono_tau(0, 1)
    s, m = product(mono_tau(0), mono_tau(1))
    assert s == 1 and m == mono_tau(0, 1)
    # w anticommutes past tau
    s, m = product(mono_tau(0), mono_w())
    assert s == -1 and m == Monomial(w=1, tau=(0,))
    # squares of exterior letters vanish
    assert product(mono_w(), mono_w()) == (0, None)
    assert product(mono_tau(2), mono_tau(2)) == (0, None)
    # even factors commute freely
    s, m = product(parse_monomial("x1^2"), parse_monomial("u*x1"))
    assert s == 1 and m == parse_monomial("u*x1^3")


def test_triple_exterior_sign():
    # (t0*t1) * t2 vs t2 * (t0*t1): moving t2 past two odd letters is even
    s1, m1 = product(mono_tau(0, 1), mono_tau(2))
    s2, m2 = product(mono_tau(2), mono_tau(0, 1))
    assert m1 == m2 == mono_tau(0, 1, 2)
    assert s1 == 1 and s2 == 1


# ---------------------------------------------------------------------------
# gradings


def test_bidegrees_of_generators():
    assert B3.left_degree(mono_u()) == (1, 0) and B3.right_degree(mono_u()) == (1, 0)
    assert B3.left_degree(mono_w()) == (1, 0) and B3.right_degree(mono_w()) == (0, 1)
    assert B3.left_degree(mono_tau(2)) == (0, 9) and B3.right_degree(mono_tau(2)) == (1, 0)
    assert B3.left_degree(mono_xi(1)) == (0, 3) and B3.right_degree(mono_xi(1)) == (0, 1)
    m = parse_monomial("w*t0*u^2*x1^2")
    assert B3.left_degree(m) == (3, 7)
    assert B3.right_degree(m) == (3, 3)
    assert B3.total_degree(m) == (3 + 14) - (3 + 6)
    assert m.parity == 0


def test_single_gradings():
    assert AT3.left_degree(parse_monomial("u^3")) == 3
    assert AT3.left_degree(mono_tau(1)) == 6
    assert AT3.left_degree(mono_xi(1)) == 6
    assert AT3.right_degree(mono_xi(1)) == 2
    assert AT3.total_degree(mono_xi(1)) == 4  # 2*3 - 2
    assert AT3.total_degree(mono_tau(1)) == 5  # 2*3 - 1
    assert B2.left_degree(parse_monomial("x0^3*x2")) == 7
    assert B2.right_degree(parse_monomial("x0^3*x2")) == 4


def test_preset_validation():
    with pytest.raises(ValueError):
        BBAR3.validate_monomial(mono_w())
    with pytest.raises(ValueError):
        AT3.validate_monomial(mono_xi(0))
    with pytest.raises(ValueError):
        get_preset("b", 2)
    with pytest.raises(ValueError):
        get_preset("b2", 3)
    with pytest.raises(ValueError):
        get_preset("nope", 3)


# ---------------------------------------------------------------------------
# coproducts, frozen by hand


def test_coproduct_u_and_w():
    assert coproduct(B3, mono_u()) == ts(3, (1, "u", "u"), (1, "w", "t0"))
    assert coproduct(B3, mono_w()) == ts(3, (1, "u", "w"), (1, "w", "x0"))
    assert coproduct(BBAR3, mono_u()) == ts(3, (1, "u", "u"))


def test_coproduct_u_powers_stay_small():
    # D(u^k) = u^k (x) u^k + k u^{k-1} w (x) u^{k-1} t0
    got = coproduct(B3, mono_u(4))
    assert got == ts(3, (1, "u^4", "u^4"), (4, "u^3*w", "u^3*t0"))
    assert len(coproduct(B3, mono_u(25))) == 2


def test_coproduct_tau1_p3():
    assert coproduct(BBAR3, mono_tau(1)) == ts(
        3, (1, "x1", "t0"), (1, "x0^3", "t1"), (1, "t1", "u")
    )


def test_coproduct_xi1_p3():
    # D(x1) = x1 (x) x0 + x0^3 (x) x1 in bbar
    assert coproduct(BBAR3, mono_xi(1)) == ts(3, (1, "x1", "x0"), (1, "x0^3", "x1"))
    # and in the full algebra it gains t1 (x) w
    assert coproduct(B3, mono_xi(1)) == ts(
        3, (1, "x1", "x0"), (1, "x0^3", "x1"), (1, "t1", "w")
    )


def test_coproduct_tau0tau1_sign():
    # the cross term -x0*t1 (x) u*t0 records a Koszul sign
    got = coproduct(BBAR3, mono_tau(0, 1))
    assert got == ts(
        3,
        (1, "x0^4", "t0*t1"),
        (-1, "x0*t1", "u*t0"),
        (1, "t0*x1", "u*t0"),
        (1, "t0*x0^3", "u*t1"),
        (1, "t0*t1", "u^2"),
    )


def test_coproduct_tau0xi1():
    got = coproduct(BBAR3, parse_monomial("t0*x1"))
    assert got == ts(
        3,
        (1, "x0*x1", "t0*x0"),
        (1, "x0^4", "t0*x1"),
        (1, "t0*x1", "u*x0"),
        (1, "t0*x0^3", "u*x1"),
    )


def test_coproduct_atilde_rewrites_xi0():
    # in atilde, x0 becomes u^2: D(x1) = x1 (x) u^2 + u^6 (x) x1
    assert coproduct(AT3, mono_xi(1)) == ts(3, (1, "x1", "u^2"), (1, "u^6", "x1"))
    assert coproduct(AT3, mono_tau(0)) == ts(3, (1, "u^2", "t0"), (1, "t0", "u"))


def test_coproduct_b2():
    assert coproduct(B2, mono_xi(2)) == ts(
        2, (1, "x2", "x0"), (1, "x1^2", "x1"), (1, "x0^4", "x2")
    )


def test_counit():
    assert counit(B3, ONE) == 1
    assert counit(B3, parse_monomial("u^5")) == 1
    assert counit(B3, parse_monomial("u^2*x0^3")) == 1
    assert counit(B3, mono_w()) == 0
    assert counit(B3, mono_tau(0)) == 0
    assert counit(B3, mono_xi(1)) == 0
    assert counit(AT3, parse_monomial("u^4")) == 1
    assert counit(B2, mono_xi(0, 2)) == 1
    assert counit(B2, mono_xi(1)) == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_left_bbar_03():
    got = {format_monomial(m) for m in enumerate_left(BBAR3, (0, 3))}
    assert got == {"x1", "t1", "x0^3", "t0*x0^2"}
    rights = {format_monomial(m): BBAR3.right_degree(m) for m in enumerate_left(BBAR3, (0, 3))}
    assert rights == {"x1": (0, 1), "t1": (1, 0), "x0^3": (0, 3), "t0*x0^2": (1, 2)}


def test_enumerate_component():
    got = enumerate_component(BBAR3, (0, 3), (1, 0))
    assert [format_monomial(m) for m in got] == ["t1"]
    assert enumerate_component(BBAR3, (0, 3), (2, 0)) == []


def test_enumerate_left_atilde():
    # degree 6 = u^6 | t1 (2*3) | x1 (2*3) | t0*u^4 (2 + 4)
    got = {format_monomial(m) for m in enumerate_left(AT3, 6)}
    assert got == {"u^6", "t1", "x1", "t0*u^4"}
    assert {format_monomial(m) for m in enumerate_left(AT3, 3)} == {"u^3", "t0*u"}


def test_enumerate_left_b2():
    # partitions of 4 into powers of two
    got = {format_monomial(m) for m in enumerate_left(B2, 4)}
    assert got == {"x0^4", "x0^2*x1", "x1^2", "x2"}


def test_enumerate_box_counts_small():
    # all of the unit's company: box 2 over bbar at p=3
    got = {format_monomial(m) for m in enumerate_box(BBAR3, 2)}
    assert got == {"1", "u", "t0", "x0", "u^2"}


@pytest.mark.parametrize("name,p", [("bbar", 3), ("atilde", 3), ("bbar", 5), ("atilde", 5)])
def test_enumerate_right_matches_box_filter(name, p):
    preset = get_preset(name, p)
    box = 24
    every = enumerate_box(preset, box)
    rights = [(a, b) for a in range(4) for b in range(4)] if preset.bigraded else range(10)
    for right in rights:
        want = sorted((m for m in every if preset.right_degree(m) == right),
                      key=Monomial.sort_key)
        assert enumerate_right(preset, right, box) == want, right


def test_enumerate_right_rejects_other_gradings():
    with pytest.raises(ValueError):
        enumerate_right(B2, 2, 10)


# ---------------------------------------------------------------------------
# axioms


@pytest.mark.parametrize(
    "name,p,box",
    [
        ("b", 3, 12),
        ("bbar", 3, 14),
        ("atilde", 3, 14),
        ("bpp", 3, 16),
        ("u_xi0", 3, 14),
        ("u_only", 3, 20),
        ("xi_poly", 3, 14),
        ("b2", 2, 12),
        ("b", 5, 10),
    ],
)
def test_axioms_pass(name, p, box):
    preset = get_preset(name, p)
    assert check_bialgebra_axioms(preset, box, sample_pairs=60) is None


def test_axioms_catch_corrupted_coproduct():
    # dropping the w (x) t0 term of D(u) breaks coassociativity; the sweep
    # first notices at t0, whose routes disagree by t0 (x) w (x) t0
    u = mono_u()

    def corrupted(preset, m):
        if m == u:
            out = TensorSum(preset.p)
            out.add_term(u, u, 1)
            return out
        return coproduct(preset, m)

    failure = check_bialgebra_axioms(B3, 6, coproduct_fn=corrupted)
    assert failure is not None
    assert failure.axiom == "coassociativity"
    assert failure.monomials == (mono_tau(0),)
    assert "w" in failure.detail


def test_axioms_catch_wrong_sign():
    # flip the Koszul sign on the x0*t1 (x) u*t0 term of D(t0*t1)
    bad_key = (parse_monomial("x0*t1"), parse_monomial("u*t0"))

    def corrupted(preset, m):
        out = coproduct(preset, m)
        if bad_key in out.terms:
            flipped = TensorSum(preset.p, dict(out.terms))
            flipped.terms[bad_key] = (-flipped.terms[bad_key]) % preset.p
            return flipped
        return out

    failure = check_bialgebra_axioms(BBAR3, 10, coproduct_fn=corrupted)
    assert failure is not None
    assert failure.axiom == "coassociativity"
    assert failure.monomials == (parse_monomial("t0*t1"),)


# ---------------------------------------------------------------------------
# quotients and ideals


def test_quotient_maps():
    m = parse_monomial("w*u*x0^2")
    assert quotient_map(B3, BBAR3, m) == []
    m2 = parse_monomial("u*x0^2*x1")
    assert quotient_map(B3, BBAR3, m2) == [(1, m2)]
    assert quotient_map(B3, AT3, m2) == [(1, parse_monomial("u^5*x1"))]
    assert quotient_map(BBAR3, get_preset("u_xi0", 3), m2) == []
    assert quotient_map(BBAR3, get_preset("u_xi0", 3), parse_monomial("u*x0^2")) == [
        (1, parse_monomial("u*x0^2"))
    ]
    assert quotient_map(AT3, get_preset("u_only", 3), parse_monomial("u^5*x1")) == []
    with pytest.raises(ValueError):
        quotient_map(AT3, B3, mono_u())


def test_hopf_ideal_w():
    report = check_hopf_ideal(B3, ["w"], box=10)
    assert report.is_hopf_ideal, report.counterexample


def test_hopf_ideal_w_xi0():
    report = check_hopf_ideal(B3, ["w", "x0-u^2"], box=10)
    assert report.is_hopf_ideal, report.counterexample


def test_hopf_ideal_tau0():
    report = check_hopf_ideal(BBAR3, ["t0"], box=10)
    assert report.is_hopf_ideal, report.counterexample


def test_non_hopf_ideals_rejected():
    # (x0) alone is not a coideal in b: D(x0) has the term t0 (x) w
    report = check_hopf_ideal(B3, ["x0"], box=6)
    assert not report.is_coideal
    assert report.counterexample is not None
    # (u) fails the counit requirement and also fails coideal-ness
    report_u = check_hopf_ideal(B3, ["u"], box=6)
    assert not report_u.counit_vanishes
    assert not report_u.is_hopf_ideal


def test_xi0_minus_usq_alone_is_ideal_in_bbar():
    report = check_hopf_ideal(BBAR3, ["x0-u^2"], box=10)
    assert report.is_hopf_ideal, report.counterexample
