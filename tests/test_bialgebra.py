from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercomod import bialgebra
from supercomod.bialgebra import (
    MAX_TAU_INDEX,
    MAX_U_EXPONENT,
    MAX_XI_EXPONENT,
    MAX_XI_INDEX,
    ONE,
    PRESET_NAMES,
    HopfIdealReport,
    Monomial,
    _ideal_reduction,
    _QUOTIENTS,
    add_deg,
    cache_stats,
    check_bialgebra_axioms,
    check_hopf_ideal,
    coproduct,
    counit,
    enumerate_box,
    enumerate_component,
    enumerate_left,
    enumerate_right,
    first_difference,
    format_monomial,
    get_preset,
    mono_tau,
    mono_u,
    mono_w,
    mono_xi,
    parse_monomial,
    product,
    quotient_map,
    tensor_mul,
)
from support import box_reference

B3 = get_preset("b", 3)
BBAR3 = get_preset("bbar", 3)
AT3 = get_preset("atilde", 3)
B2 = get_preset("b2", 2)
ODD_PRESETS = ("b", "bbar", "atilde", "bpp", "u_xi0", "u_only", "xi_poly")


def _sum(p, pairs):
    """The sum mod p of the (key, coefficient) pairs, as a dict of the keys
    whose sum is nonzero; a sum that reaches 0 is popped, as in the engine."""
    out: dict = {}
    for key, c in pairs:
        new = (out.get(key, 0) + c) % p
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def ts(p, *terms):
    """The element sum c * a (x) b of B (x) B, from (c, "a", "b") triples."""
    return _sum(p, (((parse_monomial(a), parse_monomial(b)), c) for c, a, b in terms))


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
    with pytest.raises(ValueError, match="repeated exterior factor t0"):
        parse_monomial("t0*t0")
    with pytest.raises(ValueError, match="repeated exterior factor w"):
        parse_monomial("w*w")
    with pytest.raises(ValueError):
        parse_monomial("u^-1")
    # odd permutations of the exterior factors spell minus a monomial
    with pytest.raises(ValueError, match="'t1\\*t0' is minus 't0\\*t1'"):
        parse_monomial("t1*t0")
    with pytest.raises(ValueError, match="minus 'w\\*t0\\*u'"):
        parse_monomial("u*t0*w")


# even factors that may sit anywhere among the exterior ones, and their fields
EVEN_FACTORS = [([], {}), (["u^2"], {"u": 2}), (["x1^3"], {"xi": ((1, 3),)}),
                (["x2", "u*x0"], {"u": 1, "xi": ((0, 1), (2, 1))})]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["w", "t0", "t1", "t3", "t7"]), min_size=2, max_size=4,
                unique=True),
       st.sampled_from(EVEN_FACTORS))
def test_every_order_of_the_exterior_factors_parses_by_its_parity(letters, even):
    # w < t0 < t1 < ... is the sorted order; an odd permutation of it is
    # minus the monomial, which the parser refuses
    rank = {x: -1 if x == "w" else int(x[1:]) for x in letters}
    factors, fields = even
    m = Monomial(w="w" in letters, tau=sorted(r for r in rank.values() if r >= 0), **fields)
    for order in permutations(letters + factors):
        ext = [rank[x] for x in order if x in rank]
        text = "*".join(order)
        if sum(a > b for i, a in enumerate(ext) for b in ext[i + 1:]) % 2:
            with pytest.raises(ValueError, match="is minus"):
                parse_monomial(text)
        else:
            assert parse_monomial(text) is m, text


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
    assert parse_monomial("u^3*x1^2*t2*w*t0") is m
    # the parser sorts factors, so an unsorted text names a valid monomial
    # as long as its exterior factors are an even permutation
    assert parse_monomial("x2*x1^2") is Monomial(xi=((1, 2), (2, 1)))
    assert parse_monomial("t2*t0*t1") is mono_tau(0, 1, 2)
    assert product(parse_monomial("x1^2"), parse_monomial("u*x1"))[1] is parse_monomial("u*x1^3")
    assert mono_u(0) is ONE and parse_monomial("1") is ONE and Monomial() is ONE
    # integer-like input is stored as int; other numbers are refused
    assert Monomial(w=True, u=np.int64(2), xi=((np.int64(1), 3),)) is parse_monomial("w*u^2*x1^3")
    with pytest.raises(TypeError):
        Monomial(u=1.0)
    assert mono_xi(0) is not ONE


def test_monomial_pickles_to_the_interned_object():
    from supercomod.comodule import simple_comodule

    # presets are interned too, and so is the preset of an unpickled comodule
    for obj in (parse_monomial("w*t0*u^2*x1^4"), *EVERY_PRESET):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
    M = simple_comodule(B3, (1, 2))
    M2 = pickle.loads(pickle.dumps(M))
    assert M2.preset is M.preset and M2.matches(M)


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
    assert m.parity == 0 and mono_tau(0, 1, 2).parity == 1


def _reference_product(m1, m2):
    # the straightforward product: exterior letters w < t0 < t1 < ..., sign
    # from counting inversions, xi exponents added in a dict
    if m1.w and m2.w or set(m1.tau) & set(m2.tau):
        return 0, None
    e1 = ([-1] if m1.w else []) + list(m1.tau)
    e2 = ([-1] if m2.w else []) + list(m2.tau)
    inversions = sum(1 for a in e1 for b in e2 if a > b)
    xi = dict(m1.xi)
    for j, e in m2.xi:
        xi[j] = xi.get(j, 0) + e
    out = Monomial(m1.w + m2.w, tuple(sorted(m1.tau + m2.tau)), m1.u + m2.u,
                   tuple(sorted(xi.items())))
    return (-1 if inversions % 2 else 1), out


# monomials near the packing limits whose pairwise products stay inside them
LARGE_MONOMIALS = [
    Monomial(1, (0, MAX_TAU_INDEX), MAX_U_EXPONENT // 2, ((0, MAX_XI_EXPONENT // 2),)),
    Monomial(0, (3, 9, 14), 1, ((2, 7), (MAX_XI_INDEX, MAX_XI_EXPONENT // 2))),
    Monomial(0, (MAX_TAU_INDEX,), MAX_U_EXPONENT // 2, ((17, MAX_XI_EXPONENT // 2),)),
]


def test_product_matches_reference():
    monomials = [*enumerate_box(B3, 9), parse_monomial("t0*t1*t2*x0*x1^2*x2"), *LARGE_MONOMIALS]
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
    assert set(after) == {"coproduct", "enumeration", "degree_memos", "interned_monomials"}
    big = Monomial(u=987654, xi=((7, 1),))
    assert cache_stats()["interned_monomials"] == after["interned_monomials"] + 1
    # one degree memo per (preset name, p), held by its one preset
    memo = cache_stats()["degree_memos"]["b p=3"]
    B3.left_degree(big)
    B3.left_degree(big)
    get_preset("b", 3).right_degree(big)
    assert cache_stats()["degree_memos"]["b p=3"] == {"left": memo["left"] + 1,
                                                      "right": memo["right"] + 1}


def test_coproduct_reads_every_factor_through_one_memo():
    # D(t1*u^2*x1^3) = D(t1*u^2) D(x1^3), D(x1^3) = D(x1^2) D(x1) and so on:
    # every factor down to the letters is an entry of the coproduct memo
    coproduct.cache_clear()
    coproduct(B3, parse_monomial("t1*u^2*x1^3"))
    factors = ["t1*u^2*x1^3", "t1*u^2", "x1^3", "x1^2", "x1", "u^2", "u", "t1"]
    assert coproduct.cache_info().currsize == len(factors)
    misses = coproduct.cache_info().misses
    for text in factors:
        coproduct(B3, parse_monomial(text))
    assert coproduct.cache_info().misses == misses


def test_first_difference():
    assert first_difference(3, {"a": 1, "b": 2}, {"b": 2, "a": 1}, str) is None
    # a difference that vanishes mod p is no difference
    assert first_difference(3, {"a": 4, "c": 1}, {"a": 1, "c": 2}, str) == "c"
    assert first_difference(3, {"b": 1, "c": 1}, {"a": 2, "c": 1}, str) == "a"
    assert first_difference(3, {"b": 1, "c": 1}, {"a": 2}, lambda k: -ord(k)) == "c"


@pytest.mark.parametrize(
    "kwargs, text, message",
    [
        ({"u": MAX_U_EXPONENT + 1}, f"u^{MAX_U_EXPONENT + 1}", f"limit {MAX_U_EXPONENT}"),
        ({"tau": (MAX_TAU_INDEX + 1,)}, f"t{MAX_TAU_INDEX + 1}", f"limit {MAX_TAU_INDEX}"),
        ({"xi": ((MAX_XI_INDEX + 1, 1),)}, f"x{MAX_XI_INDEX + 1}", f"limit {MAX_XI_INDEX}"),
        ({"xi": ((2, MAX_XI_EXPONENT + 1),)}, f"x2^{MAX_XI_EXPONENT + 1}",
         f"limit {MAX_XI_EXPONENT}"),
        ({"tau": (-1,)}, "t-1", f"limit {MAX_TAU_INDEX}"),
    ],
)
def test_monomials_beyond_the_packing_limits_are_rejected(kwargs, text, message):
    with pytest.raises(ValueError, match=message):
        Monomial(**kwargs)
    with pytest.raises(ValueError, match=message):
        parse_monomial(text)


def test_monomials_at_the_packing_limits():
    m = Monomial(1, (0, MAX_TAU_INDEX), MAX_U_EXPONENT, ((0, 1), (MAX_XI_INDEX, MAX_XI_EXPONENT)))
    assert parse_monomial(format_monomial(m)) is m
    assert m.sort_key() == (1, (0, MAX_TAU_INDEX), MAX_U_EXPONENT,
                            ((0, 1), (MAX_XI_INDEX, MAX_XI_EXPONENT)))
    # factors the parser adds up are checked as their sum
    with pytest.raises(ValueError, match=f"limit {MAX_U_EXPONENT}"):
        parse_monomial(f"u^{MAX_U_EXPONENT}*u")
    assert product(mono_u(MAX_U_EXPONENT - 1), mono_u()) == (1, mono_u(MAX_U_EXPONENT))


@pytest.mark.parametrize(
    "m1, m2, message",
    [
        (mono_u(MAX_U_EXPONENT), mono_u(), f"u exponent of a product exceeds the limit "
                                           f"{MAX_U_EXPONENT}"),
        (mono_xi(3, MAX_XI_EXPONENT), parse_monomial("t1*x3*x4"),
         f"x3 exponent of a product exceeds the limit {MAX_XI_EXPONENT}"),
        (mono_xi(MAX_XI_INDEX, MAX_XI_EXPONENT), mono_xi(MAX_XI_INDEX, MAX_XI_EXPONENT),
         f"x{MAX_XI_INDEX} exponent of a product exceeds the limit {MAX_XI_EXPONENT}"),
        (mono_xi(0, MAX_XI_EXPONENT), mono_xi(0, 1),
         f"x0 exponent of a product exceeds the limit {MAX_XI_EXPONENT}"),
    ],
)
def test_product_overflow_raises(m1, m2, message):
    # a field that overflows would otherwise carry into the next letter
    with pytest.raises(ValueError, match=message):
        product(m1, m2)
    with pytest.raises(ValueError, match=message):
        product(m2, m1)


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


# Draws for the kernel properties: high t indices and exponents up to a
# `share` of each limit, so that a product of `share` factors stays
# representable.
def _exponents(limit, low=0, share=3):
    return st.sampled_from([*range(low, 4), *range(limit // share - 3, limit // share + 1)])


def _monomials(share):
    return st.builds(
        lambda w, tau, u, xi: Monomial(w, sorted(set(tau)), u, sorted(dict(xi).items())),
        st.integers(0, 1),
        st.lists(st.sampled_from([0, 1, 2, MAX_TAU_INDEX - 1, MAX_TAU_INDEX]), max_size=3),
        _exponents(MAX_U_EXPONENT, share=share),
        st.lists(st.tuples(st.sampled_from([0, 1, 2, MAX_XI_INDEX - 1, MAX_XI_INDEX]),
                           _exponents(MAX_XI_EXPONENT, low=1, share=share)), max_size=3),
    )


monomials_drawn = _monomials(3)


def _preset_or_none(name, p):
    try:
        return get_preset(name, p)
    except ValueError:  # the preset does not exist at p
        return None


EVERY_PRESET = [preset for name in PRESET_NAMES for p in (2, 3, 5)
                if (preset := _preset_or_none(name, p))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(EVERY_PRESET), monomials_drawn)
def test_a_monomial_lowers_total_degree_by_at_most_its_w(preset, m):
    # so that Comodule.validate need not check how far a coaction lowers
    # degree: the drawn monomial without the generators the preset lacks
    row = preset.row
    m = Monomial(m.w if row.w else 0, m.tau if row.tau else (), m.u if row.u else 0,
                 tuple(x for x in m.xi if row.allows_xi(x[0])))
    preset.validate_monomial(m)
    assert preset.total_degree(m) >= -m.w


def _times(x, y):
    """(sign, monomial) times (sign, monomial), 0 standing for zero."""
    (s, a), (t, b) = x, y
    if not (s and t):
        return 0, None
    r, ab = product(a, b)
    return s * t * r, ab


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monomials_drawn, monomials_drawn, monomials_drawn)
def test_product_is_associative_and_graded_commutative(m1, m2, m3):
    assert _times(product(m1, m2), (1, m3)) == _times((1, m1), product(m2, m3))
    for a, b in ((m1, m2), (m2, m3), (m1, m3)):
        s, ab = product(a, b)
        t, ba = product(b, a)
        assert ab is ba and s == (-t if a.parity and b.parity else t)
        assert (s, ab) == _reference_product(a, b)


def _tensor_sums(monomials):
    return st.lists(st.tuples(st.integers(1, 2), monomials, monomials), max_size=3).map(
        lambda terms: {(a, b): c for c, a, b in terms})


coproducts_drawn = st.sampled_from(enumerate_box(B3, 8)).map(lambda m: coproduct(B3, m))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(*[coproducts_drawn] * 3, *[_tensor_sums(monomials_drawn)] * 3)
def test_tensor_mul_is_associative(a, b, c, x, y, z):
    assert tensor_mul(3, tensor_mul(3, a, b), c) == tensor_mul(3, a, tensor_mul(3, b, c))
    assert tensor_mul(3, tensor_mul(3, x, y), z) == tensor_mul(3, x, tensor_mul(3, y, z))


def _pairwise_mul(p, x, y):
    """The reference for the kernel of ``tensor_mul``: the same loop over
    the pairs of terms, each factor multiplied by ``product``."""
    pairs = []
    for (a, b), c1 in x.items():
        for (c, d), c2 in y.items():
            s1, ac = product(a, c)
            if not s1:
                continue
            s2, bd = product(b, d)
            if not s2:
                continue
            if b.parity and c.parity:  # Koszul sign (-1)^{|b||c|}
                s2 = -s2
            pairs.append(((ac, bd), c1 * c2 * s1 * s2))
    return _sum(p, pairs)


# Coproducts, and sums whose factors from a small box collide and cancel and
# whose drawn factors reach the exterior letters, the highest t and x indices
# and half of each exponent limit.
kernel_factors = st.one_of(st.sampled_from(enumerate_box(B3, 5)), _monomials(2))


def _kernel_sums(p):
    return st.lists(st.tuples(st.integers(1, p - 1), kernel_factors, kernel_factors),
                    max_size=6).map(lambda terms: {(a, b): c for c, a, b in terms})


kernel_pairs = st.one_of(
    st.tuples(st.just(3), coproducts_drawn, coproducts_drawn),
    st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.tuples(st.just(p), _kernel_sums(p), _kernel_sums(p))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_pairs)
def test_tensor_mul_matches_the_pairwise_product(pair):
    p, x, y = pair
    got, want = tensor_mul(p, x, y), _pairwise_mul(p, x, y)
    assert list(got.items()) == list(want.items()), (p, x, y)


def test_tensor_mul_moves_a_sum_that_cancels_and_returns_to_the_end():
    # at p = 3 the sum at u^2 (x) 1 runs 1, 0, 2: popped at 0, it comes back
    # after u^4 (x) 1
    u = mono_u
    x = {(ONE, ONE): 1, (u(1), ONE): 1, (u(2), ONE): 1}
    y = {(u(2), ONE): 1, (u(1), ONE): 2, (ONE, ONE): 2}
    want = [((u(1), ONE), 1), ((ONE, ONE), 2), ((u(4), ONE), 1), ((u(2), ONE), 2)]
    assert list(tensor_mul(3, x, y).items()) == want
    assert list(_pairwise_mul(3, x, y).items()) == want


@pytest.mark.parametrize("slot", [0, 1])
def test_tensor_mul_overflow_raises_the_product_error(slot):
    big, more = mono_xi(3, MAX_XI_EXPONENT), parse_monomial("t1*x3*x4")
    with pytest.raises(ValueError) as expected:
        product(big, more)

    def one_term(m):
        return {(ONE, m) if slot else (m, ONE): 1}

    for multiply in (tensor_mul, _pairwise_mul):
        with pytest.raises(ValueError) as got:
            multiply(3, one_term(big), one_term(more))
        assert str(got.value) == str(expected.value)


def test_triple_exterior_sign():
    # (t0*t1) * t2 vs t2 * (t0*t1): moving t2 past two odd letters is even
    s1, m1 = product(mono_tau(0, 1), mono_tau(2))
    s2, m2 = product(mono_tau(2), mono_tau(0, 1))
    assert m1 == m2 == mono_tau(0, 1, 2)
    assert s1 == 1 and s2 == 1


@pytest.mark.parametrize("row, pad, other", [(BBAR3.row, "u", "x0"), (B2.row, "x0", "u")])
def test_unpadded_clears_only_the_power_of_the_row_pad(row, pad, other):
    # the pad is u where the row has u, else x0
    lam = parse_monomial("t0*x1^2")
    assert row.unpadded(lam) is lam and row.unpadded(parse_monomial(f"{pad}^2")) is ONE
    assert row.unpadded(parse_monomial(f"{pad}^3*t0*x1^2")) is lam
    for b in (f"{other}*t0*x1^2", f"{pad}*{other}*t0*x1^2", "x1^2", "t0*t1*x1^2",
              "t0*x1^3", "t0*x1", "w*t0*x1^2"):
        assert row.unpadded(parse_monomial(b)) is not lam, b
    assert row.unpadded(parse_monomial(f"{pad}*{other}*t0*x1^2")) is parse_monomial(
        f"{other}*t0*x1^2")


# ---------------------------------------------------------------------------
# gradings


def test_right_degree_of_a_power_operation_is_its_instability_threshold():
    # beta^e P^i is t0^e x1^i over atilde, threshold e + 2i; Sq^i is x1^i over b2
    for p in (3, 5, 7):
        for e in (0, 1):
            for i in range(1, 9):
                op = Monomial(tau=(0,) * e, xi=((1, i),))
                assert get_preset("atilde", p).right_degree(op) == e + 2 * i
    assert [B2.right_degree(mono_xi(1, i)) for i in range(1, 9)] == list(range(1, 9))


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


# (left, right) degrees of each generator, written out by hand as an oracle
# independent of the preset table; t and x take their index j
_BIGRADED = {
    "w": lambda p, j: ((1, 0), (0, 1)),
    "u": lambda p, j: ((1, 0), (1, 0)),
    "t": lambda p, j: ((0, p**j), (1, 0)),
    "x": lambda p, j: ((0, p**j), (0, 1)),
}
_SINGLY = {  # a bidegree (a, b) read as a + 2b
    "u": lambda p, j: (1, 1),
    "t": lambda p, j: (2 * p**j, 1),
    "x": lambda p, j: (2 * p**j, 2),
}
GENERATOR_DEGREES = {  # preset: (generator degrees, generators it has)
    "b": (_BIGRADED, {"w", "u", "t0", "t1", "x0", "x1"}),
    "bbar": (_BIGRADED, {"u", "t0", "t1", "x0", "x1"}),
    "atilde": (_SINGLY, {"u", "t0", "t1", "x1"}),
    "bpp": (_SINGLY, {"u", "x1"}),
    "u_xi0": (_BIGRADED, {"u", "x0"}),
    "u_only": (_SINGLY, {"u"}),
    "xi_poly": (_BIGRADED, {"x0", "x1"}),
    "b2": ({"x": lambda p, j: (2**j, 1)}, {"x0", "x1", "x2", "x3"}),
}


def _generators(m):
    """The factors of m as (generator, index, exponent)."""
    out = [("w", 0, m.w), ("u", 0, m.u)] + [("t", i, 1) for i in m.tau]
    return [(g, j, e) for g, j, e in out + [("x", j, e) for j, e in m.xi] if e]


def _oracle_degrees(name, p, m):
    table = GENERATOR_DEGREES[name][0]
    left = right = (0, 0) if table is _BIGRADED else 0
    for g, j, e in _generators(m):
        for _ in range(e):
            gl, gr = table[g](p, j)
            left, right = add_deg(left, gl), add_deg(right, gr)
    return left, right


@pytest.mark.parametrize(
    "name,p", [(name, 3) for name in ODD_PRESETS] + [("b2", 2), ("bbar", 5), ("atilde", 5)]
)
def test_degrees_match_the_generator_oracle(name, p):
    preset = get_preset(name, p)
    monomials = enumerate_box(preset, 12)
    present = {g if g in "wu" else f"{g}{j}" for m in monomials for g, j, _ in _generators(m)}
    assert present == GENERATOR_DEGREES[name][1]
    for m in monomials:
        assert (preset.left_degree(m), preset.right_degree(m)) == _oracle_degrees(name, p, m), m
    # degrees add along products
    for m1 in monomials[:40]:
        for m2 in monomials[:40]:
            s, m12 = product(m1, m2)
            if s:
                (l1, r1), (l2, r2) = _oracle_degrees(name, p, m1), _oracle_degrees(name, p, m2)
                assert preset.left_degree(m12) == add_deg(l1, l2), (m1, m2)
                assert preset.right_degree(m12) == add_deg(r1, r2), (m1, m2)


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


def test_get_preset_returns_one_object_per_name_and_prime(monkeypatch):
    for preset in EVERY_PRESET + [get_preset(name, 7) for name in ODD_PRESETS]:
        assert get_preset(preset.name, preset.p) is preset
    assert get_preset("b", 3) != get_preset("bbar", 3) != get_preset("bbar", 5)
    # p is interned as a plain int, also when a numpy integer asks first
    monkeypatch.setattr(bialgebra, "_INTERNED_PRESETS", {})
    preset = get_preset("b", np.int64(5))
    assert preset is get_preset("b", 5) and type(preset.p) is int
    with pytest.raises(TypeError):
        get_preset("b", 3.0)


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


@pytest.mark.parametrize(
    "name,p",
    [(name, 3) for name in ODD_PRESETS] + [("b2", 2), ("bbar", 5), ("atilde", 5)],
)
def test_enumerate_right_matches_box_filter(name, p):
    preset = get_preset(name, p)
    box = 24
    every = [m for m in enumerate_box(preset, box) if not m.w]
    rights = [(a, b) for a in range(4) for b in range(4)] if preset.bigraded else range(10)
    for right in rights:
        want = sorted((m for m in every if preset.right_degree(m) == right),
                      key=Monomial.sort_key)
        assert enumerate_right(preset, right, box) == want, right


@pytest.mark.parametrize("preset", EVERY_PRESET, ids=lambda pr: f"{pr.name}-{pr.p}")
def test_enumerators_match_the_brute_force_oracle(preset):
    # every enumerator against box_reference, order included, boxes 0 to 30
    every = box_reference(preset, 30)
    lefts: dict = {}
    rights: dict = {}
    for m, left, right, total in every:
        lefts.setdefault(left, {}).setdefault(right, []).append(m)
        if not m.w:
            rights.setdefault(right, []).append((m.sort_key(), m, total))
    for box in range(31):
        assert enumerate_box(preset, box) == [m for m, _, _, total in every if total <= box]
        for right, entries in rights.items():
            want = [m for _, m, total in sorted(entries) if total <= box]
            assert enumerate_right(preset, right, box) == want, (right, box)
    # the components of each left degree, and the right degrees of the small
    # monomials, which most left degrees lack
    small = {right for _, _, right, total in every if total <= 6}
    for left, parts in lefts.items():
        assert enumerate_left(preset, left) == sorted(
            (m for span in parts.values() for m in span), key=Monomial.sort_key)
        for right in small | parts.keys():
            assert enumerate_component(preset, left, right) == parts.get(right, []), right


def test_enumerate_right_builds_only_its_answers():
    # a fresh interpreter, so that no earlier test has interned these monomials
    script = """if True:
        import json
        from supercomod.bialgebra import cache_stats, enumerate_right, get_preset
        b2 = get_preset("b2", 2)
        before = cache_stats()
        got = enumerate_right(b2, 24, 40)
        after = cache_stats()
        print(json.dumps([[str(m) for m in got],
                          after["interned_monomials"] - before["interned_monomials"],
                          after["degree_memos"]["b2 p=2"]["left"]
                          - before["degree_memos"]["b2 p=2"]["left"]]))
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    names, interned, left_memo = json.loads(proc.stdout)
    got = [parse_monomial(name) for name in names]
    assert len(set(got)) == len(got) == 84
    assert got == sorted(got, key=Monomial.sort_key)
    assert all(B2.right_degree(m) == 24 and B2.left_degree(m) <= 40 for m in got)
    assert interned <= 84 and left_memo <= 84


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
    assert check_bialgebra_axioms(preset, box) is None


def test_axioms_catch_corrupted_coproduct():
    # dropping the w (x) t0 term of D(u) breaks coassociativity; the sweep
    # first notices at t0, whose routes disagree by t0 (x) w (x) t0
    u = mono_u()

    def corrupted(preset, m):
        if m == u:
            return {(u, u): 1}
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
        if bad_key in out:
            flipped = dict(out)
            flipped[bad_key] = (-flipped[bad_key]) % preset.p
            return flipped
        return out

    # the letters keep their coproducts, so the peel of t0*t1 = t0 * t1
    # is the first check to see the flip
    failure = check_bialgebra_axioms(BBAR3, 10, coproduct_fn=corrupted)
    assert failure is not None
    assert failure.axiom == "multiplicativity"
    assert failure.monomials == (mono_tau(0), mono_tau(1))
    assert "D(t0*t1)" in failure.detail


def test_axioms_name_the_counit_sum_that_fails():
    # doubling the grouplike term x0 (x) x0 of D(x0) keeps it homogeneous,
    # and the left counit law, checked first, then sums to 2 * 1 (x) x0
    x0 = mono_xi(0)

    def corrupted(preset, m):
        out = coproduct(preset, m)
        return {k: 2 * c if k == (x0, x0) else c for k, c in out.items()} if m is x0 else out

    failure = check_bialgebra_axioms(B3, 6, coproduct_fn=corrupted)
    assert failure is not None
    assert (failure.axiom, failure.monomials) == ("counit-left", (x0,))
    assert "(eps (x) 1) D(x0) = " in failure.detail and "2*(1)(x)(x0)" in failure.detail


def test_a_failure_lists_its_sum_sorted():
    two_terms = ts(3, (2, "u", "x0"), (1, "x0", "u"))
    assert list(two_terms) == [(mono_u(), mono_xi(0)), (mono_xi(0), mono_u())]
    assert bialgebra._format_sum(two_terms) == "1*(x0)(x)(u) + 2*(u)(x)(x0)"
    assert bialgebra._format_sum({}) == "0"


def _swept_axioms(preset, box, cop=coproduct):
    """The exhaustive reference for the letter proof: the first of
    coassociativity on every monomial of the box, then multiplicativity and
    graded commutativity on every pair of them, that fails; None if none."""
    p, monomials = preset.p, enumerate_box(preset, box)

    def apply(ts, slot):  # (D (x) 1) for slot 0, (1 (x) D) for slot 1
        out: dict = {}
        for (b1, b2), c in ts.items():
            for (a1, a2), d in cop(preset, b2 if slot else b1).items():
                key = (b1, a1, a2) if slot else (a1, a2, b2)
                out[key] = (out.get(key, 0) + c * d) % p
        return {k: v for k, v in out.items() if v}

    if any(apply(cop(preset, m), 0) != apply(cop(preset, m), 1) for m in monomials):
        return "coassociativity"
    for m1 in monomials:
        for m2 in monomials:
            s, m12 = product(m1, m2)
            want = {k: s * c % p for k, c in cop(preset, m12).items()} if s else {}
            if tensor_mul(p, cop(preset, m1), cop(preset, m2)) != want:
                return "multiplicativity"
            t, m21 = product(m2, m1)
            if m12 is not m21 or s != (-t if m1.parity and m2.parity else t):
                return "graded-commutativity"
    return None


def _per_monomial_laws(preset, box, cop=coproduct):
    """The reference for the laws proved on the letters: homogeneity, parity
    and both counit laws checked term by term on every monomial of the
    box + 1; the name of the first that fails, or None."""
    p = preset.p
    for m in enumerate_box(preset, box + 1):
        lm, rm = preset.left_degree(m), preset.right_degree(m)
        left_m: dict = {}
        right_m: dict = {}
        for (b1, b2), c in cop(preset, m).items():
            if (preset.left_degree(b1), preset.right_degree(b2)) != (lm, rm) \
                    or preset.right_degree(b1) != preset.left_degree(b2) \
                    or (b1.parity + b2.parity - m.parity) % 2:
                return "homogeneity"
            if counit(preset, b1):
                left_m[b2] = (left_m.get(b2, 0) + c) % p
            if counit(preset, b2):
                right_m[b1] = (right_m.get(b1, 0) + c) % p
        if p != 2 and (preset.total_degree(m) - m.parity) % 2:
            return "parity"
        if {k: v for k, v in left_m.items() if v} != {m: 1}:
            return "counit-left"
        if {k: v for k, v in right_m.items() if v} != {m: 1}:
            return "counit-right"
    return None


@pytest.mark.parametrize(
    "name,p,box",
    [("b", 3, 8), ("bbar", 3, 10), ("atilde", 3, 12), ("bpp", 3, 16), ("u_xi0", 3, 12),
     ("u_only", 3, 16), ("xi_poly", 3, 16), ("b2", 2, 10)],
)
def test_letter_proof_agrees_with_the_exhaustive_sweep(name, p, box):
    preset = get_preset(name, p)
    assert _swept_axioms(preset, box) is None
    assert _per_monomial_laws(preset, box) is None
    assert check_bialgebra_axioms(preset, box) is None


# The letter proof carries homogeneity, parity and the counit laws from the
# letters to every monomial because these formulas are additive (degrees,
# parity) and multiplicative (counit) along nonzero products, and the counit
# vanishes on odd monomials.
pairs_of_a_preset = st.sampled_from([(n, 3) for n in ODD_PRESETS] + [("b2", 2)]).flatmap(
    lambda np_: st.tuples(*[st.sampled_from(enumerate_box(get_preset(*np_), 14))] * 2).map(
        lambda pair: (get_preset(*np_), *pair)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs_of_a_preset)
def test_degrees_and_parity_add_and_the_counit_multiplies(drawn):
    preset, m1, m2 = drawn
    s, m12 = product(m1, m2)
    if not s:
        return
    for degree in (preset.left_degree, preset.right_degree):
        assert degree(m12) == add_deg(degree(m1), degree(m2)), (m1, m2)
    assert m12.parity == (m1.parity + m2.parity) % 2
    assert counit(preset, m12) == counit(preset, m1) * counit(preset, m2)
    assert not any(m.parity and counit(preset, m) for m in (m1, m2, m12))


def _mutant(change):
    """A coproduct that differs from the true one where change(m, D(m))
    returns a replacement."""
    def cop(preset, m):
        true = coproduct(preset, m)
        new = change(m, dict(true))
        return true if new is None else new
    return cop


def test_letter_proof_catches_a_dropped_term():
    # x1^3 (x) t0*x0^2 is invisible to both counits, so only the peel of
    # t1*x1^2 = x1 * t1*x1 can see it go
    m = parse_monomial("t1*x1^2")
    key = (parse_monomial("x1^3"), parse_monomial("t0*x0^2"))

    def drop(m1, ts):
        if m1 is m:
            del ts[key]
            return ts

    failure = check_bialgebra_axioms(BBAR3, 20, coproduct_fn=_mutant(drop))
    assert failure is not None and failure.axiom == "multiplicativity"
    assert failure.monomials == (mono_xi(1), parse_monomial("t1*x1"))
    assert "D(t1*x1^2)" in failure.detail


def test_letter_proof_catches_an_exchange_of_equal_bidegrees():
    # t0*u*x1 and t1*u*x0 share their left and right bidegrees, so the
    # exchange keeps every coproduct homogeneous
    a, b = parse_monomial("t0*u*x1"), parse_monomial("t1*u*x0")
    swap = _mutant(lambda m, ts: coproduct(BBAR3, b) if m is a
                   else coproduct(BBAR3, a) if m is b else None)
    for box in (8, 9, 12):  # the box + 1 reaches them from box 8 on
        failure = check_bialgebra_axioms(BBAR3, box, coproduct_fn=swap)
        assert failure is not None and failure.axiom == "multiplicativity", box
        assert f"D({a})" in failure.detail or f"D({b})" in failure.detail, box
    assert _swept_axioms(BBAR3, 9, swap) is not None
    assert _per_monomial_laws(BBAR3, 9, swap) is not None


def test_letter_proof_catches_a_sign_flip_deep_in_the_box():
    # one term of D(t0*t1*u*x0*x1), left total 17 of 20, that neither
    # counit sees, with its sign flipped
    m = parse_monomial("t0*t1*u*x0*x1")
    key = min((k for k in coproduct(BBAR3, m)
               if not counit(BBAR3, k[0]) and not counit(BBAR3, k[1])),
              key=lambda k: (k[0].sort_key(), k[1].sort_key()))

    def flip(m1, ts):
        if m1 is m:
            ts[key] = -ts[key] % 3
            return ts

    failure = check_bialgebra_axioms(BBAR3, 20, coproduct_fn=_mutant(flip))
    assert failure is not None and failure.axiom == "multiplicativity"
    assert f"D({m})" in failure.detail


# ---------------------------------------------------------------------------
# quotients and ideals


def test_quotient_maps():
    m = parse_monomial("w*u*x0^2")
    assert quotient_map(B3, BBAR3, m) is None
    m2 = parse_monomial("u*x0^2*x1")
    assert quotient_map(B3, BBAR3, m2) is m2
    assert quotient_map(B3, AT3, m2) is parse_monomial("u^5*x1")
    assert quotient_map(BBAR3, get_preset("u_xi0", 3), m2) is None
    assert quotient_map(BBAR3, get_preset("u_xi0", 3), parse_monomial("u*x0^2")) is \
        parse_monomial("u*x0^2")
    assert quotient_map(AT3, get_preset("u_only", 3), parse_monomial("u^5*x1")) is None
    with pytest.raises(ValueError):
        quotient_map(AT3, B3, mono_u())
    # a monomial outside the source preset is rejected, not sent to 0
    with pytest.raises(ValueError, match="has w, not permitted in preset bbar"):
        quotient_map(BBAR3, get_preset("u_xi0", 3), parse_monomial("w*t0"))


# The quotient maps as a table of flags, (kill_w, kill_tau, kill_xi_ge1,
# xi0_to_usq) per canonical pair: the reference the derived rule must match.
QUOTIENT_FLAGS = {
    ("b", "bbar"): (True, False, False, False),
    ("b", "atilde"): (True, False, False, True),
    ("b", "u_xi0"): (True, True, True, False),
    ("b", "u_only"): (True, True, True, True),
    ("bbar", "atilde"): (False, False, False, True),
    ("bbar", "u_xi0"): (False, True, True, False),
    ("bbar", "u_only"): (False, True, True, True),
    ("atilde", "u_only"): (False, True, True, False),
    ("u_xi0", "u_only"): (False, False, False, True),
}


def _reference_quotient(pair, m):
    kill_w, kill_tau, kill_xi, xi0_usq = QUOTIENT_FLAGS[pair]
    if (kill_w and m.w) or (kill_tau and m.tau):
        return None
    u, xi = m.u, []
    for j, e in m.xi:
        if j == 0 and xi0_usq:
            u += 2 * e
        elif j >= 1 and kill_xi:
            return None
        else:
            xi.append((j, e))
    return Monomial(m.w, m.tau, u, tuple(xi))


@pytest.mark.parametrize("p", [3, 5])
def test_quotient_map_matches_the_flag_table(p):
    # every canonical quotient is in the table, and its image is the
    # reference's monomial, or None for zero
    assert set(QUOTIENT_FLAGS) == _QUOTIENTS
    for src_name in ODD_PRESETS:
        src = get_preset(src_name, p)
        monomials = enumerate_box(src, 16)
        for dst_name in ODD_PRESETS:
            dst = get_preset(dst_name, p)
            pair = (src_name, dst_name)
            if pair not in QUOTIENT_FLAGS:
                with pytest.raises(ValueError, match="no canonical quotient"):
                    quotient_map(src, dst, ONE)
                continue
            for m in monomials:
                assert quotient_map(src, dst, m) is _reference_quotient(pair, m), (pair, m)


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
    # a generator that is a product of letters kills only its multiples:
    # D(w*t0) has the term 2 t0*u (x) w*u, in neither I (x) B nor B (x) I
    report_wt0 = check_hopf_ideal(B3, ["w*t0"], box=12)
    assert report_wt0.counit_vanishes and not report_wt0.is_coideal
    assert report_wt0.counterexample == "D(w*t0 * 1) has residue 2*(t0*u)(x)(w*u) mod I"


def test_xi0_minus_usq_alone_is_ideal_in_bbar():
    report = check_hopf_ideal(BBAR3, ["x0-u^2"], box=10)
    assert report.is_hopf_ideal, report.counterexample


def test_binomial_rewrites_the_monomial_generators():
    # modulo x0 - u^2 the generator x0 is u^2, so (x0 - u^2, x0) = (x0, u^2)
    # contains u^2 (x) u^2 = D(x0) reduced: a coideal, though not counital
    for gens in (["x0-u^2", "x0"], ["x0", "x0-u^2"]):
        report = check_hopf_ideal(BBAR3, gens, box=8)
        assert report.is_coideal and not report.counit_vanishes, report


def _hopf_by_box_sweep(preset, gens, box):
    """The exhaustive reference for the generator check: reduce D(g*m)
    modulo I for every generator g and every monomial m of the box."""
    gens, q, p = tuple(gens), _ideal_reduction(tuple(gens)), preset.p
    terms = {g: [(1, mono_xi(0)), (-1, mono_u(2))] if g == "x0-u^2"
             else [(1, parse_monomial(g))] for g in gens}
    counit_ok = all(sum(c * counit(preset, x) for c, x in terms[g]) % p == 0 for g in gens)
    for g in gens:
        for m in enumerate_box(preset, box):
            pairs = []
            for c, x in terms[g]:
                s, gm = product(x, m)
                for (b1, b2), d in (coproduct(preset, gm).items() if s else ()):
                    if q(b1) is not None and q(b2) is not None:
                        pairs.append(((q(b1), q(b2)), c * s * d))
            residue = _sum(p, pairs)
            if residue:
                (b1, b2), c = next(iter(residue.items()))
                return HopfIdealReport(gens, counit_ok, False,
                                       f"D({g} * {m}) has residue {c}*({b1})(x)({b2}) mod I")
    return HopfIdealReport(gens, counit_ok, True, None)


# every input of the Hopf-ideal tests above
HOPF_INPUTS = [
    ("b", ["w"], 10), ("b", ["w", "x0-u^2"], 10), ("bbar", ["t0"], 10), ("b", ["x0"], 6),
    ("b", ["u"], 6), ("b", ["w*t0"], 12), ("bbar", ["x0-u^2"], 10),
    ("bbar", ["x0-u^2", "x0"], 8), ("bbar", ["x0", "x0-u^2"], 8),
]


@pytest.mark.parametrize("name, gens, box", HOPF_INPUTS,
                         ids=[f"{name}:{','.join(gens)}" for name, gens, _ in HOPF_INPUTS])
def test_hopf_ideal_from_the_generators_agrees_with_the_box_sweep(name, gens, box):
    preset = get_preset(name, 3)
    assert check_hopf_ideal(preset, gens) == _hopf_by_box_sweep(preset, gens, box)


# ---------------------------------------------------------------------------
# preset membership by one mask on the packed key


def _reference_lacks(row, m):
    """The first generator of m that the row does not have, field by field."""
    if m.w and not row.w:
        return "w"
    if m.tau and not row.tau:
        return "tau"
    if m.u and not row.u:
        return "u"
    return next((f"x{j}" for j, _ in m.xi if not row.allows_xi(j)), None)


# one letter just outside each preset, and letters at the packing limits,
# whose exponents set the top bit of their field alone or every bit
LACKING_LETTERS = {"atilde": "x0", "bbar": "w", "bpp": "t0", "xi_poly": "u", "u_xi0": "x1"}
EDGE_MONOMIALS = [
    Monomial(tau=(MAX_TAU_INDEX,)),
    Monomial(u=MAX_U_EXPONENT),
    Monomial(u=(MAX_U_EXPONENT + 1) // 2),
    Monomial(xi=((MAX_XI_INDEX, MAX_XI_EXPONENT),)),
    *(Monomial(xi=((j, (MAX_XI_EXPONENT + 1) // 2),)) for j in (0, 1, MAX_XI_INDEX)),
    Monomial(w=1, tau=(0, MAX_TAU_INDEX), u=3, xi=((0, 2), (1, 1), (MAX_XI_INDEX, 1))),
]


@pytest.mark.parametrize("name", ODD_PRESETS + ("b2",))
def test_lacks_mask_agrees_with_the_field_rule(name):
    preset = get_preset(name, 2 if name == "b2" else 3)
    row = preset.row
    monomials = enumerate_box(B3, 12) + EDGE_MONOMIALS + [
        parse_monomial(text) for text in LACKING_LETTERS.values()]
    for m in monomials:
        gen = _reference_lacks(row, m)
        assert row.lacks(m) == gen, (name, m)
        if gen is None:
            preset.validate_monomial(m)
        else:
            message = f"monomial {m} has {gen}, not permitted in preset {name}"
            with pytest.raises(ValueError) as info:
                preset.validate_monomial(m)
            assert str(info.value) == message


def test_lacking_letters_are_named_as_before():
    for name, letter in LACKING_LETTERS.items():
        gen = letter if letter in ("w", "u") or letter.startswith("x") else "tau"
        with pytest.raises(ValueError) as info:
            get_preset(name, 3).validate_monomial(parse_monomial(letter))
        assert str(info.value) == f"monomial {letter} has {gen}, not permitted in preset {name}"
    # quotient_map checks its source with the same message, and sends a
    # monomial the target lacks to 0
    with pytest.raises(ValueError) as info:
        quotient_map(BBAR3, get_preset("u_xi0", 3), parse_monomial("w*t0*x1"))
    assert str(info.value) == "monomial w*t0*x1 has w, not permitted in preset bbar"
    assert quotient_map(BBAR3, get_preset("u_xi0", 3), parse_monomial("u*x0*x1")) is None
