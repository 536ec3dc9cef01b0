from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import pytest

from supercomod.functorcomb import (
    count_distinct_powers,
    count_hom,
    count_hom_gamma_gamma,
    count_power_multisets,
    eval_dims,
    hom_gamma_lambda,
    hom_lambda_gamma,
    poincare_r_prime,
)


def test_distinct_powers_frozen_p3():
    assert count_distinct_powers(3, 0, 0) == 1
    assert count_distinct_powers(3, 1, 1) == 1
    assert count_distinct_powers(3, 2, 1) == 0
    assert count_distinct_powers(3, 4, 2) == 1  # 1 + 3
    assert count_distinct_powers(3, 13, 3) == 1  # 1 + 3 + 9
    assert count_distinct_powers(3, 12, 2) == 1  # 3 + 9
    assert count_distinct_powers(3, 2, 2) == 0  # powers must be distinct


def test_power_multisets_frozen_p3():
    assert count_power_multisets(3, 0, 0) == 1
    assert count_power_multisets(3, 4, 2) == 1  # {1, 3}
    assert count_power_multisets(3, 4, 4) == 1  # {1, 1, 1, 1}
    assert count_power_multisets(3, 6, 2) == 1  # {3, 3}
    assert count_power_multisets(3, 5, 3) == 1  # {1, 1, 3}
    assert count_power_multisets(3, 5, 1) == 0
    assert count_power_multisets(3, 9, 1) == 1
    assert count_power_multisets(3, 12, 4) == 2  # {3,3,3,3}, {1,1,1,9}


def test_count_hom_frozen_p3():
    # weights of the component dims of the coinduced module at xi0-weight 3
    assert count_hom(3, 3, 0, 1) == 1
    assert count_hom(3, 3, 1, 0) == 1
    assert count_hom(3, 3, 0, 3) == 1
    assert count_hom(3, 3, 1, 2) == 1
    assert count_hom(3, 3, 1, 1) == 0
    assert count_hom(3, 4, 1, 1) == 2  # (1)+(3) and (3)+(1)
    assert count_hom(3, 0, 0, 0) == 1
    assert count_hom(3, 5, 0, 0) == 0


def _powers(p: int, bound: int) -> list[int]:
    """The powers of p up to bound."""
    out = [1]
    while out[-1] * p <= bound:
        out.append(out[-1] * p)
    return out


@pytest.mark.parametrize("p", (2, 3, 5))
def test_distinct_powers_match_subset_enumeration(p):
    bound = 60
    powers = _powers(p, bound)
    counts = {}
    for a in range(len(powers) + 1):
        for subset in combinations(powers, a):
            key = (sum(subset), a)
            counts[key] = counts.get(key, 0) + 1
    for s in range(bound + 1):
        for a in range(len(powers) + 2):
            assert count_distinct_powers(p, s, a) == counts.get((s, a), 0), (s, a)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_power_multisets_match_multiset_enumeration(p):
    bound = 40
    powers = _powers(p, bound)
    counts = {}
    # k parts larger than 1, then any number e of parts equal to 1
    for k in range(bound // p + 1):
        for multi in combinations_with_replacement(powers[1:], k):
            for e in range(bound - sum(multi) + 1):
                key = (sum(multi) + e, k + e)
                counts[key] = counts.get(key, 0) + 1
    for m in range(bound + 1):
        for b in range(bound + 2):
            assert count_power_multisets(p, m, b) == counts.get((m, b), 0), (m, b)


def test_count_hom_totals_match_direct_enumeration():
    # brute force over explicit (subset, multiset) pairs for small n
    for p in (2, 3, 5):
        powers = _powers(p, 13)
        for n in range(0, 14):
            for a in range(0, 4):
                for b in range(0, 5):
                    count = 0
                    for subset in combinations(powers, a):
                        for multi in combinations_with_replacement(powers, b):
                            if sum(subset) + sum(multi) == n:
                                count += 1
                    assert count_hom(p, n, a, b) == count, (p, n, a, b)


def test_gamma_gamma_and_lambda_tables():
    assert count_hom_gamma_gamma(3, 4, 2) == 1
    assert count_hom_gamma_gamma(3, 2, 2) == 1
    assert count_hom_gamma_gamma(3, 5, 1) == 0
    assert hom_lambda_gamma(0, 0) == 1
    assert hom_lambda_gamma(1, 1) == 1
    assert hom_lambda_gamma(2, 2) == 0
    assert hom_lambda_gamma(1, 2) == 0
    assert hom_gamma_lambda(3, 4, 2) == 1
    assert hom_gamma_lambda(3, 2, 2) == 0


def test_eval_dims():
    assert eval_dims(2, 1, 2) == 6
    assert eval_dims(1, 0, 0) == 1
    assert eval_dims(4, 2, 1) == 6 * 4
    assert eval_dims(3, 4, 0) == 0


@pytest.mark.parametrize("p", (3, 5))
def test_poincare_r_prime_single_lambda(p):
    # Hom(Gamma^n, Lambda^1) is one-dimensional exactly at single p-powers
    table = poincare_r_prime(p, 1, 0, p**3)
    assert table == {p**i: 1 for i in range(4) if p**i <= p**3}


def test_poincare_r_prime_splitting_consistency():
    # Hom(Gamma^n, Lambda^a (x) Gamma^b) decomposes over weight splittings
    p = 3
    for n in range(0, 16):
        for a in range(0, 3):
            for b in range(0, 3):
                split = sum(
                    hom_gamma_lambda(p, i, a) * count_hom_gamma_gamma(p, n - i, b)
                    for i in range(n + 1)
                )
                assert split == count_hom(p, n, a, b)
