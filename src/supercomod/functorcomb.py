"""Dimension combinatorics for hom spaces between exterior and divided powers.

Everything here is integer counting; no field arithmetic.  These counts give
an independent path to the dimensions of the standard comodules:

* ``count_hom(p, n, a, b)`` counts pairs of a sequence of distinct p-powers
  (a of them) and a multiset of p-powers (b of them) with total sum n; this
  is dim Hom(Gamma^n, Lambda^a (x) Gamma^b).
* ``eval_dims`` is the elementary count of a bi-homogeneous component of an
  n-fold tensor power of one exterior and one polynomial generator.

Both counts of p-powers are closed forms, not searches:

* Base-p expansions are unique, so s is a sum of a distinct p-powers in one
  way if its base-p digits are all 0 or 1 and a of them are 1, else in none.
* Let e of the b parts of a multiset of p-powers with sum m be 1.  The
  other b - e are multiples of p, so e = m (mod p); divided by p they form
  a multiset of b - e p-powers with sum (m - e)/p, and times p it gives
  them back.  So the count is a sum over e.  It is 0 when b > m (each part
  is at least 1) and 1 at m = b = 0 (the empty multiset).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb


@lru_cache(maxsize=None)
def count_distinct_powers(p: int, s: int, a: int) -> int:
    """Number of a-element subsets of {1, p, p^2, ...} with sum s."""
    if s < 0:
        return 0
    ones = 0
    while s:
        s, digit = divmod(s, p)
        if digit > 1:
            return 0
        ones += digit
    return 1 if ones == a else 0


@lru_cache(maxsize=None)
def count_power_multisets(p: int, m: int, b: int) -> int:
    """Number of multisets of b powers of p (repeats allowed) with sum m."""
    if b > m or m == 0:
        return 1 if m == b == 0 else 0
    return sum(count_power_multisets(p, (m - e) // p, b - e)
               for e in range(m % p, min(m, b) + 1, p))


@lru_cache(maxsize=None)
def count_hom(p: int, n: int, a: int, b: int) -> int:
    """dim Hom(Gamma^n, Lambda^a (x) Gamma^b) over F_p.

    Counts pairs (S, N) where S is an a-subset of p-powers, N a b-multiset
    of p-powers, and sum(S) + sum(N) = n: a sum over the a-subsets S of the
    p-powers <= n of the multisets N with sum n - sum(S).
    """
    if n < 0 or a < 0 or b < 0:
        return 0
    powers = [p**i for i in range(n.bit_length()) if p**i <= n]
    return sum(count_power_multisets(p, n - sum(S), b) for S in combinations(powers, a))


def count_hom_gamma_gamma(p: int, m: int, n: int) -> int:
    """dim Hom(Gamma^m, Gamma^n): multisets of n p-powers summing to m."""
    return count_power_multisets(p, m, n)


def hom_lambda_gamma(a: int, b: int) -> int:
    """dim Hom(Lambda^a, Gamma^b): one-dimensional iff a = b in {0, 1}."""
    return 1 if a == b and a in (0, 1) else 0


def hom_gamma_lambda(p: int, n: int, a: int) -> int:
    """dim Hom(Gamma^n, Lambda^a): 1 iff n is a sum of a distinct p-powers."""
    return count_distinct_powers(p, n, a)


def eval_dims(n: int, a: int, b: int) -> int:
    """Dimension of the (a, b) component of (Lambda(y) (x) F[x])^(x) n."""
    if a < 0 or a > n or b < 0:
        return 0
    if n == 0:
        return 1 if b == 0 else 0
    return comb(n, a) * comb(b + n - 1, n - 1)


def poincare_r_prime(p: int, a: int, b: int, nmax: int) -> dict[int, int]:
    """Weight table {n: dim} of Hom(Gamma^n, Lambda^a (x) Gamma^b), n <= nmax."""
    table = {}
    for n in range(nmax + 1):
        d = count_hom(p, n, a, b)
        if d:
            table[n] = d
    return table
