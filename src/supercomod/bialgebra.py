"""Super bialgebras of endomorphism type over F_p, as finite monomial data.

The master algebra is the free graded-commutative algebra on one exterior
generator w, exterior generators t0, t1, ... (written tau in math), one
polynomial generator u and polynomial generators x0, x1, ... (written xi).
Its coproduct and the coproducts of its quotients are generated by

    D(u)   = u (x) u  +  w (x) t0
    D(w)   = u (x) w  +  w (x) x0
    D(t_i) = sum_s x_{i-s}^{p^s} (x) t_s  +  t_i (x) u
    D(x_j) = sum_s x_{j-s}^{p^s} (x) x_s  +  t_j (x) w

with the Koszul sign rule (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd.

Eight presets select which generators exist and how elements are graded;
see ``PRESET_NAMES``.  Monomials are immutable and preset-agnostic; a preset
turns them into bigraded or singly graded basis elements.

Monomials are interned: equal monomials are one object, so comparing and
hashing them is by identity.  Input is validated where it enters, by
``Monomial(...)``, the ``mono*`` helpers and ``parse_monomial``; products,
coproduct recursion, quotient maps and ideal reductions build their results
from valid operands with the private ``_monomial``, which does not check
again.  No output may depend on the iteration order of a set of monomials
(identity hashes vary from run to run), so such sets are sorted first.
``cache_stats()`` reports the coproduct caches and the number of interned
monomials.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from operator import index

ODD_PRIMES = (3, 5, 7)
PRESET_NAMES = (
    "b",        # full algebra, bigraded
    "bbar",     # w = 0, bigraded
    "atilde",   # w = 0 and x0 = u^2, singly graded
    "bpp",      # subalgebra of atilde on u and x_{j>=1}, singly graded
    "u_xi0",    # polynomial algebra on u, x0, bigraded, grouplike
    "u_only",   # polynomial algebra on u, singly graded, grouplike
    "xi_poly",  # polynomial algebra on all x_j, bigraded
    "b2",       # p = 2 only: polynomial algebra on all x_j, singly graded
)


# ---------------------------------------------------------------------------
# monomials


class Monomial:
    """w^w * t_{i in tau} * u^u * prod x_j^e  with tau, xi sorted.

    Interned and immutable (see the module docstring); `Monomial(...)`
    validates its input, and an instance pickles back to the interned object.
    """

    __slots__ = ("w", "tau", "u", "xi", "parity", "_key")

    def __new__(cls, w: int = 0, tau=(), u: int = 0, xi=()):
        # plain int tuples, so that an interned key never holds a float,
        # a bool or a numpy integer that later equal lookups would return
        w, u = index(w), index(u)
        tau = tuple(map(index, tau))
        xi = tuple((index(j), index(e)) for j, e in xi)
        m = _INTERNED.get((w, tau, u, xi))
        if m is not None:
            return m
        if w not in (0, 1):
            raise ValueError("w exponent must be 0 or 1")
        if list(tau) != sorted(set(tau)):
            raise ValueError("tau indices must be strictly increasing")
        if any(e <= 0 for _, e in xi):
            raise ValueError("xi exponents must be positive")
        if [j for j, _ in xi] != sorted({j for j, _ in xi}):
            raise ValueError("xi indices must be strictly increasing")
        if u < 0:
            raise ValueError("u exponent must be nonnegative")
        return _new_monomial((w, tau, u, xi))

    def __setattr__(self, name, value):
        raise AttributeError(f"Monomial is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Monomial is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Monomial, self._key)

    def __repr__(self) -> str:
        return f"Monomial(w={self.w!r}, tau={self.tau!r}, u={self.u!r}, xi={self.xi!r})"

    def xi_dict(self) -> dict[int, int]:
        return dict(self.xi)

    def is_one(self) -> bool:
        return self is ONE

    def sort_key(self):
        return self._key

    def __str__(self) -> str:
        return format_monomial(self)


_INTERNED: dict[tuple, Monomial] = {}
_set_slot = object.__setattr__


def _new_monomial(key: tuple) -> Monomial:
    """Intern a new monomial from a valid, not yet interned (w, tau, u, xi)."""
    m = object.__new__(Monomial)
    w, tau, u, xi = key
    _set_slot(m, "w", w)
    _set_slot(m, "tau", tau)
    _set_slot(m, "u", u)
    _set_slot(m, "xi", xi)
    _set_slot(m, "parity", (w + len(tau)) % 2)
    _set_slot(m, "_key", key)
    _INTERNED[key] = m
    return m


def _monomial(w: int, tau: tuple, u: int, xi: tuple) -> Monomial:
    """Trusted constructor: the interned monomial of (w, tau, u, xi), which
    the caller guarantees valid (tau and xi sorted tuples, exponents in
    range).  Only for results built from monomials that are already valid."""
    key = (w, tau, u, xi)
    return _INTERNED.get(key) or _new_monomial(key)


ONE = Monomial()


def mono(w: int = 0, tau=(), u: int = 0, xi=()) -> Monomial:
    return Monomial(w, tuple(sorted(tau)), u, tuple(sorted(xi)))


def mono_u(k: int = 1) -> Monomial:
    return Monomial(u=k)


def mono_w() -> Monomial:
    return Monomial(w=1)


def mono_tau(*indices: int) -> Monomial:
    return Monomial(tau=tuple(sorted(indices)))


def mono_xi(j: int, e: int = 1) -> Monomial:
    return Monomial(xi=((j, e),))


def format_monomial(m: Monomial) -> str:
    if m.is_one():
        return "1"
    parts = []
    if m.w:
        parts.append("w")
    for i in m.tau:
        parts.append(f"t{i}")
    if m.u == 1:
        parts.append("u")
    elif m.u:
        parts.append(f"u^{m.u}")
    for j, e in m.xi:
        parts.append(f"x{j}" if e == 1 else f"x{j}^{e}")
    return "*".join(parts)


def parse_monomial(text: str) -> Monomial:
    """Parse the ``w*t0*u^2*x1^4`` syntax; "1" is the unit."""
    text = text.strip()
    if text == "1":
        return ONE
    w = 0
    tau: list[int] = []
    u = 0
    xi: dict[int, int] = {}
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in monomial {text!r}")
        if "^" in factor:
            base, _, exp_s = factor.partition("^")
            try:
                exp = int(exp_s)
            except ValueError:
                raise ValueError(f"bad exponent in {factor!r}") from None
        else:
            base, exp = factor, 1
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {factor!r}")
        if base == "w":
            if exp != 1 or w:
                raise ValueError("w is exterior; w^e with e > 1 is zero, not a monomial")
            w = 1
        elif base == "u":
            u += exp
        elif base.startswith("t"):
            if exp != 1:
                raise ValueError(f"{base} is exterior; exponent must be 1")
            idx = int(base[1:])
            if idx in tau:
                raise ValueError(f"repeated exterior factor {base}")
            tau.append(idx)
        elif base.startswith("x"):
            idx = int(base[1:])
            xi[idx] = xi.get(idx, 0) + exp
        else:
            raise ValueError(f"unknown generator {base!r}")
    return Monomial(w, tuple(sorted(tau)), u, tuple(sorted(xi.items())))


def product(m1: Monomial, m2: Monomial) -> tuple[int, Monomial | None]:
    """Graded-commutative product; returns (sign, monomial) or (0, None)."""
    w1, w2 = m1.w, m2.w
    if w1 and w2:
        return 0, None
    # exterior letters ordered w < t0 < t1 < ...; the sign counts the pairs
    # (a from m1, b from m2) with a > b: all of m1's tau against w2, and
    # the inversions between the two tau tuples
    t1, t2 = m1.tau, m2.tau
    inversions = len(t1) if w2 else 0
    if not t2:
        tau = t1
    elif not t1:
        tau = t2
    else:
        tau = t1
        for b in t2:
            k = bisect_left(tau, b)
            if k < len(tau) and tau[k] == b:
                return 0, None
            inversions += len(tau) - k
            tau = tau[:k] + (b,) + tau[k:]
    x1, x2 = m1.xi, m2.xi
    if not x2:
        xi = x1
    elif not x1:
        xi = x2
    else:
        xi = _xi_merge(x1, x2)
    return (-1 if inversions & 1 else 1), _monomial(w1 + w2, tau, m1.u + m2.u, xi)


def _xi_merge(x1: tuple, x2: tuple) -> tuple:
    """The product of two nonempty xi parts, as one sorted xi tuple."""
    xi = x1
    for j, e in x2:
        k = bisect_left(xi, (j,))
        if k < len(xi) and xi[k][0] == j:
            xi = xi[:k] + ((j, xi[k][1] + e),) + xi[k + 1:]
        else:
            xi = xi[:k] + ((j, e),) + xi[k:]
    return xi


# ---------------------------------------------------------------------------
# presets and gradings

Deg = int | tuple[int, int]


@dataclass(frozen=True)
class CoalgebraPreset:
    """A choice of quotient/subalgebra together with its grading type."""

    name: str
    p: int

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}")
        if self.name == "b2":
            if self.p != 2:
                raise ValueError("preset b2 requires p = 2")
        elif self.p not in ODD_PRIMES:
            raise ValueError(f"preset {self.name!r} requires an odd prime in {ODD_PRIMES}")

    # ---- generator permissions

    @property
    def allows_w(self) -> bool:
        return self.name == "b"

    @property
    def allows_tau(self) -> bool:
        return self.name in ("b", "bbar", "atilde")

    @property
    def allows_u(self) -> bool:
        return self.name in ("b", "bbar", "atilde", "bpp", "u_xi0", "u_only")

    @property
    def min_xi_index(self) -> int | None:
        """Smallest permitted xi index, or None if xi is not permitted."""
        if self.name in ("b", "bbar", "u_xi0", "xi_poly", "b2"):
            return 0
        if self.name in ("atilde", "bpp"):
            return 1
        return None  # u_only

    @property
    def max_xi_index(self) -> int | None:
        return 0 if self.name == "u_xi0" else None

    @property
    def bigraded(self) -> bool:
        return self.name in ("b", "bbar", "u_xi0", "xi_poly")

    def validate_monomial(self, m: Monomial) -> None:
        if m.w and not self.allows_w:
            raise ValueError(f"monomial {m} has w, not permitted in preset {self.name}")
        if m.tau and not self.allows_tau:
            raise ValueError(f"monomial {m} has tau, not permitted in preset {self.name}")
        if m.u and not self.allows_u:
            raise ValueError(f"monomial {m} has u, not permitted in preset {self.name}")
        lo = self.min_xi_index
        for j, _ in m.xi:
            if lo is None or j < lo or (self.max_xi_index is not None and j > self.max_xi_index):
                raise ValueError(f"monomial {m} has x{j}, not permitted in preset {self.name}")

    # ---- gradings

    def left_degree(self, m: Monomial):
        if self.bigraded:
            a = m.u + m.w
            b = sum(self.p**i for i in m.tau) + sum(e * self.p**j for j, e in m.xi)
            return (a, b)
        if self.name in ("atilde", "bpp"):
            return (
                m.u
                + 2 * sum(self.p**i for i in m.tau)
                + 2 * sum(e * self.p**j for j, e in m.xi)
            )
        if self.name == "u_only":
            return m.u
        # b2
        return sum(e * 2**j for j, e in m.xi)

    def right_degree(self, m: Monomial):
        if self.bigraded:
            return (m.u + len(m.tau), m.w + sum(e for _, e in m.xi))
        if self.name in ("atilde", "bpp"):
            return m.u + len(m.tau) + 2 * sum(e for _, e in m.xi)
        if self.name == "u_only":
            return m.u
        return sum(e for _, e in m.xi)

    def total_degree(self, m: Monomial) -> int:
        return total_of(self.left_degree(m)) - total_of(self.right_degree(m))


def total_of(deg) -> int:
    """Collapse a bidegree (a, b) to a + 2b; integers pass through."""
    if isinstance(deg, tuple):
        a, b = deg
        return a + 2 * b
    return deg


def parity_of(deg) -> int:
    return total_of(deg) % 2


def add_deg(d1, d2):
    if isinstance(d1, tuple) != isinstance(d2, tuple):
        raise ValueError(f"mixed degree types: {d1} vs {d2}")
    if isinstance(d1, tuple):
        return (d1[0] + d2[0], d1[1] + d2[1])
    return d1 + d2


def get_preset(name: str, p: int) -> CoalgebraPreset:
    return CoalgebraPreset(name, p)


# ---------------------------------------------------------------------------
# tensor-square arithmetic


class TensorSum:
    """An element of B (x) B: a finite sum of monomial pairs with F_p coeffs."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[tuple[Monomial, Monomial], int] | None = None):
        self.p = p
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c %= p
                if c:
                    self.terms[key] = c

    @classmethod
    def unit(cls, p: int) -> "TensorSum":
        return cls(p, {(ONE, ONE): 1})

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSum) and self.p == other.p and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*({a})(x)({b})" for (a, b), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
        ))
        return f"TensorSum[{body or '0'}]"

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, a: Monomial, b: Monomial, c: int) -> None:
        key = (a, b)
        new = (self.terms.get(key, 0) + c) % self.p
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def mul(self, other: "TensorSum") -> "TensorSum":
        p = self.p
        out = TensorSum(p)
        terms = out.terms
        for (a, b), c1 in self.terms.items():
            pb = b.parity
            for (c, d), c2 in other.terms.items():
                s1, ac = product(a, c)
                if not s1:
                    continue
                s2, bd = product(b, d)
                if not s2:
                    continue
                if pb and c.parity:  # Koszul sign (-1)^{|b||c|}
                    s2 = -s2
                key = (ac, bd)
                new = (terms.get(key, 0) + c1 * c2 * s1 * s2) % p
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return out


# ---------------------------------------------------------------------------
# coproduct, counit


def _xi_power_rewritten(preset: CoalgebraPreset, j: int, e: int) -> Monomial:
    """x_j^e, with x_0 rewritten to u^2 in the presets that identify them."""
    if j == 0 and preset.name in ("atilde", "bpp"):
        return Monomial(u=2 * e)
    return Monomial(xi=((j, e),))


def _generator_coproduct(preset: CoalgebraPreset, kind: str, idx: int = 0) -> TensorSum:
    p = preset.p
    name = preset.name
    ts = TensorSum(p)
    if kind == "u":
        ts.add_term(mono_u(), mono_u(), 1)
        if name == "b":
            ts.add_term(mono_w(), mono_tau(0), 1)
        return ts
    if kind == "w":
        if name != "b":
            raise ValueError(f"no w in preset {name}")
        ts.add_term(mono_u(), mono_w(), 1)
        ts.add_term(mono_w(), mono_xi(0), 1)
        return ts
    if kind == "tau":
        i = idx
        for s in range(i + 1):
            ts.add_term(_xi_power_rewritten(preset, i - s, p**s), mono_tau(s), 1)
        ts.add_term(mono_tau(i), mono_u(), 1)
        return ts
    if kind == "xi":
        j = idx
        for s in range(j + 1):
            ts.add_term(
                _xi_power_rewritten(preset, j - s, p**s),
                _xi_power_rewritten(preset, s, 1),
                1,
            )
        if name == "b":
            ts.add_term(mono_tau(j), mono_w(), 1)
        return ts
    raise ValueError(f"unknown generator kind {kind!r}")


@lru_cache(maxsize=None)
def _generator_power_coproduct(
    preset: CoalgebraPreset, kind: str, idx: int, e: int
) -> TensorSum:
    if e == 1:
        return _generator_coproduct(preset, kind, idx)
    half = _generator_power_coproduct(preset, kind, idx, e - 1)
    return half.mul(_generator_coproduct(preset, kind, idx))


@lru_cache(maxsize=None)
def coproduct(preset: CoalgebraPreset, m: Monomial) -> TensorSum:
    """The coproduct of a basis monomial, as a TensorSum."""
    preset.validate_monomial(m)
    if m.xi:
        j, e = m.xi[-1]
        rest = _monomial(m.w, m.tau, m.u, m.xi[:-1])
        return coproduct(preset, rest).mul(_generator_power_coproduct(preset, "xi", j, e))
    if m.u:
        rest = _monomial(m.w, m.tau, 0, ())
        return coproduct(preset, rest).mul(_generator_power_coproduct(preset, "u", 0, m.u))
    if m.tau:
        rest = _monomial(m.w, m.tau[:-1], 0, ())
        return coproduct(preset, rest).mul(_generator_coproduct(preset, "tau", m.tau[-1]))
    if m.w:
        return _generator_coproduct(preset, "w")
    return TensorSum.unit(preset.p)


# bound here, so that the report still reaches the caches when a caller
# has replaced the module's names by wrappers
_COPRODUCT_CACHES = (
    ("coproduct", coproduct),
    ("generator_power_coproduct", _generator_power_coproduct),
)


def cache_stats() -> dict:
    """Hits, misses and size of the coproduct caches, and the number of
    interned monomials."""
    out: dict = {}
    for name, cached in _COPRODUCT_CACHES:
        info = cached.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    out["interned_monomials"] = len(_INTERNED)
    return out


def counit(preset: CoalgebraPreset, m: Monomial) -> int:
    """epsilon(m): 1 on powers of the grouplike core (u and x0), else 0."""
    if m.w or m.tau or any(j >= 1 for j, _ in m.xi):
        return 0
    return 1


# ---------------------------------------------------------------------------
# enumeration


def _xi_partitions(p: int, total: int, min_index: int, max_index: int | None):
    """All xi exponent tuples with sum e_j * p^j == total, indices >= min_index."""
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    usable = []
    j = min_index
    while p**j <= total and (max_index is None or j <= max_index):
        usable.append(j)
        j += 1

    def rec(rem: int, pos: int):
        if rem == 0:
            yield ()
            return
        if pos < 0:
            return
        pw = p ** usable[pos]
        for e in range(rem // pw, -1, -1):
            for rest in rec(rem - e * pw, pos - 1):
                yield rest + (((usable[pos], e),) if e else ())

    yield from rec(total, len(usable) - 1)


def _tau_subsets(p: int, bound: int):
    """All (subset, sum of p^i) with distinct indices and sum <= bound."""
    indices = []
    i = 0
    while p**i <= bound:
        indices.append(i)
        i += 1
    out = []
    for r in range(len(indices) + 1):
        for s in combinations(indices, r):
            tot = sum(p**i for i in s)
            if tot <= bound:
                out.append((s, tot))
    return out


def enumerate_left(preset: CoalgebraPreset, left) -> list[Monomial]:
    """All monomials of the preset with the given left degree, sorted."""
    out: list[Monomial] = []
    p = preset.p
    if preset.bigraded:
        a, b = left
        if a < 0 or b < 0:
            return []
        w_options = (0, 1) if preset.allows_w else (0,)
        for w in w_options:
            u = a - w
            if u < 0:
                continue
            if u and not preset.allows_u:
                continue
            tau_opts = _tau_subsets(p, b) if preset.allows_tau else [((), 0)]
            for tau, s in tau_opts:
                if preset.min_xi_index is None:
                    if b - s == 0:
                        out.append(Monomial(w, tau, u, ()))
                    continue
                for xi in _xi_partitions(p, b - s, preset.min_xi_index, preset.max_xi_index):
                    out.append(Monomial(w, tau, u, xi))
    elif preset.name in ("atilde", "bpp"):
        n = left
        if n < 0:
            return []
        tau_opts = _tau_subsets(p, n // 2) if preset.allows_tau else [((), 0)]
        for tau, s in tau_opts:
            rem = n - 2 * s
            if rem < 0:
                continue
            for t in range(rem // 2 + 1):
                for xi in _xi_partitions(p, t, 1, None):
                    out.append(Monomial(0, tau, rem - 2 * t, xi))
    elif preset.name == "u_only":
        out = [Monomial(u=left)] if left >= 0 else []
    else:  # b2
        out = [Monomial(xi=xi) for xi in _xi_partitions(2, left, 0, None)] if left >= 0 else []
    out.sort(key=Monomial.sort_key)
    return out


def enumerate_right(preset: CoalgebraPreset, right, box: int) -> list[Monomial]:
    """All w-free monomials of the preset with the given right degree and
    left total degree <= box, sorted."""
    # (u + number of tau's, number of xi factors) for each way to reach `right`
    if preset.bigraded:
        shapes = [right]
    elif preset.name in ("atilde", "bpp"):
        shapes = [(right - 2 * e, e) for e in range(right // 2 + 1)]
    else:
        raise ValueError(f"enumerate_right does not support preset {preset.name}")
    p = preset.p
    # a t_i or an x_j adds 2 p^i (2 p^j) to the left total degree
    indices: list[int] = []
    while 2 * p ** len(indices) <= box:
        indices.append(len(indices))
    tau_indices = indices if preset.allows_tau else []
    lo, hi = preset.min_xi_index, preset.max_xi_index
    xi_indices = [] if lo is None else [
        j for j in indices if j >= lo and (hi is None or j <= hi)
    ]
    out: list[Monomial] = []
    for a, b in shapes:
        if a < 0 or b < 0:
            continue
        for k in range(min(a, len(tau_indices)) + 1):
            u = a - k
            if u and not preset.allows_u:
                continue
            for tau in combinations(tau_indices, k):
                for js in combinations_with_replacement(xi_indices, b):
                    xi = tuple((j, len(list(g))) for j, g in groupby(js))
                    m = Monomial(0, tau, u, xi)
                    if total_of(preset.left_degree(m)) <= box:
                        out.append(m)
    out.sort(key=Monomial.sort_key)
    return out


def enumerate_component(preset: CoalgebraPreset, left, right) -> list[Monomial]:
    return [m for m in enumerate_left(preset, left) if preset.right_degree(m) == right]


def enumerate_box(preset: CoalgebraPreset, box: int) -> list[Monomial]:
    """All monomials with left total degree <= box."""
    out: list[Monomial] = []
    if preset.bigraded:
        for a in range(box + 1):
            for b in range((box - a) // 2 + 1):
                out.extend(enumerate_left(preset, (a, b)))
    else:
        for n in range(box + 1):
            out.extend(enumerate_left(preset, n))
    return out


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomFailure:
    axiom: str
    monomials: tuple
    detail: str

    def __str__(self) -> str:
        ms = ", ".join(str(m) for m in self.monomials)
        return f"{self.axiom} fails at {ms}: {self.detail}"


def _coproduct_on_slot(preset, ts: TensorSum, coproduct_fn, slot: int) -> dict:
    """(D (x) 1) for slot 0 or (1 (x) D) for slot 1, applied to a TensorSum,
    as {(m1, m2, m3): coeff}."""
    out: dict = {}
    p = preset.p
    for (b1, b2), c in ts.items():
        for (a1, a2), d in coproduct_fn(preset, b2 if slot else b1).items():
            key = (b1, a1, a2) if slot else (a1, a2, b2)
            new = (out.get(key, 0) + c * d) % p
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def check_homogeneity(preset: CoalgebraPreset, m: Monomial, ts: TensorSum) -> str | None:
    """Matric homogeneity of a coproduct term: returns a problem or None."""
    lm, rm = preset.left_degree(m), preset.right_degree(m)
    for (b1, b2), _ in ts.items():
        if preset.left_degree(b1) != lm:
            return f"left({b1}) = {preset.left_degree(b1)} != left({m}) = {lm}"
        if preset.right_degree(b2) != rm:
            return f"right({b2}) = {preset.right_degree(b2)} != right({m}) = {rm}"
        if preset.right_degree(b1) != preset.left_degree(b2):
            return f"right({b1}) != left({b2}) in term ({b1})(x)({b2})"
        if (b1.parity + b2.parity - m.parity) % 2:
            return f"parity mismatch in term ({b1})(x)({b2})"
    return None


def check_bialgebra_axioms(
    preset: CoalgebraPreset,
    box: int,
    coproduct_fn=None,
    sample_pairs: int = 200,
    seed: int = 0,
) -> AxiomFailure | None:
    """Check coassociativity, counit laws, homogeneity for every monomial with
    left total degree <= box, plus multiplicativity of the coproduct and graded
    commutativity of the product on a deterministic sample of pairs.

    Returns the first counterexample found, or None.
    """
    cop = coproduct_fn or coproduct
    monomials = enumerate_box(preset, box)
    p = preset.p
    for m in monomials:
        ts = cop(preset, m)
        prob = check_homogeneity(preset, m, ts)
        if prob:
            return AxiomFailure("homogeneity", (m,), prob)
        if p != 2 and (preset.total_degree(m) - m.parity) % 2:
            return AxiomFailure(
                "parity", (m,), f"total degree {preset.total_degree(m)} has wrong parity"
            )
        left_m = {}
        right_m = {}
        for (b1, b2), c in ts.items():
            if counit(preset, b1):
                right_key = b2
                left_m[right_key] = (left_m.get(right_key, 0) + c) % p
            if counit(preset, b2):
                right_m[b1] = (right_m.get(b1, 0) + c) % p
        left_m = {k: v for k, v in left_m.items() if v}
        right_m = {k: v for k, v in right_m.items() if v}
        if left_m != {m: 1}:
            return AxiomFailure("counit-left", (m,), f"(eps (x) 1) D({m}) = {left_m}")
        if right_m != {m: 1}:
            return AxiomFailure("counit-right", (m,), f"(1 (x) eps) D({m}) = {right_m}")
        lhs = _coproduct_on_slot(preset, ts, cop, 0)
        rhs = _coproduct_on_slot(preset, ts, cop, 1)
        if lhs != rhs:
            diff = {k: (lhs.get(k, 0) - rhs.get(k, 0)) % p for k in set(lhs) | set(rhs)}
            diff = {k: v for k, v in diff.items() if v}
            witness = next(iter(sorted(diff, key=lambda t: tuple(x.sort_key() for x in t))))
            return AxiomFailure(
                "coassociativity",
                (m,),
                f"(D(x)1)D - (1(x)D)D has term {witness} with coeff {diff[witness]}",
            )
    rng = random.Random(seed)
    pool = monomials
    if not pool:
        return None
    for _ in range(min(sample_pairs, len(pool) * len(pool))):
        m1 = rng.choice(pool)
        m2 = rng.choice(pool)
        s, m12 = product(m1, m2)
        lhs = cop(preset, m1).mul(cop(preset, m2))
        rhs = TensorSum(p)
        if s:
            for key, c in cop(preset, m12).items():
                rhs.add_term(key[0], key[1], c * s)
        if lhs != rhs:
            return AxiomFailure(
                "multiplicativity", (m1, m2), f"D({m1}*{m2}) != D({m1})*D({m2})"
            )
        s21, m21 = product(m2, m1)
        sign = -1 if (m1.parity and m2.parity) else 1
        if (m12 != m21) or ((s - sign * s21) % p and s):
            return AxiomFailure(
                "graded-commutativity", (m1, m2), f"{m1}*{m2} != (+/-) {m2}*{m1}"
            )
    return None


# ---------------------------------------------------------------------------
# quotient maps and Hopf ideals

_TRANSFORMS: dict[tuple[str, str], tuple[bool, bool, bool, bool]] = {
    # (kill_w, kill_tau, kill_xi_ge1, xi0_to_usq)
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


def quotient_map(
    src: CoalgebraPreset, dst: CoalgebraPreset, m: Monomial
) -> list[tuple[int, Monomial]]:
    """Image of a monomial under the canonical bialgebra quotient src -> dst."""
    if src.p != dst.p:
        raise ValueError("prime mismatch")
    key = (src.name, dst.name)
    if key not in _TRANSFORMS:
        raise ValueError(f"no canonical quotient {src.name} -> {dst.name}")
    kill_w, kill_tau, kill_xi, xi0_usq = _TRANSFORMS[key]
    if kill_w and m.w:
        return []
    if kill_tau and m.tau:
        return []
    new_u = m.u
    xi = []
    for j, e in m.xi:
        if j == 0 and xi0_usq:
            new_u += 2 * e
        elif j >= 1 and kill_xi:
            return []
        else:
            xi.append((j, e))
    out = _monomial(m.w, m.tau, new_u, tuple(xi))
    dst.validate_monomial(out)
    return [(1, out)]


@dataclass
class HopfIdealReport:
    generators: tuple[str, ...]
    counit_vanishes: bool
    is_coideal: bool
    counterexample: str | None

    @property
    def is_hopf_ideal(self) -> bool:
        return self.counit_vanishes and self.is_coideal


def _ideal_reduction(preset: CoalgebraPreset, gens: tuple[str, ...]):
    """Normal-form map q modulo the ideal, or None if unsupported.

    Supported generators: single generator monomials ("w", "u", "t<i>",
    "x<j>") and the binomial "x0-u^2".
    """
    killed: list[Monomial] = []
    xi0_usq = False
    for g in gens:
        if g.replace(" ", "") == "x0-u^2":
            xi0_usq = True
            continue
        m = parse_monomial(g)
        killed.append(m)

    def killed_by(m: Monomial) -> bool:
        for k in killed:
            if k.w and m.w:
                return True
            if k.tau and set(k.tau) <= set(m.tau):
                return True
            if k.u and m.u >= k.u:
                return True
            if k.xi and all(m.xi_dict().get(j, 0) >= e for j, e in k.xi):
                return True
        return False

    def q(m: Monomial) -> Monomial | None:
        if xi0_usq and m.xi and m.xi[0][0] == 0:
            m = _monomial(m.w, m.tau, m.u + 2 * m.xi[0][1], m.xi[1:])
        return None if killed_by(m) else m

    return q


def check_hopf_ideal(preset: CoalgebraPreset, gens, box: int) -> HopfIdealReport:
    """Check whether the two-sided ideal generated by `gens` is a bi-ideal.

    Verifies eps(g) = 0 for each generator and, for every product g*m with m
    in the box, that D(g*m) lies in I (x) B + B (x) I, decided by reducing
    both tensor slots to normal form modulo I.
    """
    gens = tuple(gens)
    q = _ideal_reduction(preset, gens)
    p = preset.p

    def gen_terms(g: str) -> list[tuple[int, Monomial]]:
        if g.replace(" ", "") == "x0-u^2":
            return [(1, mono_xi(0)), (-1, mono_u(2))]
        return [(1, parse_monomial(g))]

    counit_ok = True
    for g in gens:
        val = sum(c * counit(preset, m) for c, m in gen_terms(g)) % p
        if val:
            counit_ok = False
    monomials = enumerate_box(preset, box)
    for g in gens:
        for m in monomials:
            residue: dict[tuple[Monomial, Monomial], int] = {}
            for c, gm in gen_terms(g):
                s, x = product(gm, m)
                if not s:
                    continue
                for (b1, b2), d in coproduct(preset, x).items():
                    q1 = q(b1)
                    if q1 is None:
                        continue
                    q2 = q(b2)
                    if q2 is None:
                        continue
                    key = (q1, q2)
                    new = (residue.get(key, 0) + c * s * d) % p
                    if new:
                        residue[key] = new
                    else:
                        residue.pop(key, None)
            if residue:
                (b1, b2), c = next(iter(residue.items()))
                return HopfIdealReport(
                    gens,
                    counit_ok,
                    False,
                    f"D({g} * {m}) has residue {c}*({b1})(x)({b2}) mod I",
                )
    return HopfIdealReport(gens, counit_ok, True, None)
