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
each is one row of a table (``PresetRow``) that degrees, enumeration,
coproducts and quotient maps read.  Monomials are immutable and
preset-agnostic; a preset turns them into bigraded or singly graded basis
elements.

Monomials and presets are interned: equal monomials are one object, and
``get_preset`` builds one preset per (name, p), so comparing and hashing
either is by identity, and each pickles back to its interned object.  Input
is validated where it enters, by ``Monomial(...)``, the ``mono_*`` helpers,
``parse_monomial`` and ``get_preset``; products, coproduct recursion,
quotient maps and ideal reductions build their results from valid operands
with the private ``_monomial`` and ``_from_code``, which check only the
packing limits below.  No output may depend on the iteration order of a set
of monomials (identity hashes vary from run to run), so such sets are sorted
first; ``sort_key`` orders them by the tuple (w, tau, u, xi).

Each monomial carries one packed integer key, by which the intern table
finds it.  Bit 0 is w and bit 1 + i is t_i, so the exterior letters form a
bitmask.  Above them u has a field of 24 bits and each x_j, in order of j,
a field of 16 bits, and every field has one guard bit on top.  A product is
then a disjoint-mask test, one integer addition and one table lookup, with
the sign of reordering the exterior letters counted from the two masks.
That count, ``_exterior_sign``, is the one sign rule: ``parse_monomial``
reaches it by multiplying the factors it reads with ``product``.
Only this module multiplies monomials: ``tensor_mul`` (B (x) B) and
``_coaction_product`` (comodule tensor products) work on packed keys too.
The limits are t_i for i <= MAX_TAU_INDEX, x_j for j <= MAX_XI_INDEX, a u
exponent up to MAX_U_EXPONENT and an x_j exponent up to MAX_XI_EXPONENT;
``Monomial(...)`` and ``parse_monomial`` reject more with a ValueError that
names the limit, and a product whose sum sets a guard bit raises rather
than carry into the next field.  Only this module reads the key.

A preset memoises ``left_degree`` and ``right_degree`` on itself, keyed by
the interned monomial.  Enumeration is one memoised recursion over the t
and x letters, from the highest index that fits down, with the left weight
left to spend (exactly, or at most a box) and any fixed numbers of t's and
x factors; it builds a monomial only for a part that meets every bound, so
it interns only the monomials it returns.  The coproduct is one memo: D of
a monomial is the product of the memoised D of its last letter power and of
the rest, D of a power that of the next lower power and of its letter, so
the coproduct is an algebra map fixed by its four letter formulas.
``cache_stats()`` reports that memo, the enumeration memo, the size of each
degree memo and the number of interned monomials.  A preset row tests
membership with one mask on the packed key, and ``PresetRow.unpadded``
clears a monomial's power of the row's grouplike pad (u, or x0 without u)
with another.
A canonical quotient sends a monomial to one monomial or to 0.

An element of B (x) B is a plain dict {(a, b): c} of monomial pairs with
coefficients nonzero mod p; ``tensor_mul`` multiplies two, and a memoised
coproduct is one such dict, shared and so read only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

ODD_PRIMES = (3, 5, 7)


# ---------------------------------------------------------------------------
# monomials

MAX_TAU_INDEX = 15
MAX_XI_INDEX = 31
MAX_U_EXPONENT = 2**24 - 1
MAX_XI_EXPONENT = 2**16 - 1

# the packed key: exterior bitmask, then the u field, then one field per x_j
_EXT = (1 << (MAX_TAU_INDEX + 2)) - 1
_U_SHIFT = MAX_TAU_INDEX + 2
_X_SHIFT = _U_SHIFT + MAX_U_EXPONENT.bit_length() + 1
_X_WIDTH = MAX_XI_EXPONENT.bit_length() + 1
_U_GUARD = 1 << (_X_SHIFT - 1)
_GUARDS = _U_GUARD | sum(1 << (_X_SHIFT + _X_WIDTH * (j + 1) - 1)
                         for j in range(MAX_XI_INDEX + 1))


class Monomial:
    """w^w * t_{i in tau} * u^u * prod x_j^e  with tau, xi sorted.

    Interned and immutable (see the module docstring); `Monomial(...)`
    validates its input, and an instance pickles back to the interned object.
    """

    __slots__ = ("w", "tau", "u", "xi", "parity", "_code")

    def __new__(cls, w: int = 0, tau=(), u: int = 0, xi=()):
        # plain int tuples, so that a monomial never holds a float, a bool
        # or a numpy integer
        w, u = index(w), index(u)
        tau = tuple(map(index, tau))
        xi = tuple((index(j), index(e)) for j, e in xi)
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
        return _monomial(w, tau, u, xi)

    def __setattr__(self, name, value):
        raise AttributeError(f"Monomial is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Monomial is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Monomial, self.sort_key())

    def __repr__(self) -> str:
        return f"Monomial(w={self.w!r}, tau={self.tau!r}, u={self.u!r}, xi={self.xi!r})"

    def sort_key(self):
        return (self.w, self.tau, self.u, self.xi)

    def __str__(self) -> str:
        return format_monomial(self)


_INTERNED: dict[int, Monomial] = {}  # packed key -> monomial
_XI_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}  # one (j, e) tuple each
_set_slot = object.__setattr__


def _pack(w: int, tau: tuple, u: int, xi: tuple) -> int:
    """The packed key of (w, tau, u, xi); a ValueError names a limit that an
    index or exponent exceeds."""
    if u > MAX_U_EXPONENT:
        raise ValueError(f"u exponent {u} exceeds the limit {MAX_U_EXPONENT}")
    code = w | u << _U_SHIFT
    for i in tau:
        if not 0 <= i <= MAX_TAU_INDEX:
            raise ValueError(f"t{i}: tau indices run from 0 to the limit {MAX_TAU_INDEX}")
        code |= 2 << i
    for j, e in xi:
        if not 0 <= j <= MAX_XI_INDEX:
            raise ValueError(f"x{j}: xi indices run from 0 to the limit {MAX_XI_INDEX}")
        if e > MAX_XI_EXPONENT:
            raise ValueError(f"x{j} exponent {e} exceeds the limit {MAX_XI_EXPONENT}")
        code |= e << (_X_SHIFT + _X_WIDTH * j)
    return code


def _new_monomial(code: int, w: int, tau: tuple, u: int, xi: tuple) -> Monomial:
    """Intern a new monomial from its packed key and valid parts."""
    m = object.__new__(Monomial)
    _set_slot(m, "w", w)
    _set_slot(m, "tau", tau)
    _set_slot(m, "u", u)
    _set_slot(m, "xi", xi)
    _set_slot(m, "parity", (w + len(tau)) % 2)
    _set_slot(m, "_code", code)
    _INTERNED[code] = m
    return m


def _monomial(w: int, tau: tuple, u: int, xi: tuple) -> Monomial:
    """Trusted constructor: the interned monomial of (w, tau, u, xi), which
    the caller guarantees valid (tau and xi sorted tuples, exponents
    positive).  Only the packing limits are checked."""
    code = _pack(w, tau, u, xi)
    return _INTERNED.get(code) or _new_monomial(code, w, tau, u, xi)


def _from_code(code: int) -> Monomial:
    """The interned monomial of a packed key built by adding or subtracting
    the keys of valid monomials; a ValueError when a field overflowed."""
    m = _INTERNED.get(code)
    if m is not None:
        return m
    if code & _U_GUARD:
        raise ValueError(f"u exponent of a product exceeds the limit {MAX_U_EXPONENT}")
    if code & _GUARDS:
        j = ((code & _GUARDS).bit_length() - _X_SHIFT) // _X_WIDTH - 1
        raise ValueError(f"x{j} exponent of a product exceeds the limit {MAX_XI_EXPONENT}")
    ext = code & _EXT
    tau = tuple(i for i in range(ext.bit_length() - 1) if ext >> (i + 1) & 1)
    xi = []
    rest, j = code >> _X_SHIFT, 0
    while rest:
        e = rest & MAX_XI_EXPONENT
        if e:
            pair = (j, e)
            xi.append(_XI_PAIRS.setdefault(pair, pair))
        rest >>= _X_WIDTH
        j += 1
    return _new_monomial(code, ext & 1, tau, (code >> _U_SHIFT) & MAX_U_EXPONENT, tuple(xi))


ONE = Monomial()


def mono_u(k: int = 1) -> Monomial:
    return Monomial(u=k)


def mono_w() -> Monomial:
    return Monomial(w=1)


def mono_tau(*indices: int) -> Monomial:
    return Monomial(tau=tuple(sorted(indices)))


def mono_xi(j: int, e: int = 1) -> Monomial:
    return Monomial(xi=((j, e),))


def format_monomial(m: Monomial) -> str:
    if m is ONE:
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
    """Parse the ``w*t0*u^2*x1^4`` syntax; "1" is the unit.

    Each factor is one letter power, and the factors are multiplied in the
    order written with ``product``, which sorts them and gives the sign.
    An exterior letter written twice makes the product 0, and a product of
    sign -1 spells minus a monomial, which a monomial cannot carry: so the
    exterior factors (w, t_i) must come in an even permutation of their
    sorted order w, t0, t1, ..."""
    text = text.strip()
    if text == "1":
        return ONE
    sign, m = 1, ONE
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in monomial {text!r}")
        base, caret, exp_s = factor.partition("^")
        try:
            exp = int(exp_s) if caret else 1
        except ValueError:
            raise ValueError(f"bad exponent in {factor!r}") from None
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {factor!r}")
        if base == "u":
            letter = Monomial(u=exp)
        elif base.startswith("x"):
            letter = Monomial(xi=((int(base[1:]), exp),))
        elif base == "w" or base.startswith("t"):
            if exp != 1:
                raise ValueError(f"{base} is exterior; exponent must be 1")
            letter = Monomial(w=1) if base == "w" else Monomial(tau=(int(base[1:]),))
        else:
            raise ValueError(f"unknown generator {base!r}")
        s, m = product(m, letter)
        if not s:
            raise ValueError(f"repeated exterior factor {base}")
        sign *= s
    if sign < 0:
        raise ValueError(f"{text!r} is minus {format_monomial(m)!r}: its exterior "
                         f"factors are an odd permutation of that sorted spelling")
    return m


def _exterior_sign(e1: int, e2: int) -> int:
    """The sign of moving the exterior letters of mask e2 past those of the
    disjoint mask e1: letters ordered w < t0 < t1 < ... as bits, it counts
    the pairs (a from e1, b from e2) with a > b."""
    inversions = 0
    while e1 and e2:
        low = e2 & -e2
        inversions += (e1 & -(low << 1)).bit_count()
        e2 ^= low
    return -1 if inversions & 1 else 1


def product(m1: Monomial, m2: Monomial) -> tuple[int, Monomial | None]:
    """Graded-commutative product; returns (sign, monomial) or (0, None)."""
    c1, c2 = m1._code, m2._code
    e1, e2 = c1 & _EXT, c2 & _EXT
    if e1 & e2:
        return 0, None
    code = c1 + c2
    return _exterior_sign(e1, e2), _INTERNED.get(code) or _from_code(code)


def _divides(k: Monomial, m: Monomial) -> bool:
    """Whether k divides m: m has every letter of k, each to at least k's
    power.  Field-wise on the packed keys: with all guard bits of m set,
    subtracting k clears the guard of exactly the fields where m is short."""
    a, b = k._code, m._code
    return not a & _EXT & ~b and ((b | _GUARDS) - a) & _GUARDS == _GUARDS


# ---------------------------------------------------------------------------
# presets and gradings


@dataclass(frozen=True, eq=False)
class PresetRow:
    """One preset as data.  `w`, `tau`, `u`: which generators exist; `xi`:
    the (lowest, highest) xi index, highest None for no bound, or None for
    no xi; `weight`: None when bigraded, else the k that collapses the
    bidegrees left = (u + w, sum p^i over tau + sum e p^j over xi) and
    right = (u + |tau|, w + sum e over xi) of a monomial to a + k b;
    `x0_is_u2`: whether x0 = u^2; `primes`: the primes it exists at."""

    w: bool
    tau: bool
    u: bool
    xi: tuple[int, int | None] | None
    weight: int | None
    x0_is_u2: bool
    primes: tuple[int, ...]
    # the packed-key bits and fields of the generators the row lacks
    _lacking: int = field(init=False, repr=False)

    def __post_init__(self):
        mask = (0 if self.w else 1) | (0 if self.tau else _EXT - 1)
        mask |= 0 if self.u else MAX_U_EXPONENT << _U_SHIFT
        for j in range(MAX_XI_INDEX + 1):
            if not self.allows_xi(j):
                mask |= MAX_XI_EXPONENT << (_X_SHIFT + _X_WIDTH * j)
        object.__setattr__(self, "_lacking", mask)

    def allows_xi(self, j: int) -> bool:
        if self.xi is None:
            return False
        lo, hi = self.xi
        return lo <= j and (hi is None or j <= hi)

    def lacks(self, m: Monomial) -> str | None:
        """The first generator of m that the preset does not have, or None:
        one AND of m's packed key against the row's mask, and a search for
        the generator's name only when it hits."""
        if not m._code & self._lacking:
            return None
        if m.w and not self.w:
            return "w"
        if m.tau and not self.tau:
            return "tau"
        if m.u and not self.u:
            return "u"
        return next((f"x{j}" for j, _ in m.xi if not self.allows_xi(j)), None)

    def unpadded(self, b: Monomial) -> Monomial:
        """b with its power of the grouplike pad cleared, by one mask on the
        packed key; the pad is the grouplike of degree 0 that pads coaction
        terms: u, or x0 in a row without u."""
        g = MAX_U_EXPONENT << _U_SHIFT if self.u else MAX_XI_EXPONENT << _X_SHIFT
        return _from_code(b._code & ~g)


# b is the full algebra and bbar its quotient by w; atilde is the quotient of
# bbar by x0 - u^2 and bpp its subalgebra on u and the x_{j>=1}; u_xi0 and
# u_only are the grouplike polynomial algebras on u, x0 and on u alone;
# xi_poly is the subalgebra on all x_j, and b2 that algebra at p = 2.
_PRESETS = {
    # PresetRow(w,     tau,   u,     xi,        weight, x0_is_u2, primes)
    "b":       PresetRow(True,  True,  True,  (0, None), None, False, ODD_PRIMES),
    "bbar":    PresetRow(False, True,  True,  (0, None), None, False, ODD_PRIMES),
    "atilde":  PresetRow(False, True,  True,  (1, None), 2,    True,  ODD_PRIMES),
    "bpp":     PresetRow(False, False, True,  (1, None), 2,    True,  ODD_PRIMES),
    "u_xi0":   PresetRow(False, False, True,  (0, 0),    None, False, ODD_PRIMES),
    "u_only":  PresetRow(False, False, True,  None,      2,    True,  ODD_PRIMES),
    "xi_poly": PresetRow(False, False, False, (0, None), None, False, ODD_PRIMES),
    "b2":      PresetRow(False, False, False, (0, None), 1,    False, (2,)),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True, eq=False)
class CoalgebraPreset:
    """A choice of quotient/subalgebra together with its grading type; `row`
    is its row of the preset table.  Only ``get_preset`` builds one, once
    per (name, p), so a preset is equal only to itself; it holds the memos
    of its left and right degrees."""

    name: str
    p: int
    row: PresetRow = field(repr=False)
    _left: dict = field(default_factory=dict, init=False, repr=False)
    _right: dict = field(default_factory=dict, init=False, repr=False)

    def __reduce__(self):
        return (get_preset, (self.name, self.p))

    @property
    def bigraded(self) -> bool:
        return self.row.weight is None

    def validate_monomial(self, m: Monomial) -> None:
        gen = self.row.lacks(m)
        if gen is not None:
            raise ValueError(f"monomial {m} has {gen}, not permitted in preset {self.name}")

    # ---- gradings

    def collapse(self, a: int, b: int):
        """The degree of the bidegree (a, b) in this preset's grading."""
        k = self.row.weight
        return (a, b) if k is None else a + k * b

    def shapes(self, deg) -> list[tuple[int, int]]:
        """The bidegrees (a, b) with a, b >= 0 that collapse to deg."""
        k = self.row.weight
        if k is None:
            return [deg] if deg[0] >= 0 and deg[1] >= 0 else []
        return [(deg - k * b, b) for b in range(deg // k + 1)]

    def left_degree(self, m: Monomial):
        d = self._left.get(m)
        if d is None:
            p = self.p
            d = self._left[m] = self.collapse(
                m.u + m.w, sum(p**i for i in m.tau) + sum(e * p**j for j, e in m.xi)
            )
        return d

    def right_degree(self, m: Monomial):
        d = self._right.get(m)
        if d is None:
            d = self._right[m] = self.collapse(m.u + len(m.tau), m.w + sum(e for _, e in m.xi))
        return d

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


_INTERNED_PRESETS: dict[tuple[str, int], CoalgebraPreset] = {}  # (name, p) -> preset


def get_preset(name: str, p: int) -> CoalgebraPreset:
    """The one preset of (name, p), built on first use; p is taken as a
    plain int, as in ``Monomial(...)``."""
    p = index(p)
    preset = _INTERNED_PRESETS.get((name, p))
    if preset is None:
        row = _PRESETS.get(name)
        if row is None:
            raise ValueError(f"unknown preset {name!r}")
        if p not in row.primes:
            if row.primes == ODD_PRIMES:
                raise ValueError(f"preset {name!r} requires an odd prime in {ODD_PRIMES}")
            raise ValueError(f"preset {name} requires p = {row.primes[0]}")
        preset = _INTERNED_PRESETS[name, p] = CoalgebraPreset(name, p, row)
    return preset


# ---------------------------------------------------------------------------
# tensor-square arithmetic


def tensor_mul(p: int, x: dict, y: dict) -> dict:
    """The product of the elements x and y of B (x) B:
    (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd, summed over pairs of terms.
    A sum that reaches 0 mod p is popped, so a term that cancels and returns
    goes to the end."""
    get = _INTERNED.get
    terms: dict = {}
    right = [(c._code, c._code & _EXT, d._code, d._code & _EXT, c.parity, c2)
             for (c, d), c2 in y.items()]
    for (a, b), c1 in x.items():
        ka, kb, pb = a._code, b._code, b.parity
        ea, eb = ka & _EXT, kb & _EXT
        for kc, ec, kd, ed, pc, c2 in right:
            if ea & ec:
                continue
            ac = get(ka + kc) or _from_code(ka + kc)
            if eb & ed:
                continue
            bd = get(kb + kd) or _from_code(kb + kd)
            c = -c1 * c2 if pb and pc else c1 * c2  # Koszul sign (-1)^{|b||c|}
            if ea and ec:
                c *= _exterior_sign(ea, ec)
            if eb and ed:
                c *= _exterior_sign(eb, ed)
            key = (ac, bd)
            new = (terms.get(key, 0) + c) % p
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
    return terms


def _sum_mod(p: int, terms) -> dict:
    """The sum mod p of the (key, coefficient) pairs `terms`, as a dict of
    the keys whose sum is nonzero; as in ``tensor_mul``, a sum that reaches
    0 is popped, so a key that returns goes to the end."""
    out: dict = {}
    for key, c in terms:
        new = (out.get(key, 0) + c) % p
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _format_sum(terms: dict) -> str:
    """An element of B (x) B as c*(a)(x)(b) + ..., sorted by (a, b)."""
    return " + ".join(f"{c}*({a})(x)({b})" for (a, b), c in sorted(
        terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))) or "0"


def _coaction_product(p: int, pairs: dict, left: dict, right: dict, odd: dict) -> dict:
    """The coaction on the labels z = pairs[x, y] of a tensor product: for
    the terms (c1, x', b1) of left[x] and (c2, y', b2) of right[y], the term
    (c1 c2 s, pairs[x', y'], b1 b2) with s = (-1)^{|b1| odd[y']} times the
    exterior sign; a pair (x', y') without a label is skipped before its keys
    are added.  Terms merge by (label, b1 b2) in the order first met and zero
    sums drop after the merge, so a sum that cancels and returns keeps its place."""
    get = _INTERNED.get
    rows: dict = {}  # x' -> {y': z'}
    for (x, y), z in pairs.items():
        rows.setdefault(x, {})[y] = z
    packed = {y: [(c2, y2, b2._code, b2._code & _EXT, odd[y2]) for c2, y2, b2 in terms]
              for y, terms in right.items()}
    out = {}
    for (x, y), z in pairs.items():
        merged: dict = {}
        for c1, x2, b1 in left[x]:
            row, k1, e1, odd1 = rows.get(x2, {}), b1._code, b1._code & _EXT, b1.parity
            for c2, y2, k2, e2, odd2 in packed[y]:
                z2 = row.get(y2)
                if z2 is None or e1 & e2:
                    continue
                b = get(k1 + k2) or _from_code(k1 + k2)
                c = -c1 * c2 if odd1 and odd2 else c1 * c2  # Koszul sign
                if e1 and e2:
                    c *= _exterior_sign(e1, e2)
                key = (z2, b)
                merged[key] = (merged.get(key, 0) + c) % p
        out[z] = tuple([(c, z2, b) for (z2, b), c in merged.items() if c])
    return out


def first_difference(p: int, lhs: dict, rhs: dict, order):
    """The least key, by the sort key `order`, at which the sparse sums lhs
    and rhs over F_p differ mod p, or None when they agree."""
    return min((k for k in lhs.keys() | rhs.keys() if (lhs.get(k, 0) - rhs.get(k, 0)) % p),
               key=order, default=None)


# ---------------------------------------------------------------------------
# coproduct, counit


def _letter_coproduct(preset: CoalgebraPreset, g: Monomial) -> dict:
    """D(g) of a letter g, by the formula of the module docstring for u, w,
    t_i or x_j; its terms are distinct pairs, each of coefficient 1."""
    p = preset.p

    def x(j: int, e: int) -> Monomial:
        """x_j^e, with x0 rewritten as u^2 where the preset identifies them."""
        return _x0_to_u2(mono_xi(j, e)) if preset.row.x0_is_u2 else mono_xi(j, e)

    if g.u:
        pairs = [(g, g)] + ([(mono_w(), mono_tau(0))] if preset.row.w else [])
    elif g.w:
        pairs = [(mono_u(), g), (g, mono_xi(0))]
    elif g.tau:
        i = g.tau[0]
        pairs = [(x(i - s, p**s), mono_tau(s)) for s in range(i + 1)] + [(g, mono_u())]
    else:
        j = g.xi[0][0]
        pairs = [(x(j - s, p**s), x(s, 1)) for s in range(j + 1)]
        pairs += [(mono_tau(j), mono_w())] if preset.row.w else []
    return dict.fromkeys(pairs, 1)


@lru_cache(maxsize=None)
def coproduct(preset: CoalgebraPreset, m: Monomial) -> dict:
    """The coproduct of a basis monomial, as a dict {(a, b): c} that the
    memo shares, so read only: ``tensor_mul`` of D(m / g^e) and D(g^e) for
    the last letter power g^e of m (sign +1, as g^e comes last), of
    D(g^(e-1)) and D(g) for a power, and the formula of a letter."""
    preset.validate_monomial(m)
    code = m._code
    if m.xi:
        j, e = m.xi[-1]
        unit = 1 << (_X_SHIFT + _X_WIDTH * j)
    elif m.u:
        e, unit = m.u, 1 << _U_SHIFT
    elif m.tau:
        e, unit = 1, 2 << m.tau[-1]
    else:
        e, unit = m.w, 1
    if code != e * unit:  # m = (m / g^e) * g^e
        rest, last = _from_code(code - e * unit), _from_code(e * unit)
    elif e > 1:  # m = g^(e-1) * g
        rest, last = _from_code(code - unit), _from_code(unit)
    else:
        return _letter_coproduct(preset, m) if e else {(ONE, ONE): 1}
    return tensor_mul(preset.p, coproduct(preset, rest), coproduct(preset, last))


# bound here, so that the report still reaches the cache when a caller has
# replaced the module's name by a wrapper
_COPRODUCT_CACHE = coproduct


def cache_stats() -> dict:
    """Hits, misses and size of the coproduct cache and of the enumeration
    memo, the size of each degree memo (under "degree_memos", keyed
    "name p=p") and the number of interned monomials, in this process: after
    verify._fan_out forks, for a suite's rows or for run_all's suites, they
    count only this process's share."""
    out: dict = {}
    for name, cached in (("coproduct", _COPRODUCT_CACHE), ("enumeration", _parts)):
        info = cached.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    out["degree_memos"] = {f"{name} p={p}": {"left": len(preset._left),
                                             "right": len(preset._right)}
                           for (name, p), preset in sorted(_INTERNED_PRESETS.items())}
    out["interned_monomials"] = len(_INTERNED)
    return out


def counit(preset: CoalgebraPreset, m: Monomial) -> int:
    """epsilon(m): 1 on powers of the grouplike core (u and x0), else 0."""
    code = m._code
    return 0 if code & _EXT or code >> (_X_SHIFT + _X_WIDTH) else 1


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _parts(preset: CoalgebraPreset, i: int, budget: int, exact: bool, taus, xs) -> tuple:
    """The t and x parts (packed key, tau, xi), in the letters t_k and x_k
    with k <= i, whose left weight (p^k for each t_k and each factor x_k) is
    `budget`, or at most `budget` when not `exact`, with `taus` t's and `xs`
    x factors where these are not None.  The letters of index i are chosen
    first, then those below by recursion; a branch ends as soon as its x
    factors cannot fit the weight left.  The one enumeration memo."""
    p = preset.p
    if i >= 0 and p**i > budget:  # no letter of index i fits: start lower
        while i >= 0 and p**i > budget:
            i -= 1
        return _parts(preset, i, budget, exact, taus, xs)
    if taus and (taus > i + 1 or not preset.row.tau):  # too few t letters left
        return ()
    if i < 0:
        return () if exact and budget or xs else ((0, (), ()),)
    row, weight = preset.row, p**i
    lightest_x = p ** row.xi[0] if row.xi else 1
    out: list = []
    for t in ((0, 1) if row.tau and taus != 0 else (0,)):
        most = budget // weight - t if row.allows_xi(i) else 0
        for e in range(most + 1 if xs is None else min(most, xs) + 1):
            rest = budget - (t + e) * weight
            if xs is not None and (xs - e) * lightest_x > rest:
                break
            sub = _parts(preset, i - 1, rest, exact, taus and taus - t, xs and xs - e)
            if sub:
                tau, xi = (i,) * t, ((i, e),) if e else ()
                key = _pack(0, tau, 0, xi)
                out.extend((key + c, t2 + tau, x2 + xi) for c, t2, x2 in sub)
    return tuple(out)


def _monomials(w: int, u: int, parts: tuple) -> list[Monomial]:
    """The monomials w^w u^u times each part of `parts`."""
    base, get = _pack(w, (), u, ()), _INTERNED.get
    return [get(base + c) or _new_monomial(base + c, w, tau, u, xi) for c, tau, xi in parts]


def enumerate_left(preset: CoalgebraPreset, left) -> list[Monomial]:
    """All monomials of the preset with the given left degree, sorted."""
    return enumerate_component(preset, left, None)


def enumerate_component(preset: CoalgebraPreset, left, right) -> list[Monomial]:
    """All monomials of the preset with the given left degree and, unless
    `right` is None, the given right degree, sorted."""
    row = preset.row
    out: list[Monomial] = []
    # left bidegree (u + w, b) and right bidegree (u + number of t's,
    # w + number of x factors): b is shared out among the t's and the x's
    for a, b in preset.shapes(left):
        for w in ((0, 1) if row.w else (0,)):
            u = a - w
            if u < 0 or (u and not row.u):
                continue
            counts = [(None, None)] if right is None else [
                (c - u, d - w) for c, d in preset.shapes(right) if c >= u and d >= w]
            for taus, xs in counts:
                out += _monomials(w, u, _parts(preset, b.bit_length(), b, True, taus, xs))
    out.sort(key=Monomial.sort_key)
    return out


def enumerate_right(preset: CoalgebraPreset, right, box: int) -> list[Monomial]:
    """All monomials of the preset with the given right degree and left
    total degree <= box, sorted."""
    row = preset.row
    k = total_of(preset.collapse(0, 1))  # left total u + w + k * (the t and x weight)
    out: list[Monomial] = []
    # right bidegree (u + number of t's, w + number of x factors)
    for a, b in preset.shapes(right):
        for w in ((0, 1) if row.w and b else (0,)):
            for taus in range(a + 1):
                u = a - taus
                if u + w <= box and (row.u or not u):
                    room = (box - u - w) // k
                    out += _monomials(w, u, _parts(preset, room.bit_length(), room, False,
                                                   taus, b - w))
    out.sort(key=Monomial.sort_key)
    return out


def enumerate_box(preset: CoalgebraPreset, box: int) -> list[Monomial]:
    """All monomials with left total degree <= box, by left degree."""
    degrees = ([(a, b) for a in range(box + 1) for b in range((box - a) // 2 + 1)]
               if preset.bigraded else range(box + 1))
    return [m for left in degrees for m in enumerate_left(preset, left)]


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


def _coproduct_on_slot(preset, ts: dict, coproduct_fn, slot: int) -> dict:
    """(D (x) 1) for slot 0 or (1 (x) D) for slot 1, applied to ts, an
    element {(b1, b2): c} of B (x) B as ``tensor_mul`` takes it, as
    {(m1, m2, m3): coeff}, the coefficients not reduced mod p."""
    out: dict = {}
    for (b1, b2), c in ts.items():
        for (a1, a2), d in coproduct_fn(preset, b2 if slot else b1).items():
            key = (b1, a1, a2) if slot else (a1, a2, b2)
            out[key] = out.get(key, 0) + c * d
    return out


def check_homogeneity(preset: CoalgebraPreset, m: Monomial, ts: dict) -> str | None:
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


def check_bialgebra_axioms(preset: CoalgebraPreset, box: int, coproduct_fn=None,
                           seed: int = 0) -> AxiomFailure | None:
    """Prove coassociativity, both counit laws, matric homogeneity, parity,
    multiplicativity of the coproduct D and graded commutativity of the
    product on every monomial of left total degree <= box.  Returns the
    first counterexample found, or None.  `seed` is ignored (nothing is
    sampled); it stays for callers that pass it.

    The proof.  The monomials form the free graded-commutative algebra A on
    the letters w, t_i, u, x_j, so a map out of A is fixed by the letters.
    The unit and each letter of the box + 1 are checked for homogeneity,
    parity, both counit laws and coassociativity (at 1 the first two force
    D(1) = 1 (x) 1, as only 1 has left or right degree 0).  The letters
    g <= h satisfy D(g)D(h) = (-1)^{|g||h|} D(h)D(g), so D(g)^2 = 0 for odd
    g (p is odd wherever there are odd letters): the relations of A.  With
    the signs of ``product`` and the associativity of ``tensor_mul``, which
    takes its signs from ``product``'s helper (all property-tested,
    ``tensor_mul`` also against the pairwise product through ``product``),
    D on the letters extends to an algebra map phi: A -> A (x) A.  Every other
    monomial m of the box + 1 is peeled once: g is the first letter (in the
    order of ``enumerate_box``) that divides m, g*r = s*m, D(m) is compared
    term by term with D(g)D(r) or its negative, and r*g = (-1)^{|g||r|} g*r
    is checked, so by induction on the number of letters D = phi on the
    box + 1.  Left and right degree and parity add under ``product``, and
    ``counit`` is multiplicative and vanishes on odd monomials (facts about
    their formulas, property-tested like the signs of ``product``), so phi
    of homogeneous letters is homogeneous, every monomial has the parity of
    its total degree, and (eps (x) 1)D and (1 (x) eps)D are algebra maps
    (a Koszul sign that eps keeps meets even factors only), the identity on
    the letters and so on the box + 1.  For m in the box, the first factor
    of each term of D(m) lies in the box, and the second in the box + 1:
    its left total is the first's right total, which exceeds the first's
    left total by at most one, through w (as in the term w (x) t0 of D(u)).
    So (D (x) 1)D and (1 (x) D)D agree on the box with the algebra maps
    (phi (x) 1)phi and (1 (x) phi)phi, which agree on A once they agree on
    the letters (Milnor-Moore, 1965).
    """
    cop = coproduct_fn or coproduct
    monomials = enumerate_box(preset, box + 1)
    p = preset.p
    letters = [m for m in monomials if m.w + len(m.tau) + m.u + sum(e for _, e in m.xi) == 1]
    for g in (ONE, *letters):
        ts = cop(preset, g)
        prob = check_homogeneity(preset, g, ts)
        if prob:
            return AxiomFailure("homogeneity", (g,), prob)
        if p != 2 and (preset.total_degree(g) - g.parity) % 2:
            return AxiomFailure(
                "parity", (g,), f"total degree {preset.total_degree(g)} has wrong parity"
            )
        left_g = _sum_mod(p, (((ONE, b2), c) for (b1, b2), c in ts.items() if counit(preset, b1)))
        if left_g != {(ONE, g): 1}:
            return AxiomFailure("counit-left", (g,),
                                f"(eps (x) 1) D({g}) = {_format_sum(left_g)}")
        right_g = _sum_mod(p, (((b1, ONE), c) for (b1, b2), c in ts.items() if counit(preset, b2)))
        if right_g != {(g, ONE): 1}:
            return AxiomFailure("counit-right", (g,),
                                f"(1 (x) eps) D({g}) = {_format_sum(right_g)}")
        lhs = _coproduct_on_slot(preset, ts, cop, 0)
        rhs = _coproduct_on_slot(preset, ts, cop, 1)
        witness = first_difference(p, lhs, rhs, lambda t: tuple(x.sort_key() for x in t))
        if witness is not None:
            coeff = (lhs.get(witness, 0) - rhs.get(witness, 0)) % p
            return AxiomFailure(
                "coassociativity",
                (g,),
                f"(D(x)1)D - (1(x)D)D has term {witness} with coeff {coeff}",
            )
    for i, g in enumerate(letters):
        for h in letters[i:]:
            sign = -1 if g.parity and h.parity else 1
            gh = tensor_mul(p, cop(preset, g), cop(preset, h))
            hg = tensor_mul(p, cop(preset, h), cop(preset, g))
            if gh != (hg if sign == 1 else {k: p - c for k, c in hg.items()}):
                return AxiomFailure("multiplicativity", (g, h),
                                    f"D({g})*D({h}) != {sign}*D({h})*D({g})")
    for m in monomials[1:]:
        g = next(g for g in letters if _divides(g, m))
        r = _from_code(m._code - g._code)
        s, _ = product(g, r)
        gr = tensor_mul(p, cop(preset, g), cop(preset, r))
        if cop(preset, m) != (gr if s == 1 else {k: p - c for k, c in gr.items()}):
            return AxiomFailure("multiplicativity", (g, r), f"D({m}) != {s}*D({g})*D({r})")
        t, rg = product(r, g)
        if rg is not m or t != (-s if g.parity and r.parity else s):
            return AxiomFailure("graded-commutativity", (g, r), f"{g}*{r} != (+/-) {r}*{g}")
    return None


# ---------------------------------------------------------------------------
# quotient maps and Hopf ideals

_QUOTIENTS = frozenset({
    ("b", "bbar"), ("b", "atilde"), ("b", "u_xi0"), ("b", "u_only"),
    ("bbar", "atilde"), ("bbar", "u_xi0"), ("bbar", "u_only"),
    ("atilde", "u_only"), ("u_xi0", "u_only"),
})


def _x0_to_u2(m: Monomial) -> Monomial:
    """m with its factor x0^e rewritten as u^(2e)."""
    e = m._code >> _X_SHIFT & MAX_XI_EXPONENT
    return _from_code(m._code + (2 * e << _U_SHIFT) - (e << _X_SHIFT)) if e else m


def quotient_map(src: CoalgebraPreset, dst: CoalgebraPreset, m: Monomial) -> Monomial | None:
    """Image of a monomial under the canonical bialgebra quotient src -> dst:
    one monomial, or None when the image is 0.

    x0 goes to u^2 where dst identifies them and src does not; a monomial
    with a generator that dst lacks goes to 0."""
    if src.p != dst.p:
        raise ValueError("prime mismatch")
    if (src.name, dst.name) not in _QUOTIENTS:
        raise ValueError(f"no canonical quotient {src.name} -> {dst.name}")
    src.validate_monomial(m)
    if dst.row.x0_is_u2 and not src.row.x0_is_u2:
        m = _x0_to_u2(m)
    return None if dst.row.lacks(m) else m


@dataclass
class HopfIdealReport:
    generators: tuple[str, ...]
    counit_vanishes: bool
    is_coideal: bool
    counterexample: str | None

    @property
    def is_hopf_ideal(self) -> bool:
        return self.counit_vanishes and self.is_coideal


def _is_binomial(g: str) -> bool:
    return g.replace(" ", "") == "x0-u^2"


def _ideal_reduction(gens: tuple[str, ...]):
    """The normal-form map q modulo the ideal: q(m) is the monomial that m
    reduces to, or None when m lies in the ideal.

    Generators are monomials in the ``parse_monomial`` syntax (a product of
    letters is one monomial, not one generator per letter) and the binomial
    "x0-u^2", which rewrites x0 as u^2 in m and in the monomial generators;
    any other text raises ValueError.
    """
    xi0_usq = any(_is_binomial(g) for g in gens)
    killed = [parse_monomial(g) for g in gens if not _is_binomial(g)]
    if xi0_usq:
        killed = [_x0_to_u2(k) for k in killed]

    def q(m: Monomial) -> Monomial | None:
        r = _x0_to_u2(m) if xi0_usq else m
        return None if any(_divides(k, r) for k in killed) else r

    return q


def check_hopf_ideal(preset: CoalgebraPreset, gens,
                     box: int | None = None) -> HopfIdealReport:
    """Check whether the two-sided ideal I generated by `gens` is a bi-ideal:
    eps(g) = 0 and D(g) in I (x) B + B (x) I for each generator g, decided
    by reducing both tensor slots of D(g) to normal form modulo I.

    That suffices: I (x) B + B (x) I is the kernel of the algebra map
    pi (x) pi onto (B/I) (x) (B/I), hence an ideal, and D(g*m) = +-D(g)D(m)
    because D is multiplicative (``check_bialgebra_axioms``).  `box` is
    ignored, as nothing is enumerated; it stays only for callers that pass
    it.  A failure reads ``D(g * 1) has residue ...``.
    """
    gens = tuple(gens)
    q = _ideal_reduction(gens)
    p = preset.p
    gen_terms = {g: [(1, mono_xi(0)), (-1, mono_u(2))] if _is_binomial(g)
                 else [(1, parse_monomial(g))] for g in gens}
    counit_ok = all(sum(c * counit(preset, m) for c, m in gen_terms[g]) % p == 0
                    for g in gens)
    for g in gens:
        residue = _sum_mod(p, (((q1, q2), c * d) for c, gm in gen_terms[g]
                               for (b1, b2), d in coproduct(preset, gm).items()
                               if (q1 := q(b1)) is not None and (q2 := q(b2)) is not None))
        if residue:
            (b1, b2), c = next(iter(residue.items()))
            return HopfIdealReport(
                gens, counit_ok, False, f"D({g} * 1) has residue {c}*({b1})(x)({b2}) mod I")
    return HopfIdealReport(gens, counit_ok, True, None)
