"""Helpers that only the tests use.

`rref_reference` is the textbook Gauss-Jordan elimination over F_p on a
dense numpy array: first nonzero pivot, a row swap, then every other row
cleared.  It shares neither code nor storage with the engine's one
elimination (`fplinalg._reduce` on Python int rows), and the tests check
that elimination against it.  `fp_matrix` builds an `FpMatrix` from dense
rows, and `apply` multiplies one by a vector, test-side.

`operation_closure` recomputes a graded subspace from the coaction alone,
as the closure of explicit classes under Steenrod operations read off the
action table, to cross-check the builders of F(n); `action_block` reads one
block of that table, an absent one as zero; `closure_dims` and
`poincare_shift` read and move Poincare tables.

The `*_assignment` functions write the canonical maps of `objects` out
monomial by monomial, as label assignments for `morphism_from_assignment`:
contraction by a coproduct, multiplication by a grouplike, the x0 -> u^2
rewrite and division by a grouplike.  The engine builds each map instead
as the closed form of one element (`homsolver.cofree_map`, `free_map`),
and the tests check the two against each other.

`tensor_reference` is the tensor product of comodules as the engine built
it before its terms were multiplied on packed keys: one `product` per pair
of terms, each term listed unmerged, and the validating `Comodule(...)` to
merge them.

`steenrod_action_reference` is the action of one operation as the engine
computed it before the pad moved into bialgebra, one pass over the coaction
per operation: each monomial is split, by its letter fields, into the
exponent of the grouplike pad and the rest.  It is the independent oracle
for `comodule.action_table`.

`box_reference` lists every monomial of a preset up to a left total degree
by brute force: one loop per exponent of each letter the preset row has,
and the left and right degrees from their formulas.  It calls none of the
enumerators, so the tests check all four against it.
"""
from __future__ import annotations

from itertools import product as exponents

import numpy as np

from supercomod.bialgebra import (
    Monomial,
    add_deg,
    coproduct,
    enumerate_left,
    enumerate_right,
    format_monomial,
    get_preset,
    parity_of,
    product,
    total_of,
)
from supercomod.comodule import Comodule, action_table
from supercomod.fplinalg import FpMatrix


def fp_matrix(p: int, a) -> FpMatrix:
    """The FpMatrix of the dense 2-d array or list of rows `a`."""
    a = np.array(a, dtype=np.int64)
    return FpMatrix(p, a.shape[0], [list(enumerate(col)) for col in a.T.tolist()])


def apply(mat: FpMatrix, vec) -> list[int]:
    """mat times the column vector vec, as a list of ints in range(p)."""
    return [sum(a * int(x) for a, x in zip(row, vec)) % mat.p for row in mat.to_list()]


def rref_reference(p: int, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the 2-d array `a` over F_p, of the same
    shape, and the list of pivot columns."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = -1
        for i in range(r, m):
            if a[i, c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            a[[r, pivot], :] = a[[pivot, r], :]
        inv = pow(int(a[r, c]), -1, p)
        a[r, :] = (a[r, :] * inv) % p
        nz = np.nonzero(a[:, c])[0]
        for i in nz:
            if i != r:
                a[i, :] = (a[i, :] - a[i, c] * a[r, :]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def kernel_reference(p: int, a) -> np.ndarray:
    """Canonical basis of the right null space of `a`, read off
    `rref_reference`: one row per non-pivot column j, 1 at j."""
    red, pivots = rref_reference(p, a)
    n = red.shape[1]
    free = [j for j in range(n) if j not in pivots]
    null = np.zeros((len(free), n), dtype=np.int64)
    null[:, free] = np.eye(len(free), dtype=np.int64)
    null[:, pivots] = -red[:len(pivots)][:, free].T % p
    return null


def operation_closure(M: Comodule, seeds: list, ops: list[Monomial]) -> dict:
    """Smallest graded subspace of M containing the seed vectors and closed
    under the given operations.  Seeds are (degree, coefficient_row) pairs;
    returns {degree: FpMatrix of basis rows}.
    """
    p = M.p
    table = action_table(M)
    actions = [(M.preset.total_degree(op), table.get(op, {})) for op in ops]
    span: dict = {}

    def insert(d, row) -> bool:
        cur = span.get(d)
        if cur is None:
            mat = fp_matrix(p, [row])
            if mat.rank() == 0:
                return False
            span[d] = mat.rref()[0]
            return True
        if cur.in_row_space(row) is not None:
            return False
        new = fp_matrix(p, cur.to_list() + [row]).rref()[0]
        span[d] = fp_matrix(p, [r for r in new.to_list() if any(r)])
        return True

    frontier = []
    for d, row in seeds:
        if insert(d, list(row)):
            frontier.append((d, list(row)))
    while frontier:
        d, row = frontier.pop()
        for shift, blocks in actions:
            mat = blocks.get(d)
            if mat is None or mat.rows == 0:
                continue
            out = apply(mat, row)
            if any(out):
                if insert(d + shift, list(map(int, out))):
                    frontier.append((d + shift, list(map(int, out))))
    return {d: m for d, m in span.items() if m.rows}


def action_block(M: Comodule, table: dict, lam: Monomial, d) -> FpMatrix:
    """The block of act(lam) at degree d in M's action table `table`, an
    absent one read as zero."""
    block = table.get(lam, {}).get(d)
    if block is None:
        return FpMatrix.zeros(M.p, M.dim(d + M.preset.total_degree(lam)), M.dim(d))
    return block


def closure_dims(span: dict) -> dict:
    return {d: m.rows for d, m in sorted(span.items())}


def poincare_shift(t: dict, d0) -> dict:
    return {add_deg(d0, d): c for d, c in t.items()}


def cap_assignment(p: int, lam: Monomial) -> dict:
    """J(0, m) -> J(right(lam)): m' goes to the sum of c * b2 over the terms
    c * lam (x) b2 of the coproduct of m'."""
    preset = get_preset("bbar", p)
    return {format_monomial(mp): [(c, format_monomial(b2))
                                  for (b1, b2), c in coproduct(preset, mp).items() if b1 == lam]
            for mp in enumerate_left(preset, preset.left_degree(lam))}


def multiplication_assignment(p: int, g: Monomial, n: int) -> dict:
    """S^{deg g} J(0, n) -> J(deg g + (0, n)), s|m -> g*m with its sign."""
    out = {}
    for mp in enumerate_left(get_preset("bbar", p), (0, n)):
        s, prod = product(g, mp)
        out[f"s|{format_monomial(mp)}"] = [(s, format_monomial(prod))]
    return out


def _xi0_rewrite_preimage(m: Monomial, a: int, b: int) -> Monomial | None:
    """The unique monomial with right bidegree (a, b) mapping to m under the
    x0 -> u^2 rewrite, if any."""
    e0 = b - sum(e for j, e in m.xi)
    u = m.u - 2 * e0
    if e0 < 0 or u < 0 or u + len(m.tau) != a:
        return None
    return Monomial(m.w, m.tau, u, sorted(([(0, e0)] if e0 else []) + list(m.xi)))


def mu_assignment(p: int, n: int, a: int, b: int, box: int, target: Comodule) -> dict:
    """F(n) -> Theta F(a, b): the dual of m goes to the dual of its preimage
    under the x0 -> u^2 rewrite on the right-(a, b) monomials, and to 0
    when there is none in the target."""
    out = {}
    for m in enumerate_right(get_preset("atilde", p), n, box):
        pre = _xi0_rewrite_preimage(m, a, b)
        if pre is not None and format_monomial(pre) in target.coaction:
            out[format_monomial(m)] = [(1, format_monomial(pre))]
    return out


def division_assignment(p: int, a: int, b: int, box: int, shift,
                        target: Comodule) -> dict:
    """F(a,b) -> S^shift F((a,b) - shift) for shift = (da, db): the dual of m
    goes to the dual of m / (u^da x0^db), and to 0 when that division leaves
    no monomial in the target."""
    da, db = shift
    out = {}
    for m in enumerate_right(get_preset("bbar", p), (a, b), box):
        xi = dict(m.xi)
        if m.u < da or xi.get(0, 0) < db:
            continue
        xi[0] = xi.get(0, 0) - db
        quo = Monomial(m.w, m.tau, m.u - da, sorted((j, e) for j, e in xi.items() if e))
        label = f"s|{format_monomial(quo)}"
        if label in target.coaction:
            out[format_monomial(m)] = [(1, label)]
    return out


def tensor_reference(M: Comodule, N: Comodule) -> Comodule:
    """M (x) N with the Koszul sign (-1)^{parity(b_m) parity(n')}, its terms
    multiplied pairwise by `product` and merged by `Comodule(...)`."""
    boxed = [X for X in (M, N) if X.box is not None]
    box = min((X.box for X in boxed), default=None)
    components: dict = {}
    pair_label: dict = {}
    for dm in M.degrees():
        for dn in N.degrees():
            d = add_deg(dm, dn)
            if box is not None and total_of(d) > box:
                continue
            for lm in M.components[dm]:
                for ln in N.components[dn]:
                    pair_label[(lm, ln)] = f"{lm}|{ln}"
                    components.setdefault(d, []).append(f"{lm}|{ln}")
    coaction: dict = {}
    for (lm, ln), lab in pair_label.items():
        out = []
        for c1, lm2, bm in M.coaction[lm]:
            for c2, ln2, bn in N.coaction[ln]:
                if (lm2, ln2) not in pair_label:
                    continue
                sign = -1 if bm.parity and parity_of(N.degree_of(ln2)) else 1
                s, b = product(bm, bn)
                if s:
                    out.append((c1 * c2 * sign * s, pair_label[(lm2, ln2)], b))
        coaction[lab] = out
    return Comodule(M.preset, components, coaction, box=box)


def steenrod_action_reference(M: Comodule, lam: Monomial) -> dict:
    """act(lam) of a singly graded comodule: the coaction coefficients at
    g^k * lam (k >= 0), with the pad g = u, or x0 in a preset without u,
    recognised by comparing letter fields."""
    pad_u = M.preset.row.u

    def split(m: Monomial):
        """(exponent of the pad, rest of m)."""
        if pad_u:
            return m.u, (m.w, m.tau, m.xi)
        return dict(m.xi).get(0, 0), (m.w, m.tau, m.u, tuple(x for x in m.xi if x[0]))

    lam_pad, lam_rest = split(lam)

    def hits(b: Monomial) -> bool:
        pad, rest = split(b)
        return rest == lam_rest and pad >= lam_pad

    shift = M.preset.total_degree(lam)
    out = {}
    for d in M.degrees():
        index = {lab: i for i, lab in enumerate(M.basis(d + shift))}
        out[d] = FpMatrix(M.p, len(index), [
            [(index[t], c) for c, t, b in M.coaction[lab] if t in index and hits(b)]
            for lab in M.basis(d)])
    return out


def box_reference(preset, box: int) -> list[tuple]:
    """(monomial, left degree, right degree, left total degree) for every
    monomial of the preset with left total degree <= box, sorted by left
    degree and then by `Monomial.sort_key`, the order of `enumerate_box`.

    A monomial w^w t_tau u^u prod x_j^e_j has left bidegree (u + w, sum p^i
    over tau + sum e_j p^j) and right bidegree (u + |tau|, w + sum e_j); a
    singly graded preset of weight k collapses (a, b) to a + k b, and the
    total of a bidegree is a + 2 b."""
    row, p = preset.row, preset.p
    k = 2 if row.weight is None else row.weight
    indices = [i for i in range(box + 1) if k * p**i <= box]
    taus = indices if row.tau else []
    xis = [j for j in indices if row.allows_xi(j)]
    out = []
    for w in (0, 1) if row.w else (0,):
        for bits in exponents((0, 1), repeat=len(taus)):
            tau = tuple(i for i, bit in zip(taus, bits) if bit)
            for es in exponents(*[range(box // (k * p**j) + 1) for j in xis]):
                b = sum(p**i for i in tau) + sum(e * p**j for j, e in zip(xis, es))
                if w + k * b > box:
                    continue
                xi = tuple((j, e) for j, e in zip(xis, es) if e)
                for u in range(box - w - k * b + 1) if row.u else (0,):
                    left, right = (u + w, b), (u + len(tau), w + sum(es))
                    if row.weight is not None:
                        left, right = left[0] + k * left[1], right[0] + k * right[1]
                    out.append((Monomial(w, tau, u, xi), left, right, u + w + k * b))
    out.sort(key=lambda entry: (entry[1], entry[0].sort_key()))
    return out
