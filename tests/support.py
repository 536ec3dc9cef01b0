"""Helpers that only the tests use.

`rref_reference` is the textbook Gauss-Jordan elimination over F_p on a
dense numpy array: first nonzero pivot, a row swap, then every other row
cleared.  It shares no code with the engine's one elimination
(`fplinalg._reduce`), and the tests check that elimination against it.

`operation_closure` recomputes a graded subspace from the coaction alone,
as the closure of explicit classes under Steenrod operations, to
cross-check the builders of F(n); `closure_dims` and `poincare_shift` read
and move Poincare tables.
"""
from __future__ import annotations

import numpy as np

from supercomod.bialgebra import Monomial, add_deg
from supercomod.comodule import Comodule, steenrod_action
from supercomod.fplinalg import FpMatrix


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
    actions = [(M.preset.total_degree(op), steenrod_action(M, op)) for op in ops]
    span: dict = {}

    def insert(d, row) -> bool:
        cur = span.get(d)
        if cur is None:
            mat = FpMatrix.from_rows(p, [row])
            if mat.rank() == 0:
                return False
            span[d] = mat.rref()[0]
            return True
        if cur.in_row_space(row) is not None:
            return False
        rows = [list(map(int, r)) for r in cur.a] + [row]
        new = FpMatrix.from_rows(p, rows).rref()[0]
        keep = [list(map(int, r)) for r in new.a if any(r)]
        span[d] = FpMatrix.from_rows(p, keep)
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
            out = mat.apply(row)
            if any(out):
                if insert(d + shift, list(map(int, out))):
                    frontier.append((d + shift, list(map(int, out))))
    return {d: m for d, m in span.items() if m.rows}


def closure_dims(span: dict) -> dict:
    return {d: m.rows for d, m in sorted(span.items())}


def poincare_shift(t: dict, d0) -> dict:
    return {add_deg(d0, d): c for d, c in t.items()}
