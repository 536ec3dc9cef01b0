"""Exact linear algebra over prime fields F_p.

`FpMatrix` is the dense path: matrices hold small nonnegative residues in
int64 numpy arrays, every operation reduces mod p, and elimination uses
first-nonzero pivoting, which makes rref/kernel/solve deterministic for a
given input.  It serves the small per-degree blocks of morphisms (a few
hundred rows/columns at most).

`sparse_kernel_basis` is the sparse path for large, very sparse systems
with many repeated rows, such as the global system of a hom space.  Rows
are dicts {col: coeff}; each is scaled to be monic at its leading column
and hashed, so duplicates and scalar multiples collapse before
elimination, which then runs column by column on the sparsest row leading
there (structured Gaussian elimination, after LaMacchia-Odlyzko and
Faugere-Lachartre).  Since the reduced row echelon form of a row space is
unique for a fixed column order, its result equals the dense
`kernel_basis` of the same rows entry for entry.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

SUPPORTED_PRIMES = (2, 3, 5, 7)


def _check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


class FpMatrix:
    """A rows x cols matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        _check_prime(p)
        self.p = p
        a = np.array(data, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError(f"expected 2-d data, got ndim={a.ndim}")
        self.a = a % p

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        _check_prime(p)
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _check_prime(p)
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, p: int, rows: list, cols: int | None = None) -> "FpMatrix":
        if not rows:
            return cls.zeros(p, 0, cols or 0)
        return cls(p, np.array(rows, dtype=np.int64))

    # -- basic structure ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def copy(self) -> "FpMatrix":
        return FpMatrix(self.p, self.a.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(
            np.array_equal(self.a, other.a)
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a.tolist()!r})"

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- arithmetic ----------------------------------------------------

    def _check_same_field(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def add(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FpMatrix(self.p, self.a + other.a)

    def sub(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FpMatrix(self.p, self.a - other.a)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self.a * (c % self.p))

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for mul: {self.shape} x {other.shape}")
        return FpMatrix(self.p, (self.a @ other.a) % self.p)

    def apply(self, vec) -> np.ndarray:
        """Matrix times column vector (1-d array)."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} incompatible with {self.shape}")
        return (self.a @ v) % self.p

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["FpMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        p = self.p
        a = self.a.copy()
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
        return FpMatrix(p, a), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def echelon(self) -> tuple[np.ndarray, list[int], list[int], np.ndarray]:
        """One rref read four ways: (rows, pivots, free, null).

        `rows` is the rref basis of the row space and `pivots` its pivot
        columns; `free` is the other columns, and `null` has one row per
        free column j: 1 at j, 0 at the other free columns and minus the
        rref entries of column j at the pivots.  The rows of `null` are the
        canonical basis of the right null space, and `null` also takes a
        vector to its class modulo the row space, in coordinates indexed by
        `free`.
        """
        red, pivots = self.rref()
        rows = red.a[:len(pivots)]
        free = [j for j in range(self.cols) if j not in pivots]
        null = np.zeros((len(free), self.cols), dtype=np.int64)
        null[:, free] = np.eye(len(free), dtype=np.int64)
        null[:, pivots] = -rows[:, free].T % self.p
        return rows, pivots, free, null

    def kernel_basis(self) -> "FpMatrix":
        """Rows form the canonical basis of the right null space.

        For each non-pivot column j there is one basis vector with a 1 in
        position j; rank + number of rows equals cols.
        """
        return FpMatrix(self.p, self.echelon()[3])

    def solve(self, rhs) -> np.ndarray | None:
        """One particular solution x of A x = rhs, or None if inconsistent."""
        b = np.asarray(rhs, dtype=np.int64).reshape(-1) % self.p
        if b.shape != (self.rows,):
            raise ValueError(f"rhs length {b.shape} incompatible with {self.shape}")
        aug = FpMatrix(self.p, np.hstack([self.a, b.reshape(-1, 1)]))
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        for r, c in enumerate(pivots):
            x[c] = red.a[r, self.cols]
        return x

    def row_space_basis(self) -> "FpMatrix":
        """Rows form a basis of the row space (nonzero rows of rref)."""
        return FpMatrix(self.p, self.echelon()[0])

    def in_row_space(self, vec) -> np.ndarray | None:
        """Coordinates of vec in terms of this matrix's rows, or None."""
        sol = FpMatrix(self.p, self.a.T).solve(vec)
        return sol


# ---------------------------------------------------------------------------
# sparse elimination


def _monic_row(p: int, row: dict) -> tuple | None:
    """`row` ({col: coeff}) reduced mod p and scaled to be 1 at its leading
    (smallest) column, as (col, coeff) pairs of Python ints sorted by
    column; None for a zero row.  Scalar multiples of one row give the
    same tuple."""
    items = [(c, x) for c, v in sorted(row.items()) if (x := int(v) % p)]
    if not items:
        return None
    inv = pow(items[0][1], -1, p)
    if inv == 1:
        return tuple(items)
    return tuple((c, v * inv % p) for c, v in items)


def sparse_kernel_basis(p: int, rows, ncols: int) -> FpMatrix:
    """Canonical basis of the right null space of the matrix whose rows are
    `rows` (a list of dicts {col: coeff}, columns in range(ncols)).

    Returns exactly `FpMatrix(p, dense).kernel_basis()` for the dense
    matrix with these rows: one vector per non-pivot column j, with a 1 at
    j.  Zero, repeated and proportional rows may be given; they are
    dropped before elimination.  Coefficients may be any integers,
    numpy scalars included.  At DEBUG level the `supercomod.fplinalg`
    logger reports the rows given, the unique nonzero rows and their
    nonzeros.
    """
    _check_prime(p)
    unique = {_monic_row(p, row) for row in rows}
    unique.discard(None)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("sparse kernel: %d rows given, %d unique, %d nnz, %d columns",
                  len(rows), len(unique), sum(map(len, unique)), ncols)
    by_lead: dict[int, list[dict]] = {}
    for key in unique:
        if key[0][0] < 0 or key[-1][0] >= ncols:
            raise ValueError(f"row has a column outside range({ncols})")
        by_lead.setdefault(key[0][0], []).append(dict(key))
    del unique

    # Forward elimination to echelon form: every row in by_lead[c] is monic
    # at c, so reducing one by the pivot is a plain subtraction.
    pivot_rows: dict[int, dict] = {}
    for c in range(ncols):
        bucket = by_lead.pop(c, None)
        if not bucket:
            continue
        pivot = min(bucket, key=len)
        pivot_rows[c] = pivot
        for row in bucket:
            if row is pivot:
                continue
            for k, v in pivot.items():
                x = (row.get(k, 0) - v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
            if row:
                lead = min(row)
                inv = pow(row[lead], -1, p)
                if inv != 1:
                    for k in row:
                        row[k] = row[k] * inv % p
                by_lead.setdefault(lead, []).append(row)

    # Back-substitution from the last pivot: reduced[c] holds the entries of
    # the reduced row with pivot c off its pivot, all at non-pivot columns.
    reduced: dict[int, dict] = {}
    for c in sorted(pivot_rows, reverse=True):
        out: dict = {}
        for k, v in pivot_rows[c].items():
            if k == c:
                continue
            if k in reduced:
                for j, w in reduced[k].items():
                    out[j] = (out.get(j, 0) - v * w) % p
            else:
                out[k] = (out.get(k, 0) + v) % p
        reduced[c] = {j: w for j, w in out.items() if w}

    free = [j for j in range(ncols) if j not in pivot_rows]
    slot = {j: k for k, j in enumerate(free)}
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for j, k in slot.items():
        basis[k, j] = 1
    for c, entries in reduced.items():
        for j, w in entries.items():
            basis[slot[j], c] = -w % p
    return FpMatrix(p, basis)
