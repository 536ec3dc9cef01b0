"""Exact linear algebra over prime fields F_p.

There is one Gaussian elimination, `_reduce`.  It takes sparse rows, each
scaled to be 1 at its leading column, eliminates column by column on the
sparsest row leading there (structured Gaussian elimination, after
LaMacchia-Odlyzko and Faugere-Lachartre), then back-substitutes.  The
reduced row echelon form of a row space is unique for a fixed column
order, so every result below is deterministic for a given input.

`FpMatrix` is a dense matrix of small nonnegative residues in an int64
numpy array, for the small per-degree blocks of morphisms; its `rref`, and
with it rank, echelon, kernel and solve, is `_reduce` of its rows.
`sparse_kernel_basis` is for large, very sparse systems with many repeated
rows, such as the global system of a hom space: duplicates and scalar
multiples collapse to one monic row before `_reduce`.
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
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, p: int, rows: list, cols: int | None = None) -> "FpMatrix":
        return cls(p, rows) if rows else cls.zeros(p, 0, cols or 0)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.a, other.a)

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
        return self.add(other.scale(-1))

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
        """Reduced row echelon form, by `_reduce` of the rows, and its pivots."""
        (m, n), p = self.shape, self.p
        reduced = _reduce(p, filter(None, (_monic_row(p, enumerate(row))
                                           for row in self.a.tolist())), n)
        pivots = sorted(reduced)
        red = [[0] * n for _ in range(m)]
        for row, c in zip(red, pivots):
            row[c] = 1
            for j, w in reduced[c].items():
                row[j] = w
        return FpMatrix(p, np.array(red, dtype=np.int64).reshape(m, n)), pivots

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
        x[pivots] = red.a[:len(pivots), self.cols]
        return x

    def row_space_basis(self) -> "FpMatrix":
        """Rows form a basis of the row space (nonzero rows of rref)."""
        return FpMatrix(self.p, self.echelon()[0])

    def in_row_space(self, vec) -> np.ndarray | None:
        """Coordinates of vec in terms of this matrix's rows, or None."""
        return FpMatrix(self.p, self.a.T).solve(vec)


# ---------------------------------------------------------------------------
# elimination on sparse rows


def _monic_row(p: int, row) -> tuple | None:
    """`row`, (col, coeff) pairs in increasing column order, reduced mod p
    and scaled to be 1 at its leading column, as a tuple of pairs of Python
    ints; None for a zero row.  Scalar multiples of one row give the same
    tuple."""
    items = [(c, x) for c, v in row if (x := int(v) % p)]
    if not items:
        return None
    inv = pow(items[0][1], -1, p)
    return tuple(items) if inv == 1 else tuple((c, v * inv % p) for c, v in items)


def _reduce(p: int, rows, ncols: int) -> dict[int, dict]:
    """The one Gaussian elimination: the reduced row echelon form of the
    span of `rows` (monic rows from `_monic_row`, columns in range(ncols))
    as {pivot column c: {j: coeff}}, the entries of the reduced row with
    pivot c other than its 1 at c; every such j is a non-pivot column."""
    by_lead: dict[int, list[dict]] = {}
    for row in rows:
        if row[0][0] < 0 or row[-1][0] >= ncols:
            raise ValueError(f"row has a column outside range({ncols})")
        by_lead.setdefault(row[0][0], []).append(dict(row))

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

    # Back-substitution from the last pivot.
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
    return reduced


def sparse_kernel_basis(p: int, rows, ncols: int) -> FpMatrix:
    """Canonical basis of the right null space of the matrix whose rows are
    `rows` (a list of dicts {col: coeff}, columns in range(ncols)).

    This is `FpMatrix(p, dense).kernel_basis()` of the dense matrix with
    these rows.  Coefficients may be any integers, numpy scalars included;
    zero, repeated and proportional rows are dropped before elimination.
    At DEBUG level the `supercomod.fplinalg` logger reports the rows given,
    the unique nonzero rows, their nonzeros and the columns.
    """
    _check_prime(p)
    unique = {_monic_row(p, sorted(row.items())) for row in rows}
    unique.discard(None)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("sparse kernel: %d rows given, %d unique, %d nnz, %d columns",
                  len(rows), len(unique), sum(map(len, unique)), ncols)
    reduced = _reduce(p, unique, ncols)
    free = [j for j in range(ncols) if j not in reduced]
    slot = {j: k for k, j in enumerate(free)}
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    for c, entries in reduced.items():
        for j, w in entries.items():
            basis[slot[j], c] = -w % p
    return FpMatrix(p, basis)
