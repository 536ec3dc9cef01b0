"""Exact linear algebra over prime fields F_p.

There is one Gaussian elimination, `_reduce`.  It takes sparse rows, each
scaled to be 1 at its leading column, eliminates column by column on the
sparsest row leading there (structured Gaussian elimination, after
LaMacchia-Odlyzko and Faugere-Lachartre), then back-substitutes.  The
reduced row echelon form of a row space is unique for a fixed column
order, so every result below is deterministic for a given input.

`FpMatrix` holds the small per-degree blocks of morphisms as Python ints
mod p, stored as the nonzero entries of each column, so `add` and `mul` cost
in proportion to the nonzeros; only this module reads that storage.  Its
`rref`, and with it echelon, kernel and solve, is `_reduce` of its rows, and
its `rank` counts the pivots of that same `_reduce`.
`sparse_kernel_basis` is for large, very sparse systems with many repeated
rows, such as the global system of a hom space: duplicates and scalar
multiples collapse to one monic row before `_reduce`.
"""

from __future__ import annotations

import logging

log = logging.getLogger(__name__)

SUPPORTED_PRIMES = (2, 3, 5, 7)


def _check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


def _transposed(columns, n: int) -> list[list]:
    """The n rows of the matrix with these columns, each a list of
    (col, coeff) pairs in increasing column order."""
    rows: list[list] = [[] for _ in range(n)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i].append((j, v))
    return rows


class FpMatrix:
    """A rows x cols matrix over F_p, built from one list of (row, coeff)
    entries per column; entries at one row add up, and coefficients are
    any ints, reduced mod p."""

    __slots__ = ("p", "rows", "cols", "_columns")

    def __init__(self, p: int, rows: int, columns):
        _check_prime(p)
        self.p = p
        self.rows = rows
        # the nonzero entries {row: coeff} of each column
        self._columns = []
        for entries in columns:
            col: dict = {}
            for i, v in entries:
                col[i] = (col.get(i, 0) + v) % p
            self._columns.append({i: v for i, v in col.items() if v} if 0 in col.values() else col)
        if not all(0 <= i < rows for col in self._columns for i in col):
            raise ValueError(f"column entry outside range({rows})")
        self.cols = len(self._columns)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, rows, [()] * cols)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, n, [[(j, 1)] for j in range(n)])

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def column(self, j: int) -> list[tuple[int, int]]:
        """The nonzero entries (row, coeff) of column j, by increasing row."""
        return sorted(self._columns[j].items())

    def to_list(self) -> list[list[int]]:
        """The entries as a list of rows of ints in range(p)."""
        return [[entries.get(j, 0) for j in range(self.cols)]
                for entries in map(dict, _transposed(self._columns, self.rows))]

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.cols, _transposed(self._columns, self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (self.p, self.rows, self._columns) == (other.p, other.rows, other._columns)

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.to_list()!r})"

    def is_zero(self) -> bool:
        return not any(self._columns)

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "FpMatrix") -> "FpMatrix":
        if (self.p, self.shape) != (other.p, other.shape):
            raise ValueError(f"mismatch: {self.shape} over F_{self.p} + "
                             f"{other.shape} over F_{other.p}")
        return FpMatrix(self.p, self.rows, [
            [*a.items(), *b.items()] for a, b in zip(self._columns, other._columns)])

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self.rows,
                        [[(i, v * c) for i, v in col.items()] for col in self._columns])

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        if (self.p, self.cols) != (other.p, other.rows):
            raise ValueError(f"mismatch: {self.shape} over F_{self.p} x "
                             f"{other.shape} over F_{other.p}")
        a = self._columns
        return FpMatrix(self.p, self.rows, [
            [(i, v * w) for k, v in b.items() for i, w in a[k].items()] for b in other._columns])

    # -- elimination ----------------------------------------------------

    def _reduced(self) -> dict[int, dict]:
        """`_reduce` of the rows, made monic."""
        rows = _transposed(self._columns, self.rows)
        return _reduce(self.p, filter(None, (_monic_row(self.p, r) for r in rows)), self.cols)

    def rref(self) -> tuple["FpMatrix", list[int]]:
        """Reduced row echelon form, by `_reduce` of the rows, and its pivots."""
        reduced = self._reduced()
        pivots = sorted(reduced)
        columns: list[list] = [[] for _ in range(self.cols)]
        for r, c in enumerate(pivots):
            columns[c].append((r, 1))
            for j, w in reduced[c].items():
                columns[j].append((r, w))
        return FpMatrix(self.p, self.rows, columns), pivots

    def rank(self) -> int:
        return len(self._reduced())

    def echelon(self) -> tuple["FpMatrix", list[int], list[int], "FpMatrix"]:
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
        free = [j for j in range(self.cols) if j not in pivots]
        null: list[list] = [[] for _ in range(self.cols)]
        for r, j in enumerate(free):
            null[j].append((r, 1))
            for s, v in red._columns[j].items():
                null[pivots[s]].append((r, -v))
        return (FpMatrix(self.p, len(pivots), [c.items() for c in red._columns]), pivots,
                free, FpMatrix(self.p, len(free), null))

    def kernel_basis(self) -> "FpMatrix":
        """Rows form the canonical basis of the right null space."""
        return self.echelon()[3]

    def solve(self, rhs) -> list[int] | None:
        """One particular solution x of A x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs length {len(rhs)} incompatible with {self.shape}")
        red, pivots = FpMatrix(self.p, self.rows, [*(c.items() for c in self._columns),
                                                   enumerate(rhs)]).rref()
        if self.cols in pivots:
            return None
        x = [0] * self.cols
        for s, v in red._columns[self.cols].items():
            x[pivots[s]] = v
        return x

    def row_space_basis(self) -> "FpMatrix":
        """Rows form a basis of the row space (nonzero rows of rref)."""
        return self.echelon()[0]

    def in_row_space(self, vec) -> list[int] | None:
        """Coordinates of vec in terms of this matrix's rows, or None."""
        return self.transpose().solve(vec)


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


def sparse_kernel_basis(p: int, rows, ncols: int) -> list[dict]:
    """Canonical basis of the right null space of the matrix whose rows are
    `rows` (a list of dicts {col: coeff}, columns in range(ncols)), as
    sparse vectors {col: coeff}.

    These are the rows of `kernel_basis` of the matrix with these rows.
    Coefficients may be any integers; zero, repeated and proportional rows
    are dropped before elimination.  At DEBUG level the
    `supercomod.fplinalg` logger reports the rows given, the unique nonzero
    rows, their nonzeros and the columns.
    """
    _check_prime(p)
    unique = {_monic_row(p, sorted(row.items())) for row in rows}
    unique.discard(None)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("sparse kernel: %d rows given, %d unique, %d nnz, %d columns",
                  len(rows), len(unique), sum(map(len, unique)), ncols)
    reduced = _reduce(p, unique, ncols)
    basis = {j: {j: 1} for j in range(ncols) if j not in reduced}
    for c, entries in reduced.items():
        for j, w in entries.items():
            basis[j][c] = -w % p
    return list(basis.values())
