from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercomod.fplinalg import SUPPORTED_PRIMES, FpMatrix, sparse_kernel_basis

from support import apply, fp_matrix, kernel_reference, rref_reference


def test_kernel_frozen_example():
    # kernel of [[1,2],[2,4]] over F_5 is spanned by (3, 1)
    m = fp_matrix(5, [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.to_list() == [[3, 1]]
    assert m.rank() == 1


def test_unsupported_prime_rejected():
    with pytest.raises(ValueError):
        FpMatrix(6, 1, [[(0, 1)]])
    with pytest.raises(ValueError):
        FpMatrix.zeros(11, 2, 2)


def test_rref_identity_and_pivots():
    m = fp_matrix(3, [[2, 0, 1], [0, 1, 1], [1, 1, 2]])
    red, pivots = m.rref()
    assert pivots == [0, 1, 2]
    assert red == FpMatrix.identity(3, 3)


def test_solve_particular_and_inconsistent():
    a = fp_matrix(7, [[1, 2], [3, 4]])
    x = a.solve([5, 6])
    assert x is not None
    assert apply(a, x) == [5, 6]
    sing = fp_matrix(5, [[1, 2], [2, 4]])
    assert sing.solve([1, 3]) is None
    x2 = sing.solve([1, 2])
    assert x2 is not None and apply(sing, x2) == [1, 2]


def test_shape_errors():
    a = fp_matrix(3, [[1, 2]])
    b = fp_matrix(3, [[1, 2]])
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        fp_matrix(3, [[1]]).add(fp_matrix(3, [[1, 2]]))
    with pytest.raises(ValueError):
        fp_matrix(3, [[1]]).mul(fp_matrix(5, [[1]]))
    with pytest.raises(ValueError):
        FpMatrix(3, 2, [[(2, 1)]])


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_rank_nullity_random(p):
    rng = np.random.default_rng(12345 + p)
    for _ in range(25):
        rows = int(rng.integers(1, 41))
        cols = int(rng.integers(1, 41))
        m = fp_matrix(p, rng.integers(0, p, size=(rows, cols)))
        k = m.kernel_basis()
        assert m.rank() + k.rows == cols
        if k.rows:
            prod = m.mul(k.transpose())
            assert prod.is_zero()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_solve_consistency_random(p):
    rng = np.random.default_rng(999 + p)
    for _ in range(20):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        m = fp_matrix(p, rng.integers(0, p, size=(rows, cols)))
        x = rng.integers(0, p, size=cols).tolist()
        b = apply(m, x)
        got = m.solve(b)
        assert got is not None
        assert apply(m, got) == b


def test_rref_idempotent_and_deterministic():
    m = fp_matrix(5, [[0, 2, 1], [3, 1, 4], [3, 3, 0]])
    red1, piv1 = m.rref()
    red2, piv2 = red1.rref()
    assert red1 == red2 and piv1 == piv2


def test_row_space_membership():
    m = fp_matrix(3, [[1, 1, 0], [0, 1, 1]])
    coords = m.in_row_space([1, 2, 1])
    assert coords is not None
    assert apply(m.transpose(), coords) == [1, 2, 1]
    assert m.in_row_space([0, 0, 1]) is None


@st.composite
def sparse_systems(draw):
    """(p, rows, ncols) with repeated, proportional and zero rows mixed in;
    coefficients are Python ints or numpy.int64: any integer type is accepted."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    ncols = draw(st.integers(0, 9))
    coeff = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.dictionaries(st.integers(0, max(ncols - 1, 0)),
                                         coeff | coeff.map(np.int64),
                                         max_size=min(ncols, 4)),
                         max_size=10))
    for k, c in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, p - 1)),
                              max_size=6)):
        if rows:
            rows.append({j: c * v for j, v in rows[k % len(rows)].items()})
    return p, draw(st.permutations(rows)), ncols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_systems())
def test_sparse_kernel_matches_dense(system):
    p, rows, ncols = system
    dense = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense[i, j] = v
    # against the test-only reference elimination: FpMatrix.kernel_basis
    # shares the eliminator under test
    basis = sparse_kernel_basis(p, rows, ncols)
    assert [[v.get(j, 0) for j in range(ncols)] for v in basis] == \
        kernel_reference(p, dense).tolist()


def test_sparse_kernel_rejects_out_of_range_columns():
    with pytest.raises(ValueError):
        sparse_kernel_basis(5, [{0: 1, 2: 3}], 2)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_rref_matches_reference(p):
    # every shape up to 12 x 12, empty ones included: a random matrix and one
    # of rank at most 2, each with zero rows and zero columns mixed in
    rng = np.random.default_rng(2024 + p)
    for m, n in itertools.product(range(13), repeat=2):
        for a in (rng.integers(0, p, size=(m, n)),
                  rng.integers(0, p, size=(m, 2)) @ rng.integers(0, p, size=(2, n))):
            a[rng.random(m) < 0.25, :] = 0
            a[:, rng.random(n) < 0.25] = 0
            red, pivots = fp_matrix(p, a).rref()
            ref, ref_pivots = rref_reference(p, a)
            assert pivots == ref_pivots and red.to_list() == ref.tolist(), a.tolist()
            assert fp_matrix(p, a).rank() == len(ref_pivots), a.tolist()
