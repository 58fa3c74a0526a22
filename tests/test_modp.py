import numpy as np
import pytest

from weilbc import modp


def _rref_by_rows(mat, p):
    """Row-by-row Gauss-Jordan elimination, the reference for the vectorized rref."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for j in np.nonzero(m[:, c])[0]:
            if j != r:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _random_matrices(p, rng):
    for rows, cols in [(1, 1), (4, 4), (6, 11), (11, 6), (8, 8), (3, 17)]:
        yield rng.integers(0, p, size=(rows, cols))
        # rank-deficient: a product through a thin inner dimension
        inner = max(1, min(rows, cols) // 2)
        yield rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols)) % p
    yield np.zeros((5, 7), dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_matches_row_by_row_elimination(p):
    rng = np.random.default_rng(p)
    for mat in _random_matrices(p, rng):
        got, pivots = modp.rref(mat, p)
        want, want_pivots = _rref_by_rows(mat, p)
        assert pivots == want_pivots
        assert np.array_equal(got, want)
        free = [c for c in range(mat.shape[1]) if c not in want_pivots]
        want_kern = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
        for k, fc in enumerate(free):
            want_kern[k, fc] = 1
            for r, pc in enumerate(want_pivots):
                want_kern[k, pc] = -want[r, fc] % p
        kern = modp.kernel_basis(mat, p)
        assert np.array_equal(kern, want_kern)
        assert not (mat @ kern.T % p).any()
