import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilbc import modp
from weilbc.errors import DimensionMismatch, InvariantBroken, Singular, WeilbcError


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
    shifted = rng.integers(0, p, size=(5, 5))
    shifted[:, :2] = 0  # the first pivot moves two columns right
    yield shifted


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_matches_row_by_row_elimination(p):
    rng = np.random.default_rng(p)
    for mat in _random_matrices(p, rng):
        got, pivots = modp.rref(mat, p)
        want, want_pivots = _rref_by_rows(mat, p)
        assert np.flatnonzero(pivots).tolist() == want_pivots
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


# -- batched kernels against a per-matrix elimination on Python ints ------------------


def _rref_ints(rows, p):
    """Gauss-Jordan elimination of one matrix given as lists of Python ints."""
    m = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for j in range(len(m)):
            if j != r and m[j][c]:
                f = m[j][c]
                m[j] = [(x - f * y) % p for x, y in zip(m[j], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _kernel_ints(rows, p):
    m, pivots = _rref_ints(rows, p)
    cols = len(m[0])
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc] % p
        out.append(vec)
    return out


PRIMES = [3, 5, 7, 2**31 - 1]


@st.composite
def batches(draw, min_rows=1, full_rank=False):
    """(p, batch): matrices of one shape, each a product through a drawn inner
    dimension with a drawn set of columns zeroed, so that the batch mixes ranks and
    pivot patterns.  Half the batches share the inner dimension and the number of
    zeroed columns (mostly one nullity); full_rank draws full inner dimensions and
    zeroes nothing."""
    p = draw(st.sampled_from(PRIMES))
    count, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rows = draw(st.integers(min_rows, max(min_rows, 7)))
    entry = st.integers(0, p - 1)
    shared = draw(st.booleans())
    zeros = 0 if full_rank else draw(st.integers(0, cols // 2))
    inner = min(rows, cols) if full_rank else draw(st.integers(0, min(rows, cols - zeros)))
    batch = []
    for _ in range(count):
        if not shared and not full_rank:
            zeros = draw(st.integers(0, cols // 2))
            inner = draw(st.integers(0, min(rows, cols - zeros)))
        left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
        zeroed = draw(st.sets(st.integers(0, cols - 1), min_size=zeros, max_size=zeros))
        batch.append([[0 if c in zeroed else sum(left[r][k] * right[k][c] for k in range(inner)) % p
                       for c in range(cols)] for r in range(rows)])
    return p, batch


@settings(max_examples=120, deadline=None, derandomize=True)
@given(batches())
def test_batched_rref_matches_per_matrix_elimination_property(case):
    p, batch = case
    got, mask = modp.rref(np.array(batch, dtype=np.int64), p)
    for k, rows in enumerate(batch):
        want, pivots = _rref_ints(rows, p)
        assert got[k].tolist() == want
        assert np.flatnonzero(mask[k]).tolist() == pivots


@settings(max_examples=120, deadline=None, derandomize=True)
@given(batches())
def test_batched_kernel_basis_matches_per_matrix_elimination_property(case):
    """Equal nullities give each matrix's own reduced kernel basis; unequal ones raise."""
    p, batch = case
    want = [_kernel_ints(rows, p) for rows in batch]
    if len({len(kern) for kern in want}) > 1:
        with pytest.raises(DimensionMismatch):
            modp.kernel_basis(np.array(batch, dtype=np.int64), p)
        return
    got = modp.kernel_basis(np.array(batch, dtype=np.int64), p)
    assert got.shape == (len(batch), len(want[0]), len(batch[0][0]))
    assert got.tolist() == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(batches(min_rows=7, full_rank=True))
def test_batched_left_inverse_property(case):
    """A full-column-rank batch gets each matrix's left inverse from [M | I]; any
    rank-deficient matrix in the batch raises Singular."""
    p, batch = case
    rows, cols = len(batch[0]), len(batch[0][0])
    reduced = [_rref_ints([row + [int(r == k) for k in range(rows)] for r, row in enumerate(m)], p)
               for m in batch]
    if any(pivots[:cols] != list(range(cols)) for _, pivots in reduced):
        with pytest.raises(Singular):
            modp.left_inverse(np.array(batch, dtype=np.int64), p)
        return
    got = modp.left_inverse(np.array(batch, dtype=np.int64), p)
    for k, (aug, _) in enumerate(reduced):
        assert got[k].tolist() == [row[cols:] for row in aug[:cols]]
        # L·M = I, in Python ints
        assert [[sum(x * batch[k][i][c] for i, x in enumerate(row)) % p for c in range(cols)]
                for row in got[k].tolist()] == [[int(r == c) for c in range(cols)] for r in range(cols)]


def test_kernel_basis_refuses_unequal_nullities():
    batch = np.stack([np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)])
    with pytest.raises(WeilbcError, match="null spaces of dimensions"):
        modp.kernel_basis(batch, 5)


def test_two_dimensional_input_is_a_batch_of_one():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 7, size=(4, 6))
    got, mask = modp.rref(mat, 7)
    stacked, stacked_mask = modp.rref(mat[None], 7)
    assert np.array_equal(got, stacked[0]) and np.array_equal(mask, stacked_mask[0])
    assert np.array_equal(modp.kernel_basis(mat, 7), modp.kernel_basis(mat[None], 7)[0])


def _det_by_rows(mat, p):
    """Determinant mod p by row-by-row elimination in Python ints, the reference for det."""
    m = [[int(x) % p for x in row] for row in mat]
    k, out = len(m), 1
    for c in range(k):
        r = next((r for r in range(c, k) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r], out = m[r], m[c], -out
        out = out * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, k):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return out % p


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_det_and_inverse_match_elimination(p, k):
    """A stack gets each matrix's determinant, and an inverse exactly where it is nonzero."""
    rng = np.random.default_rng(10 * p + k)
    full = rng.integers(0, p, size=(40, k, k))
    thin = rng.integers(0, p, size=(20, k, 1)) @ rng.integers(0, p, size=(20, 1, k)) % p  # rank ≤ 1
    shifted = rng.integers(0, p, size=(10, k, k))
    shifted[:, :, 0] = 0  # the first pivot moves right
    stack = np.concatenate([full, thin, np.zeros((1, k, k), dtype=np.int64), shifted])
    want = [_det_by_rows(m, p) for m in stack]
    assert modp.det(stack, p).tolist() == want
    assert modp.det(stack[:60].reshape(3, 20, k, k), p).ravel().tolist() == want[:60]  # any leading axes
    inv, ok = modp.inverse(stack, p)
    assert ok.tolist() == [d != 0 for d in want]
    assert (np.einsum("eij,ejk->eik", stack[ok], inv[ok]) % p == np.eye(k, dtype=np.int64)).all()


# -- Galois descent: fixed spaces of semilinear maps ----------------------------------------


def _frobenius_stack(p, degree, d):
    """The matrix (1, A, A) of x ↦ x^{p^d} on F_{p^degree}, semilinear of order degree/d."""
    from weilbc.fieldtower import build_tower

    return build_tower(p, 1, degree).frob_matrix(d)[None]


def test_fixed_space_falls_back_to_the_kernel(monkeypatch):
    """At F_27 the trace of 1 is 3 = 0: with the one start 1, T spans nothing, and the fixed
    space F_3 comes from the null space of Φ − 1."""
    monkeypatch.setattr(modp, "_scalars", lambda width, count, p: np.eye(width, 1, dtype=np.int64))
    phi = _frobenius_stack(3, 3, 1)
    basis, certified = modp.fixed_space(phi, 3, 1, 1, 3)
    assert certified.all() and basis.tolist() == [[[1, 0, 0]]]


def test_fixed_space_flags_an_uncertified_map():
    """Frobenius of F_81 has order 4, not 2: Φ² ≠ 1 on the starts, so the item is not certified,
    next to a certified one."""
    phi = np.concatenate([_frobenius_stack(3, 4, 1), _frobenius_stack(3, 4, 2)])
    basis, certified = modp.fixed_space(phi, 2, 2, 1, 3)
    assert certified.tolist() == [False, True]
    assert np.array_equal(basis[1], modp.kernel_basis((phi[1] - np.eye(4, dtype=np.int64)) % 3, 3))


def test_fixed_space_refuses_a_certified_map_without_the_dimension(monkeypatch):
    """The identity has order 1 and a 2-dimensional fixed space.  Asked for 1 dimension, T on
    the start e_0 + e_1 gives a fixed line; on e_0 and e_1 it gives the plane, which sends the
    item to the null space of Φ − 1, of the wrong dimension: that raises."""
    start = np.ones((2, 1), dtype=np.int64)
    monkeypatch.setattr(modp, "_scalars", lambda width, count, p: start)
    basis, certified = modp.fixed_space(np.eye(2, dtype=np.int64)[None], 1, 1, 1, 5)
    assert certified.all() and basis.tolist() == [[[1, 1]]]
    start = np.eye(2, dtype=np.int64)
    with pytest.raises(InvariantBroken, match="dimension 2, not 1"):
        modp.fixed_space(np.eye(2, dtype=np.int64)[None], 1, 1, 1, 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fixed_space_basis_is_the_echelon_form_from_the_highest_column(p):
    """For involutions Φ = P·diag(1, …, 1, −1, …, −1)·P⁻¹, the fixed space is spanned by
    P's first rank columns; fixed_space returns its reduced echelon form taken from the
    highest column (rref of the columns reversed, read back), which is kernel_basis(Φ − 1)."""
    rng = np.random.default_rng(p)
    for size, rank in [(4, 1), (6, 3), (6, 5), (9, 4)]:
        mats = rng.integers(0, p, size=(60, size, size))
        mats = mats[modp.det(mats, p) != 0][:20]
        sign = np.diag([1] * rank + [p - 1] * (size - rank))
        phi = mats @ sign @ modp.inverse(mats, p)[0] % p
        basis, certified = modp.fixed_space(phi, 2, rank, 1, p)
        assert certified.all()
        for k, mat in enumerate(mats):
            form, mask = modp.rref(mat[:, :rank].T[:, ::-1], p)
            assert mask.sum() == rank
            assert np.array_equal(basis[k], form[::-1, ::-1])
        assert np.array_equal(basis, modp.kernel_basis((phi - np.eye(size, dtype=np.int64)) % p, p))


@pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
def test_wide_stack_runs_out_of_rows_before_columns(p):
    """A stack (B, 3, 9) whose rows run out before its columns: matrices of rank 3 (one with
    pivots only in the last three columns), rank 2 and rank 0 each keep their own pivots."""
    rng = np.random.default_rng(3)
    stack = rng.integers(0, p, size=(12, 3, 9))
    stack[:4, 2] = 2 * stack[:4, 0] % p  # rank 2
    stack[4:6, :, :6] = 0  # pivots only among the last three columns
    stack[4:6, :, 6:] = np.triu(stack[4:6, :, 6:], 1) + np.eye(3, dtype=np.int64)
    stack[6] = 0
    stack[7:, :, :3] = np.tril(stack[7:, :, :3], -1) + np.eye(3, dtype=np.int64)  # rank 3
    form, mask = modp.rref(stack, p)
    for k, mat in enumerate(stack):
        want, pivots = _rref_ints(mat.tolist(), p)
        assert form[k].tolist() == want and np.flatnonzero(mask[k]).tolist() == pivots
    assert mask.sum(axis=1).tolist() == [2] * 4 + [3] * 2 + [0] + [3] * 5
    assert (np.flatnonzero(mask[4]) >= 6).all()
