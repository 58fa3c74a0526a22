"""Linear algebra and polynomial helpers over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p; row reduction, null
spaces, determinants and inverses work on stacks of them, batched over leading
axes, and all read one stacked Gauss–Jordan loop (`_eliminate`): its reduced
stack, its pivot columns and its pivots.  Polynomials are 1-d
coefficient arrays, low degree first.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import prod

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, InvariantBroken, Singular


def _pow_mod(a, e: int, p: int):
    """a^e mod p elementwise on an int64 array, for e >= 1."""
    a, out = np.asarray(a, dtype=np.int64) % p, 1
    for bit in bin(e)[2:]:  # square and multiply
        out = out * out % p * (a if bit == "1" else 1) % p
    return out


def inv_mod(a, p: int):
    """a^{p−2} mod p: the inverse of a nonzero residue, elementwise on an int64 array."""
    return _pow_mod(a, p - 2, p)


def legendre(a, p: int):
    """The Legendre symbol (a/p) ∈ {1, −1, 0}, elementwise on an int64 array."""
    r = _pow_mod(a, (p - 1) // 2, p)
    return np.where(r == p - 1, -1, r)


def _eliminate(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss–Jordan elimination of a stack m (B, rows, cols) reduced mod p, in place: the reduced
    stack, and the pivot column and the pivot of each step (B, min(rows, cols)), the pivot 0 once
    a matrix has none.  Step j takes, per matrix, the first column c with a nonzero entry in rows
    >= j, moves the first such row i to row j, scales it to 1 and clears column c; row j goes to
    row i negated, so that the product of the pivots is the determinant.  The loop stops when no
    matrix has a pivot left.  Rows >= j are zero left of column j, so a step touches columns >= j
    alone; entries stay below p there."""
    count, rows, cols = m.shape
    at, steps = np.arange(count), min(rows, cols)
    pcol, pval = np.zeros((count, steps), dtype=np.int64), np.zeros((count, steps), dtype=np.int64)
    for j in range(steps):
        below = m[:, j:]
        first = (below != 0).swapaxes(1, 2).reshape(count, cols * (rows - j)).argmax(axis=1)  # column-major
        c, r = np.divmod(first, rows - j)
        prow = below[at, r]
        piv = prow[at, c]  # 0 where there is no pivot: rows >= j are zero there
        if not np.count_nonzero(piv):
            break
        pcol[:, j], pval[:, j] = c, piv
        below[at, r] = -m[:, j]  # reduced below
        prow = prow[:, j:] * inv_mod(piv, p)[:, None] % p
        right = m[:, :, j:]
        right -= m[at, :, c][:, :, None] * prow[:, None]  # clears column c; row j is set below
        right -= right // p * p  # mod p: floor division by a constant is cheaper than %
        right[:, j] = prow
    return m, pcol, pval


def _stack(mat: np.ndarray, p: int) -> np.ndarray:
    """A copy of the matrices mat (…, rows, cols) as one stack (B, rows, cols), reduced mod p."""
    shape = np.shape(mat)
    return (np.asarray(mat, dtype=np.int64) % p).reshape(prod(shape[:-2]), *shape[-2:])  # rows may be 0


def det(mat: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of square matrices (…, k, k), batched over the leading axes: the
    product of the pivots, 0 where a step finds none."""
    shape = np.shape(mat)
    out = np.ones(prod(shape[:-2]), dtype=np.int64)
    for piv in _eliminate(_stack(mat, p), p)[2].T:
        out = out * piv % p
    return out.reshape(shape[:-2])


def inverse(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverses mod p of square matrices (…, k, k) and the mask (…) of the invertible
    ones, whose inverses alone are meaningful: the right half of [M | I] after
    elimination, where the pivots are the diagonal."""
    shape = np.shape(mat)
    k = shape[-1]
    m = _stack(mat, p)
    m, pcol, _ = _eliminate(np.concatenate([m, np.broadcast_to(np.eye(k, dtype=np.int64), m.shape)], axis=-1), p)
    return m[:, :, k:].reshape(shape), (pcol == np.arange(k)).all(axis=1).reshape(shape[:-2])  # [M | I] has rank k


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduced echelon forms of matrices (…, rows, cols), batched over the leading
    axes; returns (R, pivot-column mask of shape (…, cols))."""
    shape = np.shape(mat)
    m, pcol, pval = _eliminate(_stack(mat, p), p)
    mask = np.zeros((len(m), shape[-1] + 1), dtype=bool)
    mask[np.arange(len(m))[:, None], np.where(pval != 0, pcol, -1)] = True  # −1: the spare last column
    return m.reshape(shape), mask[:, :-1].reshape(*shape[:-2], shape[-1])


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Bases of the right null spaces of matrices (…, rows, cols), one vector per row:
    shape (…, nullity, cols).  Raises DimensionMismatch when the nullities differ."""
    m, mask = rref(mat, p)
    rank, cols = mask.sum(axis=-1), mask.shape[-1]
    nullity = sorted(set((cols - rank).ravel().tolist()))  # (np.unique would import numpy.ma)
    if len(nullity) > 1:
        raise DimensionMismatch(f"null spaces of dimensions {nullity} in one batch")
    # P holds row r of R at row pivot(r); column f of I − P, f free, is the kernel vector with 1 at f
    moved = np.zeros((*mask.shape, cols), dtype=np.int64)
    moved[mask] = m[np.arange(m.shape[-2]) < rank[..., None]]
    kernel = ((np.eye(cols, dtype=np.int64) - moved) % p).swapaxes(-1, -2)
    return kernel[~mask].reshape(*mask.shape[:-1], nullity[0], cols)


@lru_cache
def _scalars(width: int, count: int, p: int) -> np.ndarray:
    """Digit columns (width, count) of fixed pseudo-random scalars, each with a nonzero digit 0."""
    rng = random.Random(width)
    return np.array([[rng.randrange(r == 0, p) for _ in range(count)] for r in range(width)], dtype=np.int64)


def fixed_space(phi: np.ndarray, order: int, rank: int, blocks: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Galois descent for a stack of F_p-matrices phi (B, N, N) of maps Φ on `blocks` coordinates
    over a cyclic extension of degree `order`, each semilinear for a generator of its Galois group:
    where Φ^order = 1, T = Σ_{k<order} Φ^k maps onto the fixed space (Speiser), of dimension rank.
    Returns the bases (B, rank, N) that kernel_basis(phi − 1) returns, spanned by T on the starts
    c·e_i for a few fixed scalars c ≠ 0, or eliminated where those fall short; and the mask (B,)
    of the Φ certified by Φ^order = 1 on the starts, whose bases alone are meaningful."""
    width = phi.shape[-1] // blocks
    starts = np.kron(np.eye(blocks, dtype=np.int64), _scalars(width, min(width, rank // blocks + 2), p))
    x = start = np.broadcast_to(starts, (len(phi), *starts.shape))
    total = np.zeros_like(x)
    for _ in range(order):  # one stacked product per power of Φ
        total += x
        x = phi @ x % p
    form, mask = rref(total.swapaxes(1, 2)[:, :, ::-1], p)  # echelon from the highest column
    basis, full = form[:, :rank, ::-1][:, ::-1], mask.sum(axis=1) == rank
    full &= (phi @ basis.swapaxes(1, 2) % p == basis.swapaxes(1, 2)).all(axis=(1, 2))  # Φ(v) = v
    certified = (x == start).all(axis=(1, 2))
    if (redo := certified & ~full).any():
        kernel = kernel_basis((phi[redo] - np.eye(phi.shape[-1], dtype=np.int64)) % p, p)
        if kernel.shape[-2] != rank:
            raise InvariantBroken(f"a certified map fixes a space of dimension {kernel.shape[-2]}, not {rank}")
        basis[redo] = kernel
    return basis, certified


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    m = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64).reshape(-1, 1) % p
    aug, mask = rref(np.hstack([m, b]), p)
    cols = m.shape[1]
    if mask[cols]:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[mask[:cols]] = aug[: mask.sum(), cols]
    return x


def left_inverse(mat: np.ndarray, p: int) -> np.ndarray:
    """Left inverses of full-column-rank matrices (…, rows, cols), rows >= cols."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape[-2:]
    eye = np.broadcast_to(np.eye(rows, dtype=np.int64), (*m.shape[:-2], rows, rows))
    aug, mask = rref(np.concatenate([m, eye], axis=-1), p)
    if not mask[..., :cols].all():
        raise Singular("matrix does not have full column rank")
    return aug[..., :cols, cols:]


def mat_pow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    n = mat.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = np.array(mat, dtype=np.int64) % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


def poly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:1] * 0
    return a[: int(nz[-1]) + 1]


def poly_divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    a = poly_trim(np.array(a, dtype=np.int64) % p)
    b = poly_trim(np.array(b, dtype=np.int64) % p)
    if len(b) == 1 and b[0] == 0:
        raise DivisionByZero("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return np.zeros(1, dtype=np.int64), a
    inv_lead = inv_mod(int(b[db]), p)
    rem = a.copy()
    quo = np.zeros(da - db + 1, dtype=np.int64)
    for k in range(da - db, -1, -1):
        coef = (rem[db + k] * inv_lead) % p
        quo[k] = coef
        if coef:
            rem[k : k + db + 1] = (rem[k : k + db + 1] - coef * b) % p
    return quo, poly_trim(rem)


def poly_xgcd_inverse(a: np.ndarray, mod: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a modulo mod (both coefficient arrays), via extended Euclid."""
    r0, r1 = poly_trim(np.array(mod, dtype=np.int64) % p), poly_trim(np.array(a, dtype=np.int64) % p)
    s0, s1 = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    while not (len(r1) == 1 and r1[0] == 0):
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s_new = poly_trim((np.pad(s0, (0, max(0, len(q) + len(s1) - 1 - len(s0)))) -
                           np.pad(np.convolve(q, s1), (0, max(0, len(s0) - (len(q) + len(s1) - 1))))) % p)
        s0, s1 = s1, s_new
    if len(r0) != 1 or r0[0] == 0:
        raise DivisionByZero("element not invertible")
    return (s0 * inv_mod(int(r0[0]), p)) % p
