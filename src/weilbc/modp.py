"""Linear algebra and polynomial helpers over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p; polynomials are
1-d coefficient arrays, low degree first.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero, Singular


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form; returns (R, pivot column list)."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
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
        m[r] = (m[r] * inv_mod(m[r, c], p)) % p
        # clear column c outside row r; columns left of c are zero in row r
        f = m[:, c].copy()
        f[r] = 0
        m[:, c:] = (m[:, c:] - np.outer(f, m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space, one vector per row."""
    m, pivots = rref(mat, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-m[r, fc]) % p
    return basis


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    m = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64).reshape(-1, 1) % p
    aug, pivots = rref(np.hstack([m, b]), p)
    cols = m.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = aug[r, cols]
    return x


def left_inverse(mat: np.ndarray, p: int) -> np.ndarray:
    """Left inverse of a full-column-rank matrix (rows >= cols)."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    aug, pivots = rref(np.hstack([m, np.eye(rows, dtype=np.int64)]), p)
    if len(pivots) < cols or pivots[:cols] != list(range(cols)):
        raise Singular("matrix does not have full column rank")
    return aug[:cols, cols:]


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


def poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.convolve(a.astype(np.int64), b.astype(np.int64)) % p


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


def poly_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return poly_divmod(a, b, p)[1]


def poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a = poly_trim(np.array(a, dtype=np.int64) % p)
    b = poly_trim(np.array(b, dtype=np.int64) % p)
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, poly_mod(a, b, p)
    if a[-1] != 0 and a[-1] != 1:
        a = (a * inv_mod(int(a[-1]), p)) % p
    return a


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
