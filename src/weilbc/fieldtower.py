"""Towers of finite fields F_p ⊂ F_q ⊂ F_{q^d} ⊂ … inside one ambient field.

Every level lives in a single ambient field F_p[x]/(modulus), so embeddings
between levels are identities.  Elements are represented as

* plain ints (the canonical enumeration index) when the ambient field is
  small enough to tabulate multiplication, or
* tuples of F_p digits, low degree first, for large ambient fields.

The canonical enumeration orders elements by coefficient vector, low-degree
digit varying fastest, so the prime field occupies indices 0..p-1.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from . import modp
from .cyclotomic import CycNum
from .errors import (
    AmbientCapExceeded,
    EvenCharacteristic,
    InvariantBroken,
    LevelMismatch,
    NotPrime,
    ZeroArgument,
)

TABLE_CAP = 100  # tabulate add/mul when the ambient field has at most this many elements
ENUM_CAP = 1_000_000  # largest field level or group order to enumerate


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _frobenius_matrix(modulus: np.ndarray, p: int) -> np.ndarray:
    """Matrix of g ↦ g^p mod modulus on coefficient columns."""
    deg = len(modulus) - 1
    if deg == 1:
        return np.ones((1, 1), dtype=np.int64)
    xp = np.zeros(p + 1, dtype=np.int64)
    xp[p] = 1
    xp = modp.poly_mod(xp, modulus, p)
    cols = []
    cur = np.ones(1, dtype=np.int64)
    for _ in range(deg):
        col = np.zeros(deg, dtype=np.int64)
        col[: len(cur)] = cur
        cols.append(col)
        cur = modp.poly_mod(modp.poly_mul(cur, xp, p), modulus, p)
    return np.array(cols, dtype=np.int64).T % p


def _is_irreducible(poly: np.ndarray, p: int) -> bool:
    """Rabin's test: x^{p^deg} ≡ x and gcd(x^{p^{deg/r}} - x, poly) = 1."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    frob = _frobenius_matrix(poly, p)
    xvec = np.zeros(deg, dtype=np.int64)
    xvec[1] = 1
    top = modp.mat_pow(frob, deg, p) @ xvec % p
    if not np.array_equal(top, xvec):
        return False
    r = 2
    dd = deg
    primes = []
    while dd > 1:
        if dd % r == 0:
            primes.append(r)
            while dd % r == 0:
                dd //= r
        r += 1
    for r in primes:
        img = modp.mat_pow(frob, deg // r, p) @ xvec % p
        diff = modp.poly_trim((img - xvec) % p)
        g = modp.poly_gcd(diff, poly, p)
        if len(g) != 1:
            return False
    return True


def find_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficient vectors (c_0, ..., c_{degree-1}) are compared low-degree
    coefficient first.
    """
    if degree == 1:
        return (0, 1)
    for c0 in range(1, p):
        for rest in range(p ** (degree - 1)):
            digits = [c0]
            for pos in range(degree - 1):
                digits.append(rest // p ** (degree - 2 - pos) % p)
            cand = np.array(digits + [1], dtype=np.int64)
            if _is_irreducible(cand, p):
                return tuple(int(c) for c in cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class _LevelData:
    __slots__ = ("d", "size", "basis", "elements", "psi_tables", "quad")

    def __init__(self, d: int, size: int):
        self.d = d
        self.size = size
        self.basis = None
        self.elements = None
        self.psi_tables: dict = {}
        self.quad: dict = {}


class Tower:
    """Immutable tower of fields F_{q^d}, d | m, inside F_{p^(base_degree*m)}."""

    def __init__(self, p: int, base_degree: int, m: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if base_degree < 1 or m < 1:
            raise ValueError("degrees must be positive")
        self.p = p
        self.base_degree = base_degree
        self.m = m
        self.ambient_degree = base_degree * m  # over F_p
        self.q = p**base_degree
        self.modulus = find_modulus(p, self.ambient_degree)
        self.size = p**self.ambient_degree
        self.tabulated = self.size <= TABLE_CAP
        A = self.ambient_degree
        self._A = A
        self._pmat = _frobenius_matrix(np.array(self.modulus, dtype=np.int64), p)
        # reduction rows: x^{A+j} mod modulus for j = 0..A-2
        red = []
        cur = np.array(self.modulus[:-1], dtype=np.int64) * (-1) % p  # x^A mod f
        for _ in range(max(A - 1, 0)):
            red.append(cur.copy())
            cur = np.roll(cur, 1)
            if cur[0]:
                top = cur[0]
                cur[0] = 0
                cur = (cur + top * red[0]) % p
        self._redmat = np.array(red, dtype=np.int64) if red else np.zeros((0, A), dtype=np.int64)
        # A×A windows of [I_A; _redmat], whose row r is the digit vector of x^r
        powers = np.vstack([np.eye(A, dtype=np.int64), self._redmat])
        self._windows = np.lib.stride_tricks.sliding_window_view(powers, (A, A))[:, 0]
        self._ppow = [p**k for k in range(A + 1)]
        self._frob_mats: dict[int, np.ndarray] = {}
        self._frob_perms: dict[int, list] = {}
        self._levels: dict[int, _LevelData] = {}
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self.half = self.from_int((p + 1) // 2)
        if self.tabulated:
            self._build_tables()
        for d in sorted(_divisors(m)):
            self.register_level(d)

    # -- representation ------------------------------------------------------

    def _build_tables(self):
        p, A, size = self.p, self._A, self.size
        dig = np.zeros((size, A), dtype=np.int64)
        idx = np.arange(size)
        for k in range(A):
            dig[:, k] = idx // self._ppow[k] % p
        self._digits = dig
        weights = np.array(self._ppow[:A], dtype=np.int64)
        add = ((dig[:, None, :] + dig[None, :, :]) % p) @ weights
        self._add_t = [list(map(int, row)) for row in add]
        conv = np.einsum("ia,jb->ijab", dig, dig)
        full = np.zeros((size, size, 2 * A - 1), dtype=np.int64)
        for a in range(A):
            for b in range(A):
                full[:, :, a + b] += conv[:, :, a, b]
        red = full[:, :, :A] % p
        if A > 1:
            red = (red + full[:, :, A:] @ self._redmat) % p
        mul = red @ weights
        self._mul_t = [list(map(int, row)) for row in mul]
        self._neg_t = [int(v) for v in ((-dig) % p) @ weights]
        self._inv_t = [0] * size
        for x in range(1, size):
            self._inv_t[x] = int(self.pow(x, size - 2))

    def _decode(self, x) -> np.ndarray:
        if self.tabulated:
            return self._digits[x]
        return np.array(x, dtype=np.int64)

    def _encode(self, vec: np.ndarray):
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if self.tabulated:
            return int(vec @ np.array(self._ppow[: self._A], dtype=np.int64))
        return tuple(int(v) for v in vec)

    def elem_key(self, x) -> int:
        """Canonical enumeration index of an element."""
        if self.tabulated:
            return x
        return sum(int(c) * self._ppow[k] for k, c in enumerate(x))

    def from_int(self, c: int):
        """The prime-field scalar c."""
        c %= self.p
        if self.tabulated:
            return c
        return tuple([c] + [0] * (self._A - 1))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.tabulated:
            return self._add_t[a][b]
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.tabulated:
            return self._neg_t[a]
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.tabulated:
            return self._mul_t[a][b]
        A = self._A
        full = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        if len(full) < 2 * A - 1:
            full = np.pad(full, (0, 2 * A - 1 - len(full)))
        red = full[:A] % self.p
        if A > 1:
            red = (red + full[A:] @ self._redmat) % self.p
        return tuple(int(v) for v in red)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        if self.tabulated:
            return self._inv_t[a]
        vec = modp.poly_xgcd_inverse(np.array(a, dtype=np.int64), np.array(self.modulus, dtype=np.int64), self.p)
        out = np.zeros(self._A, dtype=np.int64)
        out[: len(vec)] = vec
        return tuple(int(v) for v in out)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, x, j: int = 1):
        """x ↦ x^{q^j}; j may be negative."""
        e = (self.base_degree * j) % self._A
        if e == 0:
            return x
        if not self.tabulated:
            vec = self.frob_matrix(j) @ np.array(x, dtype=np.int64) % self.p
            return tuple(int(v) for v in vec)
        perm = self._frob_perms.get(e)
        if perm is None:
            img = self._digits @ self.frob_matrix(j).T % self.p
            perm = [int(v) for v in img @ np.array(self._ppow[: self._A], dtype=np.int64)]
            self._frob_perms[e] = perm
        return perm[x]

    # -- F_p-linear maps on ambient digit columns ---------------------------------

    def frob_matrix(self, j: int) -> np.ndarray:
        """Matrix of x ↦ x^{q^j}; j may be negative."""
        e = (self.base_degree * j) % self._A
        mat = self._frob_mats.get(e)
        if mat is None:
            mat = modp.mat_pow(self._pmat, e, self.p)
            self._frob_mats[e] = mat
        return mat

    def mul_matrix(self, y) -> np.ndarray:
        """Matrix of x ↦ y·x: column k is the digit vector of y·x^k."""
        return (self._decode(y) @ self._windows).T % self.p

    # -- levels ----------------------------------------------------------------

    def register_level(self, d: int) -> None:
        if d in self._levels:
            return
        if (self.base_degree * d) and self._A % (self.base_degree * d) != 0:
            raise LevelMismatch(f"level {d} does not fit in ambient degree {self._A}")
        self._levels[d] = _LevelData(d, self.q**d)

    def levels(self) -> list[int]:
        return sorted(self._levels)

    def _level(self, d: int) -> _LevelData:
        if d not in self._levels:
            self.register_level(d)
        return self._levels[d]

    def _level_basis(self, d: int) -> np.ndarray:
        lv = self._level(d)
        if lv.basis is None:
            mat = (self.frob_matrix(d) - np.eye(self._A, dtype=np.int64)) % self.p
            basis = modp.kernel_basis(mat, self.p)
            if basis.shape[0] != self.base_degree * d:
                raise InvariantBroken(f"fixed field of level {d} has the wrong dimension")
            lv.basis = basis
        return lv.basis

    def level_elements(self, d: int) -> list:
        """All elements of F_{q^d} in canonical enumeration order."""
        lv = self._level(d)
        if lv.elements is None:
            if lv.size > ENUM_CAP:
                raise LevelMismatch(f"level {d} too large to enumerate")
            if self.tabulated and lv.size == self.size:
                lv.elements = list(range(self.size))
            else:
                basis = self._level_basis(d)
                dim = basis.shape[0]
                combos = np.zeros((lv.size, self._A), dtype=np.int64)
                idx = np.arange(lv.size)
                for k in range(dim):
                    digit = idx // self.p**k % self.p
                    combos = (combos + digit[:, None] * basis[k][None, :]) % self.p
                elems = [self._encode(v) for v in combos]
                elems.sort(key=self.elem_key)
                lv.elements = elems
        return lv.elements

    def in_level(self, x, d: int) -> bool:
        return self.frobenius(x, d) == x

    # -- trace / norm / characters ---------------------------------------------

    def trace_to(self, x, d: int, from_level: int | None = None):
        from_level = self.m if from_level is None else from_level
        if from_level % d != 0:
            raise LevelMismatch(f"level {d} is not a subfield of level {from_level}")
        if not self.in_level(x, from_level):
            raise LevelMismatch("element does not lie at the stated level")
        out = self.zero
        for k in range(from_level // d):
            out = self.add(out, self.frobenius(x, d * k))
        return out

    def norm_to(self, x, d: int, from_level: int | None = None):
        from_level = self.m if from_level is None else from_level
        if from_level % d != 0:
            raise LevelMismatch(f"level {d} is not a subfield of level {from_level}")
        if not self.in_level(x, from_level):
            raise LevelMismatch("element does not lie at the stated level")
        out = self.one
        for k in range(from_level // d):
            out = self.mul(out, self.frobenius(x, d * k))
        return out

    def quad_char(self, x, d: int) -> int:
        """+1 on squares of F_{q^d}^×, -1 otherwise."""
        if x == self.zero:
            raise ZeroArgument("quad_char is undefined at 0")
        if not self.in_level(x, d):
            raise LevelMismatch("element does not lie at the stated level")
        lv = self._level(d)
        got = lv.quad.get(x)
        if got is None:
            val = self.pow(x, (self.q**d - 1) // 2)
            if val == self.one:
                got = 1
            elif val == self.neg(self.one):
                got = -1
            else:  # pragma: no cover
                raise AssertionError("quadratic character escaped ±1")
            lv.quad[x] = got
        return got

    def psi_exponent(self, x, d: int, scale=None) -> int:
        """Exponent e with ψ_d(x) = ζ_p^e, for ψ_d(x) = ζ_p^{Tr_{F_{q^d}/F_p}(scale·x)}."""
        if not self.in_level(x, d):
            raise LevelMismatch("element does not lie at the stated level")
        scale = self.one if scale is None else scale
        lv = self._level(d)
        table = lv.psi_tables.get(scale)
        if table is None:
            table = {}
            lv.psi_tables[scale] = table
        got = table.get(x)
        if got is None:
            y = self.mul(scale, x)
            vec = self._decode(y)
            acc = np.zeros(self._A, dtype=np.int64)
            mat = np.eye(self._A, dtype=np.int64)
            for _ in range(self.base_degree * d):
                acc = (acc + mat @ vec) % self.p
                mat = self._pmat @ mat % self.p
            if acc[1:].any():
                raise InvariantBroken("trace did not land in the prime field")
            got = int(acc[0])
            table[x] = got
        return got

    def psi(self, x, d: int, scale=None) -> CycNum:
        return CycNum.root_of_unity(self.p, self.psi_exponent(x, d, scale))

    def __repr__(self):
        return f"Tower(p={self.p}, q={self.q}, m={self.m}, ambient=p^{self.ambient_degree})"


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


_REGISTRY: dict[tuple[int, int, int], Tower] = {}


def build_tower(p: int, base_degree: int, m: int) -> Tower:
    """Deterministic tower with ambient degree base_degree*m; cached."""
    key = (p, base_degree, m)
    tw = _REGISTRY.get(key)
    if tw is None:
        tw = Tower(p, base_degree, m)
        _REGISTRY[key] = tw
    return tw


class Embedding:
    """Canonical embedding of a tower's ambient field into a larger one.

    The source generator is sent to the smallest root (canonical enumeration
    order) of the source modulus inside the destination field.
    """

    def __init__(self, src: Tower, dst: Tower):
        if src.p != dst.p:
            raise ValueError("characteristic mismatch")
        if dst.ambient_degree % src.ambient_degree != 0:
            raise ValueError("destination ambient degree must be a multiple of the source's")
        self.src = src
        self.dst = dst
        p, A1, A2 = src.p, src.ambient_degree, dst.ambient_degree
        # roots of src.modulus live in the subfield of size p^{A1}
        sub_elems = dst.level_elements(A1 // dst.base_degree) if A1 % dst.base_degree == 0 else None
        if sub_elems is None:
            raise ValueError("source field does not sit at a level of the destination tower")
        best = None
        f = src.modulus
        for s in sub_elems:
            acc = dst.from_int(f[-1])
            for c in reversed(f[:-1]):
                acc = dst.add(dst.mul(acc, s), dst.from_int(c))
            if acc == dst.zero:
                best = s
                break  # elements come in canonical order: first root is the smallest
        if best is None:
            raise ValueError("source modulus has no root in destination (internal error)")
        self.root = best
        cols = []
        cur = dst.one
        for _ in range(A1):
            cols.append(dst._decode(cur))
            cur = dst.mul(cur, best)
        self._mat = np.array(cols, dtype=np.int64).T % p  # (A2, A1)
        self._left_inv = modp.left_inverse(self._mat, p)

    def embed(self, x):
        vec = self.src._decode(x)
        out = self._mat @ vec % self.src.p
        return self.dst._encode(out)

    def pull_back(self, y):
        vec = self.dst._decode(y)
        coef = self._left_inv @ vec % self.src.p
        if not np.array_equal(self._mat @ coef % self.src.p, vec % self.src.p):
            raise ValueError("element is not in the embedded subfield")
        return self.src._encode(coef)


_EMBED_CACHE: dict[tuple[int, int, int, int, int], Embedding] = {}


def get_embedding(src: Tower, dst: Tower) -> Embedding:
    key = (src.p, src.base_degree, src.m, dst.base_degree, dst.m)
    emb = _EMBED_CACHE.get(key)
    if emb is None:
        emb = Embedding(src, dst)
        _EMBED_CACHE[key] = emb
    return emb


def enlarge_tower(tower: Tower, new_m: int, ambient_cap: int | None = None) -> tuple[Tower, Embedding]:
    """Tower with the same (p, base_degree) whose ambient contains level new_m."""
    if new_m % tower.m != 0:
        new_m = lcm(new_m, tower.m)
    if ambient_cap is not None and new_m > ambient_cap:
        raise AmbientCapExceeded(
            f"required ambient level {new_m} exceeds the configured cap {ambient_cap}"
        )
    big = build_tower(tower.p, tower.base_degree, new_m)
    return big, get_embedding(tower, big)

