"""Towers of finite fields F_p ⊂ F_q ⊂ F_{q^d} ⊂ … inside one ambient field.

Every level lives in a single ambient field F_p[x]/(modulus), so embeddings
between levels are identities.  An element is the plain int Σ c_k·p^k of its
F_p digits c_k, low degree first: its canonical enumeration index, so the
prime field occupies 0..p-1 and canonical order is int order.  Ambient fields
of at most TABLE_CAP elements tabulate add, mul, neg and inv; larger ones
compute on digits.  Both go through one codec (`_decode`, `_encode` and the
array forms `digit_array`, `from_digit_array`) on the place values p^k, held
in the smallest unsigned dtype that holds an element, or as Python ints past
2^63, and through one polynomial product, `_product`.
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain
from math import lcm

import numpy as np

from . import modp
from .cyclotomic import CycNum
from .errors import (
    AmbientCapExceeded,
    ConfigInvalid,
    DivisionByZero,
    EvenCharacteristic,
    InvariantBroken,
    LevelMismatch,
    NotPrime,
    ZeroArgument,
)

TABLE_CAP = 100  # tabulate add/mul when the ambient field has at most this many elements
ENUM_CAP = 1_000_000  # largest field level or group order to enumerate
_ROOT_SCAN_P = 1024  # find_modulus scans F_p for roots up to this p; past it the scan outcosts Berlekamp's test


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
    """Matrix of g ↦ g^p mod a monic modulus on coefficient columns: column j is x^{pj}, the
    j-th Krylov column of Y = C^p, the p-th power of the companion matrix C (x times)."""
    deg = len(modulus) - 1
    comp = np.eye(deg, k=-1, dtype=np.int64)
    comp[:, -1] = -np.asarray(modulus[:-1], dtype=np.int64) % p
    cols, power = np.eye(deg, 1, dtype=np.int64), modp.mat_pow(comp, p, p)
    while cols.shape[1] < deg:  # [K | Y^k·K] holds the columns Y^j·1 for j < 2k
        cols, power = np.hstack([cols, power @ cols % p]), power @ power % p
    return cols[:, :deg]


def _is_irreducible(poly: np.ndarray, p: int) -> bool:
    """Berlekamp's test for degree >= 2: x^{p^deg} ≡ x makes poly squarefree with factors
    of degrees dividing deg, and then nullity(Q − 1) for the Frobenius matrix Q counts them."""
    deg = len(poly) - 1
    frob, x = _frobenius_matrix(poly, p), np.eye(deg, dtype=np.int64)[1]
    image = x
    for _ in range(deg):  # x^{p^deg}, one matrix-vector product per power of p
        image = frob @ image % p
    return np.array_equal(image, x) and bool(modp.rref(frob - np.eye(deg, dtype=np.int64), p)[1].sum() == deg - 1)


def find_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficient vectors (c_0, ..., c_{degree-1}) are compared low-degree
    coefficient first.
    """
    if degree == 1:
        return (0, 1)
    values = None  # for small p, row k holds x^k mod p at every x of F_p: a root prefilter
    if p <= _ROOT_SCAN_P:
        values = np.ones((degree + 1, p), dtype=np.int64)
        for k in range(degree):
            values[k + 1] = values[k] * np.arange(p) % p
    for c0 in range(1, p):
        for rest in range(p ** (degree - 1)):
            high = [rest // p ** (degree - 2 - pos) % p for pos in range(degree - 1)]
            cand = np.array([c0, *high, 1], dtype=np.int64)
            if values is not None and not (cand @ values % p).all():
                continue  # a root in F_p: reducible
            if _is_irreducible(cand, p):
                return tuple(int(c) for c in cand)
    raise InvariantBroken("no irreducible polynomial found")  # unreachable


class _LevelData:
    __slots__ = ("d", "size", "basis", "pivots", "elements", "psi_tables", "quad")

    def __init__(self, d: int, size: int):
        self.d = d
        self.size = size
        self.basis = None
        self.pivots = None
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
            raise ConfigInvalid("degrees must be positive")
        if base_degree * m * (p - 1) ** 2 >= 2**63:  # the bound of every digit product in int64
            raise ConfigInvalid(f"digit products of degree {base_degree * m} mod {p} could overflow int64")
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
        self._place = np.array([p**k for k in range(A)], dtype=np.min_scalar_type(self.size - 1)
                               if self.size <= 2**63 else object)
        self._frob_mats: dict[int, np.ndarray] = {}
        self._frob_perms: dict[int, list] = {}
        self._levels: dict[int, _LevelData] = {}
        self.zero, self.one, self.half = 0, 1, (p + 1) // 2
        if self.tabulated:
            self._build_tables()
        for d in sorted(_divisors(m)):
            self.register_level(d)

    # -- representation ------------------------------------------------------

    def _build_tables(self):
        dig = self._decode(np.arange(self.size))
        self._add_t = [list(self.from_digit_array(row)) for row in dig[:, None] + dig[None]]
        self._mul_t = [list(self.from_digit_array(row)) for row in self._product(dig[:, None], dig[None])]
        self._neg_t = list(self.from_digit_array(-dig))
        self._inv_t = [0] + [self.pow(x, self.size - 2) for x in range(1, self.size)]

    def _product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Digits of x·y for digit arrays x, y (…, A), broadcast over the leading axes:
        the convolution, each partial sum reduced mod p, folded by the rows of _redmat."""
        A, p = self._A, self.p
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        full = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1] + (2 * A - 1,), dtype=np.int64)
        for k in range(A):
            full[..., k : k + A] += x[..., k, None] * y
        full %= p
        return (full[..., :A] + full[..., A:] @ self._redmat) % p

    def _decode(self, x) -> np.ndarray:
        """int64 digits (…, A) of an element or an array of elements."""
        return (np.asarray(x, dtype=self._place.dtype)[..., None] // self._place % self.p).astype(np.int64)

    def _encode(self, vec: np.ndarray) -> int:
        return self.from_digit_array(np.reshape(vec, (1, -1)))[0]

    def digit_array(self, elems) -> np.ndarray:
        """Digit rows of an iterable of elements, shape (count, ambient degree),
        in the smallest unsigned dtype that holds a digit.  Raises LevelMismatch
        on a non-integer or an int outside 0..size−1: no element of the ambient field."""
        try:
            values = np.fromiter(map(operator.index, elems), dtype=self._place.dtype)
        except (OverflowError, TypeError) as exc:
            raise LevelMismatch(f"not an element of the field of {self.size} elements: {exc}") from None
        if len(values) and (values.max() >= self.size or values.min() < 0):
            raise LevelMismatch(f"not an element of the field of {self.size} elements")
        digits = values[:, None] // self._place
        digits %= self.p
        return digits.astype(np.min_scalar_type(self.p - 1), copy=False)

    def from_digit_array(self, digits: np.ndarray) -> tuple:
        """Elements of digit rows, the inverse of digit_array."""
        return tuple(((np.asarray(digits) % self.p).astype(self._place.dtype) @ self._place).tolist())

    def digit_stack(self, mats, size: int) -> np.ndarray:
        """int64 digits (E, size, size, A) of a sequence of size×size matrices (flat tuples)."""
        flat = self.digit_array(chain.from_iterable(mats)).astype(np.int64)
        return flat.reshape(-1, size, size, self._A)

    def from_digit_stack(self, digits: np.ndarray) -> list:
        """The flat-tuple matrices of a digit stack (E, r, c, A), the inverse of digit_stack."""
        flat = self.from_digit_array(digits.reshape(-1, self._A))
        return list(zip(*[iter(flat)] * (digits.shape[1] * digits.shape[2])))  # consecutive runs of r·c entries

    def from_int(self, c: int) -> int:
        """The prime-field scalar c."""
        return c % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.tabulated:
            return self._add_t[a][b]
        return self._encode(self._decode(a) + self._decode(b))

    def neg(self, a):
        if self.tabulated:
            return self._neg_t[a]
        return self._encode(-self._decode(a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.tabulated:
            return self._mul_t[a][b]
        return self._encode(self._product(self._decode(a), self._decode(b)))

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero("field inverse of zero")
        if self.tabulated:
            return self._inv_t[a]
        vec = modp.poly_xgcd_inverse(self._decode(a), np.array(self.modulus, dtype=np.int64), self.p)
        return self._encode(np.pad(vec, (0, self._A - len(vec))))

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
            return self._encode(self.frob_matrix(j) @ self._decode(x))
        perm = self._frob_perms.get(e)
        if perm is None:
            images = self._decode(np.arange(self.size)) @ self.frob_matrix(j).T
            perm = self._frob_perms[e] = list(self.from_digit_array(images))
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
        return self.block_matrix(np.reshape(self._decode(y), (1, 1, -1)))

    def block_matrix(self, x: np.ndarray) -> np.ndarray:
        """F_p-matrix of v ↦ x·v for digit matrices x of shape (…, s, t, A), batched
        over the leading axes: shape (…, s·A, t·A) on stacked digit columns.  Raises
        InvariantBroken, before any product, when a product with reduced digit columns
        (t·A terms of at most (p−1)²) could leave int64."""
        A, (s, t) = self._A, x.shape[-3:-1]
        if t * A * (self.p - 1) ** 2 > np.iinfo(np.int64).max:
            raise InvariantBroken(f"{t * A} products of digits mod {self.p} could overflow int64")
        x = np.asarray(x, dtype=np.int64)
        # [..., i, k, r, c]: digit c of x_ik·x^r, from the windows of [I_A; _redmat]
        blocks = x @ self._windows.reshape(A, A * A)
        blocks -= blocks // self.p * self.p  # mod p: floor division by a constant is cheaper than %
        blocks = blocks.reshape(*x.shape[:-1], A, A)
        return blocks.swapaxes(-1, -2).swapaxes(-2, -3).reshape(*x.shape[:-3], s * A, t * A)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of digit matrices a (…, s, t, A) and b (…, t, u, A), batched
        over the leading axes by numpy broadcasting; digits reduced mod p."""
        A, (s, t), u = self._A, a.shape[-3:-1], b.shape[-2]
        cols = np.swapaxes(np.asarray(b, dtype=np.int64), -2, -1).reshape(*b.shape[:-3], t * A, u)
        out = self.block_matrix(a) @ cols % self.p
        return np.swapaxes(out.reshape(*out.shape[:-2], s, A, u), -2, -1)

    def matinv(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Digits of x⁻¹ for digit matrices x (…, s, s, A), batched over the leading axes, and
        the mask (…) of the invertible x, whose inverses alone are meaningful: the inverse of
        x's F_p block matrix is the block matrix of x⁻¹, whose block (i, k) holds the digits
        of (x⁻¹)_ik in column 0."""
        s, A = x.shape[-2], self._A
        inv, ok = modp.inverse(self.block_matrix(x), self.p)
        return np.moveaxis(inv.reshape(*x.shape[:-3], s, A, s, A)[..., 0], -2, -1), ok

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
        """Reduced echelon F_p-basis of F_{q^d}, one digit row per vector: row k
        has its highest nonzero digit, 1, at pivot k, where every other row is 0,
        and the pivots ascend."""
        lv = self._level(d)
        if lv.basis is None:  # the trace onto F_{q^d}, the sum of the powers of Frob^d, spans it
            basis, certified = modp.fixed_space(self.frob_matrix(d)[None], self.m // d, self.base_degree * d, 1, self.p)
            if not certified[0]:
                raise InvariantBroken(f"Frobenius of level {d} does not have order {self.m // d}")
            lv.basis = basis[0]
            lv.pivots = [int(np.flatnonzero(row)[-1]) for row in lv.basis]
        return lv.basis

    def level_pivots(self, d: int) -> list[int]:
        """Digit positions of the level's coordinates: the digit of x at pivot k
        is its coefficient on row k of the level basis."""
        self._level_basis(d)
        return self._level(d).pivots

    def level_elements(self, d: int) -> list:
        """All elements of F_{q^d} in canonical enumeration order.

        Element r is Σ_k digit_k(r)·basis_k for the base-p digits of r. The
        highest nonzero digit of the difference of two level elements is a
        pivot, where each carries its coefficient, so this is int order.
        """
        lv = self._level(d)
        if lv.elements is None:
            if lv.size > ENUM_CAP:
                raise LevelMismatch(f"level {d} too large to enumerate")
            basis = self._level_basis(d)
            digits = np.arange(lv.size)[:, None] // self.p ** np.arange(len(basis)) % self.p
            lv.elements = list(self.from_digit_array(digits @ basis))
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
                raise InvariantBroken("quadratic character escaped ±1")
            lv.quad[x] = got
        return got

    def psi_exponent(self, x, d: int, scale=None) -> int:
        """Exponent e with ψ_d(x) = ζ_p^e, for ψ_d(x) = ζ_p^{Tr_{F_{q^d}/F_p}(scale·x)}."""
        scale = self.one if scale is None else scale
        lv = self._level(d)
        table = lv.psi_tables.get(scale)
        if table is None:
            table = {}
            lv.psi_tables[scale] = table
        got = table.get(x)
        if got is None:
            if not self.in_level(x, d):  # the table holds level elements only
                raise LevelMismatch("element does not lie at the stated level")
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
            raise ConfigInvalid("characteristic mismatch")
        if dst.ambient_degree % src.ambient_degree != 0:
            raise ConfigInvalid("destination ambient degree must be a multiple of the source's")
        self.src = src
        self.dst = dst
        p, A1 = src.p, src.ambient_degree
        # roots of src.modulus live in the subfield of size p^{A1}
        sub_elems = dst.level_elements(A1 // dst.base_degree) if A1 % dst.base_degree == 0 else None
        if sub_elems is None:
            raise ConfigInvalid("source field does not sit at a level of the destination tower")
        digits = dst.digit_array(sub_elems).astype(np.int64)
        values = np.zeros_like(digits)
        for c in reversed(src.modulus):  # Horner on the whole subfield at once
            values = dst._product(values, digits)
            values[:, 0] = (values[:, 0] + c) % p
        roots = np.flatnonzero(~values.any(axis=1))
        if not roots.size:
            raise InvariantBroken("source modulus has no root in destination")
        self.root = best = sub_elems[roots[0]]  # elements come in canonical order: the first root is the smallest
        powers = accumulate([best] * (A1 - 1), dst.mul, initial=dst.one)  # 1, root, root², …
        self._mat = dst._decode(list(powers)).T  # (A2, A1)
        self._left_inv = modp.left_inverse(self._mat, p)

    def embed_rows(self, x: np.ndarray) -> np.ndarray:
        """Destination digits (…, A2) of source digit rows (…, A1)."""
        return np.asarray(x, dtype=np.int64) @ self._mat.T % self.src.p

    def pull_back_rows(self, y: np.ndarray) -> np.ndarray:
        """Source digits (…, A1) of destination digit rows (…, A2) in the embedded subfield."""
        y = np.asarray(y, dtype=np.int64) % self.src.p
        coef = y @ self._left_inv.T % self.src.p
        if not np.array_equal(self.embed_rows(coef), y):
            raise LevelMismatch("element is not in the embedded subfield")
        return coef

    def embed(self, x):
        return self.dst._encode(self.embed_rows(self.src._decode(x)))

    def pull_back(self, y):
        return self.src._encode(self.pull_back_rows(self.dst._decode(y)))


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

