"""Symplectic, similitude, Heisenberg and Galois-twisted groups over tower levels.

Group elements are hashable tuples:

* matrices: flat row-major tuples of field elements, acting on column vectors
  with X-coordinates first (basis e_1..e_n, f_1..f_n);
* Heisenberg elements: (v, t) with v a 2n-tuple and t a scalar;
* Sp·H products: (s, (v, t)) meaning the product s·(v,t);
* twisted elements: (i, g) for (σ^i, g) = (1,g)(σ^i,1).

Field elements are ints, so the canonical order of elements is tuple order.
The Siegel generators u(b), levi(a) and weyl(B) of Sp have one builder on digit
stacks, `siegel_matrices`: SympGroup's generators decode it, and the Siegel
word certificate in `schrodinger` multiplies its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import accumulate, chain, product

import numpy as np

from . import modp
from .errors import ConfigInvalid, DimensionMismatch, GroupTooLarge, InvariantBroken, LevelMismatch, Singular
from .fieldtower import ENUM_CAP, Tower


# -- matrix helpers over a tower -------------------------------------------------


def mat_identity(tower: Tower, size: int) -> tuple:
    z, o = tower.zero, tower.one
    return tuple(o if i == j else z for i in range(size) for j in range(size))


def mat_mul(tower: Tower, a: tuple, b: tuple, size: int) -> tuple:
    mul, add, zero = tower.mul, tower.add, tower.zero
    out = []
    for i in range(size):
        row = i * size
        for j in range(size):
            acc = zero
            for k in range(size):
                acc = add(acc, mul(a[row + k], b[k * size + j]))
            out.append(acc)
    return tuple(out)


def mat_vec(tower: Tower, a: tuple, v: tuple, size: int) -> tuple:
    mul, add, zero = tower.mul, tower.add, tower.zero
    out = []
    for i in range(size):
        acc = zero
        row = i * size
        for k in range(size):
            acc = add(acc, mul(a[row + k], v[k]))
        out.append(acc)
    return tuple(out)


def mat_frob(tower: Tower, a: tuple, j: int) -> tuple:
    return tuple(tower.frobenius(x, j) for x in a)


def mat_det(tower: Tower, a: tuple, size: int):
    """The determinant of a 1×1 or 2×2 tuple matrix; larger sizes raise DimensionMismatch
    (stacks of digit matrices go through `modp.det` on their F_p block matrices)."""
    if size == 1:
        return a[0]
    if size == 2:
        return tower.sub(tower.mul(a[0], a[3]), tower.mul(a[1], a[2]))
    raise DimensionMismatch(f"mat_det takes sizes 1 and 2, not {size}")


# -- symplectic structure ---------------------------------------------------------


def form_times(x: np.ndarray, axis: int, p: int) -> np.ndarray:
    """J·x mod p along an axis of length 2n: (x_{n..2n-1}, −x_{0..n-1}), for
    J = [[0, 1], [−1, 0]], the Gram matrix of ⟨e_i, f_j⟩ = δ_ij.  The one
    definition of the form: J itself is J·1."""
    x = np.swapaxes(x, 0, axis)
    n = len(x) // 2
    return np.swapaxes(np.concatenate([x[n:], -x[:n] % p]), 0, axis)


def form_pairing(tower: Tower, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """⟨u_a, w_b⟩ = u_a·J·w_bᵀ for digit rows u (…, k, 2n, A) and w (…, l, 2n, A): shape (…, k, l, A)."""
    return tower.matmul(u, np.swapaxes(form_times(w, -2, tower.p), -3, -2))


def multipliers(tower: Tower, g: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers λ, digits (…, A), of digit matrices g (…, 2n, 2n, A) with
    gᵀ·J·g = λ·J, and the mask (…) of the g that satisfy it with λ ≠ 0 and whose
    entries lie at the level (are fixed by σ^level)."""
    p, n = tower.p, g.shape[-2] // 2
    cols = np.swapaxes(g, -3, -2)
    gram = form_pairing(tower, cols, cols)  # (gᵀJg)_ij = ⟨g_i, g_j⟩ for the columns g_i
    lam = gram[..., 0, n, :]
    J = form_times(np.eye(2 * n, dtype=np.int64), 0, p)
    ok = (gram == J[:, :, None] * lam[..., None, None, :] % p).all(axis=(-3, -2, -1)) & lam.any(axis=-1)
    if level != tower.m:
        ok &= (g @ tower.frob_matrix(level).T % p == g).all(axis=(-3, -2, -1))
    return lam, ok


def is_symplectic(tower: Tower, g: np.ndarray, level: int) -> np.ndarray:
    """The mask (…) of the digit matrices g (…, 2n, 2n, A) in Sp_2n at the level: multiplier 1."""
    lam, ok = multipliers(tower, g, level)
    return ok & (lam[..., 0] == 1) & ~lam[..., 1:].any(axis=-1)


def form(tower: Tower, u: tuple, v: tuple):
    """⟨u, v⟩ = Σ u_i v_{n+i} − u_{n+i} v_i for 2n-tuples u, v of field elements."""
    n, acc = len(u) // 2, tower.zero
    for i in range(n):
        acc = tower.sub(tower.add(acc, tower.mul(u[i], v[n + i])), tower.mul(u[n + i], v[i]))
    return acc


def siegel_matrices(tower: Tower, tags: tuple, blocks: np.ndarray) -> np.ndarray:
    """The digit matrices (E, factors, 2n, 2n, A) of the Siegel generators named by tags,
    from their parameter blocks (E, factors, n, n, A): u(b) = [[1, b], [0, 1]], levi(a) =
    diag(a, (aᵀ)⁻¹) and weyl(B) = [[0, B], [−(Bᵀ)⁻¹, 0]].  One inverse serves every Levi and
    Weyl block of the stack; a singular one raises Singular."""
    E, F, n, _, A = blocks.shape
    unip, levi, weyl = (np.array([tag == name for tag in tags], dtype=bool) for name in ("unip", "levi", "weyl"))
    out = np.zeros((E, F, 2 * n, 2 * n, A), dtype=np.int64)
    out[:, unip, :, :, 0] = np.eye(2 * n, dtype=np.int64)
    out[:, ~levi, :n, n:] = blocks[:, ~levi]
    out[:, levi, :n, :n] = blocks[:, levi]
    if not unip.all():
        inv, ok = tower.matinv(blocks[:, ~unip].swapaxes(2, 3))
        if not ok.all():
            raise Singular("singular Levi or Weyl block")
        out[:, levi, n:, n:] = inv[:, levi[~unip]]
        out[:, weyl, n:, :n] = -inv[:, weyl[~unip]] % tower.p
    return out


def membership(tower: Tower, g: tuple, n: int, level: int):
    """Classify a 2n×2n matrix: ('sp', None), ('gsp', λ) or ('neither', None), by `multipliers`."""
    size = 2 * n
    if len(g) != size * size:
        raise DimensionMismatch(f"expected a {size}x{size} matrix")
    lam, ok = multipliers(tower, tower.digit_stack([g], size), level)
    if not ok[0]:
        return ("neither", None)
    (lam,) = tower.from_digit_array(lam)
    return ("sp", None) if lam == tower.one else ("gsp", lam)


# -- Sp action on the Heisenberg group ---------------------------------------------


def sp_act_heis(tower: Tower, s: tuple, h: tuple, n: int) -> tuple:
    v, t = h
    return (mat_vec(tower, s, v, 2 * n), t)


# -- group specs -------------------------------------------------------------------


class GroupSpec:
    """Common interface: elements are hashable, operations are pure.

    A group memoizes its element tuple and its partitions (by twist, 0 for
    the ordinary classes); SympGroup also its norms and its generators.
    """

    def __init__(self, tower: Tower, level: int, cap: int = ENUM_CAP):
        self.tower = tower
        self.level = level
        self.cap = cap
        self._elements: tuple | None = None
        self.partitions: dict[int, Partition] = {}

    def random(self, rng):
        gens = self.generators()
        out = self.identity()
        for _ in range(12):
            out = self.mul(out, rng.choice(gens))
        return out

    def twisted_conj(self, h, a, i: int):
        """a ↦ h·a·σ^i(h)^{-1}, the conjugation action on the coset σ^i ⋉ G."""
        return self.mul(self.mul(h, a), self.inv(self.frob(h, i)))


def _memoized(enumerate_):
    """elements() of a group: enumerated once, if the order is within the cap,
    and shared by every caller as one immutable tuple."""

    @wraps(enumerate_)
    def elements(self) -> tuple:
        if self._elements is None:
            if self.order() > self.cap:
                raise GroupTooLarge(f"group of order {self.order()} exceeds cap {self.cap}")
            self._elements = tuple(enumerate_(self))
        return self._elements

    return elements


class _MatrixSpec(GroupSpec):
    size: int

    def identity(self):
        return mat_identity(self.tower, self.size)

    def mul(self, a, b):
        return mat_mul(self.tower, a, b, self.size)

    def frob(self, a, j):
        return mat_frob(self.tower, a, j)

    def orbit_maps(self, twist: int) -> tuple:
        """The group whose elements() each coset lists (here self, one coset) and,
        per coset, the digit maps of the generator actions x ↦ s·x·σ^twist(s)⁻¹."""
        return self, [_twisted_maps(self, twist)]


def _cyclic_generator(elems, mul, one, order: int):
    """The first of elems, in canonical order, whose order is `order`, the group order."""
    for g in elems:
        y, k = g, 1
        while y != one and k < order:
            y, k = mul(y, g), k + 1
        if y == one and k == order:
            return g
    raise InvariantBroken("the group is not cyclic")


class SympGroup(_MatrixSpec):
    """Sp_{2n}(F_{q^level}) or, with similitude=True, GSp_{2n}(F_{q^level})."""

    def __init__(self, tower: Tower, n: int, level: int, similitude: bool = False, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = n
        self.size = 2 * n
        self.similitude = similitude
        self._generators: tuple | None = None
        self.norms: dict = {}  # normmap.gyoja_norms by (NormConfig, g, ambient_cap)

    def inv(self, a):
        """g⁻¹ = μ⁻¹·J⁻¹·gᵀ·J = μ⁻¹·[[dᵀ, −bᵀ], [−cᵀ, aᵀ]] for g = [[a, b], [c, d]] of
        multiplier μ = ⟨g e₁, g f₁⟩, which is 1 on Sp."""
        tower, n, size = self.tower, self.n, self.size
        out = [a[(j + n) % size * size + (i + n) % size] for i in range(size) for j in range(size)]
        out = [x if (k // size < n) == (k % size < n) else tower.neg(x) for k, x in enumerate(out)]
        if not self.similitude:
            return tuple(out)
        mu_inv = tower.inv(form(tower, a[0::size], a[n::size]))
        return tuple(tower.mul(mu_inv, x) for x in out)

    def order(self) -> int:
        Q = self.tower.q**self.level
        total = Q ** (self.n * self.n)
        for i in range(1, self.n + 1):
            total *= Q ** (2 * i) - 1
        if self.similitude:
            total *= Q - 1
        return total

    def contains(self, a) -> bool:
        if len(a) != self.size * self.size:
            return False
        kind, lam = membership(self.tower, a, self.n, self.level)
        return kind == "sp" or (self.similitude and kind == "gsp")

    def _siegel(self, tags: tuple, blocks: list) -> list:
        """The generators tags of the n×n parameter blocks, as tuples (`siegel_matrices`)."""
        digits = self.tower.digit_stack(blocks, self.n)[None]
        return self.tower.from_digit_stack(siegel_matrices(self.tower, tags, digits)[0])

    def unipotent(self, b: tuple) -> tuple:
        """[[1, b], [0, 1]] with b an n×n block (must be symmetric)."""
        return self._siegel(("unip",), [b])[0]

    def levi(self, a: tuple) -> tuple:
        """diag(a, (aᵀ)^{-1}) for a invertible n×n, else Singular."""
        return self._siegel(("levi",), [a])[0]

    def weyl(self, b: tuple | None = None) -> tuple:
        """Antidiagonal [[0, B], [-(Bᵀ)^{-1}, 0]]; B defaults to the identity."""
        return self._siegel(("weyl",), [mat_identity(self.tower, self.n) if b is None else b])[0]

    def similitude_rep(self, lam) -> tuple:
        """diag(λ·1, 1): similitude factor λ."""
        n, tower = self.n, self.tower
        g = list(mat_identity(tower, 2 * n))
        for i in range(n):
            g[i * 2 * n + i] = lam
        return tuple(g)

    def generators(self) -> tuple:
        """u(c·(e_ij + e_ji)) for i ≤ j and c in {1, ζ}, levi(diag(ζ, 1, …)), for n > 1 the Levi
        swap of e_1 and e_2, weyl(1) and, for GSp, diag(ζ·1, 1), with ζ the smallest generator
        of F_{q^level}^×: built once, in one `siegel_matrices` call, and kept."""
        if self._generators is not None:
            return self._generators
        n, tower = self.n, self.tower
        zeta = _cyclic_generator(tower.level_elements(self.level)[1:], tower.mul, tower.one, tower.q**self.level - 1)
        coeffs = [tower.one] if zeta == tower.one else [tower.one, zeta]
        blocks = []
        for i in range(n):
            for j in range(i, n):
                for c in coeffs:
                    b = [tower.zero] * (n * n)
                    b[i * n + j] = c
                    b[j * n + i] = c
                    blocks.append(b)
        levis = [list(mat_identity(tower, n))]
        levis[0][0] = zeta
        if n > 1:
            swap = list(mat_identity(tower, n))  # e_1 ↔ e_2
            swap[0], swap[1], swap[n], swap[n + 1] = tower.zero, tower.one, tower.one, tower.zero
            levis.append(swap)
        tags = ("unip",) * len(blocks) + ("levi",) * len(levis) + ("weyl",)
        gens = self._siegel(tags, blocks + levis + [mat_identity(tower, n)])
        self._generators = tuple(gens + [self.similitude_rep(zeta)] if self.similitude else gens)
        return self._generators

    @_memoized
    def elements(self):
        """The group, from the sorted codes of its symplectic bases (`_basis_codes`), decoded once."""
        tower, size, Q = self.tower, self.size, self.tower.q**self.level
        codes = _basis_codes(tower, self.n, self.level, np.arange(1, Q) if self.similitude else np.ones(1, int))
        if len(codes) != self.order() or not (np.diff(codes) > 0).all():
            raise InvariantBroken(f"{len(codes)} symplectic bases for a group of order {self.order()}")
        field, out = np.array(tower.level_elements(self.level)), []
        for lo in range(0, len(codes), _ORBIT_CHUNK):  # entry ranks of a chunk, to tuples
            out += zip(*(field[r].tolist() for r in np.unravel_index(codes[lo : lo + _ORBIT_CHUNK], (Q,) * size**2)))
        return out


def _basis_codes(tower: Tower, n: int, level: int, lams: np.ndarray) -> np.ndarray:
    """Sorted codes (`Tower.level_code`) of the g in GSp_2n(F_{q^level}) whose multiplier λ has its
    rank in lams, as symplectic bases (Taylor, The Geometry of the Classical Groups): g's columns
    e_1, f_1, …, e_n, f_n, in level coordinates, are filled in turn, each one's pairings with the
    earlier ones λ times J's entries.  The pairing is F_p-bilinear, so for the whole stack of
    partial bases that is one F_p-system; the kernel vector of one more unknown, for an f-column's
    λ, is a particular solution, and each combination of the others (nonzero for e) a column."""
    size, p, A = 2 * n, tower.p, tower.ambient_degree
    basis, pivots = tower._level_basis(level), tower.level_pivots(level)
    k, place = len(pivots), p ** np.arange(len(pivots))
    K = size * k
    unit = np.zeros((K, size, A), dtype=np.int64)  # unit[s·k + a]: β_a in slot s
    unit[np.arange(K), np.arange(K) // k] = np.tile(basis, (size, 1))
    pair = form_pairing(tower, unit, unit)[..., pivots]  # coordinates of ⟨unit_u, unit_v⟩
    weights = tower.level_code(level, size * size)[1].reshape(size, size, k).swapaxes(0, 1)  # [c, r, a]
    lam = lams[:, None] // place % p
    cols = np.zeros((len(lams), 0, K), dtype=np.min_scalar_type(p - 1))  # the partial bases
    codes = np.zeros(len(lams), dtype=np.int64)
    for step in range(size):
        i, f = divmod(step, 2)
        system = np.tensordot(cols, pair, axes=(2, 0)).swapaxes(2, 3).reshape(len(cols), step * k, K)
        if f:  # ⟨e_i, x⟩ = λ on the last k rows: the kernel vector with last entry 1 solves it
            lift = np.zeros((len(cols), step * k, 1), dtype=np.int64)
            lift[:, -k:, 0] = -lam % p
            kern = modp.kernel_basis(np.concatenate([system, lift], axis=2), p)
            base, kern = kern[:, -1, None, :K], kern[:, :-1, :K]
        else:
            kern, base = modp.kernel_basis(system, p), 0
        r = kern.shape[1]
        combos = np.arange(1 - f, p**r)[:, None] // p ** np.arange(r) % p  # (0, …, 0) only for f
        new = sum((combos[:, c, None] * kern[:, None, c] for c in range(r)), base) % p  # (B, len(combos), K)
        codes = np.repeat(codes, len(combos)) + new.reshape(-1, K) @ weights[n * f + i].ravel()
        if step < size - 1:
            lam = np.repeat(lam, len(combos), axis=0)
            cols = np.concatenate([np.repeat(cols, len(combos), axis=0),
                                   new.reshape(-1, 1, K).astype(cols.dtype)], axis=1)
    codes.sort()
    return codes


class HeisGroup(GroupSpec):
    """Heisenberg group H_V(F_{q^level}) = V ⊕ F with the ½⟨,⟩ cocycle."""

    def __init__(self, tower: Tower, n: int, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = n

    def identity(self):
        return (tuple(self.tower.zero for _ in range(2 * self.n)), self.tower.zero)

    def mul(self, a, b):
        tower = self.tower
        (v1, t1), (v2, t2) = a, b
        if len(v1) != len(v2):
            raise LevelMismatch("Heisenberg elements of different sizes")
        v = tuple(tower.add(x, y) for x, y in zip(v1, v2))
        t = tower.add(tower.add(t1, t2), tower.mul(tower.half, form(tower, v1, v2)))
        return (v, t)

    def inv(self, a):
        v, t = a
        return (tuple(self.tower.neg(x) for x in v), self.tower.neg(t))

    def frob(self, a, j):
        v, t = a
        return (tuple(self.tower.frobenius(x, j) for x in v), self.tower.frobenius(t, j))

    def order(self):
        Q = self.tower.q**self.level
        return Q ** (2 * self.n + 1)

    def contains(self, a) -> bool:
        v, t = a
        return len(v) == 2 * self.n and all(self.tower.in_level(x, self.level) for x in v) and self.tower.in_level(t, self.level)

    @_memoized
    def elements(self):
        field = self.tower.level_elements(self.level)
        return [(vec, t) for vec in product(field, repeat=2 * self.n) for t in field]

    def random(self, rng):
        field = self.tower.level_elements(self.level)
        v = tuple(rng.choice(field) for _ in range(2 * self.n))
        return (v, rng.choice(field))


class SpHGroup(GroupSpec):
    """The product group Sp_V·H_V with elements (s, h) = s·h."""

    def __init__(self, tower: Tower, n: int, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = n
        self.sp = SympGroup(tower, n, level, cap=cap)
        self.heis = HeisGroup(tower, n, level, cap=cap)

    def identity(self):
        return (self.sp.identity(), self.heis.identity())

    def mul(self, a, b):
        s1, h1 = a
        s2, h2 = b
        # s1 h1 s2 h2 = (s1 s2)(s2^{-1} h1 s2) h2
        h1c = sp_act_heis(self.tower, self.sp.inv(s2), h1, self.n)
        return (self.sp.mul(s1, s2), self.heis.mul(h1c, h2))

    def inv(self, a):
        s, h = a
        hi = self.heis.inv(h)
        return (self.sp.inv(s), sp_act_heis(self.tower, s, hi, self.n))

    def frob(self, a, j):
        return (self.sp.frob(a[0], j), self.heis.frob(a[1], j))

    def contains(self, a):
        return self.sp.contains(a[0]) and self.heis.contains(a[1])

    def random(self, rng):
        return (self.sp.random(rng), self.heis.random(rng))


class TorusSL2(_MatrixSpec):
    """Elliptic-model maximal torus of SL₂: matrices [[a, bw],[b, a]], a²-wb²=1.

    w is the smallest nonsquare of the base field F_q, so the group is the
    norm-one subgroup of F_{q^level}[√w] (order q^level+1 for odd-degree
    levels, split of order q^level-1 when w becomes a square).
    """

    size = 2

    def __init__(self, tower: Tower, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = 1
        w = None
        for x in tower.level_elements(1):
            if x == tower.zero:
                continue
            if tower.quad_char(x, 1) == -1:
                w = x
                break
        if w is None:
            raise InvariantBroken("no nonsquare in the base field")
        self.w = w

    def is_split(self) -> bool:
        return self.tower.in_level(self.w, self.level) and self.tower.quad_char(self.w, self.level) == 1

    def order(self):
        Q = self.tower.q**self.level
        return Q - 1 if self.is_split() else Q + 1

    def matrix(self, a, b):
        return (a, self.tower.mul(b, self.w), b, a)

    def inv(self, g):
        """The adjugate [[d, −b], [−c, a]], the inverse on determinant one."""
        neg = self.tower.neg
        return (g[3], neg(g[1]), neg(g[2]), g[0])

    def contains(self, g):
        tower = self.tower
        if len(g) != 4 or g[0] != g[3] or g[1] != tower.mul(g[2], self.w):
            return False
        if not all(tower.in_level(x, self.level) for x in g):
            return False
        return mat_det(tower, g, 2) == tower.one

    @_memoized
    def elements(self):
        tower = self.tower
        out = []
        for a in tower.level_elements(self.level):
            for b in tower.level_elements(self.level):
                # a² - w b² = 1
                if tower.sub(tower.mul(a, a), tower.mul(self.w, tower.mul(b, b))) == tower.one:
                    out.append(self.matrix(a, b))
        out.sort()
        return out

    @cached_property
    def generator(self):
        return _cyclic_generator(self.elements(), self.mul, self.identity(), self.order())

    @cached_property
    def _log(self) -> dict:
        powers = accumulate([self.generator] * (self.order() - 1), self.mul, initial=self.identity())
        return {g: k for k, g in enumerate(powers)}

    def log(self, g) -> int:
        """Discrete log with respect to the canonical generator."""
        return self._log[g]


# -- conjugacy classes -----------------------------------------------------------------


@dataclass
class Partition:
    """Conjugacy (or twisted-conjugacy) classes with canonical representatives."""

    twist: int
    reps: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    class_of: dict = field(default_factory=dict)

    def index_of(self, g) -> int:
        got = self.class_of.get(g)
        if got is None:
            raise InvariantBroken("element not covered by the partition")
        return got

    def __len__(self):
        return len(self.reps)


_ORBIT_CHUNK = 1 << 15  # element rows mapped or decoded per numpy batch


def _sandwich_map(tower: Tower, s: tuple, t: tuple, size: int) -> np.ndarray:
    """Matrix of x ↦ s·x·t on the ambient digits of a flat size×size matrix x,
    entry-major: (s·x·t)_ik = Σ_jl s_ij·t_lk·x_jl."""
    A = tower.ambient_degree
    S = np.array([tower.mul_matrix(y) for y in s]).reshape(size, size, A, A)
    T = np.array([tower.mul_matrix(y) for y in t]).reshape(size, size, A, A)
    dim = size * size * A
    return np.einsum("ijbc,lkca->ikbjla", S, T).reshape(dim, dim) % tower.p


def _twisted_maps(spec: _MatrixSpec, twist: int) -> list:
    """Digit maps of x ↦ s·x·σ^twist(s)⁻¹, one per generator s of spec."""
    return [_sandwich_map(spec.tower, s, spec.inv(spec.frob(s, twist)), spec.size) for s in spec.generators()]


def _image_indices(digits: np.ndarray, codes: np.ndarray, mat: np.ndarray, cols: np.ndarray,
                   weights: np.ndarray, p: int) -> np.ndarray:
    """Index in the element array of the image of each digit row under mat.

    The coded digits of the images come from one float64 BLAS product per
    chunk of rows, exact since every partial sum is below dim·(p-1)² < 2^53.
    A generator permutes the elements, so the sorted image codes must be the
    element codes, and sorting them matches each image with its element.
    """
    matT = mat[cols].T.astype(np.float64)
    img = np.empty(len(digits), dtype=np.int64)
    for lo in range(0, len(digits), _ORBIT_CHUNK):
        coded = (digits[lo : lo + _ORBIT_CHUNK].astype(np.float64) @ matT).astype(np.int64) % p
        img[lo : lo + len(coded)] = coded @ weights
    order = np.argsort(img)
    if not np.array_equal(img[order], codes):
        raise InvariantBroken("a generator does not permute the elements")
    out = np.empty(len(digits), dtype=np.int64)
    out[order] = np.arange(len(digits))
    return out


def _min_labels(images: list, n: int) -> np.ndarray:
    """Smallest index in the orbit of each of 0..n-1 under the index maps in images.

    Min-label propagation: each index takes the least label of its images, each
    label takes the least label of its members (hooking), and labels jump to
    their label's label until stable. A label is always an index of the same
    orbit and never above its own index, so the fixed point is the orbit minimum.
    """
    label = np.arange(n)
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        np.minimum.at(new, label, new)  # hooking
        while not np.array_equal(new[new], new):  # pointer jumping
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _orbit_labels(spec: GroupSpec, twist: int) -> np.ndarray:
    """Index in spec.elements() of the smallest member of each element's orbit."""
    base, cosets = spec.orbit_maps(twist)
    elems = base.elements()
    tower, entries = base.tower, base.size * base.size
    digits = tower.digit_array(chain.from_iterable(elems)).reshape(len(elems), -1)
    cols, weights = tower.level_code(base.level, entries)
    codes = digits[:, cols] @ weights
    if not (np.diff(codes) > 0).all():
        raise InvariantBroken("elements() is not in sorted order")
    n = len(elems)
    labels = [
        _min_labels([_image_indices(digits, codes, mat, cols, weights, tower.p) for mat in maps], n) + j * n
        for j, maps in enumerate(cosets)
    ]
    return np.concatenate(labels)


def _classes(spec: GroupSpec, twist: int) -> Partition:
    """Orbits of g ↦ s·g·σ^twist(s)⁻¹ over the generators s of spec, memoized
    on spec; twist 0 gives the ordinary classes.

    Each generator acts on the digit array of the elements as one F_p-linear
    map (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 4).
    elements() is sorted, so an orbit's smallest index is its
    canonical representative and the classes are numbered in that order.
    """
    part = spec.partitions.get(twist)
    if part is not None:
        return part
    labels = _orbit_labels(spec, twist)
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    class_id = np.searchsorted(roots, labels)
    sizes = np.bincount(class_id).tolist()
    class_id, roots = class_id.tolist(), roots.tolist()
    del labels
    elems = spec.elements()
    ids = list(range(len(roots)))  # one int object per class, shared by its members
    class_of = dict(zip(elems, map(ids.__getitem__, class_id)))
    part = Partition(twist, [elems[r] for r in roots], sizes, class_of)
    spec.partitions[twist] = part
    return part


def conjugacy_classes(spec: GroupSpec) -> Partition:
    return _classes(spec, 0)


def twisted_classes(spec: GroupSpec, i: int) -> Partition:
    """Orbits of g ↦ h·g·σ^i(h)^{-1} on the coset σ^i ⋉ G."""
    return _classes(spec, i)


class SemidirectGroup(GroupSpec):
    """Γ ⋉ G(F') with Γ cyclic of order m acting by Frobenius; elements (j, g)."""

    def __init__(self, base: GroupSpec, m: int):
        super().__init__(base.tower, base.level, base.cap)
        self.base = base
        self.m = m

    def identity(self):
        return (0, self.base.identity())

    def mul(self, a, b):
        """(σ^i, g)(σ^j, h) = (σ^{i+j}, g·σ^i(h))."""
        i, g = a
        j, h = b
        return ((i + j) % self.m, self.base.mul(g, self.base.frob(h, i)))

    def inv(self, a):
        i, g = a
        gi = self.base.inv(g)
        return ((-i) % self.m, self.base.frob(gi, -i))

    def order(self):
        return self.m * self.base.order()

    def generators(self):
        return [(0, g) for g in self.base.generators()] + [(1, self.base.identity())]

    @_memoized
    def elements(self):
        return [(j, g) for j in range(self.m) for g in self.base.elements()]

    def orbit_maps(self, twist: int) -> tuple:
        """Conjugation keeps each coset σ^j ⋉ G: (0, s) acts on it by
        g ↦ s·g·σ^j(s)⁻¹ and (1, 1) by g ↦ σ(g)."""
        if twist:
            raise ConfigInvalid("a semidirect group has ordinary classes only")
        base = self.base
        frob = np.kron(np.eye(base.size * base.size, dtype=np.int64), self.tower.frob_matrix(1))
        return base, [_twisted_maps(base, j) + [frob] for j in range(self.m)]

    def random(self, rng):
        return (rng.randrange(self.m), self.base.random(rng))


def block_embed(tower: Tower, g1: tuple, g2: tuple) -> tuple:
    """Sp₂ × Sp₂ → Sp₄ for the orthogonal splitting span(e1,f1) ⊥ span(e2,f2)."""
    z = tower.zero
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    rows = [
        (a1, z, b1, z),
        (z, a2, z, b2),
        (c1, z, d1, z),
        (z, c2, z, d2),
    ]
    return tuple(v for row in rows for v in row)


def heis_embed(tower: Tower, h1: tuple, h2: tuple) -> tuple:
    (v1, t1), (v2, t2) = h1, h2
    v = (v1[0], v2[0], v1[1], v2[1])
    return (v, tower.add(t1, t2))
