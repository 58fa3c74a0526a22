"""Symplectic, similitude, Heisenberg and Galois-twisted groups over tower levels.

Group elements are hashable tuples:

* matrices: flat row-major tuples of field elements, acting on column vectors
  with X-coordinates first (basis e_1..e_n, f_1..f_n);
* Heisenberg elements: (v, t) with v a 2n-tuple and t a scalar;
* Sp·H products: (s, (v, t)) meaning the product s·(v,t);
* twisted elements: (i, g) for (σ^i, g) = (1,g)(σ^i,1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import DimensionMismatch, GroupTooLarge, InvariantBroken, LevelMismatch
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


def mat_transpose(a: tuple, size: int) -> tuple:
    return tuple(a[j * size + i] for i in range(size) for j in range(size))


def mat_frob(tower: Tower, a: tuple, j: int) -> tuple:
    return tuple(tower.frobenius(x, j) for x in a)


def mat_neg(tower: Tower, a: tuple) -> tuple:
    return tuple(tower.neg(x) for x in a)


def mat_det(tower: Tower, a: tuple, size: int):
    if size == 1:
        return a[0]
    if size == 2:
        return tower.sub(tower.mul(a[0], a[3]), tower.mul(a[1], a[2]))
    # Gaussian elimination with exact field arithmetic
    m = [list(a[i * size : (i + 1) * size]) for i in range(size)]
    det = tower.one
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != tower.zero), None)
        if piv is None:
            return tower.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = tower.neg(det)
        det = tower.mul(det, m[c][c])
        inv = tower.inv(m[c][c])
        for r in range(c + 1, size):
            if m[r][c] == tower.zero:
                continue
            f = tower.mul(m[r][c], inv)
            for k in range(c, size):
                m[r][k] = tower.sub(m[r][k], tower.mul(f, m[c][k]))
    return det


def mat_inv(tower: Tower, a: tuple, size: int) -> tuple:
    if size == 1:
        return (tower.inv(a[0]),)
    if size == 2:
        det = mat_det(tower, a, 2)
        di = tower.inv(det)
        return (
            tower.mul(a[3], di),
            tower.mul(tower.neg(a[1]), di),
            tower.mul(tower.neg(a[2]), di),
            tower.mul(a[0], di),
        )
    m = [list(a[i * size : (i + 1) * size]) + [tower.one if k == i else tower.zero for k in range(size)] for i in range(size)]
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != tower.zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        inv = tower.inv(m[c][c])
        m[c] = [tower.mul(x, inv) for x in m[c]]
        for r in range(size):
            if r != c and m[r][c] != tower.zero:
                f = m[r][c]
                m[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(m[r], m[c])]
    return tuple(m[i][size + j] for i in range(size) for j in range(size))


# -- symplectic structure ---------------------------------------------------------


@dataclass(frozen=True)
class SympSpace:
    """Standard symplectic space of dimension 2n with ⟨e_i, f_j⟩ = δ_ij."""

    n: int

    def gram(self, tower: Tower) -> tuple:
        n = self.n
        z, o = tower.zero, tower.one
        size = 2 * n
        J = [[z] * size for _ in range(size)]
        for i in range(n):
            J[i][n + i] = o
            J[n + i][i] = tower.neg(o)
        return tuple(v for row in J for v in row)

    def form(self, tower: Tower, u: tuple, v: tuple):
        """⟨u, v⟩ = Σ u_i v_{n+i} - u_{n+i} v_i."""
        n = self.n
        acc = tower.zero
        for i in range(n):
            acc = tower.add(acc, tower.mul(u[i], v[n + i]))
            acc = tower.sub(acc, tower.mul(u[n + i], v[i]))
        return acc


def membership(tower: Tower, g: tuple, n: int, level: int):
    """Classify a 2n×2n matrix: ('sp', None), ('gsp', λ), or ('neither', None)."""
    size = 2 * n
    if len(g) != size * size:
        raise DimensionMismatch(f"expected a {size}x{size} matrix")
    for x in g:
        if not tower.in_level(x, level):
            return ("neither", None)
    J = SympSpace(n).gram(tower)
    gt = mat_transpose(g, size)
    gJg = mat_mul(tower, mat_mul(tower, gt, J, size), g, size)
    lam = None
    for idx in range(size * size):
        if J[idx] != tower.zero:
            ratio = tower.mul(gJg[idx], tower.inv(J[idx]))
            if lam is None:
                lam = ratio
            elif lam != ratio:
                return ("neither", None)
        elif gJg[idx] != tower.zero:
            return ("neither", None)
    if lam is None or lam == tower.zero:
        return ("neither", None)
    if lam == tower.one:
        return ("sp", None)
    return ("gsp", lam)


# -- Sp action on the Heisenberg group ---------------------------------------------


def sp_act_heis(tower: Tower, s: tuple, h: tuple, n: int) -> tuple:
    v, t = h
    return (mat_vec(tower, s, v, 2 * n), t)


# -- group specs -------------------------------------------------------------------


class GroupSpec:
    """Common interface: elements are hashable, operations are pure."""

    abelian = False

    def __init__(self, tower: Tower, level: int, cap: int = ENUM_CAP):
        self.tower = tower
        self.level = level
        self.cap = cap

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def frob(self, a, j: int):
        raise NotImplementedError

    def order(self) -> int:
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def generators(self) -> list:
        raise NotImplementedError

    def elements(self) -> list:
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    def random(self, rng):
        gens = self.generators()
        out = self.identity()
        for _ in range(12):
            out = self.mul(out, rng.choice(gens))
        return out

    def conj(self, h, a):
        return self.mul(self.mul(h, a), self.inv(h))

    def twisted_conj(self, h, a, i: int):
        """a ↦ h·a·σ^i(h)^{-1}, the conjugation action on the coset σ^i ⋉ G."""
        return self.mul(self.mul(h, a), self.inv(self.frob(h, i)))

    def check_order(self):
        if self.order() > self.cap:
            raise GroupTooLarge(f"group of order {self.order()} exceeds cap {self.cap}")

    def descriptor(self) -> tuple:
        """Stable identity for caching across equal specs."""
        extra = tuple(
            getattr(self, name) for name in ("n", "similitude", "m", "w") if hasattr(self, name)
        )
        return (type(self).__name__, self.tower.p, self.tower.base_degree,
                self.tower.m, self.level) + extra


class _MatrixSpec(GroupSpec):
    size: int

    def identity(self):
        return mat_identity(self.tower, self.size)

    def mul(self, a, b):
        return mat_mul(self.tower, a, b, self.size)

    def frob(self, a, j):
        return mat_frob(self.tower, a, j)

    def sort_key(self, a):
        key = self.tower.elem_key
        return tuple(key(x) for x in a)

    def inv(self, a):
        return mat_inv(self.tower, a, self.size)


def _gen_of_mult_group(tower: Tower, level: int):
    """Smallest generator of F_{q^level}^× in canonical order."""
    elems = tower.level_elements(level)
    n = len(elems) - 1
    for x in elems:
        if x == tower.zero:
            continue
        order = 1
        y = x
        while y != tower.one:
            y = tower.mul(y, x)
            order += 1
            if order > n:
                break
        if order == n:
            return x
    raise RuntimeError("no generator found")


class SympGroup(_MatrixSpec):
    """Sp_{2n}(F_{q^level}) or, with similitude=True, GSp_{2n}(F_{q^level})."""

    def __init__(self, tower: Tower, n: int, level: int, similitude: bool = False, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = n
        self.size = 2 * n
        self.similitude = similitude
        self.space = SympSpace(n)
        self._J = self.space.gram(tower)
        self._Jneg = mat_neg(tower, self._J)

    def inv(self, a):
        tower = self.tower
        if self.n == 1:
            if self.similitude:
                return mat_inv(tower, a, 2)
            # det = 1: adjugate
            return (a[3], tower.neg(a[1]), tower.neg(a[2]), a[0])
        if not self.similitude:
            # symplectic inverse g^{-1} = J^{-1} gᵀ J, division-free
            return mat_mul(
                tower, mat_mul(tower, self._Jneg, mat_transpose(a, self.size), self.size), self._J, self.size
            )
        return mat_inv(tower, a, self.size)

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

    def unipotent(self, b: tuple) -> tuple:
        """[[1, b], [0, 1]] with b an n×n block (must be symmetric)."""
        n, tower = self.n, self.tower
        g = list(mat_identity(tower, 2 * n))
        for i in range(n):
            for j in range(n):
                g[i * 2 * n + n + j] = b[i * n + j]
        return tuple(g)

    def levi(self, a: tuple) -> tuple:
        """diag(a, (aᵀ)^{-1}) for a invertible n×n."""
        n, tower = self.n, self.tower
        astar_inv = mat_inv(tower, mat_transpose(a, n), n)
        g = [tower.zero] * (4 * n * n)
        for i in range(n):
            for j in range(n):
                g[i * 2 * n + j] = a[i * n + j]
                g[(n + i) * 2 * n + n + j] = astar_inv[i * n + j]
        return tuple(g)

    def weyl(self, b: tuple | None = None) -> tuple:
        """Antidiagonal [[0, B], [-(Bᵀ)^{-1}, 0]]; B defaults to the identity."""
        n, tower = self.n, self.tower
        B = mat_identity(tower, n) if b is None else b
        C = mat_neg(tower, mat_inv(tower, mat_transpose(B, n), n))
        g = [tower.zero] * (4 * n * n)
        for i in range(n):
            for j in range(n):
                g[i * 2 * n + n + j] = B[i * n + j]
                g[(n + i) * 2 * n + j] = C[i * n + j]
        return tuple(g)

    def similitude_rep(self, lam) -> tuple:
        """diag(λ·1, 1): similitude factor λ."""
        n, tower = self.n, self.tower
        g = list(mat_identity(tower, 2 * n))
        for i in range(n):
            g[i * 2 * n + i] = lam
        return tuple(g)

    def generators(self) -> list:
        n, tower = self.n, self.tower
        gens = []
        zeta = _gen_of_mult_group(tower, self.level)
        coeffs = [tower.one] if zeta == tower.one else [tower.one, zeta]
        for i in range(n):
            for j in range(i, n):
                for c in coeffs:
                    b = [tower.zero] * (n * n)
                    b[i * n + j] = c
                    b[j * n + i] = c
                    gens.append(self.unipotent(tuple(b)))
        a = list(mat_identity(tower, n))
        a[0] = zeta
        gens.append(self.levi(tuple(a)))
        if n > 1:
            perm = [tower.zero] * (n * n)
            perm[1], perm[n] = tower.one, tower.one
            for k in range(2, n):
                perm[k * n + k] = tower.one
            gens.append(self.levi(tuple(perm)))
        gens.append(self.weyl())
        if self.similitude:
            gens.append(self.similitude_rep(zeta))
        return gens

    def elements(self) -> list:
        self.check_order()
        tower, n = self.tower, self.n
        if n == 1 and not self.similitude:
            elems = []
            field = tower.level_elements(self.level)
            nz = [x for x in field if x != tower.zero]
            for a in nz:
                ai = tower.inv(a)
                for b in field:
                    for c in field:
                        # det = ad - bc = 1 → d = (1 + bc)/a
                        d = tower.mul(tower.add(tower.one, tower.mul(b, c)), ai)
                        elems.append((a, b, c, d))
            for b in nz:
                c = tower.neg(tower.inv(b))  # a = 0 → -bc = 1
                for d in field:
                    elems.append((tower.zero, b, c, d))
            elems.sort(key=self.sort_key)
            return elems
        if n == 1 and self.similitude:
            elems = []
            field = tower.level_elements(self.level)
            for a in field:
                for b in field:
                    for c in field:
                        for d in field:
                            det = tower.sub(tower.mul(a, d), tower.mul(b, c))
                            if det != tower.zero:
                                elems.append((a, b, c, d))
            elems.sort(key=self.sort_key)
            return elems
        return _closure(self)


class HeisGroup(GroupSpec):
    """Heisenberg group H_V(F_{q^level}) = V ⊕ F with the ½⟨,⟩ cocycle."""

    def __init__(self, tower: Tower, n: int, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)
        self.n = n
        self.space = SympSpace(n)

    def identity(self):
        return (tuple(self.tower.zero for _ in range(2 * self.n)), self.tower.zero)

    def mul(self, a, b):
        tower = self.tower
        (v1, t1), (v2, t2) = a, b
        if len(v1) != len(v2):
            raise LevelMismatch("Heisenberg elements of different sizes")
        v = tuple(tower.add(x, y) for x, y in zip(v1, v2))
        t = tower.add(tower.add(t1, t2), tower.mul(tower.half, self.space.form(tower, v1, v2)))
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

    def sort_key(self, a):
        key = self.tower.elem_key
        return tuple(key(x) for x in a[0]) + (key(a[1]),)

    def generators(self) -> list:
        tower, n = self.tower, self.n
        gens = []
        scalars = [x for x in tower.level_elements(self.level) if x != tower.zero]
        # translations by all c·e_i, c·f_i for c a field basis would suffice;
        # using every scalar keeps it simple at desk scale for small levels
        pick = scalars if len(scalars) <= 16 else scalars[:16]
        for i in range(2 * n):
            for c in pick:
                v = [tower.zero] * (2 * n)
                v[i] = c
                gens.append((tuple(v), tower.zero))
        gens.append((tuple([tower.zero] * (2 * n)), tower.one))
        return gens

    def elements(self) -> list:
        self.check_order()
        field = self.tower.level_elements(self.level)
        out = []
        for vec in product(field, repeat=2 * self.n):
            for t in field:
                out.append((vec, t))
        return out

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

    def order(self):
        return self.sp.order() * self.heis.order()

    def contains(self, a):
        return self.sp.contains(a[0]) and self.heis.contains(a[1])

    def sort_key(self, a):
        return self.sp.sort_key(a[0]) + self.heis.sort_key(a[1])

    def generators(self):
        e = self.heis.identity()
        s0 = self.sp.identity()
        return [(g, e) for g in self.sp.generators()] + [(s0, h) for h in self.heis.generators()]

    def elements(self):
        self.check_order()
        out = []
        for s in self.sp.elements():
            for h in self.heis.elements():
                out.append((s, h))
        return out

    def random(self, rng):
        return (self.sp.random(rng), self.heis.random(rng))


class SpZGroup(SpHGroup):
    """The direct product Sp_V × Z_V inside Sp_V·H_V."""

    def contains(self, a):
        s, (v, t) = a
        return self.sp.contains(s) and all(x == self.tower.zero for x in v) and self.tower.in_level(t, self.level)

    def generators(self):
        e = self.heis.identity()
        z = tuple([self.tower.zero] * (2 * self.n))
        scalars = [x for x in self.tower.level_elements(self.level) if x != self.tower.zero]
        return [(g, e) for g in self.sp.generators()] + [(self.sp.identity(), (z, c)) for c in scalars[:4]]

    def elements(self):
        if self.sp.order() * (self.tower.q**self.level) > self.cap:
            raise GroupTooLarge("Sp×Z too large to enumerate")
        z = tuple([self.tower.zero] * (2 * self.n))
        out = []
        for s in self.sp.elements():
            for t in self.tower.level_elements(self.level):
                out.append((s, (z, t)))
        return out

    def random(self, rng):
        z = tuple([self.tower.zero] * (2 * self.n))
        return (self.sp.random(rng), (z, rng.choice(self.tower.level_elements(self.level))))


class BorelSL2(SympGroup):
    """Upper-triangular subgroup of SL₂(F_{q^level})."""

    def __init__(self, tower: Tower, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, 1, level, similitude=False, cap=cap)

    def order(self):
        Q = self.tower.q**self.level
        return Q * (Q - 1)

    def contains(self, a):
        return a[2] == self.tower.zero and super().contains(a)

    def generators(self):
        tower = self.tower
        zeta = _gen_of_mult_group(tower, self.level)
        gens = [self.unipotent((c,)) for c in tower.level_elements(self.level) if c != tower.zero]
        gens.append(self.levi((zeta,)))
        return gens

    def elements(self):
        self.check_order()
        tower = self.tower
        field = tower.level_elements(self.level)
        out = []
        for a in field:
            if a == tower.zero:
                continue
            ai = tower.inv(a)
            for b in field:
                out.append((a, b, tower.zero, ai))
        out.sort(key=self.sort_key)
        return out

    def random(self, rng):
        field = self.tower.level_elements(self.level)
        a = rng.choice([x for x in field if x != self.tower.zero])
        b = rng.choice(field)
        return (a, b, self.tower.zero, self.tower.inv(a))


class MulGroup(GroupSpec):
    """F_{q^level}^× as a group (GL₁)."""

    abelian = True

    def __init__(self, tower: Tower, level: int, cap: int = ENUM_CAP):
        super().__init__(tower, level, cap)

    def identity(self):
        return self.tower.one

    def mul(self, a, b):
        return self.tower.mul(a, b)

    def inv(self, a):
        return self.tower.inv(a)

    def frob(self, a, j):
        return self.tower.frobenius(a, j)

    def order(self):
        return self.tower.q**self.level - 1

    def contains(self, a):
        return a != self.tower.zero and self.tower.in_level(a, self.level)

    def sort_key(self, a):
        return (self.tower.elem_key(a),)

    def generators(self):
        return [_gen_of_mult_group(self.tower, self.level)]

    def elements(self):
        self.check_order()
        return [x for x in self.tower.level_elements(self.level) if x != self.tower.zero]

    def random(self, rng):
        return rng.choice(self.elements())


class TorusSL2(_MatrixSpec):
    """Elliptic-model maximal torus of SL₂: matrices [[a, bw],[b, a]], a²-wb²=1.

    w is the smallest nonsquare of the base field F_q, so the group is the
    norm-one subgroup of F_{q^level}[√w] (order q^level+1 for odd-degree
    levels, split of order q^level-1 when w becomes a square).
    """

    abelian = True
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
            raise RuntimeError("no nonsquare in the base field")
        self.w = w
        self._elems = None
        self._gen = None
        self._log = None

    def is_split(self) -> bool:
        return self.tower.in_level(self.w, self.level) and self.tower.quad_char(self.w, self.level) == 1

    def order(self):
        Q = self.tower.q**self.level
        return Q - 1 if self.is_split() else Q + 1

    def matrix(self, a, b):
        return (a, self.tower.mul(b, self.w), b, a)

    def contains(self, g):
        tower = self.tower
        if len(g) != 4 or g[0] != g[3] or g[1] != tower.mul(g[2], self.w):
            return False
        if not all(tower.in_level(x, self.level) for x in g):
            return False
        return mat_det(tower, g, 2) == tower.one

    def elements(self):
        if self._elems is None:
            self.check_order()
            tower = self.tower
            out = []
            for a in tower.level_elements(self.level):
                for b in tower.level_elements(self.level):
                    # a² - w b² = 1
                    if tower.sub(tower.mul(a, a), tower.mul(self.w, tower.mul(b, b))) == tower.one:
                        out.append(self.matrix(a, b))
            out.sort(key=self.sort_key)
            self._elems = out
        return self._elems

    @property
    def generator(self):
        if self._gen is None:
            n = self.order()
            for g in self.elements():
                order = 1
                y = g
                e = self.identity()
                while y != e:
                    y = self.mul(y, g)
                    order += 1
                    if order > n:
                        break
                if order == n:
                    self._gen = g
                    break
        return self._gen

    def log(self, g) -> int:
        """Discrete log with respect to the canonical generator."""
        if self._log is None:
            table = {}
            cur = self.identity()
            for k in range(self.order()):
                table[cur] = k
                cur = self.mul(cur, self.generator)
            self._log = table
        return self._log[g]

    def generators(self):
        return [self.generator]

    def random(self, rng):
        return rng.choice(self.elements())

    def norm_to_level(self, g, d: int):
        """Usual norm t·σ^d(t)···  from T(F_{q^level}) down to T(F_{q^d})."""
        if self.level % d != 0:
            raise LevelMismatch("norm target is not a subfield level")
        out = self.identity()
        for k in range(self.level // d):
            out = self.mul(out, self.frob(g, d * k))
        return out


# -- conjugacy classes -----------------------------------------------------------------


@dataclass
class Partition:
    """Conjugacy (or twisted-conjugacy) classes with canonical representatives."""

    spec: GroupSpec
    twist: int
    reps: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    class_of: dict = field(default_factory=dict)

    def index_of(self, g) -> int:
        got = self.class_of.get(g)
        if got is None:
            raise KeyError("element not covered by the partition")
        return got

    def __len__(self):
        return len(self.reps)


def _classes(spec: GroupSpec, key: tuple, twist: int, act, cache: dict | None) -> Partition:
    """Orbits of act(s, ·) over the generators s of spec, memoized in cache under key."""
    if cache is not None and key in cache:
        return cache[key]
    gens = spec.generators()
    seen: dict = {}
    orbits = []
    for start in spec.elements():
        if start in seen:
            continue
        idx = len(orbits)
        queue = [start]
        seen[start] = idx
        members = [start]
        while queue:
            cur = queue.pop()
            for s in gens:
                nxt = act(s, cur)
                if nxt not in seen:
                    seen[nxt] = idx
                    queue.append(nxt)
                    members.append(nxt)
        orbits.append(members)
    reps = [min(mem, key=spec.sort_key) for mem in orbits]
    order = sorted(range(len(orbits)), key=lambda k: spec.sort_key(reps[k]))
    remap = {old: new for new, old in enumerate(order)}
    class_of = {g: remap[i] for g, i in seen.items()}
    part = Partition(spec, twist, [reps[k] for k in order], [len(orbits[k]) for k in order], class_of)
    if cache is not None:
        cache[key] = part
    return part


def conjugacy_classes(spec: GroupSpec, cache: dict | None = None) -> Partition:
    return _classes(spec, ("conj", spec.descriptor()), 0, spec.conj, cache)


def twisted_classes(spec: GroupSpec, i: int, cache: dict | None = None) -> Partition:
    """Orbits of g ↦ h·g·σ^i(h)^{-1} on the coset σ^i ⋉ G."""
    return _classes(spec, ("tw", spec.descriptor(), i), i, lambda s, g: spec.twisted_conj(s, g, i), cache)


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

    def frob(self, a, j):
        return (a[0], self.base.frob(a[1], j))

    def order(self):
        return self.m * self.base.order()

    def contains(self, a):
        return 0 <= a[0] < self.m and self.base.contains(a[1])

    def sort_key(self, a):
        return (a[0],) + self.base.sort_key(a[1])

    def generators(self):
        return [(0, g) for g in self.base.generators()] + [(1, self.base.identity())]

    def elements(self):
        self.check_order()
        return [(j, g) for j in range(self.m) for g in self.base.elements()]

    def random(self, rng):
        return (rng.randrange(self.m), self.base.random(rng))

    def descriptor(self) -> tuple:
        return ("SemidirectGroup", self.m) + self.base.descriptor()


def _closure(spec: GroupSpec) -> list:
    """Deterministic closure of the generator set; sorted canonically."""
    gens = spec.generators()
    seen = {spec.identity()}
    queue = [spec.identity()]
    while queue:
        cur = queue.pop()
        for s in gens:
            nxt = spec.mul(cur, s)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if len(seen) > spec.cap:
                    raise GroupTooLarge("closure exceeded the enumeration cap")
    if len(seen) != spec.order():
        raise InvariantBroken("generators do not generate the whole group")
    return sorted(seen, key=spec.sort_key)


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
