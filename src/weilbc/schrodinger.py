"""Weil representation operators on C[X*(F_{q^d})], exactly over Q(ζ_p).

Operators are dense matrices of cyclotomic integers divided by a common
denominator: a numpy int64 array of shape (dim, dim, p-1) plus a positive
int denominator.  All arithmetic is exact; equality is array equality of
the normalized form.  Products run through one float64 BLAS kernel that is
exact because the entry bound is checked before every product.

Generator formulas (X-coordinates first, matrices on column vectors):

* Heisenberg (x,0)(x*,0)(0,k):  f(y*) ↦ ψ'(k + ⟨y*, x⟩) f(x* + y*)
* unipotent [[1,b],[0,1]]:      f(y*) ↦ ψ'(⟨b y*, y*⟩/2) f(y*)
* Levi diag(a, (aᵀ)^{-1}):      f(y*) ↦ ε'(det a) f(aᵀ y*)
* Weyl [[0,B],[-(Bᵀ)^{-1},0]]:  f(y*) ↦ G^{-n} ε'(-2)^n ε'(det B) Σ ψ'(x*ᵀBᵀy*) f(x*)

The Weyl constant pairs the plain (counting-measure) Gauss sum G with the
ε'(-2)^n factor; the homomorphism test suite pins this normalization.

Every element g of Sp, H or Sp·H has one model, its steps (`_steps`): the
unipotent, Levi and Weyl factors of the Siegel word of its Sp part, one
monomial step for its H part, and a constant sign·G^{-n·w} for w Weyl
factors.  Unipotent, Levi and Heisenberg steps are monomial, and each Weyl
entry is one ψ-exponent of the F_p-bilinear pairing x·w, tabulated per
context as point coordinates and a trace-form Gram matrix.  The extended
trace walks the steps without building a matrix, and a slice trace walks an
Sp part's steps once for a whole array of H parts; dense operators, the
product of the steps' dense factors, are built only where whole operators
are compared or multiplied (`build_rho`).
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd

import numpy as np

from .characters import coset_pairs, induced_trace
from .cyclotomic import CycNum, check_int64, gauss_sum
from .errors import DimensionMismatch, FactorizationFailed, NotSymplectic, OperatorOverflow, Singular
from .fieldtower import Tower
from .grouplib import (
    SympGroup,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_transpose,
    mat_vec,
)

_STEP_CACHE_CAP = 6000
_EXACT_BOUND = 2**53  # float64 holds every integer below this exactly
_PATH_CHUNK = 1 << 20  # Siegel-word paths evaluated per numpy batch


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for int64 matrices, through float64 BLAS.

    Exact: every partial sum is an integer of size at most
    max|a|·max|b|·inner < 2^53, which is checked first.
    """
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[1]
    if bound >= _EXACT_BOUND:
        raise OperatorOverflow(f"product entry bound {bound} is not below 2^53")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _unit_vectors(p: int) -> np.ndarray:
    """Canonical coefficient vectors of ζ^e for e = 0..p-1."""
    out = np.zeros((p, p - 1), dtype=np.int64)
    for e in range(p - 1):
        out[e, e] = 1
    out[p - 1, :] = -1
    return out


def _conj_matrix(p: int) -> np.ndarray:
    mat = np.zeros((p - 1, p - 1), dtype=np.int64)
    mat[0, 0] = 1
    if p > 2:
        mat[:, 1] = -1
    for k in range(2, p - 1):
        mat[p - k, k] = 1
    return mat


class WeilOperator:
    __slots__ = ("ctx", "arr", "den")

    def __init__(self, ctx: "RepContext", arr: np.ndarray, den: int = 1):
        den = int(den)  # a numpy integer here would leak numpy bools into CycNum equality
        if den < 0:
            den, arr = -den, -arr
        g = gcd(int(np.gcd.reduce(np.abs(arr), axis=None)) if arr.size else 0, den)
        if g > 1:
            arr = arr // g
            den //= g
        self.ctx = ctx
        self.arr = arr
        self.den = den

    @property
    def dim(self) -> int:
        return self.arr.shape[0]

    def __matmul__(self, other: "WeilOperator") -> "WeilOperator":
        ctx = self.ctx
        rows, inner, r = self.arr.shape
        left = self.arr.transpose(0, 2, 1).reshape(rows * r, inner)  # ((i, r), k)
        right = other.arr.reshape(inner, -1)  # (k, (j, s))
        full = _exact_matmul(left, right).reshape(rows, r, -1, r).transpose(0, 2, 1, 3)
        return WeilOperator(ctx, ctx.fold(full), self.den * other.den)

    def scale(self, c: CycNum) -> "WeilOperator":
        ctx = self.ctx
        r = self.arr.shape[2]
        vec = np.array([c.num], dtype=np.int64)  # (1, s)
        full = _exact_matmul(self.arr.reshape(-1, 1), vec).reshape(self.arr.shape + (r,))
        return WeilOperator(ctx, ctx.fold(full), self.den * c.den)

    def conj_transpose(self) -> "WeilOperator":
        r = self.arr.shape[2]
        out = _exact_matmul(self.arr.reshape(-1, r), self.ctx.conjmat.T).reshape(self.arr.shape)
        return WeilOperator(self.ctx, np.ascontiguousarray(out.transpose(1, 0, 2)), self.den)

    def trace(self) -> CycNum:
        vec = self.arr.trace(axis1=0, axis2=1)
        return CycNum(self.ctx.p, tuple(int(v) for v in vec), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeilOperator):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.arr, other.arr)

    def __hash__(self):  # pragma: no cover
        return hash((self.den, self.arr.tobytes()))


class RepContext:
    """Schrödinger model of the level-d Weil representation for one ψ-scaling."""

    def __init__(self, tower: Tower, n: int, level: int, scale=None):
        self.tower = tower
        self.n = n
        self.level = level
        self.scale = tower.one if scale is None else scale
        self.p = tower.p
        elems = tower.level_elements(level)
        self.Q = len(elems)
        self.points = list(iproduct(elems, repeat=n))
        self.dim = len(self.points)
        self._units = _unit_vectors(self.p)
        self.conjmat = _conj_matrix(self.p)
        self._fold_pairs = [
            [(r, s) for r in range(self.p - 1) for s in range(self.p - 1) if (r + s) % self.p == t]
            for t in range(self.p)
        ]
        self.gauss = gauss_sum(tower, level, self.scale)
        self.gauss_inv = self.gauss.inverse()
        self._every = np.arange(self.dim, dtype=np.intp)  # read-only: shared by steps
        self._flat = np.zeros(self.dim, dtype=np.intp)  # ζ-exponents of a permutation step
        self._cache_cap = _STEP_CACHE_CAP if self.dim <= 32 else 700
        self._step_cache: dict = {}
        self._gauss_pow: dict[int, CycNum] = {}
        self._gal_perm: dict[int, np.ndarray] = {}
        self._gsp_cosets: dict[int, tuple] = {}
        self._coords = None

    # -- cyclotomic plumbing ----------------------------------------------------

    def fold(self, full: np.ndarray) -> np.ndarray:
        """Reduce (..., p-1, p-1) products to canonical (..., p-1) coefficients."""
        shape = full.shape[:-2] + (self.p,)
        out = np.zeros(shape, dtype=np.int64)
        for t in range(self.p):
            for r, s in self._fold_pairs[t]:
                out[..., t] += full[..., r, s]
        return out[..., : self.p - 1] - out[..., self.p - 1 :]

    def eps(self, x) -> int:
        return self.tower.quad_char(x, self.level)

    def _coordinates(self) -> "_Coordinates":
        """The F_p-coordinate model of the basis points, built on first use."""
        if self._coords is None:
            self._coords = _Coordinates(self)
        return self._coords

    def _image(self, mat: tuple) -> np.ndarray:
        """Point index of mat·y for every basis point y."""
        coords = self._coordinates()
        return coords.index(coords.apply(mat))

    def _weyl_constant(self, w: int) -> CycNum:
        """G^{-n·w}: the Gauss-sum part of the constant of w Weyl factors."""
        got = self._gauss_pow.get(w)
        if got is None:
            got = CycNum.one(self.p)
            for _ in range(self.n * w):
                got = got * self.gauss_inv
            self._gauss_pow[w] = got
        return got

    def identity_op(self) -> WeilOperator:
        return self._dense((self._every, self._flat))

    def _dense(self, step: tuple, sign: int = 1) -> WeilOperator:
        """sign times the dense factor of one step (see `_steps`)."""
        cols, exps = step
        if exps is None:
            return WeilOperator(self, sign * self._units[self._weyl_exps(cols)])
        arr = np.zeros((self.dim, self.dim, self.p - 1), dtype=np.int64)
        arr[self._every, cols] = sign * self._units[exps]
        return WeilOperator(self, arr)

    # -- the steps of ρ(g) ----------------------------------------------------------

    def _steps(self, g) -> tuple[int, int, list]:
        """ρ(g) = sign·G^{-n·w}·F_1⋯F_k for g in Sp, H or Sp·H.

        Returns (sign, w, [F_1, …, F_k]).  A monomial step (cols, exps) has
        the entry ζ^exps[y] at (y, cols[y]); a Weyl step (bty, None) has the
        entry ζ^(x·Bᵀy) at (y, x), bty holding the point index of Bᵀy.  The
        Sp part of g gives the steps of its Siegel word, whose Levi and Weyl
        signs make up sign and whose w Weyl factors each carry G^{-n}; the H
        part gives one monomial step.  The Sp part's steps are the context's
        one memo, kept (bounded) when g has an H part, where one Sp part
        serves many H parts.
        """
        kind = _element_kind(g, self.n)
        s, h = (g, None) if kind == "sp" else (None, g) if kind == "heis" else g
        sign, w, steps = 1, 0, []
        if s is not None:
            got = self._step_cache.get(s)
            if got is None:
                got = self._sp_steps(s)
                if h is not None:
                    _remember(self._step_cache, s, got, self._cache_cap)
            sign, w, steps = got
        if h is not None:
            steps = steps + [self._heis_step(h)]
        return sign, w, steps

    def _sp_steps(self, s: tuple) -> tuple[int, int, list]:
        """Sign, Weyl count and steps of the Siegel word of a symplectic s."""
        sign, w, steps = 1, 0, []
        for tag, param in siegel_factor(self.tower, self.n, self.level, s):
            if tag == "unip":
                steps.append((self._every, self._unip_exps(param)))
                continue
            if tag == "levi":
                cols, eps = self._levi_perm(param)
                steps.append((cols, self._flat))
            else:
                cols, eps = self._weyl_factor(param)
                steps.append((cols, None))
                w += 1
            sign *= eps
        return sign, w, steps

    def _heis_step(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Step of h = (x, x*; t): row y has column y + x* and the
        ψ'-exponent of t − ½·x·x* − y·x."""
        tower, n, coords = self.tower, self.n, self._coordinates()
        v, t = h
        dot = tower.zero
        for i in range(n):
            dot = tower.add(dot, tower.mul(v[i], v[n + i]))
        k = tower.psi_exponent(tower.sub(t, tower.mul(tower.half, dot)), self.level, self.scale)
        vec = coords.vector(v)
        cx, cxs = vec[: len(vec) // 2], vec[len(vec) // 2 :]
        return coords.index((coords.pts + cxs) % self.p), (k - coords.pts_g @ cx) % self.p

    def _unip_exps(self, b: tuple) -> np.ndarray:
        """ζ-exponents of the diagonal of [[1,b],[0,1]]; b must be symmetric n×n."""
        tower, n = self.tower, self.n
        for i in range(n):
            for j in range(n):
                if b[i * n + j] != b[j * n + i]:
                    raise NotSymplectic("unipotent block is not self-adjoint")
        coords = self._coordinates()  # ψ'(⟨b y*, y*⟩/2) = ψ'((b/2)y*·y*)
        half_b = tuple(tower.mul(tower.half, x) for x in b)
        return coords.pairing(coords.apply(half_b), coords.pts)

    def _levi_perm(self, a: tuple) -> tuple[np.ndarray, int]:
        """Columns y ↦ aᵀ y and the sign ε'(det a) of diag(a, (aᵀ)^{-1})."""
        det = mat_det(self.tower, a, self.n)
        if det == self.tower.zero:
            raise Singular("Levi block is singular")
        return self._image(mat_transpose(a, self.n)), self.eps(det)

    def _weyl_factor(self, b: tuple | None) -> tuple[np.ndarray, int]:
        """Point index of Bᵀy for every row y, and the sign ε'(-2)^n·ε'(det B)."""
        tower, n = self.tower, self.n
        B = mat_identity(tower, n) if b is None else b
        det = mat_det(tower, B, n)
        if det == tower.zero:
            raise NotSymplectic("Weyl block is singular")
        sign = self.eps(tower.from_int(tower.p - 2)) ** n * self.eps(det)
        return self._image(mat_transpose(B, n)), sign

    def _weyl_exps(self, bty: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """ψ-exponents of ⟨x_col, Bᵀy_row⟩ for rows bty (the indices of Bᵀy):
        against every column, or against cols entrywise."""
        coords = self._coordinates()
        if cols is None:
            return coords.pts_g[bty] @ coords.pts.T % self.p
        return coords.pairing(coords.pts[bty], coords.pts[cols])

    # -- generator operators -------------------------------------------------------

    def op_heis(self, h) -> WeilOperator:
        """Operator of a Heisenberg element (v, t)."""
        return self._dense(self._heis_step(h))

    def op_unip(self, b: tuple) -> WeilOperator:
        """Diagonal operator of [[1,b],[0,1]]; b must be symmetric n×n."""
        return self._dense((self._every, self._unip_exps(b)))

    def op_levi(self, a: tuple) -> WeilOperator:
        """Signed permutation of diag(a, (aᵀ)^{-1}): f ↦ ε'(det a) f(aᵀ y*)."""
        cols, sign = self._levi_perm(a)
        return self._dense((cols, self._flat), sign)

    def op_weyl(self, b: tuple | None = None) -> WeilOperator:
        """Fourier operator of [[0,B],[-(Bᵀ)^{-1},0]]; B: X* → X, default identity."""
        bty, sign = self._weyl_factor(b)
        return self._dense((bty, None), sign).scale(self._weyl_constant(1))

    def op_galois(self, j: int) -> WeilOperator:
        """I_σ^j: f ↦ f(σ^{-j}·), a permutation of the basis points."""
        return self._dense((self.galois_perm(j), self._flat))

    def galois_perm(self, j: int) -> np.ndarray:
        """Column positions: point index y ↦ index of σ^{-j}(y)."""
        j = j % self.level
        got = self._gal_perm.get(j)
        if got is None:
            frob, coords = self.tower.frobenius, self._coordinates()
            got = coords.index(coords.image(lambda v: tuple(frob(c, -j) for c in v)))
            self._gal_perm[j] = got
        return got

    # -- the representation ------------------------------------------------------------

    def build_rho(self, g) -> WeilOperator:
        """ρ of a symplectic matrix, Heisenberg element, or (s, h) product:
        the product of the dense factors of its steps."""
        sign, w, steps = self._steps(g)
        out = self._dense(steps[0], sign)
        for step in steps[1:]:
            out = out @ self._dense(step)
        return out.scale(self._weyl_constant(w)) if w else out

    def extended_trace(self, i: int, g) -> CycNum:
        """tr ρ̃'(σ^i, g) = tr(ρ(g)·I_σ^i) for g in Sp·H at this level: the
        sum Σ_y ρ(g)[y, σ^i y] along the steps of g, no matrix built.

        A path follows one nonzero entry per factor.  Monomial steps move a
        path deterministically, and the constant of the steps is common to
        all paths.  After the last Weyl step the steps are monomial again, so
        they are folded into the column a path must reach there, fixed by its
        row; only earlier Weyl steps branch over every column.  Elements with
        at most one Weyl step cost O(dim), the singular-corner word with two
        costs O(dim²).
        """
        sign, w, steps = self._steps(g)
        dim, p = self.dim, self.p
        goal, exp = self.galois_perm(-i), np.zeros(dim, dtype=np.int64)  # row y ↦ σ^i(y)
        last = len(steps)
        while w and steps[last - 1][1] is not None:  # fold the monomial tail into the goal
            cols, exps = steps[last - 1]
            back = np.empty(dim, dtype=np.intp)
            back[cols] = self._every
            goal = back[goal]
            exp = exp + exps[goal]
            last -= 1
        *hist, top = self._walk(steps[:last], self._every, goal, exp).tolist()
        total = CycNum(p, [sign * (c - top) for c in hist])  # ζ^{p-1} = −Σ_{e<p-1} ζ^e
        return self._weyl_constant(w) * total if w else total

    def _walk(self, steps: list, cur: np.ndarray, goal: np.ndarray, exp: np.ndarray) -> np.ndarray:
        """Histogram of ζ-exponents over the paths cur → goal through steps.

        A Weyl step that comes last goes straight to the goal; an earlier one
        branches over every column.
        """
        for k, (data, exps) in enumerate(steps):
            if exps is not None:
                exp = exp + exps[cur]
                cur = data[cur]
            elif k == len(steps) - 1:
                exp = exp + self._weyl_exps(data[cur], goal)
                cur = goal
            else:
                hist = np.zeros(self.p, dtype=np.int64)
                chunk = max(1, _PATH_CHUNK // self.dim)
                for lo in range(0, len(cur), chunk):
                    sl = slice(lo, lo + chunk)
                    branched = self._weyl_exps(data[cur[sl]]) + exp[sl, None]
                    hist += self._walk(
                        steps[k + 1:], np.tile(self._every, len(branched)),
                        np.repeat(goal[sl], self.dim), branched.ravel(),
                    )
                return hist
        hit = cur == goal
        return np.bincount(exp[hit] % self.p, minlength=self.p)

    def slice_traces(self, j: int, s: tuple, vs: np.ndarray, ts=None) -> tuple[int, int, np.ndarray]:
        """tr ρ̃'(σʲ, (s, (v, t))) for one Sp part s and many Heisenberg parts:
        (sign, w, rows) with the trace at point k sign·G^{-n·w}·Σ_e rows[k, e]·ζ^e.

        vs holds the coordinates (x, x*) of each v (`v_points`, `heis_points`,
        `move`), and ts the ψ'-exponents of the t (default 0).  The steps of s are walked once
        from every row into paths y → c (`_paths`); the Heisenberg step sends c
        to c + x* with the exponent of t − ½x·x* − c·x, and a path counts for
        a point when it ends at σʲ(y).  Costs O(paths·H) for the match.
        """
        sign, w, steps = self._steps(s)
        coords, p = self._coordinates(), self.p
        starts, ends, exp = self._paths(steps)
        x, xs = vs[:, : vs.shape[1] // 2], vs[:, vs.shape[1] // 2 :]
        k = -self.tower.half * coords.pairing(x, xs) + (0 if ts is None else ts)
        need = coords.index((coords.pts[self.galois_perm(-j)[starts]] - coords.pts[ends]) % p)  # x* closing a path
        pi, hi = np.nonzero(need[:, None] == coords.index(xs)[None, :])
        e = (exp[pi] + k[hi] - (coords.pts_g[ends[pi]] * x[hi]).sum(axis=1)) % p
        check_int64(len(starts) * len(vs), "trace histogram")
        return sign, w, np.bincount(hi * p + e, minlength=len(vs) * p).reshape(-1, p)

    def _paths(self, steps: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every path through steps from every row: (start row, end column,
        ζ-exponent).  A Weyl step branches each path over every column."""
        starts = cur = self._every
        exp = np.zeros(self.dim, dtype=np.int64)
        for data, exps in steps:
            if exps is not None:
                exp, cur = exp + exps[cur], data[cur]
            else:
                exp = (exp[:, None] + self._weyl_exps(data[cur])).ravel()
                starts, cur = np.repeat(starts, self.dim), np.tile(self._every, len(cur))
        return starts, cur, exp % self.p

    def translation_rows(self, j: int, s: tuple, vs: np.ndarray, ts=None, slot: int | None = None) -> np.ndarray:
        """The character induced from Γ⋉s·K over Heisenberg translations, at the
        points (σʲ, (s, (v, t))) of `slice_traces`: one row of ψ'-exponent
        counts Σ_r [z ∈ K]·ψ'(t_z) per point, for z = r⁻¹·(s, (v, t))·σʲ(r).

        The reps r = (1, (v_r, 0)) run over V's slot `slot` (all of V when
        None), and z lies in K when that slot of its V-part vanishes.  With
        a = s⁻¹v_r and b = σʲ(v_r), z = (s, (v + b − a, t_z)) and t_z = t +
        ½⟨v, a + b⟩ − ½⟨a, b⟩: for each rep, an affine map of the points.
        """
        coords, tower, p, size = self._coordinates(), self.tower, self.p, 2 * self.n
        width = len(coords.basis)
        sel = slice(None) if slot is None else slice(slot * width, (slot + 1) * width)
        reps = coords.points(size if slot is None else 1)
        if slot is not None:
            reps = np.pad(reps, ((0, 0), (slot * width, (size - 1 - slot) * width)))
        a = self.move(mat_inv(tower, s, size), reps)
        b = reps @ coords.linear(lambda v: tuple(tower.frobenius(c, j) for c in v), size) % p
        ri, vi = np.nonzero(coords.index((a - b)[:, sel] % p)[:, None] == coords.index(vs[:, sel])[None, :])
        e = tower.half * (coords.symplectic(vs[vi], a[ri] + b[ri]) - coords.symplectic(a[ri], b[ri]))
        e = (e + (0 if ts is None else ts[vi])) % p
        check_int64(len(reps) * len(vs), "induced histogram")
        return np.bincount(vi * p + e, minlength=len(vs) * p).reshape(-1, p)

    def v_points(self) -> np.ndarray:
        """Coordinates of every v in V = X ⊕ X* at this level, in the order
        `HeisGroup.elements` lists the V-parts."""
        return self._coordinates().points(2 * self.n)

    def heis_points(self) -> tuple[np.ndarray, np.ndarray]:
        """V-part coordinates and ψ'-exponents of t of every (v, t) in H at this
        level, v outer and t inner as `HeisGroup.elements` lists them."""
        psi = [self.tower.psi_exponent(t, self.level, self.scale) for t in self.tower.level_elements(self.level)]
        vs = self.v_points()
        return np.repeat(vs, self.Q, axis=0), np.tile(np.array(psi, dtype=np.int64), len(vs))

    def move(self, g: tuple, vs: np.ndarray) -> np.ndarray:
        """Coordinates of g·v for the V-coordinate rows vs; g is symplectic."""
        size = 2 * self.n
        return vs @ self._coordinates().linear(lambda v: mat_vec(self.tower, g, v, size), size) % self.p

    def value(self, row, w: int = 0) -> CycNum:
        """G^{-n·w}·Σ_e row[e]·ζ^e for an integer row of ψ'-exponent counts."""
        total = CycNum(self.p, [int(c) - int(row[-1]) for c in row[:-1]])
        return self._weyl_constant(w) * total if w else total

    def gauss_rows(self, rows: np.ndarray, w: int) -> np.ndarray:
        """rows·G^{n·w}: each row Σ_e rows[e]·ζ^e times the Gauss sum to the n·w."""
        g = np.array(self.gauss.num + (0,), dtype=np.int64)  # G is a cyclotomic integer
        for _ in range(self.n * w):
            check_int64(int(np.abs(rows).max(initial=0)) * int(np.abs(g).max()) * self.p, "Gauss-sum product")
            rows = sum(g[e] * np.roll(rows, e, axis=-1) for e in range(self.p))
        return rows

    def norm_total(self, rows: np.ndarray) -> CycNum:
        """Σ_k |x_k|² for the values x_k = Σ_e rows[k, e]·ζ^e."""
        check_int64(int(np.abs(rows).max(initial=0)) ** 2 * rows.size, "norm sum")
        return self.value([int((rows * np.roll(rows, e, axis=1)).sum()) for e in range(self.p)])


class _Coordinates:
    """Basis points of a RepContext as vectors over F_p.

    The coordinates of elems[r], for the level's elements elems, are the
    base-p digits of r: its coefficients on the tower's level basis β, whose
    vectors are elems[p^a].  The trace form is F_p-bilinear, so with Gram
    matrix T[a, b] = Tr(scale·β_a·β_b) the ψ'-exponent of x·w for points x, w
    is c(x)·(1_n ⊗ T)·c(w) mod p, and an F_p-linear map of points (mat·y,
    Frobenius) is a linear map of coordinates.  Building the model costs
    O(k²) tower multiplications for the F_p-dimension k of the level.
    """

    def __init__(self, ctx: RepContext):
        tower, p, n = ctx.tower, ctx.p, ctx.n
        elems = tower.level_elements(ctx.level)
        k = len(tower.level_pivots(ctx.level))
        self.ctx = ctx
        self.basis = [elems[p**a] for a in range(k)]
        place = p ** np.arange(k)
        self._of = dict(zip(elems, np.arange(len(elems))[:, None] // place % p))
        psi = [[tower.psi_exponent(tower.mul(a, b), ctx.level, ctx.scale) for b in self.basis] for a in self.basis]
        gram = np.array(psi, dtype=np.int64)
        # the tuple (elems[r_0], …, elems[r_{s-1}]) has index Σ_i r_i·Q^(s-1-i):
        # the last s·k of the weights of 2n-tuples, the widest tuples indexed
        self._weights = np.outer(len(elems) ** np.arange(2 * n - 1, -1, -1), place).ravel()
        self.pts = self.points(n)
        self._gram = np.kron(np.eye(n, dtype=np.int64), gram)
        self.pts_g = self.pts @ self._gram % p

    def vector(self, v) -> np.ndarray:
        """Coordinates of a tuple v of level elements, concatenated."""
        return np.concatenate([self._of[c] for c in v])

    def linear(self, f, slots: int) -> np.ndarray:
        """The matrix lin with c(f(y)) = c(y) @ lin mod p, for f F_p-linear on
        slots-tuples of level elements; row (i, a) is c(f(β_a·e_i))."""
        zero = self.ctx.tower.zero
        return np.array([self.vector(f(tuple(beta if k == i else zero for k in range(slots))))
                         for i in range(slots) for beta in self.basis])

    def image(self, f) -> np.ndarray:
        """Coordinates of f(y) for every basis point y; f is F_p-linear on points."""
        return self.pts @ self.linear(f, self.ctx.n) % self.ctx.p

    def apply(self, mat: tuple) -> np.ndarray:
        """Coordinates of mat·y for every basis point y (mat is n×n)."""
        tower, n = self.ctx.tower, self.ctx.n
        return self.image(lambda v: mat_vec(tower, mat, v, n))

    def index(self, coords: np.ndarray) -> np.ndarray:
        """Indices of coordinate rows of tuples (basis points when n-tuples)."""
        return coords @ self._weights[-coords.shape[-1] :]

    def points(self, slots: int) -> np.ndarray:
        """Coordinates of every slots-tuple of level elements, in index order."""
        weights = self._weights[-slots * len(self.basis) :]
        return np.arange(self.ctx.Q**slots)[:, None] // weights % self.ctx.p

    def pairing(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """ψ'-exponents of x·w for coordinate rows xs, ws, entrywise."""
        return (xs @ self._gram % self.ctx.p * ws).sum(axis=1) % self.ctx.p

    def symplectic(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """ψ'-exponents of ⟨u, v⟩ = u·v* − u*·v for coordinate rows of V = X ⊕ X*."""
        h = us.shape[1] // 2
        return (self.pairing(us[:, :h], vs[:, h:]) - self.pairing(us[:, h:], vs[:, :h])) % self.ctx.p


def _remember(memo: dict, key, value, cap: int) -> None:
    """Store value under key, first evicting the oldest entry if memo holds cap."""
    if len(memo) >= cap:
        memo.pop(next(iter(memo)))
    memo[key] = value


def _element_kind(g, n: int) -> str:
    """Distinguish matrix / Heisenberg (v,t) / product (s,(v,t)) tuples."""
    if not isinstance(g, tuple):
        raise DimensionMismatch(f"unrecognized element {g!r}")
    if len(g) == (2 * n) ** 2:
        return "sp"
    if len(g) == 2 and isinstance(g[0], tuple):
        if len(g[0]) == (2 * n) ** 2:
            return "sph"
        if len(g[0]) == 2 * n:
            return "heis"
    raise DimensionMismatch(f"unrecognized element {g!r}")


def siegel_factor(tower: Tower, n: int, level: int, g: tuple) -> list:
    """Factor a symplectic matrix into unipotent/Levi/Weyl generators.

    Returns tags ('unip', b), ('levi', a), ('weyl', B); the product of the
    tagged matrices equals g exactly (checked).
    """
    from .grouplib import membership

    kind, _ = membership(tower, g, n, level)
    if kind != "sp":
        raise NotSymplectic("input matrix is not symplectic at this level")
    word = _siegel_factor_inner(tower, n, level, g)
    spec = SympGroup(tower, n, level)
    prod = mat_identity(tower, 2 * n)
    for tag, param in word:
        if tag == "unip":
            fac = spec.unipotent(param)
        elif tag == "levi":
            fac = spec.levi(param)
        else:
            fac = spec.weyl(param)
        prod = mat_mul(tower, prod, fac, 2 * n)
    if prod != g:
        raise FactorizationFailed("factor word does not reproduce the element")
    return word


def _blocks(g: tuple, n: int):
    size = 2 * n
    a = tuple(g[i * size + j] for i in range(n) for j in range(n))
    b = tuple(g[i * size + n + j] for i in range(n) for j in range(n))
    c = tuple(g[(n + i) * size + j] for i in range(n) for j in range(n))
    d = tuple(g[(n + i) * size + n + j] for i in range(n) for j in range(n))
    return a, b, c, d


def _siegel_factor_inner(tower: Tower, n: int, level: int, g: tuple) -> list:
    a, b, c, d = _blocks(g, n)
    zero_blk = tuple(tower.zero for _ in range(n * n))
    ident_blk = mat_identity(tower, n)
    if c == zero_blk:
        # upper triangular: g = u(b aᵀ)·levi(a)
        bt = mat_mul(tower, b, mat_transpose(a, n), n)
        word = [("unip", bt), ("levi", a)]
        return [(tag, par) for tag, par in word
                if not (tag == "unip" and par == zero_blk) and not (tag == "levi" and par == ident_blk)] or [("levi", a)]
    detc = mat_det(tower, c, n)
    if detc != tower.zero:
        cinv = mat_inv(tower, c, n)
        b1 = mat_mul(tower, a, cinv, n)
        b2 = mat_mul(tower, cinv, d, n)
        Bw = mat_neg(tower, mat_inv(tower, mat_transpose(c, n), n))
        word = [("unip", b1), ("weyl", Bw), ("unip", b2)]
        return [(tag, par) for tag, par in word if not (tag == "unip" and par == zero_blk)]
    # c nonzero but singular: find symmetric b0 with c·b0 + d invertible
    spec = SympGroup(tower, n, level)
    field = tower.level_elements(level)
    sym_slots = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in iproduct(field, repeat=len(sym_slots)):
        b0 = [tower.zero] * (n * n)
        for (i, j), val in zip(sym_slots, combo):
            b0[i * n + j] = val
            b0[j * n + i] = val
        b0 = tuple(b0)
        cb0d = tuple(
            tower.add(x, y) for x, y in zip(mat_mul(tower, c, b0, n), d)
        )
        if mat_det(tower, cb0d, n) != tower.zero:
            gp = mat_mul(tower, mat_mul(tower, g, spec.unipotent(b0), 2 * n), spec.weyl(), 2 * n)
            inner = _siegel_factor_inner(tower, n, level, gp)
            minus_id = mat_neg(tower, mat_identity(tower, n))
            neg_b0 = mat_neg(tower, b0)
            return inner + [("weyl", minus_id), ("unip", neg_b0)]
    raise FactorizationFailed("no symmetric correction block found")


# -- similitude character machinery -----------------------------------------------------


def _similitude_cosets(ctx: RepContext, j: int):
    """GSp at the context's level, the (r⁻¹, σʲ(r)) pairs of the coset
    representatives r = diag(λ·1, 1) of Sp in GSp, and the Sp test; built
    once per (context, j).

    Each z = r⁻¹·g·σʲ(r) with g in GSp lies in GSp at the level, so z is in
    Sp exactly when its multiplier ⟨z e₁, z f₁⟩ is 1.
    """
    got = ctx._gsp_cosets.get(j)
    if got is not None:
        return got
    tower, n, level = ctx.tower, ctx.n, ctx.level
    gsp = SympGroup(tower, n, level, similitude=True)
    reps = [gsp.similitude_rep(lam) for lam in tower.level_elements(level) if lam != tower.zero]
    size = gsp.size

    def in_sp(z):  # columns 0 and n are z e₁ and z f₁
        return gsp.space.form(tower, z[0::size], z[n::size]) == tower.one

    ctx._gsp_cosets[j] = got = (gsp, coset_pairs(gsp, reps, j), in_sp)
    return got


def gsp_character_values(ctx: RepContext, partition) -> dict:
    """Values of π_d = Ind_{Sp}^{GSp} ρ_d on the classes of GSp(F_{q^d})."""
    return {rep: extended_gsp_trace(ctx, 0, rep) for rep in partition.reps}


def extended_gsp_trace(ctx: RepContext, i: int, g: tuple) -> CycNum:
    """Character of Ind_{Γ⋉Sp(F')}^{Γ⋉GSp(F')} ρ̃' at (σ^i, g), g in GSp(F')."""
    gsp, pairs, in_sp = _similitude_cosets(ctx, i)
    return induced_trace(gsp, pairs, g, in_sp, lambda z: ctx.extended_trace(i, z))
