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

Every element g of Sp, H or Sp·H has one model, its steps: the unipotent,
Levi and Weyl factors of the Siegel word of its Sp part, one monomial step
for its H part, and a constant sign·G^{-n·w} for w Weyl factors.
Unipotent, Levi and Heisenberg steps are monomial, and each Weyl entry is
one ψ-exponent of the F_p-bilinear pairing x·w, tabulated per context as
point coordinates and a trace-form Gram matrix.

The model is stacked: a whole stack of symplectic elements, as digit arrays
(E, 2n, 2n, A), is checked (gᵀJg = J), split by its c block into the cells
c = 0, c invertible and c singular, factored with one word shape per cell,
and certified (the word's product is g) in a few whole-stack numpy
operations (`_siegel_words`).  Each cell's words become steps over the
stack's rows laid end to end (`_word_steps`), their signs read off F_p
determinants of the factors' actions on point coordinates, and the cell's
H parts one more step (`_stacked_steps`).  It is the only factorization,
and nothing is kept: one element is the stack of one, at several times the
per-element cost, so each consumer takes a whole family (`extended_traces`,
`slice_traces`, `rhos`); `siegel_factor` is a tuple view of a stack of one.

Every trace takes its paths through the steps from one walker, `_paths`,
and builds no matrix: the extended trace closes each path in its last Weyl
entry, for one element or a whole stack, a slice trace matches an Sp part's
paths against a whole array of H parts.  Induced
characters need no per-coset product either: `translation_rows` counts the
Heisenberg translations on coordinate arrays, and `extended_gsp_trace` keeps
the similitude cosets that the multiplier of g selects.  Dense operators, the
product of the steps' dense factors, are built only where whole operators
are compared or multiplied (`build_rho`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import gcd

import numpy as np

from . import modp
from .cyclotomic import CycNum, check_int64, gauss_sum
from .errors import DimensionMismatch, FactorizationFailed, NotSymplectic, OperatorOverflow, Singular
from .fieldtower import Tower
from .grouplib import SympGroup, form, is_symplectic, mat_identity, siegel_matrices

_STACK_CAP = 128  # elements factored at once
_PATH_CAP = 1 << 13  # paths held at once by one stacked trace walk
_EXACT_BOUND = 2**53  # float64 holds every integer below this exactly


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
        self.conjmat = self._units[-np.arange(self.p - 1) % self.p].T  # column e: the vector of ζ^{−e}
        exps = np.arange(self.p - 1)
        self._fold_table = self._units[(exps[:, None] + exps).ravel() % self.p]  # row (r, s): ζ^{r+s}
        self.gauss = gauss_sum(tower, level, self.scale)
        self.gauss_inv = self.gauss.inverse()
        self._every = np.arange(self.dim, dtype=np.intp)  # read-only: shared by steps
        self._flat = np.zeros(self.dim, dtype=np.intp)  # ζ-exponents of a permutation step
        self._gauss_pow: dict[int, CycNum] = {}
        self._gal_perm: dict[int, np.ndarray] = {}
        self._coords = None
        self._weyl_sign = self.eps(tower.from_int(self.p - 2)) ** n  # ε'(-2)^n of every Weyl factor

    # -- cyclotomic plumbing ----------------------------------------------------

    def fold(self, full: np.ndarray) -> np.ndarray:
        """Reduce (..., p-1, p-1) products to canonical (..., p-1) coefficients."""
        return full.reshape(*full.shape[:-2], -1) @ self._fold_table

    def eps(self, x) -> int:
        return self.tower.quad_char(x, self.level)

    def _coordinates(self) -> "_Coordinates":
        """The F_p-coordinate model of the basis points, built on first use."""
        if self._coords is None:
            self._coords = _Coordinates(self)
        return self._coords

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
        """sign times the dense factor of one step of one element (see `_word_steps`)."""
        cols, exps = step
        if exps is None:
            return WeilOperator(self, sign * self._units[self._weyl_exps(cols)])
        arr = np.zeros((self.dim, self.dim, self.p - 1), dtype=np.int64)
        arr[self._every, cols] = sign * self._units[exps]
        return WeilOperator(self, arr)

    # -- the steps of ρ(g) ----------------------------------------------------------

    def _steps(self, gs: list):
        """(sign, w, [F_1, …, F_k]) with ρ(g) = sign·G^{-n·w}·F_1⋯F_k for each g of gs, in
        order, factored a stack at a time (`_stacked_steps`): only one stack is held."""
        for start in range(0, len(gs), _STACK_CAP):
            got = [None] * len(gs[start : start + _STACK_CAP])
            for where, signs, w, steps in self._stacked_steps(gs[start : start + _STACK_CAP]):
                for e, at in enumerate(where.tolist()):
                    got[at] = int(signs[e]), w, self._element_steps(steps, e, e + 1)
            yield from got

    def _stacked_steps(self, gs: list):
        """The steps of the Sp, H and Sp·H elements gs (else DimensionMismatch), factored
        in stacks of at most _STACK_CAP: (indices into gs, signs, w, steps) per cell.

        Each Sp part gives the steps of its Siegel word, the identity (an H element's)
        none, and in a cell that holds an H part each element's H part (zero for a
        symplectic element) gives one more monomial step (`_heis_step`)."""
        tower, n = self.tower, self.n
        kinds = [_element_kind(g, n) for g in gs]
        one, zero = mat_identity(tower, 2 * n), ((tower.zero,) * (2 * n), tower.zero)
        sps = [g if kind == "sp" else one if kind == "heis" else g[0] for g, kind in zip(gs, kinds)]
        hs = [zero if kind == "sp" else g if kind == "heis" else g[1] for g, kind in zip(gs, kinds)]
        for start in range(0, len(gs), _STACK_CAP):
            stack = sps[start : start + _STACK_CAP]
            trivial = np.array([s == one for s in stack])
            ones = np.flatnonzero(trivial)
            cells = [(ones, np.ones(len(ones), dtype=np.int64), 0, [])] if len(ones) else []
            if not trivial.all():
                todo = np.flatnonzero(~trivial)
                digits = tower.digit_stack([stack[k] for k in todo], 2 * n)
                cells += [(todo[where], *self._word_steps(tags, blocks))
                          for where, tags, blocks in _siegel_words(tower, n, self.level, digits)]
            for where, signs, w, steps in cells:
                where = where + start
                if any(kinds[k] != "sp" for k in where.tolist()):
                    parts = [self._heis_step(hs[k], e * self.dim) for e, k in enumerate(where.tolist())]
                    steps.append(tuple(np.concatenate(part) for part in zip(*parts)))
                yield where, signs, w, steps

    def _word_steps(self, tags: tuple, blocks: np.ndarray) -> tuple[np.ndarray, int, list]:
        """Signs (E,), Weyl count w and steps of a stack of E Siegel words of one shape.

        tags names the factors and blocks (E, factors, n, n, A) holds the digit
        matrices of their parameters.  The E elements' rows are laid end to end,
        element e's row y at e·dim + y, and each step holds arrays over those
        rows: a monomial step (cols, exps) has the entry ζ^exps[y] at (y,
        cols[y]), a column of the same element; a Weyl step (bty, None) the
        entry ζ^(x·Bᵀy) at (y, x) for every column x of the element, bty
        holding the point index of Bᵀy within the element.

        By the generator formulas (module docstring), u(b) is diagonal with the
        ψ'-exponent of (b/2)y·y, levi(a) sends y to aᵀy with the sign ε'(det a),
        and weyl(B) carries ε'(-2)^n·ε'(det B).  The signs are read off
        coordinates: ε'(x) is the Legendre symbol of the norm N(x) to F_p, and
        N(det M) is the F_p-determinant of y ↦ M·y.
        """
        coords, p, dim = self._coordinates(), self.p, self.dim
        count, unip = len(blocks), np.array([tag == "unip" for tag in tags])
        moved = blocks.swapaxes(2, 3)  # Mᵀ for levi(M) and weyl(M); u(b) acts by b/2
        if not np.array_equal(moved[:, unip], blocks[:, unip]):
            raise NotSymplectic("unipotent block is not self-adjoint")
        lin = coords.action(np.where(unip[:, None, None, None], moved * self.tower.half % p, moved))
        images = coords.pts @ lin % p  # (E, factors, dim, n·k)
        signs = np.full(count, self._weyl_sign ** tags.count("weyl"))
        if not unip.all():
            det = modp.det(lin[:, ~unip], p)
            if not det.all():
                tag = tags[np.flatnonzero(~unip)[(det == 0).any(axis=0).argmax()]]
                raise Singular("Levi block is singular") if tag == "levi" else NotSymplectic("Weyl block is singular")
            signs = signs * modp.legendre(det, p).prod(axis=1)
        cols, exps = coords.index(images), coords.pairing(images, coords.pts)
        rows, base = self._rows(count)
        steps = [(rows, exps[:, f].ravel()) if tag == "unip" else
                 (cols[:, f].ravel() + base, np.zeros(count * dim, dtype=np.int64)) if tag == "levi" else
                 (cols[:, f].ravel(), None) for f, tag in enumerate(tags)]
        return signs, tags.count("weyl"), steps

    def _element_steps(self, steps: list, start: int, stop: int) -> list:
        """The steps of elements start, …, stop − 1 of the stacked steps, rows renumbered from 0."""
        rows, shift = slice(start * self.dim, stop * self.dim), start * self.dim
        return [(data[rows], None) if exps is None else (data[rows] - shift, exps[rows]) for data, exps in steps]

    def _rows(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of count elements laid end to end, and the first row of each row's element."""
        rows = np.arange(count * self.dim)
        return rows, rows - rows % self.dim

    def _heis_step(self, h, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Step of h = (x, x*; t), its rows and columns shifted by offset: row y
        has column y + x* and the ψ'-exponent of t − ½·x·x* − y·x."""
        tower, n, coords = self.tower, self.n, self._coordinates()
        v, t = h
        dot = tower.zero
        for i in range(n):
            dot = tower.add(dot, tower.mul(v[i], v[n + i]))
        k = tower.psi_exponent(tower.sub(t, tower.mul(tower.half, dot)), self.level, self.scale)
        vec = coords.vector(v)
        cx, cxs = vec[: len(vec) // 2], vec[len(vec) // 2 :]
        return coords.index((coords.pts + cxs) % self.p) + offset, (k - coords.pts_g @ cx) % self.p

    def _generator_op(self, tag: str, block: tuple) -> WeilOperator:
        """The signed dense factor of one generator, with no Gauss-sum constant."""
        signs, _, (step,) = self._word_steps((tag,), self.tower.digit_stack([block], self.n)[None])
        return self._dense(step, int(signs[0]))

    def _weyl_exps(self, bty: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """ψ-exponents of ⟨x_col, Bᵀy_row⟩ for rows bty (the indices of Bᵀy, any
        shape): against every column (a last axis added), or against cols entrywise."""
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
        return self._generator_op("unip", b)

    def op_levi(self, a: tuple) -> WeilOperator:
        """Signed permutation of diag(a, (aᵀ)^{-1}): f ↦ ε'(det a) f(aᵀ y*)."""
        return self._generator_op("levi", a)

    def op_weyl(self, b: tuple | None = None) -> WeilOperator:
        """Fourier operator of [[0,B],[-(Bᵀ)^{-1},0]]; B: X* → X, default identity."""
        B = mat_identity(self.tower, self.n) if b is None else b
        return self._generator_op("weyl", B).scale(self._weyl_constant(1))

    def op_galois(self, j: int) -> WeilOperator:
        """I_σ^j: f ↦ f(σ^{-j}·), a permutation of the basis points."""
        return self._dense((self.galois_perm(j), self._flat))

    def galois_perm(self, j: int) -> np.ndarray:
        """Column positions: point index y ↦ index of σ^{-j}(y)."""
        j = j % self.level
        got = self._gal_perm.get(j)
        if got is None:
            coords = self._coordinates()
            got = coords.index(coords.frobenius(-j, coords.pts))
            self._gal_perm[j] = got
        return got

    # -- the representation ------------------------------------------------------------

    def build_rho(self, g, steps: tuple | None = None) -> WeilOperator:
        """ρ of a symplectic matrix, Heisenberg element, or (s, h) product: the
        product of the dense factors of its steps (sign, w, steps), given by
        `rhos` or else factored as a stack of one.  Identity steps, the trivial
        factors u(0) and levi(1) that a stacked word keeps for its cell's shape,
        are skipped."""
        sign, w, steps = next(self._steps([g])) if steps is None else steps
        kept = [(c, e) for c, e in steps if e is None or e.any() or not np.array_equal(c, self._every)]
        kept = kept or [(self._every, self._flat)]
        out = self._dense(kept[0], sign)
        for step in kept[1:]:
            out = out @ self._dense(step)
        return out.scale(self._weyl_constant(w)) if w else out

    def rhos(self, gs):
        """build_rho of each element of gs, in order, the steps factored a stack at a time."""
        gs = list(gs)
        for g, steps in zip(gs, self._steps(gs)):
            yield self.build_rho(g, steps)

    def extended_trace(self, i: int, g) -> CycNum:
        """tr ρ̃'(σ^i, g) = tr(ρ(g)·I_σ^i): `extended_traces` of the stack of one."""
        return self.extended_traces(i, [g])[0]

    def extended_traces(self, i: int, gs) -> list[CycNum]:
        """tr ρ̃'(σ^i, g) for every g of the sequence gs (Sp, H or Sp·H), in one pass:
        the sum Σ_y ρ(g)[y, σ^i y] along the steps of g.

        The stack is checked and factored on digit arrays (`_siegel_words`), one
        word shape per cell of the c block, in stacks of at most _STACK_CAP
        elements; each cell's words become stacked steps (`_stacked_steps`) and
        one row of ψ'-exponent counts per element (`_trace_rows`), walked in
        chunks of at most _PATH_CAP paths.  A repeated element is traced once.
        """
        todo = list(dict.fromkeys(gs))
        out = [None] * len(todo)
        for where, signs, w, steps in self._stacked_steps(todo):
            size = max(1, _PATH_CAP // self.dim ** max(w, 1))
            for k in range(0, len(where), size):
                part = self._element_steps(steps, k, min(k + size, len(where)))
                counts = signs[k : k + size, None] * self._trace_rows(i, w, part, len(where[k : k + size]))
                for at, row in zip(where[k : k + size].tolist(), counts):
                    out[at] = self.value(row, w)
        value = dict(zip(todo, out))
        return [value[g] for g in gs]

    def _trace_rows(self, i: int, w: int, steps: list, count: int = 1) -> np.ndarray:
        """Counts (count, p) of ψ'-exponents of tr(F_1⋯F_k·I_σ^i) = Σ_y (F_1⋯F_k)[y, σ^i y]
        for the steps of count elements (`_word_steps`), no matrix built.

        A path follows one nonzero entry per factor (`_paths`).  After the
        last Weyl step the steps are monomial, so they are folded into the
        column a path must reach there, fixed by its row, and each path up to
        that step is closed in one Weyl entry; without a Weyl step the paths
        that end at σ^i y count.  Words with at most one Weyl step cost
        O(dim), the singular-corner word with two costs O(dim²).
        """
        dim, p = self.dim, self.p
        rows, base = self._rows(count)
        goal = base + np.tile(self.galois_perm(-i), count)  # row y ↦ σ^i(y)
        exp = np.zeros(count * dim, dtype=np.int64)
        last = len(steps)
        while w and steps[last - 1][1] is not None:  # fold the monomial tail into the goal
            cols, exps = steps[last - 1]
            back = np.empty(count * dim, dtype=np.intp)
            back[cols] = rows
            goal = back[goal]
            exp = exp + exps[goal]
            last -= 1
        if w:
            starts, ends, exps = self._paths(steps[: last - 1], count)
            exps = (exps + exp[starts] + self._weyl_exps(steps[last - 1][0][ends], goal[starts] % dim)) % p
        else:
            starts, ends, exps = self._paths(steps, count)
            exps = np.where(ends == goal[starts], exps, p)  # p counts the paths that miss σ^i y
        counts = np.bincount(starts // dim * (p + 1) + exps, minlength=count * (p + 1))
        return counts.reshape(count, p + 1)[:, :p]

    def slice_traces(self, j: int, ss, vs: np.ndarray, ts=None):
        """tr ρ̃'(σʲ, (s, (v, t))) for each Sp part s of the sequence ss and many
        Heisenberg parts, one slice at a time: (sign, w, rows) per s, the trace at
        point k sign·G^{-n·w}·Σ_e rows[k, e]·ζ^e.

        vs holds the coordinates (x, x*) of each v (`v_points`, `heis_points`,
        `move`), and ts the ψ'-exponents of the t (default 0).  The steps of s are walked once
        from every row into paths y → c (`_paths`); the Heisenberg step sends c
        to c + x* with the exponent of t − ½x·x* − c·x, and a path counts for
        a point when it ends at σʲ(y).  Costs O(paths·H) for the match.
        """
        coords, p = self._coordinates(), self.p
        x, xs = vs[:, : vs.shape[1] // 2], vs[:, vs.shape[1] // 2 :]
        k = -self.tower.half * coords.pairing(x, xs) + (0 if ts is None else ts)
        goal, moved = coords.pts[self.galois_perm(-j)], coords.index(xs)
        for sign, w, steps in self._steps(list(ss)):
            starts, ends, exp = self._paths(steps)
            need = coords.index((goal[starts] - coords.pts[ends]) % p)  # x* closing a path
            pi, hi = np.nonzero(need[:, None] == moved[None, :])
            e = (exp[pi] + k[hi] - (coords.pts_g[ends[pi]] * x[hi]).sum(axis=1)) % p
            check_int64(len(starts) * len(vs), "trace histogram")
            yield sign, w, np.bincount(hi * p + e, minlength=len(vs) * p).reshape(-1, p)

    def _paths(self, steps: list, count: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every path through the steps of count elements (`_word_steps`) from
        every row: (start row, end column, ζ-exponent), rows and columns laid
        end to end.  A Weyl step branches each path over every column of its
        element, so w of them make dim^(w+1) paths per element, all held at once."""
        starts = cur = self._rows(count)[0]
        exp = np.zeros(count * self.dim, dtype=np.int64)
        for data, exps in steps:
            if exps is not None:
                exp, cur = exp + exps[cur], data[cur]
            else:
                exp = (exp[:, None] + self._weyl_exps(data[cur])).ravel()
                starts, cur = np.repeat(starts, self.dim), (cur - cur % self.dim)[:, None] + self._every
                cur = cur.ravel()
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
        a = self.move(SympGroup(tower, self.n, self.level).inv(s), reps)
        b = coords.frobenius(j, reps)
        ri, vi = np.nonzero(coords.index((a - b)[:, sel] % p)[:, None] == coords.index(vs[:, sel])[None, :])
        e = tower.half * (coords.symplectic(vs[vi], a[ri] + b[ri]) - coords.symplectic(a[ri], b[ri]))
        e = (e + (0 if ts is None else ts[vi])) % p
        check_int64(len(reps) * len(vs), "induced histogram")
        return np.bincount(vi * p + e, minlength=len(vs) * p).reshape(-1, p)

    def v_points(self) -> np.ndarray:
        """Coordinates of every v in V = X ⊕ X* at this level, in the order
        `HeisGroup.elements` lists the V-parts."""
        return self._coordinates().points(2 * self.n)

    def v_coordinates(self, vs) -> np.ndarray:
        """Coordinate rows, laid out as in `v_points`, of V-parts vs (2n-tuples of level elements)."""
        return np.array([self._coordinates().vector(v) for v in vs])

    def heis_points(self) -> tuple[np.ndarray, np.ndarray]:
        """V-part coordinates and ψ'-exponents of t of every (v, t) in H at this
        level, v outer and t inner as `HeisGroup.elements` lists them."""
        psi = [self.tower.psi_exponent(t, self.level, self.scale) for t in self.tower.level_elements(self.level)]
        vs = self.v_points()
        return np.repeat(vs, self.Q, axis=0), np.tile(np.array(psi, dtype=np.int64), len(vs))

    def move(self, g: tuple, vs: np.ndarray) -> np.ndarray:
        """Coordinates of g·v for the V-coordinate rows vs; g is symplectic."""
        return vs @ self._coordinates().action(self.tower.digit_stack([g], 2 * self.n))[0] % self.p

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
    Frobenius) is a linear map of coordinates.  The digit of a level element
    at pivot a is its coordinate a, so each map is read off the F_p-matrix that
    carries it out on ambient digits: a stack of level matrices acts through
    its block matrices (`action`), σ^j through `Tower.frob_matrix`
    (`frobenius`).  Building the model costs O(k²) tower multiplications for
    the F_p-dimension k of the level.
    """

    def __init__(self, ctx: RepContext):
        tower, p, n = ctx.tower, ctx.p, ctx.n
        elems = tower.level_elements(ctx.level)
        pivots = tower.level_pivots(ctx.level)
        k = len(pivots)
        self.ctx = ctx
        self.basis = [elems[p**a] for a in range(k)]
        # c(y) @ _embed are the ambient digits of a level element y, and its digits at _pivots its coordinates
        self._embed, self._pivots = tower._level_basis(ctx.level), pivots
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

    def _restrict(self, digit_map: np.ndarray) -> np.ndarray:
        """The matrices lin (…, s·k, s·k) with c(f(y)) = c(y) @ lin mod p, for an F_p-linear f
        of s-tuples of level elements into themselves that digit_map (…, s·A, s·A) carries
        out on concatenated ambient digit rows."""
        *lead, rows, cols = digit_map.shape
        A = self._embed.shape[1]
        lin = self._embed @ digit_map.reshape(*lead, rows // A, A, cols)  # rows (i, a) from c(β_a·e_i)
        lin = lin.reshape(*lead, -1, cols // A, A)[..., self._pivots]  # columns (j, b) at the pivots
        return lin.reshape(*lead, lin.shape[-3], -1) % self.ctx.p

    def action(self, mats: np.ndarray) -> np.ndarray:
        """The matrices lin (E, s·k, s·k) with c(M·y) = c(y) @ lin mod p, for the
        digit matrices M (E, s, s, A) of a stack of s×s matrices over the level."""
        return self._restrict(self.ctx.tower.block_matrix(mats).swapaxes(-1, -2))

    def frobenius(self, j: int, ys: np.ndarray) -> np.ndarray:
        """Coordinates of σ^j(y) for the coordinate rows ys of tuples of level elements."""
        lin = self._restrict(self.ctx.tower.frob_matrix(j).T)
        return (ys.reshape(len(ys), -1, len(lin)) @ lin % self.ctx.p).reshape(ys.shape)

    def index(self, coords: np.ndarray) -> np.ndarray:
        """Indices of coordinate rows of tuples (basis points when n-tuples)."""
        return coords @ self._weights[-coords.shape[-1] :]

    def points(self, slots: int) -> np.ndarray:
        """Coordinates of every slots-tuple of level elements, in index order."""
        weights = self._weights[-slots * len(self.basis) :]
        return np.arange(self.ctx.Q**slots)[:, None] // weights % self.ctx.p

    def pairing(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """ψ'-exponents of x·w for coordinate rows xs, ws (last axis), entrywise."""
        return (xs @ self._gram % self.ctx.p * ws).sum(axis=-1) % self.ctx.p

    def symplectic(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """ψ'-exponents of ⟨u, v⟩ = u·v* − u*·v for coordinate rows of V = X ⊕ X*."""
        h = us.shape[1] // 2
        return (self.pairing(us[:, :h], vs[:, h:]) - self.pairing(us[:, h:], vs[:, :h])) % self.ctx.p


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


@lru_cache(maxsize=None)
def _identity_digits(tower: Tower, size: int) -> np.ndarray:
    """Digits (size, size, A) of the identity matrix, read-only."""
    out = np.zeros((size, size, tower.ambient_degree), dtype=np.int64)
    out[np.arange(size), np.arange(size), 0] = 1
    out.flags.writeable = False
    return out


def siegel_factor(tower: Tower, n: int, level: int, g: tuple) -> list:
    """Factor a symplectic matrix into unipotent/Levi/Weyl generators.

    Returns tags ('unip', b), ('levi', a), ('weyl', B): the checked word of
    `_siegel_words` on a stack of one, as tuples, with zero unipotent and
    identity Levi factors dropped (the identity keeps its Levi factor).  A
    reader's view of one word; the library factors through `_stacked_steps`.
    """
    size = 2 * n
    if len(g) != size * size:
        raise DimensionMismatch(f"expected a {size}x{size} matrix")
    ((_, tags, blocks),) = _siegel_words(tower, n, level, tower.digit_stack([g], size))
    ident = mat_identity(tower, n)
    word = zip(tags, tower.from_digit_stack(blocks[0]))
    kept = [(tag, par) for tag, par in word if not (tag == "unip" and not any(par) or tag == "levi" and par == ident)]
    return kept or [("levi", ident)]


def _siegel_words(tower: Tower, n: int, level: int, g: np.ndarray) -> list:
    """The checked Siegel words of a stack of digit matrices g (E, 2n, 2n, A):
    `_siegel_cells` after the stack's membership check, each cell's words
    checked against its elements.  Raises NotSymplectic or FactorizationFailed."""
    if not is_symplectic(tower, g, level).all():
        raise NotSymplectic("input matrix is not symplectic at this level")
    cells = _siegel_cells(tower, n, g)
    for where, tags, blocks in cells:
        _check_word(tower, g[where], tags, blocks)
    return cells


_BIG_CELL = ("unip", "weyl", "unip")


def _siegel_cells(tower: Tower, n: int, g: np.ndarray) -> list:
    """Siegel words of a stack of symplectic digit matrices g = [[a, b], [c, d]]
    (E, 2n, 2n, A), one word shape per cell of the c block: a list of
    (element indices, factor tags, digit blocks (E_cell, factors, n, n, A))
    over the nonempty cells.

    * c = 0: g = u(b·aᵀ)·levi(a);
    * c invertible: g = u(a·c⁻¹)·weyl(−(cᵀ)⁻¹)·u(c⁻¹·d) (`_big_cell`);
    * c singular: with b0 a diagonal 0/1 block and c·b0 + d invertible
      (`_corrections`), g·u(b0)·w lies in the big cell and g = (its word)·weyl(−1)·u(−b0).

    The word check is left to the caller (`_check_word`).
    """
    p = tower.p
    a, b, c, d = g[:, :n, :n], g[:, :n, n:], g[:, n:, :n], g[:, n:, n:]
    has_c = c.reshape(len(g), -1).any(axis=1)
    nonzero, cells = np.flatnonzero(has_c), []
    if not has_c.all():
        k = np.flatnonzero(~has_c)
        cells.append((k, ("unip", "levi"), np.stack([tower.matmul(b[k], a[k].swapaxes(1, 2)), a[k]], axis=1)))
    ci, big = tower.matinv(c[nonzero])
    if big.any():
        k = nonzero[big]
        cells.append((k, _BIG_CELL, _big_cell(tower, a[k], ci[big], d[k])))
    if not big.all():
        k = nonzero[~big]
        b0 = _corrections(tower, n, c[k], d[k])
        # g·u(b0)·w = [[−(a·b0 + b), a], [−(c·b0 + d), c]] for w = weyl(1)
        ab, cd = tower.matmul(a[k], b0) + b[k], tower.matmul(c[k], b0) + d[k]
        cdi, _ = tower.matinv(-cd % p)  # invertible by the choice of b0
        minus_one = np.broadcast_to(-_identity_digits(tower, n) % p, b0.shape)
        blocks = np.concatenate([_big_cell(tower, -ab % p, cdi, c[k]), np.stack([minus_one, -b0 % p], axis=1)], axis=1)
        cells.append((k, _BIG_CELL + ("weyl", "unip"), blocks))
    return cells


def _big_cell(tower: Tower, a: np.ndarray, ci: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The blocks of the word u(a·c⁻¹)·weyl(−(cᵀ)⁻¹)·u(c⁻¹·d) of [[a, b], [c, d]], given ci = c⁻¹."""
    return np.stack([tower.matmul(a, ci), -ci.swapaxes(1, 2) % tower.p, tower.matmul(ci, d)], axis=1)


def _corrections(tower: Tower, n: int, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per pair of digit blocks (c, d) of a symplectic element, the first diagonal
    block b0 with entries 0 and 1, the (0, 0) entry varying slowest, such that
    c·b0 + d is invertible: digit blocks (E, n, n, A), from one stacked determinant.

    One always exists.  The rows of [c d] span a Lagrangian, which some coordinate
    Lagrangian meets trivially (Arnold's lemma): some minor that takes c's column
    j for j in S and d's for the rest is nonzero.  That minor is the coefficient
    of Π_{j∈S} x_j in det(c·diag(x) + d), which is multi-affine in x, and a
    nonzero multi-affine polynomial is nonzero somewhere on {0, 1}^n."""
    diag = np.zeros((2**n, n, n, tower.ambient_degree), dtype=np.int64)
    diag[:, np.arange(n), np.arange(n), 0] = list(iproduct((0, 1), repeat=n))
    tries = (tower.matmul(c[:, None], diag[None]) + d[:, None]) % tower.p
    ok = modp.det(tower.block_matrix(tries), tower.p) != 0
    if not ok.any(axis=1).all():
        raise FactorizationFailed("no diagonal correction block found")
    return diag[ok.argmax(axis=1)]


def _check_word(tower: Tower, g: np.ndarray, tags: tuple, blocks: np.ndarray) -> None:
    """Raise FactorizationFailed unless, for each element of the stack g, the
    product of its word's generators, built from their parameters alone
    (`siegel_matrices`), is g."""
    gens = siegel_matrices(tower, tags, blocks)
    prod = gens[:, 0]
    for f in range(1, len(tags)):
        prod = tower.matmul(prod, gens[:, f])
    if not np.array_equal(prod, g):
        raise FactorizationFailed("factor word does not reproduce the element")


# -- similitude character -----------------------------------------------------------------


def gsp_character_values(ctx: RepContext, partition) -> dict:
    """Values of π_d = Ind_{Sp}^{GSp} ρ_d on the classes of GSp(F_{q^d})."""
    return dict(zip(partition.reps, extended_gsp_traces(ctx, 0, partition.reps)))


def extended_gsp_trace(ctx: RepContext, i: int, g: tuple) -> CycNum:
    """Character of Ind_{Γ⋉Sp(F')}^{Γ⋉GSp(F')} ρ̃' at (σ^i, g), g in GSp(F').

    Over the coset representatives r = diag(λ·1, 1) of Sp in GSp, the element
    z = r⁻¹·g·σ^i(r) is g with its first n rows scaled by λ⁻¹ and its first n
    columns by σ^i(λ), of multiplier λ⁻¹·μ(g)·σ^i(λ); so z lies in Sp exactly
    when σ^i(λ)·μ(g) = λ, and only those λ contribute tr ρ̃'(σ^i, z).
    """
    return extended_gsp_traces(ctx, i, [g])[0]


def extended_gsp_traces(ctx: RepContext, i: int, gs) -> list[CycNum]:
    """`extended_gsp_trace` at every g of gs, the elements z of all of them traced in one pass."""
    tower, n, size = ctx.tower, ctx.n, 2 * ctx.n
    zs, owners = [], []
    for k, g in enumerate(gs):
        mu = form(tower, g[0::size], g[n::size])  # ⟨g e₁, g f₁⟩
        for lam in tower.level_elements(ctx.level)[1:]:  # zero comes first
            lam_i = tower.frobenius(lam, i)
            if tower.mul(lam_i, mu) == lam:
                row, col = [tower.inv(lam)] * n + [tower.one] * n, [lam_i] * n + [tower.one] * n
                zs.append(tuple(tower.mul(tower.mul(row[j // size], x), col[j % size]) for j, x in enumerate(g)))
                owners.append(k)
    totals = [CycNum.zero(ctx.p) for _ in gs]
    for k, tr in zip(owners, ctx.extended_traces(i, zs)):
        totals[k] = totals[k] + tr
    return totals
