"""Twisted norm maps from the coset σ^i ⋉ G(F') to G(F_d), for G = Sp or GSp.

For g in G(F') the norm is α·(g σ^i(g) ⋯ σ^{i(μ-1)}(g))·α^{-1}, where α solves
the Lang equation α^{-1} σ^d(α) = σ^{-it}(g σ^i(g) ⋯ σ^{i(t-1)}(g)).

Witness search: every solution of the Lang equation lies in G(F_{q^{d·k}})
exactly when the d-twisted product of k copies of the target is trivial, so
the minimal field of definition is computed first (a cheap loop at level m)
and the equation is then solved by exact linear algebra over F_p.  The matrix
equation σ^d(α) = α·h decouples into row equations σ^d(v) = v·h, the kernel of
one F_p-linear system u ↦ σ^d(u) − hᵀ·u (`_semilinear`):

* for symplectic h the solution space carries an F_{q^d}-symplectic form
  v, w ↦ v·J·wᵀ, and a Darboux basis of that form stacks to a symplectic
  witness;
* for similitude groups any F_{q^d}-basis of the solution space stacks to an
  invertible witness.

Everything over the ambient field (the system, the basis, the checks, the
conjugation by α and the pull-back of the norm) works on digit arrays of shape
(…, rows, columns, ambient degree) through `Tower.matmul` and
`Tower.block_matrix`; elements are encoded once, for the witness and the norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import modp
from .errors import ConfigInvalid, Singular, WitnessFailed
from .fieldtower import Embedding, Tower, enlarge_tower
from .grouplib import GroupSpec, SympGroup, conjugacy_classes, twisted_classes

_K0_GUARD = 100_000
DEFAULT_AMBIENT_CAP = 64


@dataclass(frozen=True)
class NormConfig:
    """Arithmetic of one twist: i = d·j, m = d·μ, t·i ≡ d (mod m)."""

    m: int
    i: int
    d: int
    j: int
    mu: int
    t: int

    def validate(self):
        if not (0 <= self.i < self.m):
            raise ConfigInvalid("twist exponent out of range")
        d = gcd(self.i, self.m) if self.i else self.m
        if d != self.d or (self.t * self.i - self.d) % self.m != 0:
            raise ConfigInvalid(f"pair ({self.i},{self.t}) violates t·i ≡ gcd(i,m) (mod m)")


def choose_t(i: int, m: int, t: int | None = None) -> NormConfig:
    """Smallest positive t with t·i ≡ gcd(i, m) (mod m); i = 0 uses t = 1."""
    if not (0 <= i < m):
        raise ConfigInvalid(f"need 0 <= i < m, got i={i}, m={m}")
    if i == 0:
        cfg = NormConfig(m=m, i=0, d=m, j=0, mu=1, t=1 if t is None else t)
        return cfg
    d = gcd(i, m)
    if t is None:
        t = next(k for k in range(1, m + 1) if (k * i - d) % m == 0)
    cfg = NormConfig(m=m, i=i, d=d, j=i // d, mu=m // d, t=t)
    cfg.validate()
    return cfg


def twisted_product(spec: GroupSpec, i: int, g, k: int):
    """g · σ^i(g) · σ^{2i}(g) ⋯ σ^{(k-1)i}(g)."""
    out = spec.identity()
    for r in range(k):
        out = spec.mul(out, spec.frob(g, i * r))
    return out


@dataclass
class LangWitness:
    alpha: tuple
    ambient_degree: int  # in q-degrees
    embedding: Embedding
    group: SympGroup  # the spec's group over the whole ambient field, where alpha lives


def _min_defining_level(spec: SympGroup, h: tuple, d: int) -> int:
    """Minimal k with h·σ^d(h)···σ^{d(k-1)}(h) = 1; witnesses live at level d·k."""
    ident = spec.identity()
    q = h
    k = 1
    while q != ident:
        q = spec.mul(q, spec.frob(h, d * k))
        k += 1
        if k > _K0_GUARD:
            raise WitnessFailed(f"twisted order of the Lang target exceeds {_K0_GUARD}")
    return k


def _semilinear(big: Tower, d: int, h: np.ndarray) -> np.ndarray:
    """F_p-matrix of u ↦ σ^d(u) − hᵀ·u on stacked digit columns u of n2 ambient entries."""
    frob = np.kron(np.eye(h.shape[0], dtype=np.int64), big.frob_matrix(d))
    return (frob - big.block_matrix(np.swapaxes(h, 0, 1))) % big.p


def _j(x: np.ndarray, axis: int) -> np.ndarray:
    """J·x along axis 0 or 1, of length 2n: (x_{n..2n-1}, −x_{0..n-1})."""
    x = x.swapaxes(0, axis)
    n = len(x) // 2
    return np.concatenate([x[n:], -x[:n]]).swapaxes(0, axis)


def _pairing(big: Tower, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """⟨u_a, w_b⟩ = u_a·J·w_bᵀ for digit rows u (k, n2, A) and w (l, n2, A): shape (k, l, A)."""
    return big.matmul(u, np.swapaxes(_j(w, 1) % big.p, 0, 1))


def _level_inverse(big: Tower, c: np.ndarray, d: int) -> np.ndarray:
    """Digits of c⁻¹ = c^{q^d − 2} for c in F_{q^d}^×, by squaring on the kernel."""
    out = base = c.reshape(1, 1, -1)
    for bit in bin(big.q**d - 2)[3:]:  # square and multiply below the leading bit
        out = big.matmul(out, out)
        if bit == "1":
            out = big.matmul(out, base)
    return out[0, 0]


def _fqd_basis_rows(big: Tower, d: int, rows: np.ndarray) -> np.ndarray:
    """Select n2 of the digit rows (k, n2, A) that are independent over F_{q^d}."""
    p, n2 = big.p, rows.shape[1]
    scalars = big._level_basis(d)[:, None, None]  # an F_p-basis of F_{q^d}, as 1×1 matrices
    chosen = []
    echelon, pivots = np.zeros((0, rows[0].size), dtype=np.int64), []
    for row in rows:
        vec = row.reshape(-1)
        if not ((vec - vec[pivots] @ echelon) % p).any():
            continue
        chosen.append(row)
        if len(chosen) == n2:
            return np.stack(chosen)
        # the F_{q^d}-line of the row, its products with each basis scalar, kept in reduced echelon form
        line = big.matmul(scalars, row[None]).reshape(len(scalars), -1)
        echelon, pivots = modp.rref(np.vstack([echelon, line]), p)
        echelon = echelon[: len(pivots)]
    raise WitnessFailed("Lang solution space thinner than expected")


def _darboux_alpha(big: Tower, d: int, rows: np.ndarray) -> np.ndarray:
    """Stack a Darboux basis of the row space into a symplectic witness."""
    p = big.p
    left = rows
    us, ws = [], []
    while len(left):
        u, left = left[0], left[1:]
        forms = _pairing(big, u[None], left)[0]
        pick = np.flatnonzero(forms.any(axis=1))
        if not pick.size:
            raise WitnessFailed("degenerate pairing on Lang solution space")
        c = forms[pick[0]]
        if not np.array_equal(c @ big.frob_matrix(d).T % p, c):
            raise WitnessFailed("pairing escaped the fixed field")
        w = big.matmul(_level_inverse(big, c, d)[None, None], left[pick[0]][None])[0]
        left = np.delete(left, pick[0], axis=0)
        if len(left):  # z ↦ z − ⟨z, w⟩·u + ⟨z, u⟩·w
            ab = _pairing(big, left, np.stack([w, u]))
            coef = np.stack([-ab[:, 0], ab[:, 1]], axis=1) % p
            left = (left + big.matmul(coef, np.stack([u, w]))) % p
        us.append(u)
        ws.append(w)
    return np.stack(us + ws)


def _inverse(big_spec: SympGroup, alpha: np.ndarray) -> np.ndarray:
    """Digits of α⁻¹: J⁻¹·αᵀ·J on Sp, division-free; on GSp from the inverse of
    α's F_p block matrix, whose block (i, k) has the digits of (α⁻¹)_ik in column 0."""
    big = big_spec.tower
    if not big_spec.similitude:
        return _j(np.swapaxes(_j(alpha, 0), 0, 1), 0) % big.p
    n2, A = alpha.shape[0], big.ambient_degree
    try:
        inv = modp.left_inverse(big.block_matrix(alpha), big.p)
    except Singular:
        raise WitnessFailed("Lang witness is singular") from None
    return np.moveaxis(inv.reshape(n2, A, n2, A)[..., 0], 1, 2)


def _lang_matrix(big_spec: SympGroup, h: np.ndarray, d: int) -> np.ndarray:
    """Digits of a witness of σ^d(α) = α·h for digits h of a matrix in Sp or GSp."""
    big, n2 = big_spec.tower, big_spec.size
    kern = modp.kernel_basis(_semilinear(big, d, h), big.p)
    basis = _fqd_basis_rows(big, d, kern.reshape(len(kern), n2, -1))
    if not big_spec.similitude:
        alpha = _darboux_alpha(big, d, basis)
        # the Sp inverse J⁻¹·αᵀ·J is exact only on Sp: check α·J·αᵀ = J
        gram = big.digit_array(big_spec.space.gram(big)).reshape(alpha.shape)
        if not np.array_equal(_pairing(big, alpha, alpha), gram):
            raise WitnessFailed("Darboux witness is not symplectic")
    else:
        alpha = basis
        _inverse(big_spec, alpha)  # raises WitnessFailed on a singular α
    if not np.array_equal(alpha @ big.frob_matrix(d).T % big.p, big.matmul(alpha, h)):
        raise WitnessFailed("Lang witness verification failed")
    return alpha


def lang_solve(spec: SympGroup, h: tuple, d: int, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> LangWitness:
    """Solve α^{-1}σ^d(α) = h with α in the group over a large enough field."""
    k0 = _min_defining_level(spec, h, d)
    big, emb = enlarge_tower(spec.tower, d * k0, ambient_cap)
    big_spec = SympGroup(big, spec.n, big.m, similitude=spec.similitude)
    alpha = _lang_matrix(big_spec, emb.embed_rows(spec.tower.digit_array(h)).reshape(spec.size, spec.size, -1), d)
    return LangWitness(big.from_digit_array(alpha.reshape(-1, big.ambient_degree)), big.m, emb, big_spec)


def gyoja_norm(cfg: NormConfig, spec: SympGroup, g, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> tuple:
    """The norm of (σ^i, g), an element of G(F_d), memoized on spec.

    For i = 0 the map is the identity on ordinary classes by convention.
    """
    if cfg.i == 0:
        return g
    key = (cfg, g, ambient_cap)
    got = spec.norms.get(key)
    if got is not None:
        return got
    # The Lang target is the t-fold twisted product itself: with
    # σ^d(α) = α·P_t, the commutation P_t·σ^d(P_μ) = P_μ·P_t of powers of
    # (σ^i, g) forces σ^d-stability of the conjugated norm.
    target = twisted_product(spec, cfg.i, g, cfg.t)
    witness = lang_solve(spec, target, cfg.d, ambient_cap)
    big_spec, emb = witness.group, witness.embedding
    big, n2 = big_spec.tower, spec.size
    alpha = big.digit_array(witness.alpha).astype(np.int64).reshape(n2, n2, -1)
    p_mu = emb.embed_rows(spec.tower.digit_array(twisted_product(spec, cfg.i, g, cfg.mu))).reshape(n2, n2, -1)
    out = big.matmul(big.matmul(alpha, p_mu), _inverse(big_spec, alpha))
    if not np.array_equal(out @ big.frob_matrix(cfg.d).T % big.p, out):
        raise WitnessFailed("norm did not land at level d")
    spec.norms[key] = got = spec.tower.from_digit_array(emb.pull_back_rows(out.reshape(n2 * n2, -1)))
    return got


@dataclass
class BijectionReport:
    twisted_count: int
    target_count: int
    well_defined: bool
    injective: bool
    surjective: bool
    sigma_equivariant: bool


def verify_bijection(cfg: NormConfig, spec: SympGroup, target_spec: SympGroup,
                     ambient_cap: int = DEFAULT_AMBIENT_CAP, members_per_class: int = 2) -> BijectionReport:
    """Check the class bijection σ^i ⋉ G(F') → classes of G(F_d)."""
    tw = twisted_classes(spec, cfg.i)
    target = conjugacy_classes(target_spec)

    def norm_class(g):
        return target.index_of(gyoja_norm(cfg, spec, g, ambient_cap))

    assigned = [norm_class(rep) for rep in tw.reps]
    well_defined = True
    # up to members_per_class - 1 members of each class besides its representative,
    # the first ones in elements() order; the walk stops once every class has them
    left = [max(min(members_per_class, size) - 1, 0) for size in tw.sizes]
    wanted = sum(left)
    for g, k in tw.class_of.items():
        if not wanted:
            break
        if not left[k] or g == tw.reps[k]:
            continue
        left[k] -= 1
        wanted -= 1
        if norm_class(g) != assigned[k]:
            well_defined = False
    injective = len(set(assigned)) == len(assigned)
    surjective = set(assigned) == set(range(len(target)))
    equivariant = True
    for k, rep in enumerate(tw.reps):
        sig_rep = spec.frob(rep, 1)
        lhs = norm_class(sig_rep)
        n_el = gyoja_norm(cfg, spec, rep, ambient_cap)
        rhs = target.index_of(target_spec.frob(n_el, 1))
        if lhs != rhs:
            equivariant = False
    return BijectionReport(len(tw), len(target), well_defined, injective, surjective, equivariant)
