"""Twisted norm maps from the coset σ^i ⋉ G(F') to G(F_d), for G = Sp or GSp.

For g in G(F') the norm is α·(g σ^i(g) ⋯ σ^{i(μ-1)}(g))·α^{-1}, where α solves
the Lang equation α^{-1} σ^d(α) = σ^{-it}(g σ^i(g) ⋯ σ^{i(t-1)}(g)).

Witness search: every solution of the Lang equation lies in G(F_{q^{d·k}})
exactly when the d-twisted product of k copies of the target is trivial, so
the minimal field of definition is computed first (a cheap loop at level m)
and the equation is then solved by exact linear algebra over F_p.  The matrix
equation σ^d(α) = α·h decouples into row equations σ^d(v) = v·h, the kernel of
one F_p-linear system u ↦ σ^d(u) − hᵀ·u on vectors over the ambient field,
assembled from the tower's Frobenius and multiplication matrices
(`_semilinear`):

* for symplectic h the solution space carries an F_{q^d}-symplectic form
  v, w ↦ v·J·wᵀ, and a Darboux basis of that form stacks to a symplectic
  witness;
* for similitude groups any F_{q^d}-basis of the solution space stacks to an
  invertible witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import modp
from .errors import ConfigInvalid, WitnessFailed
from .fieldtower import Embedding, Tower, enlarge_tower
from .grouplib import (
    GroupSpec,
    SympGroup,
    SympSpace,
    conjugacy_classes,
    mat_det,
    mat_frob,
    mat_mul,
    mat_transpose,
    twisted_classes,
)

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


def _semilinear(big: Tower, d: int, M: tuple, n2: int) -> np.ndarray:
    """F_p-matrix of u ↦ σ^d(u) − M·u on column vectors u of n2 ambient entries."""
    blocks = [[-big.mul_matrix(M[r * n2 + c]) for c in range(n2)] for r in range(n2)]
    frob = np.kron(np.eye(n2, dtype=np.int64), big.frob_matrix(d))
    return (np.block(blocks) + frob) % big.p


def _split(big: Tower, vec: np.ndarray, n2: int) -> tuple:
    """Ambient entries of a stacked digit vector."""
    A = big.ambient_degree
    return tuple(big._encode(vec[k * A : (k + 1) * A]) for k in range(n2))


def _fqd_basis_rows(big: Tower, d: int, rows: list[tuple], n2: int) -> list[tuple]:
    """Select n2 of the length-n2 rows that are independent over F_{q^d}."""
    p = big.p
    scalars = big._level_basis(d).T  # digit columns of an F_p-basis of F_{q^d}
    chosen: list[tuple] = []
    echelon = np.zeros((0, n2 * big.ambient_degree), dtype=np.int64)
    for row in rows:
        vec = np.concatenate([big._decode(x) for x in row])
        if modp.solve(echelon.T, vec, p) is not None:
            continue
        chosen.append(row)
        # the F_{q^d}-line of the row: its products with each basis scalar
        line = np.concatenate([big.mul_matrix(x) @ scalars for x in row]).T % p
        echelon = np.vstack([echelon, line])
        if len(chosen) == n2:
            return chosen
    raise WitnessFailed("Lang solution space thinner than expected")


def _darboux_alpha(big: Tower, d: int, rows: list[tuple], n: int) -> tuple:
    """Stack a Darboux basis of the row space into a symplectic witness."""
    space = SympSpace(n)

    def form(u, w):
        return space.form(big, u, w)

    left = list(rows)
    us, ws = [], []
    while left:
        u = left.pop(0)
        pick = next((k for k, w in enumerate(left) if form(u, w) != big.zero), None)
        if pick is None:
            raise WitnessFailed("degenerate pairing on Lang solution space")
        w = left.pop(pick)
        c = form(u, w)
        if big.frobenius(c, d) != c:
            raise WitnessFailed("pairing escaped the fixed field")
        ci = big.inv(c)
        w = tuple(big.mul(ci, x) for x in w)
        new_left = []
        for z in left:
            a = form(z, w)
            b = form(z, u)
            zz = tuple(
                big.add(big.sub(zc, big.mul(a, uc)), big.mul(b, wc))
                for zc, uc, wc in zip(z, u, w)
            )
            new_left.append(zz)
        left = new_left
        us.append(u)
        ws.append(w)
    rows_out = us + ws
    return tuple(x for row in rows_out for x in row)


def _lang_matrix(big_spec: SympGroup, h_big: tuple, d: int) -> tuple:
    """Witness of σ^d(α) = α·h for a matrix h in Sp or GSp."""
    big, n2 = big_spec.tower, big_spec.size
    kern = modp.kernel_basis(_semilinear(big, d, mat_transpose(h_big, n2), n2), big.p)
    basis = _fqd_basis_rows(big, d, [_split(big, v, n2) for v in kern], n2)
    if not big_spec.similitude:
        alpha = _darboux_alpha(big, d, basis, n2 // 2)
        # SympGroup.inv is exact only on Sp: check α·J·αᵀ = J on pairs of rows
        rows = [alpha[k * n2 : (k + 1) * n2] for k in range(n2)]
        J = big_spec.space.gram(big)
        if any(big_spec.space.form(big, rows[a], rows[b]) != J[a * n2 + b]
               for a in range(n2) for b in range(a + 1, n2)):
            raise WitnessFailed("Darboux witness is not symplectic")
    else:
        alpha = tuple(x for row in basis for x in row)
        if mat_det(big, alpha, n2) == big.zero:
            raise WitnessFailed("Lang witness is singular")
    if mat_frob(big, alpha, d) != mat_mul(big, alpha, h_big, n2):
        raise WitnessFailed("Lang witness verification failed")
    return alpha


def lang_solve(spec: SympGroup, h: tuple, d: int, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> LangWitness:
    """Solve α^{-1}σ^d(α) = h with α in the group over a large enough field."""
    k0 = _min_defining_level(spec, h, d)
    big, emb = enlarge_tower(spec.tower, d * k0, ambient_cap)
    big_spec = SympGroup(big, spec.n, big.m, similitude=spec.similitude)
    alpha = _lang_matrix(big_spec, tuple(map(emb.embed, h)), d)
    return LangWitness(alpha=alpha, ambient_degree=big.m, embedding=emb, group=big_spec)


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
    p_mu = twisted_product(spec, cfg.i, g, cfg.mu)
    out = big_spec.conj(witness.alpha, tuple(map(emb.embed, p_mu)))
    if big_spec.frob(out, cfg.d) != out:
        raise WitnessFailed("norm did not land at level d")
    spec.norms[key] = got = tuple(map(emb.pull_back, out))
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
