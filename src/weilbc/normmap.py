"""Twisted norm maps from the coset σ^i ⋉ G(F') to G(F_d), for G = Sp or GSp.

For g in G(F') the norm is α·(g σ^i(g) ⋯ σ^{i(μ-1)}(g))·α^{-1}, where α solves
the Lang equation α^{-1} σ^d(α) = σ^{-it}(g σ^i(g) ⋯ σ^{i(t-1)}(g)).

Witness search: every solution of the Lang equation lies in G(F_{q^{d·k}})
exactly when the d-twisted product of k copies of the target is trivial, so
the minimal field of definition is computed first (a cheap loop at level m).
The rows of σ^d(α) = α·h are the fixed points of Φ(v) = σ^{-d}(v·h), where
Φ^{L/d} = 1 at the ambient level L, found by Galois descent (`modp.fixed_space`):

* for symplectic h the solution space carries an F_{q^d}-symplectic form
  v, w ↦ v·J·wᵀ, and a Darboux basis of that form stacks to a symplectic
  witness;
* for GSp2 = GL2 any F_{q^d}-basis of the solution space stacks to an
  invertible witness; for n ≥ 2 it is no similitude, and norms are refused.

Norms are solved in stacks: elements of one twist whose witnesses need one ambient
level share one system shape, and every step, from the twisted products to the
pull-back of the norm, runs once per stack on digit arrays (B, …, rows, columns,
ambient degree) through `Tower.matmul`, `Tower.block_matrix` and `modp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import modp
from .errors import ConfigInvalid, WitnessFailed
from .fieldtower import Embedding, Tower, enlarge_tower
from .grouplib import (GroupSpec, SympGroup, conjugacy_classes, form_pairing, form_times, is_symplectic,
                       twisted_classes)

_K0_GUARD = 100_000
_CHUNK_BYTES = 1 << 17  # working-set bound of one stacked F_p-system, 128 KB of int64: peak RSS grows with it
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
    """Witnesses α_b of σ^d(α_b) = α_b·h_b for a stack of targets that share one ambient level."""

    digits: np.ndarray  # (B, n2, n2, ambient degree over F_p): the digits of the α_b
    ambient_degree: int  # in q-degrees
    embedding: Embedding
    group: SympGroup  # the spec's group over the whole ambient field, where the α_b live

    @property
    def alpha(self) -> list:
        """The α_b as group elements, one per target."""
        return self.group.tower.from_digit_stack(self.digits)


def _twisted_products(tower: Tower, i: int, g: np.ndarray, ks: tuple) -> list:
    """Digits of g·σ^i(g)⋯σ^{(k−1)i}(g) for digit matrices g (…, n2, n2, A), each k in ks."""
    prods = {1: g}
    for r in range(1, max(ks)):
        prods[r + 1] = tower.matmul(prods[r], g @ tower.frob_matrix(i * r).T % tower.p)
    return [prods[k] for k in ks]


def _ambient_levels(spec: SympGroup, h: np.ndarray, d: int) -> list[int]:
    """Per target h of the stack (B, n2, n2, A), the level lcm(d·k, m) that `enlarge_tower` builds
    for it, for the minimal k with h·σ^d(h)···σ^{d(k-1)}(h) = 1: its witnesses live at level d·k."""
    tower, ident = spec.tower, spec.tower.digit_array(spec.identity()).reshape(h.shape[1:])
    levels, q = np.zeros(len(h), dtype=np.int64), h
    for k in range(1, _K0_GUARD + 1):
        levels[(levels == 0) & (q == ident).all(axis=(1, 2, 3))] = k
        if levels.all():
            return [lcm(d * lv, tower.m) for lv in levels.tolist()]
        q = tower.matmul(q, h @ tower.frob_matrix(d * k).T % tower.p)
    raise WitnessFailed(f"twisted order of the Lang target exceeds {_K0_GUARD}")


def _lang_map(big: Tower, d: int, h: np.ndarray) -> np.ndarray:
    """F_p-matrices of Φ(v) = σ^{-d}(v·h) on stacked digit columns vᵀ, h (B, n2, n2, A): Φ(v) = v iff σ^d(v) = v·h."""
    times_h = big.block_matrix(np.swapaxes(h, -3, -2))  # vᵀ ↦ hᵀ·vᵀ = (v·h)ᵀ
    blocks = times_h.reshape(len(h), h.shape[-2], big.ambient_degree, -1)
    return (big.frob_matrix(-d) @ blocks % big.p).reshape(times_h.shape)


def _level_inverse(big: Tower, c: np.ndarray, d: int) -> np.ndarray:
    """Digits of c⁻¹ = c^{q^d − 2} for digits c (…, A) in F_{q^d}^×, by squaring on the kernel."""
    out = base = c[..., None, None, :]
    for bit in bin(big.q**d - 2)[3:]:  # square and multiply below the leading bit
        out = big.matmul(out, out)
        if bit == "1":
            out = big.matmul(out, base)
    return out[..., 0, 0, :]


def _fqd_basis_rows(big: Tower, d: int, rows: np.ndarray) -> np.ndarray:
    """Per item of the stack of digit rows (B, k, n2, A), the first n2 rows, in row
    order, that are independent over F_{q^d}: shape (B, n2, n2, A).  Row j is one of
    them exactly when its F_{q^d}-line (its products with an F_p-basis of F_{q^d})
    holds pivots of the row-reduced matrix whose columns are all the lines, in order."""
    count, k, n2, A = rows.shape
    scalars = big._level_basis(d)[:, None, None]  # the F_p-basis, as 1×1 matrices
    lines = big.matmul(scalars, rows[:, :, None, None]).reshape(count, k * len(scalars), n2 * A)
    independent = modp.rref(lines.swapaxes(1, 2), big.p)[1][:, :: len(scalars)]
    if (independent.sum(axis=1) < n2).any():
        raise WitnessFailed("Lang solution space thinner than expected")
    first = np.argsort(~independent, axis=1, kind="stable")[:, :n2]
    return np.take_along_axis(rows, first[:, :, None, None], axis=1)


def _darboux_alpha(big: Tower, d: int, rows: np.ndarray) -> np.ndarray:
    """Stack a Darboux basis of each item's row space (B, n2, n2, A) into a symplectic witness."""
    p, at = big.p, np.arange(len(rows))
    left, us, ws = rows, [], []
    while left.shape[1]:
        u, left = left[:, 0], left[:, 1:]
        forms = form_pairing(big, u[:, None], left)[:, 0]
        nonzero = forms.any(axis=2)
        if not nonzero.any(axis=1).all():
            raise WitnessFailed("degenerate pairing on Lang solution space")
        pick = nonzero.argmax(axis=1)
        c = forms[at, pick]
        if not np.array_equal(c @ big.frob_matrix(d).T % p, c):
            raise WitnessFailed("pairing escaped the fixed field")
        w = big.matmul(_level_inverse(big, c, d)[:, None, None], left[at, pick][:, None])[:, 0]
        left = left[np.arange(left.shape[1]) != pick[:, None]].reshape(len(rows), -1, *left.shape[2:])
        if left.shape[1]:  # z ↦ z − ⟨z, w⟩·u + ⟨z, u⟩·w
            ab = form_pairing(big, left, np.stack([w, u], axis=1))
            coef = np.stack([-ab[:, :, 0], ab[:, :, 1]], axis=2) % p
            left = (left + big.matmul(coef, np.stack([u, w], axis=1))) % p
        us.append(u)
        ws.append(w)
    return np.stack(us + ws, axis=1)


def _inverse(big_spec: SympGroup, alpha: np.ndarray) -> np.ndarray:
    """Digits of α⁻¹ for digit matrices α (…, n2, n2, A): on Sp, J⁻¹·αᵀ·J = J·(J·α)ᵀ, the
    formula of `SympGroup.inv`, division-free; on GSp `Tower.matinv`, since a GSp witness is
    any invertible basis of the Lang solution space, a similitude only when n = 1."""
    big = big_spec.tower
    if not big_spec.similitude:
        return form_times(np.swapaxes(form_times(alpha, -3, big.p), -3, -2), -3, big.p)
    inv, ok = big.matinv(alpha)
    if not ok.all():
        raise WitnessFailed("Lang witness is singular")
    return inv


def _lang_matrix(big_spec: SympGroup, h: np.ndarray, d: int) -> np.ndarray:
    """Digits of witnesses of σ^d(α) = α·h for a stack of digit matrices h in Sp or GSp."""
    big, n2 = big_spec.tower, big_spec.size  # the solutions have dimension n2 over F_{q^d}
    kern, certified = modp.fixed_space(_lang_map(big, d, h), big.m // d, n2 * big.base_degree * d, n2, big.p)
    if not certified.all():  # Φ^K ≠ 1: an ambient level too small for the targets
        raise WitnessFailed("Lang solution space thinner than expected")
    basis = _fqd_basis_rows(big, d, kern.reshape(*kern.shape[:2], n2, -1))
    if not big_spec.similitude:
        alpha = _darboux_alpha(big, d, basis)
        if not is_symplectic(big, alpha, big.m).all():  # the Sp inverse J⁻¹·αᵀ·J is exact only on Sp
            raise WitnessFailed("Darboux witness is not symplectic")
    else:
        alpha = basis
        _inverse(big_spec, alpha)  # raises WitnessFailed on a singular α
    if not np.array_equal(alpha @ big.frob_matrix(d).T % big.p, big.matmul(alpha, h)):
        raise WitnessFailed("Lang witness verification failed")
    return alpha


def lang_solve(spec: SympGroup, targets: np.ndarray, d: int, level: int,
               ambient_cap: int = DEFAULT_AMBIENT_CAP) -> LangWitness:
    """Solve α^{-1}σ^d(α) = h, α in the group over the ambient level `level`, for each h of
    the stack targets: digit matrices (B, n2, n2, A) over spec's tower whose witnesses live
    there (`_ambient_levels`), grouped by `gyoja_norms`.  A level too small for a target of
    the stack raises WitnessFailed; a similitude group with n ≥ 2, ConfigInvalid."""
    if spec.similitude and spec.n > 1:  # its witnesses would be bases, similitudes only at n = 1
        raise ConfigInvalid(f"Lang witnesses in GSp{2 * spec.n} are implemented for n = 1 (GSp2 = GL2)")
    big, emb = enlarge_tower(spec.tower, level, ambient_cap)
    big_spec = SympGroup(big, spec.n, big.m, similitude=spec.similitude)
    return LangWitness(_lang_matrix(big_spec, emb.embed_rows(targets), d), big.m, emb, big_spec)


def gyoja_norms(cfg: NormConfig, spec: SympGroup, gs, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> list:
    """The norms in G(F_d) of (σ^i, g) for the elements g of the sequence gs, memoized
    on spec: the ones missing are solved in one stack per ambient level, in order of
    first appearance, cut into chunks of _CHUNK_BYTES per F_p-system.  For i = 0 the
    map is the identity on ordinary classes by convention."""
    if cfg.i == 0:
        return list(gs)
    todo = [g for g in dict.fromkeys(gs) if (cfg, g, ambient_cap) not in spec.norms]
    # The Lang target is the t-fold twisted product itself: with
    # σ^d(α) = α·P_t, the commutation P_t·σ^d(P_μ) = P_μ·P_t of powers of
    # (σ^i, g) forces σ^d-stability of the conjugated norm.
    p_t, p_mu = _twisted_products(spec.tower, cfg.i, spec.tower.digit_stack(todo, spec.size), (cfg.t, cfg.mu))
    levels = _ambient_levels(spec, p_t, cfg.d)
    for level in dict.fromkeys(levels):
        members = [b for b, lv in enumerate(levels) if lv == level]
        size = max(1, _CHUNK_BYTES // (8 * (spec.size * spec.tower.base_degree * level) ** 2))
        for chunk in (members[k : k + size] for k in range(0, len(members), size)):
            witness = lang_solve(spec, p_t[chunk], cfg.d, level, ambient_cap)
            big, emb, alpha = witness.group.tower, witness.embedding, witness.digits
            out = big.matmul(big.matmul(alpha, emb.embed_rows(p_mu[chunk])), _inverse(witness.group, alpha))
            if not np.array_equal(out @ big.frob_matrix(cfg.d).T % big.p, out):
                raise WitnessFailed("norm did not land at level d")
            norms = spec.tower.from_digit_stack(emb.pull_back_rows(out))
            spec.norms.update(((cfg, todo[b], ambient_cap), N) for b, N in zip(chunk, norms))
    return [spec.norms[(cfg, g, ambient_cap)] for g in gs]


def gyoja_norm(cfg: NormConfig, spec: SympGroup, g, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> tuple:
    """The norm of (σ^i, g): gyoja_norms of the one element g."""
    return gyoja_norms(cfg, spec, [g], ambient_cap)[0]


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
    # up to members_per_class - 1 members of each class besides its representative,
    # the first ones in elements() order; the walk stops once every class has them
    members, left = [], [max(min(members_per_class, size) - 1, 0) for size in tw.sizes]
    wanted = sum(left)
    for g, k in tw.class_of.items():
        if not wanted:
            break
        if not left[k] or g == tw.reps[k]:
            continue
        left[k] -= 1
        wanted -= 1
        members.append((g, k))
    sigma_reps = [spec.frob(rep, 1) for rep in tw.reps]
    gs = [*tw.reps, *(g for g, _ in members), *sigma_reps]
    norm = dict(zip(gs, gyoja_norms(cfg, spec, gs, ambient_cap)))
    assigned = [target.index_of(norm[rep]) for rep in tw.reps]
    well_defined = all(target.index_of(norm[g]) == assigned[k] for g, k in members)
    injective = len(set(assigned)) == len(assigned)
    surjective = set(assigned) == set(range(len(target)))
    equivariant = all(target.index_of(norm[sig_rep]) == target.index_of(target_spec.frob(norm[rep], 1))
                      for rep, sig_rep in zip(tw.reps, sigma_reps))
    return BijectionReport(len(tw), len(target), well_defined, injective, surjective, equivariant)
