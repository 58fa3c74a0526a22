"""Twisted norm maps from the coset σ^i ⋉ G(F') to G(F_d).

For g in G(F') the norm is α·(g σ^i(g) ⋯ σ^{i(μ-1)}(g))·α^{-1}, where α solves
the Lang equation α^{-1} σ^d(α) = σ^{-it}(g σ^i(g) ⋯ σ^{i(t-1)}(g)).

Witness search: every solution of the Lang equation lies in G(F_{q^{d·k}})
exactly when the d-twisted product of k copies of the target is trivial, so
the minimal field of definition is computed first (a cheap loop at level m)
and the equation is then solved by exact linear algebra over F_p.  Every
equation below is one F_p-linear system u ↦ σ^d(u) − M·u on vectors over the
ambient field, assembled from the tower's Frobenius and multiplication
matrices (`_semilinear`):

* the matrix equation σ^d(α) = α·h decouples into row equations
  σ^d(v) = v·h, the kernel of the system with M = hᵀ; for symplectic h the
  solution space carries an F_{q^d}-symplectic form v, w ↦ v·J·wᵀ, and a
  Darboux basis of that form stacks to a symplectic witness;
* for similitude groups and GL₁ any F_{q^d}-basis of the solution space
  stacks to an invertible witness (GL₁ is the 1×1 case, solved, not searched);
* for Sp·H the Sp part is solved as above and the Heisenberg part is one
  affine system σ^d(u) − m·u = v plus one additive Hilbert-90 system
  σ^d(z) − z = c; Sp×Z elements are Sp·H elements with v = 0, so u = 0.

Norms on abelian groups are classical and need no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import modp
from .errors import AmbientCapExceeded, ConfigInvalid, WitnessFailed
from .fieldtower import Embedding, Tower, build_tower, get_embedding
from .grouplib import (
    GroupSpec,
    MulGroup,
    Partition,
    SpHGroup,
    SympGroup,
    SympSpace,
    conjugacy_classes,
    mat_det,
    mat_frob,
    mat_mul,
    mat_transpose,
    mat_vec,
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
    alpha: object
    target: object
    ambient_degree: int  # in q-degrees
    tower: Tower
    embedding: Embedding
    group: GroupSpec  # the spec's group over the whole ambient field, where alpha lives


def _min_defining_level(spec: GroupSpec, h, d: int) -> int:
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


def _solve(big: Tower, d: int, M: tuple, rhs: tuple) -> tuple:
    """One u with σ^d(u) − M·u = rhs."""
    n2 = len(rhs)
    b = np.concatenate([big._decode(x) for x in rhs])
    sol = modp.solve(_semilinear(big, d, M, n2), b, big.p)
    if sol is None:
        raise WitnessFailed("semilinear equation unsolvable at this level")
    return _split(big, sol, n2)


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


def _lang_matrix(big_spec: GroupSpec, h_big: tuple, d: int, n2: int) -> tuple:
    """Witness of σ^d(α) = α·h for an n2×n2 matrix h in Sp, GSp or GL₁."""
    big = big_spec.tower
    kern = modp.kernel_basis(_semilinear(big, d, mat_transpose(h_big, n2), n2), big.p)
    basis = _fqd_basis_rows(big, d, [_split(big, v, n2) for v in kern], n2)
    if isinstance(big_spec, SympGroup) and not big_spec.similitude:
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


def _sph_lang(big_spec: SpHGroup, h_big, d: int):
    big, n2 = big_spec.tower, 2 * big_spec.n
    sp = big_spec.sp
    s_h, (v_h, t_h) = h_big
    alpha_s = _lang_matrix(sp, s_h, d, n2)
    # m = (σ^d a)^{-1} a;  σ^d(u) - m·u = v_h;  σ^d(z) - z = t_h + ½⟨m u, σ^d u⟩
    mmat = sp.mul(sp.inv(sp.frob(alpha_s, d)), alpha_s)
    u = _solve(big, d, mmat, v_h)
    mu_vec = mat_vec(big, mmat, u, n2)
    c = big.add(t_h, big.mul(big.half, sp.space.form(big, mu_vec, mat_frob(big, u, d))))
    (z,) = _solve(big, d, (big.one,), (c,))
    alpha = (alpha_s, (u, z))
    if big_spec.mul(big_spec.inv(alpha), big_spec.frob(alpha, d)) != h_big:
        raise WitnessFailed("Sp·H Lang witness verification failed")
    return alpha


def _entries(spec: GroupSpec, f, g):
    """g with f applied to every field entry."""
    if isinstance(spec, SpHGroup):
        s, (v, t) = g
        return (tuple(map(f, s)), (tuple(map(f, v)), f(t)))
    if isinstance(spec, MulGroup):
        return f(g)
    return tuple(map(f, g))


def _big_group(spec: GroupSpec, big: Tower) -> GroupSpec:
    """The spec's group over the whole ambient field of big."""
    if isinstance(spec, SpHGroup):  # Sp×Z included: it has the same product
        return SpHGroup(big, spec.n, big.m)
    if isinstance(spec, SympGroup):
        return SympGroup(big, spec.n, big.m, similitude=spec.similitude)
    if isinstance(spec, MulGroup):
        return MulGroup(big, big.m)
    raise TypeError(f"no Lang solver for {type(spec).__name__}")


def lang_solve(spec: GroupSpec, h, d: int, ambient_cap: int = DEFAULT_AMBIENT_CAP) -> LangWitness:
    """Solve α^{-1}σ^d(α) = h with α in the group over a large enough field."""
    tower = spec.tower
    k0 = _min_defining_level(spec, h, d)
    need = lcm(d * k0, tower.m)
    if need > ambient_cap:
        raise AmbientCapExceeded(
            f"Lang witness needs ambient level {need} (cap {ambient_cap})"
        )
    big = build_tower(tower.p, tower.base_degree, need)
    emb = get_embedding(tower, big)
    big_spec = _big_group(spec, big)
    h_big = _entries(spec, emb.embed, h)
    if isinstance(big_spec, SpHGroup):
        alpha = _sph_lang(big_spec, h_big, d)
    elif isinstance(big_spec, MulGroup):
        (alpha,) = _lang_matrix(big_spec, (h_big,), d, 1)
    else:
        alpha = _lang_matrix(big_spec, h_big, d, big_spec.size)
    return LangWitness(alpha=alpha, target=h, ambient_degree=need, tower=big,
                       embedding=emb, group=big_spec)


def gyoja_norm(cfg: NormConfig, spec: GroupSpec, g, ambient_cap: int = DEFAULT_AMBIENT_CAP,
               partition: Partition | None = None, cache: dict | None = None):
    """The norm of (σ^i, g); returns (element of G(F_d), class id or None).

    For i = 0 the map is the identity on ordinary classes by convention.
    """
    key = (cfg, spec.descriptor(), g)
    if cache is not None and key in cache:
        got = cache[key]
        return got if partition is None else (got[0], partition.index_of(got[0]))
    if cfg.i == 0:
        result = g
    elif spec.abelian:
        result = twisted_product(spec, cfg.i, g, cfg.mu)
        if spec.frob(result, cfg.d) != result:
            raise WitnessFailed("norm did not land at level d")
    else:
        # The Lang target is the t-fold twisted product itself: with
        # σ^d(α) = α·P_t, the commutation P_t·σ^d(P_μ) = P_μ·P_t of powers of
        # (σ^i, g) forces σ^d-stability of the conjugated norm.
        target = twisted_product(spec, cfg.i, g, cfg.t)
        witness = lang_solve(spec, target, cfg.d, ambient_cap)
        big_spec, emb = witness.group, witness.embedding
        p_mu = twisted_product(spec, cfg.i, g, cfg.mu)
        out = big_spec.conj(witness.alpha, _entries(spec, emb.embed, p_mu))
        if big_spec.frob(out, cfg.d) != out:
            raise WitnessFailed("norm did not land at level d")
        result = _entries(spec, emb.pull_back, out)
    cls = partition.index_of(result) if partition is not None else None
    if cache is not None:
        cache[key] = (result, None)
    return (result, cls)


@dataclass
class BijectionReport:
    twisted_count: int
    target_count: int
    well_defined: bool
    injective: bool
    surjective: bool
    sigma_equivariant: bool


def verify_bijection(cfg: NormConfig, spec: GroupSpec, target_spec: GroupSpec,
                     ambient_cap: int = DEFAULT_AMBIENT_CAP, members_per_class: int = 2,
                     cache: dict | None = None, part_cache: dict | None = None) -> BijectionReport:
    """Check the class bijection σ^i ⋉ G(F') → classes of G(F_d); part_cache holds partitions."""
    tw = twisted_classes(spec, cfg.i, part_cache)
    target = conjugacy_classes(target_spec, part_cache)
    norm_cache = cache if cache is not None else {}

    def norm_class(g):
        el, _ = gyoja_norm(cfg, spec, g, ambient_cap, cache=norm_cache)
        return target.index_of(el)

    assigned = [norm_class(rep) for rep in tw.reps]
    well_defined = True
    if members_per_class > 1:
        counts = [0] * len(tw.reps)
        for g in spec.elements():
            k = tw.index_of(g)
            if counts[k] >= members_per_class - 1 or g == tw.reps[k]:
                continue
            counts[k] += 1
            if norm_class(g) != assigned[k]:
                well_defined = False
    injective = len(set(assigned)) == len(assigned)
    surjective = set(assigned) == set(range(len(target)))
    equivariant = True
    for k, rep in enumerate(tw.reps):
        sig_rep = spec.frob(rep, 1)
        lhs = norm_class(sig_rep)
        n_el, _ = gyoja_norm(cfg, spec, rep, ambient_cap, cache=norm_cache)
        rhs = target.index_of(target_spec.frob(n_el, 1))
        if lhs != rhs:
            equivariant = False
    return BijectionReport(len(tw), len(target), well_defined, injective, surjective, equivariant)
