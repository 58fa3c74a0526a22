"""Named verification checks over a configured (p, q, n, m, i, t, ψ, seed) matrix.

Every check compares two independently computed exact values in Q(ζ_p) and
returns a Report; a report with zero failures is success.  Exhaustive checks
over large enumerations aggregate one case per outer slice (counting matches
over the inner loop) and additionally emit a full case for each of the first
three mismatching elements of the slice (``_slice_cases``), so a failing
slice always fails the report and its first failures carry full values.  A
slice is compared as integer rows of ψ-exponent counts over one common
denominator; a CycNum is built only for a case's lhs and rhs.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from .cyclotomic import CycNum, gauss_sum
from .errors import ConfigInvalid, GroupTooLarge
from .fieldtower import ENUM_CAP, build_tower
from .grouplib import (
    SemidirectGroup,
    SpHGroup,
    SympGroup,
    TorusSL2,
    block_embed,
    conjugacy_classes,
    heis_embed,
    sp_act_heis,
    twisted_classes,
)
from .normmap import DEFAULT_AMBIENT_CAP, NormConfig, choose_t, gyoja_norms, verify_bijection
from .characters import (
    ClassFunction,
    eta,
    indicator_basis,
    inner_product,
    lift_class_function,
    omega,
    omega_prime,
    weil_torus_restriction,
)
from .schrodinger import RepContext, WeilOperator, extended_gsp_traces

_EVERY_MEMBER_ORDER = 2000  # gyoja-bijection checks every element, the isometry and the class count up to this order


@dataclass(frozen=True)
class RunConfig:
    p: int = 3
    base_degree: int = 1
    n: int = 1
    m: int = 2
    pairs: tuple = ()
    psi_scale: int = 1
    sample: object = 200  # int or "all"
    seed: int = 42
    ambient_cap: int = DEFAULT_AMBIENT_CAP
    enum_cap: int = ENUM_CAP

    def norm_cfgs(self) -> list[NormConfig]:
        """One twist per pair; without pairs, every 0 < i < m with its smallest t."""
        return [choose_t(i, self.m, t) for i, t in self.pairs or [(i, None) for i in range(1, self.m)]]

    def validate(self):
        if self.sample != "all" and (not isinstance(self.sample, int) or self.sample < 1):
            raise ConfigInvalid("sample must be a positive integer or 'all'")
        if min(self.base_degree, self.n, self.m) < 1:
            raise ConfigInvalid("base-degree, n and m must be positive")
        if self.psi_scale < 1:
            raise ConfigInvalid("psi-scale indexes a nonzero base-field element (from 1)")
        self.norm_cfgs()  # choose_t rejects each pair that violates t·i ≡ gcd(i,m) (mod m)

    def as_dict(self) -> dict:
        return dict(asdict(self), pairs=[(c.i, c.t) for c in self.norm_cfgs()])


@dataclass
class Case:
    input: str
    lhs: str
    rhs: str
    equal: bool

    @classmethod
    def of(cls, input: str, lhs, rhs) -> "Case":
        """The case lhs = rhs between two exact values: cyclotomic numbers, operators, counts."""
        return cls(input, _text(lhs), _text(rhs), bool(lhs == rhs))


def _text(x) -> str:
    if isinstance(x, CycNum):
        return x.to_text()
    if isinstance(x, WeilOperator):
        h = hashlib.sha256(x.arr.tobytes() + str(x.den).encode()).hexdigest()[:16]
        return f"den={x.den},sha={h}"
    return str(x)


@dataclass
class Report:
    check: str
    config: dict
    cases: list = field(default_factory=list)
    seconds: float = 0.0
    skipped: list = field(default_factory=list)  # (sub-check, reason): neither pass nor fail

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cases if c.equal)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.cases if not c.equal)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "config": self.config,
            "cases": [c.__dict__ for c in self.cases],
            "skipped": [{"check": name, "reason": reason} for name, reason in self.skipped],
            "summary": {"pass": self.n_pass, "fail": self.n_fail, "skip": len(self.skipped)},
            "seconds": round(self.seconds, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def to_tsv(self) -> str:
        lines = ["input\tlhs\trhs\tequal"]
        for c in self.cases:
            lines.append(f"{c.input}\t{c.lhs}\t{c.rhs}\t{int(c.equal)}")
        for name, reason in self.skipped:
            lines.append(f"#skipped\t{name}\t{reason}")
        lines.append(f"#summary\tpass={self.n_pass}\tfail={self.n_fail}\tskip={len(self.skipped)}"
                     f"\tseconds={self.seconds:.3f}")
        return "\n".join(lines)


class Workspace:
    """Shared towers, Weil contexts and groups for one configuration.

    Each group and context is built once, with cap --enum-cap, so the
    elements, partitions and norms a group memoizes serve every check.
    """

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.tower = build_tower(cfg.p, cfg.base_degree, cfg.m)
        nonzero = [x for x in self.tower.level_elements(1) if x != self.tower.zero]
        if cfg.psi_scale > len(nonzero):
            raise ConfigInvalid("psi-scale index out of range for the base field")
        self.scale = nonzero[cfg.psi_scale - 1]
        self._built: dict = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.cfg.seed}:{label}")

    def _once(self, key: tuple, build):
        got = self._built.get(key)
        if got is None:
            got = self._built[key] = build()
        return got

    def ctx(self, level: int, n: int | None = None) -> RepContext:
        n = n or self.cfg.n
        return self._once((RepContext, n, level), lambda: RepContext(self.tower, n, level, self.scale))

    def _group(self, cls, level: int | None, n: int | None, **kwargs):
        level, n = level or self.cfg.m, n or self.cfg.n
        return self._once((cls, n, level, *kwargs.items()),
                          lambda: cls(self.tower, n, level, cap=self.cfg.enum_cap, **kwargs))

    def sp(self, level: int | None = None, n: int | None = None) -> SympGroup:
        return self._group(SympGroup, level, n)

    def gsp(self, level: int | None = None) -> SympGroup:
        return self._group(SympGroup, level, None, similitude=True)

    def sph(self, level: int | None = None, n: int | None = None) -> SpHGroup:
        return self._group(SpHGroup, level, n)

    def torus(self, level: int) -> TorusSL2:
        return self._once((TorusSL2, level), lambda: TorusSL2(self.tower, level, cap=self.cfg.enum_cap))

    def semidirect(self) -> SemidirectGroup:
        """Γ ⋉ Sp(F') with Γ of order m."""
        return self._once((SemidirectGroup,), lambda: SemidirectGroup(self.sp(), self.cfg.m))

    def count(self, default: int) -> int:
        """The sample size of a case family that cannot enumerate; default under 'all'."""
        return self.cfg.sample if isinstance(self.cfg.sample, int) else default

    def samples(self, spec, label: str):
        if self.cfg.sample == "all":
            return spec.elements()
        rng = self.rng(label)
        return [spec.random(rng) for _ in range(self.cfg.sample)]


# -- individual checks ---------------------------------------------------------------


def check_gauss(ws: Workspace) -> list[Case]:
    tower, p = ws.tower, ws.cfg.p
    cases = []
    for d in tower.levels():
        G = gauss_sum(tower, d, ws.scale)
        lhs = G * G
        rhs = CycNum.rational(p, tower.quad_char(tower.from_int(p - 1), d) * tower.q**d)
        cases.append(Case.of(f"G_{d}^2 = eps(-1) q^{d}", lhs, rhs))
        exps = tower.digit_array(tower.level_elements(d)) @ tower.psi_row(d, ws.scale) % p
        tot = CycNum.from_counts(p, np.bincount(exps, minlength=p))
        cases.append(Case.of(f"sum psi level {d} = 0", tot, CycNum.zero(p)))
    for d in tower.levels():
        if 2 * d in tower.levels():
            hd = gauss_sum(tower, 2 * d, ws.scale)
            sq = gauss_sum(tower, d, ws.scale)
            rhs = -(sq * sq)
            cases.append(Case.of(f"Hasse-Davenport {d}->{2*d}", hd, rhs))
    return cases


def check_homomorphism(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    ctx = ws.ctx(cfg.m)
    sph = ws.sph()
    sp = ws.sp()
    heis = sph.heis
    rng = ws.rng("homomorphism")
    cases = []
    count = ws.count(200)
    pairs = [(sph.random(rng), sph.random(rng)) for _ in range(count)]
    ops = ctx.rhos(chain.from_iterable((sph.mul(g1, g2), g1, g2) for g1, g2 in pairs))  # one family, read in threes
    for k, (lhs, rho1, rho2) in enumerate(zip(ops, ops, ops)):
        cases.append(Case.of(f"rho(g1 g2) = rho(g1) rho(g2) #{k}", lhs, rho1 @ rho2))
    unitary = [sp.random(rng) for _ in range(20)]
    for k, op in enumerate(ctx.rhos(unitary)):
        prod = op @ op.conj_transpose()
        cases.append(Case.of(f"unitarity #{k}", prod, ctx.identity_op()))
    Isig = ctx.op_galois(1)
    Isig_inv = ctx.op_galois(-1)
    drawn = [sph.random(rng) for _ in range(min(100, count))]
    ops = ctx.rhos(chain.from_iterable((g, sph.frob(g, 1)) for g in drawn))
    for k, (rho, rho_sigma) in enumerate(zip(ops, ops)):
        cases.append(Case.of(f"I_sigma intertwining #{k}", (Isig @ rho) @ Isig_inv, rho_sigma))
    zero_v = tuple(ws.tower.zero for _ in range(2 * cfg.n))
    field = ws.tower.level_elements(cfg.m)
    for kk, e in zip(field, (ws.tower.digit_array(field) @ ws.tower.psi_row(cfg.m, ws.scale) % cfg.p).tolist()):
        op = ctx.op_heis((zero_v, kk))
        want = ctx.identity_op().scale(CycNum.root_of_unity(cfg.p, e))
        cases.append(Case.of(f"central character k={kk}", op, want))
    acting = [(sp.random(rng), heis.random(rng)) for _ in range(50)]
    ops = ctx.rhos(chain.from_iterable((s, sp.inv(s)) for s, _ in acting))
    for k, ((s, h), rho, rho_inv) in enumerate(zip(acting, ops, ops)):
        lhs = (rho @ ctx.op_heis(h)) @ rho_inv
        rhs = ctx.op_heis(sp_act_heis(ws.tower, s, h, cfg.n))
        cases.append(Case.of(f"Sp action on H #{k}", lhs, rhs))
    conjugated = []
    for k in range(50):
        i = rng.randrange(cfg.m)
        g, h = sph.random(rng), sph.random(rng)
        conjugated.append((i, g, sph.twisted_conj(h, g, i)))
    traces = _traces_by_twist(ctx, [(i, z) for i, g, moved in conjugated for z in (g, moved)])
    for k, (i, _, _) in enumerate(conjugated):
        cases.append(Case.of(f"twisted class function i={i} #{k}", traces[2 * k], traces[2 * k + 1]))
    return cases


def _traces_by_twist(ctx: RepContext, draws: list) -> list[CycNum]:
    """tr ρ̃'(σ^i, g) at each (i, g) of draws, in draw order: one `extended_traces` call per twist."""
    out = {}
    for i in dict.fromkeys(i for i, _ in draws):
        ks = [k for k, (j, _) in enumerate(draws) if j == i]
        out.update(zip(ks, ctx.extended_traces(i, [draws[k][1] for k in ks])))
    return [out[k] for k in range(len(draws))]


def _norm_cases(ws: Workspace, spec, ncfg: NormConfig, label: str, var: str, lhs, rhs) -> list[Case]:
    """lhs(gs)[k] = rhs(N(σ^i, gs[k])) on the sampled (or every) elements gs of
    spec; both sides take whole stacks: lhs the sample, rhs its distinct norms."""
    gs = ws.samples(spec, f"{label}:{ncfg.i}:{ncfg.t}")
    norms = gyoja_norms(ncfg, spec, gs, ws.cfg.ambient_cap)
    distinct = list(dict.fromkeys(norms))
    rhs_of = dict(zip(distinct, rhs(distinct)))
    return [Case.of(f"i={ncfg.i},t={ncfg.t},{var}={g}", left, rhs_of[N]) for g, left, N in zip(gs, lhs(gs), norms)]


def _operator_traces(ctx: RepContext, gs: list) -> list[CycNum]:
    """tr ρ(g) of the dense operators of the symplectic gs, their steps factored a stack at a time."""
    return [rho.trace() for rho in ctx.rhos(gs)]


def check_star(ws: Workspace) -> list[Case]:
    ctx_top = ws.ctx(ws.cfg.m)
    cases = []
    for ncfg in ws.cfg.norm_cfgs():
        ctx_d = ws.ctx(ncfg.d)
        cases += _norm_cases(ws, ws.sp(), ncfg, "star", "g", lambda gs: ctx_top.extended_traces(ncfg.i, gs),
                             lambda norms: _operator_traces(ctx_d, norms))
    return cases


def check_gsp(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    if cfg.n != 1:
        raise ConfigInvalid("the similitude check is implemented for n = 1 (GSp2 = GL2)")
    ctx_top = ws.ctx(cfg.m)
    cases = []
    for ncfg in cfg.norm_cfgs():
        ctx_d = ws.ctx(ncfg.d)  # π_d = Ind_Sp^GSp ρ_d is the untwisted extended GSp trace at level d
        (dim_case_lhs,) = extended_gsp_traces(ctx_d, 0, [ws.gsp(ncfg.d).identity()])
        dim_expected = CycNum.rational(cfg.p, (ws.tower.q**ncfg.d - 1) * ws.tower.q ** (ncfg.d * cfg.n))
        cases.append(Case.of(f"dim pi_{ncfg.d}", dim_case_lhs, dim_expected))
        cases += _norm_cases(ws, ws.gsp(), ncfg, "gsp", "g'", lambda gs: extended_gsp_traces(ctx_top, ncfg.i, gs),
                             lambda norms: extended_gsp_traces(ctx_d, 0, norms))
    return cases


def check_support(ws: Workspace) -> list[Case]:
    """|tr ρ̃'(σ^i, g·h)|² equals the character induced from the trivial
    character of Γ ⋉ Sp·Z; in particular the trace vanishes off its conjugates.
    That induced value counts the Heisenberg translations, the coset reps, that
    move (σ^i, y) into Γ ⋉ Sp·Z: a sum of `RepContext.translation_rows`."""
    cfg = ws.cfg
    ctx = ws.ctx(cfg.m)
    sph = ws.sph()
    rng = ws.rng("support")
    draws = [(rng.randrange(cfg.m), sph.random(rng)) for _ in range(ws.count(500))]
    cases = []
    for (i, y), tr in zip(draws, _traces_by_twist(ctx, draws)):
        lhs = tr * tr.conj()
        rhs = CycNum.rational(cfg.p, int(ctx.translation_rows(i, y[0], ctx.v_coordinates([y[1][0]])).sum()))
        tag = " [off conjugates]" if rhs.is_zero() else ""
        cases.append(Case.of(f"i={i},y={y}{tag}", lhs, rhs))
    return cases


def check_orthogonal(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    if cfg.n != 2:
        raise ConfigInvalid("the orthogonal-decomposition check needs n = 2")
    tower = ws.tower
    ctx2 = ws.ctx(cfg.m)
    ctx1 = ws.ctx(cfg.m, n=1)
    sl, h1 = ws.sp(n=1), ws.sph(n=1).heis
    rng = ws.rng("orthogonal")
    count = ws.count(200)
    twists = [ncfg.i for ncfg in cfg.norm_cfgs()]
    draws = []
    for k in range(count + count // 4):
        g1, g2 = sl.random(rng), sl.random(rng)
        with_heis = k >= count
        if with_heis:
            ha, hb = h1.random(rng), h1.random(rng)
        else:
            ha, hb = h1.identity(), h1.identity()
        big = (block_embed(tower, g1, g2), heis_embed(tower, ha, hb))
        draws.append((with_heis, g1, g2, ha, hb, big))
    lhs = {i: ctx2.extended_traces(i, [big for *_, big in draws]) for i in twists}
    rhs = {i: ctx1.extended_traces(i, [z for _, g1, g2, ha, hb, _ in draws for z in ((g1, ha), (g2, hb))])
           for i in twists}
    cases = []
    for k, (with_heis, g1, g2, *_) in enumerate(draws):
        for i in twists:
            tag = "sp-pair" if not with_heis else "sph-pair"
            cases.append(Case.of(f"i={i},{tag},g1={g1},g2={g2}", lhs[i][k], rhs[i][2 * k] * rhs[i][2 * k + 1]))
    return cases


def _slice_cases(ctx: RepContext, label: str, describe, points: list, lhs, w: int, rhs) -> list[Case]:
    """Cases of one exhaustively enumerated slice: a full case for each of the
    first three mismatching points, then one matched/total aggregate case.

    Row k of lhs and rhs holds the values at points[k] over one common
    denominator: G^{-n·w}·Σ_e lhs[k, e]·ζ^e and Σ_e rhs[k, e]·ζ^e, which
    agree when lhs and rhs·G^{n·w} differ by a constant row (Σ_e ζ^e = 0).
    describe(x) is the input text of a mismatch.
    """
    diff = lhs - ctx.gauss_rows(rhs, w)
    bad = np.flatnonzero((diff != diff[:, -1:]).any(axis=1))
    cases = [Case.of(describe(points[k]), ctx.value(lhs[k], w), ctx.value(rhs[k])) for k in bad[:3]]
    total = len(points)
    cases.append(Case.of(label, f"{total - len(bad)}/{total}", f"{total}/{total}"))
    return cases


def check_parabolic(ws: Workspace) -> list[Case]:
    """Restriction of tr ρ̃' to Γ⋉B(F')H(F') against the character induced
    from ε'∘det ⊗ ψ' on Γ⋉B(F')H_⊥(F'), enumerated exhaustively (n = 1)."""
    cfg = ws.cfg
    if cfg.n != 1:
        raise ConfigInvalid("the parabolic check is implemented for n = 1")
    tower, m = ws.tower, cfg.m
    field = tower.level_elements(m)
    Q = len(field)
    points = m * Q * (Q - 1) * Q**3  # |B(F')| = Q(Q-1)
    if points > cfg.enum_cap:  # the enumeration ignores --sample
        raise GroupTooLarge(f"parabolic enumerates {points} points (j, b, h), over the cap {cfg.enum_cap}")
    ctx = ws.ctx(m)
    borel = [g for g in ws.sp().elements() if g[2] == tower.zero]  # c = 0, in sorted order
    # coset reps of Γ⋉B·H_⊥ in Γ⋉B·H: Heisenberg translations along f_1, the
    # X* slot of V (n = 1); ε'∘det ⊗ ψ' is ε'(a)·ψ'(t) on B·H_⊥
    heis_parts = ws.sph().heis.elements()
    vs, ts = ctx.heis_points()
    cases = []
    for j in range(m):
        for b, (sign, w, rows) in zip(borel, ctx.slice_traces(j, borel, vs, ts)):
            rhs = ctx.eps(b[0]) * ctx.translation_rows(j, b, vs, ts, slot=1)
            cases += _slice_cases(ctx, f"j={j},b={b} (all Heisenberg parts)", lambda h: f"j={j},b={b},h={h}",
                                  heis_parts, sign * rows, w, rhs)
    val = ctx.value(ctx.translation_rows(1, ws.sp().identity(), vs[:1], slot=1)[0])
    want = CycNum.rational(cfg.p, tower.q**cfg.n)
    cases.append(Case.of("induced trace at sigma = q^n", val, want))
    return cases


def check_sl2_torus(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    if cfg.n != 1:
        raise ConfigInvalid("the torus suite is specific to SL2 (n = 1)")
    q, m = ws.tower.q, cfg.m
    tor1 = ws.torus(1)
    tor = ws.torus(m) if m >= 2 else None
    # (τ, h) at level one, then (j, τ, v) in the extended slices; --sample bounds neither
    points = tor1.order() * q**3
    if tor is not None:
        points += m * tor.order() * q ** (2 * m)
    if points > cfg.enum_cap:
        raise GroupTooLarge(f"sl2-torus enumerates {points} points, over the cap {cfg.enum_cap}")
    cases = _torus_level_one(ws, tor1)
    if tor is not None:
        cases += _torus_extended(ws, tor, tor1)
    return cases


def _torus_nu(ctx: RepContext, tor: TorusSL2, om: dict, j: int, vs, ts=None) -> dict:
    """τ ↦ rows of ν(σʲ, (τ, (v, t))) = Ind₁ - Ind₂ on Γ⋉T·H at the context's
    level, for every τ of the torus, at the points (vs, ts) of `RepContext.slice_traces`.

    Ind₁ induces ρ̃ from Γ⋉H over the torus reps r = (t₀, 1): r⁻¹·(τ, h)·σʲ(r)
    has Sp part t₀⁻¹τσʲ(t₀) and Heisenberg part σʲ(t₀)⁻¹·h, so each t₀
    contributes to the one τ = t₀σʲ(t₀)⁻¹ the trace of ρ̃ at (σʲ, σʲ(t₀)⁻¹·h):
    for every t₀ at once, one slice at the identity over the moved points.
    Ind₂ induces om·ψ from Γ⋉T·Z over the Heisenberg translations, where z
    keeps the Sp part τ and lies in T·Z when its V-part vanishes.
    """
    elems = tor.elements()
    us = [tor.frob(t0, j) for t0 in elems]
    moved = np.concatenate([ctx.move(tor.inv(u), vs) for u in us])
    ((sign, _, rows),) = ctx.slice_traces(j, [tor.identity()], moved, None if ts is None else np.tile(ts, len(us)))
    nu = {tau: -om[tau] * ctx.translation_rows(j, tau, vs, ts) for tau in elems}
    for t0, u, part in zip(elems, us, rows.reshape(len(us), len(vs), -1)):
        nu[tor.mul(t0, tor.inv(u))] += sign * part
    return nu


def _torus_level_one(ws: Workspace, tor: TorusSL2) -> list[Case]:
    """The virtual character Ind - Ind equals ρ on T(F)H(F), plus the
    restriction-to-torus multiplicities."""
    ctx1 = ws.ctx(1)
    om = omega(tor)
    heis_elems = ws.sph(level=1).heis.elements()
    vs, ts = ctx1.heis_points()
    nu = _torus_nu(ctx1, tor, om, 0, vs, ts)
    cases = []
    for tau, (sign, w, rows) in zip(tor.elements(), ctx1.slice_traces(0, tor.elements(), vs, ts)):
        for h, row, nu_row in zip(heis_elems, rows, nu[tau]):
            cases.append(Case.of(f"nu at ({tau},{h})", ctx1.value(sign * row, w), ctx1.value(nu_row)))
    rows = weil_torus_restriction(ctx1, tor)
    for g, tr, expected in rows:
        cases.append(Case.of(f"rho|_T at {g}", tr, expected))
    # every torus character once except ω, keyed by exponent; ω has exponent |T|/2
    mult = sorted({k: (0 if k == tor.order() // 2 else 1) for k in range(tor.order())}.items())
    verified = all(tr == expected for _, tr, expected in rows)
    cases.append(Case.of("torus multiplicities (omega excluded)", mult if verified else None, mult))
    return cases


def _torus_extended(ws: Workspace, tor: TorusSL2, tor1: TorusSL2) -> list[Case]:
    """Props on Γ⋉T(F')H(F') for the torus tor at level m over tor1 at level
    one: the ±(Ind - Ind) virtual character equals ρ̃' (m odd) or η·ρ̃'
    (m even); ⟨ν',ν'⟩ = 1."""
    cfg = ws.cfg
    tower = ws.tower
    p, m = cfg.p, cfg.m
    ctx = ws.ctx(m)
    omp = omega_prime(tor, tor1)
    even = m % 2 == 0
    cases = []
    order2 = omega(tor)
    cases.append(
        Case(
            "omega' = order-2 character of T(F')",
            "omega∘norm",
            "parity of generator exponent",
            all(omp[g] == order2[g] for g in tor.elements()),
        )
    )
    field = tower.level_elements(m)
    Q = len(field)
    vpoints = [(a, b) for a in field for b in field]
    torus_elems = tor.elements()
    vs = ctx.v_points()
    twist = [eta(j) if even else 1 for j in range(m)]  # η(σʲ), for m even
    nu_prime = {}  # (j, τ) ↦ rows of ν' = ±ν over every v at t = 0
    for j in range(m):
        nu = _torus_nu(ctx, tor, omp, j, vs)
        for tau, (sign, w, rows) in zip(torus_elems, ctx.slice_traces(j, torus_elems, vs)):
            nu_prime[j, tau] = (-1 if even else 1) * nu[tau]
            cases += _slice_cases(ctx, f"nu' identity j={j},tau={tau} (all v, t=0)",
                                  lambda v: f"nu' j={j},tau={tau},v={v}", vpoints, sign * twist[j] * rows, w,
                                  nu_prime[j, tau])

    def nu_at(j, tau, v, t):  # the central t scales ν' by ψ'(t)
        return ctx.value(np.roll(nu_prime[j, tau][vpoints.index(v)], tower.psi_exponent(t, m, ws.scale)))

    rng = ws.rng("sl2-torus:t")
    draws = []
    for k in range(100):
        j = rng.randrange(m)
        tau = rng.choice(torus_elems)
        v = rng.choice(vpoints)
        t = rng.choice(field)
        draws.append((j, (tau, (v, t))))
    for (j, (tau, (v, t))), tr in zip(draws, _traces_by_twist(ctx, draws)):  # traced with t: checks ψ' on the centre
        cases.append(Case.of(f"nu' sampled t: j={j},tau={tau},v={v},t={t}", tr * twist[j], nu_at(j, tau, v, t)))
    at_sigma = nu_at(1 % m, tor.identity(), vpoints[0], tower.zero)
    want = CycNum.rational(p, -tower.q if even else tower.q)
    cases.append(Case.of("tr nu'(sigma)", at_sigma, want))
    # ⟨ν',ν'⟩: central ψ'-scaling makes every t-slice contribute equally
    norm_sq_total = ctx.norm_total(np.concatenate(list(nu_prime.values())))
    group_size = m * len(torus_elems) * Q * Q * Q
    ip = norm_sq_total * CycNum.rational(p, Q, group_size)
    cases.append(Case.of("<nu',nu'> = 1", ip, CycNum.one(p)))
    return cases


def check_gyoja_bijection(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    sp_top = ws.sp()
    cases = []
    for ncfg in cfg.norm_cfgs():
        sp_d = ws.sp(level=ncfg.d)
        members = sp_top.order() if sp_top.order() <= _EVERY_MEMBER_ORDER else 2
        rep = verify_bijection(ncfg, sp_top, sp_d, cfg.ambient_cap, members_per_class=members)
        tag = f"i={ncfg.i},t={ncfg.t}"
        cases.append(Case.of(f"{tag} class counts", rep.twisted_count, rep.target_count))
        for label, verdict in (("well defined", rep.well_defined), ("injective", rep.injective),
                               ("surjective", rep.surjective), ("sigma equivariant", rep.sigma_equivariant)):
            cases.append(Case.of(f"{tag} {label}", verdict, True))
    if sp_top.order() <= _EVERY_MEMBER_ORDER:
        cases += _isometry_cases(ws)
    if cfg.m == 2 and sp_top.order() <= _EVERY_MEMBER_ORDER:
        cases.append(_dimension_count_case(ws))
    return cases


def _isometry_cases(ws: Workspace) -> list[Case]:
    cfg = ws.cfg
    p = cfg.p
    sp_top = ws.sp()
    cases = []
    for ncfg in cfg.norm_cfgs():
        sp_d = ws.sp(level=ncfg.d)
        part_d = conjugacy_classes(sp_d)
        tw = twisted_classes(sp_top, ncfg.i)
        basis = indicator_basis(part_d, p)
        lifts = [lift_class_function(ncfg, sp_top, chi, tw, cfg.ambient_cap) for chi in basis]
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                lhs = inner_product(basis[a], basis[b])
                rhs = inner_product(lifts[a], lifts[b])
                cases.append(Case.of(f"isometry i={ncfg.i} <chi_{a},chi_{b}>", lhs, rhs))
        rng = ws.rng(f"isometry:{ncfg.i}")
        for k in range(3):
            c1 = ClassFunction(part_d, tuple(CycNum.rational(p, rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in part_d.reps))
            c2 = ClassFunction(part_d, tuple(CycNum.rational(p, rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in part_d.reps))
            l1 = lift_class_function(ncfg, sp_top, c1, tw, cfg.ambient_cap)
            l2 = lift_class_function(ncfg, sp_top, c2, tw, cfg.ambient_cap)
            lhs = inner_product(c1, c2)
            rhs = inner_product(l1, l2)
            cases.append(Case.of(f"isometry i={ncfg.i} random #{k}", lhs, rhs))
    return cases


def _dimension_count_case(ws: Workspace) -> Case:
    """dim C(Γ⋉G(F')) = Σ_i dim C(G(F_{d_i}))_σ, by counting classes."""
    cfg = ws.cfg
    lhs = len(conjugacy_classes(ws.semidirect()))
    rhs = 0
    for i in range(cfg.m):
        spd = ws.sp(level=choose_t(i, cfg.m).d)
        part = conjugacy_classes(spd)
        seen: set = set()
        orbits = 0
        for k, rep in enumerate(part.reps):
            if k in seen:
                continue
            orbits += 1
            cur_idx = k
            while cur_idx not in seen:
                seen.add(cur_idx)
                cur_idx = part.index_of(spd.frob(part.reps[cur_idx], 1))
        rhs += orbits
    return Case.of("class-space dimension count", lhs, rhs)


CHECK_FUNCS = {  # `all` runs them in this order
    "star": check_star,
    "gsp": check_gsp,
    "support": check_support,
    "orthogonal": check_orthogonal,
    "parabolic": check_parabolic,
    "sl2-torus": check_sl2_torus,
    "homomorphism": check_homomorphism,
    "gyoja-bijection": check_gyoja_bijection,
    "gauss": check_gauss,
}
CHECK_NAMES = (*CHECK_FUNCS, "all")


def _cases(name: str, ws: Workspace) -> list[Case]:
    cases = CHECK_FUNCS[name](ws)
    if not cases:  # an empty report would pass without checking anything
        pairs = [(c.i, c.t) for c in ws.cfg.norm_cfgs()]
        raise ConfigInvalid(f"{name} has no case to check at this configuration (twist pairs: {pairs})")
    return cases


def run_check(name: str, cfg: RunConfig, ws: Workspace | None = None) -> Report:
    """Run one named check (or 'all') and return its Report."""
    if name not in CHECK_NAMES:
        raise ConfigInvalid(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    ws = ws or Workspace(cfg)
    t0 = time.time()
    skipped = []
    if name == "all":
        cases = []
        for sub in CHECK_FUNCS:
            try:
                sub_cases = _cases(sub, ws)
            except (ConfigInvalid, GroupTooLarge) as exc:
                skipped.append((sub, str(exc)))
                continue
            for c in sub_cases:
                c.input = f"[{sub}] {c.input}"
            cases.extend(sub_cases)
    else:
        cases = _cases(name, ws)
    return Report(name, cfg.as_dict(), cases, time.time() - t0, skipped)
