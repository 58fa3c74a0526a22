"""Cross-checks that tie the verification machinery together."""

import importlib
import itertools
import json
import random

import numpy as np
import pytest

from weilbc import characters, cyclotomic, schrodinger
from weilbc.characters import coset_pairs, eta, induced_trace, omega_prime
from weilbc.checks import RunConfig, Workspace, _torus_nu, check_star, run_check
from weilbc.cli import main
from weilbc.cyclotomic import CycNum
from weilbc.errors import OperatorOverflow
from weilbc.fieldtower import build_tower
from weilbc.grouplib import SpHGroup, SympGroup, conjugacy_classes, mat_vec
from weilbc.normmap import choose_t, gyoja_norm
from weilbc.schrodinger import RepContext, gsp_character_values, siegel_factor


def test_translation_model_trace_matches_coset_formula():
    """The permutation model on C[V(F')] computes the induced-trivial character."""
    t = build_tower(3, 1, 2)
    sph = SpHGroup(t, 1, 2)
    field = t.level_elements(2)
    points = [(a, b) for a in field for b in field]
    reps = [(sph.sp.identity(), (v, t.zero)) for v in points]
    rng = random.Random(31)
    for _ in range(40):
        i = rng.randrange(2)
        s = sph.sp.random(rng)
        v0 = rng.choice(points)
        tt = rng.choice(field)
        y = (s, (v0, tt))
        # permutation model: count v with σ^{-i}(s^{-1} v + v0) = v
        s_inv = sph.sp.inv(s)
        fixed = 0
        for v in points:
            w = tuple(t.add(a, b) for a, b in zip(mat_vec(t, s_inv, v, 2), v0))
            if tuple(t.frobenius(c, -i) for c in w) == v:
                fixed += 1
        # coset-fixed form of the induced character
        hits = 0
        for r in reps:
            z = sph.mul(sph.mul(sph.inv(r), y), sph.frob(r, i))
            if z[1][0] == (t.zero, t.zero):  # z lies in Sp·Z: its V-part is zero
                hits += 1
        assert fixed == hits


def test_gsp_character_vanishes_off_unit_determinant():
    """π_d is induced from Sp, so it vanishes where the similitude factor
    cannot be moved into Sp (for GL2: whenever det ≠ 1)."""
    t = build_tower(3, 1, 2)
    ctx1 = RepContext(t, 1, 1)
    gl = SympGroup(t, 1, 1, similitude=True)
    part = conjugacy_classes(gl)
    values = gsp_character_values(ctx1, part)
    from weilbc.grouplib import mat_det

    for rep in part.reps:
        if mat_det(t, rep, 2) != t.one:
            assert values[rep] == CycNum.zero(3)
    assert values[gl.identity()] == CycNum.rational(3, 6)  # (q-1)·q


def test_star_identity_with_scaled_psi():
    """(⋆) holds for the scaled pairing ψ_a, a ≠ 1, checked separately."""
    t = build_tower(3, 1, 2)
    sl = SympGroup(t, 1, 2)
    scale = 2
    ctx2 = RepContext(t, 1, 2, scale=scale)
    ctx1 = RepContext(t, 1, 1, scale=scale)
    cfg = choose_t(1, 2)
    rng = random.Random(33)
    for _ in range(30):
        g = sl.random(rng)
        N = gyoja_norm(cfg, sl, g)
        assert ctx2.extended_trace(1, g) == ctx1.build_rho(N).trace()


def test_star_at_f729():
    """(⋆) on SL2(F_729): dimension-729 extended traces are read off the
    Siegel word, so a sampled star at this size stays cheap."""
    cfg = RunConfig(p=3, base_degree=2, n=1, m=3, sample=3, seed=0)
    report = run_check("star", cfg)
    assert report.ok
    assert len(report.cases) == 6  # twists i = 1, 2


def test_star_on_sp6_f9(case_digest):
    """(⋆) on Sp6(F9) at the default ambient cap: its Lang towers (3^48 and 3^60
    elements) hold elements past 2^63."""
    report = run_check("star", RunConfig(p=3, n=3, m=2, sample=6, seed=0))
    assert report.ok and len(report.cases) == 6
    assert case_digest(report) == "0cf611f01eead933bdb2800f1ce215705d8374a700ea06f358a87ecbe53326b0"


def test_group_too_large_surfaces_as_cli_error(capsys):
    rc = main(["star", "--p", "3", "--n", "2", "--m", "2", "--sample", "all"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "GroupTooLarge" in err


def test_ambient_cap_surfaces_as_cli_error(capsys):
    rc = main(["star", "--p", "3", "--n", "1", "--m", "2", "--sample", "40", "--ambient-cap", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "AmbientCapExceeded" in err


def test_support_check_zero_points_really_vanish():
    cfg = RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample=120, seed=11)
    report = run_check("support", cfg)
    assert report.ok
    offs = [c for c in report.cases if "[off conjugates]" in c.input]
    assert offs and all(c.lhs == CycNum.zero(3).to_text() for c in offs)


def test_star_builds_one_operator_per_distinct_norm(monkeypatch):
    """Exhaustive star over SL2(F9) traces ρ_d(N) once for each norm N it reaches."""
    cfg = RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample="all")
    ws = Workspace(cfg)
    built = []
    build = RepContext.build_rho

    def counting(ctx, g, steps=None):
        built.append(g)
        return build(ctx, g, steps)

    monkeypatch.setattr(RepContext, "build_rho", counting)
    cases = check_star(ws)
    sl = ws.sp()
    norms = {gyoja_norm(cfg.norm_cfgs()[0], sl, g, cfg.ambient_cap) for g in sl.elements()}
    assert len(cases) == len(sl.elements()) and all(c.equal for c in cases)
    assert sorted(built) == sorted(norms) and len(norms) < len(cases)


# -- slice-batched traces against the per-point path ------------------------------------


def _borel_reps(ws):
    """The coset reps of Γ⋉B·H_⊥ in Γ⋉B·H: Heisenberg translations along f_1."""
    tower, sph = ws.tower, ws.sph()
    return [(sph.sp.identity(), ((tower.zero, y), tower.zero)) for y in tower.level_elements(ws.cfg.m)]


def _borel_chi(ws):
    """ε'∘det ⊗ ψ' on B·H_⊥ and the membership test, per point."""
    tower, m = ws.tower, ws.cfg.m

    def in_sub(z):
        return z[1][0][1] == tower.zero

    def chi(z):
        return tower.psi(z[1][1], m, ws.scale) * CycNum.rational(tower.p, tower.quad_char(z[0][0], m))

    return in_sub, chi


def test_parabolic_slices_match_the_per_point_path():
    """Every point of four full parabolic slices at q = 3, m = 2: the trace rows
    equal extended_trace, the induced rows equal induced_trace, and a subset
    of the traces equals the dense tr(ρ(g)·I_σ^j)."""
    ws = Workspace(RunConfig(p=3, n=1, m=2))
    tower, ctx, sph = ws.tower, ws.ctx(2), ws.sph()
    reps = _borel_reps(ws)
    in_sub, chi = _borel_chi(ws)
    vs, ts = ctx.heis_points()
    heis = sph.heis.elements()
    borel = [g for g in sph.sp.elements() if g[2] == tower.zero]
    unip = next(g for g in borel if g[1] != tower.zero and g[0] != tower.one)
    for j in (0, 1):
        pairs = coset_pairs(sph, reps, j)
        parts = (sph.sp.identity(), unip)
        for b, (sign, w, rows) in zip(parts, ctx.slice_traces(j, parts, vs, ts)):
            induced = ctx.eps(b[0]) * ctx.translation_rows(j, b, vs, ts, slot=1)
            assert len(rows) == len(induced) == len(heis) == 729
            for k, h in enumerate(heis):
                assert ctx.value(sign * rows[k], w) == ctx.extended_trace(j, (b, h))
                assert ctx.value(induced[k]) == induced_trace(sph, pairs, (b, h), in_sub, chi)
            for k in range(0, len(heis), 61):
                dense = (ctx.build_rho((b, heis[k])) @ ctx.op_galois(j)).trace()
                assert ctx.value(sign * rows[k], w) == dense


def _nu_reference(ctx, sph, tor, om, j, tau):
    """v ↦ ν(σʲ, (τ, (v, 0))) one point at a time, as the per-point path had it:
    Ind₁ through induced_trace over the torus pairs that fix (τ, 1), Ind₂ from
    the group law at each Heisenberg translation, where exactly one v lands
    r⁻¹·(τ, (v, 0))·σʲ(r) in T·Z."""
    tower, level = ctx.tower, ctx.level
    field = tower.level_elements(level)
    vpoints = [(a, b) for a in field for b in field]
    ident, heis_id = sph.sp.identity(), sph.heis.identity()
    tpairs = coset_pairs(sph, [(t0, heis_id) for t0 in tor.elements()], j)
    fixed = [pr for pr in tpairs if sph.mul(sph.mul(pr[0], (tau, heis_id)), pr[1])[0] == ident]
    ind2 = {}
    for v0, (r_inv, r_j) in zip(vpoints, coset_pairs(sph, [(ident, (v, tower.zero)) for v in vpoints], j)):
        v_hit = tuple(tower.sub(a, b) for a, b in zip(mat_vec(tower, tor.inv(tau), v0, 2), r_j[1][0]))
        z = sph.mul(sph.mul(r_inv, (tau, (v_hit, tower.zero))), r_j)
        assert z[1][0] == (tower.zero, tower.zero)
        value = CycNum.rational(tower.p, om[z[0]]) * tower.psi(z[1][1], level, ctx.scale)
        ind2[v_hit] = ind2.get(v_hit, CycNum.zero(tower.p)) + value

    def nu(v):
        ind1 = induced_trace(sph, fixed, (tau, (v, tower.zero)), lambda z: z[0] == ident,
                             lambda z: ctx.extended_trace(j, z[1]))
        return ind1 - ind2.get(v, CycNum.zero(tower.p))

    return nu


@pytest.mark.parametrize("m", [2, 3])
def test_torus_slices_match_the_per_point_path(m):
    """Every point of four full sl2-torus slices (j ∈ {0, 1}, τ = 1 and a τ whose
    Siegel word has a Weyl step): the trace rows equal extended_trace and the
    ν rows the per-point induced characters; a subset of the traces equals the
    dense tr(ρ(g)·I_σ^j), and of the ν rows a full induced_trace of Ind₂."""
    ws = Workspace(RunConfig(p=3, n=1, m=m))
    tower, ctx, sph, tor = ws.tower, ws.ctx(m), ws.sph(), ws.torus(m)
    om = omega_prime(tor, ws.torus(1))
    vs = ctx.v_points()
    field = tower.level_elements(m)
    vpoints = [(a, b) for a in field for b in field]
    weyl_tau = next(g for g in tor.elements() if len(siegel_factor(tower, 1, m, g)) == 3)
    for j in (0, 1):
        vpairs = coset_pairs(sph, [(sph.sp.identity(), (v, tower.zero)) for v in vpoints], j)
        nus, parts = _torus_nu(ctx, tor, om, j, vs), (tor.identity(), weyl_tau)
        for tau, (sign, w, rows) in zip(parts, ctx.slice_traces(j, parts, vs)):
            nu = nus[tau]
            nu_ref = _nu_reference(ctx, sph, tor, om, j, tau)
            ind2 = om[tau] * ctx.translation_rows(j, tau, vs)
            assert w == (tau == weyl_tau) and len(rows) == len(nu) == len(vpoints)
            for k, v in enumerate(vpoints):
                g = (tau, (v, tower.zero))
                assert ctx.value(sign * rows[k], w) == ctx.extended_trace(j, g)
                assert ctx.value(nu[k]) == nu_ref(v)
            for k in range(0, len(vpoints), 97):
                g = (tau, (vpoints[k], tower.zero))
                assert ctx.value(sign * rows[k], w) == (ctx.build_rho(g) @ ctx.op_galois(j)).trace()
                assert ctx.value(ind2[k]) == induced_trace(
                    sph, vpairs, g, lambda z: z[1][0] == (tower.zero, tower.zero),
                    lambda z: tower.psi(z[1][1], m, ws.scale) * CycNum.rational(tower.p, om[z[0]]))


@pytest.mark.parametrize("n, sample", [(1, 60), (2, 4)], ids=["sl2-f9", "sp4-f9"])
def test_support_counts_match_the_coset_formula(n, sample):
    """The rhs of support, a count of translations from `translation_rows`, equals
    induced_trace of the trivial character over every Heisenberg-translation coset
    pair at each sampled point, replayed from the check's own sampling."""
    cfg = RunConfig(p=3, n=n, m=2, pairs=((1, 1),), sample=sample, seed=42)
    ws = Workspace(cfg)
    report = run_check("support", cfg, ws)
    sph, zero, one = ws.sph(), ws.tower.zero, CycNum.one(3)
    vpoints = itertools.product(ws.tower.level_elements(2), repeat=2 * n)
    reps = [(sph.sp.identity(), (v, zero)) for v in vpoints]
    pairs = [coset_pairs(sph, reps, i) for i in range(2)]
    rng = ws.rng("support")
    for case in report.cases:
        i, y = rng.randrange(2), sph.random(rng)
        assert case.input.startswith(f"i={i},y={y}")
        rhs = induced_trace(sph, pairs[i], y, lambda z: all(x == zero for x in z[1][0]), lambda z: one)
        assert case.rhs == rhs.to_text()
    assert len(report.cases) == sample and report.ok
    if n == 1:  # the sample reaches points off the conjugates of Γ⋉Sp·Z and points on them
        assert 0 < sum("[off conjugates]" in c.input for c in report.cases) < sample


def test_library_makes_no_per_coset_call(monkeypatch):
    """induced_trace and coset_pairs are the tests' per-coset oracle: support and
    gsp run with both refused, and no other library module binds either name."""
    def refuse(*args):
        raise AssertionError("per-coset induction called")

    modules = [importlib.import_module(f"weilbc.{m}") for m in
               ("checks", "cli", "cyclotomic", "fieldtower", "grouplib", "modp", "normmap", "schrodinger")]
    for name in ("induced_trace", "coset_pairs"):
        monkeypatch.setattr(characters, name, refuse)
        assert all(name not in vars(mod) for mod in modules)
    for check in ("support", "gsp"):
        assert run_check(check, RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample=10, seed=42)).ok


def test_exhaustive_slices_make_no_per_point_call(monkeypatch):
    """parabolic and sl2-torus trace and induce whole slices, and trace the |T(F_q)|
    values of ρ restricted to the torus and the 100 sampled-t points as families:
    no per-point extended trace, no per-coset induction."""
    calls = {"extended_trace": 0, "induced_trace": 0}
    trace, induce = RepContext.extended_trace, characters.induced_trace

    def counted_trace(*args):
        calls["extended_trace"] += 1
        return trace(*args)

    def counted_induce(*args):
        calls["induced_trace"] += 1
        return induce(*args)

    monkeypatch.setattr(RepContext, "extended_trace", counted_trace)
    monkeypatch.setattr(characters, "induced_trace", counted_induce)
    assert run_check("parabolic", RunConfig(p=3, n=1, m=2, seed=42)).ok
    assert calls == {"extended_trace": 0, "induced_trace": 0}
    for m in (2, 3):
        assert run_check("sl2-torus", RunConfig(p=3, n=1, m=m, sample=100, seed=42)).ok
        assert calls == {"extended_trace": 0, "induced_trace": 0}


def _count_stacks_of_one(monkeypatch) -> dict:
    """Count the Siegel factorizations of a single element (stacks of one) from now on."""
    calls = {"stacks of one": 0}
    words = schrodinger._siegel_words

    def counted_words(tower, n, level, g):
        calls["stacks of one"] += len(g) == 1
        return words(tower, n, level, g)

    monkeypatch.setattr(schrodinger, "_siegel_words", counted_words)
    return calls


def test_star_makes_no_per_element_trace_or_factorization(monkeypatch):
    """star over SL2(F9) traces its whole sample in one pass and factors its
    distinct norms in one pass: no per-element extended trace, no stack of one."""
    calls = {"extended_trace": 0}
    trace = RepContext.extended_trace

    def counted_trace(*args):
        calls["extended_trace"] += 1
        return trace(*args)

    monkeypatch.setattr(RepContext, "extended_trace", counted_trace)
    stacks = _count_stacks_of_one(monkeypatch)
    report = run_check("star", RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample="all", seed=42))
    assert report.ok and len(report.cases) == 720
    assert calls == {"extended_trace": 0} and stacks == {"stacks of one": 0}


def test_homomorphism_reads_every_element_from_its_prefetch(monkeypatch):
    """At (p, n, m) = (3, 2, 2), dim 81, homomorphism's 200-sample draws about a
    thousand Sp parts: each case family's operators and traces take the family
    whole (`rhos`, `extended_traces`), so no element is factored alone."""
    stacks = _count_stacks_of_one(monkeypatch)
    assert run_check("homomorphism", RunConfig(p=3, n=2, m=2, sample=200, seed=42)).ok
    assert stacks == {"stacks of one": 0}


def test_library_factors_only_in_stacks(monkeypatch):
    """siegel_factor is the tests' view of one word: every check that factors
    symplectic elements runs with it refused, and no other library module binds
    it.  Each takes its case families whole: none factors an element alone."""
    def refuse(*args):
        raise AssertionError("siegel_factor called")

    modules = [importlib.import_module(f"weilbc.{m}") for m in
               ("characters", "checks", "cli", "cyclotomic", "fieldtower", "grouplib", "modp", "normmap")]
    monkeypatch.setattr(schrodinger, "siegel_factor", refuse)
    stacks = _count_stacks_of_one(monkeypatch)
    assert all("siegel_factor" not in vars(mod) for mod in modules)
    for check, cfg in [
        ("star", RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample=20, seed=42)),
        ("homomorphism", RunConfig(p=3, n=1, m=2, sample=20, seed=42)),
        ("support", RunConfig(p=3, n=1, m=2, sample=20, seed=42)),
        ("orthogonal", RunConfig(p=3, n=2, m=2, pairs=((1, 1),), sample=4, seed=42)),
        ("parabolic", RunConfig(p=3, n=1, m=2, seed=42)),
        ("sl2-torus", RunConfig(p=3, n=1, m=2, sample=20, seed=42)),
    ]:
        report = run_check(check, cfg)
        assert report.ok and report.cases, check
        assert stacks == {"stacks of one": 0}, check


def _inject(monkeypatch, level, j, s, k):
    """Add 1 to the ζ⁰ count of point k in the trace rows of slice (j, s) at level."""
    honest = RepContext.slice_traces

    def faulty(ctx, j_, ss, vs, ts=None):
        ss = list(ss)
        for s_, (sign, w, rows) in zip(ss, honest(ctx, j_, ss, vs, ts)):
            if (ctx.level, j_, s_) == (level, j, s):
                rows = rows.copy()
                rows[k, 0] += 1
            yield sign, w, rows

    monkeypatch.setattr(RepContext, "slice_traces", faulty)


def test_a_faulty_point_fails_its_slice(monkeypatch):
    """One wrong row in a torus slice and in a parabolic slice: each report
    fails, carries the full case for that point with the per-point values, and
    its slice reads one less."""
    cfg = RunConfig(p=3, n=1, m=2, seed=42)
    ws = Workspace(cfg)
    tower, ctx, sph, tor = ws.tower, ws.ctx(2), ws.sph(), ws.torus(2)
    p = tower.p
    tau = next(g for g in tor.elements() if len(siegel_factor(tower, 1, 2, g)) == 3)
    field = tower.level_elements(2)
    vpoints = [(a, b) for a in field for b in field]
    k, j = 40, 1
    g = (tau, (vpoints[k], tower.zero))
    ((sign, w, _),) = ctx.slice_traces(j, [tau], ctx.v_points())
    true = ctx.extended_trace(j, g) * eta(j)  # = ν'(g): the identity holds there
    wrong = true + ctx._weyl_constant(w) * CycNum.rational(p, sign * eta(j))
    _inject(monkeypatch, 2, j, tau, k)
    report = run_check("sl2-torus", cfg)
    assert not report.ok and report.n_fail == 2
    case = next(c for c in report.cases if c.input == f"nu' j={j},tau={tau},v={vpoints[k]}")
    assert (case.lhs, case.rhs, case.equal) == (wrong.to_text(), true.to_text(), False)
    agg = next(c for c in report.cases if c.input == f"nu' identity j={j},tau={tau} (all v, t=0)")
    assert (agg.lhs, agg.rhs, agg.equal) == ("80/81", "81/81", False)

    b = next(g for g in sph.sp.elements() if g[2] == tower.zero and g[1] != tower.zero and g[0] != tower.one)
    h = sph.heis.elements()[k]
    reps = _borel_reps(ws)
    in_sub, chi = _borel_chi(ws)
    ((sign, _, _),) = ctx.slice_traces(j, [b], *ctx.heis_points())
    _inject(monkeypatch, 2, j, b, k)
    report = run_check("parabolic", cfg, ws)
    assert not report.ok and report.n_fail == 2
    case = next(c for c in report.cases if c.input == f"j={j},b={b},h={h}")
    wrong = ctx.extended_trace(j, (b, h)) + CycNum.rational(p, sign)
    rhs = induced_trace(sph, coset_pairs(sph, reps, j), (b, h), in_sub, chi)
    assert (case.lhs, case.rhs, case.equal) == (wrong.to_text(), rhs.to_text(), False)
    agg = next(c for c in report.cases if c.input == f"j={j},b={b} (all Heisenberg parts)")
    assert (agg.lhs, agg.rhs, agg.equal) == ("728/729", "729/729", False)


def test_a_wrong_central_character_fails_the_sampled_t_cases(monkeypatch):
    """ρ̃' with ψ'(−t) in place of ψ'(t) on the centre: the t = 0 slices cannot
    see it, so the sampled-t cases, traced with their own t, must."""
    honest = RepContext._heis_step

    def flipped(ctx, h, offset=0):
        v, t = h
        return honest(ctx, (v, ctx.tower.neg(t)), offset)

    monkeypatch.setattr(RepContext, "_heis_step", flipped)
    report = run_check("sl2-torus", RunConfig(p=3, n=1, m=2, seed=42))
    failed = [c.input for c in report.cases if not c.equal]
    assert not report.ok and all(x.startswith("nu' sampled t: ") for x in failed)
    assert all(not x.endswith(",t=0") for x in failed)


@pytest.mark.parametrize("name, m", [("sl2-torus", 2), ("parabolic", 2)])
def test_slice_reports_serialize(name, m):
    """Row comparisons leave plain bools in every case, so the report is JSON."""
    report = run_check(name, RunConfig(p=3, n=1, m=m, seed=42))
    assert all(type(c.equal) is bool for c in report.cases)
    assert json.loads(report.to_json())["summary"]["fail"] == 0


def test_row_sums_refuse_an_int64_overflow(monkeypatch):
    """Each int64 sum of the slice path checks its bound first (here lowered)."""
    ws = Workspace(RunConfig(p=3, n=1, m=2))
    ctx, tor = ws.ctx(2), ws.torus(2)
    tau = next(g for g in tor.elements() if len(siegel_factor(ws.tower, 1, 2, g)) == 3)
    vs = ctx.v_points()
    ((_, w, rows),) = ctx.slice_traces(1, [tau], vs)
    monkeypatch.setattr(cyclotomic, "INT64_BOUND", 100)
    with pytest.raises(OperatorOverflow, match="trace histogram"):
        list(ctx.slice_traces(1, [tau], vs))
    with pytest.raises(OperatorOverflow, match="induced histogram"):
        ctx.translation_rows(1, tau, vs)
    with pytest.raises(OperatorOverflow, match="Gauss-sum product"):
        ctx.gauss_rows(np.full_like(rows, 20), w)
    with pytest.raises(OperatorOverflow, match="norm sum"):
        ctx.norm_total(rows)
    assert ctx.norm_total(np.array([[1, 0, 0]])) == CycNum.one(3)  # within the bound: computed


def test_torus_sl2_bench_configuration_digest(case_digest):
    """The torus-sl2 benchmark configuration (p = 3, m = 2, seed 0, default sample)."""
    report = run_check("sl2-torus", RunConfig(p=3, n=1, m=2, seed=0))
    assert report.ok and len(report.cases) == 232
    assert case_digest(report) == "eee8b98badda1c0ff2fc069cb08ae0a1fcea755e83511b6a4296838c30fcb955"
