"""Cross-checks that tie the verification machinery together."""

import random

from weilbc.checks import RunConfig, Workspace, check_star, run_check
from weilbc.cli import main
from weilbc.cyclotomic import CycNum
from weilbc.fieldtower import build_tower
from weilbc.grouplib import SpHGroup, SympGroup, conjugacy_classes, mat_vec
from weilbc.normmap import choose_t, gyoja_norm
from weilbc.schrodinger import RepContext, gsp_character_values


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

    def counting(ctx, g):
        built.append(g)
        return build(ctx, g)

    monkeypatch.setattr(RepContext, "build_rho", counting)
    cases = check_star(ws)
    sl = ws.sp()
    norms = {gyoja_norm(cfg.norm_cfgs()[0], sl, g, cfg.ambient_cap) for g in sl.elements()}
    assert len(cases) == len(sl.elements()) and all(c.equal for c in cases)
    assert sorted(built) == sorted(norms) and len(norms) < len(cases)
