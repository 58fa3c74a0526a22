import random

import numpy as np
import pytest

from weilbc import normmap
from weilbc.errors import AmbientCapExceeded, ConfigInvalid, WitnessFailed
from weilbc.fieldtower import build_tower
from weilbc.grouplib import (
    MulGroup,
    SpHGroup,
    SpZGroup,
    SympGroup,
    TorusSL2,
    conjugacy_classes,
)
from weilbc.normmap import (
    choose_t,
    gyoja_norm,
    lang_solve,
    twisted_product,
    verify_bijection,
)


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


def test_choose_t_examples():
    assert choose_t(1, 2).t == 1
    cfg = choose_t(3, 4)
    assert cfg.t == 3 and cfg.d == 1
    cfg = choose_t(2, 4)
    assert cfg.t == 1 and cfg.d == 2 and cfg.mu == 2 and cfg.j == 1
    cfg0 = choose_t(0, 3)
    assert cfg0.t == 1 and cfg0.d == 3


def test_choose_t_rejects_bad_pairs():
    with pytest.raises(ConfigInvalid):
        choose_t(4, 4)
    with pytest.raises(ConfigInvalid):
        choose_t(1, 2, t=2)  # 2·1 ≢ 1 (mod 2)


def test_twisted_product_examples(t92):
    mg = MulGroup(t92, 2)
    zeta = mg.generators()[0]
    assert twisted_product(mg, 1, t92.one, 3) == t92.one
    assert twisted_product(mg, 1, zeta, 1) == zeta
    # ζ^{1+3} = ζ^4 has order 2, i.e. equals -1 = 2 in F_3
    assert twisted_product(mg, 1, zeta, 2) == 2


def test_lang_trivial_target(t92):
    sl = SympGroup(t92, 1, 2)
    w = lang_solve(sl, sl.identity(), 1)
    chk = w.tower
    alpha = w.alpha
    assert tuple(chk.frobenius(x, 1) for x in alpha) == alpha  # witness is rational


def test_lang_abelian_square(t92):
    mg = MulGroup(t92, 2)
    zeta = mg.generators()[0]
    h = t92.mul(zeta, zeta)
    w = lang_solve(mg, h, 1)
    big = w.tower
    a = w.alpha
    assert big.mul(big.inv(a), big.frobenius(a, 1)) == w.embedding.embed(h)
    assert w.ambient_degree == 2  # ζ² is a square: solvable already over F_9


def test_lang_abelian_nonsquare_needs_f81(t92):
    mg = MulGroup(t92, 2)
    zeta = mg.generators()[0]
    w = lang_solve(mg, zeta, 1)
    assert w.ambient_degree == 4
    big = w.tower
    a = w.alpha
    assert big.mul(big.inv(a), big.frobenius(a, 1)) == w.embedding.embed(zeta)


def _embedded(spec, emb, h):
    if isinstance(spec, SpHGroup):
        s, (v, t) = h
        return (tuple(map(emb.embed, s)), (tuple(map(emb.embed, v)), emb.embed(t)))
    if isinstance(spec, MulGroup):
        return emb.embed(h)
    return tuple(map(emb.embed, h))


def _big_group(spec, big):
    if isinstance(spec, SpHGroup):
        return SpHGroup(big, spec.n, big.m)
    if isinstance(spec, MulGroup):
        return MulGroup(big, big.m)
    return SympGroup(big, spec.n, big.m, similitude=spec.similitude)


def test_lang_matrix_witness_verified():
    groups = [
        (SympGroup(build_tower(3, 1, 2), 1, 2), 10),
        (SympGroup(build_tower(3, 1, 2), 1, 2, similitude=True), 10),
        (SympGroup(build_tower(3, 1, 2), 2, 2), 6),
        (SpHGroup(build_tower(5, 1, 2), 1, 2), 6),
        (MulGroup(build_tower(3, 1, 2), 2), 8),
        (MulGroup(build_tower(3, 1, 4), 4), 8),
    ]
    for spec, samples in groups:
        rng = random.Random(4)
        for _ in range(samples):
            h = spec.random(rng)
            w = lang_solve(spec, h, 1)
            big_spec = _big_group(spec, w.tower)
            a = w.alpha
            assert big_spec.mul(big_spec.inv(a), big_spec.frob(a, 1)) == _embedded(spec, w.embedding, h)
            if isinstance(spec, SympGroup) and not spec.similitude:
                # Darboux construction produces a symplectic witness
                assert big_spec.contains(a)


def test_spz_witness_is_the_sph_witness(t92):
    spz, sph = SpZGroup(t92, 1, 2), SpHGroup(t92, 1, 2)
    rng = random.Random(13)
    for _ in range(6):
        h = spz.random(rng)
        assert lang_solve(spz, h, 1).alpha == lang_solve(sph, h, 1).alpha


@pytest.mark.parametrize("symplectic, message", [(True, "verification failed"), (False, "not symplectic")])
def test_bad_witness_raises_witness_failed(t92, monkeypatch, symplectic, message):
    darboux = normmap._darboux_alpha

    def perturbed(big, d, rows, n):
        alpha = darboux(big, d, rows, n)
        if not symplectic:  # swap the two rows: determinant -1
            return alpha[2:] + alpha[:2]
        # left factor [[1, x], [0, 1]] with x outside F_3: still symplectic, not Lang
        x = big._encode(np.eye(big.ambient_degree, dtype=np.int64)[1])
        sp = SympGroup(big, 1, big.m)
        return sp.mul(sp.unipotent((x,)), alpha)

    monkeypatch.setattr(normmap, "_darboux_alpha", perturbed)
    sl = SympGroup(t92, 1, 2)
    with pytest.raises(WitnessFailed, match=message):
        lang_solve(sl, sl.random(random.Random(4)), 1)


def test_ambient_cap_raises(t92):
    sl = SympGroup(t92, 1, 2)
    # an order-6 class norm forces level 12 > 4
    rng = random.Random(11)
    raised = False
    for _ in range(80):
        g = sl.random(rng)
        try:
            gyoja_norm(choose_t(1, 2), sl, g, ambient_cap=4)
        except AmbientCapExceeded:
            raised = True
            break
    assert raised


def test_norm_of_identity(t92):
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(1, 2)
    el, _ = gyoja_norm(cfg, sl, sl.identity())
    assert el == sl.identity()


def test_norm_lands_at_level_d(t92):
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(1, 2)
    rng = random.Random(6)
    for _ in range(25):
        g = sl.random(rng)
        el, _ = gyoja_norm(cfg, sl, g)
        assert all(t92.in_level(x, 1) for x in el)


def test_norm_abelian_matches_classical(t92):
    mg = MulGroup(t92, 2)
    cfg = choose_t(1, 2)
    for g in mg.elements():
        el, _ = gyoja_norm(cfg, mg, g)
        assert el == t92.norm_to(g, 1)
    tor = TorusSL2(t92, 2)
    for g in tor.elements():
        el, _ = gyoja_norm(cfg, tor, g)
        assert el == tor.norm_to_level(g, 1)


def test_norm_class_invariant_under_twisted_conjugacy(t92):
    sl = SympGroup(t92, 1, 2)
    sl1 = SympGroup(t92, 1, 1)
    part = conjugacy_classes(sl1)
    cfg = choose_t(1, 2)
    cache = {}
    rng = random.Random(7)
    for _ in range(40):
        g = sl.random(rng)
        h = sl.random(rng)
        moved = sl.twisted_conj(h, g, 1)
        _, c1 = gyoja_norm(cfg, sl, g, partition=part, cache=cache)
        _, c2 = gyoja_norm(cfg, sl, moved, partition=part, cache=cache)
        assert c1 == c2


def test_norm_i0_is_identity_map(t92):
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(0, 2)
    g = sl.random(random.Random(8))
    el, _ = gyoja_norm(cfg, sl, g)
    assert el == g


def test_base_change_of_twist_matches_remark():
    # N_{2,1} over F_3, m = 4 agrees with N_{1,1} over the base F_9, m' = 2
    t_small = build_tower(3, 1, 4)
    t_big = build_tower(3, 2, 2)
    assert t_small.modulus == t_big.modulus  # same ambient field
    sl_small = SympGroup(t_small, 1, 4)
    sl_big = SympGroup(t_big, 1, 2)
    cfg_small = choose_t(2, 4)
    cfg_big = choose_t(1, 2)
    target_small = SympGroup(t_small, 1, 2)
    target_big = SympGroup(t_big, 1, 1)
    part = conjugacy_classes(target_small)
    rng = random.Random(9)
    cache = {}
    for _ in range(12):
        g = sl_small.random(rng)
        el1, _ = gyoja_norm(cfg_small, sl_small, g, cache=cache)
        el2, _ = gyoja_norm(cfg_big, sl_big, g, cache=cache)
        assert part.index_of(el1) == part.index_of(el2)


def test_bijection_sl2_q3_m2(t92):
    sl = SympGroup(t92, 1, 2)
    sl1 = SympGroup(t92, 1, 1)
    rep = verify_bijection(choose_t(1, 2), sl, sl1)
    assert rep.ok and rep.twisted_count == 7 and rep.target_count == 7


def test_bijection_i0(t92):
    sl = SympGroup(t92, 1, 2)
    rep = verify_bijection(choose_t(0, 2), sl, sl)
    assert rep.ok and rep.twisted_count == 13


def test_bijection_tsv(t92):
    sl = SympGroup(t92, 1, 2)
    rep = verify_bijection(choose_t(1, 2), sl, SympGroup(t92, 1, 1))
    lines = rep.to_tsv().splitlines()
    assert lines[0].startswith("twisted_rep")
    assert len(lines) == 8


def test_sph_norm_well_defined(t92):
    sph = SpHGroup(t92, 1, 2)
    sph1 = SpHGroup(t92, 1, 1)
    cfg = choose_t(1, 2)
    part = conjugacy_classes(sph1)
    cache = {}
    rng = random.Random(10)
    for _ in range(10):
        g = sph.random(rng)
        h = sph.random(rng)
        el1, c1 = gyoja_norm(cfg, sph, g, partition=part, cache=cache)
        el2, c2 = gyoja_norm(cfg, sph, sph.twisted_conj(h, g, 1), partition=part, cache=cache)
        assert sph1.contains(el1)
        assert c1 == c2


def test_spz_norm_components(t92):
    spz = SpZGroup(t92, 1, 2)
    sl = SympGroup(t92, 1, 2)
    sl1 = SympGroup(t92, 1, 1)
    cfg = choose_t(1, 2)
    part1 = conjugacy_classes(sl1)
    rng = random.Random(12)
    cache = {}
    for _ in range(8):
        s = sl.random(rng)
        z = rng.choice(t92.level_elements(2))
        el, _ = gyoja_norm(cfg, spz, (s, ((t92.zero, t92.zero), z)), cache=cache)
        es, (ev, et) = el
        assert ev == (t92.zero, t92.zero)
        # the central part takes the classical (trace-like) norm
        assert et == t92.add(z, t92.frobenius(z, 1))
        ns, _ = gyoja_norm(cfg, sl, s, cache=cache)
        assert part1.index_of(es) == part1.index_of(ns)
