import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilbc import normmap
from weilbc.errors import AmbientCapExceeded, ConfigInvalid, WeilbcError, WitnessFailed
from weilbc.fieldtower import Embedding, Tower, build_tower
from weilbc.characters import indicator_basis, lift_class_function
from weilbc.grouplib import SympGroup, TorusSL2, conjugacy_classes, mat_det, mat_frob, twisted_classes
from weilbc.normmap import (
    DEFAULT_AMBIENT_CAP,
    choose_t,
    gyoja_norm,
    gyoja_norms,
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
    tor = TorusSL2(t92, 2)  # split over F_9: cyclic of order 8
    g = tor.generator
    assert twisted_product(tor, 1, tor.identity(), 3) == tor.identity()
    assert twisted_product(tor, 1, g, 1) == g
    # g·σ(g) is the norm to T(F_3), cyclic of order 4, and a generator there
    norm = twisted_product(tor, 1, g, 2)
    tor1 = TorusSL2(t92, 1)
    assert tor1.contains(norm) and tor1.log(norm) % 2 == 1
    # four factors give the square of the norm: -1 = 2·I
    assert twisted_product(tor, 1, g, 4) == (2, 0, 0, 2)


def _solve_one(spec, h, d, ambient_cap=DEFAULT_AMBIENT_CAP):
    """lang_solve on the stack of the one target h, at the ambient level its witness needs."""
    target = spec.tower.digit_stack([h], spec.size)
    (level,) = normmap._ambient_levels(spec, target, d)
    return lang_solve(spec, target, d, level, ambient_cap)


def test_lang_trivial_target(t92):
    sl = SympGroup(t92, 1, 2)
    w = _solve_one(sl, sl.identity(), 1)
    chk = w.group.tower
    (alpha,) = w.alpha
    assert tuple(chk.frobenius(x, 1) for x in alpha) == alpha  # witness is rational


def _witness_holds(h, w, d=1):
    big_spec, (a,) = w.group, w.alpha
    return big_spec.mul(big_spec.inv(a), big_spec.frob(a, d)) == tuple(map(w.embedding.embed, h))


def test_lang_matrix_witness_verified():
    groups = [
        (SympGroup(build_tower(3, 1, 2), 1, 2), 10),
        (SympGroup(build_tower(3, 1, 2), 1, 2, similitude=True), 10),
        (SympGroup(build_tower(3, 1, 2), 2, 2), 6),
    ]
    for spec, samples in groups:
        rng = random.Random(4)
        for _ in range(samples):
            h = spec.random(rng)
            w = _solve_one(spec, h, 1)
            assert _witness_holds(h, w)
            if not spec.similitude:
                # Darboux construction produces a symplectic witness
                assert w.group.contains(w.alpha[0])


def _zeta(sl):
    """ζ of the Levi generator diag(ζ, ζ⁻¹) of sl: a generator of F_{q^m}^×."""
    return next(g[0] for g in sl.generators() if g[1] == g[2] == sl.tower.zero and g[0] != sl.tower.one)


def test_lang_abelian_square(t92):
    """A square ζ² on the diagonal torus of SL2(F_9) is solved over F_9 itself."""
    sl = SympGroup(t92, 1, 2)
    zeta = _zeta(sl)
    h = sl.levi((t92.mul(zeta, zeta),))
    w = _solve_one(sl, h, 1)
    assert w.ambient_degree == 2  # ζ² = a⁻¹σ(a) for a = ζ in F_9
    assert _witness_holds(h, w) and w.group.contains(w.alpha[0])


def test_lang_abelian_nonsquare_needs_f81(t92):
    """diag(ζ, ζ⁻¹), ζ a generator of F_9^×, has twisted order 4 under σ: its
    witness lives in SL2(F_81), above the level m = 2 of the target."""
    sl = SympGroup(t92, 1, 2)
    h = sl.levi((_zeta(sl),))
    w = _solve_one(sl, h, 1)
    (alpha,) = w.alpha
    assert w.ambient_degree == 4 and w.group.tower.m == 4
    assert mat_frob(w.group.tower, alpha, 2) != alpha  # not defined over F_9
    assert _witness_holds(h, w) and w.group.contains(alpha)


@pytest.mark.parametrize("symplectic, message", [(True, "verification failed"), (False, "not symplectic")])
def test_bad_witness_raises_witness_failed(t92, monkeypatch, symplectic, message):
    darboux = normmap._darboux_alpha

    def perturbed(big, d, rows):
        alpha = darboux(big, d, rows)  # digit rows of a stack of one, shape (1, 2, 2, ambient degree)
        if not symplectic:  # swap the two rows: determinant -1
            return alpha[:, ::-1]
        # left factor [[1, x], [0, 1]] with x, the ambient generator, outside F_3: still symplectic, not Lang
        left = np.zeros_like(alpha)
        left[:, 0, 0, 0] = left[:, 1, 1, 0] = left[:, 0, 1, 1] = 1
        return big.matmul(left, alpha)

    monkeypatch.setattr(normmap, "_darboux_alpha", perturbed)
    sl = SympGroup(t92, 1, 2)
    with pytest.raises(WitnessFailed, match=message):
        _solve_one(sl, sl.random(random.Random(4)), 1)


def test_norms_outside_the_group_raise_witness_failed(t92, monkeypatch):
    """gyoja_norms checks each chunk's pulled-back norms with one stacked multiplier check:
    a norm with one entry changed leaves SL2 and is refused."""
    honest = Embedding.pull_back_rows

    def perturbed(self, y):
        out = honest(self, y)
        out[..., 0, 0, 0] = (out[..., 0, 0, 0] + 1) % self.src.p
        return out

    sl = SympGroup(t92, 1, 2)
    gs = _seed0_samples(sl, 20)
    monkeypatch.setattr(Embedding, "pull_back_rows", perturbed)
    with pytest.raises(WitnessFailed, match="not in G"):
        gyoja_norms(choose_t(1, 2), sl, gs)


def test_lang_solve_refuses_a_level_too_small(t92):
    """A stack solved at an ambient level below the one its witnesses need raises a typed
    error, on its own and next to a target that level suits."""
    sl = SympGroup(t92, 1, 2)
    by_level = {}
    for g in sl.elements():
        target = sl.tower.digit_stack([twisted_product(sl, 1, g, 1)], sl.size)
        by_level.setdefault(normmap._ambient_levels(sl, target, 1)[0], target)
    assert sorted(by_level) == [2, 4, 6, 8, 12]
    for need, target in by_level.items():
        for small in (lv for lv in by_level if lv < need):
            with pytest.raises(WitnessFailed, match="thinner than expected"):
                lang_solve(sl, target, 1, small)
    with pytest.raises(WeilbcError):
        lang_solve(sl, np.concatenate([by_level[2], by_level[12]]), 1, 2)
    assert len(lang_solve(sl, by_level[12], 1, 12).alpha) == 1


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
    assert gyoja_norm(cfg, sl, sl.identity()) == sl.identity()


def test_norm_lands_at_level_d(t92):
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(1, 2)
    rng = random.Random(6)
    for _ in range(25):
        g = sl.random(rng)
        assert all(t92.in_level(x, 1) for x in gyoja_norm(cfg, sl, g))


def test_norm_abelian_matches_classical(t92):
    """On σ-stable tori of SL2(F_9) the norm is conjugate to the classical g·σ(g)."""
    sl = SympGroup(t92, 1, 2)
    part = conjugacy_classes(SympGroup(t92, 1, 1))
    cfg = choose_t(1, 2)
    tor = TorusSL2(t92, 2)
    for g in tor.elements():
        el = gyoja_norm(cfg, sl, g)
        assert part.index_of(el) == part.index_of(twisted_product(tor, 1, g, 2))
    zeta, x = _zeta(sl), t92.one
    for _ in range(8):  # the diagonal torus diag(x, x⁻¹), x in F_9^×
        el = gyoja_norm(cfg, sl, sl.levi((x,)))
        assert part.index_of(el) == part.index_of(sl.levi((t92.mul(x, t92.frobenius(x, 1)),)))
        x = t92.mul(x, zeta)


def test_norm_class_invariant_under_twisted_conjugacy(t92):
    sl = SympGroup(t92, 1, 2)
    sl1 = SympGroup(t92, 1, 1)
    part = conjugacy_classes(sl1)
    cfg = choose_t(1, 2)
    rng = random.Random(7)
    for _ in range(40):
        g = sl.random(rng)
        h = sl.random(rng)
        moved = sl.twisted_conj(h, g, 1)
        c1 = part.index_of(gyoja_norm(cfg, sl, g))
        c2 = part.index_of(gyoja_norm(cfg, sl, moved))
        assert c1 == c2


def test_norm_i0_is_identity_map(t92):
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(0, 2)
    g = sl.random(random.Random(8))
    assert gyoja_norm(cfg, sl, g) == g


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
    for _ in range(12):
        g = sl_small.random(rng)
        el1 = gyoja_norm(cfg_small, sl_small, g)
        el2 = gyoja_norm(cfg_big, sl_big, g)
        assert part.index_of(el1) == part.index_of(el2)


def test_bijection_sl2_q3_m2(t92):
    sl = SympGroup(t92, 1, 2)
    sl1 = SympGroup(t92, 1, 1)
    rep = verify_bijection(choose_t(1, 2), sl, sl1)
    assert rep.twisted_count == 7 and rep.target_count == 7
    # the partitions live on their groups: the twisted one on sl, the ordinary one on sl1
    assert [(i, part.twist, len(part)) for i, part in sl.partitions.items()] == [(1, 1, 7)]
    assert [(i, part.twist, len(part)) for i, part in sl1.partitions.items()] == [(0, 0, 7)]
    assert rep.well_defined and rep.injective and rep.surjective and rep.sigma_equivariant


def test_one_lang_solve_per_element(t92, monkeypatch):
    """gyoja_norm, lift_class_function and verify_bijection share the group's norm memo."""
    sl, sl1 = SympGroup(t92, 1, 2), SympGroup(t92, 1, 1)
    cfg = choose_t(1, 2)
    solved = []
    solve = normmap.lang_solve

    def counting(spec, targets, d, level, ambient_cap):
        solved.extend(targets)  # one entry per solved target, however many calls
        return solve(spec, targets, d, level, ambient_cap)

    monkeypatch.setattr(normmap, "lang_solve", counting)

    def every_caller():
        verify_bijection(cfg, sl, sl1)
        tw = twisted_classes(sl, 1)
        for chi in indicator_basis(conjugacy_classes(sl1), 3):
            lift_class_function(cfg, sl, chi, tw)
        for g in sl.elements()[::7]:
            gyoja_norm(cfg, sl, g)

    every_caller()
    normed = {g for _, g, _ in sl.norms}
    assert len(solved) == len(normed) == len(sl.norms) > len(twisted_classes(sl, 1))
    every_caller()
    assert len(solved) == len(normed)


def test_ambient_cap_applies_after_a_memoized_norm(t92):
    """A norm memoized under cap 64 does not answer a call under cap 4."""
    sl = SympGroup(t92, 1, 2)
    cfg = choose_t(1, 2)
    for g in sl.elements():
        try:
            gyoja_norm(cfg, sl, g, 4)
        except AmbientCapExceeded:
            break
    else:
        pytest.fail("no element of SL2(F_9) needs an ambient level above 4")
    assert gyoja_norm(cfg, sl, g, 64) == sl.norms[(cfg, g, 64)]
    with pytest.raises(AmbientCapExceeded):
        gyoja_norm(cfg, sl, g, 4)


def test_bijection_i0(t92):
    sl = SympGroup(t92, 1, 2)
    rep = verify_bijection(choose_t(0, 2), sl, sl)
    assert rep.twisted_count == rep.target_count == 13
    assert rep.well_defined and rep.injective and rep.surjective and rep.sigma_equivariant


# Sp2 over p ∈ {3, 5, 7}, m ∈ {2, 3}; GSp2 over (p, m) ∈ {(3, 2), (3, 3), (5, 2)}; every twist
# 0 < i < m.  Witnesses there reach ambient level 48 at most (GSp2, p = 5), under the default
# cap of 64, so a cap error is a failure.  Draws are derandomized: tier-1 repeats them exactly.
LANG_TWISTS = [(p, m, sim, i) for p, m, sim in [(3, 2, False), (3, 3, False), (5, 2, False), (5, 3, False),
                                                (7, 2, False), (7, 3, False), (3, 2, True), (3, 3, True),
                                                (5, 2, True)]
               for i in range(1, m)]
_PARTS: dict = {}


def _random_element(p, m, similitude, seed):
    spec = SympGroup(build_tower(p, 1, m), 1, m, similitude=similitude)
    rng = random.Random(seed)
    return spec, rng, spec.random(rng)


@pytest.mark.parametrize("p, m, similitude, i", LANG_TWISTS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_lang_witness_identity_property(p, m, similitude, i, seed):
    """σ^d(α) = α·h for the Lang target h of a random twisted element; α is
    symplectic on Sp and invertible on GSp."""
    spec, _, g = _random_element(p, m, similitude, seed)
    cfg = choose_t(i, m)
    h = twisted_product(spec, i, g, cfg.t)
    w = _solve_one(spec, h, cfg.d)
    assert _witness_holds(h, w, cfg.d)
    big, (alpha,) = w.group, w.alpha
    if similitude:
        assert mat_det(big.tower, alpha, big.size) != big.tower.zero
    else:
        assert big.contains(alpha)


@pytest.mark.parametrize("p, m, similitude, i", LANG_TWISTS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_class_invariant_property(p, m, similitude, i, seed):
    """g and x·g·σ^i(x)⁻¹ have norms in one conjugacy class of G(F_{q^d})."""
    spec, rng, g = _random_element(p, m, similitude, seed)
    x = spec.random(rng)
    cfg = choose_t(i, m)
    key = (p, m, cfg.d, similitude)
    if key not in _PARTS:  # partitions are cached per spec object; share one across examples
        _PARTS[key] = conjugacy_classes(SympGroup(spec.tower, 1, cfg.d, similitude=similitude))
    part = _PARTS[key]
    c1 = part.index_of(gyoja_norm(cfg, spec, g))
    c2 = part.index_of(gyoja_norm(cfg, spec, spec.twisted_conj(x, g, i)))
    assert c1 == c2


def _members_by_full_walk(spec, tw, members_per_class):
    """The members verify_bijection checks, by a walk over every element of spec."""
    counts, out = [0] * len(tw.reps), []
    for g in spec.elements():
        k = tw.index_of(g)
        if counts[k] >= members_per_class - 1 or g == tw.reps[k]:
            continue
        counts[k] += 1
        out.append(g)
    return out


def _normed(monkeypatch):
    """Record the elements verify_bijection norms, in order."""
    seen, norms = [], normmap.gyoja_norms

    def recording(cfg, spec, gs, ambient_cap):
        seen.extend(gs)
        return norms(cfg, spec, gs, ambient_cap)

    monkeypatch.setattr(normmap, "gyoja_norms", recording)
    return seen


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("members", [2, 3])
def test_bijection_members_match_the_full_walk(p, members, monkeypatch):
    t = build_tower(p, 1, 2)
    sl, sl1 = SympGroup(t, 1, 2), SympGroup(t, 1, 1)
    tw = twisted_classes(sl, 1)
    seen = _normed(monkeypatch)
    rep = verify_bijection(choose_t(1, 2), sl, sl1, members_per_class=members)
    assert rep.well_defined and rep.injective and rep.surjective and rep.sigma_equivariant
    # reps first, then the members, then the σ-image of each rep for σ-equivariance
    assert seen[: len(tw.reps)] == tw.reps
    assert seen[len(tw.reps) : len(seen) - len(tw.reps)] == _members_by_full_walk(sl, tw, members)


class _Visits(dict):
    """A class_of mapping that counts the elements looked up or iterated."""

    visits = 0

    def get(self, key, default=None):
        self.visits += 1
        return super().get(key, default)

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


def test_bijection_stops_once_every_class_has_its_members():
    t = build_tower(5, 1, 2)
    sl, sl1 = SympGroup(t, 1, 2), SympGroup(t, 1, 1)
    tw = twisted_classes(sl, 1)
    tw.class_of = _Visits(tw.class_of)
    verify_bijection(choose_t(1, 2), sl, sl1)
    assert 0 < tw.class_of.visits < len(sl.elements())


def _witness_triples(spec, elements, i):
    cfg = choose_t(i, spec.level)
    for g in elements:
        (alpha,) = _solve_one(spec, twisted_product(spec, i, g, cfg.t), cfg.d).alpha
        yield [g, alpha, gyoja_norm(cfg, spec, g)]


def _seed0_samples(spec, count):
    rng = random.Random(0)
    return [spec.random(rng) for _ in range(count)]


def test_witnesses_and_norms_are_pinned():
    """SHA-256 of the (g, α, N) triples over SL2(F9), SL2(F27), Sp4(F9) and GSp2(F9),
    every field element an int: witnesses and norms are pinned byte for byte."""
    t92, t27 = build_tower(3, 1, 2), build_tower(3, 1, 3)
    sl9, sl27 = SympGroup(t92, 1, 2), SympGroup(t27, 1, 3)
    sp4, gsp2 = SympGroup(t92, 2, 2), SympGroup(t92, 1, 2, similitude=True)
    rows = [*_witness_triples(sl9, sl9.elements(), 1),
            *_witness_triples(sl27, _seed0_samples(sl27, 200), 1),
            *_witness_triples(sl27, _seed0_samples(sl27, 200), 2),
            *_witness_triples(sp4, _seed0_samples(sp4, 24), 1),
            *_witness_triples(gsp2, _seed0_samples(gsp2, 30), 1)]
    assert len(rows) == 1174
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "cfd3754781d19494963cba7335279aa4d5ec4160171cf0961f142f8ba017a826"


def test_norms_make_no_computed_path_field_call(monkeypatch):
    """Past tower and embedding construction, norms work on digit arrays alone:
    no element-wise arithmetic on a tower above the table cap."""
    t92 = build_tower(3, 1, 2)

    def groups():
        return [(SympGroup(t92, 1, 2), None), (SympGroup(t92, 1, 2, similitude=True), 30),
                (SympGroup(t92, 2, 2), 6)]

    def norm_all():
        for spec, count in groups():
            for g in spec.elements() if count is None else _seed0_samples(spec, count):
                gyoja_norm(choose_t(1, 2), spec, g)

    norm_all()  # builds every Lang tower and embedding
    for name in ("mul", "add", "inv", "frobenius"):
        def guarded(self, *args, _orig=getattr(Tower, name), _name=name):
            if not self.tabulated:
                raise AssertionError(f"Tower.{_name} on a tower without tables")
            return _orig(self, *args)

        monkeypatch.setattr(Tower, name, guarded)
    norm_all()


# -- stacked solves against solves of one ------------------------------------------


def _batch_groups():
    """(group, elements, twists): all of SL2(F9), 200 SL2(F27) samples, 30 GSp2(F9) samples."""
    t92, t27 = build_tower(3, 1, 2), build_tower(3, 1, 3)
    yield lambda: SympGroup(t92, 1, 2), None, (1,)
    yield lambda: SympGroup(t27, 1, 3), 200, (1, 2)
    yield lambda: SympGroup(t92, 1, 2, similitude=True), 30, (1,)


@pytest.mark.parametrize("case", range(3), ids=["sl2-f9-all", "sl2-f27-200", "gsp2-f9-30"])
def test_stacked_norms_match_single_norms(case):
    """gyoja_norms on one group equals gyoja_norm, element by element, on a fresh group."""
    make, count, twists = list(_batch_groups())[case]
    batch_spec = make()
    gs = batch_spec.elements() if count is None else _seed0_samples(batch_spec, count)
    for i in twists:
        cfg = choose_t(i, batch_spec.level)
        got = gyoja_norms(cfg, batch_spec, gs)
        single_spec = make()
        assert got == [gyoja_norm(cfg, single_spec, g) for g in gs]


def test_low_cap_names_the_first_offending_element():
    """The stacks are solved by level; the cap error still names the level of the
    first element, in sample order, whose witness needs more than the cap."""
    t92 = build_tower(3, 1, 2)
    cfg = choose_t(1, 2)
    probe = SympGroup(t92, 1, 2)
    level = {}
    for g in probe.elements():
        target = probe.tower.digit_stack([twisted_product(probe, 1, g, cfg.t)], probe.size)
        level[g] = normmap._ambient_levels(probe, target, cfg.d)[0]
    above = sorted({lv for lv in level.values() if lv > 4})
    assert len(above) >= 2
    low = [g for g in probe.elements() if level[g] <= 4][:5]
    for first, later in ((above[0], above[-1]), (above[-1], above[0])):
        gs = [*low, next(g for g in probe.elements() if level[g] == first),
              *(g for g in probe.elements() if level[g] == later)]
        with pytest.raises(AmbientCapExceeded, match=rf"required ambient level {first} exceeds the configured cap 4$"):
            gyoja_norms(cfg, SympGroup(t92, 1, 2), gs, 4)


def test_exhaustive_star_solves_by_level(monkeypatch):
    """Exhaustive star over SL2(F9) solves its 720 Lang targets in a few stacks."""
    from weilbc.checks import RunConfig, Workspace, run_check

    calls = []
    solve = normmap.lang_solve

    def counting(spec, targets, d, level, ambient_cap):
        calls.append(len(targets))
        return solve(spec, targets, d, level, ambient_cap)

    monkeypatch.setattr(normmap, "lang_solve", counting)
    cfg = RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample="all", seed=0)
    report = run_check("star", cfg, Workspace(cfg))
    assert len(report.cases) == 720 and report.n_fail == 0
    assert sum(calls) == 720 and len(calls) <= 30


# -- Lang kernels by Galois descent against the elimination of the semilinear system ----------


def _descent_cases():
    """(group, elements, twist, levels the stacks must reach) per case."""
    t92 = build_tower(3, 1, 2)
    yield "sl2-f9-all", lambda: (SympGroup(t92, 1, 2), None, 1, {2, 4, 6, 8, 12})
    yield "sp4-f9-40", lambda: (SympGroup(t92, 2, 2), 40, 1, {4, 6, 8, 10, 12, 16, 18, 20, 24, 36})
    yield "gsp2-f9-30", lambda: (SympGroup(t92, 1, 2, similitude=True), 30, 1, None)
    yield "sl2-f81-d2", lambda: (SympGroup(build_tower(3, 1, 4), 1, 4), 40, 2, None)
    yield "sl2-f81-base2", lambda: (SympGroup(build_tower(3, 2, 2), 1, 2), 40, 1, None)
    yield "sl2-f25", lambda: (SympGroup(build_tower(5, 1, 2), 1, 2), 40, 1, None)
    yield "sl2-f49", lambda: (SympGroup(build_tower(7, 1, 2), 1, 2), 40, 1, None)
    yield "sp6-f9", lambda: (SympGroup(t92, 3, 2), 3, 1, {6, 8, 36})


_DESCENT = dict(_descent_cases())


@pytest.mark.parametrize("case", sorted(_DESCENT))
def test_lang_kernels_match_the_elimination(case, monkeypatch):
    """Every Lang kernel that gyoja_norms finds by descent equals the null-space basis, by F_p
    elimination, of the system u ↦ σ^d(u) − hᵀ·u built here from the embedded target h."""
    spec, count, i, levels = _DESCENT[case]()
    gs = spec.elements() if count is None else _seed0_samples(spec, count)
    seen, lang_map, fixed = [], normmap._lang_map, normmap.modp.fixed_space

    def recording_map(big, d, h):
        phi = lang_map(big, d, h)
        seen.append([phi, big, d, h])
        return phi

    def recording_fixed(phi, *args):
        basis, certified = fixed(phi, *args)
        if seen and phi is seen[-1][0]:
            seen[-1][0] = (basis, certified)
        return basis, certified

    monkeypatch.setattr(normmap, "_lang_map", recording_map)
    monkeypatch.setattr(normmap.modp, "fixed_space", recording_fixed)
    gyoja_norms(choose_t(i, spec.level), spec, gs)
    assert seen and (levels is None or {big.m for _, big, _, _ in seen} == levels)
    for (basis, certified), big, d, h in seen:
        frob = np.kron(np.eye(spec.size, dtype=np.int64), big.frob_matrix(d))
        system = (frob - big.block_matrix(np.swapaxes(h, -3, -2))) % big.p
        assert certified.all()
        assert np.array_equal(basis, normmap.modp.kernel_basis(system, big.p))


def test_similitude_norms_refuse_n_above_one(t92):
    """A GSp4 Lang witness would be a basis of the solution space, no similitude: lang_solve and
    gyoja_norms raise ConfigInvalid; GSp2 = GL2 is solved."""
    gsp4 = SympGroup(t92, 2, 2, similitude=True)
    g = gsp4.random(random.Random(0))
    with pytest.raises(ConfigInvalid, match="GSp4"):
        gyoja_norm(choose_t(1, 2), gsp4, g)
    with pytest.raises(ConfigInvalid, match="GSp4"):
        lang_solve(gsp4, t92.digit_stack([g], 4), 1, 4)
    gsp2 = SympGroup(t92, 1, 2, similitude=True)
    assert len(gyoja_norm(choose_t(1, 2), gsp2, gsp2.random(random.Random(0)))) == 4
