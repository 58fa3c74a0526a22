import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilbc import grouplib, schrodinger
from weilbc.characters import coset_pairs, induced_trace, weil_torus_restriction
from weilbc.cyclotomic import CycNum
from weilbc.errors import (DimensionMismatch, FactorizationFailed, NotSymplectic, OperatorOverflow,
                           Singular)
from weilbc.fieldtower import build_tower
from weilbc.grouplib import (HeisGroup, SpHGroup, SympGroup, TorusSL2, conjugacy_classes, mat_det, mat_identity, mat_mul,
                             mat_vec, membership, sp_act_heis)
from weilbc.normmap import choose_t, gyoja_norm
from weilbc.schrodinger import RepContext, WeilOperator, extended_gsp_trace, gsp_character_values, siegel_factor


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


@pytest.fixture(scope="module")
def ctx1(t92):
    return RepContext(t92, 1, 1)


@pytest.fixture(scope="module")
def ctx2(t92):
    return RepContext(t92, 1, 2)


def test_basis_size(ctx1, ctx2):
    assert ctx1.dim == 3
    assert ctx2.dim == 9


def test_heis_central_element(ctx1, t92):
    op = ctx1.op_heis(((0, 0), 1))
    want = ctx1.identity_op().scale(t92.psi(1, 1))
    assert op == want


def test_heis_translation_trace_zero(ctx1):
    op = ctx1.op_heis(((0, 1), 0))  # pure X* translation
    assert op.trace() == CycNum.zero(3)
    # permutation: exactly one entry per row, none diagonal
    assert all(op.arr[k, k].tolist() == [0, 0] for k in range(3))


def _entry(op, i, j):
    return CycNum(op.ctx.p, tuple(int(v) for v in op.arr[i, j]), op.den)


def test_heis_x_part_is_diagonal(ctx1, t92):
    op = ctx1.op_heis(((1, 0), 0))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert op.arr[i, j].tolist() == [0, 0]
    # diagonal entries ψ(⟨y*, x⟩) with x = e_1
    for idx, y in enumerate(ctx1.points):
        pair = t92.neg(t92.mul(y[0], t92.one))
        assert _entry(op, idx, idx) == t92.psi(pair, 1)


def test_unip_example_diagonal(ctx1):
    op = ctx1.op_unip((1,))
    z2 = CycNum.root_of_unity(3, 2)
    assert [_entry(op, k, k) for k in range(3)] == [CycNum.one(3), z2, z2]
    assert op.trace() == CycNum.one(3) + 2 * z2


def test_unip_zero_is_identity(ctx1):
    assert ctx1.op_unip((0,)) == ctx1.identity_op()


def test_unip_requires_symmetric_block(t92):
    ctx = RepContext(t92, 2, 1)
    bad = (t92.zero, t92.one, t92.zero, t92.zero)  # not symmetric
    with pytest.raises(NotSymplectic):
        ctx.op_unip(bad)


def test_levi_examples(ctx1):
    assert ctx1.op_levi((1,)) == ctx1.identity_op()
    op = ctx1.op_levi((2,))
    assert op.trace() == CycNum.rational(3, -1)
    # monomial: one nonzero entry per row
    for i in range(3):
        nonzero = [j for j in range(3) if op.arr[i, j].any()]
        assert len(nonzero) == 1
    with pytest.raises(Singular):
        ctx1.op_levi((0,))


def test_weyl_square_is_minus_one(ctx1):
    w = ctx1.op_weyl()
    assert (w @ w) == ctx1.op_levi((2,))


def test_weyl_unitary_and_inverse(ctx1, t92):
    w = ctx1.op_weyl()
    assert w @ w.conj_transpose() == ctx1.identity_op()
    sl = SympGroup(t92, 1, 1)
    winv = ctx1.build_rho(sl.inv(sl.weyl()))
    assert w @ winv == ctx1.identity_op()


def test_factorization_examples(t92):
    # upper triangular → unipotent (trivial Levi dropped)
    word = siegel_factor(t92, 1, 1, (1, 1, 0, 1))
    assert [tag for tag, _ in word] == ["unip"]
    word = siegel_factor(t92, 1, 1, (2, 1, 0, 2))
    assert [tag for tag, _ in word] == ["unip", "levi"]
    # the standard Weyl element factors through a Weyl generator
    sl = SympGroup(t92, 1, 1)
    word = siegel_factor(t92, 1, 1, sl.weyl())
    assert any(tag == "weyl" for tag, _ in word)
    # invertible corner example
    word = siegel_factor(t92, 1, 1, (1, 0, 1, 1))
    assert [tag for tag, _ in word] == ["unip", "weyl", "unip"]


def test_factorization_rejects_nonsymplectic(t92):
    with pytest.raises(NotSymplectic):
        siegel_factor(t92, 1, 1, (1, 1, 1, 1))
    with pytest.raises(NotSymplectic):  # in SL2(F9), not at level 1: 3 is the generator of F9 over F3
        siegel_factor(t92, 1, 1, (3, 0, 0, t92.inv(3)))


def test_factorization_certificates_exhaustive_sl2_f3(t92):
    sl = SympGroup(t92, 1, 1)
    for g in sl.elements():
        siegel_factor(t92, 1, 1, g)  # internal product check is the certificate


def _dense_extended_trace(ctx, i, g):
    return (ctx.build_rho(g) @ ctx.op_galois(i)).trace()


_LOWER = (1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1)  # Sp4 element with c = diag(1,0)


def _singular_corners(t92):
    """The singular corner moved by Levi and unipotent factors over F_9."""
    sp4 = SympGroup(t92, 2, 2)
    levis = [(1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0), (3, 1, 0, 4)]  # invertible over F_9
    unips = [(0, 0, 0, 0), (2, 0, 0, 5), (1, 3, 3, 7), (4, 1, 1, 0)]  # symmetric
    return [mat_mul(t92, mat_mul(t92, sp4.levi(a), _LOWER, 4), sp4.unipotent(b), 4)
            for a, b in zip(levis, unips)]


def test_factorization_singular_corner_sp4(t92):
    word = siegel_factor(t92, 2, 1, _LOWER)
    assert 3 <= len(word) <= 5
    assert sum(1 for tag, _ in word if tag == "weyl") == 2
    # the two-Weyl word's matrix-free trace agrees with the dense operator,
    # also after moving the corner by Levi and unipotent factors over F_9
    ctx = RepContext(t92, 2, 1)
    assert ctx.extended_trace(0, _LOWER) == _dense_extended_trace(ctx, 0, _LOWER)
    ctx9 = RepContext(t92, 2, 2)
    for g in _singular_corners(t92):
        assert sum(1 for tag, _ in siegel_factor(t92, 2, 2, g) if tag == "weyl") == 2
        for i in (0, 1):
            assert ctx9.extended_trace(i, g) == _dense_extended_trace(ctx9, i, g)


def _dense_extended_traces(ctx, gs):
    """{i: [tr(ρ(g)·I_σ^i) for g in gs]} for i = 0, 1, one dense ρ(g) per element."""
    galois = ctx.op_galois(1)
    out = {0: [], 1: []}
    for g in gs:
        rho = ctx.build_rho(g)
        out[0].append(rho.trace())
        out[1].append((rho @ galois).trace())
    return out


def test_extended_traces_match_dense_sl2_f9(ctx2, t92):
    """Every element of SL2(F9): the stacked traces equal the dense oracle."""
    elems = SympGroup(t92, 1, 2).elements()
    dense = _dense_extended_traces(ctx2, elems)
    for i in (0, 1):
        assert ctx2.extended_traces(i, elems) == dense[i]


def test_extended_traces_match_dense_sp4_f9(t92):
    """Sp4(F9) samples and the moved singular corners (two Weyl factors)."""
    ctx = RepContext(t92, 2, 2)
    rng = random.Random(41)
    gs = [SympGroup(t92, 2, 2).random(rng) for _ in range(6)] + _singular_corners(t92)
    dense = _dense_extended_traces(ctx, gs)
    for i in (0, 1):
        assert ctx.extended_traces(i, gs) == dense[i]


def _field_sum(tower, xs):
    out = tower.zero
    for x in xs:
        out = tower.add(out, x)
    return out


def _reference_generator(ctx, tag, param):
    """The dense operator of one Siegel generator by its formula, entry by entry over
    the tower (module docstring of `schrodinger`): signs from `Tower.quad_char`."""
    tower, n, level = ctx.tower, ctx.n, ctx.level
    pos = {pt: idx for idx, pt in enumerate(ctx.points)}
    arr = np.zeros((ctx.dim, ctx.dim, ctx.p - 1), dtype=np.int64)
    psi = lambda x: tower.psi(x, level, ctx.scale).num  # noqa: E731
    dot = lambda u, v: _field_sum(tower, [tower.mul(a, b) for a, b in zip(u, v)])  # noqa: E731
    if tag == "unip":
        for idx, y in enumerate(ctx.points):
            arr[idx, idx] = psi(tower.mul(tower.half, dot(mat_vec(tower, param, y, n), y)))
        return WeilOperator(ctx, arr)
    sign = tower.quad_char(mat_det(tower, param, n), level)
    bt = tuple(param[j * n + i] for i in range(n) for j in range(n))
    if tag == "levi":
        for idx, y in enumerate(ctx.points):
            arr[idx, pos[mat_vec(tower, bt, y, n)]] = sign * np.array(psi(tower.zero))
        return WeilOperator(ctx, arr)
    sign *= tower.quad_char(tower.from_int(-2), level) ** n
    for idx, y in enumerate(ctx.points):
        bty = mat_vec(tower, bt, y, n)
        for jdx, x in enumerate(ctx.points):
            arr[idx, jdx] = sign * np.array(psi(dot(x, bty)))
    out = WeilOperator(ctx, arr)
    for _ in range(n):
        out = out.scale(ctx.gauss_inv)
    return out


def test_extended_traces_match_generator_formulas_sl2_f9(ctx2, t92):
    """Every element of SL2(F9) against the product of its Siegel generators built
    by their formulas: an oracle that shares no step, sign or walk code."""
    elems = SympGroup(t92, 1, 2).elements()
    galois = ctx2.op_galois(1)
    want = []
    for g in elems:
        ops = [_reference_generator(ctx2, tag, param) for tag, param in siegel_factor(t92, 1, 2, g)]
        rho = ops[0]
        for op in ops[1:]:
            rho = rho @ op
        want.append((rho @ galois).trace())
    assert ctx2.extended_traces(1, elems) == want


def test_extended_traces_of_mixed_cells_match_one_by_one(t92):
    """A stack mixing the three cells of the c block (c = 0, c invertible, c
    singular), with a repeat, gives each element's own trace."""
    sp4, ctx = SympGroup(t92, 2, 2), RepContext(t92, 2, 2)
    rng = random.Random(42)
    upper = [mat_mul(t92, sp4.unipotent((1, 2, 2, 0)), sp4.levi((3, 1, 0, 4)), 4), sp4.identity()]
    gs = [sp4.random(rng) for _ in range(3)] + upper + _singular_corners(t92)
    gs = gs + gs[:2]
    kinds = {sum(tag == "weyl" for tag, _ in siegel_factor(t92, 2, 2, g)) for g in gs}
    assert kinds == {0, 1, 2}
    for i in (0, 1):
        assert ctx.extended_traces(i, gs) == [ctx.extended_trace(i, g) for g in gs]


def test_extended_traces_refuse_a_nonsymplectic_element(ctx2, t92):
    gs = list(SympGroup(t92, 1, 2).elements()[:5]) + [(1, 1, 1, 1)]
    with pytest.raises(NotSymplectic):
        ctx2.extended_traces(1, gs)


def test_extended_traces_refuse_a_broken_word(ctx2, t92, monkeypatch):
    """The stacked word check certifies each cell: words missing their last
    factor no longer reproduce their elements."""
    cells = schrodinger._siegel_cells
    monkeypatch.setattr(schrodinger, "_siegel_cells",
                        lambda *args: [(where, tags[:-1], blocks[:, :-1]) for where, tags, blocks in cells(*args)])
    with pytest.raises(FactorizationFailed, match="does not reproduce"):
        ctx2.extended_traces(1, SympGroup(t92, 1, 2).elements())


def test_singular_corner_found_by_a_diagonal_correction(monkeypatch):
    """The Sp6(F9) element with c = diag(−1, 0, 0) and d = diag(0, 1, 1), a Weyl
    element in the first coordinate: its correction is b0 = diag(1, 0, 0), the
    second of the 2^n diagonal blocks (the zero block leaves d singular), and no
    tuple matrix product is taken."""
    t = build_tower(3, 1, 2)
    minus = t.from_int(-1)
    g = [0] * 36
    for i, (a, b, c, d) in enumerate([(0, 1, minus, 0), (1, 0, 0, 1), (1, 0, 0, 1)]):
        g[i * 6 + i], g[i * 6 + 3 + i], g[(3 + i) * 6 + i], g[(3 + i) * 6 + 3 + i] = a, b, c, d
    g = tuple(g)
    calls = {"mat_mul": 0}
    mat_mul_ = grouplib.mat_mul

    def counted_mat_mul(*args):
        calls["mat_mul"] += 1
        return mat_mul_(*args)

    monkeypatch.setattr(grouplib, "mat_mul", counted_mat_mul)
    word = siegel_factor(t, 3, 2, g)  # the word check inside is the certificate
    assert [tag for tag, _ in word].count("weyl") == 2
    assert calls == {"mat_mul": 0}
    digits = t.digit_stack([g], 6)
    (b0,) = schrodinger._corrections(t, 3, digits[:, 3:, :3], digits[:, 3:, 3:])
    assert t.from_digit_stack(b0[None])[0] == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_every_singular_corner_of_sp4_f3_has_a_diagonal_correction(t92):
    """Every element of Sp4(F3) with c nonzero and singular (15,552 of 51,840) gets the
    first diagonal 0/1 block b0, in order, with c·b0 + d invertible, checked here on F_3
    integers; `_siegel_words`, the certificate under `siegel_factor`, factors the whole
    stack and checks every word against its element."""
    digits = t92.digit_stack(list(SympGroup(t92, 2, 1).elements()), 4)
    c = digits[:, 2:, :2]
    corner = c.reshape(len(c), -1).any(axis=1) & ~t92.matinv(c)[1]
    digits = digits[corner]
    assert len(digits) == 15552 and not digits[..., 1:].any()  # F_3 lies in digit 0
    cs, ds = digits[:, 2:, :2, 0], digits[:, 2:, 2:, 0]
    diags = [(0, 0), (0, 1), (1, 0), (1, 1)]
    tries = [cs * np.array(x) + ds for x in diags]  # c·diag(x) scales c's columns
    dets = np.stack([(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % 3 for m in tries], axis=1)
    assert dets.any(axis=1).all()
    want = np.array(diags)[dets.astype(bool).argmax(axis=1)]
    b0 = schrodinger._corrections(t92, 2, digits[:, 2:, :2], digits[:, 2:, 2:])
    assert np.array_equal(b0[:, [0, 1], [0, 1], 0], want) and not b0[:, [0, 1], [1, 0]].any()
    ((where, tags, _),) = schrodinger._siegel_words(t92, 2, 1, digits)
    assert len(where) == len(digits) and tags == ("unip", "weyl", "unip", "weyl", "unip")


def test_rho_identity_and_minus_one(ctx1, t92):
    sl = SympGroup(t92, 1, 1)
    assert ctx1.build_rho(sl.identity()) == ctx1.identity_op()
    assert ctx1.build_rho((2, 0, 0, 2)).trace() == CycNum.rational(3, -1)


def test_homomorphism_random_pairs(ctx2, t92):
    sl = SympGroup(t92, 1, 2)
    rng = random.Random(17)
    for _ in range(200):
        g1, g2 = sl.random(rng), sl.random(rng)
        assert ctx2.build_rho(mat_mul(t92, g1, g2, 2)) == ctx2.build_rho(g1) @ ctx2.build_rho(g2)


def test_homomorphism_sph(ctx2, t92):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(18)
    for _ in range(60):
        a, b = sph.random(rng), sph.random(rng)
        assert ctx2.build_rho(sph.mul(a, b)) == ctx2.build_rho(a) @ ctx2.build_rho(b)


def test_unitarity_random(ctx2, t92):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(19)
    for _ in range(25):
        op = ctx2.build_rho(sph.random(rng))
        assert op @ op.conj_transpose() == ctx2.identity_op()


def test_galois_operator(ctx2, t92):
    assert ctx2.op_galois(2) == ctx2.identity_op()  # I_σ^m = 1
    assert ctx2.op_galois(1).trace() == CycNum.rational(3, 3)  # q^n


def test_galois_intertwining(ctx2, t92):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(20)
    I = ctx2.op_galois(1)
    Ii = ctx2.op_galois(-1)
    for _ in range(100):
        g = sph.random(rng)
        assert (I @ ctx2.build_rho(g)) @ Ii == ctx2.build_rho(sph.frob(g, 1))


def test_sp_action_on_heisenberg(ctx2, t92):
    sl = SympGroup(t92, 1, 2)
    h = HeisGroup(t92, 1, 2)
    rng = random.Random(21)
    for _ in range(50):
        s, x = sl.random(rng), h.random(rng)
        lhs = (ctx2.build_rho(s) @ ctx2.op_heis(x)) @ ctx2.build_rho(sl.inv(s))
        assert lhs == ctx2.op_heis(sp_act_heis(t92, s, x, 1))


def test_extended_trace_examples(ctx2, t92):
    sl = SympGroup(t92, 1, 2)
    # the word-summed trace matches the dense operator on every element,
    # both SL2 word shapes (c = 0, c invertible); (0, g) restricts to tr ρ'
    for cand in sl.elements():
        assert ctx2.extended_trace(0, cand) == ctx2.build_rho(cand).trace()
        assert ctx2.extended_trace(1, cand) == _dense_extended_trace(ctx2, 1, cand)
    # (1, 1) gives q^n
    assert ctx2.extended_trace(1, sl.identity()) == CycNum.rational(3, 3)


def test_extended_trace_matches_dense_sp4(t92):
    ctx = RepContext(t92, 2, 2)
    sp4 = SympGroup(t92, 2, 2)
    rng = random.Random(26)
    for _ in range(12):
        g = sp4.random(rng)
        for i in (0, 1):
            assert ctx.extended_trace(i, g) == _dense_extended_trace(ctx, i, g)


def test_extended_trace_is_twisted_class_function(ctx2, t92):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(22)
    for _ in range(50):
        i = rng.randrange(2)
        g, h = sph.random(rng), sph.random(rng)
        assert ctx2.extended_trace(i, g) == ctx2.extended_trace(i, sph.twisted_conj(h, g, i))


def _refuse(*args):
    raise AssertionError("the extended trace built a dense operator")


def _dense_sph_trace(ctx, i, s, h):
    rho_s = ctx.identity_op() if s is None else ctx.build_rho(s)
    return ((rho_s @ ctx.op_heis(h)) @ ctx.op_galois(i)).trace()


def test_extended_trace_monomial_path_matches_product(ctx2, t92, monkeypatch):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(23)
    for _ in range(30):
        s, h = sph.random(rng)
        i = rng.randrange(2)
        assert ctx2.extended_trace(i, (s, h)) == _dense_sph_trace(ctx2, i, s, h)
    for _ in range(30):  # H-only elements: one monomial step
        h = sph.heis.random(rng)
        i = rng.randrange(2)
        assert ctx2.extended_trace(i, h) == _dense_sph_trace(ctx2, i, None, h)
    # Sp4(F9): random Sp·H elements and singular-corner Sp parts, whose steps
    # are two Weyl steps and then the H step; tracing builds no operator
    ctx = RepContext(t92, 2, 2)
    sph4 = SpHGroup(t92, 2, 2)
    elems = [sph4.random(rng) for _ in range(6)]
    elems += [(g, sph4.heis.random(rng)) for g in _singular_corners(t92)]
    for s, h in elems:
        for i in (0, 1):
            with monkeypatch.context() as mp:
                mp.setattr(RepContext, "build_rho", _refuse)
                fast = ctx.extended_trace(i, (s, h))
            assert fast == _dense_sph_trace(ctx, i, s, h)


@pytest.mark.parametrize("level", [1, 2])
def test_character_values_walk_the_steps(t92, level, monkeypatch):
    """GSp2 class values and torus values equal dense traces and build no operator."""
    ctx = RepContext(t92, 1, level)
    gsp = SympGroup(t92, 1, level, similitude=True)
    part = conjugacy_classes(gsp)
    tor = TorusSL2(t92, level)
    reps = [gsp.similitude_rep(x) for x in t92.level_elements(level) if x != t92.zero]
    pairs = [(gsp.inv(r), r) for r in reps]

    def in_sp(z):  # GSp2 = GL2: Sp2 = SL2 is the determinant-one part
        return t92.sub(t92.mul(z[0], z[3]), t92.mul(z[1], z[2])) == t92.one

    dense_gsp = {rep: induced_trace(gsp, pairs, rep, in_sp, lambda z: ctx.build_rho(z).trace())
                 for rep in part.reps}
    dense_torus = [ctx.build_rho(g).trace() for g in tor.elements()]
    with monkeypatch.context() as mp:
        mp.setattr(RepContext, "build_rho", _refuse)
        walked_gsp = gsp_character_values(ctx, part)
        walked_torus = [tr for _, tr, _ in weil_torus_restriction(ctx, tor)]
    assert walked_gsp == dense_gsp
    assert walked_torus == dense_torus


def _coset_gsp_trace(ctx, i, g):
    """The character of Ind_{Γ⋉Sp}^{Γ⋉GSp} ρ̃' at (σ^i, g) by the per-coset formula:
    every representative diag(λ·1, 1), with the full membership test of Sp."""
    tower, n, level = ctx.tower, ctx.n, ctx.level
    gsp = SympGroup(tower, n, level, similitude=True)
    reps = [gsp.similitude_rep(x) for x in tower.level_elements(level) if x != tower.zero]
    return induced_trace(gsp, coset_pairs(gsp, reps, i), g, lambda z: membership(tower, z, n, level)[0] == "sp",
                         lambda z: ctx.extended_trace(i, z))


@pytest.mark.parametrize("n, level, count", [(1, 2, None), (2, 1, 20), (2, 2, 8)],
                         ids=["gsp2-f9-classes", "gsp4-f3", "gsp4-f9"])
def test_gsp_trace_matches_the_coset_formula(t92, n, level, count):
    """extended_gsp_trace, which keeps only the λ with σ^i(λ)·μ(g) = λ, equals the
    per-coset induced character at i = 0 and 1: on every class of GSp2(F9), and on
    sampled GSp4 elements, where z = r⁻¹·g·σ^i(r) scales n rows and n columns."""
    ctx = RepContext(t92, n, level)
    gsp = SympGroup(t92, n, level, similitude=True)
    rng = random.Random(5)
    gs = conjugacy_classes(gsp).reps if count is None else [gsp.random(rng) for _ in range(count)]
    assert len({membership(t92, g, n, level)[1] for g in gs}) > 1  # more than one multiplier
    values = []
    for i in (0, 1):
        for g in gs:
            values.append(extended_gsp_trace(ctx, i, g))
            assert values[-1] == _coset_gsp_trace(ctx, i, g)
    assert any(not v.is_zero() for v in values)


@pytest.mark.parametrize("key, level", [((3, 1, 2), 2), ((3, 1, 6), 3)])
@pytest.mark.parametrize("n", [1, 2])
def test_coordinates_index_every_point(key, level, n):
    """Point r has the base-p digits of its entries' ranks as coordinates, on
    tabulated and computed towers."""
    t = build_tower(*key)
    ctx = RepContext(t, n, level)
    coords = ctx._coordinates()
    assert np.array_equal(coords.index(coords.pts), np.arange(ctx.dim))
    elems = t.level_elements(level)
    assert coords.basis == [elems[t.p**a] for a in range(len(t.level_pivots(level)))]


def test_steps_factor_the_sp_part_once(t92, monkeypatch):
    """Nothing is kept: each family call (traces, operators, slices) factors its
    elements' Sp parts in one stack, and the same call again factors them again and
    gives the same values; the context holds only its per-context tables."""
    stacks = []
    words = schrodinger._siegel_words

    def counting(tower, n, level, g):
        stacks.append(len(g))
        return words(tower, n, level, g)

    monkeypatch.setattr(schrodinger, "_siegel_words", counting)
    rng = random.Random(29)
    ctx = RepContext(t92, 2, 2)
    (s, h), g = SpHGroup(t92, 2, 2).random(rng), SympGroup(t92, 2, 2).random(rng)
    vs = ctx.v_coordinates([h[0]])

    def families():
        return [ctx.extended_traces(0, [(s, h), g, s, (s, h)]), ctx.extended_traces(1, [(s, h), g]),
                list(ctx.rhos([g, (s, h)])), [rows.tolist() for _, _, rows in ctx.slice_traces(1, [s, g], vs)]]

    first = families()
    assert stacks == [3, 2, 2, 2]  # a repeated element is traced once
    assert families() == first and stacks == [3, 2, 2, 2] * 2
    assert {name for name, value in vars(ctx).items() if isinstance(value, dict)} == {"_gauss_pow", "_gal_perm"}


def test_stacked_entry_points_refuse_a_malformed_element(t92):
    """Every entry point takes Sp, H and Sp·H elements, an Sp·H pair next to its
    Sp part too; a tuple that is none of them raises DimensionMismatch at each."""
    ctx = RepContext(t92, 1, 2)
    pair = SpHGroup(t92, 1, 2).random(random.Random(31))
    assert ctx.extended_traces(0, [pair[0], pair]) == [ctx.extended_trace(0, pair[0]), ctx.extended_trace(0, pair)]
    bad = (1, 2, 3)
    for call in (lambda: ctx.extended_traces(0, [pair[0], bad]), lambda: ctx.extended_trace(0, bad),
                 lambda: ctx.build_rho(bad), lambda: list(ctx.rhos([pair, bad])),
                 lambda: list(ctx.slice_traces(0, [pair[0], bad], ctx.v_points()))):
        with pytest.raises(DimensionMismatch):
            call()


@pytest.mark.parametrize("n", [1, 2], ids=["sl2-f9", "sp4-f9"])
def test_extended_traces_of_a_mixed_family_match_the_dense_oracle(t92, n):
    """Sp, H and Sp·H elements in one stack, with repeats and the identity: each
    value equals tr(ρ(g)·I_σ^i) of its dense operator, for i = 0 and 1."""
    sph, ctx = SpHGroup(t92, n, 2), RepContext(t92, n, 2)
    rng = random.Random(17)
    pairs = [sph.random(rng) for _ in range(4)]
    gs = [pairs[0][0], pairs[1][1], pairs[2], pairs[3][0], pairs[3][1], pairs[3], sph.sp.identity()]
    gs += gs[:3]
    dense = _dense_extended_traces(ctx, gs)
    for i in (0, 1):
        assert ctx.extended_traces(i, gs) == dense[i]


def test_build_rho_skips_identity_steps(ctx2, t92, monkeypatch):
    """A stacked word keeps u(0) and levi(1) for its cell's shape: build_rho takes
    no dense product for such a step, and still gives the product of every step."""
    upper = (1, 5, 0, 1)  # u(5)·levi(1), the c = 0 cell
    h = ((3, 4), 2)
    calls = []
    matmul = WeilOperator.__matmul__
    for g in (upper, (upper, h)):
        sign, w, steps = next(ctx2._steps([g]))
        full = ctx2._dense(steps[0], sign)
        for step in steps[1:]:
            full = full @ ctx2._dense(step)
        with monkeypatch.context() as mp:
            mp.setattr(WeilOperator, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
            rho = ctx2.build_rho(g)
        assert rho == full and len(calls) < len(steps) - 1
        calls.clear()


def _reference_heis(ctx, h):
    """The Heisenberg operator by its formula, point by point over the tower:
    f(y*) ↦ ψ'(t − ½·x·x* + ⟨y*, x⟩) f(x* + y*)."""
    tower, n = ctx.tower, ctx.n
    v, t = h
    x, xs = v[:n], v[n:]
    dot = tower.zero
    for i in range(n):
        dot = tower.add(dot, tower.mul(x[i], xs[i]))
    k = tower.sub(t, tower.mul(tower.half, dot))
    pos = {pt: idx for idx, pt in enumerate(ctx.points)}
    arr = np.zeros((ctx.dim, ctx.dim, ctx.p - 1), dtype=np.int64)
    for idx, y in enumerate(ctx.points):
        shifted = tuple(tower.add(y[i], xs[i]) for i in range(n))
        pair = tower.zero  # ⟨y*, x⟩ = -Σ y_i x_i
        for i in range(n):
            pair = tower.sub(pair, tower.mul(y[i], x[i]))
        arr[idx, pos[shifted]] = tower.psi(tower.add(k, pair), ctx.level, ctx.scale).num
    return WeilOperator(ctx, arr)


def test_op_heis_matches_pointwise_reference(ctx2, t92):
    for h in HeisGroup(t92, 1, 2).elements():
        assert ctx2.op_heis(h) == _reference_heis(ctx2, h)
    ctx = RepContext(t92, 2, 2)
    heis = HeisGroup(t92, 2, 2)
    rng = random.Random(30)
    for _ in range(20):
        h = heis.random(rng)
        assert ctx.op_heis(h) == _reference_heis(ctx, h)


def test_weyl_det_basis_independence(t92):
    # ε'(det c) is well defined: conjugating the basis flips det by a square
    ctx = RepContext(t92, 2, 1)
    sp4 = SympGroup(t92, 2, 1)
    b = (1, 0, 0, 2)
    w = sp4.weyl(b)
    assert ctx.build_rho(w) == ctx.op_weyl(b)


def test_scaled_psi_still_a_representation(t92):
    ctx = RepContext(t92, 1, 2, scale=2)
    sl = SympGroup(t92, 1, 2)
    rng = random.Random(24)
    for _ in range(50):
        g1, g2 = sl.random(rng), sl.random(rng)
        assert ctx.build_rho(mat_mul(t92, g1, g2, 2)) == ctx.build_rho(g1) @ ctx.build_rho(g2)


# Sp2(F27), Sp4(F9) and Sp4(F3) as (p, n, level): the groups of the factor-certificate properties
SIEGEL_GROUPS = [(3, 1, 3), (3, 2, 2), (3, 2, 1)]


def _factor_matrix(spec, tag, param):
    return {"unip": spec.unipotent, "levi": spec.levi, "weyl": spec.weyl}[tag](param)


def _word_product(spec, word):
    out = mat_identity(spec.tower, spec.size)
    for tag, param in word:
        out = mat_mul(spec.tower, out, _factor_matrix(spec, tag, param), spec.size)
    return out


@pytest.mark.parametrize("p, n, level", SIEGEL_GROUPS, ids=["sp2-f27", "sp4-f9", "sp4-f3"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_siegel_word_reproduces_the_element_property(p, n, level, seed):
    spec = SympGroup(build_tower(p, 1, level), n, level)
    g = spec.random(random.Random(seed))
    word = siegel_factor(spec.tower, n, level, g)
    assert {tag for tag, _ in word} <= {"unip", "levi", "weyl"}
    assert _word_product(spec, word) == g


@pytest.mark.parametrize("p, n, level", SIEGEL_GROUPS, ids=["sp2-f27", "sp4-f9", "sp4-f3"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_siegel_word_missing_a_factor_is_refused_property(p, n, level, seed, data):
    """A word with one nontrivial factor dropped no longer reproduces g, and the
    certificate check in siegel_factor raises FactorizationFailed."""
    spec = SympGroup(build_tower(p, 1, level), n, level)
    g = spec.random(random.Random(seed))
    digits = spec.tower.digit_stack([g], 2 * n)
    ((where, tags, blocks),) = schrodinger._siegel_cells(spec.tower, n, digits)
    k = data.draw(st.integers(0, len(tags) - 1))
    param = spec.tower.from_digit_array(blocks[0, k].reshape(-1, spec.tower.ambient_degree))
    assume(_factor_matrix(spec, tags[k], param) != spec.identity())
    kept = [f for f in range(len(tags)) if f != k]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger, "_siegel_cells", lambda *args: [(where, tags[:k] + tags[k + 1 :], blocks[:, kept])])
        with pytest.raises(FactorizationFailed, match="does not reproduce"):
            siegel_factor(spec.tower, n, level, g)


def test_standard_weyl_factors_as_single_generator(t92):
    sl = SympGroup(t92, 1, 1)
    word = siegel_factor(t92, 1, 1, sl.weyl())
    assert word == [("weyl", (t92.one,))]


def test_identity_factors_trivially(t92):
    sl = SympGroup(t92, 1, 1)
    word = siegel_factor(t92, 1, 1, sl.identity())
    assert len(word) == 1


# -- the exact product kernel ---------------------------------------------------------


def _reference_product(ctx, a, b):
    """The einsum-and-fold product the BLAS kernel replaced."""
    full = np.einsum("ikr,kjs->ijrs", a.arr, b.arr)
    return WeilOperator(ctx, ctx.fold(full), a.den * b.den)


@pytest.mark.parametrize("p", [3, 5])
def test_product_kernel_matches_einsum_reference(p):
    ctx = RepContext(build_tower(p, 1, 2), 1, 2)
    rng = np.random.default_rng(p)
    for bound in (2, 1000, 10**6):
        a, b = (WeilOperator(ctx, rng.integers(-bound, bound, size=(ctx.dim, ctx.dim, p - 1)), 7)
                for _ in range(2))
        assert a @ b == _reference_product(ctx, a, b)
        c = CycNum(p, [int(v) for v in rng.integers(-bound, bound, size=p - 1)], 3)
        want = np.einsum("ijr,s->ijrs", a.arr, np.array(c.num))
        assert a.scale(c) == WeilOperator(ctx, ctx.fold(want), a.den * c.den)
        want = np.einsum("ijr,sr->jis", a.arr, ctx.conjmat)
        assert a.conj_transpose() == WeilOperator(ctx, want, a.den)


def test_product_kernel_refuses_inexact_bound(ctx2):
    big = np.full((ctx2.dim, ctx2.dim, 2), 2**26, dtype=np.int64)  # 2^52 · dim ≥ 2^53
    op = WeilOperator(ctx2, big + np.eye(ctx2.dim, dtype=np.int64)[:, :, None])
    with pytest.raises(OperatorOverflow):
        op @ op


# -- Howe's character norm: an oracle that shares no code with the model ---------------


def _kernel_dim(tower, g, size):
    """dim ker(g - 1) over the field of g's entries, by elimination in the tower."""
    rows = [[tower.sub(g[r * size + c], tower.one if r == c else tower.zero) for c in range(size)]
            for r in range(size)]
    rank = 0
    for col in range(size):
        piv = next((r for r in range(rank, size) if rows[r][col] != tower.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = tower.inv(rows[rank][col])
        rows[rank] = [tower.mul(inv, x) for x in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][col] != tower.zero:
                f = rows[r][col]
                rows[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return size - rank


def _abs2(z):
    return z * z.conj()


def test_character_norm_oracle():
    """|tr ρ_d(g)|² = (q^d)^{dim ker(g−1)} (Howe, Trans. AMS 177, 1973).

    The rank comes from elimination over the tower, not from the Schrödinger
    model, so a wrong Weyl constant or Gauss-sum normalization shows here.
    Taking the absolute value squares away every sign: an ε'-sign error in a
    generator formula passes this test.
    """
    cases = [((3, 1, 2), 1, 2, None), ((5, 1, 1), 1, 1, None),
             ((3, 1, 1), 2, 1, 150), ((3, 1, 2), 2, 2, 20)]
    for (p, b, m), n, level, count in cases:
        tower = build_tower(p, b, m)
        ctx = RepContext(tower, n, level)
        sp = SympGroup(tower, n, level)
        rng = random.Random(27)
        elems = sp.elements() if count is None else [sp.random(rng) for _ in range(count)]
        for g in elems:
            want = CycNum.rational(p, ctx.Q ** _kernel_dim(tower, g, 2 * n))
            assert _abs2(ctx.extended_trace(0, g)) == want


@pytest.mark.parametrize("m,count", [(2, 60), (3, 20)])
def test_twisted_character_norm_oracle(m, count):
    """|tr ρ̃'(σ^i, g)|² = (q^d)^{dim ker(N−1)} for the twisted norm N of (σ^i, g).

    The twisted form of Howe's identity through the base-change identity;
    like the untwisted oracle it is blind to signs.
    """
    tower = build_tower(3, 1, m)
    ctx = RepContext(tower, 1, m)
    sp = SympGroup(tower, 1, m)
    rng = random.Random(28)
    for i in range(1, m):
        ncfg = choose_t(i, m, None)
        for _ in range(count):
            g = sp.random(rng)
            N = gyoja_norm(ncfg, sp, g, 64)
            want = CycNum.rational(3, tower.q ** (ncfg.d * _kernel_dim(tower, N, 2)))
            assert _abs2(ctx.extended_trace(i, g)) == want
