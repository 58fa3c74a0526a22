import random

import numpy as np
import pytest

from weilbc import schrodinger
from weilbc.cyclotomic import CycNum
from weilbc.errors import NotSymplectic, OperatorOverflow, Singular
from weilbc.fieldtower import build_tower
from weilbc.grouplib import HeisGroup, SpHGroup, SympGroup, mat_mul, sp_act_heis
from weilbc.normmap import choose_t, gyoja_norm
from weilbc.schrodinger import RepContext, WeilOperator, siegel_factor


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


def test_factorization_singular_corner_sp4(t92, monkeypatch):
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
            want = _dense_extended_trace(ctx9, i, g)
            assert ctx9.extended_trace(i, g) == want
            with monkeypatch.context() as mp:  # one row of paths per batch
                mp.setattr(schrodinger, "_PATH_CHUNK", 1)
                assert ctx9.extended_trace(i, g) == want


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


def test_rho_memoized(ctx2, t92):
    sl = SympGroup(t92, 1, 2)
    g = sl.random(random.Random(1))
    assert ctx2.build_rho(g) is ctx2.build_rho(g)


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


def test_steps_factor_the_sp_part_once(t92, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return siegel_factor(*args)

    monkeypatch.setattr(schrodinger, "siegel_factor", counting)
    rng = random.Random(29)
    ctx = RepContext(t92, 2, 2)
    s, h = SpHGroup(t92, 2, 2).random(rng)
    ctx.extended_trace(0, (s, h))
    ctx.extended_trace(1, (s, h))  # the same Sp·H element traced twice
    assert calls == [s]
    g = SympGroup(t92, 2, 2).random(rng)
    ctx.build_rho(g)
    ctx.extended_trace(1, g)  # build_rho, then a trace of the same element
    assert calls == [s, g]


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
    cache: dict = {}
    for i in range(1, m):
        ncfg = choose_t(i, m, None)
        for _ in range(count):
            g = sp.random(rng)
            N, _ = gyoja_norm(ncfg, sp, g, 64, cache=cache)
            want = CycNum.rational(3, tower.q ** (ncfg.d * _kernel_dim(tower, N, 2)))
            assert _abs2(ctx.extended_trace(i, g)) == want
