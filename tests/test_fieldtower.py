import random
from functools import cache
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilbc import fieldtower, modp
from weilbc.cyclotomic import CycNum, gauss_sum
from weilbc.errors import ConfigInvalid, EvenCharacteristic, InvariantBroken, LevelMismatch, NotPrime, ZeroArgument
from weilbc.fieldtower import Tower, build_tower, enlarge_tower, find_modulus, get_embedding
from weilbc.grouplib import HeisGroup, SympGroup, TorusSL2, mat_mul, membership
from weilbc.normmap import _ambient_levels, _level_inverse, choose_t, gyoja_norm, lang_solve
from weilbc.schrodinger import RepContext


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


def test_build_tower_cardinalities(t92):
    assert t92.q == 3
    assert len(t92.level_elements(1)) == 3
    assert len(t92.level_elements(2)) == 9


def test_build_tower_divisor_levels():
    t = build_tower(3, 1, 4)
    assert t.levels() == [1, 2, 4]
    assert [len(t.level_elements(d)) for d in (1, 2, 4)] == [3, 9, 81]


def test_build_tower_rejects_bad_characteristic():
    with pytest.raises(EvenCharacteristic):
        Tower(2, 1, 2)
    with pytest.raises(NotPrime):
        Tower(9, 1, 2)


def test_modulus_is_lex_smallest(t92):
    # x^2 + 1 is irreducible over F_3 and lexicographically first
    assert t92.modulus == (1, 0, 1)


def test_frobenius_on_square_root_of_minus_one(t92):
    u = 3  # the generator x, with x^2 = -1
    # independent oracle: u^3 computed by repeated multiplication
    u3 = t92.mul(t92.mul(u, u), u)
    assert u3 == t92.neg(u)
    assert t92.frobenius(u, 1) == u3


def test_frobenius_fixes_each_level(t92):
    for x in t92.level_elements(2):
        assert t92.frobenius(x, 2) == x
    for c in t92.level_elements(1):
        assert t92.frobenius(c, 1) == c


def test_frobenius_is_automorphism_fixing_exactly_base(t92):
    fixed = []
    for x in t92.level_elements(2):
        for y in t92.level_elements(2):
            assert t92.frobenius(t92.add(x, y), 1) == t92.add(t92.frobenius(x, 1), t92.frobenius(y, 1))
            assert t92.frobenius(t92.mul(x, y), 1) == t92.mul(t92.frobenius(x, 1), t92.frobenius(y, 1))
        if t92.frobenius(x, 1) == x:
            fixed.append(x)
    assert sorted(fixed) == t92.level_elements(1)


def test_negative_frobenius_inverts(t92):
    for x in t92.level_elements(2):
        assert t92.frobenius(t92.frobenius(x, 1), -1) == x


def test_trace_and_norm_examples(t92):
    u = 3
    assert t92.trace_to(u, 1) == t92.zero
    assert t92.norm_to(u, 1) == t92.one
    assert t92.trace_to(t92.one, 1) == 2


def test_trace_norm_transitivity():
    t = build_tower(3, 1, 4)
    for x in t.level_elements(4):
        via = t.trace_to(t.trace_to(x, 2, from_level=4), 1, from_level=2)
        assert via == t.trace_to(x, 1, from_level=4)
        vian = t.norm_to(t.norm_to(x, 2, from_level=4), 1, from_level=2)
        assert vian == t.norm_to(x, 1, from_level=4)


def test_trace_level_mismatch():
    t = build_tower(3, 1, 4)
    with pytest.raises(LevelMismatch):
        t.trace_to(t.one, 3)


def test_quad_char_examples(t92):
    assert t92.quad_char(t92.one, 1) == 1
    assert t92.quad_char(2, 1) == -1
    for x in t92.level_elements(2):
        if x != t92.zero:
            assert t92.quad_char(t92.mul(x, x), 2) == 1
    with pytest.raises(ZeroArgument):
        t92.quad_char(t92.zero, 1)


def test_quad_char_multiplicative_and_onto(t92):
    vals = set()
    nonzero = [x for x in t92.level_elements(2) if x != t92.zero]
    for x in nonzero:
        vals.add(t92.quad_char(x, 2))
        for y in nonzero:
            assert t92.quad_char(t92.mul(x, y), 2) == t92.quad_char(x, 2) * t92.quad_char(y, 2)
    assert vals == {1, -1}


def test_psi_examples(t92):
    assert t92.psi(t92.zero, 1) == CycNum.one(3)
    assert t92.psi(t92.one, 1) == CycNum.root_of_unity(3, 1)
    u = 3
    assert t92.psi(u, 2) == CycNum.one(3)  # trace of u to F_3 vanishes


def test_psi_additive_full(t92):
    for x in t92.level_elements(2):
        for y in t92.level_elements(2):
            assert t92.psi(t92.add(x, y), 2) == t92.psi(x, 2) * t92.psi(y, 2)


def test_psi_nontrivial_sum_zero():
    for (p, b, m) in [(3, 1, 2), (5, 1, 2), (3, 1, 3)]:
        t = build_tower(p, b, m)
        for d in t.levels():
            total = CycNum.zero(p)
            for x in t.level_elements(d):
                total = total + t.psi(x, d)
            assert total.is_zero()


def test_psi_factors_through_trace():
    t = build_tower(3, 1, 4)
    for x in t.level_elements(4):
        assert t.psi(x, 4) == t.psi(t.trace_to(x, 2, from_level=4), 2)
        assert t.psi(x, 4) == t.psi(t.trace_to(x, 1, from_level=4), 1)


def test_psi_scaling():
    t = build_tower(3, 1, 2)
    a = 2
    for x in t.level_elements(2):
        assert t.psi(x, 2, scale=a) == t.psi(t.mul(a, x), 2)


PSI_TOWERS = [(3, 1, 4), (5, 1, 2), (7, 1, 2), (3, 2, 3)]  # F_{3^4}, F_{5^2}, F_{7^2}, and F_{9^3} over F_9


@cache
def _traces(key: tuple, nonsquare: bool) -> tuple:
    """(scale, {d: [Tr(scale·x) for x in level_elements(d)]}), the trace to F_p summed per
    element as Σ_{k<bd} y^{p^k} with y = scale·x: the oracle of the ψ row."""
    t = build_tower(*key)
    scale = next(x for x in t.level_elements(1)[1:] if t.quad_char(x, 1) == -1) if nonsquare else t.one
    out = {}
    for d in t.levels():
        out[d] = []
        for x in t.level_elements(d):
            y, total = t.mul(scale, x), t.zero
            for k in range(t.base_degree * d):
                total = t.add(total, t.pow(y, t.p**k))
            assert total < t.p  # in F_p
            out[d].append(total)
    return scale, out


@pytest.mark.parametrize("nonsquare", [False, True])
@pytest.mark.parametrize("key", PSI_TOWERS, ids=lambda key: "-".join(map(str, key)))
def test_psi_row_is_the_trace_of_every_element(key, nonsquare):
    """digits(x)·psi_row(d, scale) is Tr(scale·x) on every level element, at scale 1 and at a
    nonsquare of F_q; psi_exponent reads the same row."""
    t = build_tower(*key)
    scale, traces = _traces(key, nonsquare)
    for d, want in traces.items():
        elems = t.level_elements(d)
        assert (t.digit_array(elems) @ t.psi_row(d, scale) % t.p).tolist() == want
        assert [t.psi_exponent(x, d, scale) for x in elems] == want


@pytest.mark.parametrize("nonsquare", [False, True])
@pytest.mark.parametrize("key", PSI_TOWERS, ids=lambda key: "-".join(map(str, key)))
def test_gauss_sum_is_the_per_element_sum(key, nonsquare):
    """gauss_sum, read off the trace-form Gram matrix, is Σ_x ψ(x²) summed per element."""
    t = build_tower(*key)
    scale, traces = _traces(key, nonsquare)
    for d, want in traces.items():
        rank = {x: r for r, x in enumerate(t.level_elements(d))}
        total = CycNum.zero(t.p)
        for x in t.level_elements(d):
            total = total + CycNum.root_of_unity(t.p, want[rank[t.mul(x, x)]])
        assert gauss_sum(t, d, scale) == total


@pytest.mark.parametrize("key", [(3, 1, 4), (5, 1, 2), (7, 1, 3), (3, 2, 3), (3, 1, 1)],
                         ids=lambda key: "-".join(map(str, key)))
def test_companion_rows_are_the_powers_of_x(key):
    """The Krylov rows of the companion matrix, which every product reads, are x^r for
    r ≤ 2A − 2: repeated multiplication by x reduced in the test, and repeated `mul` by x."""
    t = build_tower(*key)
    A, x = t.ambient_degree, t.p % t.size  # x: the class of the variable, 0 when the modulus is x
    rows = fieldtower._krylov(fieldtower._companion(t.modulus, t.p), 2 * A - 1, t.p).T
    power = [1] + [0] * (A - 1)
    for row in rows:
        assert row.tolist() == power
        power = _poly_mulmod(power, _base_p(t, x), t.modulus, t.p)
    assert list(t.from_digit_array(rows)) == list(accumulate([x] * (2 * A - 2), t.mul, initial=t.one))


def test_enlargement_reembeds_consistently(t92):
    big, emb = enlarge_tower(t92, 4)
    assert big.ambient_degree == 4
    for x in t92.level_elements(2):
        for y in t92.level_elements(2):
            assert emb.embed(t92.add(x, y)) == big.add(emb.embed(x), emb.embed(y))
            assert emb.embed(t92.mul(x, y)) == big.mul(emb.embed(x), emb.embed(y))
    for x in t92.level_elements(2):
        assert emb.pull_back(emb.embed(x)) == x


def test_embedding_root_is_smallest():
    src = build_tower(3, 1, 2)
    dst = build_tower(3, 1, 4)
    emb = get_embedding(src, dst)
    # collect every root of x^2+1 in the destination and compare
    roots = [s for s in dst.level_elements(2) if dst.add(dst.mul(s, s), dst.one) == dst.zero]
    assert emb.root == min(roots)


def test_level_membership_and_level_of(t92):
    assert t92.in_level(2, 1)
    assert not t92.in_level(3, 1)
    # the smallest level holding an element: 2 for the root 3 of x²+1, 1 for F_3
    assert min(d for d in t92.levels() if t92.in_level(3, d)) == 2
    assert min(d for d in t92.levels() if t92.in_level(1, d)) == 1


@pytest.mark.parametrize("p, base_degree, m", [(3, 1, 1), (3, 1, 2), (7, 1, 2), (3, 1, 6), (5, 1, 4), (3, 2, 9), (3, 1, 18)])
def test_mul_and_frob_matrices_act_on_digits(p, base_degree, m):
    t = build_tower(p, base_degree, m)
    rng = random.Random(p + base_degree + m)

    def digits(x):
        return np.asarray(t._decode(x)) % t.p

    def rand():
        return t._encode(np.array([rng.randrange(t.p) for _ in range(t.ambient_degree)]))

    for _ in range(6):
        x, y = rand(), rand()
        assert np.array_equal(t.mul_matrix(y) @ digits(x) % t.p, digits(t.mul(y, x)))
        for j in (1, -1, 2):
            assert np.array_equal(t.frob_matrix(j) @ digits(x) % t.p, digits(t.frobenius(x, j)))


TOWERS = {  # p ∈ {3, 5, 7}; arithmetic by table lookup up to 100 elements, computed on digits beyond
    "tabulated": [(3, 1, 2), (3, 2, 2), (5, 1, 2), (7, 1, 2)],
    "computed": [(3, 1, 6), (5, 1, 3), (7, 1, 3)],
}


@st.composite
def tower_and_elements(draw, kind):
    t = build_tower(*draw(st.sampled_from(TOWERS[kind])))
    assert t.tabulated == (kind == "tabulated")
    pick = st.integers(0, t.size - 1)  # element r of the ambient field is the int r
    return t, draw(pick), draw(pick)


def _digits(t, x):
    return t.digit_array([x])[0].astype(np.int64)


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_mul_matrix_property(kind, data):
    t, x, y = data.draw(tower_and_elements(kind))
    assert np.array_equal(t.mul_matrix(y) @ _digits(t, x) % t.p, _digits(t, t.mul(y, x)))


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), j=st.integers(-6, 6))
def test_frob_matrix_property(kind, data, j):
    """frobenius is built on frob_matrix, so both are also checked against x^(q^j) by repeated squaring."""
    t, x, _ = data.draw(tower_and_elements(kind))
    power = t.pow(x, t.q ** (j % t.m))  # σ has order m on the ambient field
    assert np.array_equal(t.frob_matrix(j) @ _digits(t, x) % t.p, _digits(t, t.frobenius(x, j)))
    assert t.frobenius(x, j) == power


LEVEL_TOWERS = [(3, 1, 2), (3, 1, 3), (3, 1, 6), (3, 1, 8), (3, 2, 3), (5, 1, 2), (5, 1, 3),
                (7, 1, 2), (7, 1, 3), (11, 1, 2)]


@pytest.mark.parametrize("key, d", [(key, d) for key in LEVEL_TOWERS for d in range(1, key[2] + 1) if key[2] % d == 0])
def test_level_model_matches_sorted_span(key, d):
    """level_elements(d) is the span of the fixed-field kernel basis in int
    order, and the pivot digits of element r read r in base p."""
    t = build_tower(*key)
    kernel = modp.kernel_basis((t.frob_matrix(d) - np.eye(t.ambient_degree, dtype=np.int64)) % t.p, t.p)
    span = [t._encode(np.array(c) @ kernel) for c in np.ndindex(*[t.p] * len(kernel))]
    assert t.level_elements(d) == sorted(span)
    pivots = t.level_pivots(d)
    assert len(pivots) == t.base_degree * d and pivots == sorted(pivots)
    ranks = t.digit_array(t.level_elements(d))[:, pivots].astype(np.int64) @ t.p ** np.arange(len(pivots))
    assert np.array_equal(ranks, np.arange(t.q**d))


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 4))
def test_matmul_matches_mat_mul(kind, data, size):
    """The digit-matrix kernel, alone and batched, on a digit stack against entry-by-entry mat_mul."""
    t, _, _ = data.draw(tower_and_elements(kind))
    field = t.level_elements(t.m)
    a, b = (tuple(data.draw(st.sampled_from(field)) for _ in range(size * size)) for _ in range(2))
    digits = t.digit_stack([a, b], size)
    got = t.matmul(digits, digits[1])
    assert t.from_digit_stack(got) == [mat_mul(t, left, b, size) for left in (a, b)]


EMBEDDINGS = [((3, 1, 2), (3, 1, 4)), ((3, 1, 2), (3, 1, 6)), ((3, 1, 3), (3, 1, 6)),
              ((5, 1, 2), (5, 1, 4)), ((7, 1, 1), (7, 1, 3)), ((3, 1, 6), (3, 1, 6))]


@pytest.mark.parametrize("src_key, dst_key", EMBEDDINGS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_digit_embedding_matches_scalar(src_key, dst_key, data):
    src, dst = build_tower(*src_key), build_tower(*dst_key)
    emb = get_embedding(src, dst)
    xs = data.draw(st.lists(st.sampled_from(src.level_elements(src.m)), min_size=1, max_size=6))
    up = emb.embed_rows(src.digit_array(xs))
    assert dst.from_digit_array(up) == tuple(map(emb.embed, xs))
    down = emb.pull_back_rows(up)
    assert src.from_digit_array(down) == tuple(emb.pull_back(y) for y in dst.from_digit_array(up)) == tuple(xs)
    if dst.ambient_degree > src.ambient_degree:  # the generator of dst lies in no proper subfield
        gen = np.eye(dst.ambient_degree, dtype=np.int64)[1]
        with pytest.raises(LevelMismatch):
            emb.pull_back_rows(np.vstack([up, gen]))
        with pytest.raises(LevelMismatch):
            emb.pull_back(dst._encode(gen))


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_level_inverse_matches_inv(kind, data):
    """c^{q^d − 2} on the kernel against Tower.inv, for c in F_{q^d}^×."""
    t, _, _ = data.draw(tower_and_elements(kind))
    d = data.draw(st.sampled_from(t.levels()))
    c = data.draw(st.sampled_from(t.level_elements(d)[1:]))
    assert np.array_equal(_level_inverse(t, _digits(t, c), d), _digits(t, t.inv(c)))


def test_matmul_refuses_products_past_int64():
    """p = 2^31 − 1: two digit products fit in a partial sum, three could overflow."""
    t = build_tower(2**31 - 1, 1, 1)
    top = np.full((1, 2, 1), t.p - 1, dtype=np.int64)
    assert t.matmul(top, top.reshape(2, 1, 1)).tolist() == [[[2]]]
    wide = np.broadcast_to(np.int64(t.p - 1), (1, 3, 1))
    with pytest.raises(InvariantBroken):
        t.matmul(wide, wide.reshape(3, 1, 1))


def _poly_mulmod(a: list, b: list, modulus: tuple, p: int) -> list:
    """Digits of a·b mod the monic modulus in Python ints, which cannot overflow."""
    full = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[i + j] += x * y
    deg = len(modulus) - 1
    for k in range(len(full) - 1, deg - 1, -1):  # x^k = −Σ_i f_i·x^{k−deg+i}
        top, full[k] = full[k], 0
        for i in range(deg):
            full[k - deg + i] -= top * modulus[i]
    return [c % p for c in full[:deg]]


def _base_p(t, x) -> list:
    """Digits of x, low degree first, by divmod."""
    out = []
    for _ in range(t.ambient_degree):
        x, c = divmod(x, t.p)
        out.append(c)
    return out


def test_mul_is_exact_for_a_large_prime():
    """Every digit product stays exact at p = 4000037, where unreduced sums
    of digit products would leave int64."""
    t = Tower(4000037, 1, 2)
    rng = random.Random(1)
    for _ in range(500):
        x, y = rng.randrange(t.size), rng.randrange(t.size)
        expect = _poly_mulmod(_base_p(t, x), _base_p(t, y), t.modulus, t.p)
        assert t.mul(x, y) == sum(c * t.p**k for k, c in enumerate(expect))


def test_tower_refuses_digit_products_past_int64():
    with pytest.raises(ConfigInvalid):
        Tower(2**31 - 1, 1, 3)  # 3·(p−1)² ≥ 2^63


ARITH_TOWERS = [(3, 1, 2), (3, 1, 6), (3, 1, 41)]  # tabulated, computed within int64, computed past int64


@st.composite
def arith_tower_and_elements(draw):
    t = build_tower(*draw(st.sampled_from(ARITH_TOWERS)))
    pick = st.integers(0, t.size - 1)
    return t, draw(pick), draw(pick)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mul_and_inv_property(data):
    t, x, y = data.draw(arith_tower_and_elements())
    got = _remainder(np.convolve(_base_p(t, x), _base_p(t, y)) % t.p, t.modulus, t.p)
    assert t.mul(x, y) == sum(int(c) * t.p**k for k, c in enumerate(got))
    if x:
        assert t.mul(x, t.inv(x)) == t.one


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), j=st.integers(-3, 3))
def test_frobenius_is_a_power_property(data, j):
    t, x, _ = data.draw(arith_tower_and_elements())
    assert t.frobenius(x, j) == t.pow(x, t.q ** (j % t.m))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_digit_codec_round_trip_property(data):
    t, x, y = data.draw(arith_tower_and_elements())
    assert t.from_digit_array(t.digit_array([x, y])) == (x, y)
    assert t.digit_array([x])[0].tolist() == _base_p(t, x)


def test_digit_codec_refuses_a_non_element(t92):
    """An int outside 0..size−1 or a non-integer is no element of the field: the codec behind
    every digit stack refuses it with a typed error instead of reading 82 or 1.5 as 1 at F_9."""
    for bad in (9, 82, -1, 2**70, 1.5, 1.0, "1", None):
        with pytest.raises(LevelMismatch):
            t92.digit_array([0, bad])
    for bad in (82, 1.5):
        with pytest.raises(LevelMismatch):
            membership(t92, (bad, 0, 0, 1), 1, 2)
    with pytest.raises(LevelMismatch):
        RepContext(t92, 1, 2).extended_traces(0, [(82, 0, 0, 1)])
    assert t92.digit_array([8, 0, np.int64(3), np.uint8(8)]).tolist() == [[2, 2], [0, 0], [0, 1], [2, 2]]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_trace_and_norm_property(data):
    t, x, y = data.draw(arith_tower_and_elements())
    d = data.draw(st.sampled_from(t.levels()))
    tr = t.trace_to(t.add(x, y), d)
    assert tr == t.add(t.trace_to(x, d), t.trace_to(y, d))
    assert t.in_level(tr, d)
    assert t.norm_to(x, d) == t.pow(x, (t.q**t.m - 1) // (t.q**d - 1))


def test_library_hands_out_plain_ints():
    """A numpy scalar would hash and compare like an int but print differently."""
    def plain(values):
        values = list(values)
        assert values and all(type(v) is int for v in values)

    for key in ARITH_TOWERS:
        t = build_tower(*key)
        x, y = t.size - 1, t.size // 2
        plain([t.add(x, y), t.neg(x), t.sub(x, y), t.mul(x, y), t.inv(x), t.pow(x, 5), t.frobenius(x, 1),
               t.trace_to(x, 1), t.norm_to(x, 1), t.from_int(-1), t.zero, t.one, t.half])
        plain(t.from_digit_array(t.digit_array([x, y])))
        plain(t.level_elements(1))
    t92 = build_tower(3, 1, 2)
    plain(t92.level_elements(2))
    for spec in (SympGroup(t92, 1, 2), SympGroup(t92, 1, 2, similitude=True), TorusSL2(t92, 2)):
        plain(chain.from_iterable(spec.elements()))
    plain(v for (vec, s) in HeisGroup(t92, 1, 1).elements() for v in (*vec, s))
    sl9, rng = SympGroup(t92, 1, 2), random.Random(0)
    for g in (sl9.random(rng) for _ in range(5)):
        plain(gyoja_norm(choose_t(1, 2), sl9, g))
        target = t92.digit_stack([g], sl9.size)
        witness = lang_solve(sl9, target, 1, _ambient_levels(sl9, target, 1)[0])
        plain(chain.from_iterable(witness.alpha))
        emb = witness.embedding
        plain([emb.embed(g[0]), emb.pull_back(emb.embed(g[0]))])


# find_modulus for p = 3, degrees 2..36, and p = 7, degrees 2..28: the coefficients c_0..c_deg
# (low degree first, one digit each), recorded before the root prefilter was added.
MODULI = {
    3: [
        "101", "1021", "10111", "100021", "1000111", "10000121", "100001101", "1000002101", "10000000201",
        "100000000121", "1000000010011", "10000000000021", "100000000000111", "1000000000000121",
        "10000000000001101", "100000000000000021", "1000000000000001021", "10000000000000000121",
        "100000000000000001021", "1000000000000000001011", "10000000000000000001101", "100000000000000000001011",
        "1000000000000000000011221", "10000000000000000000002001", "100000000000000000000000201",
        "1000000000000000000000101221", "10000000000000000000000000111", "100000000000000000000000010101",
        "1000000000000000000000000001021", "10000000000000000000000000001011", "100000000000000000000000000001221",
        "1000000000000000000000000000002221", "10000000000000000000000000000000201",
        "100000000000000000000000000000000121", "1000000000000000000000000000000001111",
    ],
    7: [
        "101", "1011", "10011", "100031", "1000101", "10000061", "100000121", "1000000011", "10000000111",
        "100000000041", "1000000001031", "10000000000131", "100000000000031", "1000000000000341",
        "10000000000000531", "100000000000000041", "1000000000000000101", "10000000000000000121",
        "100000000000000000431", "1000000000000000000131", "10000000000000000000401", "100000000000000000000421",
        "1000000000000000000002011", "10000000000000000000001031", "100000000000000000000001051",
        "1000000000000000000000002141", "10000000000000000000000000111",
    ],
}


@pytest.mark.parametrize("p", sorted(MODULI))
def test_level_bases_match_the_reversed_kernel(p):
    """On every tower (p, 1, m) of the recorded range and each level d | m, the trace-spanned
    level basis equals the null space of Frob^d − 1 brought to reduced echelon form from its
    highest digit, and its pivots are that form's."""
    for m in range(2, len(MODULI[p]) + 2):
        t = build_tower(p, 1, m)
        eye = np.eye(m, dtype=np.int64)
        for d in (d for d in range(1, m + 1) if m % d == 0):
            kernel = modp.kernel_basis((t.frob_matrix(d) - eye) % p, p)
            high_first, mask = modp.rref(kernel[:, ::-1], p)
            assert np.array_equal(t._level_basis(d), high_first[::-1, ::-1]), (m, d)
            assert t.level_pivots(d) == [m - 1 - c for c in reversed(np.flatnonzero(mask).tolist())]


@pytest.mark.parametrize("p", sorted(MODULI))
def test_find_modulus_matches_the_recorded_table(p):
    got = ["".join(map(str, find_modulus(p, deg))) for deg in range(2, len(MODULI[p]) + 2)]
    assert got == MODULI[p]


def _monic_polys(p, deg):
    """Every monic polynomial of the given degree, as a coefficient list, low degree first."""
    for k in range(p**deg):
        yield [k // p**e % p for e in range(deg)] + [1]


def _remainder(f, g, p):
    """f mod g over F_p for a monic g, by schoolbook long division."""
    f = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = f[top]
        if c:
            for e, ge in enumerate(g):
                f[top - len(g) + 1 + e] = (f[top - len(g) + 1 + e] - c * ge) % p
    return f[: len(g) - 1]


def _irreducible_by_trial_division(f, p):
    deg = len(f) - 1
    return not any(not any(_remainder(f, g, p)) for d in range(1, deg // 2 + 1) for g in _monic_polys(p, d))


@pytest.mark.parametrize("p, deg", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2),
                                    (7, 3), (7, 4), (11, 2), (11, 3)])
def test_find_modulus_against_trial_division(p, deg):
    """The modulus is irreducible and every candidate before it in the search order
    (c_0 ≠ 0, then (c_0, c_1, …, c_{deg−1}) lexicographically) has a monic factor."""
    got = list(find_modulus(p, deg))
    assert _irreducible_by_trial_division(got, p)
    for f in _monic_polys(p, deg):
        rank = (f[0], *f[1:deg])
        if f[0] and rank < tuple(got[:deg]):
            assert not _irreducible_by_trial_division(f, p), f
