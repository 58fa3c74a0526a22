import random

import numpy as np
import pytest

from weilbc.cyclotomic import CycNum
from weilbc.errors import EvenCharacteristic, LevelMismatch, NotPrime, ZeroArgument
from weilbc.fieldtower import Tower, build_tower, enlarge_tower, get_embedding


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
    assert sorted(fixed, key=t92.elem_key) == t92.level_elements(1)


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
    assert emb.root == min(roots, key=dst.elem_key)


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
