import random

import pytest

from weilbc.characters import (
    ClassFunction,
    coset_pairs,
    eta,
    indicator_basis,
    induced_trace,
    inner_product,
    lift_class_function,
    omega,
    omega_prime,
    weil_torus_restriction,
)
from weilbc.cyclotomic import CycNum
from weilbc.errors import SupportMismatch
from weilbc.fieldtower import build_tower
from weilbc.grouplib import (
    SpHGroup,
    SympGroup,
    TorusSL2,
    conjugacy_classes,
    twisted_classes,
)
from weilbc.normmap import choose_t
from weilbc.schrodinger import RepContext


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


@pytest.fixture(scope="module")
def sl1_part(t92):
    return conjugacy_classes(SympGroup(t92, 1, 1))


def test_inner_product_of_trivial(t92, sl1_part):
    one = ClassFunction(sl1_part, tuple(CycNum.one(3) for _ in sl1_part.reps))
    assert inner_product(one, one) == CycNum.one(3)


def test_weil_character_has_norm_two(t92, sl1_part):
    # brute-force character sum over all 24 elements as the oracle
    ctx = RepContext(t92, 1, 1)
    sl1 = SympGroup(t92, 1, 1)
    total = CycNum.zero(3)
    for g in sl1.elements():
        v = ctx.build_rho(g).trace()
        total = total + v * v.conj()
    assert total == CycNum.rational(3, 2 * 24)
    chi = ClassFunction(sl1_part, tuple(ctx.build_rho(rep).trace() for rep in sl1_part.reps))
    assert inner_product(chi, chi) == CycNum.rational(3, 2)


def test_support_mismatch_raises(t92, sl1_part):
    other = conjugacy_classes(SympGroup(t92, 1, 2))
    f1 = ClassFunction(sl1_part, tuple(CycNum.one(3) for _ in sl1_part.reps))
    f2 = ClassFunction(other, tuple(CycNum.one(3) for _ in other.reps))
    with pytest.raises(SupportMismatch):
        inner_product(f1, f2)


def test_lift_of_constant_is_constant(t92, sl1_part):
    sl = SympGroup(t92, 1, 2)
    tw = twisted_classes(sl, 1)
    one = ClassFunction(sl1_part, tuple(CycNum.one(3) for _ in sl1_part.reps))
    lifted = lift_class_function(choose_t(1, 2), sl, one, tw)
    assert all(v == CycNum.one(3) for v in lifted.values)


def test_lift_is_linear(t92, sl1_part):
    sl = SympGroup(t92, 1, 2)
    tw = twisted_classes(sl, 1)
    cfg = choose_t(1, 2)
    rng = random.Random(3)
    c1 = ClassFunction(sl1_part, tuple(CycNum.rational(3, rng.randrange(-3, 4)) for _ in sl1_part.reps))
    c2 = ClassFunction(sl1_part, tuple(CycNum.rational(3, rng.randrange(-3, 4)) for _ in sl1_part.reps))
    c12 = ClassFunction(sl1_part, tuple(a + b for a, b in zip(c1.values, c2.values)))
    l1 = lift_class_function(cfg, sl, c1, tw)
    l2 = lift_class_function(cfg, sl, c2, tw)
    l12 = lift_class_function(cfg, sl, c12, tw)
    assert l12.values == tuple(a + b for a, b in zip(l1.values, l2.values))


def test_lift_of_weil_character_is_extended_trace(t92, sl1_part):
    """The base-change identity, phrased through the lifting map."""
    sl = SympGroup(t92, 1, 2)
    tw = twisted_classes(sl, 1)
    ctx1 = RepContext(t92, 1, 1)
    ctx2 = RepContext(t92, 1, 2)
    chi = ClassFunction(sl1_part, tuple(ctx1.build_rho(rep).trace() for rep in sl1_part.reps))
    lifted = lift_class_function(choose_t(1, 2), sl, chi, tw)
    for rep in tw.reps:
        assert lifted.at(rep) == ctx2.extended_trace(1, rep)


def test_isometry_on_full_basis(t92, sl1_part):
    sl = SympGroup(t92, 1, 2)
    tw = twisted_classes(sl, 1)
    cfg = choose_t(1, 2)
    basis = indicator_basis(sl1_part, 3)
    lifts = [lift_class_function(cfg, sl, chi, tw) for chi in basis]
    for a in range(len(basis)):
        for b in range(len(basis)):
            assert inner_product(basis[a], basis[b]) == inner_product(lifts[a], lifts[b])


def test_induce_trivial_from_trivial_subgroup_of_c2(t92):
    # induced trivial character from {1} = regular character (|G| at 1, 0 elsewhere),
    # on the cyclic torus T(F_3) of order 4
    group = TorusSL2(t92, 1)
    ident = group.identity()
    pairs = coset_pairs(group, group.elements())
    for y in group.elements():
        val = induced_trace(group, pairs, y, lambda z: z == ident, lambda z: CycNum.one(3))
        assert val == CycNum.rational(3, group.order() if y == ident else 0)


def test_induction_transitivity_on_torus_chain(t92):
    # {1} ⊂ {±1} ⊂ T(F_3): induce the trivial character along both routes
    tor = TorusSL2(t92, 1)
    ident = tor.identity()
    neg = (2, 0, 0, 2)
    elems = tor.elements()

    def ind(reps, sub_member, chi, y):
        return induced_trace(tor, coset_pairs(tor, reps), y, sub_member, chi)

    def inner_ind(y):
        # Ind_{1}^{{±1}} 1 = regular character of the 2-element group
        return CycNum.rational(3, 2) if y == ident else CycNum.zero(3)

    outer_reps = [ident, tor.generator]  # coset representatives of {±1} in T
    for y in elems:
        direct = ind(elems, lambda z: z == ident, lambda z: CycNum.one(3), y)
        via = ind(outer_reps, lambda z: z in (ident, neg), inner_ind, y)
        assert direct == via


def test_induced_trivial_from_spz_at_sigma(t92):
    """Index-9 induction over Γ⋉Sp·Z evaluated at (σ, 1) equals q^{2n} = 9."""
    sph = SpHGroup(t92, 1, 2)
    field = t92.level_elements(2)
    reps = [(sph.sp.identity(), ((a, b), t92.zero)) for a in field for b in field]

    def in_spz(z):  # an element of Sp·H lies in Sp·Z when its V-part is zero
        return z[1][0] == (t92.zero, t92.zero)

    total = induced_trace(sph, coset_pairs(sph, reps, 1), sph.identity(), in_spz, lambda z: CycNum.one(3))
    assert total == CycNum.rational(3, 9)


def test_omega_is_order_two(t92):
    tor = TorusSL2(t92, 1)
    om = omega(tor)
    assert om[tor.identity()] == 1
    assert sorted(om.values()) == [-1, -1, 1, 1]
    for g in tor.elements():
        for h in tor.elements():
            assert om[tor.mul(g, h)] == om[g] * om[h]


@pytest.mark.parametrize("m", [2, 3])
def test_omega_prime_is_order_two_character(m):
    t = build_tower(3, 1, m)
    tor_top = TorusSL2(t, m)
    tor_base = TorusSL2(t, 1)
    omp = omega_prime(tor_top, tor_base)
    for g in tor_top.elements():
        expected = 1 if tor_top.log(g) % 2 == 0 else -1
        assert omp[g] == expected


def test_eta_character():
    assert eta(0) == 1 and eta(1) == -1 and eta(2) == 1


def test_weil_torus_restriction(t92):
    ctx = RepContext(t92, 1, 1)
    tor = TorusSL2(t92, 1)
    rows = weil_torus_restriction(ctx, tor)
    assert tuple(g for g, _, _ in rows) == tor.elements()
    assert all(tr == expected for _, tr, expected in rows)
    # |T|·<tr ρ|_T, χ> for the two real characters: the trivial one appears once, ω never
    om = omega(tor)
    for chi, mult in ((lambda g: 1, 1), (lambda g: om[g], 0)):
        assert sum((tr * chi(g) for g, tr, _ in rows), CycNum.zero(3)) == CycNum.rational(3, mult * tor.order())
    # spec examples: value 1 at an order-4 element, -1 at -1
    gen = tor.generator
    assert ctx.build_rho(gen).trace() == CycNum.one(3)
    assert ctx.build_rho((2, 0, 0, 2)).trace() == CycNum.rational(3, -1)
