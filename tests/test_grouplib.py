import random
from functools import cache

import pytest

from weilbc import grouplib
from weilbc.errors import GroupTooLarge
from weilbc.fieldtower import build_tower
from weilbc.grouplib import (
    HeisGroup,
    SemidirectGroup,
    SpHGroup,
    SympGroup,
    SympSpace,
    TorusSL2,
    conjugacy_classes,
    membership,
    twisted_classes,
)


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


def test_membership_examples(t92):
    J = SympSpace(1).gram(t92)
    assert membership(t92, J, 1, 1) == ("sp", None)
    assert membership(t92, (2, 0, 0, 2), 1, 1) == ("sp", None)
    kind, lam = membership(t92, (2, 0, 0, 1), 1, 1)
    assert kind == "gsp" and lam == 2


def test_membership_neither(t92):
    assert membership(t92, (1, 1, 1, 1), 1, 1)[0] == "neither"


def test_heis_law_examples(t92):
    h = HeisGroup(t92, 1, 1)
    v = ((1, 1), 0)
    assert h.mul(v, v) == ((2, 2), 0)
    e1 = ((1, 0), 0)
    f1 = ((0, 1), 0)
    assert h.mul(e1, f1) == ((1, 1), 2)  # 1/2 = 2 in F_3
    assert h.inv(((1, 2), 1)) == ((2, 1), 2)


def test_heis_group_axioms(t92):
    h = HeisGroup(t92, 1, 2)
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (h.random(rng) for _ in range(3))
        assert h.mul(h.mul(a, b), c) == h.mul(a, h.mul(b, c))
        assert h.mul(a, h.inv(a)) == h.identity()
        assert h.mul(h.identity(), a) == a


def test_heis_center_is_central(t92):
    h = HeisGroup(t92, 1, 1)
    for z in [((0, 0), t) for t in t92.level_elements(1)]:
        for g in h.elements():
            assert h.mul(z, g) == h.mul(g, z)


def test_twisted_mul_convention(t92):
    sl = SympGroup(t92, 1, 2)
    semi = SemidirectGroup(sl, 2)
    g = (3, 1, 0, 4)
    # (σ,1)(1,g) = (σ, σ(g)) and (1,g)(σ,1) = (σ, g)
    assert semi.mul((1, sl.identity()), (0, g)) == (1, sl.frob(g, 1))
    assert semi.mul((0, g), (1, sl.identity())) == (1, g)
    # (σ,g)^2 = (σ^2, g σ(g))
    sq = semi.mul((1, g), (1, g))
    assert sq == (0, sl.mul(g, sl.frob(g, 1)))


def test_twisted_group_axioms(t92):
    sl = SympGroup(t92, 1, 2)
    semi = SemidirectGroup(sl, 2)
    rng = random.Random(1)
    for _ in range(40):
        a, b, c = (semi.random(rng) for _ in range(3))
        assert semi.mul(semi.mul(a, b), c) == semi.mul(a, semi.mul(b, c))
        assert semi.mul(a, semi.inv(a)) == semi.identity()


def test_group_orders(t92):
    assert SympGroup(t92, 1, 1).order() == 24
    assert SympGroup(t92, 1, 2).order() == 720
    assert len(SympGroup(t92, 1, 1).elements()) == 24
    assert len(SympGroup(t92, 1, 2).elements()) == 720
    t9 = build_tower(3, 1, 3)
    assert SympGroup(t9, 1, 3).order() == 27 * (27**2 - 1)


def test_sp4_order_and_cap(t92):
    # |Sp4(F_3)| = 3^4·(3^2-1)(3^4-1) = 51840, under the default cap
    sp4 = _group("sp4f3")
    assert sp4.order() == 51840
    assert len(sp4.elements()) == 51840
    # at F_9 the order is ~3.4e9: enumeration must refuse
    with pytest.raises(GroupTooLarge):
        SympGroup(t92, 2, 2).elements()


def test_conjugacy_class_counts(t92):
    part = conjugacy_classes(SympGroup(t92, 1, 1))
    assert len(part) == 7 and sum(part.sizes) == 24  # q + 4 classes of the 24 elements at q = 3
    assert len(conjugacy_classes(SympGroup(t92, 1, 2))) == 13  # q + 4 at q = 9


def test_twisted_class_counts(t92):
    sl = SympGroup(t92, 1, 2)
    assert len(twisted_classes(sl, 1)) == 7
    assert len(twisted_classes(sl, 0)) == 13


def test_twisted_i0_matches_ordinary(t92):
    sl = SympGroup(t92, 1, 2)
    part0 = twisted_classes(sl, 0)
    ordinary = conjugacy_classes(SympGroup(t92, 1, 2))  # a second group: no shared memo
    assert part0.reps == ordinary.reps
    assert part0.sizes == ordinary.sizes
    assert conjugacy_classes(sl) is part0  # one memo entry: twist 0 is the ordinary partition


def test_gyoja_counting_several_twists():
    t = build_tower(3, 1, 3)
    sl = SympGroup(t, 1, 3)
    for i in (1, 2):
        assert len(twisted_classes(sl, i)) == 7  # gcd(i,3)=1 → classes of SL2(F_3)


def test_elliptic_torus_small(t92):
    tor = TorusSL2(t92, 1)
    assert tor.order() == 4
    assert len(tor.elements()) == 4
    # cyclic: the canonical generator has full order
    g = tor.generator
    seen = {g}
    cur = g
    for _ in range(3):
        cur = tor.mul(cur, g)
        seen.add(cur)
    assert len(seen) == 4
    neg1 = (2, 0, 0, 2)
    assert tor.contains(neg1)
    assert tor.contains((0, 1, 2, 0))  # [[0,1],[-1,0]], square is -1
    sq = tor.mul((0, 1, 2, 0), (0, 1, 2, 0))
    assert sq == neg1


def test_torus_split_at_even_degree(t92):
    tor2 = TorusSL2(t92, 2)
    assert tor2.is_split() and tor2.order() == 8
    t27 = build_tower(3, 1, 3)
    tor3 = TorusSL2(t27, 3)
    assert not tor3.is_split() and tor3.order() == 28


def test_torus_meets_borel_in_center(t92):
    tor = TorusSL2(t92, 1)
    meet = [g for g in tor.elements() if g[2] == t92.zero]  # the Borel of SL2: entry c is zero
    assert sorted(meet) == sorted([(1, 0, 0, 1), (2, 0, 0, 2)])


def test_sph_group_law(t92):
    sph = SpHGroup(t92, 1, 2)
    rng = random.Random(2)
    for _ in range(40):
        a, b = sph.random(rng), sph.random(rng)
        ab = sph.mul(a, b)
        assert sph.contains(ab)
        assert sph.mul(ab, sph.inv(b)) == a


def test_borel_enumeration(t92):
    """B(F_9) as the parabolic check takes it: the elements of SL2(F_9) with c = 0,
    in sorted order, equal the (a, b, 0, a⁻¹) built from the field directly."""
    sl = SympGroup(t92, 1, 2)
    borel = [g for g in sl.elements() if g[2] == t92.zero]
    assert len(borel) == 72  # q(q - 1) at q = 9
    field = t92.level_elements(2)
    direct = [(a, b, t92.zero, t92.inv(a)) for a in field if a != t92.zero for b in field]
    assert borel == sorted(direct)


def test_random_element_deterministic(t92):
    sl = SympGroup(t92, 1, 2)
    a = [sl.random(random.Random(7)) for _ in range(5)]
    b = [sl.random(random.Random(7)) for _ in range(5)]
    assert a == b
    assert all(sl.contains(g) for g in a)


def test_membership_dimension_mismatch(t92):
    from weilbc.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        membership(t92, (1, 0, 0), 1, 1)


def test_heis_mul_rejects_mixed_sizes(t92):
    from weilbc.errors import LevelMismatch

    with pytest.raises(LevelMismatch):
        HeisGroup(t92, 1, 1).mul(((1, 0), 0), ((1, 0, 0, 0), 0))


def test_closure_rejects_generators_of_a_subgroup(t92):
    from weilbc.errors import InvariantBroken
    from weilbc.grouplib import _closure

    class UnipotentOnly(SympGroup):  # the unipotent generators span only the upper unipotents
        def generators(self):
            return super().generators()[:1]

    with pytest.raises(InvariantBroken):
        _closure(UnipotentOnly(t92, 2, 1))


def _reference_partition(spec, twist):
    """Classes by breadth-first search, one element at a time: each generator s
    acts through its pair (s, σ^twist(s)⁻¹) by spec.mul."""
    pairs = [(s, spec.inv(spec.frob(s, twist) if twist else s)) for s in spec.generators()]
    seen, orbits = {}, []
    for start in spec.elements():
        if start in seen:
            continue
        seen[start] = len(orbits)
        queue, members = [start], [start]
        while queue:
            cur = queue.pop()
            for s, t in pairs:
                nxt = spec.mul(spec.mul(s, cur), t)
                if nxt not in seen:
                    seen[nxt] = len(orbits)
                    queue.append(nxt)
                    members.append(nxt)
        orbits.append(members)
    reps = [min(mem) for mem in orbits]
    order = sorted(range(len(orbits)), key=reps.__getitem__)
    remap = {old: new for new, old in enumerate(order)}
    return ([reps[k] for k in order], [len(orbits[k]) for k in order],
            {g: remap[k] for g, k in seen.items()})


@cache
def _group(name):
    """Groups built once for the module: Sp4(F3) alone takes seconds to enumerate."""
    t92 = build_tower(3, 1, 2)
    return {
        "sl": lambda: SympGroup(t92, 1, 2),  # SL2(F9)
        "gsp": lambda: SympGroup(t92, 1, 2, similitude=True),  # GSp2(F9)
        "semidirect": lambda: SemidirectGroup(_group("sl"), 2),
        "sl25": lambda: SympGroup(build_tower(5, 1, 2), 1, 2),
        "sl49": lambda: SympGroup(build_tower(7, 1, 2), 1, 2),
        "sp4f3": lambda: SympGroup(t92, 2, 1),
        "sl9-computed": lambda: SympGroup(build_tower(3, 1, 6), 1, 2),  # entries on a tower without tables
    }[name]()


@pytest.mark.parametrize("group, twist", [("sl", 0), ("sl", 1), ("gsp", 1), ("semidirect", 0), ("sl25", 1),
                                          ("sl49", 1), ("sp4f3", 0), ("sl9-computed", 1)])
def test_partitions_match_the_per_action_reference(group, twist):
    spec = _group(group)
    part = twisted_classes(spec, twist)
    reps, sizes, class_of = _reference_partition(spec, twist)
    assert part.twist == twist
    assert part.reps == reps and part.sizes == sizes
    assert part.class_of == class_of


def test_class_of_is_keyed_by_the_memoized_elements():
    sl = _group("sl25")
    part = twisted_classes(sl, 1)
    assert all(key is g for key, g in zip(part.class_of, sl.elements(), strict=True))


def test_partition_makes_no_per_element_products(monkeypatch):
    """Generators act on the whole element array at once: the partition of
    SL2(F25) at twist 1 (15,600 elements) multiplies only generator matrices."""
    sl = SympGroup(build_tower(5, 1, 2), 1, 2)
    sl.elements()
    calls = []
    orig = grouplib.mat_mul

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(grouplib, "mat_mul", counted)
    assert len(twisted_classes(sl, 1)) == 9
    assert len(calls) <= 4 * len(sl.generators())


def test_semidirect_group_has_ordinary_classes_only():
    from weilbc.errors import ConfigInvalid

    with pytest.raises(ConfigInvalid):
        twisted_classes(SemidirectGroup(_group("sl"), 2), 1)


def test_code_width_guard_refuses_int64_overflow():
    """Element codes are int64: a matrix size and field size whose codes could
    pass 2^63 are refused before any code is formed."""
    assert grouplib._code_weights(9, 16)[0] == 9**15  # Sp4(F9): 9^16 < 2^63
    assert grouplib._code_weights(2**21, 3).tolist() == [2**42, 2**21, 1]  # exactly 2^63 fits
    with pytest.raises(GroupTooLarge):
        grouplib._code_weights(27, 16)  # Sp4(F27): 27^16 ≈ 7.9·10^22
    with pytest.raises(GroupTooLarge):
        grouplib._code_weights(2**21 + 1, 3)


def test_group_memoizes_elements_and_partitions(t92):
    sl = SympGroup(t92, 1, 2)
    assert sl.elements() is sl.elements()
    assert twisted_classes(sl, 1) is twisted_classes(sl, 1)
    assert conjugacy_classes(sl) is conjugacy_classes(sl)
    assert sorted(sl.partitions) == [0, 1]


def test_shared_elements_are_immutable(t92):
    """elements() hands every caller one shared tuple, which no caller can mutate."""
    sl = SympGroup(t92, 1, 2)
    groups = [sl, SympGroup(t92, 1, 1, similitude=True), _group("sp4f3"), HeisGroup(t92, 1, 1),
              TorusSL2(t92, 2), SemidirectGroup(sl, 2)]
    for spec in groups:
        elems = spec.elements()
        assert isinstance(elems, tuple) and len(elems) == spec.order()
        with pytest.raises(TypeError):
            elems[0] = elems[-1]
