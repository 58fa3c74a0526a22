import hashlib
import random
from functools import cache
from itertools import chain

import pytest

from weilbc import grouplib
from weilbc.errors import GroupTooLarge, InvariantBroken, Singular
from weilbc.fieldtower import build_tower
from weilbc.grouplib import (
    HeisGroup,
    SemidirectGroup,
    SpHGroup,
    SympGroup,
    TorusSL2,
    conjugacy_classes,
    membership,
    twisted_classes,
)


@pytest.fixture(scope="module")
def t92():
    return build_tower(3, 1, 2)


def test_membership_examples(t92):
    J = (0, 1, 2, 0)  # [[0, 1], [−1, 0]] over F_3
    assert membership(t92, J, 1, 1) == ("sp", None)
    assert membership(t92, (2, 0, 0, 2), 1, 1) == ("sp", None)
    kind, lam = membership(t92, (2, 0, 0, 1), 1, 1)
    assert kind == "gsp" and lam == 2


def test_membership_neither(t92):
    assert membership(t92, (1, 1, 1, 1), 1, 1)[0] == "neither"
    diag = (3, 0, 0, t92.inv(3))  # 3 generates F9 over F3: in SL2(F9), not at level 1
    assert membership(t92, diag, 1, 2) == ("sp", None)
    assert membership(t92, diag, 1, 1)[0] == "neither"


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


def test_torus_inverse_is_the_adjugate(t92):
    for tor in (TorusSL2(t92, 1), TorusSL2(t92, 2)):
        assert all(tor.mul(g, tor.inv(g)) == tor.identity() for g in tor.elements())


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


def test_mat_det_refuses_sizes_above_two(t92):
    """mat_det keeps the 1×1 and 2×2 formulas; a 3×3 tuple matrix is refused, not eliminated."""
    from weilbc.errors import DimensionMismatch

    assert grouplib.mat_det(t92, (2,), 1) == 2
    assert grouplib.mat_det(t92, (1, 2, 0, 1), 2) == 1
    with pytest.raises(DimensionMismatch):
        grouplib.mat_det(t92, grouplib.mat_identity(t92, 3), 3)


def _siegel_oracle(tower, tag, m, n):
    """u(m), levi(m) or weyl(m) as a tuple, from the block formulas [[1, b], [0, 1]],
    diag(a, (aᵀ)⁻¹) and [[0, B], [−(Bᵀ)⁻¹, 0]], (Mᵀ)⁻¹ by the 1×1 inverse or the 2×2 adjugate."""
    size = 2 * n
    g = [tower.one if tag == "unip" and i == j else tower.zero for i in range(size) for j in range(size)]
    if tag != "unip":
        mt = [m[j * n + i] for i in range(n) for j in range(n)]
        if n == 1:
            inv = [tower.inv(mt[0])]
        else:
            di = tower.inv(tower.sub(tower.mul(mt[0], mt[3]), tower.mul(mt[1], mt[2])))
            inv = [tower.mul(di, x) for x in (mt[3], tower.neg(mt[1]), tower.neg(mt[2]), mt[0])]
    for i in range(n):
        for j in range(n):
            if tag == "levi":
                g[i * size + j], g[(n + i) * size + n + j] = m[i * n + j], inv[i * n + j]
            else:
                g[i * size + n + j] = m[i * n + j]
                if tag == "weyl":
                    g[(n + i) * size + j] = tower.neg(inv[i * n + j])
    return tuple(g)


def _siegel_parameters(tower, n):
    """Every 1×1 parameter over F_9 (nonzero for levi and weyl) at n = 1; at n = 2, 12 seeded
    symmetric blocks for u and 12 seeded invertible blocks each for levi and weyl."""
    field = tower.level_elements(2)
    if n == 1:
        return [("unip", (x,)) for x in field] + [(tag, (x,)) for tag in ("levi", "weyl") for x in field[1:]]
    rng, out = random.Random(11), []
    for tag in ("unip", "levi", "weyl"):
        while sum(t == tag for t, _ in out) < 12:
            a, b, c, d = (rng.choice(field) for _ in range(4))
            if tag == "unip":
                out.append((tag, (a, b, b, d)))
            elif tower.sub(tower.mul(a, d), tower.mul(b, c)) != tower.zero:
                out.append((tag, (a, b, c, d)))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_siegel_generators_match_the_block_formulas(t92, n):
    """The one builder, stacked and through SympGroup's decodes, against tuple formulas
    that share none of its code; every result lies in Sp."""
    spec, params = SympGroup(t92, n, 2), _siegel_parameters(t92, n)
    want = [_siegel_oracle(t92, tag, m, n) for tag, m in params]
    tags = tuple(tag for tag, _ in params)
    stacked = grouplib.siegel_matrices(t92, tags, t92.digit_stack([m for _, m in params], n)[None])
    assert t92.from_digit_stack(stacked[0]) == want
    assert [{"unip": spec.unipotent, "levi": spec.levi, "weyl": spec.weyl}[tag](m) for tag, m in params] == want
    assert all(membership(t92, g, n, 2) == ("sp", None) for g in want)
    assert spec.weyl() == _siegel_oracle(t92, "weyl", grouplib.mat_identity(t92, n), n)


@pytest.mark.parametrize("n, block", [(1, (0,)), (2, (1, 1, 1, 1))], ids=["n1", "n2"])
def test_singular_siegel_blocks_raise_singular(t92, n, block):
    spec = SympGroup(t92, n, 2)
    with pytest.raises(Singular):
        spec.levi(block)
    with pytest.raises(Singular):
        spec.weyl(block)


def test_generators_are_built_once_per_group(t92, monkeypatch):
    """200 random draws from each of three groups call the builder once per group."""
    calls = []
    orig = grouplib.siegel_matrices

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(grouplib, "siegel_matrices", counted)
    groups = [SympGroup(t92, 1, 2), SympGroup(t92, 2, 2), SympGroup(t92, 1, 2, similitude=True)]
    rng = random.Random(0)
    for spec in groups:
        for _ in range(200):
            spec.random(rng)
        assert spec.generators() is spec.generators()
    assert len(calls) == len(groups)


_DRAWS_PINNED = {  # SHA-256 of repr of 200 draws at Random(23), recorded with the per-draw generator lists
    "sl": "8fb493881ac36709096690df56f353e35492250fa1936dcbdf9b86845122fa0d",
    "sp4": "d297b528f9426fa5d10cab5acd759cd3661dfbf66f32aa33c12db44f4229a901",
    "gsp": "c676adcbf0d487e88e6a035235ea783707b8bd187a4deb418412e253d1764a1b",
}


@pytest.mark.parametrize("group", sorted(_DRAWS_PINNED))
def test_random_draws_are_pinned(t92, group):
    """The generators, their order included, fix every sampled draw: SL2(F_9), Sp4(F_9), GSp2(F_9)."""
    spec = {"sl": lambda: SympGroup(t92, 1, 2), "sp4": lambda: SympGroup(t92, 2, 2),
            "gsp": lambda: SympGroup(t92, 1, 2, similitude=True)}[group]()
    rng = random.Random(23)
    draws = [spec.random(rng) for _ in range(200)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == _DRAWS_PINNED[group]


def test_heis_mul_rejects_mixed_sizes(t92):
    from weilbc.errors import LevelMismatch

    with pytest.raises(LevelMismatch):
        HeisGroup(t92, 1, 1).mul(((1, 0), 0), ((1, 0, 0, 0), 0))


def _generated(spec) -> bool:
    """Whether generators() generate the group: the left-multiplication orbit of the identity
    under them, found on the digit array of all elements, is the whole group."""
    tower, size, elems = spec.tower, spec.size, spec.elements()
    digits = tower.digit_array(chain.from_iterable(elems)).reshape(len(elems), -1)
    cols, weights = grouplib._code_columns(tower, spec.level, size * size)
    codes = digits[:, cols] @ weights
    one = spec.identity()
    images = [grouplib._image_indices(digits, codes, grouplib._sandwich_map(tower, s, one, size), cols, weights,
                                      tower.p) for s in spec.generators()]
    labels = grouplib._min_labels(images, len(elems))
    return bool((labels == labels[elems.index(one)]).all())


@pytest.mark.parametrize("group", ["sl", "gsp", "sl49", "sp4f3"])
def test_generators_generate_the_group(group):
    """The partitions take their orbits from generators(): they must generate the group."""
    assert _generated(_group(group))


def test_a_proper_subgroup_fails_the_generation_check(t92):
    class UnipotentOnly(SympGroup):  # the first unipotent generator spans a group of order 3
        def generators(self):
            return super().generators()[:1]

    assert not _generated(UnipotentOnly(t92, 2, 1))


_PINNED = {  # SHA-256 of repr(elements()), recorded with the generator closure and the SL2/GL2 loops
    "sl": "3db119d7eca1a93e5e3383baec9bca1ca28105e31a470fe28b26dff0ee0ee47a",
    "gsp": "2d9a3aeda9557e24b9b1e191e448be9341e57664c1596925eea4bb1224361895",
    "sl49": "6a271485eaa99db6ce18d29ca0cb7747ecb8d644337b2e0a90e125a2fea64d3a",
    "sl9-computed": "c98a36164b48aa5614b5deb75d9838ae285668665fa44da460d40b70bece4594",
    "sp4f3": "95b0a8337314a94bb82dca251f6d50ea9735663c68aad0fbc22be466b707e48c",
    "gsp4f3": "f357b42a381a74acb4d79ebc84e1093a4f4eb2e81b50e6e553ea5d8f76eaa97d",
}


@pytest.mark.parametrize("group", sorted(_PINNED))
def test_enumeration_is_pinned(group):
    """elements() lists the group in sorted order, byte for byte as before the symplectic-basis enumerator."""
    spec = _group(group)
    elems = spec.elements()
    assert len(elems) == spec.order()
    assert hashlib.sha256(repr(elems).encode()).hexdigest() == _PINNED[group]


def test_enumeration_refuses_a_wrong_count(t92, monkeypatch):
    """A count of symplectic bases other than order() is an internal error."""
    spec = SympGroup(t92, 1, 2)
    monkeypatch.setattr(spec, "order", lambda: 721)
    with pytest.raises(InvariantBroken):
        spec.elements()


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
    """Groups built once for the module: their partitions, not their enumerations, are the cost."""
    t92 = build_tower(3, 1, 2)
    return {
        "sl": lambda: SympGroup(t92, 1, 2),  # SL2(F9)
        "gsp": lambda: SympGroup(t92, 1, 2, similitude=True),  # GSp2(F9)
        "semidirect": lambda: SemidirectGroup(_group("sl"), 2),
        "sl25": lambda: SympGroup(build_tower(5, 1, 2), 1, 2),
        "sl49": lambda: SympGroup(build_tower(7, 1, 2), 1, 2),
        "sp4f3": lambda: SympGroup(t92, 2, 1),
        "gsp4f3": lambda: SympGroup(t92, 2, 1, similitude=True),
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
