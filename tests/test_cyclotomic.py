import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilbc.cyclotomic import CycNum, gauss_sum
from weilbc.errors import DivisionByZero
from weilbc.fieldtower import build_tower


def cyc(p):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.builds(lambda *cs: CycNum(p, cs), *[coeff] * (p - 1))


def test_square_of_one_plus_two_zeta():
    a = CycNum(3, (1, 2))
    assert a * a == CycNum.rational(3, -3)


def test_conj_of_zeta_is_zeta_squared():
    z = CycNum.root_of_unity(3, 1)
    assert z.conj() == CycNum.root_of_unity(3, 2)


@pytest.mark.parametrize("p", [3, 5])
def test_inverse_of_root_of_unity(p):
    z = CycNum.root_of_unity(p, 1)
    assert z.inverse() == CycNum.root_of_unity(p, p - 1)


@pytest.mark.parametrize("p", [3, 5])
def test_random_inverses(p):
    rng = random.Random(99)
    count = 0
    while count < 1000:
        a = CycNum(p, tuple(rng.randrange(-6, 7) for _ in range(p - 1)), rng.randrange(1, 5))
        if a.is_zero():
            continue
        count += 1
        assert a * a.inverse() == CycNum.one(p)


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        CycNum.zero(3).inverse()
    with pytest.raises(DivisionByZero):
        CycNum.one(3) / CycNum.zero(3)


@settings(max_examples=150, deadline=None)
@given(cyc(5), cyc(5))
def test_conj_is_ring_automorphism(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@settings(max_examples=150, deadline=None)
@given(cyc(5), cyc(5), cyc(5))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + (b + c) == (a + b) + c


def test_norm_positive_numerically():
    rng = random.Random(5)
    for _ in range(50):
        a = CycNum(5, tuple(rng.randrange(-6, 7) for _ in range(4)), rng.randrange(1, 4))
        val = (a.conj() * a).to_complex()
        assert val.real >= -1e-12 and abs(val.imag) < 1e-9


def test_gauss_sum_values():
    t3 = build_tower(3, 1, 2)
    assert gauss_sum(t3, 1) == CycNum(3, (1, 2))
    assert gauss_sum(t3, 2) == CycNum.rational(3, 3)
    t5 = build_tower(5, 1, 2)
    # 1 + 2ζ + 2ζ^4 in the reduced basis
    z = CycNum.root_of_unity
    assert gauss_sum(t5, 1) == CycNum.one(5) + 2 * z(5, 1) + 2 * z(5, 4)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 4)])
def test_gauss_square_identity(p, m):
    t = build_tower(p, 1, m)
    for d in t.levels():
        G = gauss_sum(t, d)
        eps = t.quad_char(t.from_int(p - 1), d)
        assert G * G == CycNum.rational(p, eps * t.q**d)


@pytest.mark.parametrize("p", [3, 5])
def test_hasse_davenport(p):
    t = build_tower(p, 1, 2)
    assert gauss_sum(t, 2) == -(gauss_sum(t, 1) * gauss_sum(t, 1))


def test_to_complex_examples():
    z = CycNum.root_of_unity(3, 1).to_complex()
    assert abs(z - complex(-0.5, 0.8660254037844386)) < 1e-12
    w = CycNum(3, (1, 2)).to_complex()
    assert abs(w - complex(0, 3**0.5)) < 1e-12
    assert CycNum.rational(3, 3).to_complex() == 3


def test_text_roundtrip():
    a = CycNum(5, (1, -2, 0, 7), 6)
    assert CycNum.from_text(5, a.to_text()) == a
    assert CycNum.from_text(3, "1/1,2/1") == CycNum(3, (1, 2))


def test_rational_embedding_and_fraction():
    a = CycNum.rational(3, 4, 6)
    assert a.num == (2, 0) and a.den == 3
    assert a.as_fraction() == Fraction(2, 3)
    assert a.is_rational()


def test_galois_orbit_sums_to_rational():
    a = CycNum(5, (0, 1, 0, 0))
    total = CycNum.zero(5)
    for k in range(1, 5):
        total = total + a.galois(k)
    assert total == CycNum.rational(5, -1)

