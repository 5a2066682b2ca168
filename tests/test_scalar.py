"""Scalar field, conjugation, and the token grammar."""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginv import (
    GaussianRational,
    ParseError,
    scalar_format,
    scalar_parse,
)

GR = GaussianRational


def rationals():
    return st.builds(F, st.integers(-9, 9), st.integers(1, 9))


def scalars():
    return st.builds(GR, rationals(), rationals())


class TestArithmetic:
    def test_mul_conjugate_pair(self):
        assert GR(1, 1) * GR(1, -1) == GR(2)

    def test_add_forces_reduction(self):
        z = GR(F(1, 9)) + GR(F(2, 9))
        assert z == GR(F(1, 3))
        assert z.re.denominator == 3

    def test_div(self):
        assert GR(1) / GR(1, 1) == GR(F(1, 2), F(-1, 2))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR(1) / GR(0)

    @given(scalars(), scalars(), scalars())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GR(0)
        if a:
            assert a * (GR(1) / a) == GR(1)

    @given(scalars(), scalars())
    def test_sub_div_roundtrip(self, a, b):
        assert (a - b) + b == a
        if b:
            assert (a / b) * b == a


class TestConstruction:
    @pytest.mark.parametrize("part", [0.1, "1/2", Decimal("0.5"), 1j, None], ids=repr)
    def test_refuses_a_non_rational_part(self, part):
        with pytest.raises(TypeError):
            GR(part)
        with pytest.raises(TypeError):
            GR(0, part)

    @pytest.mark.parametrize("part", [3, True, F(-2, 3)], ids=repr)
    def test_accepts_int_bool_and_fraction(self, part):
        assert GR(part, part) == GR(F(part), F(part))

    def test_hash_agrees_with_equality(self):
        assert len({GR(1), 1, F(1)}) == 1
        assert {F(1, 2): "half"}[GR(F(1, 2))] == "half"
        assert hash(GR(1, 1)) == hash(GR(F(2, 2), F(3, 3)))


class TestConjugation:
    def test_examples(self):
        assert GR(1, 1).conjugate() == GR(1, -1)
        assert GR(5).conjugate() == GR(5)
        assert GR(0, F(-2, 3)).conjugate() == GR(0, F(2, 3))

    @given(scalars(), scalars())
    def test_ring_morphism(self, z, w):
        assert z.conjugate().conjugate() == z
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()
        assert (z + w).conjugate() == z.conjugate() + w.conjugate()

    @given(st.lists(scalars(), min_size=1, max_size=6))
    def test_norm_positivity(self, zs):
        # sum of conj(z)*z vanishes only when every term does
        total = GR(0)
        for z in zs:
            total = total + z.conjugate() * z
        assert total.im == 0 and total.re >= 0
        if any(zs):
            assert total.re > 0
        else:
            assert total == GR(0)


class TestGrammar:
    @pytest.mark.parametrize(
        "token, value",
        [
            ("0", GR(0)),
            ("5", GR(5)),
            ("-2", GR(-2)),
            ("1/9", GR(F(1, 9))),
            ("-1/2", GR(F(-1, 2))),
            ("1i", GR(0, 1)),
            ("-1i", GR(0, -1)),
            ("2/3i", GR(0, F(2, 3))),
            ("-2/3i", GR(0, F(-2, 3))),
            ("1-1i", GR(1, -1)),
            ("1+1i", GR(1, 1)),
            ("-1/2-1/2i", GR(F(-1, 2), F(-1, 2))),
            ("i", GR(0, 1)),
            ("-i", GR(0, -1)),
            ("01", GR(1)),
            ("2/4", GR(F(1, 2))),
            ("0i", GR(0)),
        ],
    )
    def test_parse(self, token, value):
        assert scalar_parse(token) == value

    @pytest.mark.parametrize(
        "token, offset",
        [
            ("1+j", 2),
            ("", 0),
            ("j", 0),
            ("+1", 0),
            ("1.5", 1),
            ("1 + 1i", 1),
            ("1+", 2),
            ("1+i", 2),  # explicit coefficient is required after a sign
            ("1/0", 2),
            ("1i+1", 2),
            ("1+1i2", 4),
            ("--1", 1),
            ("1/", 2),
        ],
    )
    def test_parse_errors_carry_offsets(self, token, offset):
        with pytest.raises(ParseError) as err:
            scalar_parse(token)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "value, token",
        [
            (GR(F(1, 9)), "1/9"),
            (GR(1, 1), "1+1i"),
            (GR(0), "0"),
            (GR(0, F(-2, 3)), "-2/3i"),
            (GR(0, 1), "1i"),
            (GR(-2, F(1, 2)), "-2+1/2i"),
            (GR(F(3, 6)), "1/2"),
        ],
    )
    def test_format(self, value, token):
        assert scalar_format(value) == token

    @given(scalars())
    def test_parse_of_format_is_identity(self, z):
        assert scalar_parse(scalar_format(z)) == z

    @pytest.mark.parametrize(
        "token",
        ["0", "5", "-2", "1/9", "1i", "-2/3i", "1+1i", "1-1i", "-1/2-1/2i", "3+2/7i"],
    )
    def test_format_of_parse_on_canonical_tokens(self, token):
        assert scalar_format(scalar_parse(token)) == token
