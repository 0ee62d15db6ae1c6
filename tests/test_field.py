import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from exactspan import GF, QQ, Field, FieldMismatchError, ScalarParseError


def test_parse_gf_reduces():
    assert GF(5).parse("7").value == 2


def test_parse_negative_gf():
    assert GF(5).parse("-3").value == 2


def test_parse_rational_lowest_terms():
    s = QQ.parse("-3/6")
    assert s.value == Fraction(-1, 2)
    assert str(s) == "-1/2"


def test_parse_zero_denominator():
    with pytest.raises(ScalarParseError):
        QQ.parse("1/0")


def test_parse_fraction_in_prime_field():
    with pytest.raises(ScalarParseError):
        GF(5).parse("1/2")


@pytest.mark.parametrize("text", ["", "abc", "1.5", "1/2/3"])
def test_parse_malformed(text):
    with pytest.raises(ScalarParseError):
        QQ.parse(text)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "gf5"])
@pytest.mark.parametrize(
    "text",
    ["1_0", "١٢", "１", " 1", "1 ", "1\n", "+", "-", "--1", "0x1", "1e3", "²"],
    ids=["underscore", "arabic_indic", "fullwidth", "lead_space", "trail_space", "newline",
         "plus", "minus", "double_sign", "hex", "exponent", "superscript"],
)
def test_parse_accepts_only_ascii_integers(field, text):
    with pytest.raises(ScalarParseError):
        field.parse(text)


@pytest.mark.parametrize(
    "text",
    ["1/ 2", "1 /2", "1/_2", "1/2_0", "1/-2", "1/+2", "١/2", "1/٢", "/2", "1/"],
)
def test_parse_rational_literal_strict(text):
    with pytest.raises(ScalarParseError):
        QQ.parse(text)


@pytest.mark.parametrize(
    "text,value",
    [("+3", Fraction(3)), ("-0", Fraction(0)), ("007", Fraction(7)), ("+6/4", Fraction(3, 2)),
     ("-06/004", Fraction(-3, 2)), ("12345678901234567890/3", Fraction(12345678901234567890, 3))],
)
def test_parse_accepts_ascii_forms(text, value):
    assert QQ.parse(text).value == value


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_modulus_bound():
    with pytest.raises(ValueError):
        Field(2**31 + 11)


def test_add_gf():
    f = GF(5)
    assert f.scalar(3) + f.scalar(4) == f.scalar(2)


def test_add_rationals():
    assert QQ.parse("1/2") + QQ.parse("1/3") == QQ.parse("5/6")


def test_mul_gf():
    f = GF(5)
    assert f.scalar(2) * f.scalar(3) == f.one


def test_mul_rationals():
    assert QQ.parse("2/3") * QQ.parse("3/4") == QQ.parse("1/2")


def test_inverse_gf():
    f = GF(5)
    assert f.scalar(2).inverse() == f.scalar(3)


def test_inverse_rational():
    assert QQ.parse("3/4").inverse() == QQ.parse("4/3")


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        GF(7).zero.inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        GF(2).one + GF(3).one
    with pytest.raises(FieldMismatchError):
        GF(2).one + QQ.one


def test_round_trip_render_parse():
    for text in ["0", "3", "-7", "1/2", "-5/9"]:
        s = QQ.parse(text)
        assert QQ.parse(str(s)) == s
    f = GF(13)
    for v in range(13):
        s = f.scalar(v)
        assert f.parse(str(s)) == s


_gf5 = GF(5)
_gf5_scalars = st.integers(0, 4).map(_gf5.scalar)
_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(QQ.scalar)


@given(a=_gf5_scalars, b=_gf5_scalars, c=_gf5_scalars)
def test_gf_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + _gf5.zero == a
    assert a * _gf5.one == a
    assert a + (-a) == _gf5.zero
    if a:
        assert a * a.inverse() == _gf5.one


@given(a=_rationals, b=_rationals, c=_rationals)
def test_rational_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a
    assert a * QQ.one == a
    if a:
        assert a * a.inverse() == QQ.one


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
def test_fermat_little(p):
    f = GF(p)
    for v in range(1, p):
        acc = f.one
        a = f.scalar(v)
        for _ in range(p - 1):
            acc = acc * a
        assert acc == f.one
