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


# -- interning ---------------------------------------------------------------

import copy  # noqa: E402
import pickle  # noqa: E402

from exactspan import Scalar, matrix  # noqa: E402
from exactspan import field as field_module  # noqa: E402


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
def test_prime_fields_are_interned(p):
    assert GF(p) is GF(p)
    assert Field(p) is GF(p)
    assert GF(p) == GF(p) and hash(GF(p)) == hash(GF(p))


def test_rationals_are_interned():
    assert Field(None) is QQ
    assert Field() is QQ
    assert QQ != GF(2) and GF(2) != GF(3)


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=["gf2", "gf7", "q"])
def test_copies_and_pickles_return_the_interned_field(field):
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    assert pickle.loads(pickle.dumps(field)) is field
    s = field.scalar(3)
    for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and clone.field is field


def test_fields_are_immutable():
    with pytest.raises(AttributeError):
        GF(5).modulus = 7
    with pytest.raises(AttributeError):
        del QQ.modulus
    assert GF(5).modulus == 5 and QQ.modulus is None


@pytest.mark.parametrize("bad", [0, 1, 4, 6, -3, 2**31, 2**31 + 11])
def test_invalid_moduli_raise_every_time_and_are_never_cached(bad):
    for _ in range(2):
        with pytest.raises(ValueError):
            Field(bad)
    assert bad not in field_module._FIELDS


@pytest.mark.parametrize("bad", [2.0, "5", True])
def test_non_int_moduli_are_rejected(bad):
    GF(2)
    with pytest.raises(ValueError, match="must be an int"):
        Field(bad)


def test_matrix_rejects_a_scalar_from_another_field():
    with pytest.raises(FieldMismatchError):
        matrix(GF(3), [[GF(5).one]])
    with pytest.raises(FieldMismatchError):
        matrix(QQ, [[1, GF(2).one]])


@pytest.mark.parametrize(
    "field,value,raw",
    [(GF(5), 7, 2), (GF(5), -3, 2), (GF(5), Fraction(8), 3), (GF(5), "-1", 4),
     (GF(5), GF(5).scalar(4), 4),
     (QQ, 3, Fraction(3)), (QQ, Fraction(-6, 4), Fraction(-3, 2)), (QQ, "2/4", Fraction(1, 2)),
     (QQ, QQ.scalar(Fraction(1, 3)), Fraction(1, 3))],
)
def test_canon_gives_the_raw_canonical_value(field, value, raw):
    got = field.canon(value)
    assert got == raw and type(got) is type(raw)
    assert field.scalar(value) == Scalar(field, raw)


def test_canon_rejects_foreign_and_fractional_values():
    with pytest.raises(FieldMismatchError):
        GF(3).canon(GF(5).one)
    with pytest.raises(FieldMismatchError):
        QQ.canon(GF(2).one)
    with pytest.raises(ValueError, match="fractional"):
        GF(5).canon(Fraction(1, 2))
    with pytest.raises(ScalarParseError):
        GF(5).canon("1/2")
