import pytest

from exactspan import GF, QQ, sequence, vector
from exactspan.textio import (
    FormatError,
    parse_certificate_text,
    parse_matrix_text,
    render_sequence,
)


def test_parse_gf2_standard():
    seq = parse_matrix_text("field gf 2\ndims 2 2\n1 0\n0 1\n")
    assert seq.field == GF(2)
    assert list(seq) == [vector(GF(2), [1, 0]), vector(GF(2), [0, 1])]


def test_parse_rational_row():
    seq = parse_matrix_text("field q\ndims 1 2\n1/2 -3\n")
    assert list(seq) == [vector(QQ, ["1/2", -3])]


def test_parse_comments_and_blank_lines():
    text = "# header comment\nfield gf 3\n\ndims 1 2  # trailing\n1 2\n"
    seq = parse_matrix_text(text)
    assert list(seq) == [vector(GF(3), [1, 2])]


def test_parse_empty_sequence():
    seq = parse_matrix_text("field q\ndims 0 3\n")
    assert len(seq) == 0 and seq.ambient_dim == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dims 1 1\n1\n", "field"),
        ("field gf 2\n1 0\n", "dims"),
        ("field gf 2\ndims 2 2\n1 0\n", "2 rows"),
        ("field gf 2\ndims 1 2\n1 0 1\n", "expected 2 entries"),
        ("field gf 2\ndims 1 2\n1 x\n", "line 3"),
        ("field gf 4\ndims 1 1\n1\n", "prime"),
        ("field gf 2\ndims 1 1\n1/2\n", "line 3"),
    ],
)
def test_parse_diagnostics(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_matrix_text(text)
    assert fragment in str(exc.value)


def test_render_parse_round_trip():
    seq = sequence(QQ, [["1/2", -3], [0, "7/5"]])
    assert parse_matrix_text(render_sequence(seq)) == seq


@pytest.mark.parametrize(
    "sizes",
    ["ambient -3\nlength 0", "ambient 2\nlength -1", "ambient -1\nlength -1"],
)
def test_certificate_rejects_negative_sizes(sizes):
    with pytest.raises(FormatError, match="negative"):
        parse_certificate_text(f"certificate\nfield gf 2\n{sizes}\ne\nf\nC\nend\n")


@pytest.mark.parametrize(
    "text",
    [
        "field gf 1_1\ndims 1 1\n1\n",
        "field gf ١١\ndims 1 1\n1\n",
        "field gf 0x7\ndims 1 1\n1\n",
        "field q\ndims ١ 2\n1 0\n",
        "field q\ndims 1 2_0\n1 0\n",
        "field q\ndims 1 ２\n1 0\n",
        "field q\ndims 1.0 2\n1 0\n",
    ],
    ids=["gf_underscore", "gf_arabic_indic", "gf_hex", "dims_arabic_indic", "dims_underscore",
         "dims_fullwidth", "dims_decimal_point"],
)
def test_matrix_header_integers_are_ascii(text):
    with pytest.raises(FormatError, match="non-integer"):
        parse_matrix_text(text)


@pytest.mark.parametrize(
    "field,sizes",
    [("gf 2", "ambient 0_0\nlength 0"), ("gf 2", "ambient 0\nlength ٠"),
     ("gf 1_1", "ambient 0\nlength 0"), ("gf 2", "ambient +0\nlength 0x0")],
    ids=["ambient_underscore", "length_arabic_indic", "field_underscore", "length_hex"],
)
def test_certificate_header_integers_are_ascii(field, sizes):
    with pytest.raises(FormatError, match="non-integer"):
        parse_certificate_text(f"certificate\nfield {field}\n{sizes}\ne\nf\nC\nend\n")


def test_signed_ascii_header_integers_still_parse():
    assert parse_matrix_text("field gf +2\ndims +1 +2\n1 0\n") == sequence(GF(2), [[1, 0]])
    with pytest.raises(FormatError, match="negative dimensions"):
        parse_matrix_text("field q\ndims -1 2\n")
    with pytest.raises(FormatError, match="modulus"):
        parse_matrix_text("field gf -3\ndims 0 1\n")
