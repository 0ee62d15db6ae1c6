import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactspan import GF, QQ, sequence, vector
from exactspan.textio import (
    FormatError,
    _parse_row,
    parse_certificate_text,
    parse_matrix_text,
    render_field,
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


# -- separators: lines end at "\n" (optionally "\r\n"), tokens are separated
# by ASCII spaces and tabs only

@pytest.mark.parametrize(
    "text,lineno",
    [
        ("field gf 2\x1cdims 1 2\x1c1 0", 1),
        ("field gf 2\x85dims 1 2\n1 0\n", 1),
        ("field gf 2\ndims 1 2\n1\u2028" "0\n", 3),
        ("field gf 2\ndims 1 2\n1\xa00\n", 3),
        ("field gf 2\ndims\xa01 2\n1 0\n", 2),
        ("field gf 2\ndims 1 2\n1\u3000" "0\n", 3),
        ("field gf 2\ndims 1 2\n1 0\x0b\n", 3),
        ("field gf 2\ndims 1 2\n1 0\r\r\n", 3),
        ("field gf 2\rdims 1 2\r1 0\r", 1),
    ],
    ids=["file_separator", "next_line", "line_separator", "nbsp", "nbsp_header",
         "ideographic_space", "vertical_tab", "double_cr", "bare_cr"],
)
def test_other_separators_are_rejected_with_line_number(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: separator "):
        parse_matrix_text(text)


def test_other_separator_in_certificate_is_rejected():
    text = "certificate\nfield gf 2\nambient\xa00\nlength 0\ne\nf\nC\nend\n"
    with pytest.raises(FormatError, match="^line 3: separator"):
        parse_certificate_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "field gf 3\r\ndims 1 2\r\n1 2\r\n",
        "field gf 3\ndims\t1 2\n1\t \t2\n",
        " \tfield gf 3 \ndims 1 2\t\n\t1 2 # comment with a\xa0no-break space\n",
    ],
    ids=["crlf", "tabs", "padding_and_comment"],
)
def test_crlf_tabs_and_comments_still_parse(text):
    assert parse_matrix_text(text) == sequence(GF(3), [[1, 2]])


def test_over_long_header_integer_is_a_format_error():
    with pytest.raises(FormatError, match="^line 2: "):
        parse_matrix_text("field q\ndims 1 " + "9" * 5000 + "\n1\n")


def test_dependent_certificate_frame_is_a_format_error():
    text = "certificate\nfield q\nambient 2\nlength 2\ne\n1 0\n2 0\nf\n1 0\n0 1\nC\n1 0\n0 1\nend\n"
    with pytest.raises(FormatError, match="'e' is linearly dependent"):
        parse_certificate_text(text)


@pytest.mark.parametrize("text", ["field gf 2\ndims 2 0\n", "field gf 2\ndims 2 0\n\n\n",
                                  "field gf 2\ndims 2 0  # two vectors of F^0\n# none\n"])
def test_vectors_of_f0_come_from_the_dims_line(text):
    assert parse_matrix_text(text) == sequence(GF(2), [[], []])


def test_sequence_in_f0_round_trips():
    seq = sequence(QQ, [[], [], []])
    assert render_sequence(seq) == "field q\ndims 3 0\n\n\n\n"
    assert parse_matrix_text(render_sequence(seq)) == seq


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("field gf 2\ndims 2 0\n1\n0\n", "line 3: expected 0 entries, got 1"),
        ("field gf 2\ndims 1 0\n0 0\n", "line 3: expected 0 entries, got 2"),
        ("field gf 2\ndims 2 0\n1\n", "2 rows but file has 1"),
        ("field gf 2\ndims 99999999999 0\n", "99999999999 rows but file has 0"),
    ],
    ids=["tokens", "two_tokens", "count", "beyond_file_size"],
)
def test_f0_rows_with_tokens_or_beyond_the_file_are_rejected(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_matrix_text(text)
    assert fragment in str(exc.value)


# -- properties --------------------------------------------------------------

_FIELDS = [GF(2), GF(3), GF(5), GF(65521), QQ]


@st.composite
def sequences(draw):
    """Sequences of 0-5 vectors in F^0-F^5."""
    field = draw(st.sampled_from(_FIELDS))
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(0, 5))
    if field is QQ:
        height = draw(st.sampled_from([9, 2**20]))
        entry = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    else:
        entry = st.integers(0, field.modulus - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    return sequence(field, rows, ambient_dim=n_cols)


@st.composite
def certificate_texts(draw):
    """Certificate files with consistent section sizes and small entries;
    the frames may be dependent and the entries foreign to the field."""
    field = draw(st.sampled_from(_FIELDS))
    ambient, length = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    literal = st.sampled_from(["0", "1", "-1", "2", "3", "1/2"])

    def rows(width):
        return [" ".join(draw(st.lists(literal, min_size=width, max_size=width)))
                for _ in range(length)]

    lines = ["certificate", render_field(field), f"ambient {ambient}", f"length {length}",
             "e", *rows(ambient), "f", *rows(ambient), "C", *rows(length), "end"]
    return "\n".join(lines) + "\n"


# Words and separators of the formats, and spellings the parsers must reject
_WORDS = ["field", "gf", "q", "dims", "certificate", "ambient", "length", "e", "f", "C",
          "end", "#", "0", "1", "-1", "2", "4", "1/2", "-7/3", "1/0", "x", "65521", "1_0",
          "\u0661", "-3", "99999999999999999999", "9" * 5000]
_SEPS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\x1c", "\x85", "\xa0", "\u2028", "\x0b", ""]


@st.composite
def near_format_text(draw):
    parts = draw(st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPS)), max_size=40))
    return "".join(w + s for w, s in parts)


@st.composite
def mutated_files(draw):
    """A matrix or certificate file with up to three of its tokens or
    separators replaced by a word or separator from the lists above."""
    text = draw(st.one_of(sequences().map(render_sequence), certificate_texts()))
    pieces = re.split(r"([ \n])", text)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = draw(st.sampled_from(_WORDS + _SEPS))
    return "".join(pieces)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), near_format_text(), mutated_files()))
def test_parsers_raise_only_format_error(text):
    for parse in (parse_matrix_text, parse_certificate_text):
        try:
            parse(text)
        except FormatError:
            pass


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_render_parse_round_trip_property(seq):
    text = render_sequence(seq)
    assert parse_matrix_text(text) == seq
    assert render_sequence(parse_matrix_text(text)) == text


# Row tokens: signs, leading zeros, signed zeros, fractions (a zero
# denominator, and in GF(p) any), and spellings int() alone would accept
_ROW_TOKENS = ["0", "1", "-1", "+1", "+0", "-0", "007", "-007", "65520", "65521", "-65522",
               "1/2", "-7/3", "+4/6", "0/5", "1/0", "-0/1", "1_0", "\u0661", "+-1", "--1",
               "1/-2", "1/+2", "1/", "/2", "1.5", "x", "9" * 4300, "1" * 4301, "1" * 4301 + "/2",
               "2/" + "3" * 4301]
_ROW_SEPS = [" ", "\t", "  ", " \t "]


def _reference_row(field, lineno, line, width):
    """``_parse_row`` as one ``Field.parse_value`` call per token."""
    toks = line.split()
    if len(toks) != width:
        raise FormatError(f"line {lineno}: expected {width} entries, got {len(toks)}")
    try:
        return tuple(field.parse_value(t) for t in toks)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


@st.composite
def rows(draw):
    """Literals of the field with at most one token from the list above
    among them, and now and then a wrong width or a leading separator."""
    field = draw(st.sampled_from(_FIELDS))
    literal = st.integers(-10**30, 10**30).map(str)
    if field is QQ:
        literal = st.one_of(literal, st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 99)))
    toks = draw(st.lists(literal, max_size=6))
    if draw(st.booleans()):
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_ROW_TOKENS)))
    line = "".join(t + draw(st.sampled_from(_ROW_SEPS)) for t in toks).strip(" \t")
    if draw(st.integers(0, 9)) == 0:
        line = draw(st.sampled_from(_ROW_SEPS)) + line
    width = draw(st.integers(0, 7)) if draw(st.integers(0, 9)) == 0 else len(toks)
    return field, line, width


@settings(max_examples=500, deadline=None)
@given(rows())
@example((QQ, "1/2\t-0 1/0", 3))
@example((GF(5), "+0 1/2", 2))
@example((GF(65521), "-1 " + "1" * 4301, 2))
@example((QQ, "2/" + "3" * 4301, 1))
def test_row_parse_matches_per_token_parse(case):
    field, line, width = case
    try:
        want = _reference_row(field, 7, line, width)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _parse_row(field, 7, line, width)
        assert str(got.value) == str(exc)
    else:
        got = _parse_row(field, 7, line, width)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
