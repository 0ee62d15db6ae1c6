"""Deterministic text formats.

Matrix file (UTF-8; lines end at ``\\n``, and a ``\\r`` before it is dropped;
tokens are separated by ASCII spaces or tabs, and any other whitespace
outside a comment is an error; ``#`` starts a comment)::

    field gf 2        # or: field q
    dims 2 2
    1 0
    0 1

Rows are the vectors of the sequence.  A row holds exactly ``cols``
literals separated by spaces or tabs.  Over GF(p) a literal is an ASCII
signed integer, ``[+-]?[0-9]+``, read mod p; over Q it may add an ASCII
unsigned, non-zero denominator, ``[+-]?[0-9]+(/[0-9]+)?``.  Nothing else
is a literal: no ``_``, no non-ASCII digit, no second sign, and no
integer past ``int()``'s digit limit.

Certificate file::

    certificate
    field gf 2
    ambient 2
    length 2
    e
    <length rows of ambient entries>
    f
    <length rows>
    C
    <length rows of length entries>
    end

A trace file holds one ``level k`` block per induction level with the
same ``e``/``f``/``C`` sections plus one ``witness`` line per restriction
applied at that level.  The annihilating maps are determined by the
level's frames and are not serialized.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .core import Matrix, VecSequence, Vector
from .field import Field, GF, QQ
from .lemma import InclusionCertificate, ProofTrace
from .spans import Frame, NotAFrameError


class FormatError(ValueError):
    """Malformed input file; message carries a line diagnostic."""


# ``int()`` alone would also take "1_0", non-ASCII digits and inner spaces
_INT = re.compile(r"[+-]?[0-9]+", re.ASCII)
# Whitespace other than a space, a tab or the "\n" that ends a line.  It is
# rejected rather than read as a line break or a separator, so that
# ``str.split()`` splits tokens on runs of spaces and tabs alone.  Scanning an
# ASCII text for the ASCII members is much faster than the regex.
_OTHER_SPACE = re.compile(r"[^\S \t\n]")
_OTHER_ASCII_SPACE = [c for c in map(chr, range(128)) if _OTHER_SPACE.match(c)]
# A whole data row of GF(p) literals, or of Q literals, separated by spaces
# or tabs.  A row that matches is converted in bulk; any other row goes
# token by token through ``Field.parse_value``, which names the bad token.
_GF_ROW = re.compile(r"[+-]?[0-9]+(?:[ \t]+[+-]?[0-9]+)*", re.ASCII)
_Q_ROW = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?(?:[ \t]+[+-]?[0-9]+(?:/[0-9]+)?)*", re.ASCII)


def _header_int(lineno: int, token: str, line: str) -> int:
    """An ASCII signed integer from a header line."""
    if _INT.fullmatch(token) is None:
        raise FormatError(f"line {lineno}: non-integer {token!r} in {line!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise FormatError(f"line {lineno}: {len(token)}-digit integer in a header line") from None


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """Numbered non-blank lines without comments, split at ``\\n`` and
    ``\\r\\n``; any other whitespace outside comments is an error."""
    text = text.replace("\r\n", "\n")
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if line:
            out.append((lineno, line))
    if text.isascii() and not any(c in text for c in _OTHER_ASCII_SPACE):
        return out
    for lineno, line in out:
        bad = _OTHER_SPACE.search(line)
        if bad is not None:
            raise FormatError(f"line {lineno}: separator {bad.group()!r} is not a space or tab")
    return out


def _parse_field_line(lineno: int, line: str) -> Field:
    parts = line.split()
    if parts[:1] != ["field"]:
        raise FormatError(f"line {lineno}: expected 'field ...', got {line!r}")
    if parts[1:] == ["q"]:
        return QQ
    if len(parts) == 3 and parts[1] == "gf":
        p = _header_int(lineno, parts[2], line)
        try:
            return GF(p)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    raise FormatError(f"line {lineno}: expected 'field gf <p>' or 'field q', got {line!r}")


def _fraction(token: str) -> Fraction:
    num, _, den = token.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _parse_row(field: Field, lineno: int, line: str, width: int) -> tuple:
    toks = line.split()
    if len(toks) != width:
        raise FormatError(f"line {lineno}: expected {width} entries, got {len(toks)}")
    p = field.modulus
    try:
        if p is not None and _GF_ROW.fullmatch(line):
            return tuple([int(t) % p for t in toks])
        if p is None and _Q_ROW.fullmatch(line):
            return tuple(map(_fraction, toks))
    except (ValueError, ZeroDivisionError):
        pass  # a literal past int()'s digit limit, or a zero denominator
    try:
        return tuple(map(field.parse_value, toks))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def parse_matrix_text(text: str) -> VecSequence:
    lines = _logical_lines(text)
    if len(lines) < 2:
        raise FormatError("file must start with 'field' and 'dims' lines")
    field = _parse_field_line(*lines[0])
    lineno, dims_line = lines[1]
    parts = dims_line.split()
    if len(parts) != 3 or parts[0] != "dims":
        raise FormatError(f"line {lineno}: expected 'dims <rows> <cols>', got {dims_line!r}")
    rows, cols = (_header_int(lineno, t, dims_line) for t in parts[1:])
    if rows < 0 or cols < 0:
        raise FormatError(f"line {lineno}: negative dimensions")
    data = lines[2:]
    if cols == 0 and not data and rows <= len(text):
        # rows of F^0 are blank lines, which are skipped, so the dims line
        # alone gives them; a file holds at most one per character
        data = [(lineno, "")] * rows
    if len(data) != rows:
        raise FormatError(f"dims declare {rows} rows but file has {len(data)} data lines")
    vecs = tuple(Vector(field, _parse_row(field, ln, line, cols)) for ln, line in data)
    return VecSequence(field, cols, vecs)


def _read(path: str) -> str:
    """The file's text with its line endings untranslated (``newline=""``),
    so that only ``\\n`` and ``\\r\\n`` end a line."""
    if not path:
        raise FormatError("empty file path")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None


def parse_matrix_file(path: str) -> VecSequence:
    return parse_matrix_text(_read(path))


def render_field(field: Field) -> str:
    return "field q" if field.modulus is None else f"field gf {field.modulus}"


def render_sequence(seq: VecSequence) -> str:
    lines = [render_field(seq.field), f"dims {len(seq)} {seq.ambient_dim}"]
    lines += _rows(v.values for v in seq)
    return "\n".join(lines) + "\n"


def _rows(rows) -> List[str]:
    return [" ".join(map(str, row)) for row in rows]


def render_certificate(cert: InclusionCertificate) -> str:
    lines = [
        "certificate",
        render_field(cert.e.field),
        f"ambient {cert.e.ambient_dim}",
        f"length {len(cert.e)}",
        "e",
        *_rows(v.values for v in cert.e),
        "f",
        *_rows(v.values for v in cert.f),
        "C",
        *_rows(cert.coefficient_matrix.values),
        "end",
    ]
    return "\n".join(lines) + "\n"


def parse_certificate_text(text: str) -> InclusionCertificate:
    lines = _logical_lines(text)
    if not lines or lines[0][1] != "certificate":
        raise FormatError("expected a 'certificate' header line")
    if len(lines) < 4:
        raise FormatError("truncated certificate")
    field = _parse_field_line(*lines[1])

    def keyed_int(idx: int, key: str) -> int:
        lineno, line = lines[idx]
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"line {lineno}: expected '{key} <int>', got {line!r}")
        value = _header_int(lineno, parts[1], line)
        if value < 0:
            raise FormatError(f"line {lineno}: negative {key} in {line!r}")
        return value

    ambient = keyed_int(2, "ambient")
    length = keyed_int(3, "length")
    expected = 4 + 3 * (length + 1) + 1
    if len(lines) != expected:
        raise FormatError(f"certificate should have {expected} logical lines, found {len(lines)}")
    pos = 4

    def section(name: str, width: int) -> List[tuple]:
        nonlocal pos
        lineno, line = lines[pos]
        if line != name:
            raise FormatError(f"line {lineno}: expected section {name!r}, got {line!r}")
        pos += 1
        rows = []
        for _ in range(length):
            lineno, line = lines[pos]
            rows.append(_parse_row(field, lineno, line, width))
            pos += 1
        return rows

    def frame(name: str, rows: List[tuple]) -> Frame:
        try:
            return Frame(VecSequence(field, ambient, tuple(Vector(field, row) for row in rows)))
        except NotAFrameError:
            raise FormatError(f"certificate section {name!r} is linearly dependent") from None

    e_rows = section("e", ambient)
    f_rows = section("f", ambient)
    c_rows = section("C", length)
    if lines[pos][1] != "end":
        raise FormatError(f"line {lines[pos][0]}: expected 'end'")
    e = frame("e", e_rows)
    f = frame("f", f_rows)
    c = Matrix(field, length, length, tuple(c_rows))
    return InclusionCertificate(e, f, c)


def parse_certificate_file(path: str) -> InclusionCertificate:
    return parse_certificate_text(_read(path))


def render_trace(trace: ProofTrace) -> str:
    first = trace.levels[0]
    lines = [
        "trace",
        render_field(first.e.field),
        f"ambient {first.e.ambient_dim}",
        f"length {trace.levels[-1].rank}",
    ]
    for level in trace.levels:
        lines.append(f"level {level.rank}")
        lines.append("e")
        lines += _rows(v.values for v in level.e)
        lines.append("f")
        lines += _rows(v.values for v in level.f)
        lines += ["witness " + row for row in _rows(w.values for w in level.witnesses)]
        lines.append("C")
        lines += _rows(level.coefficient_matrix.values)
    lines.append("end")
    return "\n".join(lines) + "\n"
