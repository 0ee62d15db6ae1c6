"""Where containers are validated.

A ``VecSequence`` checks its shape once, when it is built, and a solve
checks its targets once, against the sequence it solves in; every public
entry point that takes a target vector reports a vector from another field
or of another length with the same error."""

import dataclasses

import pytest

from exactspan import (
    GF,
    QQ,
    FieldMismatchError,
    Frame,
    apply_map,
    build_annihilating_map,
    coordinates,
    matrix,
    member,
    sequence,
    solve_in_span,
    span_of,
    vector,
)
from exactspan.core import solve_many

GF5 = GF(5)
SEQ = sequence(GF5, [[1, 0, 2], [0, 1, 3]])


def test_sequence_rejects_rows_of_unequal_width():
    for field in (GF(2), GF5, QQ):
        with pytest.raises(FieldMismatchError):
            sequence(field, [[1, 0], [1, 0, 1]])
        with pytest.raises(FieldMismatchError):
            sequence(field, [[1, 0, 1], [1, 0]])


def test_sequence_built_directly_checks_its_shape():
    seq = sequence(GF5, [[1, 0], [0, 1]])
    for dim in (0, 1, 3):
        with pytest.raises(FieldMismatchError):
            dataclasses.replace(seq, ambient_dim=dim)
    assert dataclasses.replace(seq, ambient_dim=2) == seq


def test_given_sizes_must_match_the_rows():
    """A size the caller gives is checked against the rows, not replaced
    by their width."""
    with pytest.raises(ValueError):
        sequence(GF(2), [[1, 0]], ambient_dim=3)
    with pytest.raises(ValueError):
        matrix(GF(2), [[1, 0]], cols=3)
    assert sequence(GF(2), [[1, 0]], ambient_dim=2) == sequence(GF(2), [[1, 0]])
    assert matrix(GF(2), [[1, 0]], cols=2) == matrix(GF(2), [[1, 0]])
    assert sequence(GF(2), [], ambient_dim=3).ambient_dim == 3
    assert matrix(GF(2), [], cols=3).cols == 3


def _entry_points():
    frame = Frame(SEQ)
    lmap = build_annihilating_map(frame, frame, 0)
    return {
        "solve_many": lambda x: solve_many(SEQ, (x,)),
        "solve_in_span": lambda x: solve_in_span(SEQ, x),
        "member": lambda x: member(span_of(SEQ), x),
        "coordinates": lambda x: coordinates(frame, x),
        "contains": lambda x: span_of(SEQ).contains(x),
        "contains_seq": lambda x: span_of(SEQ).contains_seq(sequence(x.field, [x.values])),
        "apply_map": lambda x: apply_map(lmap, x),
    }


ENTRY_POINTS = sorted(_entry_points())


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_target_from_another_field(name):
    call = _entry_points()[name]
    for field in (GF(3), QQ):
        with pytest.raises(FieldMismatchError, match="^target field mismatch$"):
            call(vector(field, [1, 0, 2]))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_target_of_another_width(name):
    call = _entry_points()[name]
    for entries in ([1, 0], [1, 0, 2, 0]):
        with pytest.raises(ValueError, match="^target ambient dimension mismatch$") as info:
            call(vector(GF5, entries))
        assert type(info.value) is ValueError
