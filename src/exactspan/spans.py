"""Spans, frames, maximality, bases, dimension, coordinates and the
change-of-basis matrix pair.

A subspace keeps its generating sequence and builds the unique
reduced-echelon basis of their row space on first use, so subspace
equality is positional comparison of canonical bases and extension
choices are deterministic.  Its ``dim`` is a certified rank of the
generators until the basis exists: over Q that needs no reduced form (see
:func:`exactspan.core.rank_matrix`).  So ``dim`` followed by
``canonical_basis`` on a fresh subspace costs one elimination more than
the basis alone.  That is the cheaper side: the library never reads
``dim``, while the CLI ``dim`` and :func:`dimension` read nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from .core import (
    Matrix,
    VecSequence,
    Vector,
    mat_product,
    matrix_from_columns,
    matrix_from_rows,
    rank_matrix,
    reduced_form,
    solve_many,
    solve_raw,
)
from .field import Field, Scalar


class NotAFrameError(ValueError):
    """A sequence required to be linearly independent is dependent."""


class MaximalFrameError(ValueError):
    """No extension vector exists: the frame already spans the subspace."""


def rank_seq(seq: VecSequence) -> int:
    """Rank of a sequence: the maximal length of an independent subsequence,
    computed as matrix rank."""
    return rank_matrix(matrix_from_rows(seq))


def is_frame(seq: VecSequence) -> bool:
    """True iff ``seq`` is linearly independent.  A sequence in echelon
    form (each vector nonzero, leading positions strictly increasing) is
    independent, so a scan certifies canonical and standard bases without
    elimination; any other sequence is decided by its rank."""
    last = -1
    for v in seq:
        lead = next((j for j, x in enumerate(v.values) if x), last)
        if lead <= last:
            return rank_seq(seq) == len(seq)
        last = lead
    return True


@dataclass(frozen=True)
class Frame:
    """A linearly independent sequence; independence is validated once here."""

    seq: VecSequence

    def __post_init__(self) -> None:
        if not is_frame(self.seq):
            raise NotAFrameError("sequence is linearly dependent")

    @property
    def field(self) -> Field:
        return self.seq.field

    @property
    def ambient_dim(self) -> int:
        return self.seq.ambient_dim

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, j: int) -> Vector:
        return self.seq[j]

    def __iter__(self):
        return iter(self.seq)


@dataclass(frozen=True, eq=False)
class Subspace:
    """The span of ``generators``.  Its canonical basis, the unique
    reduced-echelon basis of their row space, is built on first use and kept;
    until then ``dim`` is the certified rank of the generators.  Equality,
    hashing and containment use the canonical basis."""

    field: Field
    ambient_dim: int
    generators: VecSequence

    @cached_property
    def canonical_basis(self) -> VecSequence:
        red = reduced_form(matrix_from_rows(self.generators))
        vecs = tuple(Vector(self.field, row) for row in red.matrix.values[: red.rank])
        return VecSequence(self.field, self.ambient_dim, vecs)

    @property
    def dim(self) -> int:
        basis = self.__dict__.get("canonical_basis")  # set by the first access
        return rank_seq(self.generators) if basis is None else len(basis)

    def contains(self, x: Vector) -> bool:
        return solve_raw(self.canonical_basis, (x,))[0] is not None

    def contains_seq(self, seq: VecSequence) -> bool:
        return all(c is not None for c in solve_raw(self.canonical_basis, tuple(seq)))

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_seq(self.canonical_basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.canonical_basis == other.canonical_basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.canonical_basis))


def span_of(seq: VecSequence) -> Subspace:
    """The minimal subspace containing every item of ``seq``; no elimination
    runs until its basis or dimension is read."""
    return Subspace(seq.field, seq.ambient_dim, seq)


def member(sub: Subspace, x: Vector) -> Optional[Tuple[Scalar, ...]]:
    """Coordinates of ``x`` relative to the canonical basis, if x lies in sub."""
    return solve_many(sub.canonical_basis, (x,))[0]


def is_maximal_in(fr: Frame, sub: Subspace) -> bool:
    """True iff the frame spans ``sub``.  Once the frame lies in ``sub``,
    its span is a subspace of dimension len(fr), because a frame is
    independent, so it spans ``sub`` exactly when len(fr) == dim sub; the
    containment check has built the canonical basis that ``dim`` then reads.
    The span test is equivalent to the rank-bound definition of maximality;
    the oracle module checks the definitional form on small instances."""
    if not sub.contains_seq(fr.seq):
        raise ValueError("frame is not contained in the subspace")
    return len(fr) == sub.dim


def extend_frame(fr: Frame, sub: Subspace) -> Vector:
    """The first canonical-basis vector of ``sub`` outside the frame's span;
    appending it keeps the sequence a frame."""
    if not sub.contains_seq(fr.seq):
        raise ValueError("frame is not contained in the subspace")
    basis = sub.canonical_basis
    sols = solve_raw(fr.seq, tuple(basis))
    for v, sol in zip(basis, sols):
        if sol is None:
            return v
    raise MaximalFrameError("frame already spans the subspace")


def basis_from_generators(gens: VecSequence) -> Frame:
    """Greedy left-to-right independent subsequence spanning span(gens).

    A generator raises the rank of the prefix before it exactly when its
    column is a pivot column of the reduced echelon form of the generators
    taken as columns, so the greedy scan is read off one elimination."""
    pivots = reduced_form(matrix_from_columns(gens)).pivots
    return Frame(VecSequence(gens.field, gens.ambient_dim, tuple(gens[c] for c in pivots)))


def dimension(sub: Subspace) -> int:
    return sub.dim


def coordinates(basis: Frame, x: Vector) -> Tuple[Scalar, ...]:
    """The unique coefficients with lin_comb(basis.seq, coeffs) = x."""
    coeffs = solve_many(basis.seq, (x,))[0]
    if coeffs is None:
        raise ValueError("vector lies outside the span of the basis")
    return coeffs


def change_of_basis(e: Frame, f: Frame) -> Tuple[Matrix, Matrix]:
    """The invertible matrix pair (A, A_inv) with f_j = sum_i A[i][j] e_i and
    e_j = sum_i A_inv[i][j] f_j; both products are checked against the
    identity before returning."""
    n = len(e)
    if len(f) != n:
        raise ValueError("frames must have equal length")
    cols_a = solve_raw(e.seq, tuple(f.seq))
    if any(c is None for c in cols_a):
        raise ValueError("some f_j lies outside the span of e")
    cols_ainv = solve_raw(f.seq, tuple(e.seq))
    if any(c is None for c in cols_ainv):
        raise NotAFrameError("some e_i is not reachable from f; inputs were not equal-span frames")
    a = Matrix(e.field, n, n, tuple(zip(*cols_a)))
    a_inv = Matrix(e.field, n, n, tuple(zip(*cols_ainv)))
    if not mat_product(a, a_inv).is_identity() or not mat_product(a_inv, a).is_identity():
        raise AssertionError("change-of-basis pair failed the identity check")
    return a, a_inv
