"""Seeded random instance generators used by the test harness and the
randomized cross-check command."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .core import Matrix, VecSequence, Vector, lin_comb, matrix, rank_matrix, vector
from .field import Field, Scalar
from .spans import Frame, is_frame


def random_scalar(field: Field, rng: random.Random, nonzero: bool = False) -> Scalar:
    if field.modulus is not None:
        lo = 1 if nonzero else 0
        return field.scalar(rng.randrange(lo, field.modulus))
    while True:
        s = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if s or not nonzero:
            return s


def random_vector(field: Field, dim: int, rng: random.Random) -> Vector:
    return vector(field, (random_scalar(field, rng) for _ in range(dim)))


def random_sequence(field: Field, dim: int, length: int, rng: random.Random) -> VecSequence:
    return VecSequence(field, dim, tuple(random_vector(field, dim, rng) for _ in range(length)))


def random_frame(field: Field, dim: int, length: int, rng: random.Random) -> Frame:
    if length > dim:
        raise ValueError("no frame longer than the ambient dimension exists")
    while True:
        seq = random_sequence(field, dim, length, rng)
        if is_frame(seq):
            return Frame(seq)


def random_invertible_matrix(field: Field, n: int, rng: random.Random) -> Matrix:
    while True:
        m = matrix(
            field,
            [[random_scalar(field, rng) for _ in range(n)] for _ in range(n)],
            cols=n,
        )
        if rank_matrix(m) == n:
            return m


def random_frame_pair(
    field: Field, dim: int, length: int, rng: random.Random
) -> Tuple[Frame, Frame]:
    """A frame e and a second frame f = e * A for random invertible A, so f
    lies in the span of e by construction."""
    e = random_frame(field, dim, length, rng)
    a = random_invertible_matrix(field, length, rng)
    f_items = tuple(lin_comb(e.seq, a.column(j).values) for j in range(length))
    return e, Frame(VecSequence(field, dim, f_items))
