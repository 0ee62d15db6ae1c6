"""Seeded random instance generators used by the test harness and the
randomized cross-check command."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .core import Matrix, VecSequence, Vector, mat_product, matrix, matrix_from_columns, rank_matrix, sequence, vector
from .field import Field, Scalar
from .spans import Frame, NotAFrameError


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
    return sequence(field, ([random_scalar(field, rng) for _ in range(dim)] for _ in range(length)), dim)


def random_frame(field: Field, dim: int, length: int, rng: random.Random) -> Frame:
    if length > dim:
        raise ValueError("no frame longer than the ambient dimension exists")
    while True:
        try:
            return Frame(random_sequence(field, dim, length, rng))
        except NotAFrameError:
            continue


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
    ea = mat_product(matrix_from_columns(e.seq), a)  # column j is f_j
    return e, Frame(VecSequence(field, dim, tuple(zip(*ea.values))))
