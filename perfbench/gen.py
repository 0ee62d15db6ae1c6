"""Seeded input generation and raw exact arithmetic for the benchmark.

Nothing here imports exactspan: the inputs must not change when the engine
does, and the checks built on these helpers must not trust the engine.
A field is named by its modulus ``p`` (an int) or ``None`` for Q; raw
scalars are ints in [0, p) or ``Fraction`` values.

Every matrix of known rank comes from factors whose rank is evident
without elimination:

- GF(p): ``L · [U | Z]`` with L unit lower and U unit upper triangular.
- Q: ``[D | Z]`` with D strictly diagonally dominant (nonsingular by the
  Levy-Desplanques theorem), so the other entries keep their stated height.

The columns are then shuffled.  A row-space vector that is zero on the
columns of U or D is zero, so adding a nonzero vector supported on the
other columns gives a target known to lie outside the span.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Row = List
HEIGHTS = {"small": 9, "20bit": 2**20 - 1}


def reduce(x, p: Optional[int]):
    return x % p if p is not None else Fraction(x)


def scalar(rng: random.Random, p: Optional[int], height: str = "small"):
    if p is not None:
        return rng.randrange(p)
    h = HEIGHTS[height]
    return Fraction(rng.randint(-h, h), rng.randint(1, h))


def nonzero(rng: random.Random, p: Optional[int]):
    while True:
        x = scalar(rng, p)
        if x:
            return x


def combo(coeffs: Sequence, rows: Sequence[Row], p: Optional[int]) -> Row:
    """sum_j coeffs[j] * rows[j], by substitution only."""
    acc = [0] * len(rows[0]) if p is not None else [Fraction(0)] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * b for a, b in zip(acc, row)]
    return [reduce(a, p) for a in acc]


def matmul(a: Sequence[Row], b: Sequence[Row], p: Optional[int]) -> List[Row]:
    return [combo(row, b, p) for row in a]


def is_identity(m: Sequence[Row]) -> bool:
    return all(x == (1 if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))


def transpose(m: Sequence[Row]) -> List[Row]:
    return [list(col) for col in zip(*m)]


def ref_rank(rows: Sequence[Row], p: Optional[int]) -> int:
    """Plain Gaussian elimination, independent of the engine; used only by
    checks whose answer the construction does not fix (extension vectors,
    basis independence)."""
    m = [list(r) for r in rows]
    rank = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p) if p is not None else 1 / m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [reduce(x - f * y, p) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def unit_triangular(rng: random.Random, p: Optional[int], n: int, lower: bool) -> List[Row]:
    """Unit diagonal, random entries strictly on one side."""
    one = reduce(1, p)
    return [
        [one if i == j else (scalar(rng, p) if (j < i) == lower else reduce(0, p)) for j in range(n)]
        for i in range(n)
    ]


def invertible(rng: random.Random, p: Optional[int], n: int) -> List[Row]:
    """L·U with unit triangular factors: invertible by construction."""
    return matmul(unit_triangular(rng, p, n, True), unit_triangular(rng, p, n, False), p)


def full_row_rank(
    rng: random.Random, p: Optional[int], r: int, d: int, height: str = "small"
) -> Tuple[List[Row], List[int]]:
    """An r×d matrix of rank r (r <= d) and the columns its nonsingular
    block occupies after shuffling."""
    if p is not None:
        left = unit_triangular(rng, p, r, True)
        right = [u + [scalar(rng, p) for _ in range(d - r)] for u in unit_triangular(rng, p, r, False)]
        rows = matmul(left, right, p)
    else:
        rows = []
        for i in range(r):
            row = [scalar(rng, p, height) for _ in range(d)]
            off = sum(abs(row[j]) for j in range(r) if j != i)
            row[i] = Fraction(int(off) + rng.randint(1, 9)) * rng.choice((1, -1))
            rows.append(row)
    perm = list(range(d))
    rng.shuffle(perm)
    rows = [[row[perm[j]] for j in range(d)] for row in rows]
    block = sorted(j for j in range(d) if perm[j] < r)
    return rows, block


def rank_r_sequence(
    rng: random.Random, p: Optional[int], length: int, d: int, r: int, height: str = "small"
) -> Tuple[List[Row], List[int]]:
    """``length`` vectors in F^d spanning an r-dimensional space: the rows
    of X·B with X = [I_r; C] shuffled and B of full row rank."""
    base, block = full_row_rank(rng, p, r, d, height)
    rows = [list(b) for b in base]
    for _ in range(length - r):
        if p is not None:
            coeffs = [scalar(rng, p) for _ in range(r)]
        else:
            # two small integer terms keep the derived rows near the stated height
            coeffs = [0] * r
            for k in rng.sample(range(r), min(2, r)):
                coeffs[k] = rng.choice((1, -1, 2, -2))
        rows.append(combo(coeffs, base, p))
    rng.shuffle(rows)
    return rows, block


def in_span(rng: random.Random, p: Optional[int], rows: Sequence[Row]) -> Row:
    if p is not None:
        coeffs = [scalar(rng, p) for _ in rows]
    else:
        coeffs = [rng.randint(-3, 3) for _ in rows]
    return combo(coeffs, rows, p)


def out_of_span(rng: random.Random, p: Optional[int], rows: Sequence[Row], block: Sequence[int]) -> Row:
    """A vector outside the row space: in-span plus a nonzero part on the
    columns outside ``block``; requires len(block) < width."""
    v = in_span(rng, p, rows)
    free = [j for j in range(len(v)) if j not in block]
    j = rng.choice(free)
    v[j] = reduce(v[j] + nonzero(rng, p), p)
    return v


def frame_pair(rng: random.Random, p: Optional[int], n: int, m: int) -> Tuple[List[Row], List[Row], List[int]]:
    """Frames e (n vectors in F^m) and f = A·e with A invertible, so f lies
    in span(e); also the block columns of e."""
    e, block = full_row_rank(rng, p, n, m)
    rng.shuffle(e)
    return e, matmul(invertible(rng, p, n), e, p), block


def parse_scalar(tok: str, p: Optional[int]):
    if p is not None:
        return int(tok) % p
    return Fraction(tok)
