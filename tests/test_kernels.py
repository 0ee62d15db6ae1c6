"""Differential tests of the elimination kernels.

The reduced echelon form is unique, so every kernel must return exactly the
rows and pivots of the plain Gauss-Jordan and Bareiss kernels kept below as
references: the GF(2) bit-packed kernel and the GF(p) pivot-suffix kernel
against ``ref_rref_mod_p``, the Q kernel with integer back-substitution
against ``ref_rref_rational``.
"""

import random
from fractions import Fraction
from math import gcd
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from exactspan import GF, QQ, matrix, reduced_form
from exactspan.core import _rref_gf2, _rref_mod_p, _rref_rational


# -- references: the single GF(p) kernel and the Bareiss + Fraction
# back-substitution kernel that preceded the field-specialised ones, verbatim

def ref_rref_mod_p(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def ref_rref_rational(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Fraction-free Bareiss forward pass on cleared-denominator integer rows,
    then exact back-substitution to the unique reduced echelon form."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    m: List[List[int]] = []
    for row in rows:
        d = 1
        for x in row:
            d = d * x.denominator // gcd(d, x.denominator)
        m.append([int(x * d) for x in row])

    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break

    out = [[Fraction(x) for x in row] for row in m]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        piv = out[r][c]
        out[r] = [x / piv for x in out[r]]
        for i in range(r):
            f = out[i][c]
            if f:
                out[i] = [x - f * y for x, y in zip(out[i], out[r])]
    return out, pivots


# -- inputs ------------------------------------------------------------------

PRIMES = (2, 3, 5, 65521)
FIELD_KEYS = PRIMES + (None,)  # None is Q
SMALL, BIG = 9, 2**20


def rand_entry(rng, p, height):
    if p is not None:
        return rng.randrange(p)
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_rows(rng, p, n_rows, n_cols, height, rank=None):
    """Random canonical rows; with ``rank`` the product of an n_rows x rank
    and a rank x n_cols factor, so the rank is at most ``rank``."""
    if rank is None:
        return [[rand_entry(rng, p, height) for _ in range(n_cols)] for _ in range(n_rows)]
    left = rand_rows(rng, p, n_rows, rank, height)
    right = rand_rows(rng, p, rank, n_cols, height)
    zero = Fraction(0) if p is None else 0
    rows = [[sum((lrow[k] * right[k][j] for k in range(rank)), zero) for j in range(n_cols)]
            for lrow in left]
    return rows if p is None else [[x % p for x in row] for row in rows]


def new_kernel(rows, p):
    if p is None:
        return _rref_rational(rows)
    if p == 2:
        return _rref_gf2(rows)
    return _rref_mod_p(rows, p)


def reference(rows, p):
    return ref_rref_rational(rows) if p is None else ref_rref_mod_p(rows, p)


def assert_same(rows, p):
    expect_rows, expect_pivots = reference([list(r) for r in rows], p)
    got_rows, got_pivots = new_kernel([list(r) for r in rows], p)
    assert got_pivots == expect_pivots
    assert got_rows == expect_rows
    if p is None:
        assert all(type(x) is Fraction for row in got_rows for x in row)


def shapes(rng, p, height):
    """(rows) cases: empty, 0 x n, n x 0, zero rows and columns, tall, wide,
    square full-rank and rank-deficient, duplicated rows."""
    zero = Fraction(0) if p is None else 0
    yield []
    yield [[] for _ in range(3)]
    yield [[zero] * 4 for _ in range(3)]
    for n_rows, n_cols in ((1, 1), (1, 5), (5, 1), (6, 3), (3, 6), (5, 5), (9, 4), (4, 9)):
        yield rand_rows(rng, p, n_rows, n_cols, height)
        r = rng.randint(0, min(n_rows, n_cols))
        yield rand_rows(rng, p, n_rows, n_cols, height, rank=r)
    rows = rand_rows(rng, p, 6, 6, height)
    for row in rows:
        row[2] = zero
    rows[3] = [zero] * 6
    rows[5] = list(rows[1])
    yield rows


@pytest.mark.parametrize("p", FIELD_KEYS, ids=lambda p: "q" if p is None else f"gf{p}")
@pytest.mark.parametrize("height", [SMALL, BIG], ids=["small", "20bit"])
def test_kernels_match_reference_on_shapes(p, height):
    rng = random.Random(f"{p}/{height}")
    for _ in range(8):
        for rows in shapes(rng, p, height):
            assert_same(rows, p)


@pytest.mark.parametrize("n_cols", [63, 64, 65, 130, 200])
def test_gf2_wide_rows(n_cols):
    rng = random.Random(n_cols)
    for n_rows in (1, 7, 40, 70):
        assert_same(rand_rows(rng, 2, n_rows, n_cols, SMALL), 2)
        r = rng.randint(0, min(n_rows, n_cols))
        assert_same(rand_rows(rng, 2, n_rows, n_cols, SMALL, rank=r), 2)


@pytest.mark.parametrize("p,n", [(65521, 24), (None, 12)], ids=["gf65521", "q"])
def test_larger_square_rank_deficient(p, n):
    rng = random.Random(5)
    for height in (SMALL, BIG):
        assert_same(rand_rows(rng, p, n, n, height, rank=n - 3), p)
        assert_same(rand_rows(rng, p, n, 2 * n, height), p)


@st.composite
def kernel_inputs(draw):
    p = draw(st.sampled_from(FIELD_KEYS))
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7 if p != 2 else 70))
    height = draw(st.sampled_from([SMALL, BIG]))
    if p is None:
        entry = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    else:
        entry = st.integers(0, p - 1) if p > 2 else st.sampled_from([0, 0, 1])
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    return p, rows


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernels_match_reference_hypothesis(case):
    p, rows = case
    assert_same(rows, p)


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=["gf2", "gf7", "q"])
def test_reduced_form_boxes_canonical_scalars(field):
    rng = random.Random(3)
    rows = rand_rows(rng, field.modulus, 5, 7, SMALL, rank=3)
    red = reduced_form(matrix(field, rows))
    assert red.matrix.field == field and (red.matrix.rows, red.matrix.cols) == (5, 7)
    for row in red.matrix.entries:
        for s in row:
            canonical = field.scalar(s.value)
            assert s == canonical and type(s.value) is type(canonical.value)
