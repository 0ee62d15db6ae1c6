"""Differential tests of the raw-value Matrix.

A ``Matrix`` stores rows of raw canonical values and makes scalars only at
its accessors.  Each accessor, ``is_identity`` and ``mat_product`` are
compared against plain ``Scalar`` arithmetic on the same entries, coerced
one by one through ``Field.scalar``; ``ref_mat_product`` is the boxed
product that preceded the raw one.  ``reduced_form`` is compared against
the reference kernels of ``test_kernels`` with their rows boxed the same
way.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactspan import GF, QQ, FieldMismatchError, identity, mat_product, matrix, reduced_form, vector
from exactspan.core import Matrix

from test_kernels import BIG, FIELD_KEYS, SMALL, rand_rows, reference


def field_of(p):
    return QQ if p is None else GF(p)


def boxed(field, rows):
    return tuple(tuple(field.scalar(x) for x in row) for row in rows)


def ref_mat_product(field, a, b, b_cols):
    """Boxed rows of a times boxed rows of b, entry by entry in Scalar arithmetic."""
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), field.zero) for j in range(b_cols))
        for row in a
    )


def spelled(rng, field, x):
    """The same element as an int, literal, Scalar or Fraction, often not canonical."""
    p = field.modulus
    form = rng.randrange(4)
    if form == 0:
        return x + rng.randint(-3, 3) * p if p is not None else x
    if form == 1:
        return str(x)
    if form == 2:
        return field.scalar(x)
    return Fraction(x) if p is not None else Fraction(x.numerator * 3, x.denominator * 3)


def shapes(rng, p, height):
    """(rows, cols) cases: empty, 0 x n, n x 0, zero, identity, tall, wide,
    square full-rank and rank-deficient."""
    zero = Fraction(0) if p is None else 0
    yield [], 0
    yield [], 4
    yield [[] for _ in range(3)], 0
    yield [[zero] * 4 for _ in range(3)], 4
    yield [[1 if i == j else 0 for j in range(4)] for i in range(4)], 4
    for n_rows, n_cols in ((1, 1), (1, 5), (5, 1), (6, 3), (3, 6), (5, 5)):
        yield rand_rows(rng, p, n_rows, n_cols, height), n_cols
        yield rand_rows(rng, p, n_rows, n_cols, height, rank=rng.randint(0, min(n_rows, n_cols))), n_cols


def assert_accessors(field, rows, n_cols, rng):
    m = matrix(field, [[spelled(rng, field, x) for x in row] for row in rows], cols=n_cols)
    want = boxed(field, rows)
    assert (m.field, m.rows, m.cols) == (field, len(rows), n_cols)
    assert m.entries == want
    assert m == matrix(field, rows, cols=n_cols)
    raw_type = int if field.modulus is not None else Fraction
    assert all(type(x) is raw_type for row in m.values for x in row)
    for i, row in enumerate(want):
        for j, s in enumerate(row):
            got = m[(i, j)]
            assert got == s and type(got.value) is type(s.value)
    for j in range(n_cols):
        assert m.column(j) == vector(field, [row[j] for row in want])
    one_zero = (field.one, field.zero)
    assert m.is_identity() == (len(rows) == n_cols and all(
        s == one_zero[i != j] for i, row in enumerate(want) for j, s in enumerate(row)))
    assert str(m) == "\n".join(" ".join(str(s) for s in row) for row in want)


def assert_product(field, a_rows, b_rows, b_cols):
    a = matrix(field, a_rows, cols=len(b_rows))
    b = matrix(field, b_rows, cols=b_cols)
    got = mat_product(a, b)
    assert (got.rows, got.cols) == (len(a_rows), b_cols)
    assert got.entries == ref_mat_product(field, boxed(field, a_rows), boxed(field, b_rows), b_cols)
    raw_type = int if field.modulus is not None else Fraction
    assert all(type(x) is raw_type for row in got.values for x in row)


def assert_reduced_form(field, rows, n_cols):
    red = reduced_form(matrix(field, rows, cols=n_cols))
    ref_rows, ref_pivots = reference([list(r) for r in rows], field.modulus)
    assert red.pivots == tuple(ref_pivots)
    assert red.matrix.entries == boxed(field, ref_rows)
    assert (red.matrix.rows, red.matrix.cols) == (len(rows), n_cols)


@pytest.mark.parametrize("p", FIELD_KEYS, ids=lambda p: "q" if p is None else f"gf{p}")
@pytest.mark.parametrize("height", [SMALL, BIG], ids=["small", "20bit"])
def test_raw_matrix_matches_boxed_reference(p, height):
    field = field_of(p)
    rng = random.Random(f"raw/{p}/{height}")
    for _ in range(4):
        for rows, n_cols in shapes(rng, p, height):
            assert_accessors(field, rows, n_cols, rng)
            assert_reduced_form(field, rows, n_cols)
            for b_cols in (0, 1, 3):
                assert_product(field, rows, rand_rows(rng, p, n_cols, b_cols, height), b_cols)


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=["gf2", "gf5", "q"])
def test_identity_and_products_with_it(field):
    rng = random.Random(11)
    for n in range(5):
        i_n = identity(field, n)
        assert i_n.is_identity()
        assert i_n.entries == boxed(field, [[int(i == j) for j in range(n)] for i in range(n)])
        a = matrix(field, rand_rows(rng, field.modulus, 3, n, SMALL), cols=n)
        assert mat_product(a, i_n) == a
    assert not matrix(field, [[1, 0], [0, 1], [0, 0]]).is_identity()
    assert not matrix(field, [[1, 1], [0, 1]]).is_identity()


def test_product_and_shape_errors():
    with pytest.raises(FieldMismatchError):
        mat_product(identity(GF(2), 2), identity(GF(3), 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_product(matrix(QQ, [[1, 2]]), matrix(QQ, [[1, 2]]))
    with pytest.raises(ValueError, match="shape"):
        Matrix(QQ, 2, 1, ((Fraction(1),),))


@st.composite
def product_inputs(draw):
    p = draw(st.sampled_from(FIELD_KEYS))
    n, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    height = draw(st.sampled_from([SMALL, BIG]))
    if p is None:
        entry = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    else:
        entry = st.integers(0, p - 1)

    def rows(r, w):
        return draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=r, max_size=r))

    return field_of(p), rows(n, k), k, rows(k, c), c, draw(st.randoms(use_true_random=False))


@settings(max_examples=200, deadline=None)
@given(product_inputs())
def test_raw_matrix_matches_boxed_reference_hypothesis(case):
    field, a_rows, k, b_rows, c, rng = case
    assert_accessors(field, a_rows, k, rng)
    assert_reduced_form(field, a_rows, k)
    assert_product(field, a_rows, b_rows, c)
