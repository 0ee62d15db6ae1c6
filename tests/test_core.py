import itertools
import random

import pytest

from exactspan import (
    GF,
    QQ,
    identity,
    kernel_basis,
    lin_comb,
    mat_product,
    matrix,
    reduced_form,
    sequence,
    solve_in_span,
    vector,
    zero_vector,
)
from exactspan.core import matrix_from_rows
from exactspan.randgen import random_sequence, random_vector

GF2 = GF(2)


def apply_matrix(m, x):
    """Brute-force reference for m x: one Scalar dot product per row."""
    if m.cols != x.ambient_dim:
        raise ValueError("dimension mismatch")
    xs = x.entries
    return vector(m.field, [sum((m[(i, j)] * xs[j] for j in range(m.cols)), m.field.zero)
                            for i in range(m.rows)])


def all_gf2_vectors(m):
    return [vector(GF2, bits) for bits in itertools.product([0, 1], repeat=m)]


def test_lin_comb_standard_basis():
    seq = sequence(QQ, [[1, 0], [0, 1]])
    assert lin_comb(seq, (QQ.scalar(3), QQ.scalar(5))) == vector(QQ, [3, 5])


def test_lin_comb_gf2_against_enumeration():
    seq = sequence(GF2, [[1, 1], [0, 1]])
    got = lin_comb(seq, (GF2.one, GF2.one))
    # oracle: add the two vectors coordinatewise mod 2
    expect = vector(GF2, [(1 + 0) % 2, (1 + 1) % 2])
    assert got == expect == vector(GF2, [1, 0])


def test_lin_comb_all_zero_coeffs():
    seq = sequence(QQ, [[1, 2], [3, 4]])
    assert lin_comb(seq, (QQ.zero, QQ.zero)) == zero_vector(QQ, 2)


def test_lin_comb_length_mismatch():
    seq = sequence(QQ, [[1, 0]])
    with pytest.raises(ValueError):
        lin_comb(seq, ())


def test_solve_in_span_gf2_exhaustive_oracle():
    seq = sequence(GF2, [[1, 1], [0, 1]])
    target = vector(GF2, [1, 0])
    # exhaustive oracle over all 4 coefficient pairs
    hits = [
        (a, b)
        for a in (GF2.zero, GF2.one)
        for b in (GF2.zero, GF2.one)
        if lin_comb(seq, (a, b)) == target
    ]
    assert hits == [(GF2.one, GF2.one)]
    assert solve_in_span(seq, target) == (GF2.one, GF2.one)


def test_solve_in_span_absent():
    seq = sequence(QQ, [[1, 0, 0], [0, 1, 0]])
    assert solve_in_span(seq, vector(QQ, [0, 0, 1])) is None


def test_solve_in_span_empty_sequence():
    seq = sequence(QQ, [], ambient_dim=2)
    assert solve_in_span(seq, zero_vector(QQ, 2)) == ()
    assert solve_in_span(seq, vector(QQ, [1, 0])) is None


def test_solve_in_span_reconstructs():
    rng = random.Random(7)
    for field in (GF2, GF(3), QQ):
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(0, 4)
            seq = random_sequence(field, m, n, rng)
            x = random_vector(field, m, rng)
            coeffs = solve_in_span(seq, x)
            if coeffs is not None:
                assert lin_comb(seq, coeffs) == x


def test_kernel_gf2_oracle():
    m = matrix(GF2, [[1, 1]])
    ker = kernel_basis(m)
    # enumerate all 4 vectors of GF(2)^2: exactly (0,0) and (1,1) map to 0
    zero = zero_vector(GF2, 1)
    annihilated = [v for v in all_gf2_vectors(2) if apply_matrix(m, v) == zero]
    assert set(annihilated) == {vector(GF2, [0, 0]), vector(GF2, [1, 1])}
    assert list(ker) == [vector(GF2, [1, 1])]


def test_kernel_of_identity_empty():
    assert len(kernel_basis(identity(QQ, 2))) == 0


def test_kernel_of_zero_map_full():
    m = matrix(QQ, [[0, 0]])
    ker = kernel_basis(m)
    assert len(ker) == 2


def test_kernel_rank_nullity():
    rng = random.Random(11)
    for field in (GF2, GF(5), QQ):
        for _ in range(25):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            m = matrix(
                field,
                [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)],
                cols=c,
            )
            ker = kernel_basis(m)
            red = reduced_form(m)
            assert red.rank + len(ker) == c
            zero = zero_vector(field, r)
            for v in ker:
                assert apply_matrix(m, v) == zero
            if len(ker):
                assert reduced_form(matrix_from_rows(ker)).rank == len(ker)


def test_mat_product_gf2():
    a = matrix(GF2, [[1, 0], [1, 1]])
    assert mat_product(a, a).is_identity()


def test_mat_product_identity_neutral():
    a = matrix(QQ, [[1, 2], [3, 4]])
    assert mat_product(a, identity(QQ, 2)) == a
    assert mat_product(identity(QQ, 2), a) == a


def test_mat_product_shape_mismatch():
    with pytest.raises(ValueError):
        mat_product(matrix(QQ, [[1, 2]]), matrix(QQ, [[1, 2]]))


def test_mat_product_associative():
    rng = random.Random(3)
    for field in (GF(3), QQ):
        for _ in range(20):
            dims = [rng.randint(1, 3) for _ in range(4)]
            ms = [
                matrix(
                    field,
                    [[rng.randint(-4, 4) for _ in range(dims[i + 1])] for _ in range(dims[i])],
                    cols=dims[i + 1],
                )
                for i in range(3)
            ]
            assert mat_product(mat_product(ms[0], ms[1]), ms[2]) == mat_product(
                ms[0], mat_product(ms[1], ms[2])
            )


def test_reduced_form_rational_example():
    red = reduced_form(matrix(QQ, [[2, 4], [1, 2]]))
    assert red.matrix == matrix(QQ, [[1, 2], [0, 0]])
    assert red.pivots == (0,)
    assert red.rank == 1


def test_reduced_form_identity_fixed():
    i3 = identity(GF(7), 3)
    red = reduced_form(i3)
    assert red.matrix == i3 and red.rank == 3


def test_reduced_form_zero_matrix():
    z = matrix(QQ, [[0, 0], [0, 0]])
    red = reduced_form(z)
    assert red.matrix == z and red.rank == 0 and red.pivots == ()


def test_reduced_form_idempotent():
    rng = random.Random(5)
    for field in (GF2, GF(3), QQ):
        for _ in range(25):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = matrix(
                field,
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)],
                cols=c,
            )
            red = reduced_form(m)
            again = reduced_form(red.matrix)
            assert again.matrix == red.matrix
            assert again.pivots == red.pivots


def test_reduced_form_bareiss_fractional_entries():
    m = matrix(QQ, [["1/2", "1/3"], ["1/4", "1/5"]])
    red = reduced_form(m)
    assert red.matrix == identity(QQ, 2)


def test_ambient_dim_zero():
    seq = sequence(QQ, [[]], ambient_dim=0)
    assert seq.ambient_dim == 0
    assert solve_in_span(seq, zero_vector(QQ, 0)) == (QQ.zero,)
