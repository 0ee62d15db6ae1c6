import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactspan import (
    GF,
    QQ,
    Frame,
    MaximalFrameError,
    NotAFrameError,
    basis_from_generators,
    change_of_basis,
    coordinates,
    dimension,
    extend_frame,
    identity,
    is_frame,
    is_maximal_in,
    lin_comb,
    mat_product,
    matrix,
    member,
    rank_seq,
    sequence,
    span_of,
    vector,
    zero_vector,
)
from exactspan.oracle import rank_bruteforce
from exactspan.randgen import (
    random_frame,
    random_frame_pair,
    random_sequence,
    random_vector,
)

GF2 = GF(2)
GF3 = GF(3)


def frame(field, rows):
    return Frame(sequence(field, rows))


def test_span_of_dependent_pair():
    sub = span_of(sequence(QQ, [[1, 1], [2, 2]]))
    assert sub.dim == 1
    assert list(sub.canonical_basis) == [vector(QQ, [1, 1])]


def test_span_of_standard_basis():
    sub = span_of(sequence(GF2, [[1, 0], [0, 1]]))
    assert sub.dim == 2


def test_span_of_empty():
    sub = span_of(sequence(QQ, [], ambient_dim=3))
    assert sub.dim == 0


def test_span_order_and_duplicate_insensitive():
    rng = random.Random(2)
    for field in (GF2, GF3, QQ):
        for _ in range(20):
            seq = random_sequence(field, 3, 3, rng)
            sub = span_of(seq)
            shuffled = list(seq)
            rng.shuffle(shuffled)
            doubled = sequence(field, [], ambient_dim=3)
            for v in shuffled + shuffled:
                doubled = doubled.append(v)
            assert span_of(doubled) == sub


def test_member_full_space():
    sub = span_of(sequence(GF2, [[1, 0], [0, 1]]))
    assert member(sub, vector(GF2, [1, 0])) is not None


def test_member_absent():
    # span is {(a, a+b, b)}; first coord 1 and second 0 would force third -1
    sub = span_of(sequence(QQ, [[1, 1, 0], [0, 1, 1]]))
    assert member(sub, vector(QQ, [1, 0, 0])) is None


def test_member_zero_vector():
    sub = span_of(sequence(QQ, [[1, 1, 0], [0, 1, 1]]))
    coords = member(sub, zero_vector(QQ, 3))
    assert coords is not None and not any(coords)


def test_member_reconstructs():
    rng = random.Random(9)
    for field in (GF3, QQ):
        for _ in range(20):
            sub = span_of(random_sequence(field, 4, 3, rng))
            x = lin_comb(
                sub.canonical_basis,
                tuple(field.scalar(rng.randint(-3, 3)) for _ in range(sub.dim)),
            )
            coords = member(sub, x)
            assert coords is not None
            assert lin_comb(sub.canonical_basis, tuple(coords)) == x


def test_rank_seq_vs_bruteforce_example():
    seq = sequence(GF2, [[1, 0], [0, 1], [1, 1]])
    assert rank_seq(seq) == rank_bruteforce(seq) == 2


def test_rank_zero_vector():
    assert rank_seq(sequence(QQ, [[0, 0]])) == 0


def test_rank_of_frame_is_length():
    fr = frame(QQ, [[1, 2, 3], [0, 1, 4]])
    assert rank_seq(fr.seq) == 2


def test_is_frame():
    assert is_frame(sequence(GF2, [[1, 0], [0, 1]]))
    assert not is_frame(sequence(GF2, [[1, 1], [1, 1]]))
    assert not is_frame(sequence(QQ, [[1, 0], [0, 0]]))
    assert is_frame(sequence(QQ, [], ambient_dim=2))


@st.composite
def led_sequences(draw):
    """Sequences built from chosen leading positions: increasing or not,
    repeated or not, with zero vectors (lead m) and arbitrary entries after
    each lead, so entries above a later lead are often nonzero."""
    field = draw(st.sampled_from((GF2, GF3, QQ)))
    m = draw(st.integers(0, 5))
    if field is QQ:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, field.modulus - 1)
    leads = draw(st.lists(st.integers(0, m), max_size=m + 2, unique=draw(st.booleans())))
    if draw(st.booleans()):
        leads.sort()
    rows = []
    for lead in leads:
        rows.append([0] * lead)
        if lead < m:
            rows[-1] += [draw(entry.filter(bool))] + draw(st.lists(entry, min_size=m - lead - 1, max_size=m - lead - 1))
    return sequence(field, rows, ambient_dim=m)


@settings(max_examples=400, deadline=None)
@given(led_sequences())
def test_is_frame_is_full_rank(seq):
    assert is_frame(seq) == (rank_seq(seq) == len(seq))


def test_frame_constructor_rejects_dependent():
    with pytest.raises(NotAFrameError):
        frame(QQ, [[1, 1], [2, 2]])


def test_is_maximal_standard():
    fr = frame(GF2, [[1, 0], [0, 1]])
    assert is_maximal_in(fr, span_of(fr.seq))


def test_is_maximal_strict_inclusion():
    fr = frame(QQ, [[1, 0, 0]])
    full = span_of(sequence(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not is_maximal_in(fr, full)


def test_is_maximal_own_span():
    fr = frame(GF3, [[1, 1]])
    assert is_maximal_in(fr, span_of(fr.seq))


def test_is_maximal_requires_containment():
    fr = frame(QQ, [[1, 0]])
    other = span_of(sequence(QQ, [[0, 1]]))
    with pytest.raises(ValueError):
        is_maximal_in(fr, other)


def test_extend_frame_deterministic():
    fr = frame(GF2, [[1, 0, 0]])
    full = span_of(sequence(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert extend_frame(fr, full) == vector(GF2, [0, 1, 0])


def test_extend_frame_maximal_errors():
    fr = frame(GF2, [[1, 0], [0, 1]])
    with pytest.raises(MaximalFrameError):
        extend_frame(fr, span_of(fr.seq))


def test_extend_empty_frame():
    fr = Frame(sequence(QQ, [], ambient_dim=2))
    sub = span_of(sequence(QQ, [[2, 0], [0, 2]]))
    assert extend_frame(fr, sub) == sub.canonical_basis[0]


def test_maximality_extension_dichotomy():
    rng = random.Random(21)
    for field in (GF2, GF3, QQ):
        for _ in range(40):
            m = rng.randint(1, 4)
            sub = span_of(random_sequence(field, m, rng.randint(1, m), rng))
            k = rng.randint(0, sub.dim)
            fr = Frame(
                sequence(field, [list(sub.canonical_basis[i].entries) for i in range(k)], ambient_dim=m)
            )
            maximal = is_maximal_in(fr, sub)
            try:
                v = extend_frame(fr, sub)
                extended = True
                assert is_frame(fr.seq.append(v))
            except MaximalFrameError:
                extended = False
            assert maximal != extended


def test_basis_from_generators_greedy():
    gens = sequence(QQ, [[1, 1], [2, 2], [0, 1]])
    fr = basis_from_generators(gens)
    assert list(fr) == [vector(QQ, [1, 1]), vector(QQ, [0, 1])]


def test_basis_from_generators_keeps_frame():
    gens = sequence(GF2, [[1, 0], [0, 1]])
    assert list(basis_from_generators(gens)) == list(gens)


def test_basis_from_generators_all_zero():
    gens = sequence(QQ, [[0, 0], [0, 0]])
    assert len(basis_from_generators(gens)) == 0


def test_basis_from_generators_irreducible():
    rng = random.Random(31)
    for field in (GF2, QQ):
        for _ in range(25):
            gens = random_sequence(field, 3, rng.randint(0, 4), rng)
            fr = basis_from_generators(gens)
            assert is_frame(fr.seq)
            assert span_of(fr.seq) == span_of(gens)
            for drop in range(len(fr)):
                reduced = sequence(
                    field,
                    [list(fr[i].entries) for i in range(len(fr)) if i != drop],
                    ambient_dim=3,
                )
                assert span_of(reduced) != span_of(gens)


def test_dimension():
    assert dimension(span_of(sequence(GF(5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) == 3
    assert dimension(span_of(sequence(QQ, [], ambient_dim=2))) == 0
    assert dimension(span_of(sequence(QQ, [[1, 1, 0], [0, 1, 1]]))) == 2


def test_coordinates_standard():
    fr = frame(QQ, [[1, 0], [0, 1]])
    assert tuple(coordinates(fr, vector(QQ, [3, 5]))) == (QQ.scalar(3), QQ.scalar(5))


def test_coordinates_gf2():
    fr = frame(GF2, [[1, 1], [0, 1]])
    assert tuple(coordinates(fr, vector(GF2, [1, 0]))) == (GF2.one, GF2.one)


def test_coordinates_zero():
    fr = frame(GF3, [[1, 2], [0, 1]])
    assert not any(coordinates(fr, zero_vector(GF3, 2)))


def test_coordinates_outside_span():
    fr = frame(QQ, [[1, 0, 0]])
    with pytest.raises(ValueError):
        coordinates(fr, vector(QQ, [0, 1, 0]))


def test_change_of_basis_gf2():
    e = frame(GF2, [[1, 0], [0, 1]])
    f = frame(GF2, [[1, 1], [0, 1]])
    a, a_inv = change_of_basis(e, f)
    assert a == matrix(GF2, [[1, 0], [1, 1]])
    assert a_inv == matrix(GF2, [[1, 0], [1, 1]])
    assert mat_product(a, a_inv).is_identity()


def test_change_of_basis_same_frame():
    e = frame(QQ, [[1, 2], [3, 4]])
    a, a_inv = change_of_basis(e, e)
    assert a.is_identity() and a_inv.is_identity()


def test_change_of_basis_diagonal():
    e = frame(QQ, [[1, 0], [0, 1]])
    f = frame(QQ, [[2, 0], [0, 3]])
    a, a_inv = change_of_basis(e, f)
    assert a == matrix(QQ, [[2, 0], [0, 3]])
    assert a_inv == matrix(QQ, [["1/2", 0], [0, "1/3"]])


def test_change_of_basis_outside_span():
    e = frame(QQ, [[1, 0, 0], [0, 1, 0]])
    f = frame(QQ, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        change_of_basis(e, f)


def test_change_of_basis_reconstructs_f():
    rng = random.Random(13)
    for field in (GF2, GF3, QQ):
        for _ in range(15):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            e, f = random_frame_pair(field, m, n, rng)
            a, a_inv = change_of_basis(e, f)
            for j in range(n):
                assert lin_comb(e.seq, a.column(j).entries) == f[j]
                assert lin_comb(f.seq, a_inv.column(j).entries) == e[j]
