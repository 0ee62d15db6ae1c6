import random

import pytest

from exactspan import (
    GF,
    QQ,
    Frame,
    InclusionCertificate,
    Vector,
    NotAFrameError,
    apply_map,
    build_annihilating_map,
    change_of_basis,
    check_certificate,
    coordinates,
    identity,
    lin_comb,
    mat_product,
    matrix,
    rank_bound_check,
    rank_seq,
    restricted_kernel_witness,
    sequence,
    span_of,
    steinitz_extend,
    trace_induction,
    vector,
    verify_basic_lemma,
    zero_vector,
)
from exactspan.lemma import LinearMap
from exactspan.randgen import random_frame, random_frame_pair, random_scalar, random_sequence
from exactspan.textio import parse_certificate_text, render_certificate, render_trace

GF2 = GF(2)
GF5 = GF(5)


def frame(field, rows):
    return Frame(sequence(field, rows))


def std_e2():
    return frame(GF2, [[1, 0], [0, 1]])


def skew_f2():
    return frame(GF2, [[1, 1], [0, 1]])


def test_build_map_zeroes_one_image():
    lmap = build_annihilating_map(std_e2(), skew_f2(), 0)
    assert list(lmap.images) == [zero_vector(GF2, 2), vector(GF2, [0, 1])]


def test_build_map_single_vector():
    e = frame(QQ, [[2]])
    f = frame(QQ, [[3]])
    lmap = build_annihilating_map(e, f, 0)
    assert list(lmap.images) == [zero_vector(QQ, 1)]


def test_build_map_index_out_of_range():
    with pytest.raises(IndexError):
        build_annihilating_map(std_e2(), skew_f2(), 2)


def test_apply_map_defining_equations():
    lmap = build_annihilating_map(std_e2(), skew_f2(), 0)
    assert apply_map(lmap, vector(GF2, [0, 1])) == vector(GF2, [0, 1])
    assert apply_map(lmap, vector(GF2, [1, 0])) == zero_vector(GF2, 2)
    # linearity on e_1 + e_2
    assert apply_map(lmap, vector(GF2, [1, 1])) == vector(GF2, [0, 1])


def test_apply_map_outside_domain():
    e = frame(QQ, [[1, 0, 0]])
    lmap = LinearMap(e, sequence(QQ, [[1, 0, 0]]))
    with pytest.raises(ValueError):
        apply_map(lmap, vector(QQ, [0, 1, 0]))


def test_restricted_kernel_witness_found():
    lmap = build_annihilating_map(std_e2(), skew_f2(), 0)
    w = restricted_kernel_witness(lmap, span_of(skew_f2().seq))
    assert w == vector(GF2, [1, 0])  # normalized multiple of e_1
    assert apply_map(lmap, w) == zero_vector(GF2, 2)


def test_restricted_kernel_witness_injective():
    e = std_e2()
    lmap = LinearMap(e, e.seq)
    assert restricted_kernel_witness(lmap, span_of(e.seq)) is None


def test_restricted_kernel_witness_zero_subspace():
    e = std_e2()
    lmap = build_annihilating_map(e, skew_f2(), 0)
    zero_sub = span_of(sequence(GF2, [], ambient_dim=2))
    assert restricted_kernel_witness(lmap, zero_sub) is None


def test_restricted_kernel_witness_bad_subspace():
    e = frame(QQ, [[1, 0, 0]])
    lmap = LinearMap(e, sequence(QQ, [[1, 0, 0]]))
    sub = span_of(sequence(QQ, [[0, 1, 0]]))
    with pytest.raises(ValueError):
        restricted_kernel_witness(lmap, sub)


def test_verify_basic_lemma_gf2():
    cert = verify_basic_lemma(std_e2(), skew_f2())
    assert cert.coefficient_matrix == matrix(GF2, [[1, 0], [1, 1]])
    # exhaustive re-check of both identities by substitution
    assert check_certificate(cert)


def test_verify_basic_lemma_identity():
    e = frame(QQ, [[1, 2], [3, 4]])
    cert = verify_basic_lemma(e, e)
    assert cert.coefficient_matrix.is_identity()


def test_verify_basic_lemma_diagonal():
    e = frame(QQ, [[1, 0], [0, 1]])
    f = frame(QQ, [[2, 0], [0, 3]])
    cert = verify_basic_lemma(e, f)
    assert cert.coefficient_matrix == matrix(QQ, [["1/2", 0], [0, "1/3"]])


def test_verify_basic_lemma_precondition():
    e = frame(QQ, [[1, 0, 0]])
    f = frame(QQ, [[0, 1, 0]])
    with pytest.raises(ValueError):
        verify_basic_lemma(e, f)


OUTSIDE = "f is not contained in the span of e"


@pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=str)
@pytest.mark.parametrize("fn", [verify_basic_lemma, trace_induction], ids=lambda fn: fn.__name__)
def test_equal_length_frames_outside_each_others_span(fn, field):
    e = frame(field, [[1, 0, 0], [0, 1, 0]])
    f = frame(field, [[1, 0, 0], [0, 1, 1]])
    for a, b in ((e, f), (f, e)):
        with pytest.raises(ValueError) as exc:
            fn(a, b)
        assert type(exc.value) is ValueError and str(exc.value) == OUTSIDE


@pytest.mark.parametrize("fn", [verify_basic_lemma, trace_induction], ids=lambda fn: fn.__name__)
def test_equal_length_precondition_is_span_equality(fn):
    """For frames of equal length each inclusion holds exactly when the
    spans are equal, so f outside span(e) is the only failure."""
    rng = random.Random(31)
    for field in (GF2, GF5, QQ):
        for _ in range(12):
            n = rng.randint(1, 3)
            e, f = random_frame(field, n + 1, n, rng), random_frame(field, n + 1, n, rng)
            if span_of(e.seq) == span_of(f.seq):
                fn(e, f)
            else:
                with pytest.raises(ValueError, match=f"^{OUTSIDE}$"):
                    fn(e, f)


def test_certificate_equals_change_of_basis_inverse():
    rng = random.Random(17)
    for field in (GF2, GF(3), QQ):
        for _ in range(15):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            e, f = random_frame_pair(field, m, n, rng)
            cert = verify_basic_lemma(e, f)
            a, a_inv = change_of_basis(e, f)
            assert cert.coefficient_matrix == a_inv
            assert mat_product(a, cert.coefficient_matrix).is_identity()


def test_check_certificate_rejects_flipped_entry():
    cert = verify_basic_lemma(std_e2(), skew_f2())
    c = cert.coefficient_matrix
    bad_entries = [list(row) for row in c.entries]
    bad_entries[0][0] = bad_entries[0][0] + GF2.one
    bad = InclusionCertificate(cert.e, cert.f, matrix(GF2, bad_entries))
    assert not check_certificate(bad)


def test_check_certificate_identity():
    e = frame(GF5, [[1, 2], [0, 3]])
    assert check_certificate(InclusionCertificate(e, e, identity(GF5, 2)))


def test_check_certificate_rejects_coefficients_from_another_field():
    e = frame(GF5, [[1, 2], [0, 3]])
    assert not check_certificate(InclusionCertificate(e, e, identity(GF(3), 2)))


def test_check_certificate_malformed_shapes():
    e = frame(QQ, [[1, 0], [0, 1]])
    assert not check_certificate(InclusionCertificate(e, e, identity(QQ, 3)))


def test_check_certificate_does_not_mask_engine_bugs(monkeypatch):
    cert = verify_basic_lemma(std_e2(), skew_f2())

    def broken(self, c):
        raise TypeError("engine bug")

    monkeypatch.setattr(Vector, "scale", broken)
    with pytest.raises(TypeError):
        check_certificate(cert)


def test_trace_rank_one_gf5():
    e = frame(GF5, [[2]])
    f = frame(GF5, [[3]])
    trace = trace_induction(e, f)
    assert len(trace.levels) == 1
    assert trace.levels[0].coefficient_matrix == matrix(GF5, [[4]])  # 4*3 = 12 = 2 mod 5


def test_trace_two_levels_gf2():
    trace = trace_induction(std_e2(), skew_f2())
    assert len(trace.levels) == 2
    top = trace.levels[1]
    assert list(top.witnesses) == [vector(GF2, [1, 0]), vector(GF2, [0, 1])]
    assert top.coefficient_matrix == verify_basic_lemma(std_e2(), skew_f2()).coefficient_matrix


def test_trace_identity_frames():
    e = frame(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    trace = trace_induction(e, e)
    assert trace.levels[-1].coefficient_matrix.is_identity()


def test_trace_witness_validity_randomized():
    rng = random.Random(23)
    for field in (GF2, GF(3), QQ):
        for _ in range(10):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            e, f = random_frame_pair(field, m, n, rng)
            trace = trace_induction(e, f)
            assert trace.levels[-1].coefficient_matrix == verify_basic_lemma(e, f).coefficient_matrix
            for level in trace.levels:
                f_span = span_of(level.f.seq)
                for i, (lmap, w) in enumerate(zip(level.maps, level.witnesses)):
                    assert not w.is_zero()
                    assert f_span.contains(w)
                    assert apply_map(lmap, w) == zero_vector(field, m)
                    # witness is a scalar multiple of the level's e_i
                    coords = tuple(coordinates(level.e, w))
                    assert all(not c for j, c in enumerate(coords) if j != i)
                    assert coords[i]
            assert check_certificate(trace.final_certificate)


def test_trace_witnesses_are_the_level_frames():
    """The kernel of map i on span(e) is the line through e[i], so the
    normalized witness is e[i] itself at every level."""
    rng = random.Random(29)
    for field in (GF2, GF(3), GF5, QQ):
        for _ in range(8):
            n = rng.randint(1, 5)
            e, f = random_frame_pair(field, rng.randint(n, 6), n, rng)
            for level in trace_induction(e, f).levels:
                assert len(level.witnesses) == (level.rank if level.rank > 1 else 0)
                for i, w in enumerate(level.witnesses):
                    assert w == level.e[i]


def test_steinitz_example():
    b = frame(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = frame(QQ, [[1, 1, 0], [0, 1, 1]])
    extended, picked, r = steinitz_extend(b, f)
    assert picked == (0,) and r == 1
    assert list(extended)[:2] == list(f)
    assert rank_seq(extended.seq) == 3


def test_steinitz_frame_already_basis():
    b = frame(GF2, [[1, 0], [0, 1]])
    f = frame(GF2, [[1, 1], [0, 1]])
    extended, picked, r = steinitz_extend(b, f)
    assert picked == () and r == 0
    assert list(extended) == list(f)


def test_steinitz_empty_frame():
    b = frame(GF5, [[1, 0], [0, 1]])
    f = Frame(sequence(GF5, [], ambient_dim=2))
    extended, picked, r = steinitz_extend(b, f)
    assert r == 2 and list(extended) == list(b)


def test_steinitz_rejects_non_basis():
    b = frame(QQ, [[1, 0, 0], [0, 1, 0]])
    f = frame(QQ, [[1, 1, 0]])
    with pytest.raises(NotAFrameError):
        steinitz_extend(b, f)


def test_steinitz_randomized():
    rng = random.Random(29)
    for field in (GF2, GF(3), QQ):
        for _ in range(20):
            m = rng.randint(1, 5)
            k = rng.randint(0, m)
            b = random_frame(field, m, m, rng)
            f = random_frame(field, m, k, rng)
            extended, picked, r = steinitz_extend(b, f)
            assert r == m - k
            assert list(picked) == sorted(picked)
            assert rank_seq(extended.seq) == m


def test_rank_bound_check_examples():
    base = sequence(GF2, [[1, 0], [0, 1]])
    derived = sequence(GF2, [[1, 1], [1, 0], [0, 1]])
    assert rank_bound_check(base, derived)

    base1 = sequence(QQ, [[1, 2]])
    multiples = sequence(QQ, [[2, 4], [3, 6], [0, 0]])
    assert rank_bound_check(base1, multiples)

    empty = sequence(QQ, [], ambient_dim=2)
    assert rank_bound_check(empty, sequence(QQ, [[0, 0]]))


def test_rank_bound_check_outside_span():
    base = sequence(QQ, [[1, 0]])
    with pytest.raises(ValueError):
        rank_bound_check(base, sequence(QQ, [[0, 1]]))


def test_rank_bound_check_random_combinations():
    rng = random.Random(37)
    for field in (GF2, GF(3), GF5, QQ):
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            base = random_sequence(field, m, n, rng)
            derived = sequence(field, [], ambient_dim=m)
            for _ in range(rng.randint(0, 2 * n)):
                coeffs = tuple(random_scalar(field, rng) for _ in range(n))
                derived = derived.append(lin_comb(base, coeffs))
            assert rank_bound_check(base, derived)


def test_certificate_serialization_round_trip():
    cert = verify_basic_lemma(std_e2(), skew_f2())
    text = render_certificate(cert)
    back = parse_certificate_text(text)
    assert back.coefficient_matrix == cert.coefficient_matrix
    assert list(back.e) == list(cert.e) and list(back.f) == list(cert.f)
    assert check_certificate(back)


def test_trace_rendering_is_deterministic():
    t1 = render_trace(trace_induction(std_e2(), skew_f2()))
    t2 = render_trace(trace_induction(std_e2(), skew_f2()))
    assert t1 == t2
    assert t1.startswith("trace\n") and t1.endswith("end\n")
