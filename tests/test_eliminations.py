"""Eliminations per public question, pinned as regression guards.

Every elimination but a rank over Q goes through ``reduced_form``; a Q rank
runs the certified rank route or a Bareiss forward pass without building a
reduced form (see ``test_kernels.py``), and the pins below count it as
none.  Modules import ``reduced_form`` by name
(``from .core import reduced_form``), so each of core, spans and lemma holds
its own binding and the counter wraps all three.  Frames are built before
counting starts: building a ``Frame`` checks independence with at most one
elimination of its own, none for a sequence in echelon form.

The engine works on raw canonical values, so it makes no ``Field.scalar``
call on inputs that are already built, except for the lead normalisation of
each trace witness; a second counter wraps that method, and a third counts
every ``Scalar`` constructed.
"""

import random

import pytest

from exactspan import (
    GF,
    QQ,
    Field,
    Scalar,
    VecSequence,
    apply_map,
    build_annihilating_map,
    basis_from_generators,
    Frame,
    change_of_basis,
    coordinates,
    dimension,
    enum_span,
    extend_frame,
    is_frame,
    is_maximal_in,
    member,
    member_bruteforce,
    rank_bruteforce,
    rank_seq,
    sequence,
    solve_in_span,
    span_of,
    steinitz_extend,
    trace_induction,
    verify_basic_lemma,
)
from exactspan import core, lemma, spans
from exactspan.core import kernel_basis, matrix_from_columns, matrix_from_rows, reduced_form, solve_many
from exactspan.randgen import random_frame, random_frame_pair, random_sequence, random_vector
from exactspan.textio import parse_matrix_text, render_sequence
from test_kernels import BIG, derived_rows, rand_rows

FIELDS = (GF(2), GF(3), GF(5), QQ)


@pytest.fixture
def eliminations(monkeypatch):
    """Run a call and return how many eliminations it made."""
    calls = []
    original = core.reduced_form

    def counted(m):
        calls.append((m.rows, m.cols))
        return original(m)

    for module in (core, spans, lemma):
        monkeypatch.setattr(module, "reduced_form", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    return count


def frame_pairs(seed, count=8, max_n=5):
    rng = random.Random(seed)
    for field in FIELDS:
        for _ in range(count):
            n = rng.randint(1, max_n)
            yield random_frame_pair(field, rng.randint(n, max_n + 1), n, rng)


def test_verify_basic_lemma_makes_one(eliminations):
    """One solve finds the coefficients and, for frames of equal length,
    also decides the precondition."""
    for e, f in frame_pairs(1):
        assert eliminations(verify_basic_lemma, e, f) == 1


def test_change_of_basis_makes_two(eliminations):
    for e, f in frame_pairs(2):
        assert eliminations(change_of_basis, e, f) == 2


def test_contains_seq_makes_one(eliminations):
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(8):
            m = rng.randint(1, 5)
            sub = span_of(random_sequence(field, m, rng.randint(0, m), rng))
            inside = tuple(sub.canonical_basis)
            outside = tuple(random_vector(field, m, rng) for _ in range(rng.randint(0, 4)))
            for items in ((), inside, inside + outside):
                seq = VecSequence(field, m, items)
                assert eliminations(sub.contains_seq, seq) == 1


def test_is_maximal_in_makes_two(eliminations):
    """One elimination for the subspace's canonical basis, one for the
    containment solve; the span comparison itself costs none."""
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(8):
            m = rng.randint(1, 5)
            gens = random_sequence(field, m, rng.randint(0, 6), rng)
            fr = basis_from_generators(VecSequence(field, m, gens.items[: rng.randint(0, len(gens))]))
            sub = span_of(gens)
            assert eliminations(is_maximal_in, fr, sub) == 2
            assert is_maximal_in(fr, span_of(gens)) == (len(fr) == rank_seq(gens))


def test_basis_from_generators_makes_at_most_two(eliminations):
    rng = random.Random(4)
    for field in FIELDS:
        for _ in range(8):
            gens = random_sequence(field, rng.randint(1, 6), rng.randint(0, 12), rng)
            assert eliminations(basis_from_generators, gens) <= 2


def test_steinitz_extend_makes_at_most_two(eliminations):
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(8):
            m = rng.randint(1, 6)
            basis = random_frame(field, m, m, rng)
            fr = random_frame(field, m, rng.randint(0, m), rng)
            assert eliminations(steinitz_extend, basis, fr) <= 2


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_trace_induction_is_linear_in_n(eliminations, n):
    """The top level makes one solve; each lower level checks its prefix
    frame, builds the canonical basis of its span and makes one solve.  The
    canonical frame is in echelon form, so checking it costs none."""
    rng = random.Random(6)
    for field in FIELDS:
        e, f = random_frame_pair(field, n + 1, n, rng)
        assert eliminations(trace_induction, e, f) <= 3 * n - 2


def test_echelon_frames_need_no_rank(monkeypatch):
    """A canonical or standard basis is certified by its echelon form."""
    monkeypatch.setattr(spans, "rank_seq", lambda seq: pytest.fail("rank computed"))
    rng = random.Random(14)
    for field in FIELDS:
        for m in range(7):
            assert is_frame(sequence(field, [[int(i == j) for j in range(m)] for i in range(m)], ambient_dim=m))
            basis = span_of(random_sequence(field, m, rng.randint(0, 8), rng)).canonical_basis
            assert Frame(basis).seq is basis


def test_span_of_makes_none(eliminations):
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(8):
            seq = random_sequence(field, rng.randint(0, 6), rng.randint(0, 8), rng)
            assert eliminations(span_of, seq) == 0


@pytest.mark.parametrize("small_relations", [True, False], ids=["small_relations", "dense_relations"])
def test_q_rank_and_dimension_make_none(eliminations, small_relations):
    rng = random.Random(9)
    for n_rows, n_cols, rank in ((12, 12, 9), (16, 8, 6), (6, 10, 4)):
        if small_relations:
            rows = derived_rows(rng, n_rows, n_cols, rank)
        else:
            rows = rand_rows(rng, None, n_rows, n_cols, BIG, rank=rank)
        seq = sequence(QQ, rows)
        assert eliminations(rank_seq, seq) == 0
        assert eliminations(lambda: dimension(span_of(seq))) == 0
        assert rank_seq(seq) == dimension(span_of(seq)) == rank


def test_canonical_basis_is_built_once(eliminations):
    rng = random.Random(10)
    for field in FIELDS:
        for _ in range(8):
            seq = random_sequence(field, rng.randint(0, 6), rng.randint(0, 8), rng)
            sub = span_of(seq)
            assert eliminations(lambda: sub.canonical_basis) == 1
            basis = sub.canonical_basis
            assert eliminations(lambda: sub.canonical_basis) == 0
            assert eliminations(lambda: sub.dim) == 0
            assert eliminations(hash, sub) == 0
            assert sub.canonical_basis is basis


def test_dim_is_the_dimension_before_and_after_the_basis():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(8):
            seq = random_sequence(field, rng.randint(0, 6), rng.randint(0, 8), rng)
            rank = reduced_form(matrix_from_rows(seq)).rank
            sub = span_of(seq)
            assert sub.dim == rank
            assert len(sub.canonical_basis) == rank
            assert sub.dim == rank
            assert span_of(seq).dim == rank


def test_subspace_equality_and_hash_follow_canonical_bases():
    rng = random.Random(12)
    for field in FIELDS:
        subs = []
        for _ in range(10):
            m = rng.randint(0, 3)
            gens = random_sequence(field, m, rng.randint(0, 5), rng)
            sub = span_of(gens)
            basis = basis_from_generators(gens).seq
            same = (span_of(basis), span_of(sub.canonical_basis), span_of(VecSequence(field, m, gens.items * 2)))
            for other in same:
                assert span_of(gens) == other and hash(span_of(gens)) == hash(other)
            subs += [sub, *same]
        for a in subs:
            for b in subs:
                same_basis = (a.field, a.ambient_dim, a.canonical_basis) == (b.field, b.ambient_dim, b.canonical_basis)
                assert (a == b) == same_basis
                if same_basis:
                    assert hash(a) == hash(b)


@pytest.fixture
def scalar_calls(monkeypatch):
    """Run a call and return how many times it called ``Field.scalar``."""
    calls = []
    original = Field.scalar

    def counted(field, value):
        calls.append(value)
        return original(field, value)

    monkeypatch.setattr(Field, "scalar", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    return count


@pytest.fixture
def scalars_made(monkeypatch):
    """Run a call and return how many ``Scalar`` objects it constructed."""
    made = []
    original = Scalar.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counted)

    def count(fn, *args):
        made.clear()
        fn(*args)
        return len(made)

    return count


def test_engine_makes_no_field_scalar_calls(scalar_calls, scalars_made):
    rng = random.Random(7)
    for field in FIELDS + (GF(65521),):
        for _ in range(8):
            m = rng.randint(0, 6)
            seq = random_sequence(field, m, rng.randint(0, 8), rng)
            targets = tuple(random_vector(field, m, rng) for _ in range(3)) + tuple(seq)[:2]
            columns = matrix_from_columns(seq)
            text = render_sequence(seq)
            assert scalar_calls(reduced_form, columns) == 0
            assert scalar_calls(solve_many, seq, targets) == 0
            assert scalar_calls(kernel_basis, columns) == 0
            assert scalar_calls(span_of, seq) == 0
            assert scalars_made(span_of, seq) == 0
            assert scalars_made(kernel_basis, columns) == 0
            assert scalars_made(matrix_from_rows, seq) == 0
            assert scalars_made(matrix_from_columns, seq) == 0
            assert scalars_made(parse_matrix_text, text) == 0
            assert scalars_made(span_of(seq).contains_seq, VecSequence(field, m, targets)) == 0
    for field in (GF(2), GF(3), GF(5)):
        seq, x = random_sequence(field, 3, 4, rng), random_vector(field, 3, rng)
        assert scalars_made(enum_span, seq) == 0
        assert scalars_made(member_bruteforce, seq, x) == 0
        assert scalars_made(rank_bruteforce, seq) == 0
    for e, f in frame_pairs(7, count=3):
        head = Frame(VecSequence(e.field, e.ambient_dim, e.seq.items[:-1]))
        sub = span_of(f.seq)
        assert scalars_made(extend_frame, head, sub) == 0
        assert scalars_made(change_of_basis, e, f) == 0
        assert scalars_made(verify_basic_lemma, e, f) == 0
        lmap = build_annihilating_map(e, f, 0)
        assert scalars_made(apply_map, lmap, f[-1]) == 0
        # only the lead normalisation of each witness boxes a scalar
        witnesses = sum(len(level.witnesses) for level in trace_induction(e, f).levels)
        assert scalar_calls(trace_induction, e, f) <= witnesses
        # the public solves all box the same coefficients into one plain tuple
        basis, x = sub.canonical_basis, f[-1]
        answers = (member(sub, x), coordinates(Frame(basis), x), solve_in_span(basis, x))
        assert all(type(a) is tuple and all(type(c) is Scalar for c in a) for a in answers)
        assert answers[0] == answers[1] == answers[2]
