"""Differential tests against the step-by-step routes.

The engine answers basis extraction, Steinitz extension and each lower
trace level with one elimination each; a trace level reads its canonical
basis and inclusion matrix off the reduced rows of [fk | I].  The
references below keep the direct routes instead: a greedy scan that
recomputes the rank of every growing prefix, and, for the trace, the
canonical basis of span(fk), one annihilating map at a time applied to
each of its vectors, its canonical kernel, a normalization through domain
coordinates, and the fk-coordinates of each witness.  Both must agree with
the engine exactly.
"""

import random
from fractions import Fraction

import pytest

from exactspan import (
    GF,
    QQ,
    Frame,
    LinearMap,
    VecSequence,
    apply_map,
    basis_from_generators,
    build_annihilating_map,
    coordinates,
    kernel_basis,
    lin_comb,
    matrix,
    rank_seq,
    restricted_kernel_witness,
    sequence,
    span_of,
    steinitz_extend,
    trace_induction,
    zero_vector,
)
from exactspan import core
from exactspan.core import mat_product, matrix_from_columns
from exactspan.randgen import (
    random_frame,
    random_frame_pair,
    random_invertible_matrix,
    random_sequence,
    random_vector,
)
from test_kernels import BIG, rand_entry, rand_rows

FIELDS = (GF(2), GF(3), GF(5), QQ)
FIELD_IDS = ("gf2", "gf3", "gf5", "q")


def greedy_basis(gens):
    kept = VecSequence(gens.field, gens.ambient_dim, ())
    for v in gens:
        candidate = kept.append(v)
        if rank_seq(candidate) > len(kept):
            kept = candidate
    return kept


def greedy_steinitz(basis, fr):
    current, picked = fr.seq, []
    for idx, v in enumerate(basis):
        candidate = current.append(v)
        if rank_seq(candidate) > len(current):
            current = candidate
            picked.append(idx)
    return current, tuple(picked)


def per_map_kernel_witness(lmap, sub):
    if not span_of(lmap.domain_frame.seq).contains_seq(sub.canonical_basis):
        raise ValueError("subspace is not contained in the domain span")
    basis = sub.canonical_basis
    if len(basis) == 0:
        return None
    images = [apply_map(lmap, b) for b in basis]
    cols = matrix(
        lmap.field,
        [[img.entries[i] for img in images] for i in range(images[0].ambient_dim)],
        cols=len(images),
    )
    ker = kernel_basis(cols)
    if len(ker) == 0:
        return None
    witness = lin_comb(basis, ker[0].entries)
    lead = next(c for c in coordinates(lmap.domain_frame, witness) if c)
    return witness.scale(lead.inverse())


def per_map_trace(e, f):
    """(ek, fk, witnesses, C) for every level, one map at a time."""
    n = len(f)
    levels = []
    for k in range(1, n + 1):
        fk = f if k == n else Frame(VecSequence(f.field, f.ambient_dim, f.seq.values[:k]))
        ek = e if k == n else Frame(span_of(fk.seq).canonical_basis)
        if k == 1:
            levels.append((ek, fk, (), ((coordinates(fk, ek[0])[0],),)))
            continue
        fk_span = span_of(fk.seq)
        witnesses = tuple(
            per_map_kernel_witness(build_annihilating_map(ek, fk, i), fk_span) for i in range(k)
        )
        cols = [tuple(coordinates(fk, w)) for w in witnesses]
        levels.append((ek, fk, witnesses, tuple(tuple(cols[i][j] for i in range(k)) for j in range(k))))
    return levels


def with_zeros_and_repeats(seq, rng):
    items = list(seq)
    for _ in range(rng.randint(0, 3)):
        items.insert(rng.randint(0, len(items)), zero_vector(seq.field, seq.ambient_dim))
    for _ in range(rng.randint(0, 3)):
        if items:
            items.insert(rng.randint(0, len(items)), rng.choice(items))
    return VecSequence(seq.field, seq.ambient_dim, tuple(v.values for v in items))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_basis_matches_greedy_rank_prefix(field):
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(0, 5)
        gens = with_zeros_and_repeats(random_sequence(field, m, rng.randint(0, 6), rng), rng)
        assert basis_from_generators(gens).seq == greedy_basis(gens)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_basis_of_low_rank_generators(field):
    rng = random.Random(43)
    for _ in range(30):
        m = rng.randint(1, 5)
        base = random_sequence(field, m, rng.randint(0, 2), rng)
        combos = [lin_comb(base, random_vector(field, len(base), rng).entries) for _ in range(5)]
        gens = with_zeros_and_repeats(VecSequence(field, m, tuple(c.values for c in combos)), rng)
        assert basis_from_generators(gens).seq == greedy_basis(gens)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_steinitz_matches_greedy_rank_prefix(field):
    rng = random.Random(47)
    for _ in range(40):
        m = rng.randint(0, 5)
        basis = random_frame(field, m, m, rng)
        fr = random_frame(field, m, rng.randint(0, m), rng)
        extended, picked, r = steinitz_extend(basis, fr)
        current, greedy_picked = greedy_steinitz(basis, fr)
        assert (extended.seq, picked, r) == (current, greedy_picked, len(greedy_picked))


def assert_trace_matches_per_map_route(e, f):
    trace = trace_induction(e, f)
    got = [
        (level.e, level.f, level.witnesses, level.coefficient_matrix.entries)
        for level in trace.levels
    ]
    assert got == per_map_trace(e, f)
    for level in trace.levels:
        expected = [build_annihilating_map(level.e, level.f, i) for i in range(level.rank)]
        assert list(level.maps) == (expected if level.rank > 1 else [])


@pytest.mark.parametrize("field", FIELDS + (GF(65521),), ids=FIELD_IDS + ("gf65521",))
def test_trace_matches_per_map_route(field):
    rng = random.Random(53)
    for n in (*range(1, 9), 2, 3, 4, 5):
        e, f = random_frame_pair(field, rng.randint(n, n + 6), n, rng)
        assert_trace_matches_per_map_route(e, f)


def wide_q_frame_pair(rng, n, m, small_answers):
    """A Q frame pair (e, f) with e = f·A for a small invertible A, whose f
    has 20-bit entries, so that cleared, the rows [fk | I] are wider than a
    machine word.  With ``small_answers`` f = L·R for R in reduced echelon
    form and L unit lower triangular with small entries: each level's
    canonical basis R[:k] and transform L[:k, :k]^-1 are small, and the
    modular route certifies them; otherwise they are too large to
    reconstruct, and the route falls back to Bareiss."""
    if small_answers:
        pivots = sorted(rng.sample(range(m), n))
        r = [
            [Fraction(int(j == c)) if j <= c or j in pivots else rand_entry(rng, None, BIG) for j in range(m)]
            for c in pivots
        ]
        low = [[int(i == j) if j >= i else rng.randint(-9, 9) for j in range(n)] for i in range(n)]
        rows = [[sum(low[i][k] * r[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    else:
        rows = rand_rows(rng, None, n, m, BIG)
    f = Frame(sequence(QQ, rows))
    fa = mat_product(matrix_from_columns(f.seq), random_invertible_matrix(QQ, n, rng))
    return Frame(VecSequence(QQ, m, tuple(zip(*fa.values)))), f


def test_trace_matches_per_map_route_on_wide_q_rows(monkeypatch):
    """The lower levels, which eliminate fewer than n rows, reach the
    certified modular route and, when it certifies nothing, its Bareiss
    fallback."""
    rng = random.Random(54)
    helper = core._rref_rational_modular
    calls = []

    def counted(rows, n_cols):
        out = helper(rows, n_cols)
        calls.append((len(rows), out is not None))
        return out

    certified = set()
    for small_answers in (True, False):
        for n in (3, 5):
            e, f = wide_q_frame_pair(rng, n, n + 4, small_answers)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(core, "_rref_rational_modular", counted)
                trace_induction(e, f)
            certified.update(ok for rows, ok in calls if rows < n)
            assert_trace_matches_per_map_route(e, f)
    assert certified == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_witness_matches_per_map_route(field):
    rng = random.Random(59)
    for _ in range(40):
        m = rng.randint(1, 5)
        dom = random_frame(field, m, rng.randint(0, m), rng)
        out = rng.randint(1, 4)
        images = tuple(
            random_vector(field, out, rng) if rng.random() < 0.6 else zero_vector(field, out) for _ in dom
        )
        lmap = LinearMap(dom, VecSequence(field, out, tuple(v.values for v in images)))
        inside = tuple(
            lin_comb(dom.seq, random_vector(field, len(dom), rng).entries) for _ in range(rng.randint(0, 3))
        )
        sub = span_of(VecSequence(field, m, tuple(v.values for v in inside)))
        assert restricted_kernel_witness(lmap, sub) == per_map_kernel_witness(lmap, sub)
        if len(dom) < m:
            outside = span_of(VecSequence(field, m, tuple(v.values for v in inside + (random_vector(field, m, rng),))))
            if not span_of(dom.seq).contains_seq(outside.canonical_basis):
                with pytest.raises(ValueError):
                    restricted_kernel_witness(lmap, outside)
