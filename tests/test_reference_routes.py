"""Differential tests against the step-by-step routes.

The engine answers basis extraction, Steinitz extension and the per-level
trace witnesses with one elimination each.  The references below keep the
direct routes instead: a greedy scan that recomputes the rank of every
growing prefix, and, for the trace, one annihilating map at a time applied
to each basis vector of span(fk), its canonical kernel and a normalization
through domain coordinates.  Both must agree with the engine exactly.
"""

import random

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
    span_of,
    steinitz_extend,
    trace_induction,
    zero_vector,
)
from exactspan.randgen import random_frame, random_frame_pair, random_sequence, random_vector

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


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_trace_matches_per_map_route(field):
    rng = random.Random(53)
    for _ in range(12):
        n = rng.randint(1, 5)
        e, f = random_frame_pair(field, rng.randint(n, 6), n, rng)
        trace = trace_induction(e, f)
        got = [
            (level.e, level.f, level.witnesses, level.coefficient_matrix.entries)
            for level in trace.levels
        ]
        assert got == per_map_trace(e, f)
        for level in trace.levels:
            expected = [build_annihilating_map(level.e, level.f, i) for i in range(level.rank)]
            assert list(level.maps) == (expected if level.rank > 1 else [])


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
