"""Differential tests of the elimination kernels.

The reduced echelon form is unique, so every kernel must return exactly the
rows and pivots of the plain Gauss-Jordan and Bareiss kernels kept below as
references: the GF(2) bit-packed kernel and the GF(p) Kronecker-packed
kernel against ``ref_rref_mod_p``, the Q kernel with integer
back-substitution against ``ref_rref_rational``.
"""

import random
from fractions import Fraction
from math import gcd
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from exactspan import GF, QQ, core, matrix, reduced_form
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


# -- the packed GF(p) kernel --------------------------------------------------
#
# _rref_mod_p packs each row into one int and reduces slots only when read;
# the slot width grows with k = min(rows, cols).  The cases run from k = 1
# to k = 64 and include the inputs that drive a slot to its bound
# p - 1 + k·(p - 1)².

PACKED_PRIMES = (3, 5, 65521, 2**31 - 1, 2**61 - 1, 2**127 - 1)
PACKED_IDS = ["gf3", "gf5", "gf65521", "m31", "m61", "m127"]


def max_growth_rows(p, n_rows, n_cols):
    """Full-rank rows on which each elimination step puts 1 in the pivot
    column from the pivot row down and p - 1 right of the pivot in the pivot
    row, so every row below the pivot gains (p - 1)² in every slot right of
    it: a row below the k-th one ends within 2 % of the bound at k = 64."""
    if not n_rows or not n_cols:
        return [[0] * n_cols for _ in range(n_rows)]
    below = max_growth_rows(p, n_rows - 1, n_cols - 1)
    return [[1] + [p - 1] * (n_cols - 1)] + [[1] + [(x - 1) % p for x in row] for row in below]


def with_zero_lines(rng, rows):
    """The rows with about a quarter of the rows and columns set to zero."""
    n_cols = len(rows[0]) if rows else 0
    cols = [j for j in range(n_cols) if rng.random() < 0.25]
    out = []
    for row in rows:
        row = [0] * n_cols if rng.random() < 0.25 else list(row)
        for j in cols:
            row[j] = 0
        out.append(row)
    return out


def packed_cases(rng, p):
    """Empty and degenerate shapes; k = 1 to 4 in square, wide and tall
    shapes, full-rank, rank-deficient and with zero rows and columns; larger
    shapes up to k = 64; all entries p - 1; and the maximal-growth rows,
    square, wide and tall."""
    yield []
    yield [[] for _ in range(4)]
    yield [[0] * 5 for _ in range(4)]
    for k in (1, 2, 3, 4):
        for n_rows, n_cols in ((k, k), (k, 3 * k), (3 * k, k)):
            yield rand_rows(rng, p, n_rows, n_cols, SMALL)
            yield rand_rows(rng, p, n_rows, n_cols, SMALL, rank=rng.randint(0, k - 1))
            yield with_zero_lines(rng, rand_rows(rng, p, n_rows, n_cols, SMALL))
    for n_rows, n_cols in ((8, 8), (16, 40), (40, 16), (33, 33), (64, 64)):
        yield rand_rows(rng, p, n_rows, n_cols, SMALL, rank=min(n_rows, n_cols) * 3 // 4)
    yield rand_rows(rng, p, 64, 64, SMALL)
    yield with_zero_lines(rng, rand_rows(rng, p, 24, 30, SMALL))
    for n_rows, n_cols in ((3, 3), (20, 7), (64, 64)):
        yield [[p - 1] * n_cols for _ in range(n_rows)]
    for n_rows, n_cols in ((4, 3), (16, 16), (17, 16), (33, 32), (20, 48), (70, 64)):
        yield max_growth_rows(p, n_rows, n_cols)


@pytest.mark.parametrize("p", PACKED_PRIMES, ids=PACKED_IDS)
def test_packed_kernel_matches_reference(p):
    rng = random.Random(f"packed/{p}")
    for rows in packed_cases(rng, p):
        assert_same(rows, p)


@pytest.mark.parametrize("p", PACKED_PRIMES, ids=PACKED_IDS)
def test_max_growth_rows_reach_the_slot_bound(p):
    """The maximal-growth input really drives a slot near p - 1 + k·(p - 1)²:
    replay the packed kernel's updates on unbounded lists and take the
    largest unreduced entry."""
    n_rows, n_cols = 70, 64
    rows = max_growth_rows(p, n_rows, n_cols)
    peak, r = 0, 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n_rows):
            f = rows[i][c] % p
            if f and i != r:
                rows[i] = [x + (p - f) * y for x, y in zip(rows[i], rows[r])]
                peak = max(peak, *rows[i])
        r += 1
    bound = p - 1 + n_cols * (p - 1) ** 2
    assert r == n_cols and 0.98 * bound < peak <= bound


@st.composite
def packed_inputs(draw):
    """GF(p) rows up to 40 x 40 over the primes above and 7: random, of a
    drawn rank, all p - 1, or maximal growth, optionally with zero rows and
    columns; the entries come from a drawn seed."""
    p = draw(st.sampled_from(PACKED_PRIMES + (7,)))
    n_rows = draw(st.integers(0, 40))
    n_cols = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "rank", "all_p_minus_1", "max_growth"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        rows = rand_rows(rng, p, n_rows, n_cols, SMALL)
    elif kind == "rank":
        rows = rand_rows(rng, p, n_rows, n_cols, SMALL, rank=draw(st.integers(0, min(n_rows, n_cols))))
    elif kind == "all_p_minus_1":
        rows = [[p - 1] * n_cols for _ in range(n_rows)]
    else:
        rows = max_growth_rows(p, n_rows, n_cols)
    if draw(st.booleans()):
        rows = with_zero_lines(rng, rows)
    return p, rows


@settings(max_examples=150, deadline=None)
@given(packed_inputs())
def test_packed_kernel_matches_reference_hypothesis(case):
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


# -- the certified modular route over Q --------------------------------------
#
# Rows whose cleared entries are wider than a machine word first go through
# one elimination mod core._Q_PRIME and rational reconstruction; the result
# is kept only when substitution certifies it, and Bareiss runs otherwise.

P = core._Q_PRIME


@pytest.fixture
def routes(monkeypatch):
    """Counts of the modular route's outcomes, by wrapping its helper."""
    seen = {"accepted": 0, "fell_back": 0}
    helper = core._rref_rational_modular

    def counted(*args):
        out = helper(*args)
        seen["accepted" if out is not None else "fell_back"] += 1
        return out

    monkeypatch.setattr(core, "_rref_rational_modular", counted)
    return seen


def q_rows(int_rows):
    return [[Fraction(x) for x in row] for row in int_rows]


def small_answer_rows(rng, n_rows, n_cols):
    """20-bit rows L·[I | X] with X of height 9, so the RREF is [I | X]."""
    left = rand_rows(rng, None, n_rows, n_rows, BIG)
    right = [[Fraction(int(i == j)) for j in range(n_rows)]
             + [Fraction(rng.randint(-SMALL, SMALL)) for _ in range(n_cols - n_rows)]
             for i in range(n_rows)]
    return [[sum((lrow[k] * right[k][j] for k in range(n_rows)), Fraction(0))
             for j in range(n_cols)] for lrow in left]


@pytest.mark.parametrize("n_rows,n_cols", [(8, 8), (12, 12), (6, 12), (10, 20)])
def test_modular_route_certifies_small_answers(routes, n_rows, n_cols):
    rng = random.Random(f"cert/{n_rows}/{n_cols}")
    for _ in range(3):
        assert_same(small_answer_rows(rng, n_rows, n_cols), None)
    assert routes == {"accepted": 3, "fell_back": 0}


def test_modular_route_certifies_rank_one_20bit(routes):
    rng = random.Random("rank1")
    for _ in range(3):
        assert_same(rand_rows(rng, None, 10, 10, BIG, rank=1), None)
    assert routes == {"accepted": 3, "fell_back": 0}


@pytest.mark.parametrize("n_rows,n_cols,rank", [(12, 12, 9), (16, 8, 6), (8, 16, 8), (6, 6, 5)])
def test_modular_route_falls_back_on_large_answers(routes, n_rows, n_cols, rank):
    rng = random.Random(f"fallback/{n_rows}/{rank}")
    for _ in range(3):
        assert_same(rand_rows(rng, None, n_rows, n_cols, BIG, rank=rank), None)
    assert routes == {"accepted": 0, "fell_back": 3}


@pytest.mark.parametrize(
    "int_rows,outcome",
    [
        ([[1, 1], [1, 1 + P]], "fell_back"),  # rank 2 over Q, 1 mod P
        ([[P, 2 * P]], "fell_back"),  # rank 0 mod P: every column is checked
        ([[P, 2 * P], [3 * P, 5 * P]], "fell_back"),
        ([[P, 1, 3], [1, 0, 5]], "fell_back"),  # right RREF entry 3 - 5P
        ([[P, 1, 2], [1, 0, 0]], "accepted"),  # P | entries, not the pivot minor
        ([[2 * P, 1], [1, 0]], "accepted"),
        ([[P + 1, 2 * P + 2, 1], [P + 1, 2 * P + 2, 2]], "accepted"),
    ],
    ids=["unlucky_prime", "all_multiples", "all_multiples_square", "large_answer",
         "multiple_entries_wide", "multiple_entries_square", "shared_factor"],
)
def test_modular_route_around_the_prime(routes, int_rows, outcome):
    assert_same(q_rows(int_rows), None)
    assert routes[outcome] == 1 and sum(routes.values()) == 1


def test_word_sized_rows_stay_on_bareiss(routes):
    rng = random.Random(62)
    edge = 2**62 - 1
    for _ in range(4):
        for rows in shapes(rng, None, SMALL):
            assert_same(rows, None)
        assert_same(q_rows([[edge, 1], [3, -edge]]), None)
    assert routes == {"accepted": 0, "fell_back": 0}
    assert_same(q_rows([[edge + 1, 1], [3, 5]]), None)
    assert routes == {"accepted": 1, "fell_back": 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(-core._Q_BOUND, core._Q_BOUND), st.integers(1, core._Q_BOUND))
def test_reconstruct_inverts_reduction_within_the_bound(a, b):
    x = a * pow(b, -1, P) % P
    assert core._reconstruct(x, P, core._Q_BOUND) == Fraction(a, b)


# -- the certified rank route over Q -----------------------------------------
#
# rank_matrix over Q builds no reduced form.  Rows whose cleared entries are
# wider than a machine word get a rank mod core._Q_PRIME (a lower bound) and,
# when that is below min(rows, cols), one reconstructed relation of the
# rational rows per non-pivot row, each checked exactly (the upper bound).
# Anything else falls back to the Bareiss forward pass.

HUGE = 2**70


def ref_rank_matrix(m):
    """rank_matrix as it was before the rank route: the reduced form's rank."""
    return reduced_form(m).rank


def assert_rank(rows, n_cols):
    m = matrix(QQ, rows, cols=n_cols)
    assert core.rank_matrix(m) == ref_rank_matrix(m)


@pytest.fixture
def rank_routes(monkeypatch):
    """Counts of the rank route's outcomes, by wrapping its function."""
    seen = {"accepted": 0, "fell_back": 0}
    route = core._rank_rational_modular

    def counted(*args):
        out = route(*args)
        seen["accepted" if out is not None else "fell_back"] += 1
        return out

    monkeypatch.setattr(core, "_rank_rational_modular", counted)
    return seen


@st.composite
def q_rank_inputs(draw):
    """Q matrices up to 7 x 7 at heights 9, 2^20 and 2^70: dense, or a product
    of random factors (any rank), with some rows zeroed; optionally every
    entry times P (rank 0 mod P), or some rows divided by P (P divides their
    denominators)."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    height = draw(st.sampled_from([SMALL, BIG, HUGE]))
    entry = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        rows = block(n_rows, n_cols)
    else:
        rank = draw(st.integers(0, min(n_rows, n_cols)))
        left, right = block(n_rows, rank), block(rank, n_cols)
        rows = [[sum((lrow[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(n_cols)]
                for lrow in left]
    for i in draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=n_rows)):
        if i < n_rows:
            rows[i] = [Fraction(0)] * n_cols
    twist = draw(st.sampled_from(["none", "times_p", "over_p"]))
    if twist == "times_p":
        rows = [[x * P for x in row] for row in rows]
    elif twist == "over_p":
        over = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=n_rows))
        rows = [[x / P for x in row] if i in over else row for i, row in enumerate(rows)]
    return rows, n_cols


@settings(max_examples=300, deadline=None)
@given(q_rank_inputs())
def test_rank_matches_reference_hypothesis(case):
    assert_rank(*case)


@pytest.mark.parametrize("height", [SMALL, BIG, HUGE], ids=["small", "20bit", "70bit"])
def test_rank_matches_reference_on_shapes(height):
    rng = random.Random(f"rank/{height}")
    for _ in range(4):
        for rows in shapes(rng, None, height):
            assert_rank(rows, len(rows[0]) if rows else 0)
    for n_cols in (0, 3):
        assert_rank([], n_cols)


def derived_rows(rng, n_rows, n_cols, rank):
    """``rank`` independent 20-bit rows, each made dominant on its own column,
    and n_rows - rank rows each the sum of two of them with coefficients in
    {±1, ±2}, shuffled: the shape of the benchmark's rank-deficient sets.
    Every relation is small, and the rows' cleared denominators are large
    and differ from row to row."""
    base = []
    for i in range(rank):
        row = [rand_entry(rng, None, BIG) for _ in range(n_cols)]
        row[i] = Fraction(sum(abs(x) for x in row) // 1 + 1)
        base.append(row)
    rows = [list(b) for b in base]
    for _ in range(n_rows - rank):
        (j, a), (k, b) = [(j, rng.choice((1, -1, 2, -2))) for j in rng.sample(range(rank), 2)]
        rows.append([a * x + b * y for x, y in zip(base[j], base[k])])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("n_rows,n_cols,rank", [(12, 12, 9), (24, 12, 9), (16, 16, 12), (24, 24, 18)])
def test_rank_route_certifies_small_relations(rank_routes, n_rows, n_cols, rank):
    rng = random.Random(f"relations/{n_rows}/{n_cols}")
    for _ in range(3):
        rows = derived_rows(rng, n_rows, n_cols, rank)
        m = matrix(QQ, rows)
        assert core.rank_matrix(m) == rank == ref_rank_matrix(m)
    assert rank_routes == {"accepted": 3, "fell_back": 0}


@pytest.mark.parametrize("n_rows,n_cols,rank", [(12, 12, 9), (16, 8, 6), (8, 16, 5)])
def test_rank_route_falls_back_on_dense_relations(rank_routes, n_rows, n_cols, rank):
    rng = random.Random(f"dense/{n_rows}/{rank}")
    for _ in range(3):
        rows = rand_rows(rng, None, n_rows, n_cols, BIG, rank=rank)
        m = matrix(QQ, rows)
        assert core.rank_matrix(m) == rank == ref_rank_matrix(m)
    assert rank_routes == {"accepted": 0, "fell_back": 3}


def test_rank_route_full_rank_needs_no_relation(rank_routes, monkeypatch):
    rng = random.Random("full")
    cases = [matrix(QQ, rand_rows(rng, None, r, c, BIG)) for r, c in ((6, 6), (4, 9), (9, 4))]
    expected = [min(m.rows, m.cols) for m in cases]
    assert [ref_rank_matrix(m) for m in cases] == expected
    reconstructed = []
    monkeypatch.setattr(core, "_reconstruct", lambda *a: reconstructed.append(a))
    assert [core.rank_matrix(m) for m in cases] == expected
    assert rank_routes == {"accepted": 3, "fell_back": 0} and reconstructed == []


@pytest.mark.parametrize(
    "int_rows,rank,outcome",
    [
        ([[1, 1], [1, 1 + P]], 2, "fell_back"),  # rank 1 mod P: its relation fails
        ([[P, 2 * P], [3 * P, 5 * P]], 2, "fell_back"),  # rank 0 mod P
        ([[P, 2 * P], [2 * P, 4 * P]], 1, "fell_back"),
        ([[1, 0], [2, 0], [1, P]], 2, "fell_back"),  # a true relation, then a false one
        ([[1, 0], [1, P], [2, 0]], 2, "fell_back"),  # a false relation, then a true one
        ([[1, 0], [2, 0], [3, 0], [1, P]], 2, "fell_back"),
        ([[1, 0], [2, 0], [3, 0], [0, P]], 2, "fell_back"),  # row 3 is zero mod P
        ([[1, 0], [2, 0], [3, 0], [0, 2**70]], 2, "accepted"),
        ([[P, 1], [2 * P, 2], [1, 0]], 2, "accepted"),
        ([[P + 1, 2], [2 * P + 2, 4]], 1, "accepted"),
    ],
    ids=["unlucky_prime", "zero_mod_p", "zero_mod_p_deficient", "true_then_false",
         "false_then_true", "two_true_one_false", "zero_row_mod_p", "two_true", "multiple_entries", "shared_factor"],
)
def test_rank_route_around_the_prime(rank_routes, int_rows, rank, outcome):
    m = matrix(QQ, int_rows)
    assert core.rank_matrix(m) == rank == ref_rank_matrix(m)
    assert rank_routes[outcome] == 1 and sum(rank_routes.values()) == 1


@pytest.mark.parametrize(
    "rows,rank",
    [
        ([[Fraction(2**70, P), Fraction(1, P)], [Fraction(2**71, P), Fraction(2, P)]], 1),
        ([[Fraction(2**70), Fraction(1)], [Fraction(2**71, P), Fraction(2, P)]], 1),
        ([[Fraction(2**70, P), Fraction(1, P)], [Fraction(2**71), Fraction(2)]], 1),
        ([[Fraction(1, P), Fraction(2**70)], [Fraction(1, 3 * P), Fraction(5)]], 2),
    ],
    ids=["both_rows", "free_row", "pivot_row", "full_rank"],
)
def test_rank_route_with_p_in_a_denominator(rank_routes, rows, rank):
    """When P divides a row's denominators, the inverse of d_f may not exist:
    the route falls back instead of raising."""
    m = matrix(QQ, rows)
    assert core.rank_matrix(m) == rank == ref_rank_matrix(m)
    assert sum(rank_routes.values()) == 1


def test_word_sized_rows_skip_the_rank_route(rank_routes):
    rng = random.Random(63)
    edge = 2**62 - 1
    for rows in shapes(rng, None, SMALL):
        assert_rank(rows, len(rows[0]) if rows else 0)
    assert_rank(q_rows([[edge, 1], [-edge, -1]]), 2)
    assert rank_routes == {"accepted": 0, "fell_back": 0}
    assert_rank(q_rows([[edge + 1, 1], [2 * edge + 2, 2]]), 2)
    assert rank_routes == {"accepted": 1, "fell_back": 0}


def test_rank_makes_no_back_substitution(monkeypatch):
    def forbidden(*args):
        raise AssertionError("back-substitution ran for a rank")

    monkeypatch.setattr(core, "_back_substitute", forbidden)
    rng = random.Random("forward")
    for height in (SMALL, BIG):
        for rows in shapes(rng, None, height):
            m = matrix(QQ, rows, cols=len(rows[0]) if rows else 0)
            core.rank_matrix(m)
