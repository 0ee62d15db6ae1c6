"""Rational answers cross-checked without Bareiss.

The brute-force oracles cannot enumerate Q, so every rational rank and
membership answer here is compared with the same question over GF(p) for
p = 2^31 - 1 and p = 65521, answered by the prime-field kernels:

- rank over Q >= rank mod p, always (a minor that is nonzero mod p is
  nonzero over Q);
- equality whenever p divides no denominator and does not divide the
  determinant of the r x r pivot minor the Q engine reports, i.e. the
  submatrix on the pivot columns of the rows and of the columns.  That
  determinant is computed here with plain Fraction elimination and must be
  nonzero, which proves rank over Q >= r on its own.

Each row is first multiplied by the lcm of its denominators.  That changes
neither the rank nor the pivot columns over Q, and p then divides no
denominator, so the comparison covers every input.

Every ``solve_many`` witness must reproduce its target by substitution in
raw Fractions.

The Q engine itself reduces wide rows modulo one prime before it falls back
to Bareiss, for the reduced form and for the certified rank route that
``rank_matrix`` takes; that prime must be neither of the two used here, so
that this check stays independent of the engine.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from exactspan import GF, QQ, matrix, reduced_form, sequence, vector
from exactspan import core
from exactspan.core import rank_matrix, solve_many
from test_kernels import derived_rows

PRIMES = (2**31 - 1, 65521)


def test_primes_differ_from_the_engine_prime():
    assert core._Q_PRIME not in PRIMES


def fraction_det(rows):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def cleared(rows):
    """Each row times the lcm of its denominators: integer rows."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


def q_rank_and_minor(rows, n_cols):
    """Rank, pivot columns and pivot rows reported by the Q engine."""
    red = reduced_form(matrix(QQ, rows, cols=n_cols))
    cols_t = [list(col) for col in zip(*rows)] if rows else []
    red_t = reduced_form(matrix(QQ, cols_t, cols=len(rows)))
    assert red.rank == red_t.rank
    return red.rank, red.pivots, red_t.pivots


def p_rank(int_rows, n_cols, p):
    return reduced_form(matrix(GF(p), int_rows, cols=n_cols)).rank


def check_rank(rows, n_cols):
    """Cross-check one Q rank; returns (r, {p: equality required})."""
    r, piv_cols, piv_rows = q_rank_and_minor(rows, n_cols)
    int_rows = cleared(rows)
    det = fraction_det([[Fraction(int_rows[i][j]) for j in piv_cols] for i in piv_rows])
    assert det != 0, "the reported pivot minor is singular"
    required = {}
    for p in PRIMES:
        rp = p_rank(int_rows, n_cols, p)
        assert r >= rp
        required[p] = det.numerator % p != 0
        if required[p]:
            assert r == rp
    return r, required


def rand_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rational_rows(rng, n_rows, n_cols, height, rank=None):
    if rank is None:
        return [[rand_fraction(rng, height) for _ in range(n_cols)] for _ in range(n_rows)]
    left = rational_rows(rng, n_rows, rank, height)
    right = rational_rows(rng, rank, n_cols, height)
    return [[sum((lrow[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(n_cols)]
            for lrow in left]


def p_trap_rows(rng, n, p):
    """An integer n x n matrix of rank n - 1 mod p but, with high
    probability, rank n over Q: a rank n - 1 matrix plus p times noise."""
    base = cleared(rational_rows(rng, n, n, 9, rank=n - 1))
    return [[Fraction(x + p * rng.randint(-2, 2)) for x in row] for row in base]


def cases(seed):
    rng = random.Random(seed)
    for n_rows, n_cols in ((1, 1), (3, 3), (4, 6), (6, 4), (5, 5), (7, 3), (2, 8)):
        for height in (9, 2**20):
            yield rational_rows(rng, n_rows, n_cols, height), n_cols
            yield rational_rows(rng, n_rows, n_cols, height, rank=rng.randint(0, min(n_rows, n_cols))), n_cols
    for p in PRIMES:
        for n in (2, 3, 5):
            yield p_trap_rows(rng, n, p), n


@pytest.mark.parametrize("seed", range(6))
def test_q_rank_agrees_with_reduction_mod_p(seed):
    for rows, n_cols in cases(seed):
        check_rank(rows, n_cols)


def test_p_trap_needs_the_determinant_condition():
    # rank 2 over Q, rank 1 mod 65521: the pivot minor is 65521
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + 65521)]]
    r, required = check_rank(rows, 2)
    assert r == 2 and p_rank(cleared(rows), 2, 65521) == 1
    assert required == {2**31 - 1: True, 65521: False}


def substitute(coeffs, vectors, n_cols):
    acc = [Fraction(0)] * n_cols
    for c, v in zip(coeffs, vectors):
        acc = [a + c * x for a, x in zip(acc, v)]
    return acc


@pytest.mark.parametrize("seed", range(6))
def test_q_membership_witnesses_and_mod_p_agreement(seed):
    rng = random.Random(1000 + seed)
    for rows, n_cols in cases(seed):
        if not rows:
            continue
        inside = substitute([Fraction(rng.randint(-3, 3)) for _ in rows], rows, n_cols)
        targets = [inside, [rand_fraction(rng, 9) for _ in range(n_cols)]]
        seq = sequence(QQ, rows)
        sols = solve_many(seq, [vector(QQ, t) for t in targets])
        r, req = check_rank(rows, n_cols)
        for t, sol in zip(targets, sols):
            if sol is not None:
                assert substitute([s.value for s in sol], rows, n_cols) == t
            r_ext, req_ext = check_rank(rows + [t], n_cols)
            assert (sol is not None) == (r_ext == r)
            for p in PRIMES:
                if req[p] and req_ext[p]:
                    sols_p = solve_many(sequence(GF(p), cleared(rows)), [vector(GF(p), cleared([t])[0])])
                    assert (sols_p[0] is not None) == (sol is not None)
        assert sols[0] is not None


@pytest.mark.parametrize("seed", range(4))
def test_rank_route_agrees_with_reduction_mod_p(seed, monkeypatch):
    """``rank_matrix`` over Q, which certifies wide ranks modulo the engine's
    prime, against the bounds at the two primes here: at least the rank mod
    p, equal to it when p misses the pivot minor, and equal to the rank of
    the reduced form, whose pivot minor is checked to be nonsingular."""
    outcomes = []
    route = core._rank_rational_modular

    def counted(*args):
        out = route(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(core, "_rank_rational_modular", counted)
    rng = random.Random(2000 + seed)
    route_cases = [(derived_rows(rng, n_rows, n_cols, rank), n_cols)
                   for n_rows, n_cols, rank in ((8, 8, 6), (12, 6, 5), (6, 9, 4))]
    for rows, n_cols in list(cases(seed)) + route_cases:
        r_route = rank_matrix(matrix(QQ, rows, cols=n_cols))
        r, required = check_rank(rows, n_cols)
        assert r_route == r
        for p in PRIMES:
            rp = p_rank(cleared(rows), n_cols, p)
            assert r_route >= rp
            if required[p]:
                assert r_route == rp
    assert True in outcomes and False in outcomes
