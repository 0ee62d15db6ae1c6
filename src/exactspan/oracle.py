"""Definition-level brute-force reference implementations over small
finite fields.

Everything here enumerates: spans are computed as the set of all linear
combinations, membership by trying every coefficient tuple, rank as the
longest subsequence whose only vanishing combination is trivial.  It
computes on residues mod p with plain int arithmetic and makes no
``Scalar``; besides the vector containers it takes from the engine only
the canonical basis from which ``maximality_bruteforce`` enumerates a
subspace, so that agreement between the two is a meaningful cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple

from .core import VecSequence, Vector
from .field import Field
from .spans import Frame, Subspace


class BudgetExceededError(ValueError):
    """Requested enumeration is outside the configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    max_field_size: int = 5
    max_ambient_dim: int = 4
    max_sequence_len: int = 4

    def check(self, field: Field, ambient_dim: int, seq_len: int) -> None:
        p = field.modulus
        if p is None:
            raise BudgetExceededError("the rationals cannot be enumerated")
        if p > self.max_field_size:
            raise BudgetExceededError(f"field size {p} exceeds budget {self.max_field_size}")
        if ambient_dim > self.max_ambient_dim:
            raise BudgetExceededError(
                f"ambient dimension {ambient_dim} exceeds budget {self.max_ambient_dim}"
            )
        if seq_len > self.max_sequence_len:
            raise BudgetExceededError(
                f"sequence length {seq_len} exceeds budget {self.max_sequence_len}"
            )
        if p**seq_len + p**ambient_dim > 10**6:
            raise BudgetExceededError("combined enumeration would exceed 10^6 elements")


DEFAULT_BUDGET = EnumerationBudget()


def _combine(seq: VecSequence, coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    # residue multiply/add, reduced mod p once; independent of the engine
    p = seq.field.modulus
    acc = [0] * seq.ambient_dim
    for c, row in zip(coeffs, seq.values):
        if c:
            acc = [a + c * b for a, b in zip(acc, row)]
    return tuple(a % p for a in acc)


def _coeff_tuples(field: Field, n: int) -> Iterator[Tuple[int, ...]]:
    return itertools.product(range(field.modulus), repeat=n)


def enum_span(seq: VecSequence, budget: EnumerationBudget = DEFAULT_BUDGET) -> FrozenSet[Vector]:
    """All linear combinations of the sequence, as a set."""
    budget.check(seq.field, seq.ambient_dim, len(seq))
    return frozenset(Vector(seq.field, _combine(seq, c)) for c in _coeff_tuples(seq.field, len(seq)))


def member_bruteforce(
    seq: VecSequence, x: Vector, budget: EnumerationBudget = DEFAULT_BUDGET
) -> bool:
    """True iff some coefficient tuple reconstructs x."""
    budget.check(seq.field, seq.ambient_dim, len(seq))
    return x.field is seq.field and x.values in (_combine(seq, c) for c in _coeff_tuples(seq.field, len(seq)))


def _independent_bruteforce(seq: VecSequence) -> bool:
    zero = (0,) * seq.ambient_dim
    for c in _coeff_tuples(seq.field, len(seq)):
        if any(c) and _combine(seq, c) == zero:
            return False
    return True


def rank_bruteforce(seq: VecSequence, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Definitional rank: maximal length of an independent subsequence."""
    budget.check(seq.field, seq.ambient_dim, len(seq))
    for size in range(len(seq), 0, -1):
        for idx in itertools.combinations(range(len(seq)), size):
            sub = VecSequence(seq.field, seq.ambient_dim, tuple(seq.values[i] for i in idx))
            if _independent_bruteforce(sub):
                return size
    return 0


def maximality_bruteforce(
    fr: Frame,
    sub: Subspace,
    max_len: int,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> bool:
    """Quantified definition of maximality: no sequence of length <= max_len
    drawn from the subspace exceeds the frame's rank."""
    budget.check(sub.field, sub.ambient_dim, max_len)
    rows = sorted(v.values for v in enum_span(sub.canonical_basis, budget))
    if len(rows) ** max_len > 10**6:
        raise BudgetExceededError("sequence enumeration would exceed 10^6 elements")
    for length in range(1, max_len + 1):
        for combo in itertools.product(rows, repeat=length):
            seq = VecSequence(sub.field, sub.ambient_dim, combo)
            if rank_bruteforce(seq, budget) > len(fr):
                return False
    return True
