"""Coordinate vectors, ordered vector sequences, scalar matrices and the
exact elimination engine (reduced echelon form, span solving, kernels).

A :class:`VecSequence` used as a matrix contributes its vectors as
*columns*; a :class:`Subspace` (see :mod:`exactspan.spans`) stores its
canonical basis as echelon *rows*.  Elimination runs on raw canonical
values and only wraps results back into scalars at the edges, with one
kernel per kind of field: bit-packed rows eliminated by XOR over GF(2),
Gauss-Jordan on the row suffixes from the pivot column on over GF(p), and
over the rationals a fraction-free Bareiss forward pass followed by
back-substitution in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .field import Field, FieldMismatchError, Scalar


@dataclass(frozen=True)
class Vector:
    field: Field
    entries: Tuple[Scalar, ...]

    def __post_init__(self) -> None:
        for s in self.entries:
            if s.field != self.field:
                raise FieldMismatchError("vector entry from a different field")

    @property
    def ambient_dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise FieldMismatchError("vector field/dimension mismatch")
        return Vector(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> "Vector":
        return Vector(self.field, tuple(c * e for e in self.entries))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def vector(field: Field, entries: Iterable) -> Vector:
    """Build a vector, coercing ints / strings / Fractions entrywise."""
    return Vector(field, tuple(field.scalar(e) for e in entries))


def zero_vector(field: Field, dim: int) -> Vector:
    return Vector(field, (field.zero,) * dim)


@dataclass(frozen=True)
class VecSequence:
    """Ordered sequence of vectors; duplicates allowed, order significant."""

    field: Field
    ambient_dim: int
    items: Tuple[Vector, ...]

    def __post_init__(self) -> None:
        for v in self.items:
            if v.field != self.field or v.ambient_dim != self.ambient_dim:
                raise FieldMismatchError("sequence item field/dimension mismatch")

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, j: int) -> Vector:
        return self.items[j]

    def __iter__(self):
        return iter(self.items)

    def append(self, v: Vector) -> "VecSequence":
        return VecSequence(self.field, self.ambient_dim, self.items + (v,))


def sequence(field: Field, rows: Iterable[Iterable], ambient_dim: Optional[int] = None) -> VecSequence:
    """Build a sequence from row data; ambient_dim is needed only when empty."""
    vs = tuple(vector(field, r) for r in rows)
    if vs:
        ambient_dim = vs[0].ambient_dim
    elif ambient_dim is None:
        raise ValueError("ambient_dim required for an empty sequence")
    return VecSequence(field, ambient_dim, vs)


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("matrix shape does not match entries")
        for row in self.entries:
            for s in row:
                if s.field != self.field:
                    raise FieldMismatchError("matrix entry from a different field")

    def __getitem__(self, idx: Tuple[int, int]) -> Scalar:
        i, j = idx
        return self.entries[i][j]

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(self.entries[i][j] for i in range(self.rows)))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.field.one, self.field.zero
        return all(
            self.entries[i][j] == (one if i == j else zero)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(s) for s in row) for row in self.entries)


def matrix(field: Field, rows: Iterable[Iterable], cols: Optional[int] = None) -> Matrix:
    data = tuple(tuple(field.scalar(e) for e in row) for row in rows)
    if data:
        cols = len(data[0])
    elif cols is None:
        cols = 0
    return Matrix(field, len(data), cols, data)


def identity(field: Field, n: int) -> Matrix:
    return matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def matrix_from_columns(seq: VecSequence) -> Matrix:
    """Sequence-as-columns convention: vector j becomes column j."""
    m, n = seq.ambient_dim, len(seq)
    return Matrix(
        seq.field, m, n,
        tuple(tuple(seq[j].entries[i] for j in range(n)) for i in range(m)),
    )


def matrix_from_rows(seq: VecSequence) -> Matrix:
    return Matrix(seq.field, len(seq), seq.ambient_dim, tuple(v.entries for v in seq))


def mat_product(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise FieldMismatchError("matrix field mismatch")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.field.modulus is not None:
        p = a.field.modulus
        ar = [[s.value for s in row] for row in a.entries]
        br = [[s.value for s in row] for row in b.entries]
        out = [
            [sum(ar[i][k] * br[k][j] for k in range(a.cols)) % p for j in range(b.cols)]
            for i in range(a.rows)
        ]
    else:
        ar = [[s.value for s in row] for row in a.entries]
        br = [[s.value for s in row] for row in b.entries]
        out = [
            [sum((ar[i][k] * br[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    return matrix(a.field, out, cols=b.cols)


def lin_comb(seq: VecSequence, coeffs: Sequence[Scalar]) -> Vector:
    """Return sum of coeffs[j] * seq[j]; the empty combination is zero."""
    if len(coeffs) != len(seq):
        raise ValueError(f"{len(coeffs)} coefficients for a sequence of length {len(seq)}")
    acc = zero_vector(seq.field, seq.ambient_dim)
    for c, v in zip(coeffs, seq):
        if c.field != seq.field:
            raise FieldMismatchError("coefficient field mismatch")
        acc = acc + v.scale(c)
    return acc


# -- elimination kernels on raw canonical values -----------------------------
#
# Each kernel takes the rows of a matrix as lists of canonical values (ints
# in [0, p), or Fractions in lowest terms) and returns the unique reduced
# row-echelon form in the same representation, with its pivot columns.
# When a kernel reaches column c, the rows from the current pivot row down
# are zero left of c, so the list kernels update only the suffix from c on.

_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _rref_gf2(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """GF(2): each row packed into one int (bit j = column j), eliminated by XOR.

    Packing reads the reversed 0/1 row as a binary numeral.  Unpacking
    reverses the binary digits again; a sentinel bit at ``n_cols`` keeps the
    leading zeros, and leaves no digit at all when there are no columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    packed = [int(bytes(row[::-1]).translate(_BITS_TO_DIGITS) or b"0", 2) for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        bit = 1 << c
        pr = next((i for i in range(r, n_rows) if packed[i] & bit), None)
        if pr is None:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        piv = packed[r]
        for i in range(n_rows):
            if i != r and packed[i] & bit:
                packed[i] ^= piv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    sentinel = 1 << n_cols
    return [list(bin(v | sentinel)[:2:-1].encode().translate(_DIGITS_TO_BITS)) for v in packed], pivots


def _rref_mod_p(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """GF(p) Gauss-Jordan: scale the pivot row's suffix, update other rows'
    suffixes, skip rows whose multiplier is zero."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        inv = pow(piv[c], p - 2, p)
        tail = [x * inv % p for x in piv[c:]]
        rows[r] = piv[:c] + tail
        for i in range(n_rows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _rref_rational(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Q: fraction-free Bareiss forward pass on cleared-denominator integer
    rows, then back-substitution in integers.

    The back-substitution computes D·RREF, where D is the last Bareiss pivot
    (the determinant of the pivot minor, so D·RREF is integral), from the
    bottom row up with one exact division by each row's own pivot; only the
    final entries become Fractions."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    m: List[List[int]] = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])

    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        a = piv[c]
        tail = piv[c + 1:]
        lead = [0] * (c + 1)
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            if f:
                m[i] = lead + [(a * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif a != prev:
                m[i] = lead + [a * x // prev for x in row[c + 1:]]
        prev = a
        pivots.append(c)
        r += 1
        if r == n_rows:
            break

    rank = len(pivots)
    big_d = prev
    zero = Fraction(0)
    out = [[zero] * n_cols for _ in range(n_rows)]
    scaled: List[List[int]] = [[]] * rank  # scaled[s]: row s of D·RREF, from column pivots[s] on
    for r in range(rank - 1, -1, -1):
        c = pivots[r]
        row = m[r]
        acc = [big_d * x for x in row[c:]]
        for s in range(r + 1, rank):
            f = row[pivots[s]]
            if f:
                off = pivots[s] - c
                acc[off:] = [x - f * y for x, y in zip(acc[off:], scaled[s])]
        d = row[c]
        scaled[r] = [x // d for x in acc]
        out[r][c:] = [Fraction(x, big_d) if x else zero for x in scaled[r]]
    return out, pivots


@dataclass(frozen=True)
class ReducedForm:
    matrix: Matrix
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def reduced_form(m: Matrix) -> ReducedForm:
    """The unique reduced row-echelon form of ``m`` with pivot columns."""
    field = m.field
    p = field.modulus
    raw = [[s.value for s in row] for row in m.entries]
    if p is None:
        rows, pivots = _rref_rational(raw)
    elif p == 2:
        rows, pivots = _rref_gf2(raw)
    else:
        rows, pivots = _rref_mod_p(raw, p)
    # kernel values are canonical by construction: box them without Field.scalar
    entries = tuple(tuple(Scalar(field, x) for x in row) for row in rows)
    return ReducedForm(Matrix(field, m.rows, m.cols, entries), tuple(pivots))


def rank_matrix(m: Matrix) -> int:
    return reduced_form(m).rank


def solve_in_span(seq: VecSequence, target: Vector) -> Optional[Tuple[Scalar, ...]]:
    """Canonical coefficients expressing ``target`` in ``seq``, or None.

    Free variables are fixed to zero, so the answer is deterministic.
    """
    sols = solve_many(seq, (target,))
    return sols[0]


def solve_many(seq: VecSequence, targets: Sequence[Vector]) -> List[Optional[Tuple[Scalar, ...]]]:
    """solve_in_span for several targets with a single elimination."""
    field = seq.field
    n = len(seq)
    for t in targets:
        if t.field != field:
            raise FieldMismatchError("target field mismatch")
        if t.ambient_dim != seq.ambient_dim:
            raise ValueError("target ambient dimension mismatch")
    aug = matrix_from_columns(VecSequence(field, seq.ambient_dim, seq.items + tuple(targets)))
    red = reduced_form(aug)
    r = red.matrix
    seq_pivots = [c for c in red.pivots if c < n]
    out: List[Optional[Tuple[Scalar, ...]]] = []
    for k in range(len(targets)):
        col = n + k
        # target is reachable iff its column never becomes a pivot *for the
        # rows below the sequence's pivots*: any nonzero entry there is
        # an inconsistency
        ok = all(not r[(i, col)] for i in range(len(seq_pivots), r.rows))
        if not ok:
            out.append(None)
            continue
        coeffs = [field.zero] * n
        for row_idx, c in enumerate(seq_pivots):
            coeffs[c] = r[(row_idx, col)]
        out.append(tuple(coeffs))
    return out


def kernel_basis(m: Matrix) -> VecSequence:
    """Canonical spanning frame of the right kernel {x : m x = 0}."""
    red = reduced_form(m)
    r = red.matrix
    pivots = list(red.pivots)
    field = m.field
    free = [c for c in range(m.cols) if c not in pivots]
    vecs = []
    for f in free:
        entries = [field.zero] * m.cols
        entries[f] = field.one
        for row_idx, c in enumerate(pivots):
            entries[c] = -r[(row_idx, f)]
        vecs.append(Vector(field, tuple(entries)))
    return VecSequence(field, m.cols, tuple(vecs))


def apply_matrix(m: Matrix, x: Vector) -> Vector:
    if m.cols != x.ambient_dim:
        raise ValueError("dimension mismatch")
    return Vector(
        m.field,
        tuple(
            sum((m[(i, j)] * x.entries[j] for j in range(m.cols)), m.field.zero)
            for i in range(m.rows)
        ),
    )
