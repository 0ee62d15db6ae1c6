"""Coordinate vectors, ordered vector sequences, matrices and the exact
elimination engine (reduced echelon form, span solving, kernels).

A :class:`VecSequence` used as a matrix contributes its vectors as
*columns*; a :class:`Subspace` (see :mod:`exactspan.spans`) builds its
canonical basis as echelon *rows* on first use.  A :class:`Vector` holds
raw canonical values of one interned field (ints in [0, p), or Fractions in
lowest terms), a :class:`VecSequence` or :class:`Matrix` one such row per
vector; the kernels work on them.  :func:`vector`, :func:`sequence` and
:func:`matrix` canonicalise input, the containers check only their shape,
and a solve checks its targets once.  Scalars are made only by the
accessors (``entries``, ``m[(i, j)]``) and for the coefficients
``solve_many`` returns; the library's own solves read them raw from
``solve_raw``.  There is one kernel per kind of field: bit-packed rows
eliminated by XOR over GF(2); over GF(p), Gauss-Jordan on rows packed into
one int each, w-bit slots reduced mod p only when read, so that a row
update is one big-int multiply-add; and over the rationals, once rows are
cleared of denominators, a certified modular route when an entry is wider
than a machine word (one elimination modulo a 127-bit prime, rational
reconstruction, acceptance only after an exact substitution check) and
otherwise, or when that check fails, a fraction-free Bareiss forward pass
followed by back-substitution in integers.  A rank over Q builds no reduced
form: on wide rows it is certified from one elimination modulo the same
prime (the rank mod p as a lower bound, independent relations of the rows,
rationally reconstructed and checked exactly, as an upper bound), and
otherwise read off the Bareiss forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import add, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .field import Field, FieldMismatchError, Scalar


@dataclass(frozen=True)
class Vector:
    """Raw canonical values of ``field``; build one with :func:`vector`,
    which canonicalises each entry."""

    field: Field
    values: Tuple[Union[int, Fraction], ...]

    @property
    def entries(self) -> Tuple[Scalar, ...]:
        field = self.field
        return tuple(Scalar(field, x) for x in self.values)

    @property
    def ambient_dim(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def __add__(self, other: "Vector") -> "Vector":
        if other.field is not self.field or other.ambient_dim != self.ambient_dim:
            raise FieldMismatchError("vector field/dimension mismatch")
        p = self.field.modulus
        sums = map(add, self.values, other.values)
        return Vector(self.field, tuple(sums) if p is None else tuple(x % p for x in sums))

    def scale(self, c: Union[Scalar, int, Fraction]) -> "Vector":
        x, p = self.field.canon(c), self.field.modulus
        prods = (x * y for y in self.values)
        return Vector(self.field, tuple(prods) if p is None else tuple(z % p for z in prods))

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.values)) + ")"


def vector(field: Field, entries: Iterable) -> Vector:
    """Build a vector, coercing ints / strings / Fractions / Scalars entrywise."""
    return Vector(field, tuple(map(field.canon, entries)))


def zero_vector(field: Field, dim: int) -> Vector:
    return Vector(field, (field.canon(0),) * dim)


@dataclass(frozen=True)
class VecSequence:
    """Ordered sequence of vectors, held as raw canonical rows like a
    :class:`Matrix`; indexing and iteration build :class:`Vector`s."""

    field: Field
    ambient_dim: int
    values: Tuple[Tuple[Union[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        if any(len(row) != self.ambient_dim for row in self.values):
            raise FieldMismatchError("sequence item field/dimension mismatch")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> Vector:
        return Vector(self.field, self.values[j])

    def __iter__(self):
        return (Vector(self.field, row) for row in self.values)

    def append(self, v: Vector) -> "VecSequence":
        if v.field is not self.field:
            raise FieldMismatchError("sequence item field/dimension mismatch")
        return VecSequence(self.field, self.ambient_dim, self.values + (v.values,))


def sequence(field: Field, rows: Iterable[Iterable], ambient_dim: Optional[int] = None) -> VecSequence:
    """Build a sequence from row data; ambient_dim must match it, if given."""
    values = tuple(tuple(map(field.canon, r)) for r in rows)
    if ambient_dim is None and not values:
        raise ValueError("ambient_dim required for an empty sequence")
    return VecSequence(field, len(values[0]) if ambient_dim is None else ambient_dim, values)


@dataclass(frozen=True)
class Matrix:
    """Rows of raw canonical values of ``field``; build one with
    :func:`matrix`, which canonicalises each entry."""

    field: Field
    rows: int
    cols: int
    values: Tuple[Tuple[Union[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.rows or any(len(r) != self.cols for r in self.values):
            raise ValueError("matrix shape does not match entries")

    @property
    def entries(self) -> Tuple[Tuple[Scalar, ...], ...]:
        field = self.field
        return tuple(tuple(Scalar(field, x) for x in row) for row in self.values)

    def __getitem__(self, idx: Tuple[int, int]) -> Scalar:
        i, j = idx
        return Scalar(self.field, self.values[i][j])

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(row[j] for row in self.values))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            x == (1 if i == j else 0) for i, row in enumerate(self.values) for j, x in enumerate(row)
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.values)


def matrix(field: Field, rows: Iterable[Iterable], cols: Optional[int] = None) -> Matrix:
    canon = field.canon
    data = tuple(tuple(canon(e) for e in row) for row in rows)
    if cols is None:
        cols = len(data[0]) if data else 0
    return Matrix(field, len(data), cols, data)


def identity(field: Field, n: int) -> Matrix:
    return matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def matrix_from_columns(seq: VecSequence) -> Matrix:
    """Sequence-as-columns convention: vector j becomes column j."""
    m, n = seq.ambient_dim, len(seq)
    return Matrix(seq.field, m, n, tuple(zip(*seq.values)) if n else ((),) * m)


def matrix_from_rows(seq: VecSequence) -> Matrix:
    return Matrix(seq.field, len(seq), seq.ambient_dim, seq.values)


def mat_product(a: Matrix, b: Matrix) -> Matrix:
    if a.field is not b.field:
        raise FieldMismatchError("matrix field mismatch")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    p = a.field.modulus
    zero = a.field.canon(0)
    b_cols = tuple(zip(*b.values)) if b.rows else ((),) * b.cols
    dots = (tuple(sum(map(mul, row, col), zero) for col in b_cols) for row in a.values)
    values = tuple(dots) if p is None else tuple(tuple(x % p for x in row) for row in dots)
    return Matrix(a.field, a.rows, b.cols, values)


def lin_comb(seq: VecSequence, coeffs: Sequence) -> Vector:
    """Return sum of coeffs[j] * seq[j]; the empty combination is zero.  The
    coefficients are coerced like the entries of :func:`vector`."""
    if len(coeffs) != len(seq):
        raise ValueError(f"{len(coeffs)} coefficients for a sequence of length {len(seq)}")
    field, p = seq.field, seq.field.modulus
    acc = [field.canon(0)] * seq.ambient_dim
    for c, row in zip(coeffs, seq.values):
        x = field.canon(c)
        if x:
            acc = [a + x * y for a, y in zip(acc, row)]
    return Vector(field, tuple(acc) if p is None else tuple(a % p for a in acc))


# -- elimination kernels on raw canonical values -----------------------------
#
# Each kernel takes the rows of a matrix as sequences of canonical values
# (ints in [0, p), or Fractions in lowest terms) and returns the unique
# reduced row-echelon form as lists of the same values, with its pivot
# columns; none writes to the rows it is given.  When a kernel reaches
# column c, the rows from the current pivot row down are zero left of c, so
# the Bareiss pass updates only the suffix from c on, and the GF(p) kernel
# repacks the pivot row from slot c on.

_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _rref_gf2(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
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


def _pack(values: Sequence[int], w: int) -> int:
    """One int holding values[j] in the w-bit slot at bit j·w."""
    acc = 0
    for x in reversed(values):
        acc = acc << w | x
    return acc


def _rref_mod_p(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """GF(p) Gauss-Jordan on Kronecker-packed rows: each row is one int
    with entry j in the w-bit slot at bit j·w (Kronecker substitution; D.
    Harvey, *Faster polynomial multiplication via multipoint Kronecker
    substitution*, JSC 2009), so ``row += (p - f)·pivot_row`` is one big-int
    multiply-add, and slots are reduced mod p only when read (delayed
    reduction; Dumas, Giorgi and Pernet, *Dense linear algebra over
    word-size prime fields: the FFLAS and FFPACK packages*, ACM TOMS 2008).

    No slot carries into the next.  There are at most k = min(rows, cols)
    pivots, so a row takes at most k updates.  Each adds the non-negative
    amount (p - f)·x <= (p - 1)² to a slot: the multiplier f = slot mod p is
    nonzero, and x is an entry of the reduced pivot row.  A slot that starts
    below p therefore never exceeds p - 1 + k·(p - 1)², and w is the number
    of bits that bound takes.  Per pivot only the pivot row is unpacked,
    reduced mod p, scaled and repacked; every other row reads its multiplier
    from one slot.  The rows are unpacked and reduced once, at the end."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    k = min(n_rows, n_cols)
    w = (k * (p - 1) ** 2 + p - 1).bit_length()
    mask = (1 << w) - 1
    packed = [_pack(row, w) for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        shift = c * w
        for pr in range(r, n_rows):
            if (packed[pr] >> shift & mask) % p:
                break
        else:
            continue
        piv = packed[pr] >> shift
        packed[pr] = packed[r]
        inv = pow(piv & mask, -1, p)
        piv = _pack([(piv >> s & mask) * inv % p for s in range(0, (n_cols - c) * w, w)], w) << shift
        packed[r] = piv
        for i in range(n_rows):
            if i != r:
                f = (packed[i] >> shift & mask) % p
                if f:
                    packed[i] += (p - f) * piv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    shifts = range(0, n_cols * w, w)
    return [[(v >> s & mask) % p for s in shifts] for v in packed], pivots


# The certified modular route over Q: one prime, and the bound within which
# a residue mod that prime determines a fraction (numerator and denominator
# at most the bound in absolute value).  Any prime is correct, because every
# candidate is checked by substitution; this one is large enough that the
# answers of typical full-rank questions reconstruct from it.
_Q_PRIME = 2**127 - 1
_Q_BOUND = isqrt(_Q_PRIME // 2)
_WORD_BITS = 62


def _reconstruct(x: int, p: int, bound: int) -> Optional[Fraction]:
    """The fraction a/b with |a|, |b| <= ``bound`` and a = b·x (mod p) that
    the half-extended Euclidean algorithm finds, or None (Wang, Guy and
    Davenport, *P-adic reconstruction of rational numbers*, 1982)."""
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _rref_rational_modular(
    m: List[List[int]], n_cols: int
) -> Optional[Tuple[List[List[Fraction]], List[int]]]:
    """The RREF of the integer rows ``m`` from one elimination mod
    ``_Q_PRIME``, or None when it cannot be certified.

    The candidate R is the rational reconstruction of the RREF mod p, and is
    accepted only if D·a[j] = sum_k a[pivots[k]]·(D·R)[k][j] for every row a
    of ``m`` and every non-pivot column j (D the lcm of R's denominators).
    That puts each row of ``m`` in the row space of R, whose dimension is the
    rank mod p, which is at most the rank over Q; so the row spaces are
    equal, and R, which has echelon shape, is the unique RREF."""
    p, bound = _Q_PRIME, _Q_BOUND
    red, pivots = _rref_mod_p([[x % p for x in row] for row in m], p)
    pivot_set = set(pivots)
    free = [j for j in range(n_cols) if j not in pivot_set]
    zero, one = Fraction(0), Fraction(1)
    cand: List[List[Fraction]] = []
    for k, c in enumerate(pivots):
        row = [zero] * n_cols
        row[c] = one
        red_row = red[k]
        for j in free:
            x = red_row[j]
            if x:
                q = _reconstruct(x, p, bound)
                if q is None:
                    return None
                row[j] = q
        cand.append(row)
    big_d = lcm(*(row[j].denominator for row in cand for j in free))
    scaled_cols = [[row[j].numerator * (big_d // row[j].denominator) for row in cand] for j in free]
    for a in m:
        coeffs = [a[c] for c in pivots]
        for j, col in zip(free, scaled_cols):
            if big_d * a[j] != sum(map(mul, coeffs, col)):
                return None
    cand += ([zero] * n_cols for _ in range(len(m) - len(pivots)))
    return cand, pivots


def _clear(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[int], List[List[int]], bool]:
    """Each rational row a_i times the lcm d_i of its denominators: the
    denominators d_i, the integer rows m_i = d_i·a_i, and whether an entry
    of them is wider than a machine word."""
    dens: List[int] = []
    m: List[List[int]] = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        dens.append(d)
        m.append([x.numerator * (d // x.denominator) for x in row])
    wide = max(map(int.bit_length, chain.from_iterable(m)), default=0) > _WORD_BITS
    return dens, m, wide


def _rank_rational_modular(dens: List[int], m: List[List[int]], n_cols: int) -> Optional[int]:
    """The rank of rational rows a_i, certified from one elimination mod
    ``_Q_PRIME``, or None when it cannot be certified (Kaltofen, Nehring and
    Saunders, *Quadratic-time certificates in linear algebra*, ISSAC 2011).
    ``m`` holds the cleared rows m_i = d_i·a_i and ``dens`` the d_i.

    Lower bound: r, the rank mod p of the integer rows m_i, read off the RREF
    R of their transpose, is at most their rank over Q, which is the rank of
    the a_i.  When r is the smaller side of the matrix, that is the answer.

    Upper bound: a non-pivot column f of R gives the relation x of the m_i mod
    p with x_f = 1, x_c = -R[k][f] at the k-th pivot c, and 0 elsewhere.  As a
    relation of the a_i it is y_i = x_i·d_i/d_f, so y_f = 1 and
    y_c = -R[k][f]·d_c/d_f mod p.  It is the y_c that are rationally
    reconstructed: a small relation of the a_i is a large one of the m_i
    when the d_i are large and differ from row to row.  The relation is
    accepted only if sum_i y_i·a_i = 0 holds exactly, checked in integers.
    Each relation is 1 at its own non-pivot row and 0 at the others, so the
    rows - r accepted relations are independent: the left kernel has
    dimension at least rows - r, and the rank is at most r."""
    p, bound = _Q_PRIME, _Q_BOUND
    n_rows = len(m)
    red, pivots = _rref_mod_p([list(col) for col in zip(*([x % p for x in row] for row in m))], p)
    r = len(pivots)
    if r == min(n_rows, n_cols):
        return r
    pivot_set = set(pivots)
    for f in range(n_rows):
        if f in pivot_set:
            continue
        d_f = dens[f] % p
        if not d_f:
            return None
        scale = p - pow(d_f, -1, p)
        relation = [(f, Fraction(1))]
        for k, c in enumerate(pivots):
            x = red[k][f]
            if x:
                y = _reconstruct(x * dens[c] % p * scale % p, p, bound)
                if y is None:
                    return None
                relation.append((c, y))
        # sum_i y_i·a_i = sum_i (y_i / d_i)·m_i, brought to one denominator
        big_l = lcm(*(y.denominator * dens[i] for i, y in relation))
        coeffs = [y.numerator * (big_l // (y.denominator * dens[i])) for i, y in relation]
        support = [m[i] for i, _ in relation]
        if any(sum(map(mul, coeffs, col)) for col in zip(*support)):
            return None
    return r


def _bareiss_forward(m: List[List[int]], n_cols: int) -> Tuple[List[int], int]:
    """Fraction-free Bareiss forward pass on the integer rows ``m``, in
    place: the pivot columns, and the last pivot, which is the determinant
    of the pivot minor."""
    n_rows = len(m)
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
    return pivots, prev


def _back_substitute(m: List[List[int]], pivots: List[int], big_d: int, n_cols: int) -> List[List[Fraction]]:
    """The RREF from the Bareiss rows ``m`` and their last pivot D.

    It computes D·RREF, which is integral, from the bottom row up with one
    exact division by each row's own pivot; only the final entries become
    Fractions."""
    rank = len(pivots)
    zero = Fraction(0)
    out = [[zero] * n_cols for _ in range(len(m))]
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
    return out


def _rref_rational(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Q: after clearing each row's denominators, rows with an entry wider
    than a machine word first try the certified modular route
    (:func:`_rref_rational_modular`: one elimination mod a 127-bit prime,
    rational reconstruction, acceptance only by exact substitution; W. Stein,
    *Modular Forms: A Computational Approach*, §7.3).  Otherwise, or when
    that route finds no certified answer (an answer too large to
    reconstruct, or a prime dividing the pivot minor), a fraction-free
    Bareiss forward pass on the integer rows, then back-substitution in
    integers (:func:`_back_substitute`)."""
    n_cols = len(rows[0]) if rows else 0
    _, m, wide = _clear(rows)
    if wide:
        modular = _rref_rational_modular(m, n_cols)
        if modular is not None:
            return modular
    pivots, big_d = _bareiss_forward(m, n_cols)
    return _back_substitute(m, pivots, big_d, n_cols), pivots


def _rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Q rank: rows with an entry wider than a machine word first try the
    certified rank route (:func:`_rank_rational_modular`); otherwise, or
    when it certifies nothing, the rank is read off the Bareiss forward pass,
    with no back-substitution."""
    n_cols = len(rows[0]) if rows else 0
    dens, m, wide = _clear(rows)
    if wide:
        r = _rank_rational_modular(dens, m, n_cols)
        if r is not None:
            return r
    return len(_bareiss_forward(m, n_cols)[0])


@dataclass(frozen=True)
class ReducedForm:
    matrix: Matrix
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def reduced_form(m: Matrix) -> ReducedForm:
    """The unique reduced row-echelon form of ``m`` with pivot columns."""
    p = m.field.modulus
    if p is None:
        rows, pivots = _rref_rational(m.values)
    elif p == 2:
        rows, pivots = _rref_gf2(m.values)
    else:
        rows, pivots = _rref_mod_p([list(row) for row in m.values], p)
    return ReducedForm(Matrix(m.field, m.rows, m.cols, tuple(map(tuple, rows))), tuple(pivots))


def rank_matrix(m: Matrix) -> int:
    """The rank of ``m``.  Over GF(p) it is the rank of the reduced form.
    Over Q no reduced form is built: the rank is certified from one
    elimination modulo a prime when the cleared rows are wide (a lower bound
    mod p, and an upper bound from independent relations of the rows checked
    exactly; see :func:`_rank_rational_modular`), and otherwise read off the
    Bareiss forward pass."""
    if m.field.modulus is None:
        return _rank_rational(m.values)
    return reduced_form(m).rank


def solve_in_span(seq: VecSequence, target: Vector) -> Optional[Tuple[Scalar, ...]]:
    """Canonical coefficients expressing ``target`` in ``seq``, or None.

    Free variables are fixed to zero, so the answer is deterministic.
    """
    sols = solve_many(seq, (target,))
    return sols[0]


def solve_raw(seq: VecSequence, targets: VecSequence) -> List[Optional[Tuple[Union[int, Fraction], ...]]]:
    """The answers of :func:`solve_many` for the rows of ``targets``, as raw
    canonical values, from the same single elimination."""
    field = seq.field
    n = len(seq)
    if targets.values and targets.field is not field:
        raise FieldMismatchError("target field mismatch")
    if targets.values and targets.ambient_dim != seq.ambient_dim:
        raise ValueError("target ambient dimension mismatch")
    aug = matrix_from_columns(VecSequence(field, seq.ambient_dim, seq.values + targets.values))
    red = reduced_form(aug)
    rows = red.matrix.values
    seq_pivots = [c for c in red.pivots if c < n]
    zero = field.canon(0)
    out: List[Optional[Tuple[Union[int, Fraction], ...]]] = []
    for k in range(len(targets)):
        col = n + k
        # target is reachable iff its column never becomes a pivot *for the
        # rows below the sequence's pivots*: any nonzero entry there is
        # an inconsistency
        if any(rows[i][col] for i in range(len(seq_pivots), aug.rows)):
            out.append(None)
            continue
        coeffs = [zero] * n
        for row_idx, c in enumerate(seq_pivots):
            coeffs[c] = rows[row_idx][col]
        out.append(tuple(coeffs))
    return out


def solve_many(seq: VecSequence, targets: Sequence[Vector]) -> List[Optional[Tuple[Scalar, ...]]]:
    """solve_in_span for several targets with a single elimination."""
    field = seq.field
    if any(t.field is not field for t in targets):
        raise FieldMismatchError("target field mismatch")
    if any(t.ambient_dim != seq.ambient_dim for t in targets):
        raise ValueError("target ambient dimension mismatch")
    sols = solve_raw(seq, VecSequence(field, seq.ambient_dim, tuple(t.values for t in targets)))
    return [None if c is None else tuple(Scalar(field, x) for x in c) for c in sols]


def kernel_basis(m: Matrix) -> VecSequence:
    """Canonical spanning frame of the right kernel {x : m x = 0}."""
    red = reduced_form(m)
    rows = red.matrix.values
    pivots = red.pivots
    canon = m.field.canon
    zero, one = canon(0), canon(1)
    pivot_set = set(pivots)
    out = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        values = [zero] * m.cols
        values[f] = one
        for row_idx, c in enumerate(pivots):
            values[c] = canon(-rows[row_idx][f])
        out.append(tuple(values))
    return VecSequence(m.field, m.cols, tuple(out))
