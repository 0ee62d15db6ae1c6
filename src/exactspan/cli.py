"""Command line front end.

Exit codes: 0 the property holds / operation succeeded, 1 the answer is
mathematically negative (vector outside span, frame already maximal,
certificate invalid, cross-check disagreement), 2 malformed input or
usage error.  Output is deterministic: identical inputs give
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import random
import sys
from typing import List, Optional, Tuple

from . import __version__
from .core import VecSequence, solve_in_span
from .field import GF
from .lemma import (
    check_certificate,
    steinitz_extend,
    trace_induction,
    verify_basic_lemma,
)
from .oracle import DEFAULT_BUDGET, member_bruteforce, rank_bruteforce
from .randgen import random_sequence, random_vector
from .spans import (
    Frame,
    MaximalFrameError,
    NotAFrameError,
    basis_from_generators,
    change_of_basis,
    extend_frame,
    rank_seq,
    span_of,
)
from .textio import (
    FormatError,
    parse_certificate_file,
    parse_matrix_file,
    render_certificate,
    render_trace,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _fmt_row(row) -> str:
    return " ".join(map(str, row))


def _as_frame(seq, path: str, what: str) -> Frame:
    try:
        return Frame(seq)
    except NotAFrameError:
        raise NotAFrameError(f"{what} ({path}) is not linearly independent") from None


def _load_pair(path_a: str, what_a: str, path_b: str, what_b: str) -> Tuple[VecSequence, VecSequence]:
    """Two sequences in one space.  Files over different fields or ambient
    dimensions are bad input (exit 2), not a negative answer."""
    a, b = parse_matrix_file(path_a), parse_matrix_file(path_b)
    if a.field is not b.field:
        raise FormatError(f"{what_a} ({path_a}) is over {a.field!r} but {what_b} ({path_b}) over {b.field!r}")
    if a.ambient_dim != b.ambient_dim:
        raise FormatError(
            f"{what_a} ({path_a}) has vectors of length {a.ambient_dim} "
            f"but {what_b} ({path_b}) of length {b.ambient_dim}"
        )
    return a, b


def _load_frame_pair(path_a: str, what_a: str, path_b: str, what_b: str) -> Tuple[Frame, Frame]:
    a, b = _load_pair(path_a, what_a, path_b, what_b)
    return _as_frame(a, path_a, what_a), _as_frame(b, path_b, what_b)


def _cmd_rank(args) -> int:
    seq = parse_matrix_file(args.sequence)
    print(f"rank {rank_seq(seq)}")
    return EXIT_OK


def _cmd_member(args) -> int:
    seq, xs = _load_pair(args.sequence, "sequence", args.vector, "vector")
    if len(xs) != 1:
        raise FormatError(f"{args.vector}: expected exactly one row for a vector file")
    coeffs = solve_in_span(seq, xs[0])
    if coeffs is None:
        print("not in span")
        return EXIT_NEGATIVE
    print("coefficients " + _fmt_row(coeffs))
    return EXIT_OK


def _cmd_basis(args) -> int:
    seq = parse_matrix_file(args.sequence)
    fr = basis_from_generators(seq)
    print(f"length {len(fr)}")
    for row in fr.seq.values:
        print(_fmt_row(row))
    return EXIT_OK


def _cmd_dim(args) -> int:
    seq = parse_matrix_file(args.sequence)
    print(f"dim {span_of(seq).dim}")
    return EXIT_OK


def _cmd_extend(args) -> int:
    frame, seq = _load_pair(args.frame, "frame", args.sequence, "sequence")
    fr = _as_frame(frame, args.frame, "frame")
    sub = span_of(seq)
    try:
        v = extend_frame(fr, sub)
    except MaximalFrameError:
        print("maximal")
        return EXIT_NEGATIVE
    print("extension " + _fmt_row(v.values))
    return EXIT_OK


def _cmd_change_basis(args) -> int:
    e, f = _load_frame_pair(args.e, "e", args.f, "f")
    try:
        a, a_inv = change_of_basis(e, f)
    except ValueError as exc:
        print(f"no change of basis: {exc}")
        return EXIT_NEGATIVE
    print("A")
    print(a)
    print("A_inv")
    print(a_inv)
    return EXIT_OK


def _emit_certificate(path: Optional[str], cert) -> None:
    """Write the certificate before anything reaches stdout, so a failed
    write (an OSError, exit 2) never follows a printed answer.  The text goes
    to a temporary file next to the target, which is flushed to disk and then
    replaces the target in one step: a failure, or a power loss, leaves
    either the earlier certificate or the complete new one, and a failure
    removes the temporary file."""
    if path is None:
        return
    if not path:
        raise FormatError("--emit-cert: empty path")
    text = render_certificate(cert)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cmd_verify_lemma(args) -> int:
    e, f = _load_frame_pair(args.e, "e", args.f, "f")
    try:
        cert = verify_basic_lemma(e, f)
    except ValueError as exc:
        print(f"lemma preconditions fail: {exc}")
        return EXIT_NEGATIVE
    if not check_certificate(cert):
        print("internal error: certificate failed substitution check")
        return EXIT_NEGATIVE
    _emit_certificate(args.emit_cert, cert)
    print("C")
    print(cert.coefficient_matrix)
    return EXIT_OK


def _cmd_trace(args) -> int:
    e, f = _load_frame_pair(args.e, "e", args.f, "f")
    try:
        trace = trace_induction(e, f)
    except ValueError as exc:
        print(f"lemma preconditions fail: {exc}")
        return EXIT_NEGATIVE
    _emit_certificate(args.emit_cert, trace.final_certificate)
    sys.stdout.write(render_trace(trace))
    return EXIT_OK


def _cmd_steinitz(args) -> int:
    basis, fr = _load_frame_pair(args.basis, "basis", args.frame, "frame")
    try:
        extended, picked, r = steinitz_extend(basis, fr)
    except ValueError as exc:
        print(f"steinitz preconditions fail: {exc}")
        return EXIT_NEGATIVE
    print(" ".join(["picked"] + [str(i) for i in picked]))
    print(f"r {r}")
    for row in extended.seq.values:
        print(_fmt_row(row))
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.cert is not None:
        cert = parse_certificate_file(args.cert)
        if check_certificate(cert):
            print("certificate ok")
            return EXIT_OK
        print("certificate invalid")
        return EXIT_NEGATIVE
    budget = dataclasses.replace(DEFAULT_BUDGET, max_field_size=args.budget)
    rng = random.Random(args.seed)
    fields = [GF(p) for p in (2, 3, 5) if p <= args.budget]
    if not fields:
        raise FormatError(f"budget {args.budget} admits no test field")
    mismatches = 0
    for _ in range(args.random):
        field = rng.choice(fields)
        m = rng.randint(1, budget.max_ambient_dim)
        n = rng.randint(0, budget.max_sequence_len)
        seq = random_sequence(field, m, n, rng)
        if rank_seq(seq) != rank_bruteforce(seq, budget):
            mismatches += 1
            continue
        x = rng.choice([random_vector(field, m, rng), seq[0] if n else random_vector(field, m, rng)])
        if (solve_in_span(seq, x) is not None) != member_bruteforce(seq, x, budget):
            mismatches += 1
    if mismatches:
        print(f"disagreements {mismatches} of {args.random}")
        return EXIT_NEGATIVE
    print(f"ok {args.random} checks")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactspan",
        description="Exact span/frame/basis computations over GF(p) and the rationals.",
    )
    parser.add_argument("--version", action="version", version=f"exactspan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of a vector sequence")
    p.add_argument("-s", "--sequence", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("member", help="span membership with coefficients")
    p.add_argument("-s", "--sequence", required=True)
    p.add_argument("-x", "--vector", required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("basis", help="greedy basis extraction from generators")
    p.add_argument("-s", "--sequence", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("dim", help="dimension of the span of a sequence")
    p.add_argument("-s", "--sequence", required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("extend", help="extend a frame inside the span of a sequence")
    p.add_argument("-f", dest="frame", required=True)
    p.add_argument("-s", "--sequence", required=True)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("change-basis", help="change-of-basis matrix pair")
    p.add_argument("-e", required=True)
    p.add_argument("-f", required=True)
    p.set_defaults(func=_cmd_change_basis)

    p = sub.add_parser("verify-lemma", help="inclusion-system certificate for two frames")
    p.add_argument("-e", required=True)
    p.add_argument("-f", required=True)
    p.add_argument("--emit-cert")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("trace", help="inductive proof trace for two frames")
    p.add_argument("-e", required=True)
    p.add_argument("-f", required=True)
    p.add_argument("--emit-cert")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("steinitz", help="extend a frame to a basis from a given basis")
    p.add_argument("-b", dest="basis", required=True)
    p.add_argument("-k", dest="frame", required=True)
    p.set_defaults(func=_cmd_steinitz)

    p = sub.add_parser("oracle-check", help="certificate check or randomized cross-check")
    p.add_argument("--cert")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET.max_field_size)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


# ``parse_args`` leaves the parser as it found it, and argparse formats and
# prints every message at call time, so one parser serves every ``main``
# call in a process; it is built on the first one.
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    if args.command == "oracle-check" and args.cert is None and args.random <= 0:
        print("oracle-check needs --cert or --random N", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
