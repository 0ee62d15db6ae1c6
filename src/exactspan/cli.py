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
import os
import random
import sys
from typing import List, Optional

from . import __version__
from .core import solve_in_span
from .field import GF
from .lemma import (
    check_certificate,
    steinitz_extend,
    trace_induction,
    verify_basic_lemma,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    member_bruteforce,
    rank_bruteforce,
)
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


def _fmt_row(scalars) -> str:
    return " ".join(str(s) for s in scalars)


def _load_frame(path: str, what: str) -> Frame:
    seq = parse_matrix_file(path)
    try:
        return Frame(seq)
    except NotAFrameError:
        raise NotAFrameError(f"{what} ({path}) is not linearly independent") from None


def _single_vector(path: str):
    seq = parse_matrix_file(path)
    if len(seq) != 1:
        raise FormatError(f"{path}: expected exactly one row for a vector file")
    return seq[0]


def _cmd_rank(args) -> int:
    seq = parse_matrix_file(args.sequence)
    print(f"rank {rank_seq(seq)}")
    return EXIT_OK


def _cmd_member(args) -> int:
    seq = parse_matrix_file(args.sequence)
    x = _single_vector(args.vector)
    coeffs = solve_in_span(seq, x)
    if coeffs is None:
        print("not in span")
        return EXIT_NEGATIVE
    print("coefficients " + _fmt_row(coeffs))
    return EXIT_OK


def _cmd_basis(args) -> int:
    seq = parse_matrix_file(args.sequence)
    fr = basis_from_generators(seq)
    print(f"length {len(fr)}")
    for v in fr:
        print(_fmt_row(v.entries))
    return EXIT_OK


def _cmd_dim(args) -> int:
    seq = parse_matrix_file(args.sequence)
    print(f"dim {span_of(seq).dim}")
    return EXIT_OK


def _cmd_extend(args) -> int:
    fr = _load_frame(args.frame, "frame")
    sub = span_of(parse_matrix_file(args.sequence))
    try:
        v = extend_frame(fr, sub)
    except MaximalFrameError:
        print("maximal")
        return EXIT_NEGATIVE
    print("extension " + _fmt_row(v.entries))
    return EXIT_OK


def _cmd_change_basis(args) -> int:
    e = _load_frame(args.e, "e")
    f = _load_frame(args.f, "f")
    try:
        a, a_inv = change_of_basis(e, f)
    except (ValueError, NotAFrameError) as exc:
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
    to a temporary file next to the target, which then replaces the target
    in one step: a failure leaves any earlier certificate intact and removes
    the temporary file."""
    if not path:
        return
    text = render_certificate(cert)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cmd_verify_lemma(args) -> int:
    e = _load_frame(args.e, "e")
    f = _load_frame(args.f, "f")
    try:
        cert = verify_basic_lemma(e, f)
    except (ValueError, NotAFrameError) as exc:
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
    e = _load_frame(args.e, "e")
    f = _load_frame(args.f, "f")
    try:
        trace = trace_induction(e, f)
    except (ValueError, NotAFrameError) as exc:
        print(f"lemma preconditions fail: {exc}")
        return EXIT_NEGATIVE
    _emit_certificate(args.emit_cert, trace.final_certificate)
    sys.stdout.write(render_trace(trace))
    return EXIT_OK


def _cmd_steinitz(args) -> int:
    basis = _load_frame(args.basis, "basis")
    fr = _load_frame(args.frame, "frame")
    try:
        extended, picked, r = steinitz_extend(basis, fr)
    except (ValueError, NotAFrameError) as exc:
        print(f"steinitz preconditions fail: {exc}")
        return EXIT_NEGATIVE
    print(" ".join(["picked"] + [str(i) for i in picked]))
    print(f"r {r}")
    for v in extended:
        print(_fmt_row(v.entries))
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.cert:
        cert = parse_certificate_file(args.cert)
        if check_certificate(cert):
            print("certificate ok")
            return EXIT_OK
        print("certificate invalid")
        return EXIT_NEGATIVE
    budget = EnumerationBudget(
        max_field_size=args.budget,
        max_ambient_dim=DEFAULT_BUDGET.max_ambient_dim,
        max_sequence_len=DEFAULT_BUDGET.max_sequence_len,
    )
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    if args.command == "oracle-check" and not args.cert and args.random <= 0:
        print("oracle-check needs --cert or --random N", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (FormatError, NotAFrameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
