"""The three workloads.  Each workload function takes the imported ``exactspan``
package, a seeded ``random.Random``, a scratch directory and ``tiny`` (test
sizes) and returns a list of :class:`Op`.

``Op.run`` is the timed call into the library or CLI; it builds its
inputs from raw ints/Fractions itself, because that boxing is part of
what a user pays.  ``Op.check`` validates the result without the engine
(substitution, ranks known by construction, parsing stdout back) and
returns a canonical raw form of the answer for the output digest; it
raises :class:`Wrong` on a wrong answer.
"""

from __future__ import annotations

import io
import itertools
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, List, NamedTuple, Optional, Sequence

import gen


class Wrong(Exception):
    """The program returned a wrong answer."""


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def field_of(lib, p: Optional[int]):
    return lib.QQ if p is None else lib.GF(p)


def raw_vec(v) -> list:
    return [s.value for s in v.entries]


def raw_seq(seq) -> list:
    return [raw_vec(v) for v in seq]


def raw_mat(m) -> list:
    return [[s.value for s in row] for row in m.entries]


def check_inclusion(e, f, c, p) -> None:
    """e[i] = sum_j C[j][i] f[j] for every i, by substitution."""
    n = len(e)
    expect(len(c) == n and all(len(row) == n for row in c), "coefficient matrix shape")
    for i in range(n):
        expect(gen.combo([c[j][i] for j in range(n)], f, p) == list(e[i]), f"e[{i}] not reproduced")


def check_change_of_basis(e, f, a, a_inv, p) -> None:
    expect(gen.is_identity(gen.matmul(a, a_inv, p)), "A·A_inv != I")
    expect(gen.is_identity(gen.matmul(a_inv, a, p)), "A_inv·A != I")
    for j in range(len(f)):
        expect(gen.combo([row[j] for row in a], e, p) == list(f[j]), f"f[{j}] != sum_i A[i][j] e_i")


def is_subsequence(rows, gens) -> bool:
    it = iter(gens)
    return all(any(r == g for g in it) for r in rows)


def check_basis(rows, gens, r, p) -> None:
    expect(len(rows) == r, f"basis length {len(rows)} != rank {r}")
    expect(is_subsequence(rows, gens), "basis is not a subsequence of the generators")
    expect(gen.ref_rank(rows, p) == r, "basis vectors dependent")


def check_steinitz(ext, picked, r, basis, e, p) -> None:
    n, m = len(e), len(basis)
    expect(r == m - n == len(picked), "picked count != codimension")
    expect(list(picked) == sorted(set(picked)), "picked indices not increasing")
    expect(ext[:n] == e, "extension does not start with the frame")
    expect(all(ext[n + t] == basis[i] for t, i in enumerate(picked)), "picked vectors differ")
    expect(gen.ref_rank(ext, p) == m, "extension is not a basis")


def check_extension(v, fr, sub, dim, p) -> None:
    expect(gen.ref_rank(list(fr) + [v], p) == len(fr) + 1, "extension vector inside the frame span")
    expect(gen.ref_rank(list(sub) + [v], p) == dim, "extension vector outside the subspace")


def check_kernel(kernel, rows, nullity, p) -> None:
    expect(len(kernel) == nullity, f"kernel dimension {len(kernel)} != {nullity}")
    zero = [gen.reduce(0, p)] * len(rows[0])
    for k in kernel:
        expect(gen.combo(k, rows, p) == zero, "kernel vector does not annihilate")
    # an identity submatrix on some columns proves the kernel vectors independent
    for i, k in enumerate(kernel):
        expect(
            any(k[c] == 1 and all(o[c] == 0 for t, o in enumerate(kernel) if t != i) for c in range(len(k))),
            "kernel vectors not independent",
        )


# -- proofs-small ------------------------------------------------------------

def proofs_small(lib, rng: random.Random, tmpdir: str, tiny: bool = False) -> List[Op]:
    """Acceptance-shaped instances, n in [1,5], m in [n,7], round-robin over
    GF(2), GF(3), GF(5) and Q; seven operations per instance."""
    shapes = [(n, m) for n in range(1, 6) for m in range(n, 8)]
    if tiny:
        shapes = [(1, 2), (2, 3)]
    ops: List[Op] = []
    idx = 0
    for n, m in shapes:
        for p in (2, 3, 5, None):
            ops += _proof_ops(lib, rng, p, n, m, idx)
            idx += 1
    return ops


def _proof_ops(lib, rng, p, n, m, idx) -> List[Op]:
    e, f, block = gen.frame_pair(rng, p, n, m)
    basis = gen.full_row_rank(rng, p, m, m)[0]
    gens = gen.rank_r_sequence(rng, p, n + 2, m, n)[0]
    k = n - 1 if n > 1 else n
    target, inside = f, True
    if m > n and idx % 2:
        target, inside = f[:-1] + [gen.out_of_span(rng, p, e, block)], False

    def frames():
        fld = field_of(lib, p)
        return fld, lib.Frame(lib.sequence(fld, e)), lib.Frame(lib.sequence(fld, f))

    def run_verify():
        _, fe, ff = frames()
        cert = lib.verify_basic_lemma(fe, ff)
        return cert, lib.check_certificate(cert)

    def check_verify(out):
        cert, ok = out
        expect(ok is True, "check_certificate rejected the certificate")
        c = raw_mat(cert.coefficient_matrix)
        check_inclusion(e, f, c, p)
        return c

    def run_cob():
        _, fe, ff = frames()
        return lib.change_of_basis(fe, ff)

    def check_cob(out):
        a, a_inv = raw_mat(out[0]), raw_mat(out[1])
        check_change_of_basis(e, f, a, a_inv, p)
        return a, a_inv

    def run_trace():
        _, fe, ff = frames()
        return lib.trace_induction(fe, ff)

    def check_trace(trace):
        expect(len(trace.levels) == n, "one level per rank")
        canon = []
        for level in trace.levels:
            le, lf, c = raw_seq(level.e), raw_seq(level.f), raw_mat(level.coefficient_matrix)
            check_inclusion(le, lf, c, p)
            canon.append((c, [raw_vec(w) for w in level.witnesses]))
        last = trace.levels[-1]
        expect(raw_seq(last.e) == e and raw_seq(last.f) == f, "top level is not the input pair")
        return canon

    def run_steinitz():
        fld, fe, _ = frames()
        return lib.steinitz_extend(lib.Frame(lib.sequence(fld, basis)), fe)

    def check_steinitz_out(out):
        ext, picked, r = out
        ext = raw_seq(ext)
        check_steinitz(ext, picked, r, basis, e, p)
        return ext, picked

    def run_basis():
        return lib.basis_from_generators(lib.sequence(field_of(lib, p), gens))

    def check_basis_out(fr):
        rows = raw_seq(fr)
        check_basis(rows, gens, n, p)
        return rows

    def run_extend():
        fld = field_of(lib, p)
        sub = lib.span_of(lib.sequence(fld, e))
        fr = lib.Frame(lib.sequence(fld, e[:k]))
        if lib.is_maximal_in(fr, sub):
            return None
        return lib.extend_frame(fr, sub)

    def check_extend(v):
        expect((v is None) == (k == n), "maximality answer wrong")
        if v is None:
            return None
        v = raw_vec(v)
        check_extension(v, e[:k], e, n, p)
        return v

    def run_contains():
        fld = field_of(lib, p)
        return lib.span_of(lib.sequence(fld, e)).contains_seq(lib.sequence(fld, target))

    def check_contains(ans):
        expect(ans is inside, "containment answer wrong")
        return ans

    return [
        Op("verify_basic_lemma", run_verify, check_verify),
        Op("change_of_basis", run_cob, check_cob),
        Op("trace_induction", run_trace, check_trace),
        Op("steinitz_extend", run_steinitz, check_steinitz_out),
        Op("basis_from_generators", run_basis, check_basis_out),
        Op("extend_frame", run_extend, check_extend),
        Op("contains_seq", run_contains, check_contains),
    ]


# -- solve-large -------------------------------------------------------------

def solve_large(lib, rng: random.Random, tmpdir: str, tiny: bool = False) -> List[Op]:
    """One elimination per question on large matrices: full-rank and
    rank-deficient, square (n vectors in F^n) at the larger n and wide
    (2n vectors) at the smaller n, so that one pass stays near 5 s."""
    groups = [(None, (16, 24), ("small", "20bit")), (65521, (48, 64), ("small",)), (2, (96, 128), ("small",))]
    if tiny:
        groups = [(None, (3, 4), ("small", "20bit")), (65521, (4, 5), ("small",)), (2, (5, 6), ("small",))]
    ops: List[Op] = []
    for p, (n_wide, n_square), heights in groups:
        for height in heights:
            for full in (True, False):
                ops += _solve_ops(lib, rng, p, n_square, height, full, False)
                ops += _solve_ops(lib, rng, p, n_wide, height, full, True)
    return ops


def _solve_ops(lib, rng, p, n, height, full, wide) -> List[Op]:
    r = n if full else n - n // 4
    length = 2 * n if wide else n
    rows, block = gen.rank_r_sequence(rng, p, length, n, r, height)
    cols = gen.transpose(rows)
    targets, inside = [], []
    for t in range(4):
        if t % 2 and r < n:
            targets.append(gen.out_of_span(rng, p, rows, block))
            inside.append(False)
        else:
            targets.append(gen.in_span(rng, p, rows))
            inside.append(True)

    def seq():
        return lib.sequence(field_of(lib, p), rows)

    def check_rank(ans):
        expect(ans == r, f"rank {ans} != {r}")
        return ans

    def run_solve():
        fld = field_of(lib, p)
        return lib.core.solve_many(lib.sequence(fld, rows), [lib.vector(fld, t) for t in targets])

    def check_solve(sols):
        expect(len(sols) == len(targets), "one answer per target")
        canon = []
        for sol, t, ok in zip(sols, targets, inside):
            expect((sol is not None) == ok, "membership answer wrong")
            if sol is not None:
                c = [s.value for s in sol]
                expect(gen.combo(c, rows, p) == t, "witness does not reproduce the target")
                canon.append(c)
            else:
                canon.append(None)
        return canon

    def run_kernel():
        return lib.kernel_basis(lib.matrix(field_of(lib, p), cols))

    def check_kernel_out(ker):
        kernel = raw_seq(ker)
        check_kernel(kernel, rows, length - r, p)
        return kernel

    return [
        Op("rank_seq", lambda: lib.rank_seq(seq()), check_rank),
        Op("span_dim", lambda: lib.span_of(seq()).dim, check_rank),
        Op("solve_many", run_solve, check_solve),
        Op("kernel_basis", run_kernel, check_kernel_out),
    ]


# -- cli-files ---------------------------------------------------------------

def render_matrix(p: Optional[int], rows: Sequence) -> str:
    head = "field q" if p is None else f"field gf {p}"
    width = len(rows[0]) if rows else 0
    lines = [head, f"dims {len(rows)} {width}"] + [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_rows(lines: Sequence[str], p: Optional[int]) -> list:
    return [[gen.parse_scalar(t, p) for t in line.split()] for line in lines]


def parse_cert(text: str, p: Optional[int]):
    lines = text.splitlines()
    expect(lines[0] == "certificate" and lines[-1] == "end", "certificate framing")
    n = int(lines[3].split()[1])
    e = parse_rows(lines[5:5 + n], p)
    f = parse_rows(lines[6 + n:6 + 2 * n], p)
    c = parse_rows(lines[7 + 2 * n:7 + 3 * n], p)
    return e, f, c


def cli_files(lib, rng: random.Random, tmpdir: str, tiny: bool = False) -> List[Op]:
    """In-process ``cli.main(argv)`` over files written here at set-up:
    every subcommand, tall generator files for parsing, certificates
    written and read back, and 10 malformed inputs among 198 calls."""
    gen_shapes = [(200, 8, 8), (200, 8, 5), (40, 8, 6)]
    frame_shapes = [(3, 5), (5, 8), (8, 12)]
    trace_shapes = [(2, 3), (4, 6)]
    if tiny:
        gen_shapes, frame_shapes, trace_shapes = [(6, 3, 2)], [(2, 3)], [(2, 2)]
    ops: List[Op] = []
    counter = itertools.count()

    def write(text: str) -> str:
        path = os.path.join(tmpdir, f"in{next(counter)}.mat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(argv, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def checked(res):
            code, out, err = res
            expect("Traceback" not in err, "traceback on stderr")
            check(code, out.splitlines())
            return code, out

        ops.append(Op(argv[0], run, checked))

    for p in (2, 65521, None) * (1 if tiny else 2):
        for length, d, r in gen_shapes:
            rows, block = gen.rank_r_sequence(rng, p, length, d, r)
            s = write(render_matrix(p, rows))
            add(["rank", "-s", s], _expect_line(f"rank {r}"))
            add(["dim", "-s", s], _expect_line(f"dim {r}"))
            add(["basis", "-s", s], _basis_checker(rows, r, p))
            x_in = gen.in_span(rng, p, rows)
            add(["member", "-s", s, "-x", write(render_matrix(p, [x_in]))], _member_checker(rows, x_in, p))
            if r < d:
                x_out = gen.out_of_span(rng, p, rows, block)
                add(["member", "-s", s, "-x", write(render_matrix(p, [x_out]))], _member_checker(rows, None, p))
        for i, (n, m) in enumerate(frame_shapes):
            e, f, _ = gen.frame_pair(rng, p, n, m)
            basis = gen.full_row_rank(rng, p, m, m)[0]
            fe, ff = write(render_matrix(p, e)), write(render_matrix(p, f))
            cert = os.path.join(tmpdir, f"cert{next(counter)}.txt")
            add(["change-basis", "-e", fe, "-f", ff], _cob_checker(e, f, p))
            add(["verify-lemma", "-e", fe, "-f", ff, "--emit-cert", cert], _lemma_checker(e, f, p, cert))
            add(["oracle-check", "--cert", cert], _expect_line("certificate ok"))
            add(["steinitz", "-b", write(render_matrix(p, basis)), "-k", fe], _steinitz_checker(e, basis, p))
            if i % 2:
                add(["extend", "-f", fe, "-s", ff], _extend_checker(None, e, p))
            else:
                k = max(1, n - 1)
                add(["extend", "-f", write(render_matrix(p, e[:k])), "-s", fe], _extend_checker(e[:k], e, p))
        for n, m in trace_shapes:
            e, f, _ = gen.frame_pair(rng, p, n, m)
            cert = os.path.join(tmpdir, f"cert{next(counter)}.txt")
            argv = ["trace", "-e", write(render_matrix(p, e)), "-f", write(render_matrix(p, f)), "--emit-cert", cert]
            add(argv, _trace_checker(e, f, p, cert))
    for _ in range(2):
        add(["oracle-check", "--random", "20", "--seed", str(rng.randrange(10**6))], _expect_line("ok 20 checks"))

    bad_dep = render_matrix(5, [[1, 2, 3], [2, 4, 6]])
    malformed = [
        ["rank", "-s", write("field gf 2\ndims 1 2\n1 x\n")],
        ["dim", "-s", write("field gf 5\ndims 1 2\n1/2 1\n")],
        ["member", "-s", write("field q\ndims 3 2\n1 0\n0 1\n"), "-x", write("field q\ndims 1 2\n1 1\n")],
        ["change-basis", "-e", write(bad_dep), "-f", write(bad_dep)],
        ["oracle-check", "--cert", write("certificate\nfield gf 2\nambient 2\nlength 1\ne\n1 0\nend\n")],
        ["rank", "-s", os.path.join(tmpdir, "missing.mat")],
        ["basis", "-s", write("field gf 4\ndims 1 1\n1\n")],
        ["dim", "-s", write("field q\ndims -1 2\n")],
        ["oracle-check"],
        ["frobnicate"],
    ]
    for argv in malformed[: 1 if tiny else None]:
        add(argv, _expect_exit(2))
    return ops


def _expect_exit(code: int):
    def check(got, lines):
        expect(got == code, f"exit {got} != {code}")
    return check


def _expect_line(line: str):
    def check(code, lines):
        expect(code == 0, f"exit {code} != 0")
        expect(lines == [line], f"stdout {lines!r} != {[line]!r}")
    return check


def _basis_checker(gens, r, p):
    def check(code, lines):
        expect(code == 0 and lines[0] == f"length {r}", "basis header")
        check_basis(parse_rows(lines[1:], p), gens, r, p)
    return check


def _member_checker(rows, x, p):
    def check(code, lines):
        if x is None:
            expect(code == 1 and lines == ["not in span"], "expected 'not in span'")
            return
        expect(code == 0 and lines[0].startswith("coefficients "), "expected coefficients")
        coeffs = [gen.parse_scalar(t, p) for t in lines[0].split()[1:]]
        expect(gen.combo(coeffs, rows, p) == x, "witness does not reproduce the vector")
    return check


def _cob_checker(e, f, p):
    def check(code, lines):
        n = len(e)
        expect(code == 0 and lines[0] == "A" and lines[n + 1] == "A_inv", "change-basis layout")
        a, a_inv = parse_rows(lines[1:n + 1], p), parse_rows(lines[n + 2:], p)
        check_change_of_basis(e, f, a, a_inv, p)
    return check


def _check_cert_file(path, e, f, p):
    with open(path, encoding="utf-8") as fh:
        ce, cf, c = parse_cert(fh.read(), p)
    expect(ce == e and cf == f, "certificate frames differ from the input")
    check_inclusion(e, f, c, p)


def _lemma_checker(e, f, p, cert):
    def check(code, lines):
        expect(code == 0 and lines[0] == "C", "verify-lemma layout")
        check_inclusion(e, f, parse_rows(lines[1:], p), p)
        _check_cert_file(cert, e, f, p)
    return check


def _steinitz_checker(e, basis, p):
    def check(code, lines):
        expect(code == 0 and lines[0].split()[0] == "picked", "steinitz layout")
        picked = [int(t) for t in lines[0].split()[1:]]
        r = int(lines[1].split()[1])
        check_steinitz(parse_rows(lines[2:], p), picked, r, basis, e, p)
    return check


def _extend_checker(fr, e, p):
    def check(code, lines):
        if fr is None:
            expect(code == 1 and lines == ["maximal"], "expected 'maximal'")
            return
        expect(code == 0 and lines[0].startswith("extension "), "expected an extension")
        check_extension(parse_rows([lines[0][len("extension "):]], p)[0], fr, e, len(e), p)
    return check


def _trace_checker(e, f, p, cert):
    def check(code, lines):
        expect(code == 0 and lines[0] == "trace" and lines[-1] == "end", "trace framing")
        levels = [i for i, line in enumerate(lines) if line.startswith("level ")]
        expect(len(levels) == len(e), "one level per rank")
        for k, start in enumerate(levels, start=1):
            end = levels[k] if k < len(levels) else len(lines) - 1
            block = lines[start:end]
            le = parse_rows(block[2:2 + k], p)
            lf = parse_rows(block[3 + k:3 + 2 * k], p)
            c = parse_rows(block[block.index("C") + 1:], p)
            check_inclusion(le, lf, c, p)
        expect(le == e and lf == f, "top level is not the input pair")
        _check_cert_file(cert, e, f, p)
    return check


WORKLOADS = {"proofs-small": proofs_small, "solve-large": solve_large, "cli-files": cli_files}
