import argparse
import contextlib
import io
import os
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from exactspan import GF, QQ, Frame, VecSequence, is_frame, lin_comb, sequence, verify_basic_lemma
from exactspan import cli
from exactspan.cli import main
from exactspan.lemma import check_certificate
from exactspan.randgen import random_invertible_matrix
from exactspan.textio import parse_certificate_file, parse_matrix_file, render_certificate, render_sequence
from test_textio import certificate_texts, mutated_files, near_format_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    ("rank_seq3", ["rank", "-s", fx("seq3_gf2.mat")], 0),
    ("rank_dep_gf5", ["rank", "-s", fx("dep_gf5.mat")], 0),
    ("rank_halves", ["rank", "-s", fx("halves_q.mat")], 0),
    ("member_in", ["member", "-s", fx("f2_gf2.mat"), "-x", fx("x_in_gf2.mat")], 0),
    ("member_comment", ["member", "-s", fx("f2_gf2.mat"), "-x", fx("x_comment_gf2.mat")], 0),
    ("member_out", ["member", "-s", fx("frame2_q.mat"), "-x", fx("x_out_q.mat")], 1),
    ("member_zero", ["member", "-s", fx("diag_q.mat"), "-x", fx("zero_q.mat")], 0),
    ("basis_gens", ["basis", "-s", fx("gens_q.mat")], 0),
    ("basis_dep_gf5", ["basis", "-s", fx("dep_gf5.mat")], 0),
    ("dim_seq3", ["dim", "-s", fx("seq3_gf2.mat")], 0),
    ("dim_gens", ["dim", "-s", fx("gens_q.mat")], 0),
    ("extend_frame1", ["extend", "-f", fx("frame1_gf2_3.mat"), "-s", fx("full_gf2_3.mat")], 0),
    ("extend_maximal", ["extend", "-f", fx("e2_gf2.mat"), "-s", fx("e2_gf2.mat")], 1),
    ("change_basis_gf2", ["change-basis", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat")], 0),
    ("change_basis_diag", ["change-basis", "-e", fx("e2_q.mat"), "-f", fx("diag_q.mat")], 0),
    ("verify_lemma_gf2", ["verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat")], 0),
    ("verify_lemma_rank1", ["verify-lemma", "-e", fx("e1_gf5.mat"), "-f", fx("f1_gf5.mat")], 0),
    ("verify_lemma_outside", ["verify-lemma", "-e", fx("frame2_q.mat"), "-f", fx("basis3_q.mat")], 1),
    ("trace_gf2", ["trace", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat")], 0),
    ("trace_rank1", ["trace", "-e", fx("e1_gf5.mat"), "-f", fx("f1_gf5.mat")], 0),
    ("steinitz_q", ["steinitz", "-b", fx("basis3_q.mat"), "-k", fx("frame2_q.mat")], 0),
    ("steinitz_noop", ["steinitz", "-b", fx("e2_gf2.mat"), "-k", fx("f2_gf2.mat")], 0),
    ("oracle_random", ["oracle-check", "--random", "25", "--seed", "7"], 0),
]


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(capsys, name, argv, expected_code):
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    golden_path = GOLDEN / f"{name}.txt"
    assert out == golden_path.read_text(), f"output drifted from {golden_path}"


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_determinism(capsys, name, argv, expected_code):
    assert run(capsys, *argv) == run(capsys, *argv)


REUSE_ARGVS = [
    ["rank"],  # missing required flag
    ["member", "-s"],  # flag without its value
    ["no-such-command"],
    [],
    ["--version"],
    ["--help"],
    ["verify-lemma", "--help"],
    ["oracle-check", "--random", "x"],  # bad type=int
    ["oracle-check"],
]


@pytest.mark.parametrize("argv", REUSE_ARGVS, ids=" ".join)
def test_parser_reuse_matches_a_fresh_parser(capsys, argv):
    cli._parser.cache_clear()
    fresh = run(capsys, *argv)
    assert run(capsys, *argv) == fresh
    assert run(capsys, *argv) == fresh


def test_main_builds_one_parser_tree(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [argv for _, argv, _ in GOLDEN_CASES[:16]] + REUSE_ARGVS[:4]
    for argv in argvs:
        main(argv)
    capsys.readouterr()
    assert len(argvs) == 20
    assert len(built) <= 11  # the top-level parser and its 10 subcommands


def test_emitted_certificate_revalidates(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys,
        "verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(cert_path),
    )
    assert code == 0
    assert check_certificate(parse_certificate_file(str(cert_path)))
    code, out, _ = run(capsys, "oracle-check", "--cert", str(cert_path))
    assert code == 0 and out == "certificate ok\n"


def test_trace_certificate_revalidates(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys,
        "trace", "-e", fx("e_gf5.mat"), "-f", fx("e_gf5.mat"),
        "--emit-cert", str(cert_path),
    )
    assert code == 0
    code, _, _ = run(capsys, "oracle-check", "--cert", str(cert_path))
    assert code == 0


def test_tampered_certificate_rejected(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    run(
        capsys,
        "verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(cert_path),
    )
    text = cert_path.read_text()
    lines = text.splitlines()
    # flip one coefficient in the C block
    c_start = lines.index("C") + 1
    lines[c_start] = "0 0"
    cert_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "oracle-check", "--cert", str(cert_path))
    assert code == 1 and out == "certificate invalid\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "-s", "does_not_exist.mat"],
        ["rank", "-s", fx("bad_dims.mat")],
        ["rank", "-s", fx("bad_scalar.mat")],
        ["rank", "-s", fx("bad_field.mat")],
        ["rank", "-s", fx("frac_in_gf.mat")],
        ["member", "-s", fx("e2_gf2.mat"), "-x", fx("e2_gf2.mat")],  # two rows, not a vector
        ["no-such-command"],
        ["member", "-s", fx("e2_gf2.mat")],  # missing -x
        ["oracle-check"],  # neither --cert nor --random
        ["verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"), "--emit-cert", ""],
        ["trace", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"), "--emit-cert", ""],
        ["oracle-check", "--cert", "", "--random", "2"],
        ["rank", "-s", ""],
        ["member", "-s", fx("e2_gf2.mat"), "-x", ""],
    ],
    ids=["missing", "bad_dims", "bad_scalar", "bad_field", "frac_in_gf",
         "vector_shape", "unknown_cmd", "missing_flag", "oracle_no_mode",
         "empty_emit_cert_lemma", "empty_emit_cert_trace", "empty_cert",
         "empty_sequence_path", "empty_vector_path"],
)
def test_input_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    if "" in argv:
        assert err.startswith("error: ") and not err.startswith("error: :")


def test_exit_1_never_used_for_io_problems(capsys):
    # negative mathematical answer: exit 1 with clean stdout, empty stderr
    code, out, err = run(capsys, "member", "-s", fx("frame2_q.mat"), "-x", fx("x_out_q.mat"))
    assert code == 1 and err == "" and out == "not in span\n"
    # I/O problem: exit 2, diagnostic on stderr
    code, out, err = run(capsys, "member", "-s", "missing.mat", "-x", fx("x_out_q.mat"))
    assert code == 2 and err != ""


@pytest.mark.parametrize("command", ["verify-lemma", "trace"])
def test_failed_certificate_write_exits_2(capsys, tmp_path, command):
    target = tmp_path / "no_such_dir" / "c.txt"
    code, out, err = run(
        capsys,
        command, "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("field", ["gf 2", "gf 5", "q"])
@pytest.mark.parametrize("command", ["verify-lemma", "trace"])
def test_f_outside_span_of_e_exits_1_without_certificate(capsys, tmp_path, command, field):
    e, f, target = tmp_path / "e.mat", tmp_path / "f.mat", tmp_path / "c.txt"
    e.write_text(f"field {field}\ndims 2 3\n1 0 0\n0 1 0\n", encoding="utf-8")
    f.write_text(f"field {field}\ndims 2 3\n1 0 0\n0 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, command, "-e", str(e), "-f", str(f), "--emit-cert", str(target))
    assert (code, out, err) == (1, "lemma preconditions fail: f is not contained in the span of e\n", "")
    assert not target.exists()


def test_vacuous_certificate_is_bad_input(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("certificate\nfield gf 2\nambient -3\nlength 0\ne\nf\nC\nend\n")
    code, out, err = run(capsys, "oracle-check", "--cert", str(cert_path))
    assert code == 2 and out == "" and "negative" in err


@pytest.mark.parametrize("command", ["verify-lemma", "trace"])
def test_failed_certificate_replace_keeps_old_certificate(capsys, tmp_path, monkeypatch, command):
    target = tmp_path / "c.txt"
    target.write_text("previous certificate\n")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr("os.replace", failing_replace)
    code, out, err = run(
        capsys,
        command, "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "simulated rename failure" in err
    assert target.read_text() == "previous certificate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


def test_certificate_overwrite_leaves_no_temporary_file(capsys, tmp_path):
    target = tmp_path / "c.txt"
    target.write_text("previous certificate\n")
    code, out, _ = run(
        capsys,
        "verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(target),
    )
    assert code == 0 and out.startswith("C\n")
    assert check_certificate(parse_certificate_file(str(target)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


@pytest.mark.parametrize(
    "field,literal",
    [("q", "1_0"), ("gf 5", "1_0"), ("q", "١٢")],
    ids=["underscore_q", "underscore_gf5", "arabic_indic"],
)
def test_lenient_int_literal_exits_2(capsys, tmp_path, field, literal):
    path = tmp_path / "seq.mat"
    path.write_text(f"field {field}\ndims 1 1\n{literal}\n", encoding="utf-8")
    code, out, err = run(capsys, "rank", "-s", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "header",
    ["field gf 1_1\ndims 1 2", "field gf 2\ndims ١ 2", "field gf 2\ndims 1 ２"],
    ids=["field_underscore", "dims_arabic_indic", "dims_fullwidth"],
)
def test_lenient_header_integer_exits_2(capsys, tmp_path, header):
    path = tmp_path / "seq.mat"
    path.write_text(f"{header}\n1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "rank", "-s", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-integer" in err


def test_lenient_certificate_header_integer_exits_2(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    path.write_text("certificate\nfield gf 2\nambient 0_0\nlength 0\ne\nf\nC\nend\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle-check", "--cert", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-integer" in err


@pytest.mark.parametrize(
    "text",
    ["field gf 2\x1cdims 1 2\x1c1 0", "field gf 2\ndims 1 2\n1\xa00\n",
     "field gf 2\x85dims 1 2\x851 0\x85", "field gf 2\ndims 1 2\n1 0\u2028\n",
     "field gf 2\rdims 1 2\r1 0\r"],
    ids=["file_separator", "nbsp", "next_line", "line_separator", "bare_cr"],
)
def test_other_separators_exit_2(capsys, tmp_path, text):
    path = tmp_path / "seq.mat"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run(capsys, "rank", "-s", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line ") and "separator" in err


def test_crlf_file_still_parses(capsys, tmp_path):
    path = tmp_path / "seq.mat"
    path.write_bytes(b"field gf 2\r\ndims 1 2\r\n1 0\r\n")
    code, out, _ = run(capsys, "rank", "-s", str(path))
    assert (code, out) == (0, "rank 1\n")


def test_dependent_certificate_frame_exits_2(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    path.write_text("certificate\nfield q\nambient 2\nlength 2\ne\n1 0\n2 0\nf\n1 0\n0 1\n"
                    "C\n1 0\n0 1\nend\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle-check", "--cert", str(path))
    assert code == 2 and out == ""
    assert "linearly dependent" in err


def test_certificate_is_synced_before_it_replaces_the_target(capsys, tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.path.getsize(src)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "c.txt"
    code, _, _ = run(
        capsys,
        "verify-lemma", "-e", fx("e2_gf2.mat"), "-f", fx("f2_gf2.mat"),
        "--emit-cert", str(target),
    )
    size = target.stat().st_size
    assert code == 0 and size > 0
    assert events == [("fsync", size), ("replace", size)]


def test_vectors_of_f0_exit_0(capsys, tmp_path):
    path = tmp_path / "seq.mat"
    path.write_text("field gf 3\ndims 2 0\n\n\n", encoding="utf-8")
    assert run(capsys, "rank", "-s", str(path))[:2] == (0, "rank 0\n")
    assert run(capsys, "basis", "-s", str(path))[:2] == (0, "length 0\n")
    vec = tmp_path / "x.mat"
    vec.write_text("field gf 3\ndims 1 0\n", encoding="utf-8")
    assert run(capsys, "member", "-s", str(path), "-x", str(vec))[:2] == (0, "coefficients 0 0\n")


# Two input files over different fields, or of different widths, are bad
# input: the commands that take a pair reject it where the files are loaded.
_PAIR_FLAGS = {
    "member": ("-s", "-x"),
    "change-basis": ("-e", "-f"),
    "verify-lemma": ("-e", "-f"),
    "trace": ("-e", "-f"),
    "steinitz": ("-b", "-k"),
    "extend": ("-f", "-s"),
}


@pytest.mark.parametrize("command", sorted(_PAIR_FLAGS))
def test_mismatched_pair_exits_2(capsys, tmp_path, command):
    first = tmp_path / "gf2_width2.mat"
    first.write_text("field gf 2\ndims 2 2\n1 0\n0 1\n", encoding="utf-8")
    others = {
        "field": "field gf 3\ndims 2 2\n1 0\n0 1\n",
        "width": "field gf 2\ndims 2 3\n1 0 0\n0 1 0\n",
    }
    if command == "extend":  # a frame and a sequence, both empty: no solve sees the fields
        first.write_text("field gf 2\ndims 0 2\n", encoding="utf-8")
        others = {"field": "field gf 3\ndims 0 2\n", "width": "field gf 2\ndims 0 3\n"}
    if command == "member":  # one-row files, so each is also a valid vector file
        first.write_text("field gf 2\ndims 1 2\n1 0\n", encoding="utf-8")
        others = {"field": "field gf 3\ndims 1 2\n1 0\n", "width": "field gf 2\ndims 1 3\n1 0 0\n"}
    flag_a, flag_b = _PAIR_FLAGS[command]
    for kind, text in others.items():
        second = tmp_path / f"{kind}.mat"
        second.write_text(text, encoding="utf-8")
        for a, b in ((first, second), (second, first)):
            code, out, err = run(capsys, command, flag_a, str(a), flag_b, str(b))
            assert (code, out) == (2, ""), (kind, out)
            assert err.startswith("error: ")
            assert str(a) in err and str(b) in err, err


# -- cli.main over generated files -------------------------------------------

# Each subcommand's arguments; M0/M1 are matrix files, CERT a certificate
# file and OUT a certificate target.
_ARGV = {
    "rank": ["-s", "M0"],
    "member": ["-s", "M0", "-x", "M1"],
    "basis": ["-s", "M0"],
    "dim": ["-s", "M0"],
    "extend": ["-f", "M0", "-s", "M1"],
    "change-basis": ["-e", "M0", "-f", "M1"],
    "verify-lemma": ["-e", "M0", "-f", "M1", "--emit-cert", "OUT"],
    "trace": ["-e", "M0", "-f", "M1", "--emit-cert", "OUT"],
    "steinitz": ["-b", "M0", "-k", "M1"],
    "oracle-check": ["--cert", "CERT"],
}


@st.composite
def small_sequences(draw, field, dim, min_size=0, max_size=4):
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=min_size, max_size=max_size))
    return sequence(field, rows, ambient_dim=dim)


def tampered(cert_text):
    """The certificate with its first coefficient changed."""
    lines = cert_text.split("\n")
    i = lines.index("C") + 1
    first, _, rest = lines[i].partition(" ")
    lines[i] = " ".join(["1" if first == "0" else "0"] + ([rest] if rest else []))
    return "\n".join(lines)


@st.composite
def cli_cases(draw):
    """A subcommand and its files.  Each file is, three times in four, a
    valid one over a common field and dimension: random sequences, the unit
    vectors, a single vector, and, when the first sequence is a frame, its image under a random
    invertible matrix, with their certificate, intact or tampered; or, among
    the matrix files, a valid sequence or a single vector over another field
    or of another width.  Otherwise it is a rendered text with tokens
    replaced, near-format text or arbitrary text."""
    command = draw(st.sampled_from(sorted(_ARGV) + ["oracle-random"]))
    if command == "oracle-random":
        argv = ["oracle-check", "--random", str(draw(st.integers(-1, 3))),
                "--seed", str(draw(st.integers(0, 99))), "--budget", str(draw(st.integers(0, 7)))]
        return argv, {}
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
    dim = draw(st.integers(0, 3))
    e = draw(small_sequences(field, dim))
    units = sequence(field, [[int(i == j) for j in range(dim)] for i in range(dim)], ambient_dim=dim)
    pool = [e, units, draw(small_sequences(field, dim)), draw(small_sequences(field, dim, 1, 1))]
    certs = [draw(certificate_texts())]
    if len(e) and is_frame(e):
        a = random_invertible_matrix(field, len(e), random.Random(draw(st.integers(0, 99))))
        f = VecSequence(field, dim, tuple(lin_comb(e, a.column(j).values).values for j in range(len(e))))
        cert = render_certificate(verify_basic_lemma(Frame(e), Frame(f)))
        pool.append(f)
        certs += [cert, tampered(cert)]
    broken = st.one_of(mutated_files(), near_format_text(), st.text(max_size=40))

    def file(valid):
        return draw(st.sampled_from(valid) if draw(st.integers(0, 3)) else broken)

    other_field, other_dim = draw(
        st.tuples(st.sampled_from([GF(2), GF(3), GF(5), QQ]), st.integers(0, 3))
        .filter(lambda fd: fd != (field, dim))
    )
    pool.append(draw(small_sequences(other_field, other_dim, 1, 3)))
    pool.append(draw(small_sequences(other_field, other_dim, 1, 1)))  # a vector file for `member -x`
    texts = [render_sequence(s) for s in pool]
    files = {"M0": file(texts), "M1": file(texts), "CERT": file(certs)}
    return [command] + _ARGV[command], files


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_cases())
def test_main_is_total_and_deterministic_on_generated_files(case):
    template, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": os.path.join(tmp, "out.cert")}
        for slot, text in files.items():
            paths[slot] = os.path.join(tmp, slot)
            with open(paths[slot], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        argv = [paths.get(a, a) for a in template]
        code, out, err = run_main(argv)
        assert code in (0, 1, 2)
        assert run_main(argv)[:2] == (code, out)
        if code == 0 and "OUT" in template:
            assert check_certificate(parse_certificate_file(paths["OUT"]))
        if "M0" in template and "M1" in template:
            try:
                a, b = (parse_matrix_file(paths[slot]) for slot in ("M0", "M1"))
            except ValueError:
                return
            if a.field is not b.field or a.ambient_dim != b.ambient_dim:
                assert (code, out) == (2, ""), "a mismatched pair must be bad input"
                assert paths["M0"] in err and paths["M1"] in err, err
