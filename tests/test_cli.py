import pathlib

import pytest

from exactspan.cli import main
from exactspan.lemma import check_certificate
from exactspan.textio import parse_certificate_file

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
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


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
    ],
    ids=["missing", "bad_dims", "bad_scalar", "bad_field", "frac_in_gf",
         "vector_shape", "unknown_cmd", "missing_flag", "oracle_no_mode"],
)
def test_input_errors_exit_2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2


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
