"""Command-line behavior: outputs, formats and exit codes."""

import pytest

from z4udna import cli
from z4udna.cli import main
from z4udna.errors import CapExceeded, Z4uError

T3_WORDS = {
    "AAAAAA", "TTTTTT", "CCCCCC", "GGGGGG",
    "ATATAT", "TATATA", "CTCTCT", "GAGAGA",
    "AGAGAG", "TCTCTC", "CGCGCG", "GCGCGC",
    "ACACAC", "TGTGTG", "CACACA", "GTGTGT",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_7(capsys):
    code, out, _ = run(capsys, "factor", "--n", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F2: 1,1 1,1,0,1 1,0,1,1"
    assert lines[1] == "Z4: 3,1 3,1,2,1 3,2,3,1"


def test_factor_3(capsys):
    code, out, _ = run(capsys, "factor", "--n", "3")
    assert code == 0
    assert out.splitlines()[1] == "Z4: 3,1 1,1,1"


def test_factor_rejects_even(capsys):
    code, _, err = run(capsys, "factor", "--n", "4")
    assert code == 2
    assert "error" in err


def test_build_dna_reproduces_constant_codebook(capsys):
    code, out, _ = run(capsys, "build", "--n", "3", "--f1", "1,1,1",
                       "--f2", "1,1,1", "--format", "dna")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=3"
    assert lines[1] == "size=16"
    assert set(lines[3:]) == T3_WORDS


def test_build_length7(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--f1", "1,1,1,1,1,1,1",
                       "--f2", "1,1,1,1,1,1,1", "--format", "dna")
    assert code == 0
    words = set(out.splitlines()[3:])
    assert words == {w[0:2] * 7 for w in T3_WORDS}


def test_build_gray_zero_code(capsys):
    code, out, _ = run(capsys, "build", "--n", "3", "--f1", "3,0,0,1",
                       "--f2", "3,0,0,1", "--format", "gray")
    assert code == 0
    assert out.splitlines()[3:] == ["0" * 12]


def test_build_invalid_generators(capsys):
    code, _, err = run(capsys, "build", "--n", "3", "--f1", "3,1", "--f2", "1,1,1")
    assert code == 2 and "f2" in err


def test_check_rejects_f2_that_does_not_divide_x_n_minus_1(capsys):
    # f1 = x^3 - 1 reduces to 0 mod x^3 - 1; f2 = x^5 + 1 must still be refused
    code, out, err = run(capsys, "check", "--n", "3", "--f1", "3,0,0,1",
                         "--f2", "1,0,0,0,0,1", "--property", "thm31")
    assert (code, out, err) == (2, "", "error: f2 does not divide f1\n")


def test_build_cap_exceeded(capsys):
    code, _, err = run(capsys, "build", "--n", "3", "--f1", "1",
                       "--f2", "1", "--cap", "10")
    assert code == 3


def test_build_writes_files(tmp_path, capsys):
    out_path = tmp_path / "code.txt"
    book_path = tmp_path / "book.txt"
    code, _, _ = run(capsys, "build", "--n", "3", "--f1", "1,1,1", "--f2", "1,1,1",
                     "--format", "ring", "--out", str(out_path),
                     "--codebook-out", str(book_path))
    assert code == 0
    assert out_path.read_text().startswith("n=3\nsize=16\n")
    from z4udna import dna
    assert set(dna.read_codebook(book_path)) == T3_WORDS


def test_check_properties(capsys):
    base = ("--n", "3", "--f1", "1,1,1", "--f2", "1,1,1")
    code, out, _ = run(capsys, "check", *base, "--property", "thm41")
    assert code == 0
    assert out.splitlines()[-1] == "result=true"
    code, out, _ = run(capsys, "check", *base, "--property", "dna")
    assert code == 0 and "result=true" in out
    code, out, _ = run(capsys, "check", "--n", "3", "--f1", "3,0,0,1",
                       "--f2", "3,0,0,1", "--property", "rc")
    assert code == 1
    assert out.splitlines()[-1] == "result=false"


@pytest.mark.parametrize("gens, prop", [
    (("--f1", "1", "--f2", "1"), "thm41"),
    (("--f1", "1", "--f2", "1", "--f3", "1", "--f4", "1"), "thm42"),
], ids=["thm41", "thm42"])
def test_rc_theorems_ignore_the_cap(capsys, gens, prop):
    # the code has 2^28 words, but T41/T42 never enumerate it
    code, out, err = run(capsys, "check", "--n", "7", *gens, "--property", prop,
                         "--cap", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "result=true"


@pytest.mark.parametrize("error", [Z4uError, *Z4uError.__subclasses__()],
                         ids=lambda e: e.__name__)
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, error):
    def fail(args):
        raise error("boom")
    monkeypatch.setattr(cli, "cmd_factor", fail)
    code, out, err = run(capsys, "factor", "--n", "3")
    assert code == (3 if error is CapExceeded else 2)
    assert (out, err) == ("", "error: boom\n")


def test_check_form_mismatch(capsys):
    code, _, err = run(capsys, "check", "--n", "3", "--f1", "1,1,1", "--f2", "1,1,1",
                       "--f3", "3,1", "--f4", "1", "--property", "thm31")
    assert code == 2 and "error" in err


def test_distance(capsys):
    base = ("--n", "3", "--f1", "1,1,1", "--f2", "1,1,1")
    assert run(capsys, "distance", *base, "--metric", "hamming")[:2] == (0, "3\n")
    assert run(capsys, "distance", *base, "--metric", "dna")[:2] == (0, "3\n")
    seven = ("--n", "7", "--f1", "1,1,1,1,1,1,1", "--f2", "1,1,1,1,1,1,1")
    assert run(capsys, "distance", *seven, "--metric", "hamming")[:2] == (0, "7\n")


def test_distance_codebook(tmp_path, capsys):
    book = tmp_path / "book.txt"
    book.write_text("# two words\nAAAA\nAATT\n")
    code, out, _ = run(capsys, "distance", "--n", "2", "--codebook", str(book),
                       "--metric", "dna")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "distance", "--n", "2", "--codebook", str(book),
                       "--metric", "lee")
    assert code == 0 and out == "3\n"  # (0, 1+u) vs zero: wL(3+3u) = 3
    # every metric counts distinct words, so a repeated word is not at distance 0
    book.write_text("AAAA\nAAAA\nAATT\n")
    for metric, expected in (("dna", "2\n"), ("hamming", "1\n"), ("lee", "3\n")):
        code, out, _ = run(capsys, "distance", "--n", "2", "--codebook", str(book),
                           "--metric", metric)
        assert (code, out) == (0, expected)
    book.write_text("AAAA\nAAAA\n")
    for metric in ("dna", "hamming", "lee"):
        code, _, err = run(capsys, "distance", "--n", "2", "--codebook", str(book),
                           "--metric", metric)
        assert code == 2 and "two words" in err


def test_file_errors_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "distance", "--n", "2", "--codebook", str(missing))
    assert (code, out) == (2, "") and err.startswith("error: ")
    base = ("build", "--n", "3", "--f1", "1,1,1", "--f2", "1,1,1")
    nowhere = str(tmp_path / "no-such-dir" / "out.txt")
    for flag in ("--out", "--codebook-out"):
        code, _, err = run(capsys, *base, flag, nowhere)
        assert code == 2 and err.startswith("error: ")


def test_crossval_deterministic(capsys):
    args = ("crossval", "--n", "7", "--samples", "6", "--seed", "1",
            "--cap", str(1 << 13))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert code1 == code2
    assert out1.splitlines()[-1].startswith("agreements=")


def test_crossval_rejects_even_n(capsys):
    code, _, err = run(capsys, "crossval", "--n", "2")
    assert code == 2


def test_crossval_exhaustive_needs_small_n(capsys):
    code, _, err = run(capsys, "crossval", "--n", "7")
    assert code == 2 and "--samples" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_crossval_rejects_fewer_than_one_sample(capsys, samples):
    code, out, err = run(capsys, "crossval", "--n", "7", "--samples", samples)
    assert code == 2 and out == "" and "--samples" in err


def test_crossval_exit_reflects_agreement(capsys):
    code, out, _ = run(capsys, "crossval", "--n", "1")
    assert code == 0
    assert out.splitlines()[-1].split("=")[1].split("/")[0] == \
           out.splitlines()[-1].split("/")[1]
