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


@pytest.mark.parametrize("cap, status, err", [
    (4095, 3, "error: code grew past cap=4095\n"),
    (4096, 0, ""),
])
def test_build_cap_is_exact_at_the_code_size(capsys, cap, status, err):
    # f1 = f2 = 1 at n = 3 gives the whole space of 16^3 = 4096 words
    code, out, error = run(capsys, "build", "--n", "3", "--f1", "1", "--f2", "1",
                           "--cap", str(cap))
    assert (code, error) == (status, err)
    if status == 0:
        assert out.startswith("n=3\nsize=4096\n")
    else:
        assert out == ""


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


@pytest.mark.parametrize("given", [("--f1", "1,1,1"), ("--f2", "1,1,1")],
                         ids=["without-f2", "without-f1"])
def test_check_needs_f1_and_f2(capsys, given):
    assert run(capsys, "check", "--n", "3", *given, "--property", "thm31") == (
        2, "", "error: --f1 and --f2 are required\n")


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
    # the 1024-word n=7 code of f2 = x^3 + 2x^2 + x - 1
    hamming7 = ("--n", "7", "--f1", "1,1,1,1,1,1,1", "--f2", "3,1,2,1")
    assert run(capsys, "distance", *hamming7, "--metric", "lee") == (0, "6\n", "")


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


def test_distance_codebook_does_not_need_n(tmp_path, capsys):
    """--n is optional with --codebook and still accepted there."""
    book = tmp_path / "book.txt"
    book.write_text("AAAA\nAATT\n")
    for metric, expected in (("dna", "2\n"), ("hamming", "1\n"), ("lee", "3\n")):
        assert run(capsys, "distance", "--codebook", str(book),
                   "--metric", metric) == (0, expected, "")
        assert run(capsys, "distance", "--n", "7", "--codebook", str(book),
                   "--metric", metric) == (0, expected, "")


def test_distance_codebook_reads_utf8(tmp_path, capsys):
    """A codebook file is UTF-8: a comment outside ASCII reads as a comment,
    and a word with a letter outside ACGT, ASCII or not, is a usage error
    naming that word."""
    book = tmp_path / "book.txt"
    book.write_text("# n=3 \u00e9\nAAAA\nAATT\n", encoding="utf-8")
    assert run(capsys, "distance", "--codebook", str(book), "--metric", "dna") == (0, "2\n", "")
    for word in ("AATX", "AAT\u00c9"):
        book.write_text(f"# n=3 \u00e9\nAAAA\n{word}\n", encoding="utf-8")
        assert run(capsys, "distance", "--codebook", str(book), "--metric", "dna") == (
            2, "", f"error: letters outside ACGT in {word!r}\n")


@pytest.mark.parametrize("argv", [
    ("distance", "--metric", "dna"),
    ("distance", "--f1", "1,1,1", "--f2", "1,1,1", "--metric", "hamming"),
])
def test_distance_without_codebook_needs_n(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: --n is required without --codebook\n")


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
    # n = 5 is refused too: its exhaustive walk does not finish in practice
    for n in ("5", "7"):
        code, out, err = run(capsys, "crossval", "--n", n)
        assert (code, out) == (2, "") and "--samples" in err, n


def test_crossval_names_the_length_it_cannot_sweep(capsys):
    # an even or too long n fails the same way with or without --samples,
    # so it is not told to pass --samples
    for n in ("4", "65"):
        for extra in ((), ("--samples", "2")):
            code, out, err = run(capsys, "crossval", "--n", n, *extra)
            assert (code, out) == (2, "") and "n must be odd with 1 <= n <= 63" in err, n
            assert "--samples" not in err
    code, _, err = run(capsys, "crossval", "--n", "5")
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
