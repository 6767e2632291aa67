import argparse
import json

import pytest

import detpf
from detpf import constructions, exactlin, graded, mpoly, polymat
from detpf.cli import build_parser, main
from detpf.exactlin import DEFAULT_PRIME, PrimeField
from detpf.constructions import fermat_matrix
from detpf.polymat import parse_graded_matrix
from detpf.graded import random_point_set
from detpf.rng import FieldRng

F = PrimeField(DEFAULT_PRIME)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_lists_every_subcommand():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "formulas",
        "dominance",
        "dominance-sweep",
        "lower-bound",
        "construct",
        "verify",
        "hilbert",
        "gorenstein",
        "smooth",
    ):
        assert name in text


def test_formulas_command(capsys):
    code, out, _ = run(capsys, "formulas", "--ambient", "3", "--degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["curve_degree"] == 3 and doc["curve_genus"] == 0
    assert doc["gorenstein_degree"] == 5


def test_dominance_command_reproducible(capsys):
    args = ["dominance", "--ambient", "5", "--degree", "3", "--seed", "11"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2
    assert d1["codim"] == 1


def test_dominance_expect_flag_failure_exit(capsys):
    code, out, _ = run(
        capsys, "dominance", "--ambient", "5", "--degree", "3", "--expect-dominant"
    )
    assert code == 1


def test_construct_verify_pipeline(tmp_path, capsys):
    matrix_path = tmp_path / "fermat.gm"
    form_path = tmp_path / "target.form"
    code, _, _ = run(
        capsys,
        "construct",
        "fermat",
        "--ambient",
        "2",
        "--degree",
        "5",
        "--output",
        str(matrix_path),
    )
    assert code == 0
    built = fermat_matrix(F, 2, 5)
    form_path.write_text(built.target.to_text())
    # file round-trip is bit exact
    assert parse_graded_matrix(matrix_path.read_text()) == built.matrix
    code, out, _ = run(
        capsys,
        "verify",
        "--matrix",
        str(matrix_path),
        "--form",
        str(form_path),
        "--kind",
        "det",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    # wrong form: exit 1
    wrong = tmp_path / "wrong.form"
    wrong.write_text(fermat_matrix(F, 2, 5).target.scale(2).to_text().replace("5 0 0", "4 1 0"))
    code, out, _ = run(
        capsys, "verify", "--matrix", str(matrix_path), "--form", str(wrong), "--kind", "det"
    )
    assert code == 1


def test_construct_random_and_hilbert(tmp_path, capsys):
    matrix_path = tmp_path / "rand.gm"
    code, _, _ = run(
        capsys,
        "construct",
        "random",
        "--rows=0,0,0",
        "--cols=-1,-1,-1",
        "--nvars",
        "3",
        "--seed",
        "5",
        "--output",
        str(matrix_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "hilbert", "--matrix", str(matrix_path), "--degrees", "0..4"
    )
    assert code == 0
    table = json.loads(out)["hilbert"]
    assert [table[str(j)] for j in range(5)] == [3 * (j + 1) for j in range(5)]


def test_hilbert_negative_degree_range_needs_the_equals_form(tmp_path, capsys):
    matrix_path = tmp_path / "lin.gm"
    linear = constructions.random_graded_matrix(
        F, 3, constructions.linear_square_shape(3), FieldRng("neg-degrees")
    )
    matrix_path.write_text(linear.to_text())
    code, out, _ = run(
        capsys, "hilbert", "--matrix", str(matrix_path), "--degrees=-3..-1"
    )
    assert code == 0
    assert json.loads(out)["hilbert"] == {"-3": 0, "-2": 0, "-1": 0}
    # written as two tokens, argparse reads -3..-1 as an option
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--matrix", str(matrix_path), "--degrees", "-3..-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_construct_all_kinds(tmp_path, capsys):
    from detpf.mpoly import HomogeneousForm

    # cyclic from two form files
    f_file, g_file = tmp_path / "f.forms", tmp_path / "g.forms"
    x = [HomogeneousForm.variable(F, 3, j) for j in range(3)]
    f_file.write_text(x[0].to_text() + x[1].to_text())
    g_file.write_text(x[1].to_text() + x[2].to_text())
    out = tmp_path / "cyc.gm"
    code, _, _ = run(
        capsys, "construct", "cyclic", "--f-forms", str(f_file),
        "--g-forms", str(g_file), "--output", str(out),
    )
    assert code == 0
    cyc = parse_graded_matrix(out.read_text())
    assert cyc.nrows == 2
    # block skew from the cyclic matrix
    blk = tmp_path / "blk.gm"
    code, _, _ = run(
        capsys, "construct", "block", "--matrix", str(out), "--output", str(blk)
    )
    assert code == 0
    assert parse_graded_matrix(blk.read_text()).symmetry == "skew"
    # theta shape
    th = tmp_path / "theta.gm"
    code, _, _ = run(
        capsys, "construct", "theta-shape", "--degree", "5", "--seed", "2",
        "--output", str(th),
    )
    assert code == 0
    theta = parse_graded_matrix(th.read_text())
    assert theta.symmetry == "symmetric" and theta.nrows == 3
    # pullback of a symmetric linear matrix
    sym = tmp_path / "sym.gm"
    code, _, _ = run(
        capsys, "construct", "random", "--rows=0,0", "--cols=-1,-1",
        "--symmetry", "symmetric", "--nvars", "3", "--seed", "3",
        "--output", str(sym),
    )
    assert code == 0
    pb = tmp_path / "pb.gm"
    code, _, _ = run(
        capsys, "construct", "pullback", "--matrix", str(sym), "--output", str(pb)
    )
    assert code == 0
    assert parse_graded_matrix(pb.read_text())[0, 0].degree in (0, 2)


def test_lower_bound_expect_flag(capsys):
    code, out, _ = run(
        capsys, "lower-bound", "--ambient", "4", "--expect", "5"
    )
    assert code == 0
    assert json.loads(out)["threshold"] == 5
    code, _, _ = run(capsys, "lower-bound", "--ambient", "4", "--expect", "7")
    assert code == 1


def test_gorenstein_command(tmp_path, capsys):
    pts = random_point_set(F, 4, 5, FieldRng("cli-g"))
    path = tmp_path / "z.pts"
    path.write_text(pts.to_text())
    code, out, _ = run(capsys, "gorenstein", "--points", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 1 and doc["passed"] is True


def test_smooth_command(tmp_path, capsys):
    from detpf.constructions import fermat_target

    path = tmp_path / "f.form"
    path.write_text(fermat_target(F, 2, 4).to_text())
    code, out, _ = run(capsys, "smooth", "--form", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "smooth"


def test_smooth_constant_form_is_smooth(tmp_path, capsys):
    # a degree-0 form defines the empty hypersurface; p divides 0, but no
    # Euler relation is needed below degree 2
    path = tmp_path / "one.form"
    path.write_text("form nvars=3 degree=0 p=31991\n1  0 0 0\n")
    code, out, err = run(capsys, "smooth", "--form", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "smooth"


@pytest.mark.parametrize(
    "prime, text, needle",
    [
        # five variables: the certificate supports at most four
        ("31991", "form nvars=5 degree=2 p=31991\n1  2 0 0 0 0\n", "at most 4 variables"),
        # the Fermat cubic where the characteristic divides the degree
        ("3", "form nvars=3 degree=3 p=3\n1  3 0 0\n1  0 3 0\n1  0 0 3\n", "char 3 divides"),
    ],
)
def test_smooth_refuses_what_it_cannot_certify_with_exit_2(tmp_path, capsys, prime, text, needle):
    path = tmp_path / "f.form"
    path.write_text(text)
    code, out, err = run(capsys, "smooth", "--form", str(path), "--prime", prime)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize(
    "body, needle",
    [
        ("entry 0 0 bogus=1\n1  1 0 0\n", "line 4"),
        ("entry 0 0 nterms=2\n1  1 0 0\n2  1 0 0\n", "line 6"),
    ],
)
def test_matrix_entry_header_key_and_repeated_exponent_exit_2(tmp_path, capsys, body, needle):
    path = tmp_path / "bad.gm"
    path.write_text("gradedmatrix p=31991 nvars=3 symmetry=general\nrows 1\ncols 0\n" + body)
    code, _, err = run(capsys, "hilbert", "--matrix", str(path), "--degrees", "0..1")
    assert code == 2
    assert f"error: {needle}" in err


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("gradedmatrix p=31991 nvars=3 symmetry=general\nrows 0\ncols 0\nentry 0 0 nterms=zzz\n")
    code, _, err = run(capsys, "hilbert", "--matrix", str(bad), "--degrees", "0..1")
    assert code == 2
    assert "line 4" in err
    code, _, err = run(capsys, "hilbert", "--matrix", str(tmp_path / "missing.gm"), "--degrees", "0..1")
    assert code == 2
    code, _, err = run(
        capsys, "dominance", "--ambient", "3", "--degree", "3", "--prime", "31989"
    )
    assert code == 2
    # entry indices out of range, a repeated entry, a term of the wrong degree
    head = "gradedmatrix p=31991 nvars=3 symmetry=general\nrows 1\ncols 0\n"
    term = "entry 0 0 nterms=1\n1  1 0 0\n"
    for body, line in (
        ("entry 5 0 nterms=0\n", 4),
        ("entry -1 0 nterms=0\n", 4),
        ("entry 0 -1 nterms=0\n", 4),
        (term + term, 6),
        ("entry 0 0 nterms=1\n1  1 1 0\n", 5),
    ):
        bad.write_text(head + body)
        code, _, err = run(capsys, "verify", "--matrix", str(bad), "--form", str(bad), "--kind", "det")
        assert code == 2
        assert f"line {line}" in err
    bad.write_text(head.replace("cols 0", "cols x"))
    code, _, err = run(capsys, "hilbert", "--matrix", str(bad), "--degrees", "0..1")
    assert code == 2 and "line 3" in err


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("hilbert", "--matrix", "gradedmatrix p=31991 nvars symmetry=general\nrows 0\ncols 0\n"),
        ("smooth", "--form", "form nvars=3 degree p=31991\n1  2 0 0\n"),
        ("gorenstein", "--points", "points p=31991 nvars\n1 0 0\n"),
    ],
)
def test_header_token_without_value_exits_2(tmp_path, capsys, command, flag, text):
    path = tmp_path / "bad.txt"
    path.write_text("# header token without '='\n" + text)
    extra = ["--degrees", "0..1"] if command == "hilbert" else []
    code, _, err = run(capsys, command, flag, str(path), *extra)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "command, flag, text, needle",
    [
        # a term of the wrong degree
        ("smooth", "--form", "form nvars=3 degree=2 p=31991\n1  1 0 0\n", "line 2"),
        # two forms where one is expected
        (
            "smooth",
            "--form",
            "form nvars=3 degree=1 p=31991\n1  1 0 0\nform nvars=3 degree=1 p=31991\n1  0 1 0\n",
            "found 2",
        ),
        # a skew matrix whose mirror entry (1, 0) is missing
        (
            "hilbert",
            "--matrix",
            "gradedmatrix p=31991 nvars=3 symmetry=skew\nrows 0 0\ncols -1 -1\n"
            "entry 0 1 nterms=1\n5  1 0 0\n",
            "(0,1)",
        ),
        # a nonzero term in an entry whose twist gap is -1
        (
            "hilbert",
            "--matrix",
            "gradedmatrix p=31991 nvars=3 symmetry=general\nrows 0\ncols 1\n"
            "entry 0 0 nterms=1\n1  0 0 0\n",
            "line 5",
        ),
        (
            "hilbert",
            "--matrix",
            "gradedmatrix p=31991 nvars=3 symmetry=weird\nrows 0\ncols -1\n",
            "line 1",
        ),
        ("gorenstein", "--points", "points p=31991 nvars=3\n1 0 0\n0 0 0\n", "zero vector"),
    ],
)
def test_files_the_constructors_reject_exit_2(tmp_path, capsys, command, flag, text, needle):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    extra = ["--degrees", "0..1"] if command == "hilbert" else []
    code, _, err = run(capsys, command, flag, str(path), *extra)
    assert code == 2
    assert "error: line" in err
    assert needle in err


def test_text_format_renders_json_dict(capsys):
    code, out, _ = run(
        capsys, "formulas", "--ambient", "3", "--degree", "4", "--format", "text"
    )
    assert code == 0
    assert "curve_genus: 3" in out


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "dominance-sweep",
        "--ambient",
        "2",
        "--max-degree",
        "4",
        "--format",
        "csv",
        "--output",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r,d,prime,seed,cd,rank,target,verdict,elapsed_ms"
    assert len(lines) == 3


# Options shared by several subcommands, and the ones each subcommand keeps:
# a subcommand declares only the options its handler reads.
SHARED = {"--prime", "--seed", "--retries", "--workers", "--output", "--format", "--work-limit-degree"}
CERTIFICATE = {"--prime", "--seed", "--retries", "--output", "--format"}
DOCUMENT = {"--output", "--format"}
KEPT = {
    "formulas": DOCUMENT,
    "dominance": CERTIFICATE,
    "lower-bound": CERTIFICATE,
    "dominance-sweep": CERTIFICATE | {"--workers"},
    "construct": {"--prime", "--seed", "--output"},
    "verify": {"--prime", "--seed"} | DOCUMENT,
    "hilbert": {"--prime"} | DOCUMENT,
    "gorenstein": {"--prime", "--work-limit-degree"} | DOCUMENT,
    "smooth": {"--prime", "--work-limit-degree"} | DOCUMENT,
}
FORMATS = {"dominance": {"json", "csv", "text"}, "lower-bound": {"json", "csv", "text"},
           "dominance-sweep": {"json", "csv", "text"}}
# the smallest argument list each subcommand parses
MINIMAL = {
    "formulas": ["--ambient", "3", "--degree", "3"],
    "dominance": ["--ambient", "3", "--degree", "3"],
    "lower-bound": ["--ambient", "3"],
    "dominance-sweep": ["--ambient", "3", "--max-degree", "3"],
    "construct": ["fermat"],
    "verify": ["--matrix", "m.gm", "--form", "f.form", "--kind", "det"],
    "hilbert": ["--matrix", "m.gm", "--degrees", "0..1"],
    "gorenstein": ["--points", "z.pts"],
    "smooth": ["--form", "f.form"],
}
VALUE = {"--format": "json", "--output": "o.txt"}
REMOVED = sorted(
    (name, option) for name, kept in KEPT.items() for option in SHARED - kept
)


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_declares_only_the_options_it_reads():
    subs = _subparsers()
    assert set(subs) == set(KEPT)
    declared = {name: set(sub._option_string_actions) & SHARED for name, sub in subs.items()}
    assert declared == KEPT
    for name, sub in subs.items():
        if "--format" in KEPT[name]:
            choices = set(sub._option_string_actions["--format"].choices)
            assert choices == FORMATS.get(name, {"json", "text"}), name
    # 36 settable values, down from 7 on each of the 9 subcommands
    assert sum(len(v) for v in KEPT.values()) == 36
    assert len(REMOVED) == 27


@pytest.mark.parametrize("command, option", REMOVED)
def test_an_option_the_subcommand_does_not_read_exits_2(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, *MINIMAL[command], option, VALUE.get(option, "3")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: detpf {command} ")
    assert f"unrecognized arguments: {option}" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["dominance", "--ambient", "7", "--degree", "3"], "--ambient"),
        (["dominance", "--ambient", "3", "--degree", "1"], "--degree"),
        (["dominance-sweep", "--ambient", "1", "--max-degree", "4"], "--ambient"),
        (["dominance-sweep", "--ambient", "3", "--max-degree", "4", "--min-degree", "1"],
         "--min-degree"),
        (["dominance-sweep", "--ambient", "3", "--max-degree", "1"], "--max-degree"),
        (["formulas", "--ambient", "3", "--degree", "0"], "--degree"),
        (["formulas", "--ambient", "1", "--degree", "3"], "--ambient"),
        (["lower-bound", "--ambient", "2"], "--ambient"),
        (["lower-bound", "--ambient", "6"], "--ambient"),
        (["hilbert", "--matrix", "m.gm", "--degrees", "0..x"], "--degrees"),
    ],
)
def test_an_out_of_range_number_exits_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: detpf {argv[0]} ")
    assert f"argument {option}: " in err


def test_text_format_marks_each_list_item(capsys):
    code, out, _ = run(
        capsys, "dominance-sweep", "--ambient", "2", "--max-degree", "5", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines.count("-") == 3
    assert lines[0] == "-" and lines[1] == "  ambient: 2"


def test_a_work_limit_the_input_cannot_meet_exits_2(tmp_path, capsys):
    path = tmp_path / "z.pts"
    path.write_text(random_point_set(F, 4, 5, FieldRng("cli-g")).to_text())
    code, _, err = run(capsys, "gorenstein", "--points", str(path), "--work-limit-degree", "0")
    assert code == 2
    assert err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["gorenstein", "--points", str(path), "--work-limit-degree", "-1"])
    assert exc.value.code == 2
    assert "argument --work-limit-degree: must be at least 0" in capsys.readouterr().err


def test_an_empty_degree_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dominance-sweep", "--ambient", "3", "--min-degree", "5", "--max-degree", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: detpf dominance-sweep ")
    assert "error: empty degree range 5..3" in out.err
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--matrix", "m.gm", "--degrees", "3..1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: detpf hilbert ")
    assert "error: argument --degrees: empty degree range 3..1" in out.err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["block"], "construct block needs --matrix"),
        (["pullback"], "construct pullback needs --matrix"),
        (["cyclic"], "construct cyclic needs --f-forms"),
        (["cyclic", "--f-forms", "f.forms"], "construct cyclic needs --g-forms"),
        (["random", "--rows=a,b"], "argument --rows: expected integers"),
        (["random", "--cols=-1,,-1"], "argument --cols: expected integers"),
        (["random", "--nvars", "0"], "argument --nvars: must be at least 1"),
    ],
)
def test_construct_refuses_bad_options_with_its_usage(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(["construct", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: detpf construct ")
    assert needle in err


def test_a_matrix_of_the_wrong_size_exits_2(tmp_path, capsys):
    for symmetry in ("skew", "symmetric"):
        code, out, err = run(
            capsys, "construct", "random", "--symmetry", symmetry, "--rows=0,0", "--cols=-1,-1,-1"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {symmetry} shape must be square, got 2 x 3\n"
    matrix, form = tmp_path / "wide.gm", tmp_path / "f.form"
    assert main(["construct", "random", "--rows=0,0", "--cols=-1,-1,-1", "--output", str(matrix)]) == 0
    form.write_text("form nvars=4 degree=2 p=31991\n1  2 0 0 0\n")
    code, _, err = run(capsys, "verify", "--matrix", str(matrix), "--form", str(form), "--kind", "det")
    assert code == 2
    assert err == "error: determinant of a non-square matrix\n"
    odd = tmp_path / "odd.gm"
    argv = ["construct", "random", "--symmetry", "skew", "--rows=0,0,0", "--cols=-1,-1,-1"]
    assert main([*argv, "--output", str(odd)]) == 0
    code, _, err = run(capsys, "verify", "--matrix", str(odd), "--form", str(form), "--kind", "pf")
    assert code == 2
    assert err == "error: pfaffian needs even size, got 3\n"


def test_verify_pf_of_negative_degree_exits_1(tmp_path, capsys):
    # the 10 x 10 skew matrix with row twists 0 and column twists 1 has
    # pfaffian degree -5, so its pfaffian is the zero form
    matrix, form = tmp_path / "skew10.gm", tmp_path / "one.form"
    twists = ["--rows=" + ",".join(["0"] * 10), "--cols=" + ",".join(["1"] * 10)]
    argv = ["construct", "random", "--symmetry", "skew", *twists, "--output", str(matrix)]
    assert main(argv) == 0
    form.write_text("form nvars=4 degree=0 p=31991\n1  0 0 0 0\n")
    code, out, err = run(capsys, "verify", "--matrix", str(matrix), "--form", str(form), "--kind", "pf")
    assert (code, err) == (1, "")
    assert json.loads(out)["ok"] is False


@pytest.fixture
def refused_inputs(tmp_path, capsys, monkeypatch):
    """Input files for the REFUSED commands, in a temporary working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "fermat", "--ambient", "2", "--degree", "5", "--output", "f5.gm"]) == 0
    wide = ["--rows=0,0,0", "--cols=-1,-1", "--nvars", "3", "--output", "wide.gm"]
    assert main(["construct", "random", *wide]) == 0
    linear8 = ["--rows=" + ",".join(["0"] * 8), "--cols=" + ",".join(["-1"] * 8)]
    linear8 += ["--prime", "5", "--nvars", "3", "--output", "linear8.gm"]
    assert main(["construct", "random", *linear8]) == 0
    (tmp_path / "f5.form").write_text("form nvars=3 degree=5 p=31991\n1  5 0 0\n1  0 5 0\n1  0 0 5\n")
    (tmp_path / "zero.form").write_text("form nvars=3 degree=5 p=31991\n")
    (tmp_path / "x8.form").write_text("form nvars=3 degree=8 p=5\n1  8 0 0\n")
    (tmp_path / "one.pts").write_text("points p=31991 nvars=3\n1 0 0\n")
    capsys.readouterr()


REFUSED = {
    "pf-of-a-general-matrix": ["verify", "--matrix", "f5.gm", "--form", "f5.form", "--kind", "pf"],
    "zero-target-form": ["verify", "--matrix", "f5.gm", "--form", "zero.form", "--kind", "det"],
    "block-of-a-3x2-matrix": ["construct", "block", "--matrix", "wide.gm"],
    "pullback-of-a-general-matrix": ["construct", "pullback", "--matrix", "f5.gm"],
    "skew-twists-that-disagree": [
        "construct", "random", "--symmetry", "skew", "--rows=0,1", "--cols=-1,-3"
    ],
    "one-point": ["gorenstein", "--points", "one.pts"],
    # degree 8 > p = 5: interpolation cannot recover the determinant
    "det-degree-above-p": [
        "verify", "--prime", "5", "--kind", "det", "--matrix", "linear8.gm", "--form", "x8.form"
    ],
    # over GF(3) most lines make the pencil singular
    "pencil-singular-over-gf3": [
        "dominance", "--ambient", "3", "--degree", "3", "--prime", "3", "--seed", "21"
    ],
    "empty-hilbert-range": ["hilbert", "--matrix", "f5.gm", "--degrees", "3..1"],
}


@pytest.mark.parametrize("argv", list(REFUSED.values()), ids=list(REFUSED))
def test_every_refused_input_exits_2(refused_inputs, capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(("error: ", "usage: "))
    assert "Traceback" not in err


def test_every_rejection_class_is_an_input_error():
    for cls in (
        mpoly.ParseError,
        mpoly.DegeneratePencil,
        polymat.SizeMismatch,
        polymat.InterpolationFailure,
        constructions.DegreeInconsistency,
        constructions.UnsupportedAmbient,
        graded.CharDividesDegree,
        graded.TooManyVariables,
        graded.DuplicatePoint,
        graded.WorkLimitExceeded,
        exactlin.OddSize,
    ):
        assert issubclass(cls, detpf.InputError), cls
    assert detpf.InputError is exactlin.InputError
    assert issubclass(detpf.InputError, ValueError)
    # each class keeps its first base
    assert exactlin.OddSize.__mro__[1] is exactlin.LinAlgError
    for cls in (graded.WorkLimitExceeded, mpoly.DegeneratePencil, polymat.InterpolationFailure):
        assert cls.__mro__[1] is RuntimeError


def test_a_prime_too_small_for_the_sample_is_named(refused_inputs, capsys):
    code, _, err = run(capsys, *REFUSED["det-degree-above-p"])
    assert code == 2
    assert "over GF(5); interpolating a degree-8 form needs p >= 8, try a larger prime" in err
    code, _, err = run(capsys, *REFUSED["pencil-singular-over-gf3"])
    assert code == 2
    assert err == "error: unusable at 10 of 16 sample lines over GF(3); try a larger prime\n"
