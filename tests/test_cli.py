"""Command-line interface: formats, exit codes, end-to-end subcommands."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic4 import cli
from harmonic4.cli import InputError, build_parser, main
from harmonic4.witnesses import REL_TOL, SEPARATION

GOLDEN = Path(__file__).resolve().parent / "golden"
D1_COMPONENTS = ["1", "0", "0", "0", "0", "0", "0", "0", "0"]
IDENTITY = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"components": [1, 0, 0, 0, 0, 0, 0, 0, 0]}))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestInvariantsCommand:
    def test_exact_file(self, d1_file, capsys):
        code, out = run(["invariants", "--input", d1_file, "--backend", "exact"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["J2"] == "8/1"
        assert payload["J4"] == "32/1"
        assert payload["K6"] == "128/1"

    def test_cubic_witness_exact(self, capsys):
        argv = ["invariants", "--backend", "exact"]
        for v in ("8", "0", "0", "-4", "0", "5", "5", "3", "0"):
            argv += ["-c", v]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["J3"] == "-6480/1"

    def test_inline_overrides_file(self, d1_file, capsys):
        argv = ["invariants", "--input", d1_file, "--backend", "exact"]
        for v in ["0"] * 9:
            argv += ["-c", v]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["J2"] == "0/1"

    def test_float_output_is_numeric(self, d1_file, capsys):
        code, out = run(["invariants", "--input", d1_file], capsys)
        assert code == 0
        assert json.loads(out)["J2"] == 8.0

    def test_csv_format(self, d1_file, capsys):
        code, out = run(["invariants", "--input", d1_file, "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "J2,J3,J4,J5,J6,K6,J7,J8,J9,J10"
        assert row.split(",")[0] == "8.0"

    def test_text_format(self, d1_file, capsys):
        code, out = run(["invariants", "--input", d1_file, "--format", "text"], capsys)
        assert code == 0
        assert "J2 = 8.0" in out

    def test_output_file(self, d1_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, _ = run(["invariants", "--input", d1_file, "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["J4"] == 32.0

    def test_deterministic_output(self, d1_file, capsys):
        _, first = run(["invariants", "--input", d1_file], capsys)
        _, second = run(["invariants", "--input", d1_file], capsys)
        assert first == second

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(["invariants", "--input", str(bad)], capsys)
        assert code == 2

    def test_empty_components_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"components": []}))
        code, _ = run(["invariants", "--input", str(bad)], capsys)
        assert code == 2

    def test_exact_backend_rejects_float_components(self, tmp_path, capsys):
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps({"components": [0.5, 0, 0, 0, 0, 0, 0, 0, 0]}))
        code, _ = run(["invariants", "--input", str(bad), "--backend", "exact"], capsys)
        assert code == 2

    def test_missing_tensor_exits_2(self, capsys):
        code, _ = run(["invariants"], capsys)
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(["invariants", "--input", "/nonexistent/tensor.json"], capsys)
        assert code == 2


class TestRotateCommand:
    def test_identity_echoes_input(self, d1_file, capsys):
        code, out = run(["rotate", "--input", d1_file, "--matrix"] + IDENTITY, capsys)
        assert code == 0
        assert json.loads(out)["components"][0] == 1.0

    def test_reflection_flips_single_three_component(self, capsys):
        argv = ["rotate", "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "-1"]
        for v in ("0", "0", "1", "0", "0", "0", "0", "0", "0"):
            argv += ["-c", v]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["components"][2] == -1.0

    def test_non_orthogonal_matrix_exits_2(self, d1_file, capsys):
        argv = ["rotate", "--input", d1_file,
                "--matrix", "1", "1", "0", "0", "1", "0", "0", "0", "1"]
        code, _ = run(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize("entry", [0, 8])
    def test_nan_matrix_entry_exits_2(self, d1_file, entry, capsys):
        matrix = list(IDENTITY)
        matrix[entry] = "nan"
        code = main(["rotate", "--input", d1_file, "--matrix"] + matrix)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: matrix is not orthogonal")

    def test_quarter_turn_preserves_invariants(self, d1_file, capsys):
        c = 0.7071067811865476
        argv = ["rotate", "--input", d1_file,
                "--matrix", str(c), str(-c), "0", str(c), str(c), "0", "0", "0", "1"]
        code, out = run(argv, capsys)
        assert code == 0
        from harmonic4 import from_json_dict, invariants

        vec = invariants(from_json_dict(json.loads(out)))
        assert vec.j2 == pytest.approx(8.0, rel=1e-9)
        assert vec.j4 == pytest.approx(32.0, rel=1e-9)

    @pytest.mark.parametrize("matrix", [
        ["3/5", "4/5", "0", "-4/5", "3/5", "0", "0", "0", "1"],
        ["0.6", "0.8", "0", "-0.8", "0.6", "0", "0", "0", "1"],
    ])
    def test_exact_matrix_is_read_as_rationals(self, d1_file, matrix, capsys):
        argv = ["rotate", "--input", d1_file, "--backend", "exact", "--matrix"] + matrix
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["components"] == [
            "81/625", "-108/625", "0/1", "144/625", "0/1", "-192/625", "0/1", "256/625", "0/1"]

    def test_exact_backend_rejects_inexact_matrix(self, d1_file, capsys):
        c = "0.7071067811865476"
        argv = ["rotate", "--input", d1_file, "--backend", "exact",
                "--matrix", c, "-" + c, "0", c, c, "0", "0", "0", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["-c", "--matrix"])
    def test_zero_denominator_exits_2(self, flag, capsys):
        components = ["1/0" if flag == "-c" else "1"] + ["0"] * 8
        matrix = ["1/0" if flag == "--matrix" else "1", "0", "0", "0", "1", "0", "0", "0", "1"]
        argv = ["rotate", "--backend", "exact", "--matrix"] + matrix
        for v in components:
            argv += ["-c", v]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_overflow_prints_one_error_line_and_no_warnings(self):
        argv = ["rotate", "-c", "1.7e308", "-c", "1.7e308", *["-c", "0"] * 7,
                "--matrix", "0.6", "0.8", "0", "-0.8", "0.6", "0", "0", "0", "1"]
        proc = subprocess.run([sys.executable, "-m", "harmonic4", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: rotated tensor is not finite in binary64; "
                               "scale the tensor down\n")


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["identity", "parity", "restriction"])
    def test_symbolic_suites_pass(self, suite, capsys):
        code, out = run(["verify", suite], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_witnesses_suite(self, capsys):
        code, out = run(["verify", "witnesses"], capsys)
        assert code == 0
        summary = json.loads(out)
        suite = summary["suites"]["witnesses"]
        assert suite["passed"] is True
        assert {b: set(members) for b, members in suite["cells"].items()} == {
            "smith_bao": {"J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10"},
            "mixed": {"J2", "J3", "J5", "J6", "K6", "J7", "J8", "J9", "J10"},
        }
        assert all(cell["passed"] for cells in suite["cells"].values()
                   for cell in cells.values())

    def test_isotropy_suite_small(self, capsys):
        code, out = run(["verify", "isotropy", "--trials", "25", "--seed", "42"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["suites"]["isotropy"]["trials"] == 25

    @pytest.mark.parametrize("suite", ["isotropy", "all"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_2(self, suite, trials, capsys):
        code = main(["verify", suite, "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("suite", ["isotropy", "all"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "4.5"])
    def test_seed_outside_the_range_exits_2(self, suite, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--trials", "1", "--seed", seed])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: argument --seed" in captured.err
        assert "Traceback" not in captured.err

    def test_largest_seed(self, capsys):
        code, out = run(["verify", "isotropy", "--trials", "1", "--seed", str(2**64 - 1)],
                        capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_all_suites(self, capsys):
        code, out = run(["verify", "all", "--trials", "25"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert set(summary["suites"]) == {
            "identity", "parity", "restriction", "isotropy", "witnesses"}
        assert summary["passed"] is True


class TestSolveCommand:
    def test_j8_root(self, capsys):
        code, out = run(["solve", "j8-root"], capsys)
        assert code == 0
        payload = json.loads(out)
        root = payload["solve"]["solution"]["root"]
        assert 0.15 < root < 0.2
        assert payload["solve"]["residual_norm"] <= 1e-10
        assert payload["report"]["passed"] is True

    def test_smith_bao_j6(self, capsys):
        code, out = run(["solve", "smith-bao-j6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["solve"]["solution"]["D1123"] == pytest.approx(-0.406303, abs=1e-4)
        assert payload["report"]["passed"] is True

    def test_mixed_j6(self, capsys):
        code, out = run(["solve", "mixed-j6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["solve"]["solution"]["D1223"] == pytest.approx(0.67075, abs=1e-4)


class TestTolerance:
    # the witness gate is the constant REL_TOL: no value of --tol is accepted
    @pytest.mark.parametrize("argv", [["solve", "j8-root"], ["solve", "mixed-j6"],
                                      ["verify", "witnesses"]])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_exits_2(self, argv, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: --tol {tol}" in captured.err
        assert "Traceback" not in captured.err

    def test_j8_root_tolerance_is_the_witness_agreement(self, capsys):
        # the pair agrees to ~1e-15 relative, inside REL_TOL, and is told apart
        # on J8 by more than SEPARATION * REL_TOL; the root is bisected to 1e-14
        # and is the one the report checks
        code, out = run(["solve", "j8-root"], capsys)
        payload = json.loads(out)
        report = payload["report"]
        assert code == 0
        assert report["passed"] is True
        assert all(report["gaps"][name] <= REL_TOL for name in report["agree"])
        assert report["gaps"][report["differ"]] > SEPARATION * REL_TOL
        assert payload["solve"] == report["notes"]["solver"]
        assert payload["solve"]["iterations"] == 43


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["invariants", "--input", "x.json", "--tol", "1e-3"],
        ["rotate", "--input", "x.json", "--matrix"] + IDENTITY + ["--format", "csv"],
        ["rotate", "--input", "x.json", "--matrix"] + IDENTITY + ["--tol", "0.5"],
        ["verify", "parity", "--format", "text"],
        ["solve", "j8-root", "--seed", "5"],
        ["solve", "j8-root", "--format", "text"],
        ["verify", "identity", "--backend", "exact"],
        # each verify suite takes only the flags it reads
        *(["verify", suite, flag, "3"]
          for suite in ("identity", "parity", "restriction", "witnesses")
          for flag in ("--trials", "--seed")),
        *(["verify", suite, "--tol", "3"]
          for suite in ("identity", "parity", "restriction", "isotropy")),
        # the witness gate is the constant REL_TOL, not a flag (see TestTolerance)
        ["verify", "all", "--tol", "1e-9"],
    ])
    def test_flag_a_subcommand_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flag_table() -> dict:
    """Command path -> option strings, from the flag table of README's "Command line"."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        commands, flags = line.strip("| ").split(" | ")
        first, *more = re.findall(r"`([^`]+)`", commands)
        path = tuple(word for word in first.split() if not word.isupper())
        options = {s for flag in re.findall(r"`(-[^`]*)`", flags)
                   for s in flag.split()[0].split("/")}
        for command in (path, *(path[:-1] + (name,) for name in more)):
            table[command] = options
    return table


def parser_flag_table() -> dict:
    """Command path -> option strings of each leaf parser of ``build_parser()``, without help."""
    table = {}

    def walk(parser, path):
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers:
            table[path] = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        for action in subparsers:
            for name, sub in action.choices.items():
                walk(sub, path + (name,))

    walk(build_parser(), ())
    return table


def test_readme_flag_table_matches_the_parser():
    assert readme_flag_table() == parser_flag_table()


def inline(values):
    return [arg for v in values for arg in ("-c", v)]


def expect_input_error(argv, capsys, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "Warning" not in captured.err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["invariants", *inline(D1_COMPONENTS)],
        ["verify", "isotropy", "--trials", "1"],
        ["rotate", *inline(D1_COMPONENTS), "--matrix", *IDENTITY],
        ["solve", "smith-bao-j6"],
    ])
    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
    def test_exits_2_with_one_error_line(self, argv, target, tmp_path, capsys):
        path = str(tmp_path / target)
        expect_input_error(argv + ["--out", path], capsys, f"cannot write {path}")
        assert not (tmp_path / "missing-dir").exists()


class TestNonFiniteAndBooleanInput:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400", "1e400"])
    def test_non_finite_inline_component_exits_2(self, value, capsys):
        argv = ["invariants"] + inline([value] + ["0"] * 8)
        expect_input_error(argv, capsys, "finite")

    def test_rational_too_large_for_binary64_exits_2(self, capsys):
        big = "1" + "0" * 400 + "/1"
        expect_input_error(["invariants", *inline([big] + ["0"] * 8)], capsys, "too large")
        expect_input_error(["rotate", *inline(D1_COMPONENTS), "--matrix", big, *IDENTITY[1:]],
                           capsys, "too large")

    def test_json_infinity_component_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"components": [Infinity, 0, 0, 0, 0, 0, 0, 0, 0]}')
        expect_input_error(["invariants", "--input", str(path)], capsys, "finite")

    def test_overflowing_invariants_exit_2(self, capsys):
        argv = ["invariants"] + inline(["1e200"] + ["0"] * 8)
        expect_input_error(argv, capsys, "not finite")

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_overflow_is_an_error_in_every_format(self, fmt, capsys):
        argv = ["invariants", "--format", fmt] + inline(["1e200"] + ["0"] * 8)
        expect_input_error(argv, capsys, "not finite")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_json_boolean_component_exits_2(self, backend, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"components": [true, 0, 0, 0, 0, 0, 0, 0, 0]}')
        argv = ["invariants", "--input", str(path), "--backend", backend]
        expect_input_error(argv, capsys, "boolean")


class TestConsoleScript:
    def test_module_entry_point(self, d1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonic4", "invariants", "--input", d1_file,
             "--backend", "exact"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["J2"] == "8/1"

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonic4", "verify", "everything"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "j8-root"],
        ["invariants"] + ["-c", "1"] * 9,
        ["rotate"] + ["-c", "1"] * 9 + ["--matrix"] + IDENTITY,
        ["verify", "isotropy", "--trials", "1"],
    ])
    def test_closed_pipe_ends_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "harmonic4", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_verify_isotropy_never_imports_numpy_random(self):
        script = ("import sys\n"
                  "from harmonic4.cli import main\n"
                  "code = main(['verify', 'isotropy', '--trials', '1'])\n"
                  "print([m for m in sys.modules if m.startswith('numpy.random')],"
                  " file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True
        assert proc.stderr == "[]\n"

    def test_closed_pipe_in_process_leaves_descriptors_alone(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["verify", "parity"]) == 141
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def _reference(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


#: Strings with escapes, control characters, non-ASCII and astral text.
TRICKY_TEXT = ["", "plain", "quote \" and back\\slash", "\x00\x01\x1f\x7f", "tab\tline\n",
               "caf\u00e9", "\u2028\u2029", "\U0001d11e clef", "\ud800 lone surrogate"]
#: Floats whose repr is unusual: signed zero, subnormals, the extremes.
TRICKY_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1.7976931348623157e308,
                 1e16, 1e-7, 0.1, 123456789.0]
SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(TRICKY_FLOATS),
    st.text(), st.sampled_from(TRICKY_TEXT),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(st.text() | st.sampled_from(TRICKY_TEXT), children,
                                               max_size=5)),
    max_leaves=30,
)
EXAMPLES = [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]], {"": {"": [{}]}},
    {"nested": {"deep": {"deeper": [1, [2, [3, {"x": None}]]]}}, "flat": [True, False, None]},
    {"text": TRICKY_TEXT, "floats": TRICKY_FLOATS, "ints": [0, -1, 2**64, -(10**400)]},
    [1, {"a": (2.5, "b")}, ()], "top-level string", 7, -0.0, None, True,
]


class TestJsonWriter:
    """``cli._dumps`` writes exactly what ``json.dumps(indent=2, allow_nan=False)`` writes."""

    @pytest.mark.parametrize("value", EXAMPLES, ids=range(len(EXAMPLES)))
    def test_examples(self, value):
        assert cli._dumps(value) == _reference(value)

    @given(JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == _reference(value)

    def test_keys_json_converts_in_nested_dicts(self):
        for value in ({1: {"a": 1}}, {"a": {2.5: [1], None: 0, True: 1}}, {"a": [{7: 7}]}):
            assert cli._dumps(value) == _reference(value)

    @pytest.mark.parametrize("value", [object(), {"a": {"b": object()}}, [1, {(1,): 2}],
                                       {"a": [1, {"b": 1j}]}])
    def test_unencodable_values_raise_jsons_error(self, value):
        with pytest.raises(TypeError) as want:
            _reference(value)
        with pytest.raises(TypeError) as got:
            cli._dumps(value)
        assert str(got.value) == str(want.value)

    def test_a_cycle_raises_jsons_error(self):
        value = {"a": []}
        value["a"].append(value)
        with pytest.raises(ValueError, match="Circular reference detected"):
            cli._dumps(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [lambda x: x, lambda x: [x], lambda x: {"a": 1.0, "b": x},
                                       lambda x: {"a": {"b": [0.5, x, math.nan]}}])
    def test_non_finite_result_keeps_its_error_text(self, bad, shape):
        with pytest.raises(ValueError) as want:
            _reference(shape(bad))
        with pytest.raises(InputError) as got:
            cli._json(shape(bad))
        assert str(got.value) == f"result is not finite in binary64 ({want.value})"
        assert str(got.value).endswith(f"compliant: {bad!r})")

    def test_same_bytes_without_the_c_accelerator(self, monkeypatch):
        values = [*EXAMPLES, *(json.loads((GOLDEN / f"{name}.txt").read_text())
                               for name in ("verify-all", "solve-mixed-j6", "rotate-exact"))]
        want = [_reference(v) for v in values]
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                            json.encoder.py_encode_basestring_ascii)
        cli._flat.cache_clear()
        try:
            assert [cli._dumps(v) for v in values] == want
            with pytest.raises(InputError, match=r"compliant: inf\)$"):
                cli._json({"a": [math.inf]})
        finally:
            cli._flat.cache_clear()
