"""CLI contract: flags, exit codes, formats, byte determinism."""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlab
from vlab import cli
from vlab.bestapprox.records import SequenceData
from vlab.cli import build_parser, run
from vlab.verify import full_report, report_json_bytes

#: the directory holding the vlab package, for the subprocess tests
SRC = Path(vlab.__file__).resolve().parents[1]

#: flags of the five commands (not --out or --svg, which write files) and a
#: few hostile values for them, plus one valid xi that reaches the engines
ARGV_TOKENS = ["--xi", "--n", "--max-height", "--precision-bits", "--height", "--format",
               "--seq", "--mode", "--q-max", "--q-list", "--slack", "--no-lemma31",
               "--n-min", "--n-max", "-3", "0", "1", "2", "3", "nan", "inf", "x", "1/0",
               "1e6", "", "sqrt:2"]


#: what a command line can hold besides ARGV_TOKENS: help, version, an
#: abbreviation (of --height), the end of options, an inline value and an
#: unknown command
PARSE_TOKENS = ARGV_TOKENS + ["-h", "--help", "--version", "--hei", "--", "--xi=sqrt:2",
                              "frobnicate"]


def run_cli(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def fresh_command_parsers():
    """An empty parser cache before and after the test, so that a parser
    built under a patched ``cli._ARGUMENTS`` serves no other test."""
    cli._command_parser.cache_clear()
    yield
    cli._command_parser.cache_clear()


class TestBounds:
    def test_csv_golden(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--n-min", "2", "--n-max", "9",
                             "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,beta,alpha,gamma,rho"
        assert len(lines) == 9
        assert lines[1] == "2,2.6180,2.6180,2.6180,2.6180"
        assert lines[8] == "9,16.0187,16.0231,16.0177,16"

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--n-max", "3", "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert rows[0]["beta"] == "2.6180"

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "--n-max", "4", "--format", "csv")
        _, out2, _ = run_cli(capsys, "bounds", "--n-max", "4", "--format", "csv")
        assert out1 == out2


class TestSequence:
    def test_writes_json(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        rc, _, _ = run_cli(capsys, "sequence", "--xi", "sqrt:2", "--n", "1",
                           "--max-height", "20", "--out", str(path))
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["n"] == 1 and data["height_limit"] == 20
        assert [r["height"] for r in data["records"]] == [1, 3, 7, 17]
        assert [r["coeffs"] for r in data["records"]] == [
            [1, -1], [3, -2], [7, -5], [17, -12]]

    @pytest.mark.parametrize("n,h", [(7, 7), (8, 5), (9, 3)])
    def test_default_max_height_is_not_refused(self, capsys, n, h):
        # the paper's dimensions with no --max-height: the default ladder
        # fits the box budget
        rc, out, _ = run_cli(capsys, "sequence", "--xi", "const:e", "--n", str(n))
        assert rc == 0
        assert json.loads(out)["height_limit"] == h

    def test_domain_error_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "sequence", "--xi", "rat:1/3", "--n", "1",
                             "--max-height", "5")
        assert rc == 1
        assert "algebraic" in err


class TestVerify:
    @pytest.fixture()
    def seq_path(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run_cli(capsys, "sequence", "--xi", "cbrt:2", "--n", "2",
                "--max-height", "60", "--out", str(path))
        return path

    def test_text_report(self, capsys, seq_path):
        rc, out, _ = run_cli(capsys, "verify", "--seq", str(seq_path),
                             "--no-lemma31")
        assert rc == 0
        assert "meeting-identity" in out and "summary:" in out

    def test_json_report_roundtrip_determinism(self, capsys, seq_path):
        rc, out1, _ = run_cli(capsys, "verify", "--seq", str(seq_path),
                              "--slack", "0.05", "--format", "json", "--no-lemma31")
        assert rc == 0
        rc, out2, _ = run_cli(capsys, "verify", "--seq", str(seq_path),
                              "--slack", "0.05", "--format", "json", "--no-lemma31")
        assert out1 == out2
        report = json.loads(out1)
        assert report["summary"]["checks"] > 0

    def test_slack_is_the_decimal_as_typed(self, seq_path):
        # a slack with no finite decimal near it in six places used to crash
        # the JSON report after computing it; the slack is now the decimal
        # typed, in text and JSON alike
        argv = ["verify", "--seq", str(seq_path), "--slack", "0.3333333", "--no-lemma31"]
        for fmt in ("json", "text"):
            proc = subprocess.run([sys.executable, "-m", "vlab.cli"] + argv + ["--format", fmt],
                                  cwd=SRC, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")
            if fmt == "json":
                assert json.loads(proc.stdout)["slack"] == "0.3333333"
            else:
                assert "slack=0.3333333\n" in proc.stdout

    @pytest.mark.parametrize("slack", [None, "0.05", "0", "-1", "-0.0", "0.000001", "8191.999999"])
    def test_short_slack_keeps_its_report(self, capsys, seq_path, slack):
        # a slack of at most six fractional digits below 2^13 in magnitude
        # is the fraction that limit_denominator(10**6) made of its float,
        # so its report keeps its bytes; the default 0.05 among them
        argv = ["verify", "--seq", str(seq_path), "--format", "json"]
        rc, out, _ = run_cli(capsys, *argv, *(["--slack", slack] if slack else []))
        assert rc == 0
        seq = SequenceData.from_json(json.loads(seq_path.read_text()))
        old = Fraction(float(slack or "0.05")).limit_denominator(10**6)
        assert out == report_json_bytes(full_report(seq, slack=old)).decode() + "\n"

    @given(data=st.data(), places=st.integers(0, 6))
    @settings(max_examples=500, deadline=None)
    def test_short_slack_is_the_old_fraction(self, data, places):
        # two fractions of denominator <= 10^6 are 10^-12 apart or more, and
        # below 2^13 a float is within half of that of the decimal it
        # prints, so limit_denominator(10**6) found the decimal itself
        bound = 8192 * 10**places
        typed = Fraction(data.draw(st.integers(-bound + 1, bound - 1)), 10**places)
        value = typed.numerator / typed.denominator  # the float the parser makes
        assert Fraction(repr(value)) == typed == Fraction(value).limit_denominator(10**6)

    def test_missing_file_exit_1(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "verify", "--seq", str(tmp_path / "nope.json"))
        assert rc == 1 and "error" in err

    def test_json_error_object(self, capsys, tmp_path):
        # a domain error with --format json produces a machine-readable object
        path = tmp_path / "seq.json"
        run_cli(capsys, "sequence", "--xi", "sqrt:2", "--n", "1",
                "--max-height", "20", "--out", str(path))
        rc, _, err = run_cli(capsys, "graph", "--seq", str(path), "--q-list", "2")
        assert rc == 1  # n=1 has no ambient geometry


class TestGraphOracle:
    def test_graph_pool_csv(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        run_cli(capsys, "sequence", "--xi", "cbrt:2", "--n", "2",
                "--max-height", "100", "--out", str(seq))
        rc, out, _ = run_cli(capsys, "graph", "--seq", str(seq), "--q-list", "2,4",
                             "--mode", "pool")
        assert rc == 0
        assert "pool upper bounds" in out
        assert "q,L_1,L_2,L_3,sum,margin" in out

    def test_graph_pool_that_cannot_span_exits_1(self, capsys, tmp_path):
        # the records of (e, 3) up to height 2 leave the pool short of 5
        # independent members: exit 1 with the reason, no rows, no traceback
        seq = tmp_path / "seq.json"
        assert run_cli(capsys, "sequence", "--xi", "const:e", "--n", "3",
                       "--max-height", "2", "--out", str(seq))[0] == 0
        rc, out, err = run_cli(capsys, "graph", "--seq", str(seq), "--mode", "pool",
                               "--q-list", "1")
        assert rc == 1 and out == ""
        assert err == "error: pool cannot span the ambient space; compute a longer sequence\n"

    def test_graph_svg(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        run_cli(capsys, "sequence", "--xi", "cbrt:2", "--n", "2",
                "--max-height", "60", "--out", str(seq))
        svg = tmp_path / "g.svg"
        rc, _, _ = run_cli(capsys, "graph", "--seq", str(seq), "--q-list", "2,4",
                           "--mode", "exact", "--out", str(tmp_path / "g.csv"),
                           "--svg", str(svg))
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    def test_oracle_json(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "--xi", "sqrt:2", "--n", "1",
                             "--height", "3", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["coeffs"] == [3, -2]


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--wat"])
        assert exc.value.code == 2

    def test_oracle_has_no_precision_flag(self, capsys):
        # the oracle refines xi from its spec, so a precision flag would do nothing
        with pytest.raises(SystemExit) as exc:
            run(["oracle", "--xi", "const:pi", "--n", "3", "--height", "100",
                 "--precision-bits", "64"])
        assert exc.value.code == 2

    @staticmethod
    def _outcome(parse, argv):
        """(exit code, stdout, stderr, namespace) of ``parse(argv)``; the exit
        code is None when it returns."""
        out, err = io.StringIO(), io.StringIO()
        code, namespace = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                namespace = parse(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue(), namespace

    @staticmethod
    def _full_parse(argv):
        # run's parse as it was with the full parser alone
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "bounds" and args.n_min > args.n_max:
            parser.error("--n-min must not exceed --n-max")
        return args

    def _assert_run_parses_as_full_parser(self, argv):
        with pytest.MonkeyPatch.context() as mp:
            # each command hands back the namespace it was given
            mp.setattr(cli, "_COMMANDS", {name: lambda args: args for name in cli._COMMANDS})
            got = self._outcome(run, argv)
        assert got == self._outcome(self._full_parse, argv), argv

    @pytest.mark.parametrize("argv", [
        [],
        ["bounds", "--n-min", "5", "--n-max", "3"],
        ["oracle", "--bogus"],
        ["oracle", "--xi", "sqrt:2", "--n", "1", "--height", "9", "--bogus"],
        ["graph", "--seq", "s.json", "--q-list", "2", "--q-max", "3"],
        ["graph", "--q-list", "2", "--q-max", "3"],
        # ambiguous among the full parser's own options, so it is refused
        # there before the command's parser sees it
        ["bounds", "--=x"],
        ["oracle", "--xi", "sqrt:2", "--n", "1", "--hei", "9", "--", "x"],
        ["verify", "-h"],
        ["--version"],
    ])
    def test_run_parses_as_the_full_parser(self, argv):
        self._assert_run_parses_as_full_parser(argv)

    @given(head=st.lists(st.sampled_from(sorted(cli._COMMANDS)), max_size=1),
           rest=st.lists(st.sampled_from(PARSE_TOKENS), max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_generated_argv_parses_as_the_full_parser(self, head, rest):
        self._assert_run_parses_as_full_parser(head + rest)

    def test_valid_command_line_builds_only_its_command_parser(self, tmp_path, monkeypatch):
        seq = str(tmp_path / "seq.json")
        assert run(["sequence", "--xi", "cbrt:2", "--n", "2", "--max-height", "20",
                    "--out", seq]) == 0

        def refuse():
            raise AssertionError("a valid command line built the full parser")
        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv in (["bounds", "--n-max", "3"],
                     ["sequence", "--xi", "sqrt:2", "--n", "1", "--max-height", "20"],
                     ["oracle", "--xi", "sqrt:2", "--n", "1", "--height", "9"],
                     ["graph", "--seq", seq, "--mode", "pool", "--q-list", "2"],
                     ["verify", "--seq", seq, "--no-lemma31"]):
            assert run(argv) == 0, argv

    #: per command: a valid line, a usage error, its help, and a line that
    #: parses but goes to the full parser (a token left over, or for bounds
    #: --n-min above --n-max)
    CACHE_ARGV = [
        ["bounds", "--n-max", "4", "--format", "csv"], ["bounds", "--n-min", "x"],
        ["bounds", "--help"], ["bounds", "--n-min", "5", "--n-max", "3"],
        ["sequence", "--xi", "sqrt:2", "--n", "1"], ["sequence", "--n", "1"],
        ["sequence", "--help"], ["sequence", "--xi", "sqrt:2", "--n", "1", "--bogus"],
        ["oracle", "--xi", "sqrt:2", "--n", "1", "--height", "9"],
        ["oracle", "--xi", "sqrt:2", "--n", "0", "--height", "9"],
        ["oracle", "--help"], ["oracle", "--xi", "sqrt:2", "--n", "1", "--height", "9", "x"],
        ["graph", "--seq", "s.json", "--q-list", "2,3"],
        ["graph", "--seq", "s.json", "--mode", "bogus"],
        ["graph", "--help"], ["graph", "--seq", "s.json", "--q-list", "2", "--q-max", "3"],
        ["verify", "--seq", "s.json", "--no-lemma31"], ["verify", "--slack", "0"],
        ["verify", "--help"], ["verify", "--seq", "s.json", "--", "x"],
    ]

    def test_each_command_parser_is_built_once(self, fresh_command_parsers, monkeypatch):
        built = dict.fromkeys(cli._ARGUMENTS, 0)

        def counted(name, add_arguments):
            def add(parser):
                built[name] += 1
                add_arguments(parser)
            return add

        def refuse():
            raise AssertionError("a valid command line built the full parser")
        monkeypatch.setattr(cli, "_ARGUMENTS", {
            name: (help_text, counted(name, add_arguments))
            for name, (help_text, add_arguments) in cli._ARGUMENTS.items()})
        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.setattr(cli, "_COMMANDS", {name: lambda args: 0 for name in cli._COMMANDS})
        for argv in (["bounds", "--n-max", "4"], ["bounds", "--format", "json"],
                     ["sequence", "--xi", "sqrt:2", "--n", "1"],
                     ["sequence", "--xi", "const:e", "--n", "3", "--max-height", "9"],
                     ["oracle", "--xi", "sqrt:2", "--n", "1", "--height", "9"],
                     ["oracle", "--xi", "const:pi", "--n", "2", "--height", "5",
                      "--format", "json"],
                     ["graph", "--seq", "s.json"], ["graph", "--seq", "s.json", "--q-list", "2"],
                     ["verify", "--seq", "s.json"], ["verify", "--seq", "s.json", "--no-lemma31"]):
            assert run(argv) == 0, argv
        assert built == dict.fromkeys(cli._ARGUMENTS, 1)

    def test_kept_parsers_carry_no_state_between_calls(self, fresh_command_parsers):
        # forward, then in reverse, in one process: every outcome is the one
        # a freshly built full parser gives
        for argv in self.CACHE_ARGV + self.CACHE_ARGV[::-1]:
            self._assert_run_parses_as_full_parser(argv)

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import vlab.cli; print(vlab.cli._command_parser.cache_info().currsize)"],
            cwd=SRC, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("name", sorted(cli._ARGUMENTS))
    def test_command_parsers_are_safe_to_share(self, name):
        # what makes a kept parser safe to reuse: argparse's own actions,
        # which write only the namespace, and no default a call could mutate
        parser = cli._command_parser(name)
        for action in parser._actions:
            assert type(action).__module__ == "argparse", (name, action)
            assert action.default is None or type(action.default) in (bool, int, float, str), \
                (name, action.dest, action.default)

    def test_help_lists_commands(self, capsys):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("bounds", "sequence", "graph", "verify", "oracle"):
            assert cmd in text


class TestFailClosed:
    @pytest.fixture(scope="class")
    def seq_without_n(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seq") / "seq.json"
        assert run(["sequence", "--xi", "sqrt:2", "--n", "1", "--max-height", "5",
                    "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        del obj["n"]
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.fixture(scope="class")
    def seq_n2(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seq") / "seq.json"
        assert run(["sequence", "--xi", "cbrt:2", "--n", "2", "--max-height", "20",
                    "--out", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["sequence", "--xi", "sqrt:x", "--n", "1"],
        ["oracle", "--xi", "rat:1/0", "--n", "1", "--height", "3", "--format", "json"],
        ["sequence", "--xi", "sqrt:2", "--n", "0"],
        ["sequence", "--xi", "sqrt:2", "--n", "1", "--max-height", "-3"],
        ["bounds", "--n-min", "1"],
        ["verify", "--seq", "{seq}", "--slack", "nan"],
        ["verify", "--seq", "{seq}", "--format", "json"],
        ["graph", "--seq", "{seq}", "--q-list", "2,1/0"],
        # a box of ~e^(10^6) cells: refused before anything exponentiates q
        ["graph", "--seq", "{seq_n2}", "--mode", "exact", "--q-list", "1e6"],
        # the grid starts at q = 1: a smaller end is a usage error, not an
        # empty grid that the SVG renderer cannot scale
        ["graph", "--seq", "{seq_n2}", "--q-max", "0.5", "--svg", "{seq_n2}.svg"],
        ["graph", "--seq", "{seq_n2}", "--q-list", "2", "--q-max", "3"],
        ["verify", "--seq", "{seq}.missing", "--format", "json"],
        # a q whose float overflows is a usage error, in both modes
        ["graph", "--seq", "{seq_n2}", "--mode", "pool", "--q-list", "1e400"],
        ["graph", "--seq", "{seq_n2}", "--mode", "exact", "--q-list", "2,1e400"],
    ])
    def test_bad_input_exits_without_traceback(self, argv, seq_without_n, seq_n2):
        argv = [a.replace("{seq}", seq_without_n).replace("{seq_n2}", seq_n2) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "vlab.cli"] + argv, cwd=SRC,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode in (1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 1 and "json" in argv:
            assert "error" in json.loads(proc.stderr)

    @pytest.fixture(scope="class")
    def seq_e2(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seq") / "seq.json"
        assert run(["sequence", "--xi", "const:e", "--n", "2", "--max-height", "3",
                    "--out", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("key,value", [
        ("n", "2"), ("n", 2.5), ("n", -1), ("n", 0), ("n", True),
        ("precision_bits", "192"), ("precision_bits", 4), ("height_limit", "x"),
        ("height_limit", 0),
    ])
    @pytest.mark.parametrize("command", [["verify", "--format", "json"], ["graph"]])
    def test_malformed_header_exits_1(self, capsys, tmp_path, seq_e2, command, key, value):
        # a header field of the wrong type or below its floor names the
        # field (exit 1), rather than a traceback or a report
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(dict(seq_e2, **{key: value})))
        rc, _, err = run_cli(capsys, *command, "--seq", str(path))
        assert rc == 1
        if "json" in command:
            assert json.loads(err)["error"] == "VlabError"
        assert f"{key} must be an integer >= " in err

    @pytest.mark.parametrize("mutate", [
        lambda d: d["records"][-1].update(k="1"),
        lambda d: d["records"][-1].update(k=7),
        lambda d: d["records"][-1]["log_abs_value"].update(mid=-3.05),
        lambda d: d.update(xi={"kind": "rational", "p": 1, "q": 0}),
        lambda d: d["records"][-1].update(coeffs=[]),
        lambda d: d["records"][-1].update(coeffs=[1.5, 2, 1]),
        lambda d: d["records"][-1].update(coeffs=[2, 2, -1, 1]),  # degree 3 > n = 2
        lambda d: d["records"][-1].update(height=2.5),
        lambda d: d["records"][-1].update(good="yes"),
        lambda d: d["records"][-1].update(ell="2"),
        lambda d: d.update(xi="e"),
        lambda d: d.update(xi={"kind": "bogus"}),
        lambda d: d.update(xi={"kind": "cf", "quotients": []}),
        lambda d: d.update(xi={"kind": "cf", "quotients": [1, 0]}),
        lambda d: d.update(xi={"kind": "decimal", "digits": "2.7x"}),
        lambda d: d.update(xi={"kind": "root", "base": 2, "index": 0}),
    ], ids=["k-text", "k-position", "mid-number", "xi-q-zero", "coeffs-empty",
            "coeffs-float", "coeffs-degree", "height-float", "good-text", "ell-text",
            "xi-text", "xi-kind", "xi-cf-empty", "xi-cf-zero", "xi-digits", "xi-root-index"])
    @pytest.mark.parametrize("command", [["verify", "--format", "json"], ["graph"]])
    def test_malformed_record_exits_1(self, capsys, tmp_path, seq_e2, command, mutate):
        # a record field or xi of the wrong type or value is refused on
        # load (exit 1), naming the file, rather than a traceback or a
        # report; a well-formed xi naming no valid real is an UnsupportedSpec
        obj = json.loads(json.dumps(seq_e2))
        mutate(obj)
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_cli(capsys, *command, "--seq", str(path))
        assert (rc, out) == (1, "")
        assert (f"{path} is not a vlab sequence file (ValueError: " in err
                or f"{path} is not a vlab sequence file (UnsupportedSpec: " in err)
        if "json" in command:
            assert json.loads(err)["error"] == "VlabError"

    def test_oracle_box_budget_refused_before_scanning(self, capsys):
        start = time.perf_counter()
        rc, _, err = run_cli(capsys, "oracle", "--xi", "const:e", "--n", "6",
                             "--height", "30", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_huge_q_refused_before_scanning(self, capsys, seq_n2):
        start = time.perf_counter()
        rc, _, err = run_cli(capsys, "graph", "--seq", seq_n2, "--mode", "exact",
                             "--q-list", "1e6")
        assert time.perf_counter() - start < 2.0
        assert rc == 1
        assert "minima enumeration needs a coefficient box" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 1.23 GiB for an array", ""])
    @pytest.mark.parametrize("command", [["graph", "--mode", "exact"],
                                         ["verify", "--format", "json"]])
    def test_memory_error_exits_1(self, capsys, monkeypatch, seq_n2, command, message):
        # running out of memory inside a minima walk ends in exit 1 with an
        # error line (a JSON error under --format json), not in a traceback
        from vlab import verify

        def exhausted(sweep, q):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "successive_minima_exact", exhausted)
        monkeypatch.setattr(verify, "successive_minima_exact", exhausted)
        rc, out, err = run_cli(capsys, *command, "--seq", seq_n2)
        assert (rc, out) == (1, "")
        text = message or "out of memory"
        if "json" in command:
            assert json.loads(err) == {"error": "MemoryError", "message": text}
        else:
            assert err == f"error: {text}\n"

    @given(command=st.sampled_from(["bounds", "sequence", "oracle", "graph", "verify"]),
           rest=st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_generated_argv_exits_cleanly(self, command, rest):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run([command] + rest)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        assert rc in (0, 1, 2), (rc, err.getvalue())

    def test_cli_import_leaves_out_sympy(self):
        # sympy serves the tests only; the command line must not pay its import
        proc = subprocess.run(
            [sys.executable, "-c", "import vlab.cli, sys; print('sympy' in sys.modules)"],
            cwd=SRC, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "False"
