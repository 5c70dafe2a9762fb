import json
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloforge import cli
from cycloforge.cli import main
from cycloforge.fjdecomp import fstar_family
from cycloforge.intpoly import to_text
from cycloforge.verify_suites import PropertyResult

PRETTY_35 = (
    "x²⁴ - x²³ + x¹⁹ - x¹⁸ + x¹⁷ - x¹⁶ + x¹⁴ - x¹³ + x¹² - x¹¹ + x¹⁰"
    " - x⁸ + x⁷ - x⁶ + x⁵ - x + 1"
)

DIAGRAM_5_7 = """\
28 33  3 |  8 13 18 23
21 26 31 |  1  6 11 16
---------+------------
14 19 24 | 29 34  4  9
 7 12 17 | 22 27 32  2
 0  5 10 | 15 20 25 30"""


@pytest.fixture()
def runner():
    return CliRunner()


def test_phi_coeffs_105(runner):
    r = runner.invoke(main, ["phi", "--n", "105"])
    assert r.exit_code == 0
    tokens = r.stdout.strip().split(" ")
    assert len(tokens) == 49
    assert tokens[7] == "-2"


def test_phi_pretty_35_golden(runner):
    r = runner.invoke(main, ["phi", "--n", "35", "--format", "pretty"])
    assert r.exit_code == 0
    assert r.stdout == PRETTY_35 + "\n"


def test_phi_pretty_edge_cases(runner):
    assert runner.invoke(main, ["phi", "--n", "1", "--format", "pretty"]).stdout == "x - 1\n"
    assert runner.invoke(main, ["phi", "--n", "2", "--format", "pretty"]).stdout == "x + 1\n"
    r = runner.invoke(main, ["psi", "--n", "1", "--format", "pretty"])
    assert r.stdout == "1\n"


def test_pretty_prints_the_zero_polynomial_as_0():
    # no command prints a zero body at the inputs tests can afford, so the
    # printer's zero line is reached directly, with and without an offset
    assert cli._pretty(0, ()) == "0"
    assert cli._pretty(-2, ()) == "0"


def test_phi_json_roundtrip(runner):
    r = runner.invoke(main, ["phi", "--n", "105", "--format", "json"])
    obj = json.loads(r.stdout)
    assert obj["n"] == 105
    assert obj["degree"] == 48
    assert obj["coeffs"][7] == -2
    assert len(obj["coeffs"]) == 49


def test_phi_rejects_nonpositive(runner):
    r = runner.invoke(main, ["phi", "--n", "0"])
    assert r.exit_code == 1
    assert r.stderr == "error: n must be positive\n"
    assert r.stdout == ""


DOMAIN_ERRORS = [
    ("phi --n 0", "n must be positive"),
    ("psi --n 0", "n must be positive"),
    ("bezout --n 1 --p 3", "need n >= 2"),
    ("bezout --n 15 --p 4", "4 is not prime"),
    ("bezout --n 15 --p 5", "5 divides 15"),
    ("fj --n 0 --p 3 --j 0", "need n >= 1"),
    ("fstar --n 0 --p 5 --j 0", "need n >= 1"),
    ("fj --n 15 --p 9 --j 0", "9 is not prime"),
    ("fstar --n 15 --p 7 --j 0", "need p > n, got p=7, n=15"),
    ("fstar --n 15 --p 5 --j 0", "5 divides 15"),
    ("pseudo --parts 6,9", "parts 6 and 9 share a common factor"),
    ("pseudo --parts 6,9 --inverse", "parts 6 and 9 share a common factor"),
    ("pseudo --parts 0,3", "parts must be integers >= 1, got 0"),
    ("pseudo --parts 1,3 --factorization", "pseudo_factorization needs every part > 1"),
    ("staircase --p 3 --q 5 --l 0", "l must lie in [1, 7]"),
    ("staircase --p 1 --q 5 --l 1", "both parts must exceed 1"),
    ("ldiagram --p 4 --q 6", "4 and 6 share a common factor"),
]


def test_domain_errors_are_one_exact_line(runner):
    for args, stderr in DOMAIN_ERRORS:
        r = runner.invoke(main, args.split())
        assert (r.exit_code, r.stdout, r.stderr) == (1, "", f"error: {stderr}\n"), args


def test_phi_large_n_guard(runner):
    r = runner.invoke(main, ["phi", "--n", "10000001"])
    assert r.exit_code == 1
    assert "--force" in r.stderr


def test_phi_algorithms_agree(runner):
    base = runner.invoke(main, ["phi", "--n", "105"]).stdout
    for alg in ("mobius", "recursive", "sparse", "gcd"):
        r = runner.invoke(main, ["phi", "--n", "105", "--algorithm", alg])
        assert r.exit_code == 0
        assert r.stdout == base, alg
    r = runner.invoke(main, ["phi", "--n", "105", "--algorithm", "newton"])
    assert r.exit_code == 2


def test_psi_golden(runner):
    r = runner.invoke(main, ["psi", "--n", "15"])
    assert r.stdout == "-1 -1 -1 0 0 1 1 1\n"


def test_psi_large_degree_guard(runner):
    # deg psi(n) = n - totient(n): 10^9 + 8 terms for 2 * (10^9 + 7), refused
    # before any expansion; a large prime's psi is x - 1 and still prints
    r = runner.invoke(main, ["psi", "--n", "2000000014"])
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr.count("\n") == 1 and "--force" in r.stderr
    r = runner.invoke(main, ["psi", "--n", "1000000007"])
    assert (r.exit_code, r.stdout) == (0, "-1 1\n")
    r = runner.invoke(main, ["psi", "--n", "15", "--force"])
    assert r.stdout == "-1 -1 -1 0 0 1 1 1\n"


def test_pseudo_matches_phi_on_primes(runner):
    a = runner.invoke(main, ["pseudo", "--parts", "3,5"]).stdout
    b = runner.invoke(main, ["phi", "--n", "15"]).stdout
    assert a == b


def test_pseudo_inverse_and_factorization(runner):
    r = runner.invoke(main, ["pseudo", "--parts", "2,9", "--factorization"])
    assert r.stdout == "6 18\n"
    r = runner.invoke(main, ["pseudo", "--parts", "2,9", "--inverse"])
    assert r.stdout == "-1 -1 0 0 0 0 0 0 0 1 1\n"
    r = runner.invoke(
        main, ["pseudo", "--parts", "2,9", "--inverse", "--factorization"]
    )
    assert r.exit_code == 2


def test_pseudo_rejects_common_factor(runner):
    r = runner.invoke(main, ["pseudo", "--parts", "4,6"])
    assert r.exit_code == 1
    assert "common factor" in r.stderr


def test_height_and_vset(runner):
    assert runner.invoke(main, ["height", "--factors", "5,13,73"]).stdout == "3\n"
    r = runner.invoke(main, ["vset", "--factors", "3,5,17"])
    assert r.stdout == "-1 0 1 2\n"
    r = runner.invoke(main, ["height", "--factors", "3,5", "--multiplier", "9"])
    assert r.stdout == "1\n"


def test_intlist_usage_error(runner):
    for factors in ("3,five", "3,5,", ""):
        r = runner.invoke(main, ["height", "--factors", factors])
        assert r.exit_code == 2, factors
        assert "--factors" in r.stderr


def test_fj_member_lines(runner):
    r = runner.invoke(main, ["fj", "--n", "15", "--p", "7", "--j", "3"])
    assert r.stdout == "0 0 1 -1 1\n"
    # extension: member 24 picks up x^-3 against member 3's canonical x^2
    r = runner.invoke(main, ["fj", "--n", "15", "--p", "7", "--j", "24"])
    assert r.stdout == "offset=-1 1 -1 1\n"
    r = runner.invoke(
        main, ["fj", "--n", "15", "--p", "7", "--j", "24", "--format", "pretty"]
    )
    assert r.stdout == "x - 1 + x⁻¹\n"
    r = runner.invoke(
        main, ["fj", "--n", "15", "--p", "7", "--j", "24", "--format", "json"]
    )
    obj = json.loads(r.stdout)
    assert obj["offset"] == -1
    assert obj["coeffs"] == [1, -1, 1]


def test_fstar_member(runner):
    r = runner.invoke(main, ["fstar", "--n", "15", "--p", "17", "--j", "2"])
    assert r.stdout == "0 0 1 0 -1 0 1\n"
    r = runner.invoke(main, ["fstar", "--n", "15", "--p", "7", "--j", "2"])
    assert r.exit_code == 1


def test_fstar_any_index_is_the_family_entry(runner):
    fam = fstar_family(15, 17)
    for j in (-16, -1, 0, 7, 14, 15, 38):
        r = runner.invoke(main, ["fstar", "--n", "15", "--p", "17", "--j", str(j)])
        assert r.stdout == to_text(fam[j % 15]) + "\n", j
    # n is checked before j is reduced mod n
    r = runner.invoke(main, ["fstar", "--n", "0", "--p", "5", "--j", "2"])
    assert (r.exit_code, r.stderr) == (1, "error: need n >= 1\n")


def test_bezout_lines(runner):
    r = runner.invoke(main, ["bezout", "--n", "3", "--p", "2"])
    assert r.stdout == "a: 0 -1\nb: 1\n"


def test_ldiagram_text_and_json(runner):
    r = runner.invoke(main, ["ldiagram", "--p", "5", "--q", "7"])
    assert r.stdout == DIAGRAM_5_7 + "\n"
    r = runner.invoke(main, ["ldiagram", "--p", "5", "--q", "7", "--format", "json"])
    obj = json.loads(r.stdout)
    assert obj["rows"] == 5 and obj["cols"] == 7
    assert obj["residues"][0][0] == 0
    assert (obj["mu"], obj["lambda"]) == (3, 3)


def test_staircase_output(runner):
    r = runner.invoke(main, ["staircase", "--p", "3", "--q", "5", "--l", "2"])
    assert r.stdout == "mu=4 lambda=1\n1 0 -1 1 0 0 1 -1 0 1\n"
    r = runner.invoke(
        main, ["staircase", "--p", "3", "--q", "5", "--l", "2", "--format", "json"]
    )
    obj = json.loads(r.stdout)
    assert obj["mu"] == 4 and obj["lambda"] == 1
    assert obj["coeffs"] == [1, 0, -1, 1, 0, 0, 1, -1, 0, 1]
    r = runner.invoke(main, ["staircase", "--p", "3", "--q", "5", "--l", "9"])
    assert r.exit_code == 1


def test_classify_lines(runner):
    cases = {
        "3,5,31": "Flat theorem=r±1",
        "3,5,17": "HeightExactly2 theorem=r±2",
        "7,43,599": "Flat theorem=broadhurst-II w=3",
        "3,11,41": "BoundOnly theorem=A<=|w| bound=8",
        "3,5,31,929": "Flat theorem=pqrs-chain",
        "5,7,71,4969": "NotFlat theorem=pqrs-chain",
        "3,5,7,11": "TheoremSilent theorem=none",
    }
    for factors, expected in cases.items():
        r = runner.invoke(main, ["classify", "--factors", factors])
        assert r.exit_code == 0, factors
        assert r.stdout == expected + "\n", factors


def test_classify_brute_and_explain(runner):
    r = runner.invoke(main, ["classify", "--factors", "3,11,41", "--brute"])
    assert r.stdout == "BoundOnly theorem=A<=|w| bound=8 height=1\n"
    r = runner.invoke(main, ["classify", "--factors", "3,5,17", "--explain"])
    assert r.stdout.startswith("HeightExactly2 theorem=r±2  (")
    r = runner.invoke(main, ["classify", "--factors", "5,3"])
    assert r.exit_code == 1
    assert "ascending" in r.stderr


def test_classify_refuses_a_strong_pseudoprime_to_the_bases_up_to_37(runner):
    # 399165290221 * 798330580441 passes Miller-Rabin for every base up to
    # 37; base 41 shows it composite
    r = runner.invoke(main, ["classify", "--factors", "3,5,318665857834031151167461"])
    want = "error: [3, 5, 318665857834031151167461] must be odd primes\n"
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", want)


def test_verify_unknown_suite_is_usage_error(runner):
    r = runner.invoke(main, ["verify", "--suite", "nosuch"])
    assert r.exit_code == 2
    assert "--suite" in r.stderr


def test_verify_periodicity_small(runner):
    r = runner.invoke(main, ["verify", "--suite", "periodicity", "--n", "15", "--smax", "60"])
    assert r.exit_code == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 2
    assert all(line.startswith("PASS periodicity/") for line in lines)


def test_verify_binary_small(runner):
    r = runner.invoke(main, ["verify", "--suite", "binary", "--max", "300"])
    assert r.exit_code == 0
    assert "FAIL" not in r.stdout
    assert "PASS binary/flat-height" in r.stdout


def test_verify_exits_1_on_a_failing_property(runner, monkeypatch):
    rows = [
        PropertyResult("fj", "members", True, "ok"),
        PropertyResult("fj", "f-equals-g", False, "1 counterexamples, first: forged"),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda suite, **kwargs: rows)
    r = runner.invoke(main, ["verify", "--suite", "fj"])
    assert r.exit_code == 1
    assert r.stdout == (
        "PASS fj/members: ok\nFAIL fj/f-equals-g: 1 counterexamples, first: forged\n"
    )


def test_verify_zero_range_is_not_the_default(runner):
    r = runner.invoke(main, ["verify", "--suite", "binary", "--max", "0"])
    assert r.exit_code == 0
    assert "PASS binary/flat-height: 0 prime pairs\n" in r.stdout
    r = runner.invoke(main, ["verify", "--suite", "paper-table", "--max", "0"])
    assert (r.exit_code, r.stdout) == (1, "")
    assert "bound must be positive" in r.stderr


def test_verify_classifier_soundness_small(runner):
    r = runner.invoke(main, ["verify", "--suite", "classifier-soundness", "--max", "2000"])
    assert r.exit_code == 0
    assert "FAIL" not in r.stdout


def test_scan_journal_lifecycle(runner):
    with runner.isolated_filesystem():
        args = ["scan", "--conjecture", "height_drop_p3", "--bound", "5000"]
        r1 = runner.invoke(main, args)
        assert r1.exit_code == 0
        assert "A(4745)=3 drops to A(14235)=2" in r1.stdout
        with open("cycloforge-cache.jsonl", encoding="utf-8") as fh:
            size1 = len(fh.readlines())
        assert size1 > 0
        # rerun resumes off the journal: same bytes, no new lines
        r2 = runner.invoke(main, args)
        assert r2.stdout == r1.stdout
        with open("cycloforge-cache.jsonl", encoding="utf-8") as fh:
            assert len(fh.readlines()) == size1


def test_scan_exports(runner):
    with runner.isolated_filesystem():
        r = runner.invoke(
            main,
            [
                "scan", "--conjecture", "height_drop_p3", "--bound", "5000",
                "--csv", "out.csv", "--json", "out.json",
            ],
        )
        assert r.exit_code == 0
        with open("out.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "id,n_or_tuple,height_values,verdict"
        assert lines[1].startswith("1,4745->14235,3;2,")
        with open("out.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["conjecture"] == "height_drop_p3"
        assert obj["range_checked"] == [1, 5000]
        assert obj["complete"] is True
        assert obj["counterexamples"][0]["n"] == 4745


def test_scan_export_that_cannot_be_written_prints_no_report(runner):
    # the exports are written before the report: a failed one leaves stdout
    # empty and one error line, and the journal kept for the rerun
    with runner.isolated_filesystem():
        for flag in ("--csv", "--json"):
            r = runner.invoke(
                main,
                ["scan", "--conjecture", "height_drop_p3", "--bound", "5000",
                 flag, "missing-dir/out"],
            )
            assert (r.exit_code, r.stdout) == (1, ""), flag
            assert r.stderr.startswith("error: [Errno 2] ") and r.stderr.count("\n") == 1
        with open("cycloforge-cache.jsonl", encoding="utf-8") as fh:
            assert fh.readline()


def test_jobs_below_one_is_one_error_line(runner):
    # scan and verify refuse --jobs 0 and -1 before any journal is touched,
    # instead of running one worker
    import os

    with runner.isolated_filesystem():
        for jobs in ("0", "-1"):
            for args, error in [
                (["scan", "--conjecture", "height_drop_p3", "--bound", "100"], "workers"),
                (["verify", "--suite", "fj", "--max", "5"], "jobs"),
            ]:
                r = runner.invoke(main, [*args, "--jobs", jobs])
                want = (1, "", f"error: {error} must be positive\n")
                assert (r.exit_code, r.stdout, r.stderr) == want, args
        assert os.listdir(".") == []


def test_scan_error_paths(runner):
    import os

    with runner.isolated_filesystem():
        # a rejected scan touches no journal
        for conjecture, bound, error in [
            ("nosuch", "100", "unknown conjecture"),
            ("notflat", "0", "bound must be positive"),
        ]:
            r = runner.invoke(main, ["scan", "--conjecture", conjecture, "--bound", bound])
            assert (r.exit_code, r.stdout) == (1, "")
            assert error in r.stderr
            assert os.listdir(".") == []
        r = runner.invoke(
            main,
            ["scan", "--conjecture", "notflat", "--bound", "100",
             "--cache", "missing-dir/j.jsonl"],
        )
        assert r.exit_code == 1
        assert "not writable" in r.stderr


def test_scan_no_cache_leaves_no_file(runner):
    import os

    with runner.isolated_filesystem():
        r = runner.invoke(
            main, ["scan", "--conjecture", "notflat", "--bound", "200", "--no-cache"]
        )
        assert r.exit_code == 0
        assert r.stdout == "notflat: checked 1..200, 0 counterexamples, complete\n"
        assert os.listdir(".") == []


def test_stdout_determinism_and_timing(runner):
    a = runner.invoke(main, ["phi", "--n", "2310", "--format", "json"])
    b = runner.invoke(main, ["phi", "--n", "2310", "--format", "json"])
    assert a.stdout == b.stdout
    t = runner.invoke(main, ["--timing", "phi", "--n", "2310", "--format", "json"])
    assert t.stdout == a.stdout
    assert t.stderr.startswith("timing: ")


# `--help` of the group ("") and of every command, as the click-decorated
# CLI printed it at 80 columns under the program name cycloforge
HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "cli_help_golden.json").read_text(encoding="utf-8")
)


def test_help_golden_covers_every_command():
    assert sorted(HELP_GOLDEN) == sorted(["", *cli.COMMANDS])


@pytest.mark.parametrize("name", sorted(HELP_GOLDEN))
def test_help_is_the_golden_bytes(runner, name):
    args = [name, "--help"] if name else ["--help"]
    r = runner.invoke(main, args, prog_name="cycloforge", terminal_width=80)
    assert (r.exit_code, r.stdout, r.stderr) == (0, HELP_GOLDEN[name], "")


def _values(opt):
    # values the option's type takes, then values it refuses or that click
    # reads differently from how they look
    if opt.kind == cli.FLAG:
        return [None], [None]
    if opt.kind == cli.INT_LIST:
        return ["3,5", "5,13,73", "2,9"], ["3,five", "7,", "-3,5", ""]
    if opt.kind == cli.PATH:
        return ["j.jsonl", "out.csv"], ["", "-"]
    if isinstance(opt.kind, tuple):
        return list(opt.kind), ["xml", "JSON", ""]
    if opt.kind is int:
        return ["0", "15", "105", "-3", "-16"], ["x", "1_0", " 7", "1.5", "--n", "-", "-x"]
    return ["notflat", "height_drop_p3"], ["-x", ""]


JUNK = ["--help", "-h", "--n=5", "--bogus", "--timing", "--", "extra"]


@st.composite
def _argv(draw):
    head = draw(st.sampled_from([[], [], ["--timing"], ["--timing", "--timing"], ["--help"]]))
    name = draw(st.sampled_from([*cli.COMMANDS, "nosuch"]))
    opts = cli.COMMANDS[name][1] if name in cli.COMMANDS else ()
    pieces = []
    for opt in opts:
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 1, 2]))):
            good, bad = _values(opt)
            value = draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))
            pieces.append([opt.flag] if value is None else [opt.flag, value])
    if draw(st.integers(0, 5)) == 0:
        pieces.append([draw(st.sampled_from(JUNK))])
    tokens = [t for piece in draw(st.permutations(pieces)) for t in piece]
    if tokens and draw(st.integers(0, 19)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return head + [name] + tokens


def _click_params(argv):
    # (timing, command, params) as click passes them to the callbacks, or
    # None where click refuses the argv or prints help
    group = cli._click_group()
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group, "callback", lambda timing: seen.update(timing=timing))
        for name, cmd in group.commands.items():
            mp.setattr(cmd, "callback", lambda _name=name, **params: (_name, params))
        try:
            got = group.main(args=argv, prog_name="cycloforge", standalone_mode=False)
        except click.ClickException:
            return None
    return None if not isinstance(got, tuple) else (seen["timing"], *got)


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_strict_parser_declines_or_agrees_with_click(argv):
    parsed = cli._parse(list(argv))
    if parsed is None:
        return
    fn, timing, params = parsed
    want = _click_params(list(argv))
    assert want is not None, argv
    assert (timing, cli.COMMANDS[want[1]][0], params) == (want[0], fn, want[2])


def test_strict_parser_accepts_well_formed_commands():
    for argv in (
        ["phi", "--n", "105"],
        ["--timing", "phi", "--format", "json", "--n", "35", "--force"],
        ["verify", "--suite", "periodicity", "--n", "15", "--n", "21", "--smax", "60"],
        ["scan", "--conjecture", "notflat", "--bound", "200", "--no-cache"],
        ["pseudo", "--parts", "2,9", "--inverse"],
        ["fstar", "--n", "15", "--p", "17", "--j", "-16"],
        ["phi", "--n", "-5"],
    ):
        parsed = cli._parse(argv)
        assert parsed is not None and parsed[2] == _click_params(argv)[2], argv
    assert cli._parse(["verify", "--suite", "fj"])[2] == {
        "suite": "fj", "max_value": None, "n_values": (), "smax": None,
        "jobs": cli._usable_cpus(),
    }


def test_verify_jobs_default_to_the_usable_cpus_and_scan_stays_serial(runner, monkeypatch):
    # verify reads the CPU count at each call, through either parser; scan
    # keeps one worker. Both are stubbed, so no process is forked
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: seen.append(kw["jobs"]) or [])
    real_scan = cli._scan
    monkeypatch.setattr(
        cli, "_scan", lambda *a, **kw: seen.append(kw["workers"]) or real_scan(*a, **kw)
    )
    assert runner.invoke(main, ["verify", "--suite", "fj"]).exit_code == 0
    assert runner.invoke(main, ["verify", "--suite", "fj", "--jobs", "2"]).exit_code == 0
    args = ["scan", "--conjecture", "notflat", "--bound", "200", "--no-cache"]
    assert runner.invoke(main, args).exit_code == 0
    assert seen == [3, 2, 1]
    assert _click_params(["verify", "--suite", "fj"])[2]["jobs"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["phi", "--n", "5", "--help"],
        ["phi"],
        ["phi", "--n", "x"],
        ["phi", "--n", "--force"],
        ["phi", "--n=5"],
        ["phi", "--n", "5", "--n", "6"],
        ["phi", "--n", "5", "--bogus"],
        ["phi", "--n", "5", "extra"],
        ["phi", "--n", "5", "--format", "xml"],
        ["--timing", "--timing", "phi", "--n", "5"],
        ["pseudo", "--parts", "2,9", "--inverse", "--factorization"],
        ["nosuch"],
    ],
)
def test_strict_parser_declines(argv):
    assert cli._parse(argv) is None


def _cli_env(**extra: str) -> dict:
    import os

    import cycloforge

    # run the package under test, not whatever `cycloforge` script is on
    # PATH (a checkout has none): put its parent directory first on the
    # child's PYTHONPATH
    pkg_root = os.path.dirname(os.path.dirname(cycloforge.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p
    )
    return env


def _cli_process(args: str, text: bool = True, **env: str):
    import shlex
    import subprocess
    import sys

    # a shell line, so a pipe can follow; started with this interpreter
    return subprocess.run(
        f"{shlex.quote(sys.executable)} -m cycloforge.cli {args}",
        shell=True,
        capture_output=True,
        text=text,
        timeout=30,
        env=_cli_env(**env),
    )


def _psi_into_head(nbytes: int):
    return _cli_process(f"psi --n 100000 | head -c {nbytes}")


def test_scan_jobs_2_stdout_matches_jobs_1():
    # the whole command through a real stdout pipe, workers forked and all
    one, two = (
        _cli_process(f"scan --conjecture height_drop_p3 --bound 8000 --jobs {jobs} --no-cache")
        for jobs in (1, 2)
    )
    assert (two.returncode, two.stdout, two.stderr) == (one.returncode, one.stdout, one.stderr)
    assert one.stdout.count("\n") == 3


def test_scan_files_are_whole_at_process_exit(tmp_path):
    # the heap is frozen at exit, so what the journal, CSV and JSON files
    # hold must already be written and closed by then
    import shlex

    j, c, x = (shlex.quote(str(tmp_path / name)) for name in ("J", "C", "X"))
    args = f"scan --conjecture height_drop_p3 --bound 8000 --cache {j} --csv {c} --json {x}"
    first = _cli_process(args)
    assert (first.returncode, first.stderr) == (0, "")
    assert first.stdout == (
        "height_drop_p3: checked 1..8000, 2 counterexamples, complete\n"
        "  A(4745)=3 drops to A(14235)=2\n"
        "  A(7469)=4 drops to A(22407)=3\n"
    )
    report = json.loads((tmp_path / "X").read_text(encoding="utf-8"))
    assert [rec["n"] for rec in report["counterexamples"]] == [4745, 7469]
    assert (tmp_path / "C").read_text(encoding="utf-8").splitlines()[1:] == [
        "1,4745->14235,3;2,A(4745)=3 drops to A(14235)=2",
        "2,7469->22407,4;3,A(7469)=4 drops to A(22407)=3",
    ]
    journal = (tmp_path / "J").read_bytes()
    again = _cli_process(args)
    assert (again.returncode, again.stdout, again.stderr) == (0, first.stdout, "")
    assert (tmp_path / "J").read_bytes() == journal


def test_large_stdout_is_whole_at_process_exit():
    # phi(255255) = 92160, so its coefficient line has 92161 fields
    proc = _cli_process("phi --n 255255 | wc -w")
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "92161", "")


def test_broken_pipe_exits_quietly():
    # 120KB into a pipe whose reader exits after 10 bytes. The writer may
    # be inside one large write() when head goes (short write, exit 0) or
    # start writing after it has gone (BrokenPipeError, exit 1); either way
    # the first ten bytes arrive and nothing reaches stderr
    proc = _psi_into_head(10)
    assert proc.returncode == 0
    assert proc.stdout == "-1 0 0 0 0"
    assert proc.stderr == ""


def test_broken_pipe_before_first_write_exits_quietly():
    # head -c 0 exits at once, long before the CLI has imported and
    # computed, so the first write meets a closed pipe: the
    # BrokenPipeError handler must keep stderr empty
    proc = _psi_into_head(0)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert proc.stderr == ""


def test_broken_pipe_in_the_middle_of_the_stream():
    # phi(290895) prints about 450KB in many pieces; head leaves after the
    # first 100000 bytes, and those are the full line's
    from cycloforge.cyclotomic import phi

    proc = _cli_process("phi --n 290895 | head -c 100000", text=False)
    full = (to_text(phi(290895)) + "\n").encode()
    assert len(full) > 100000
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, full[:100000], b"")


@pytest.mark.parametrize(
    "encoding, args, code, stdout, stderr",
    [
        # click writes UTF-8 bytes to an ASCII stdout
        ("ascii", "--format pretty", 0,
         "x⁸ - x⁷ + x⁵ - x⁴ + x³ - x + 1\n".encode(), b""),
        ("latin-1", "", 0, b"1 -1 0 1 -1 1 0 -1 1\n", b""),
        ("latin-1", "--format pretty", 1, b"",
         b"error: 'latin-1' codec can't encode character '\\u2078' in position 1: "
         b"ordinal not in range(256)\n"),
    ],
)
def test_stdout_bytes_on_a_stream_that_is_not_utf8(encoding, args, code, stdout, stderr):
    proc = _cli_process(f"phi --n 15 {args}", text=False, PYTHONIOENCODING=encoding)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def test_coeffs_output_holds_a_bounded_amount_of_memory(monkeypatch):
    # phi(290895) has 134401 coefficients; printing them, once phi is
    # computed, must not hold their whole text. The command is handed the
    # computed polynomial, since phi builds a fresh one on each call
    import io
    import sys
    import tracemalloc

    from cycloforge.cyclotomic import phi

    class Sink(io.RawIOBase):
        def writable(self):
            return True

        def write(self, b):
            return len(b)

    f = phi(290895)
    monkeypatch.setattr(cli, "phi", lambda n, alg=None: f)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Sink(), encoding="utf-8"))
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_:
            main(["phi", "--n", "290895"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_.value.code == 0
    assert peak < 2 * 2**20


def test_out_of_memory_is_one_line(runner, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "height_of", exhausted)
    r = runner.invoke(main, ["height", "--factors", "3,5,7"])
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", "error: out of memory\n")


def _capped(argv: list[str], cap: int):
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "cycloforge.cli", *argv], capture_output=True,
        timeout=30, env=_cli_env(), preexec_fn=limit,
    )


def test_out_of_memory_under_an_address_space_cap_is_one_line():
    import time

    cap = 40 * 2**20
    if _capped(["phi", "--n", "15"], cap).returncode:
        pytest.skip("the interpreter does not start under a 40 MiB address-space cap")
    t0 = time.perf_counter()
    proc = _capped(["height", "--factors", "3,5,7,11,13,17,19,23"], cap)
    elapsed = time.perf_counter() - t0
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"error: out of memory\n")
    assert elapsed < 5
