"""The mutation harness in tools/mutants.py: its sites, its edits and its time limit."""

import ast
import importlib.util
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

# ast gives columns in UTF-8 bytes: a two-byte letter sits before the
# first two operators
SOURCE = """\
def f(a, b, xs, out):
    if len("é") < (b) and a not in xs:
        out.append(
            a,
        )
    return a is None or b >= 2
"""


def test_each_site_flips_or_drops_one_span():
    source = SOURCE.encode()
    got = [mutants.describe(source, m) for m in mutants.mutants(source)]
    assert got == [
        '2: if len("é") < (b) and a not in xs: -> if len("é") >= (b) and a not in xs:',
        '2: if len("é") < (b) and a not in xs: -> if len("é") < (b) and a in xs:',
        "3: out.append( -> pass",
        "6: return a is None or b >= 2 -> return a is not None or b >= 2",
        "6: return a is None or b >= 2 -> return a is None or b < 2",
    ]
    for m in mutants.mutants(source):
        mutated = mutants.apply(source, m)
        ast.parse(mutated)
        assert mutated.count(b"\n") == source.count(b"\n")


def test_importers_put_the_module_own_tests_first():
    tests = Path(__file__).resolve().parent
    found = [path.name for path in mutants.importers(tests, "verify_suites")]
    assert found[0] == "test_verify_suites.py"
    assert "test_cli.py" in found and "test_intpoly.py" not in found


def test_a_run_past_its_limit_is_a_timeout(tmp_path):
    (tmp_path / "test_slow.py").write_text("import time\n\n\ndef test_slow():\n    time.sleep(60)\n")
    t0 = time.monotonic()
    assert mutants.run_tests(tmp_path, [tmp_path / "test_slow.py"], limit=2.0) == "timeout"
    assert time.monotonic() - t0 < 30


def test_a_run_that_leaves_through_os_exit_0_fails(tmp_path):
    # exit code 0, but pytest never wrote its report: a mutant that makes
    # the test process leave early must not survive
    (tmp_path / "test_exit.py").write_text(
        "import os\n\n\ndef test_exit():\n    os._exit(0)\n\n\ndef test_fails():\n    assert False\n"
    )
    assert mutants.run_tests(tmp_path, [tmp_path / "test_exit.py"]) == "failed"


def test_a_clean_run_passes_on_its_own_report(tmp_path):
    (tmp_path / "test_ok.py").write_text("def test_ok():\n    pass\n")
    assert mutants.run_tests(tmp_path, [tmp_path / "test_ok.py"]) == "passed"


def test_listed_survivors_are_reported_apart():
    # a survivor on a line that ends with the marker is listed after the rest
    source = SOURCE.replace("b >= 2\n", "b >= 2  # mutant: equivalent\n").encode()
    sites = mutants.mutants(source)
    outcomes = [(sites[0], "passed"), (sites[2], "timeout"), (sites[3], "passed")]
    assert mutants.summary("m", source, outcomes, 1.0) == [
        '2: if len("é") < (b) and a not in xs: -> if len("é") >= (b) and a not in xs:',
        "equivalent: 6: return a is None or b >= 2  # mutant: equivalent"
        " -> return a is not None or b >= 2  # mutant: equivalent",
        "m: 3 mutants, 1 killed (1 by timeout), 2 survivors (1 marked equivalent), 1 s",
    ]
