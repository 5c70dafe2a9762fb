"""Package-wide rules read from the source: no module imports another
module's private names, no self-check vanishes under python -O, every
memo is bounded, no constructor or NamedTuple method re-derives a
polynomial, no constructor raises, every public function has a caller
outside the tests, every layer the benchmark's tracer wraps resolves, no
process-pool machinery is imported, by the source or by a parallel scan,
the CLI freezes the heap at exit, and each command loads only the stdlib
it runs: only help and usage errors import click."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

import cycloforge

PACKAGE = Path(cycloforge.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# memos whose key space is small by construction, not by a maxsize
UNBOUNDED_MEMOS = {("domains.py", "_odd_primes_below_pow2")}

# expansions and products a value type's constructor, or any method of a
# NamedTuple, must not run; the verify suites check the invariants that
# would need them, and write the products they compare
DERIVING_CALLS = {
    "phi", "psi", "pseudo_phi", "poly_mul", "poly_mul_power", "poly_exact_div", "factorize"
}

# the methods that build a value: a plain class's and a dataclass's
CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_private_cross_module_imports():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    f"{name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_no_assert_statements():
    # python -O strips assert; a self-check raises AssertionError itself
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _bounded(deco) -> bool:
    # lru_cache(maxsize=<int>) or lru_cache(<int>); bare lru_cache and cache
    # are unbounded
    if not isinstance(deco, ast.Call):
        return False
    args = [kw.value for kw in deco.keywords if kw.arg == "maxsize"] + deco.args[:1]
    return len(args) == 1 and isinstance(args[0], ast.Constant) and type(args[0].value) is int


def test_every_memo_is_bounded():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                label = getattr(target, "attr", getattr(target, "id", ""))
                if label in ("lru_cache", "cache") and not _bounded(deco):
                    found.append((name, node.name))
    assert set(found) == UNBOUNDED_MEMOS


def test_no_post_init_derives_a_polynomial():
    # a NamedTuple holds values only, so none of its methods may derive one.
    # The rule sees direct calls only: ScanReport.replay_ok reaches the
    # oracles through flatness._recomputed_heights, which it does not follow
    found = []
    for name, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = {getattr(base, "id", getattr(base, "attr", "")) for base in cls.bases}
            named = "NamedTuple" in bases
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and (named or fn.name in CONSTRUCTORS)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        target = node.func
                        label = getattr(target, "attr", getattr(target, "id", ""))
                        if label in DERIVING_CALLS:
                            found.append(f"{name}: {cls.name}.{fn.name} calls {label}")
    assert found == []


def test_no_post_init_raises():
    # value types hold values; their invariants are checked where they are
    # built from outside input or in the verify suites
    found = [
        f"{name}: {cls.name}"
        for name, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in CONSTRUCTORS
        if any(isinstance(node, ast.Raise) for node in ast.walk(fn))
    ]
    assert found == []


def _names(node):
    # identifiers only: a string, such as the "mobius" value of an enum,
    # names no function
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_every_public_function_has_a_caller():
    # a top-level public def or class must be named in the package or the
    # benchmark somewhere other than its own definition; tests do not count
    users = defaultdict(set)
    public = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(node, "name", None))
            for name in _names(node):
                users[name].add(where)
            if (
                path.parent == PACKAGE
                and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            ):
                public.append(where)
    found = [f"{module}: {name}" for module, name in public if not users[name] - {(module, name)}]
    assert found == []


def _tracer_table(name):
    # a module-level literal of perfbench/tracer.py, read without running it
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == name for target in targets):
                return ast.literal_eval(node.value)
    raise LookupError(name)


def test_every_traced_layer_resolves():
    # the tracer getattrs each LAYERS name, through its private alias where
    # it has one, in its module, and reads an int default off scan's
    # chunk_width; a rename or deletion here breaks a traced benchmark run
    layers = _tracer_table("LAYERS")
    aliases = _tracer_table("_ALIASES")
    assert set(aliases) <= {public for names in layers.values() for public in names}
    missing = []
    for module, names in layers.items():
        mod = importlib.import_module(f"cycloforge.{module}")
        for public in names:
            obj = mod
            for part in aliases.get(public, public).split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{public}")
    assert missing == []
    scan = importlib.import_module("cycloforge.flatness").scan
    assert type(inspect.signature(scan).parameters["chunk_width"].default) is int


POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _imported(node):
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and not node.level:
        yield node.module
        yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_process_pool_imports():
    # --jobs forks through flatness.fork_map; the pool stack costs start-up
    # and memory and starts more processes than there are chunks
    found = [
        f"{name}:{node.lineno} imports {module}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        for module in _imported(node)
        if any(module == m or module.startswith(m + ".") for m in POOL_MODULES)
    ]
    assert found == []


def test_cli_import_loads_no_process_pool():
    # neither start-up nor a scan on two workers loads the pool machinery,
    # and the caller only reads its children's pipes, so select stays out too
    script = (
        "import sys, cycloforge.cli\n"
        "from cycloforge.flatness import scan\n"
        "scan('height_drop_p3', 4000, workers=2, chunk_width=1000)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',"
        " 'select') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


# stdlib and third-party modules no well-formed command needs at start-up
HEAVY_MODULES = ("dataclasses", "inspect", "json", "csv", "click")


@lru_cache(maxsize=1)
def _bare_modules():
    # what the interpreter and site load before any code of ours runs
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(ast.literal_eval(out.stdout))


@pytest.mark.parametrize(
    "argv, code, loads_click",
    [
        (["phi", "--n", "105"], 0, False),
        (["verify", "--suite", "periodicity", "--n", "15", "--smax", "60"], 0, False),
        (["scan", "--conjecture", "notflat", "--bound", "200", "--no-cache"], 0, False),
        (["--help"], 0, True),
        (["phi", "--n", "x"], 2, True),
        (["height", "--factors", "3,5,7"], 0, False),
        (["vset", "--factors", "3,5,7", "--multiplier", "3"], 0, False),
        (["classify", "--factors", "3,5,7", "--brute"], 0, False),
        (["bezout", "--n", "15", "--p", "7"], 0, False),
        (["fj", "--n", "15", "--p", "7", "--j", "2"], 0, False),
        (["fstar", "--n", "15", "--p", "17", "--j", "-16"], 0, False),
        (["staircase", "--p", "3", "--q", "5", "--l", "3"], 0, False),
        (["ldiagram", "--p", "5", "--q", "7"], 0, False),
        (["scan", "--conjecture", "notflat", "--bound", "200", "--cache", "j.jsonl"], 0, False),
        (["phi", "--n", "105", "--format", "json"], 0, False),
        (["PYTHONIOENCODING=ascii", "phi", "--n", "15", "--format", "pretty"], 0, False),
    ],
)
def test_cli_loads_click_only_for_help_and_usage_errors(tmp_path, argv, code, loads_click):
    # a well-formed command runs off the strict parser and loads none of
    # HEAVY_MODULES beyond what a bare interpreter loads, except json where
    # it reads or writes a journal or prints JSON; help text and usage
    # errors are click's, so only they import it, and click brings its own
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    argv = [str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in argv]
    # leading NAME=value words set the environment, as on a shell line
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    # the CLI as its console script runs it; sys.modules is printed at exit
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n"
        "sys.argv[0] = 'cycloforge'\n"
        "runpy.run_module('cycloforge.cli', run_name='__main__')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    assert out.returncode == code, out.stderr
    loaded = set(ast.literal_eval(out.stderr.splitlines()[-1]))
    if loads_click:
        assert "click" in loaded
    else:
        expected = {"json"} if "--cache" in argv or "json" in argv else set()
        assert expected <= loaded
        assert {m for m in HEAVY_MODULES if m in loaded - _bare_modules()} <= expected
    assert os.listdir(cwd) == []


def test_cli_import_freezes_the_heap_at_exit():
    # atexit handlers run last-in first-out, so the probe registered before
    # the import runs after the CLI's gc.freeze
    script = (
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "import cycloforge.cli\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")
