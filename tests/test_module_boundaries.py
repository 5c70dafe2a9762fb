"""Package-wide rules read from the source: no module imports another
module's private names, no self-check vanishes under python -O, every
memo is bounded, no constructor re-derives a polynomial or raises, every
public function has a caller outside the tests, no process-pool
machinery is imported, by the source or by a parallel scan, and the CLI
freezes the heap at exit."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import cycloforge

PACKAGE = Path(cycloforge.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# memos whose key space is small by construction, not by a maxsize
UNBOUNDED_MEMOS = {("domains.py", "_odd_primes_below_pow2")}

# expansions and products a value type's constructor must not run; the
# verify suites check the invariants that would need them
DERIVING_CALLS = {"phi", "psi", "pseudo_phi", "poly_mul", "poly_exact_div", "factorize"}


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
    found = []
    for name, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        target = node.func
                        label = getattr(target, "attr", getattr(target, "id", ""))
                        if label in DERIVING_CALLS:
                            found.append(f"{name}: {cls.name} calls {label}")
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
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
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


def _is_click_command(node) -> bool:
    # reached through its group, never by name
    return any(
        isinstance(deco, ast.Call) and getattr(deco.func, "attr", "") == "command"
        for deco in node.decorator_list
    )


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
                and not _is_click_command(node)
            ):
                public.append(where)
    found = [f"{module}: {name}" for module, name in public if not users[name] - {(module, name)}]
    assert found == []


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
