"""Traced launcher: runs one cycloforge CLI invocation with spans.

Usage: python tracer.py SPAN_FILE [CLI ARGS...]   (with src/ on PYTHONPATH)

It imports cycloforge.cli, wraps the public functions listed in LAYERS in
their defining module and in every cycloforge module that imported them,
then runs the CLI's main. Spans (name, start ns, end ns, parent index)
stay in memory and are written to SPAN_FILE as JSON when the invocation
exits, including through SystemExit. Span 0 is the whole invocation.
"""

from __future__ import annotations

import json
import os
import sys
import time

_clock = time.perf_counter_ns
# The root span starts when the parent spawned this process, if it says
# (perf_counter is the system-wide monotonic clock), so it spans the same
# interval as the untraced latency up to interpreter exit.
SPAWN_ENV = "PERFBENCH_SPAWN_NS"
_spans: list = [["cli.invocation", int(os.environ.get(SPAWN_ENV) or _clock()), 0, -1]]
_stack = [0]
_counts: dict[str, int] = {}

# module -> public functions (Class.method for methods) timed as layers
LAYERS = {
    "_numtheory": ("factorize", "primes_up_to"),
    "intpoly": ("to_text", "poly_height", "poly_mod_monic", "poly_exact_div", "poly_mul"),
    "cyclotomic": ("phi", "psi"),
    "pseudocyclo": ("pseudo_phi",),
    "binary_structure": ("staircase_multiple",),
    "fjdecomp": ("fj_family", "bezout_split", "fstar_family", "f0_fast", "periodicity_compare"),
    "flatness": (
        "height_of",
        "coefficient_set_of",
        "classify",
        "scan",
        "HeightCache.load",
        "HeightCache.record_chunk",
    ),
    "verify_suites": ("run_suite",),
}

# private names behind a public layer name
_ALIASES = {"HeightCache.load": "HeightCache._load"}


def layer_name(module: str, public: str) -> str:
    """Span and metric name; metric names may not start with '_'."""
    return f"{module.lstrip('_')}.{public}"


def _count(key: str, value: int) -> None:
    _counts[key] = _counts.get(key, 0) + value


def _degree(poly) -> int:
    return len(poly.coeffs) - 1 if poly.coeffs else 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


def _record_phi(result, args, kwargs):
    _count("cyclotomic.phi.degree_sum", _degree(result))


def _record_pseudo(result, args, kwargs):
    _count("pseudocyclo.pseudo_phi.degree_sum", _degree(result))


def _record_mod(result, args, kwargs):
    _count("intpoly.poly_mod_monic.degree_sum", _degree(args[0]))


# exact counts taken after a call returns
_AFTER = {
    "cyclotomic.phi": _record_phi,
    "pseudocyclo.pseudo_phi": _record_pseudo,
    "intpoly.poly_mod_monic": _record_mod,
}


def _wrap(name: str, fn):
    after = _AFTER.get(name)

    def traced(*args, **kwargs):
        idx = len(_spans)
        span = [name, _clock(), 0, _stack[-1]]
        _spans.append(span)
        _stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            _stack.pop()
        if after is not None:
            after(result, args, kwargs)
        return result

    return traced


def _journal_load(fn):
    def load(self):
        _count("journal.bytes_read", _file_size(self.path))
        return fn(self)

    return load


def _journal_record(fn):
    def record_chunk(self, *args, **kwargs):
        before = _file_size(self.path)
        try:
            return fn(self, *args, **kwargs)
        finally:
            _count("journal.bytes_written", _file_size(self.path) - before)
            _count("flatness.scan.chunks_computed", 1)

    return record_chunk


def _scan_windows(fn, default_width: int):
    def scan(conjecture, bound, *args, **kwargs):
        width = kwargs.get("chunk_width", args[2] if len(args) > 2 else default_width)
        _count("flatness.scan.windows", -(-bound // width) if bound > 0 else 0)
        return fn(conjecture, bound, *args, **kwargs)

    return scan


def install() -> None:
    import inspect

    mods = {name: sys.modules[f"cycloforge.{name}"] for name in LAYERS}
    loaded = [m for key, m in sys.modules.items() if key.startswith("cycloforge") and m]
    for mod_name, names in LAYERS.items():
        mod = mods[mod_name]
        for public in names:
            layer = layer_name(mod_name, public)
            if "." in public:
                cls_name, meth = _ALIASES.get(public, public).split(".")
                cls = getattr(mod, cls_name)
                orig = getattr(cls, meth)
                if public == "HeightCache.load":
                    orig = _journal_load(orig)
                elif public == "HeightCache.record_chunk":
                    orig = _journal_record(orig)
                setattr(cls, meth, _wrap(layer, orig))
                continue
            orig = getattr(mod, public)
            inner = orig
            if layer == "flatness.scan":
                width = inspect.signature(orig).parameters["chunk_width"].default
                inner = _scan_windows(orig, width)
            wrapped = _wrap(layer, inner)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)


def _phi_cache_info() -> list[int]:
    cached = getattr(sys.modules["cycloforge.cyclotomic"], "_phi_default", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return [0, 0]
    got = info()
    return [got.hits, got.misses]


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    code = 0
    try:
        imp = ["cli.import", _clock(), 0, 0]
        _spans.append(imp)
        from cycloforge.cli import main as cli_main

        imp[2] = _clock()
        install()
        root = ["cli.main", _clock(), 0, 0]
        _spans.append(root)
        _stack.append(len(_spans) - 1)
        try:
            cli_main.main(args=argv, prog_name="cycloforge", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            root[2] = _clock()
            _stack.pop()
        sys.stdout.flush()
    finally:
        _spans[0][2] = _clock()
        payload = {
            "spans": _spans,
            "counts": _counts,
            "phi_cache": _phi_cache_info() if "cycloforge.cyclotomic" in sys.modules else [0, 0],
        }
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
