"""Command line surface: compute, inspect, classify, verify, scan.

Exit codes: 0 on success, 1 on domain errors (one line on stderr),
2 on usage errors. Stdout is deterministic for a given argv; the
--timing flag writes elapsed milliseconds to stderr only.

Each command is a plain function whose options are declared once, in
COMMANDS. A well-formed argv is read by a strict parser over that table
and runs without importing click. Anything else (--help, an empty argv, a
usage error, any argv the strict parser is unsure of) goes unchanged to a
click group built from the same table, so help text and usage errors are
click's own bytes.
"""

from __future__ import annotations

import atexit
import codecs
import gc
import os
import sys
import time
from contextlib import suppress as _suppress
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from ._numtheory import totient
from .binary_structure import (
    ldiagram_json,
    ldiagram_render,
    staircase_corner,
    staircase_multiple,
)
from .cyclotomic import PhiAlgorithm, phi, psi
from .errors import CycloforgeError
from .fjdecomp import bezout_split, fj_extended, fj_family, fstar_shifts
from .flatness import (
    classify,
    coefficient_set_of,
    height_of,
    report_csv_rows,
    scan as _scan,
)
from .intpoly import IntPolynomial, to_json_coeffs, to_text, write_text
from .pseudocyclo import pseudo_factorization, pseudo_phi, pseudo_psi
from .verify_suites import SUITE_NAMES, run_suite

# teardown skips gc passes; safe as files close in with blocks and std streams flush after atexit
atexit.register(gc.freeze)

LARGE_N = 10**7

_SUP = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")

# option kinds besides int, str and a tuple of choices
INT_LIST, PATH, FLAG = "ints", "path", "flag"


class _Opt(NamedTuple):
    flag: str
    kind: object = str
    dest: str = ""  # the function's parameter; derived from flag when empty
    required: bool = False
    default: object = None
    multiple: bool = False
    help: str | None = None
    show_default: bool = False

    @property
    def name(self) -> str:
        return self.dest or self.flag[2:].replace("-", "_")


# command name -> (function, options, flags that may not be given together)
COMMANDS: dict[str, tuple] = {}


def _command(name: str, *opts: _Opt, exclusive: tuple[str, ...] = ()):
    def register(fn):
        COMMANDS[name] = (fn, opts, exclusive)
        return fn

    return register


def echo(line, err: bool = False) -> None:
    """Write one line to the current stdout (stderr if err) and flush, as
    click.echo does; the flush keeps a broken pipe inside _guarded. The line
    is a str, or a function that writes it in pieces to the write it is
    given. As with click, a stream that is not UTF-8 gets the joined line,
    and one whose encoding is ASCII or missing gets it as UTF-8 with errors
    replaced, on its binary buffer."""
    stream = sys.stderr if err else sys.stdout
    encoding = getattr(stream, "encoding", None)
    codec = codecs.lookup(encoding).name if encoding else "ascii"
    write_line = line if callable(line) else lambda write: write(line)
    newline = "\n"
    if codec != "utf-8":
        pieces: list[str] = []
        write_line(pieces.append)
        text = "".join(pieces)
        if codec == "ascii" and hasattr(stream, "buffer"):
            stream, text, newline = stream.buffer, text.encode("utf-8", "replace"), b"\n"
        write_line = lambda write: write(text)
    write_line(stream.write)
    stream.write(newline)
    stream.flush()


def _echo_json(obj) -> None:
    import json  # here, so commands that print no JSON skip it

    echo(json.dumps(obj))


def _convert(kind, text: str):
    # the value click's type for this kind gives; ValueError where it fails
    if kind == INT_LIST:
        return tuple(int(t) for t in text.split(","))
    if kind == PATH:
        # click.Path() refuses an existing path it cannot read
        if os.path.exists(text) and not os.access(text, os.R_OK):
            raise ValueError(f"{text!r} is not readable")
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"{text!r} is not a choice")
        return text
    return kind(text)


def _parse(argv: list[str]):
    """(function, timing, params) when click would accept argv and pass
    these params; None when in doubt."""
    timing = argv[:1] == ["--timing"]
    if timing:
        argv = argv[1:]
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, opts, exclusive = COMMANDS[argv[0]]
    by_flag = {o.flag: o for o in opts}
    given: dict[str, tuple] = {}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            o = by_flag[token]
            if o.name in given and not o.multiple:
                return None
            if o.kind == FLAG:
                value = True
            else:
                text = next(tokens)
                # click takes any next token as the value; only an int reads
                # a dash-led one the same way, and _convert refuses "--p"
                if text.startswith("-") and o.kind is not int:
                    return None
                value = _convert(o.kind, text)
            given[o.name] = given.get(o.name, ()) + (value,)
        params = {}
        for o in opts:
            if o.name in given:
                params[o.name] = given[o.name] if o.multiple else given[o.name][0]
            elif o.required:
                return None
            elif o.multiple or o.kind == FLAG:
                params[o.name] = () if o.multiple else False
            else:
                # a callable default is read at each call, as click reads it
                default = o.default() if callable(o.default) else o.default
                params[o.name] = None if default is None else _convert(o.kind, default)
    except (KeyError, StopIteration, ValueError):
        return None
    if exclusive and all(params[k] for k in exclusive):
        return None
    return fn, timing, params


def _guarded(run, timing: bool, exit):
    """Run a command: a domain error or a MemoryError prints one line and
    exits 1, a closed stdout exits 1 quietly, and --timing reports on
    stderr either way."""
    t0 = time.perf_counter()
    try:
        return run()
    except BrokenPipeError:
        # consumer closed the pipe (e.g. | head); exit quietly and
        # point stdout at devnull so the shutdown flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        exit(1)
    except (CycloforgeError, ValueError, OSError) as exc:
        echo(f"error: {exc}", err=True)
        exit(1)
    except MemoryError:
        echo("error: out of memory", err=True)
        exit(1)
    finally:
        if timing:
            ms = (time.perf_counter() - t0) * 1000
            with _suppress(OSError):
                echo(f"timing: {ms:.1f} ms", err=True)


class _Main:
    """The `cycloforge` entry point, with click's Command.main signature."""

    name = "main"

    def __call__(self, *args, **kwargs):
        return self.main(*args, **kwargs)

    def main(self, args=None, prog_name=None, standalone_mode=True, **extra):
        if args is not None:
            args = list(args)
        parsed = standalone_mode and not extra and _parse(sys.argv[1:] if args is None else args)
        if not parsed:
            return _click_group().main(
                args=args, prog_name=prog_name, standalone_mode=standalone_mode, **extra
            )
        fn, timing, params = parsed
        try:
            _guarded(lambda: fn(**params), timing, sys.exit)
        except (EOFError, KeyboardInterrupt):
            echo("\nAborted!", err=True)
            sys.exit(1)
        sys.exit(0)


main = _Main()


@lru_cache(maxsize=1)
def _click_group():
    import click

    class IntList(click.ParamType):
        name = "ints"

        def convert(self, value, param, ctx):
            try:
                return _convert(INT_LIST, value)
            except ValueError:
                self.fail(f"{value!r} is not a comma-separated integer list", param, ctx)

    class Cli(click.Group):
        def invoke(self, ctx):
            run = super().invoke
            return _guarded(lambda: run(ctx), ctx.params.get("timing"), ctx.exit)

    def option(o: _Opt):
        # only what the table sets: click tells an explicit default=None from none
        kw = {k: v for k, v in o._asdict().items()
              if k not in ("flag", "kind", "dest") and v is not None and v is not False}
        if o.kind == FLAG:
            kw["is_flag"] = True
        else:
            kw["type"] = (
                IntList() if o.kind == INT_LIST
                else click.Path() if o.kind == PATH
                else click.Choice(list(o.kind)) if isinstance(o.kind, tuple)
                else o.kind
            )
        return click.Option([o.flag, o.name], **kw)

    def command(name, fn, opts, exclusive):
        def callback(**params):
            if exclusive and all(params[k] for k in exclusive):
                flags = " and ".join(o.flag for o in opts if o.name in exclusive)
                raise click.UsageError(f"{flags} are mutually exclusive")
            return fn(**params)

        return click.Command(name, callback=callback, params=[option(o) for o in opts],
                             help=fn.__doc__)

    return Cli(
        "main",
        commands=[command(name, *spec) for name, spec in COMMANDS.items()],
        params=[click.Option(["--timing"], is_flag=True, help="Report elapsed time on stderr.")],
        help="Exact arithmetic for cyclotomic and pseudocyclotomic polynomials.",
    )


def _pretty(offset: int, coeffs: tuple[int, ...]) -> str:
    terms = [(i + offset, c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return "0"
    out = []
    for k, c in reversed(terms):
        sign = (" - " if out else "-") if c < 0 else (" + " if out else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else "x" + str(k).translate(_SUP)
            body = power if mag == 1 else f"{mag}{power}"
        out.append(sign + body)
    return "".join(out)


def _emit_poly(body, fmt: str, extra: dict | None = None, offset: int = 0) -> None:
    # prints x^offset * body; only a negative offset is shown as one
    if offset > 0:
        body, offset = IntPolynomial((0,) * offset + body.coeffs), 0
    if fmt == "coeffs":
        def line(write):
            if offset:
                write(f"offset={offset} ")
            write_text(body, write)

        echo(line)
    elif fmt == "json":
        obj = dict(extra or {})
        if offset:
            obj["offset"] = offset
        obj["degree"] = body.degree + offset if body.coeffs else None
        obj["coeffs"] = to_json_coeffs(body)
        _echo_json(obj)
    else:
        echo(_pretty(offset, body.coeffs))


_FORMAT = _Opt(
    "--format", ("coeffs", "json", "pretty"), "fmt", default="coeffs", show_default=True
)
_N = _Opt("--n", int, required=True)
_P_COPRIME = _Opt("--p", int, required=True, help="Prime not dividing n.")


@_command(
    "phi",
    _Opt("--n", int, required=True, help="Index of the polynomial."),
    _Opt("--algorithm", tuple(a.value for a in PhiAlgorithm),
         help="Force one computation route instead of the automatic choice."),
    _FORMAT,
    _Opt("--force", FLAG, help=f"Allow n beyond {LARGE_N}."),
)
def _phi_cmd(n, algorithm, fmt, force):
    """Cyclotomic polynomial of index n."""
    if n > LARGE_N and not force:
        raise ValueError(f"n={n} exceeds {LARGE_N}; pass --force to compute anyway")
    alg = PhiAlgorithm(algorithm) if algorithm else None
    _emit_poly(phi(n, alg=alg), fmt, {"n": n})


@_command(
    "psi", _N, _FORMAT,
    _Opt("--force", FLAG, help=f"Allow degrees n - totient(n) beyond {LARGE_N}."),
)
def _psi_cmd(n, fmt, force):
    """Inverse cyclotomic polynomial: (x^n - 1) / phi(n)."""
    # the degree n - totient(n) is below n, so only n > LARGE_N can exceed it
    if n > LARGE_N and not force and n - totient(n) > LARGE_N:
        raise ValueError(
            f"n - totient(n)={n - totient(n)} exceeds {LARGE_N}; pass --force to compute anyway"
        )
    _emit_poly(psi(n), fmt, {"n": n})


@_command(
    "pseudo",
    _Opt("--parts", INT_LIST, required=True, help="Pairwise-coprime parts."),
    _Opt("--inverse", FLAG, help="Emit the cofactor polynomial instead."),
    _Opt("--factorization", FLAG,
         help="List the cyclotomic indices whose product this polynomial is."),
    _FORMAT,
    exclusive=("inverse", "factorization"),
)
def _pseudo_cmd(parts, inverse, factorization, fmt):
    """Pseudocyclotomic polynomial of pairwise-coprime parts."""
    if factorization:
        echo(" ".join(map(str, pseudo_factorization(parts))))
        return
    f = pseudo_psi(parts) if inverse else pseudo_phi(parts)
    _emit_poly(f, fmt, {"parts": list(parts)})


_FACTORS = _Opt("--factors", INT_LIST, required=True, help="Distinct primes.")
_MULTIPLIER = _Opt("--multiplier", int, default=1, show_default=True)


@_command("height", _FACTORS, _MULTIPLIER)
def _height_cmd(factors, multiplier):
    """Coefficient height of the cyclotomic polynomial with these factors."""
    echo(str(height_of(factors, multiplier)))


@_command("vset", _FACTORS, _MULTIPLIER)
def _vset_cmd(factors, multiplier):
    """Coefficient set (always including 0), sorted ascending."""
    values = sorted(coefficient_set_of(factors, multiplier))
    echo(" ".join(str(v) for v in values))


@_command("fj", _N, _P_COPRIME, _Opt("--j", int, required=True, help="Any integer index."),
          _FORMAT)
def _fj_cmd(n, p, j, fmt):
    """Residue-class member j of the polynomial of n*p, sliced mod p."""
    offset, member = fj_extended(fj_family(n, p), j)
    _emit_poly(member, fmt, {"n": n, "p": p, "j": j}, offset)


@_command(
    "fstar",
    _N,
    _Opt("--p", int, required=True, help="Prime beyond n."),
    _Opt("--j", int, required=True),
    _FORMAT,
)
def _fstar_cmd(n, p, j, fmt):
    """Reduced shift family member: x^j * member_0 modulo phi(n)."""
    member = next(islice(fstar_shifts(n, p), j % n, None))
    _emit_poly(member, fmt, {"n": n, "p": p, "j": j % n})


@_command("bezout", _N, _P_COPRIME)
def _bezout_cmd(n, p):
    """Minimal cofactors (a, b) with phi(n*p) = a*g + b*h."""
    split = bezout_split(n, p)
    echo("a: " + to_text(split.a))
    echo("b: " + to_text(split.b))


_P = _Opt("--p", int, required=True)
_Q = _Opt("--q", int, required=True, help="Coprime to p.")


@_command(
    "ldiagram",
    _P,
    _Q,
    _Opt("--format", ("text", "json"), "fmt", default="text", show_default=True),
)
def _ldiagram_cmd(p, q, fmt):
    """Residue grid of a*p + b*q mod pq with the corner cut marked."""
    if fmt == "json":
        _echo_json(ldiagram_json(p, q))
    else:
        echo(ldiagram_render(p, q))


@_command(
    "staircase",
    _P,
    _Q,
    _Opt("--l", int, required=True, help="Cut level, 1 <= l <= p+q-1."),
    _FORMAT,
)
def _staircase_cmd(p, q, l, fmt):
    """Level-l staircase corner and the flat multiple it assembles."""
    corner = staircase_corner(p, q, l)
    f = staircase_multiple(p, q, l)
    if fmt == "json":
        obj = {
            "p": p,
            "q": q,
            "l": l,
            "mu": corner.mu,
            "lambda": corner.lam,
            "coeffs": to_json_coeffs(f),
        }
        _echo_json(obj)
        return
    echo(f"mu={corner.mu} lambda={corner.lam}")
    _emit_poly(f, fmt)


@_command(
    "classify",
    _Opt("--factors", INT_LIST, required=True, help="Ascending odd primes."),
    _Opt("--brute", FLAG, help="Append the brute-force height."),
    _Opt("--explain", FLAG, help="Append the rule's reasoning."),
)
def _classify_cmd(factors, brute, explain):
    """Theorem-backed flatness verdict for a squarefree odd index."""
    verdict = classify(tuple(factors))
    line = f"{verdict.status.name} theorem={verdict.citation}"
    if verdict.citation == "broadhurst-II":
        line += " " + verdict.detail.split(":", 1)[0]
    if verdict.bound is not None:
        line += f" bound={verdict.bound}"
    if brute:
        line += f" height={height_of(tuple(factors))}"
    if explain and verdict.detail:
        line += f"  ({verdict.detail})"
    echo(line)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@_command(
    "verify",
    _Opt("--suite", SUITE_NAMES, required=True),
    _Opt("--max", int, "max_value", help="Override the range."),
    _Opt("--n", int, "n_values", multiple=True, help="Indices to test."),
    _Opt("--smax", int, help="Prime bound where applicable."),
    _Opt("--jobs", int, default=_usable_cpus, help="[default: every CPU this process may use]"),
)
def _verify_cmd(suite, max_value, n_values, smax, jobs):
    """Run a named property suite and print one line per property."""
    results = run_suite(
        suite, max_value=max_value, n_values=n_values or None, smax=smax, jobs=jobs
    )
    failed = False
    for r in results:
        echo(f"{'PASS' if r.ok else 'FAIL'} {r.suite}/{r.prop}: {r.info}")
        failed = failed or not r.ok
    if failed:
        sys.exit(1)


@_command(
    "scan",
    _Opt("--conjecture", required=True, help="Scan tag."),
    _Opt("--bound", int, required=True),
    # serial by default: chunk k then reads the heights chunk k - 1 journalled
    _Opt("--jobs", int, default=1, show_default=True),
    _Opt("--cache", PATH, "cache_path", default="./cycloforge-cache.jsonl", show_default=True,
         help="Height journal; completed chunks are skipped on rerun."),
    _Opt("--no-cache", FLAG, help="Scan without journalling."),
    _Opt("--csv", PATH, "csv_path"),
    _Opt("--json", PATH, "json_path"),
)
def _scan_cmd(conjecture, bound, jobs, cache_path, no_cache, csv_path, json_path):
    """Exhaustively test a conjecture below a bound; print violations."""
    report = _scan(conjecture, bound, workers=jobs, cache=None if no_cache else cache_path)
    # the exports first: one that cannot be written leaves stdout empty
    if csv_path:
        import csv

        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(report_csv_rows(report))
    if json_path:
        import json

        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    echo(
        f"{report.conjecture}: checked 1..{report.range_checked[1]}, "
        f"{len(report.counterexamples)} counterexamples, complete"
    )
    for rec in report.counterexamples:
        echo(f"  {rec['verdict']}")


if __name__ == "__main__":
    main()
