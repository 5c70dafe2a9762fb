"""Command line surface: compute, inspect, classify, verify, scan.

Exit codes: 0 on success, 1 on domain errors (one line on stderr),
2 on usage errors. Stdout is deterministic for a given argv; the
--timing flag writes elapsed milliseconds to stderr only.
"""

from __future__ import annotations

import atexit
import csv as _csv
import gc
import json as _json
import os
import sys
import time
from contextlib import suppress as _suppress
from itertools import islice

import click

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
    HeightCache,
    classify,
    coefficient_set_of,
    height_of,
    report_csv_rows,
    scan as _scan,
)
from .intpoly import IntPolynomial, to_json_coeffs, to_text
from .pseudocyclo import pseudo_factorization, pseudo_phi, pseudo_psi
from .verify_suites import SUITE_NAMES, run_suite

# teardown skips gc passes; safe as files close in with blocks and std streams flush after atexit
atexit.register(gc.freeze)

LARGE_N = 10**7

_SUP = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")

_FORMATS = click.Choice(["coeffs", "json", "pretty"])


class _IntList(click.ParamType):
    name = "ints"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            return tuple(int(t) for t in value.split(","))
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated integer list", param, ctx)


INT_LIST = _IntList()


class _Cli(click.Group):
    """Group that maps domain errors to exit 1 and honours --timing."""

    def invoke(self, ctx):
        t0 = time.perf_counter()
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # consumer closed the pipe (e.g. | head); exit quietly and
            # point stdout at devnull so the shutdown flush cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            ctx.exit(1)
        except (CycloforgeError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        finally:
            if ctx.params.get("timing"):
                ms = (time.perf_counter() - t0) * 1000
                with _suppress(OSError):
                    click.echo(f"timing: {ms:.1f} ms", err=True)


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
        text = to_text(body)
        if offset:
            text = f"offset={offset} {text}"
        click.echo(text)
    elif fmt == "json":
        obj = dict(extra or {})
        if offset:
            obj["offset"] = offset
        obj["degree"] = body.degree + offset if body.coeffs else None
        obj["coeffs"] = to_json_coeffs(body)
        click.echo(_json.dumps(obj))
    else:
        click.echo(_pretty(offset, body.coeffs))


@click.group(cls=_Cli)
@click.option("--timing", is_flag=True, help="Report elapsed time on stderr.")
def main(timing):
    """Exact arithmetic for cyclotomic and pseudocyclotomic polynomials."""


@main.command("phi")
@click.option("--n", type=int, required=True, help="Index of the polynomial.")
@click.option(
    "--algorithm",
    type=click.Choice([a.value for a in PhiAlgorithm]),
    default=None,
    help="Force one computation route instead of the automatic choice.",
)
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
@click.option("--force", is_flag=True, help=f"Allow n beyond {LARGE_N}.")
def phi_cmd(n, algorithm, fmt, force):
    """Cyclotomic polynomial of index n."""
    if n > LARGE_N and not force:
        raise ValueError(f"n={n} exceeds {LARGE_N}; pass --force to compute anyway")
    alg = PhiAlgorithm(algorithm) if algorithm else None
    _emit_poly(phi(n, alg=alg), fmt, {"n": n})


@main.command("psi")
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
@click.option("--force", is_flag=True, help=f"Allow degrees n - totient(n) beyond {LARGE_N}.")
def psi_cmd(n, fmt, force):
    """Inverse cyclotomic polynomial: (x^n - 1) / phi(n)."""
    # the degree n - totient(n) is below n, so only n > LARGE_N can exceed it
    if n > LARGE_N and not force and n - totient(n) > LARGE_N:
        raise ValueError(
            f"n - totient(n)={n - totient(n)} exceeds {LARGE_N}; pass --force to compute anyway"
        )
    _emit_poly(psi(n), fmt, {"n": n})


@main.command("pseudo")
@click.option("--parts", type=INT_LIST, required=True, help="Pairwise-coprime parts.")
@click.option("--inverse", is_flag=True, help="Emit the cofactor polynomial instead.")
@click.option(
    "--factorization",
    is_flag=True,
    help="List the cyclotomic indices whose product this polynomial is.",
)
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
def pseudo_cmd(parts, inverse, factorization, fmt):
    """Pseudocyclotomic polynomial of pairwise-coprime parts."""
    if inverse and factorization:
        raise click.UsageError("--inverse and --factorization are mutually exclusive")
    if factorization:
        click.echo(" ".join(map(str, pseudo_factorization(parts))))
        return
    f = pseudo_psi(parts) if inverse else pseudo_phi(parts)
    _emit_poly(f, fmt, {"parts": list(parts)})


@main.command("height")
@click.option("--factors", type=INT_LIST, required=True, help="Distinct primes.")
@click.option("--multiplier", type=int, default=1, show_default=True)
def height_cmd(factors, multiplier):
    """Coefficient height of the cyclotomic polynomial with these factors."""
    click.echo(str(height_of(factors, multiplier)))


@main.command("vset")
@click.option("--factors", type=INT_LIST, required=True, help="Distinct primes.")
@click.option("--multiplier", type=int, default=1, show_default=True)
def vset_cmd(factors, multiplier):
    """Coefficient set (always including 0), sorted ascending."""
    values = sorted(coefficient_set_of(factors, multiplier))
    click.echo(" ".join(str(v) for v in values))


@main.command("fj")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True, help="Prime not dividing n.")
@click.option("--j", type=int, required=True, help="Any integer index.")
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
def fj_cmd(n, p, j, fmt):
    """Residue-class member j of the polynomial of n*p, sliced mod p."""
    offset, member = fj_extended(fj_family(n, p), j)
    _emit_poly(member, fmt, {"n": n, "p": p, "j": j}, offset)


@main.command("fstar")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True, help="Prime beyond n.")
@click.option("--j", type=int, required=True)
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
def fstar_cmd(n, p, j, fmt):
    """Reduced shift family member: x^j * member_0 modulo phi(n)."""
    member = next(islice(fstar_shifts(n, p), j % n, None))
    _emit_poly(member, fmt, {"n": n, "p": p, "j": j % n})


@main.command("bezout")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True, help="Prime not dividing n.")
def bezout_cmd(n, p):
    """Minimal cofactors (a, b) with phi(n*p) = a*g + b*h."""
    split = bezout_split(n, p)
    click.echo("a: " + to_text(split.a))
    click.echo("b: " + to_text(split.b))


@main.command("ldiagram")
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True, help="Coprime to p.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    show_default=True,
)
def ldiagram_cmd(p, q, fmt):
    """Residue grid of a*p + b*q mod pq with the corner cut marked."""
    if fmt == "json":
        click.echo(_json.dumps(ldiagram_json(p, q)))
    else:
        click.echo(ldiagram_render(p, q))


@main.command("staircase")
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True, help="Coprime to p.")
@click.option("--l", type=int, required=True, help="Cut level, 1 <= l <= p+q-1.")
@click.option("--format", "fmt", type=_FORMATS, default="coeffs", show_default=True)
def staircase_cmd(p, q, l, fmt):
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
        click.echo(_json.dumps(obj))
        return
    click.echo(f"mu={corner.mu} lambda={corner.lam}")
    _emit_poly(f, fmt)


@main.command("classify")
@click.option("--factors", type=INT_LIST, required=True, help="Ascending odd primes.")
@click.option("--brute", is_flag=True, help="Append the brute-force height.")
@click.option("--explain", is_flag=True, help="Append the rule's reasoning.")
def classify_cmd(factors, brute, explain):
    """Theorem-backed flatness verdict for a squarefree odd index."""
    verdict = classify(tuple(factors))
    line = f"{verdict.status.name} theorem={verdict.citation}"
    if verdict.citation == "broadhurst-II" and verdict.detail.startswith("w="):
        line += " " + verdict.detail.split(":", 1)[0]
    if verdict.bound is not None:
        line += f" bound={verdict.bound}"
    if brute:
        line += f" height={height_of(tuple(factors))}"
    if explain and verdict.detail:
        line += f"  ({verdict.detail})"
    click.echo(line)


@main.command("verify")
@click.option("--suite", type=click.Choice(SUITE_NAMES), required=True)
@click.option("--max", "max_value", type=int, default=None, help="Override the range.")
@click.option("--n", "n_values", type=int, multiple=True, help="Indices to test.")
@click.option("--smax", type=int, default=None, help="Prime bound where applicable.")
@click.option("--jobs", type=int, default=1, show_default=True)
def verify_cmd(suite, max_value, n_values, smax, jobs):
    """Run a named property suite and print one line per property."""
    results = run_suite(
        suite, max_value=max_value, n_values=n_values or None, smax=smax, jobs=jobs
    )
    failed = False
    for r in results:
        click.echo(f"{'PASS' if r.ok else 'FAIL'} {r.suite}/{r.prop}: {r.info}")
        failed = failed or not r.ok
    if failed:
        sys.exit(1)


@main.command("scan")
@click.option("--conjecture", required=True, help="Scan tag.")
@click.option("--bound", type=int, required=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option(
    "--cache",
    "cache_path",
    type=click.Path(),
    default="./cycloforge-cache.jsonl",
    show_default=True,
    help="Height journal; completed chunks are skipped on rerun.",
)
@click.option("--no-cache", is_flag=True, help="Scan without journalling.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
def scan_cmd(conjecture, bound, jobs, cache_path, no_cache, csv_path, json_path):
    """Exhaustively test a conjecture below a bound; print violations."""
    store = None
    if not no_cache:
        store = HeightCache(cache_path)
        if not store.writable():
            raise ValueError(
                f"cache {cache_path!r} is not writable; pass --no-cache to run anyway"
            )
    report = _scan(conjecture, bound, workers=jobs, cache=store)
    click.echo(
        f"{report.conjecture}: checked 1..{report.range_checked[1]}, "
        f"{len(report.counterexamples)} counterexamples, complete"
    )
    for rec in report.counterexamples:
        click.echo(f"  {rec['verdict']}")
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            _csv.writer(fh).writerows(report_csv_rows(report))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            _json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
