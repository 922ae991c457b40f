"""Command-line front end.

Commands: numbers, poly, sums, zeta, partial-zeta, lfunction, characters,
verify.  Output is JSON by default (top-level object with "query",
"results" and "precision" keys; rationals as "num/den" strings, reals as
decimal strings) or CSV, whose columns are the keys of the result rows.
Identical invocations produce byte-identical output; the only
nondeterministic field anywhere is elapsed_ms inside verification report
files.  verify passes each suite only the options it takes
(`verify.run_suite`), and refuses a --report path it cannot open for
writing before any suite runs.  `verify --suite all` runs the exact
suites in a forked child beside the numeric ones where the process may
use two CPUs (`verify.run_suites`), and one after another otherwise; it
prints the same lines and writes the same reports either way.  A bounded
integer option is refused as it is parsed (`_bounded`), before the
command body runs, so of two bad options the first given is named;
verify's --max-m, --max-n and --f are checked at the top of its body.

Each command imports the modules it runs in its own body.  At the top this
module imports click, `errors`, `exactnum` and `realnum` (for `RealP` and
`ComplexP`, which brings mpmath); `--suite`'s choices are the tuple
SUITE_NAMES, so only `verify` imports `verify`.  `numbers`, `poly` and
`sums` add `qnumbers` and `classical`, `zeta` and `partial-zeta` add
`qzeta`, `characters` adds `characters`, `lfunction` adds both, and
`verify` adds `verify` with the routes its suites run.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure.
"""

from __future__ import annotations

import contextlib
import json
import sys
from fractions import Fraction
from typing import Callable

import click

from .errors import DomainError, NonConvergence, NotExactPower
from .exactnum import DEFAULT_PRECISION, QBase, format_rational, parse_rational
from .realnum import ComplexP, RealP

#: Hard bounds on CLI inputs (keeps runs at desk scale), an integer one
#: refused as its option is parsed (`_bounded`) but for verify's: the
#: verify grids and `sums --m/--n`, the modulus of `characters` and
#: `lfunction` and the period `partial-zeta --f`, the certified precision
#: `--prec` (at least 15), the length of a `numbers` table and the degree
#: `poly --n`, the period `verify --f`, and the height (largest of
#: |numerator| and denominator) of `--q` for the exact commands and of
#: `poly --x`.
MAX_M = 16
MAX_N = 64
MAX_MODULUS = 1001
MAX_PRECISION = 500
MAX_NUMBERS_N = 100
MAX_F = 21
MAX_Q_HEIGHT = 99999
MAX_X_HEIGHT = 100

#: The names of `verify.SUITES`, sorted: `--suite`'s choices beside "all",
#: kept here so that no command but verify imports `verify`
#: (tests/test_verify.py checks the two agree).
SUITE_NAMES = ("classical", "lfunction", "partial-zeta", "thm2", "thm3",
               "thm4", "weighted", "zeta")

FORMAT_OPTION = click.option("--format", "fmt",
                             type=click.Choice(["json", "csv"]),
                             default="json", show_default=True,
                             help="Output format.")


def _bounded(high: int, low: int | None = None) -> Callable[..., int]:
    """A click callback that refuses an integer option outside low..high
    (no lower bound when low is None) as the option is parsed."""
    def check(_ctx: click.Context, param: click.Parameter, value: int) -> int:
        option = param.opts[0]
        if low is not None and value < low:
            raise click.UsageError(f"{option} must be nonnegative" if low == 0
                                   else f"{option} must be at least {low}")
        if value > high:
            raise click.UsageError(f"{option} must be at most {high}")
        return value
    return check


PREC_OPTION = click.option("--prec", type=int, default=DEFAULT_PRECISION,
                           show_default=True,
                           callback=_bounded(MAX_PRECISION, 15),
                           help="Certified decimal precision P.")


def _emit(query: dict, results: list[dict], precision: int | None,
          fmt: str) -> None:
    """Print the document; CSV columns are the keys of the first row."""
    if fmt == "json":
        doc = {"query": query, "results": results, "precision": precision}
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(",".join(results[0]))
        for row in results:
            click.echo(",".join(map(str, row.values())))


def _emit_value(command: str, evaluate: Callable[..., RealP | ComplexP],
                s_text: str, q_text: str, prec: int, fmt: str,
                **inputs) -> None:
    """Evaluate a numeric command and print its one row: s, the command's
    own inputs and q, then the value and its certified precision.

    --s, the command's inputs given as text (rationals) and --q are parsed
    in that order, so the first bad one is named.  `evaluate` gets s as a
    RealP, q as the zeta-domain QBase and the command's inputs by name,
    the parsed ones as Fractions."""
    exact = {name: _parse_q(v) if isinstance(v, str) else v
             for name, v in {"s": s_text, **inputs, "q": q_text}.items()}
    row = {name: format_rational(v) if isinstance(v, Fraction) else v
           for name, v in exact.items()}
    value = evaluate(RealP.from_rational(exact.pop("s"), prec),
                     QBase(exact.pop("q"), zeta_domain=True), **exact)
    _emit({"command": command, **row, "prec": prec},
          [{**row, "value": value.digits(), "precision": prec}], prec, fmt)


def _parse_q(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_bounded(text: str, option: str, height: int) -> Fraction:
    """Parse an exact-command rational and refuse it, before any power of
    it is taken, when its numerator or denominator exceeds `height`."""
    value = _parse_q(text)
    if max(abs(value.numerator), value.denominator) > height:
        raise click.UsageError(
            f"{option} must have numerator and denominator at most "
            f"{height} in absolute value")
    return value


def _q_base(q_text: str | None, variant: str, query: dict) -> QBase:
    """The bounded --q that a q variant of an exact command requires; it
    joins the query as "q"."""
    if q_text is None:
        raise click.UsageError(f"variant {variant} requires --q")
    base = QBase(_parse_bounded(q_text, "--q", MAX_Q_HEIGHT))
    query["q"] = format_rational(base.q)
    return base


@click.group()
def cli() -> None:
    """Exact q-Euler numbers and polynomials, their alternating power-sum
    identities, and q-zeta / q-L-function values."""


@cli.command("numbers")
@click.option("--max-n", "max_n", type=int, required=True,
              callback=_bounded(MAX_NUMBERS_N, 0),
              help="Emit indices 0..max_n.")
@click.option("--q", "q_text", default=None,
              help="Base q as 'p/q' or a finite decimal (q variants only).")
@click.option("--variant",
              type=click.Choice(["plain", "star", "classical-euler",
                                 "classical-bernoulli"]),
              default="plain", show_default=True)
@FORMAT_OPTION
def cmd_numbers(max_n: int, q_text: str | None, variant: str,
                fmt: str) -> None:
    """Table of q-Euler, star q-Euler, Euler, or Bernoulli numbers."""
    from . import classical
    from .qnumbers import q_euler_number, q_euler_star_number
    query: dict = {"command": "numbers", "variant": variant, "max_n": max_n}
    if variant in ("plain", "star"):
        base = _q_base(q_text, variant, query)
        fn = q_euler_number if variant == "plain" else q_euler_star_number
        values = (fn(n, base) for n in range(max_n + 1))
    elif variant == "classical-euler":
        values = classical.euler_numbers(max_n)
    else:
        values = classical.bernoulli_numbers(max_n)
    # each value is formatted as it is computed, so the first one past the
    # print limit stops the table before the later ones are computed
    results = [{"n": n, "value": format_rational(v)}
               for n, v in enumerate(values)]
    _emit(query, results, None, fmt)


@cli.command("poly")
@click.option("--n", type=int, required=True,
              callback=_bounded(MAX_NUMBERS_N, 0))
@click.option("--x", "x_text", required=True,
              help="Argument x as 'p/q' or a finite decimal.")
@click.option("--q", "q_text", default=None)
@click.option("--variant", type=click.Choice(["plain", "star", "classical"]),
              default="plain", show_default=True)
@FORMAT_OPTION
def cmd_poly(n: int, x_text: str, q_text: str | None, variant: str,
             fmt: str) -> None:
    """Evaluate a q-Euler (or classical Euler) polynomial exactly.

    For the q variants, q^x must be rational (integer x always works);
    otherwise the command fails rather than approximate."""
    from . import classical
    from .qnumbers import QPower, q_euler_poly, q_euler_star_poly
    x = _parse_bounded(x_text, "--x", MAX_X_HEIGHT)
    query: dict = {"command": "poly", "variant": variant, "n": n,
                   "x": format_rational(x)}
    if variant == "classical":
        value = classical.euler_poly(n, x)
    else:
        qp = QPower.from_exponent(_q_base(q_text, variant, query), x)
        value = q_euler_poly(n, qp) if variant == "plain" \
            else q_euler_star_poly(n, qp)
    results = [{"n": n, "x": format_rational(x),
                "value": format_rational(value)}]
    _emit(query, results, None, fmt)


@cli.command("sums")
@click.option("--variant",
              type=click.Choice(["power", "alt-power", "q-alt",
                                 "q-alt-weighted"]),
              default="q-alt", show_default=True)
@click.option("--m", type=int, required=True, callback=_bounded(MAX_M),
              help="Power exponent.")
@click.option("--n", type=int, required=True, callback=_bounded(MAX_N),
              help="Summation length (sum runs over l = 0..n-1).")
@click.option("--q", "q_text", default=None)
@FORMAT_OPTION
def cmd_sums(variant: str, m: int, n: int, q_text: str | None,
             fmt: str) -> None:
    """Power sums: direct summation next to the closed form (always equal)."""
    from . import classical, qnumbers
    query: dict = {"command": "sums", "variant": variant, "m": m, "n": n}
    routes = {"power": (classical.power_sum, classical.power_sum_closed),
              "alt-power": (classical.alt_power_sum,
                            classical.alt_power_sum_closed),
              "q-alt": (qnumbers.alt_q_power_sum,
                        qnumbers.alt_q_power_sum_closed),
              "q-alt-weighted": (qnumbers.weighted_alt_q_power_sum,
                                 qnumbers.weighted_alt_q_power_sum_closed)}
    args = (m, n) if variant in ("power", "alt-power") \
        else (m, n, _q_base(q_text, variant, query))
    direct, closed = (route(*args) for route in routes[variant])
    results = [{"m": m, "n": n, "direct": format_rational(direct),
                "closed": format_rational(closed),
                "equal": direct == closed}]
    _emit(query, results, None, fmt)


@cli.command("zeta")
@click.option("--s", "s_text", required=True)
@click.option("--x", "x_text", required=True)
@click.option("--q", "q_text", required=True)
@PREC_OPTION
@FORMAT_OPTION
def cmd_zeta(s_text: str, x_text: str, q_text: str, prec: int,
             fmt: str) -> None:
    """Euler q-zeta value at real s, x > 0, 0 < q < 1."""
    from .qzeta import ZetaQuery, zeta
    _emit_value("zeta", lambda s, q, x: zeta(
        ZetaQuery(s, RealP.from_rational(x, prec), q, prec)),
        s_text, q_text, prec, fmt, x=x_text)


@cli.command("partial-zeta")
@click.option("--s", "s_text", required=True)
@click.option("--a", type=int, required=True, help="Residue class, 0 < a < F.")
@click.option("--f", "period", type=int, required=True,
              callback=_bounded(MAX_MODULUS), help="Period F (odd).")
@click.option("--q", "q_text", required=True)
@PREC_OPTION
@FORMAT_OPTION
def cmd_partial_zeta(s_text: str, a: int, period: int, q_text: str,
                     prec: int, fmt: str) -> None:
    """Partial q-zeta H_q(s, a; F) over one residue class mod F."""
    from .qzeta import partial_zeta
    _emit_value("partial-zeta",
                lambda s, q, a, f: partial_zeta(s, a, f, q, prec),
                s_text, q_text, prec, fmt, a=a, f=period)


@cli.command("lfunction")
@click.option("--s", "s_text", required=True)
@click.option("--modulus", type=int, required=True,
              callback=_bounded(MAX_MODULUS))
@click.option("--char-index", "char_index", type=int, required=True,
              help="Index into the canonical character ordering.")
@click.option("--q", "q_text", required=True)
@PREC_OPTION
@FORMAT_OPTION
def cmd_lfunction(s_text: str, modulus: int, char_index: int, q_text: str,
                  prec: int, fmt: str) -> None:
    """q-L-function value for a Dirichlet character of odd modulus."""
    from .characters import character
    from .qzeta import l_function
    try:
        chi = character(modulus, char_index)
    except IndexError as exc:  # "index must lie in 0..N for modulus d"
        raise click.UsageError(f"--char-{exc}") from exc
    _emit_value("lfunction", lambda s, q, **_: l_function(s, chi, q, prec),
                s_text, q_text, prec, fmt, modulus=modulus,
                char_index=char_index)


@cli.command("characters")
@click.option("--modulus", type=int, required=True,
              callback=_bounded(MAX_MODULUS))
@FORMAT_OPTION
def cmd_characters(modulus: int, fmt: str) -> None:
    """List the character group mod an odd modulus (exponent tables)."""
    from .characters import characters_mod
    group = characters_mod(modulus)
    query = {"command": "characters", "modulus": modulus}
    results = []
    for index, chi in enumerate(group):
        if fmt == "json":
            exponents: object = [e for e in chi.exponents]
        else:
            exponents = "|".join("-" if e is None else str(e)
                                 for e in chi.exponents)
        results.append({"modulus": modulus, "index": index,
                        "order": chi.order, "exponents": exponents})
    _emit(query, results, None, fmt)


@cli.command("verify")
@click.option("--suite", type=click.Choice([*SUITE_NAMES, "all"]),
              required=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Write the JSON report(s) to this path.")
@click.option("--max-m", "max_m", type=int, default=None,
              help=f"Override the m/exponent bound (max {MAX_M}).")
@click.option("--max-n", "max_n", type=int, default=None,
              help=f"Override the n/length bound (max {MAX_N}).")
@click.option("--f", "f_only", type=int, default=None,
              help=f"Restrict the distribution suite to one odd f "
              f"(max {MAX_F}).")
@PREC_OPTION
def cmd_verify(suite: str, report_path: str | None, max_m: int | None,
               max_n: int | None, f_only: int | None, prec: int) -> int:
    """Run an identity-verification suite, or all of them; exit 2 on any
    failure.  Each suite takes only the options it has a use for."""
    from . import verify
    if max_m is not None and not 1 <= max_m <= MAX_M:
        raise click.UsageError(f"--max-m must lie in 1..{MAX_M}")
    if max_n is not None and not 1 <= max_n <= MAX_N:
        raise click.UsageError(f"--max-n must lie in 1..{MAX_N}")
    if f_only is not None and (f_only < 1 or f_only % 2 == 0):
        raise click.UsageError("--f must be an odd positive integer")
    if f_only is not None and f_only > MAX_F:
        raise click.UsageError(f"--f must be at most {MAX_F}")
    try:  # an unwritable report path fails before any suite runs
        report_file = contextlib.nullcontext() if report_path is None \
            else open(report_path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.FileError(report_path, exc.strerror) from exc

    with report_file as handle:
        names = sorted(verify.SUITES) if suite == "all" else [suite]
        reports = verify.run_suites(names, max_m=max_m, max_n=max_n,
                                    fs=None if f_only is None else (f_only,),
                                    precision=prec)
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            click.echo(f"suite {report.suite}: {status} "
                       f"cases={report.cases_run} "
                       f"max_deviation={report.max_deviation}")
        if handle is not None:
            json.dump([r.to_dict() for r in reports], handle, indent=2)
            handle.write("\n")
    return 0 if all(r.passed for r in reports) else 2


def main(argv: list[str] | None = None) -> int:
    """Programmatic entry point returning the process exit code."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (DomainError, NotExactPower, NonConvergence) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return int(result) if result is not None else 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
