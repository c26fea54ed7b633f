"""Command-line interface.

Subcommands expose the counting engine (``count``, ``table``), the
quasi-polynomial lab (``fit``, ``psi``), the weighted boundary sums
(``sums``), the generating-series lab (``series``), the brute-force
oracles (``oracle``), and the verification suites (``verify``).

Conventions: every count is exact; big integers appear in JSON as decimal
strings, never as native numbers.  Exit codes: 0 success, 1 verification
failure (a fit that fails certification included), 2 usage error,
3 unsupported request, 4 I/O error, 5 internal error.  The optional
persistent memo cache is enabled with ``--cache [PATH]``; without an
explicit path it falls back to the ``SURFCOUNT_CACHE`` environment
variable.  Cached values never change any output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from itertools import product

from .closed import NoClosedForm, closed_G, closed_N, closed_refined
from .engine import (
    count_G,
    count_G_r,
    count_G_t,
    count_N,
    count_N_t,
    load_cache,
    save_cache,
)
from .exact import EVEN, ODD, ZERO, FitInvalid, frac_str
from .fitlab import extract_psi, fit_G_poly, fit_Nhat, fit_Nhat_refined
from .oracles import all_arrow_labellings, arrows_to_arcs, enumerate_disc, pants_search
from .series import (
    CLOSED_FORM_NAMES,
    build_fG,
    build_fN,
    build_frak_f,
    expand_closed_form,
)
from .sums import SumFamily, fit_sum, sum_direct
from .verify import SUITES, all_passed, format_report, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class Unsupported(Exception):
    """A well-formed request the package deliberately does not serve."""


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _parse_b(text: str, n: int) -> tuple[int, ...]:
    try:
        b = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--b wants a comma list of integers, got {text!r}")
    if len(b) != n:
        raise argparse.ArgumentTypeError(f"--b has {len(b)} entries but n = {n}")
    if any(x < 0 for x in b):
        raise argparse.ArgumentTypeError("boundary entries must be nonnegative")
    return b


def _parse_parity(text: str, n: int) -> str:
    sig = "".join(text.split(","))
    if len(sig) != n or any(ch not in (EVEN, ODD, ZERO) for ch in sig):
        raise argparse.ArgumentTypeError(
            f"--parity wants {n} comma-separated letters from e,o,z"
        )
    return sig


def _one_count(mode: str, g: int, n: int, b, r, t, closed_only: bool) -> int:
    if closed_only:
        if r is not None:
            raise NoClosedForm("no closed form serves region-refined counts")
        if t is not None:
            return closed_refined(mode, g, n, b, t)
        return closed_G(g, n, b) if mode == "G" else closed_N(g, n, b)
    if mode == "G":
        if r is not None:
            return count_G_r(g, n, b, r)
        if t is not None:
            return count_G_t(g, n, b, t)
        return count_G(g, n, b)
    if r is not None:
        raise Unsupported("parallel-free counts are refined by t, not by r")
    if t is not None:
        return count_N_t(g, n, b, t)
    return count_N(g, n, b)


# -- subcommand bodies -------------------------------------------------------

# Options a mode does not read; giving one is a usage error, not a no-op.
_FIT_UNREAD = {"nhat": ("--t", "--k"), "nhat-t": (), "gpoly": ("--k",)}
_SERIES_UNREAD = {"fN": ("--alpha-bound",), "fG": ("--alpha-bound",), "frakf": ("--t",)}
_CATALOGUE_UNREAD = ("--g", "--n", "--t", "--alpha-bound")


def _reject_unread(args, options, context: str) -> None:
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise argparse.ArgumentTypeError(f"{context} does not read {option}")


def _cmd_count(args) -> int:
    b = _parse_b(args.b, args.n)
    value = _one_count(args.mode, args.g, args.n, b, args.r, args.t, args.closed_only)
    if args.json:
        out = {"mode": args.mode, "g": args.g, "n": args.n, "b": list(b)}
        if args.r is not None:
            out["r"] = args.r
        if args.t is not None:
            out["t"] = args.t
        out["count"] = str(value)
        print(_dumps(out))
    else:
        print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.b_max < 0:
        raise argparse.ArgumentTypeError(f"--b-max must be nonnegative, got {args.b_max}")
    grid = list(product(range(args.b_max + 1), repeat=args.n))
    values = [_one_count(args.mode, args.g, args.n, b, args.r, args.t, False) for b in grid]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([f"b{i+1}" for i in range(args.n)] + ["count"])
    for b, v in zip(grid, values):
        writer.writerow(list(b) + [v])
    return EXIT_OK


def _free_names(report, sig: str) -> list[str]:
    """Names of the variables of a fit's branch: m_i for the stripped
    all-diagram fits, b_i otherwise, without the slots pinned to zero."""
    letter = "m" if report.target.startswith("G_poly") else "b"
    return [f"{letter}{i+1}" for i, ch in enumerate(sig) if ch != ZERO]


def _report_json(report) -> dict:
    branches = {
        sig: poly.to_json_dict(_free_names(report, sig))
        for sig, poly in sorted(report.branches.branches.items())
    }
    out = {
        "target": report.target,
        "g": report.g,
        "n": report.n,
        "degree": report.degree,
        "validation_points": report.validation_points,
        "branches": branches,
    }
    if report.t is not None:
        out["t"] = report.t
    if report.k is not None:
        out["k"] = report.k
    return out


def _cmd_fit(args) -> int:
    _reject_unread(args, _FIT_UNREAD[args.mode], f"fit --mode {args.mode}")
    if args.mode == "nhat":
        report = fit_Nhat(args.g, args.n)
    elif args.mode == "nhat-t":
        if args.t is None or args.k is None:
            raise argparse.ArgumentTypeError("fit --mode nhat-t needs --t and --k")
        report = fit_Nhat_refined(args.g, args.n, args.t, args.k)
    else:  # gpoly
        report = fit_G_poly(args.g, args.n, args.t)
    if args.json:
        print(_dumps(_report_json(report)))
        return EXIT_OK
    if args.parity is not None:
        sig = _parse_parity(args.parity, args.n)
        poly = report.branch(sig)
        if poly is None:
            raise Unsupported(f"no branch {sig!r} in this fit")
        print(poly.pretty(_free_names(report, sig)))
        return EXIT_OK
    for sig, poly in sorted(report.branches.branches.items()):
        print(f"{sig}: {poly.pretty(_free_names(report, sig))}")
    return EXIT_OK


def _cmd_psi(args) -> int:
    values = extract_psi(args.g, args.n)
    for d in sorted(values):
        print(_dumps({"d": list(d), "value": frac_str(values[d])}))
    return EXIT_OK


def _cmd_sums(args) -> int:
    fam = SumFamily(args.family, args.m, args.n)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "value"])
    for k in range(args.k_max + 1):
        writer.writerow([k, sum_direct(fam, k)])
    print(_dumps(fit_sum(fam).to_json_dict()))
    return EXIT_OK


def _cmd_series(args) -> int:
    which = args.which
    _reject_unread(args, _SERIES_UNREAD.get(which, _CATALOGUE_UNREAD), f"series --which {which}")
    if which in CLOSED_FORM_NAMES:
        s = expand_closed_form(which, args.order)
    else:
        if args.g is None or args.n is None:
            raise argparse.ArgumentTypeError(f"series --which {which} needs --g and --n")
        if which == "fN":
            s = build_fN(args.g, args.n, args.order, t=args.t)
        elif which == "fG":
            s = build_fG(args.g, args.n, args.order, t=args.t)
        else:  # frakf
            bound = args.order // 2 + 2 if args.alpha_bound is None else args.alpha_bound
            s = build_frak_f(args.g, args.n, args.order, bound)
    print(_dumps(s.to_json_dict()))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    chosen = [x for x in (args.disc, args.pants, args.arrows) if x is not None]
    if len(chosen) != 1:
        raise argparse.ArgumentTypeError("oracle wants exactly one of --disc, --pants, --arrows")
    if args.disc is not None:
        diagrams = enumerate_disc(args.disc)
        print(len(diagrams))
        if args.list:
            for d in diagrams:
                print(_dumps({"pairs": [list(p) for p in d.pairs], "regions": d.regions}))
        return EXIT_OK
    if args.pants is not None:
        b = _parse_b(args.pants, 3)
        for profile in pants_search(*b):
            print(_dumps(asdict(profile)))
        return EXIT_OK
    m = args.arrows
    labellings = list(all_arrow_labellings(m))
    images = {arrows_to_arcs(lab) for lab in labellings}
    print(f"{len(labellings)} labellings, {len(images)} distinct arc structures")
    if args.list:
        for lab in labellings:
            arcs = arrows_to_arcs(lab)
            print(_dumps({"labels": list(lab), "arcs": [list(a) for a in arcs.arcs]}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(format_report(results))
    return EXIT_OK if all_passed(results) else EXIT_VERIFY


# -- parser ------------------------------------------------------------------

# Kept so that existing ``table`` command lines still parse; a thread pool
# only adds contention under the interpreter lock.
_THREADS_HELP = "accepted for compatibility; has no effect (work runs sequentially)"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="surfcount",
        description="Exact counts of arc diagrams on surfaces, with fits, "
        "series identities, and verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="load/save the memo table (PATH, or $SURFCOUNT_CACHE if omitted)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def surface(p, need_b=False):
        p.add_argument("--g", type=int, required=True, help="genus")
        p.add_argument("--n", type=int, required=True, help="boundary components")
        if need_b:
            p.add_argument("--b", required=True, help="comma list of boundary point counts")

    p = sub.add_parser("count", parents=[common], help="one exact count")
    p.add_argument("--mode", choices=("G", "N"), required=True)
    surface(p, need_b=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--r", type=int, help="refine by number of complementary regions")
    grp.add_argument("--t", type=int, help="refine by the stable region parameter")
    p.add_argument("--closed-only", action="store_true", help="use tabulated closed forms only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("table", parents=[common], help="CSV of counts over a grid")
    p.add_argument("--mode", choices=("G", "N"), required=True)
    surface(p)
    p.add_argument("--b-max", type=int, required=True, help="grid bound per entry")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--r", type=int)
    grp.add_argument("--t", type=int)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("fit", parents=[common], help="quasi-polynomial fits")
    p.add_argument("--mode", choices=("nhat", "nhat-t", "gpoly"), required=True)
    surface(p)
    p.add_argument("--t", type=int, help="region parameter (nhat-t, optional for gpoly)")
    p.add_argument("--k", type=int, help="number of zero entries (nhat-t)")
    p.add_argument("--parity", help="branch signature, e.g. e,e,o,o")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("psi", parents=[common], help="intersection numbers from top-degree coefficients")
    surface(p)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("sums", parents=[common], help="weighted boundary-sum families")
    p.add_argument("--family", choices=("A", "S", "B", "B0", "B1", "R", "R0", "R1"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="second index (B/R families)")
    p.add_argument("--k-max", type=int, default=12)
    p.set_defaults(fn=_cmd_sums)

    p = sub.add_parser("series", parents=[common], help="truncated generating series as JSON")
    p.add_argument(
        "--which",
        choices=("fN", "fG", "frakf") + CLOSED_FORM_NAMES,
        required=True,
    )
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--alpha-bound", type=int)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("oracle", parents=[common], help="brute-force enumerations")
    p.add_argument("--disc", type=int, metavar="M", help="enumerate disc diagrams on 2M points")
    p.add_argument("--pants", metavar="B1,B2,B3", help="search pants profiles")
    p.add_argument("--arrows", type=int, metavar="M", help="decode all arrow labellings")
    p.add_argument("--list", action="store_true", help="also print each object")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    # exact counts may have any number of digits, in the output and the cache
    getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache_path = None
    if args.cache is not None:
        cache_path = args.cache or os.environ.get("SURFCOUNT_CACHE", "")
        if not cache_path:
            print("error: --cache given but no path and no SURFCOUNT_CACHE", file=sys.stderr)
            return EXIT_USAGE
    try:
        if cache_path:
            load_cache(cache_path)
        rc = args.fn(args)
        if cache_path and rc == EXIT_OK:
            save_cache(cache_path)
        return rc
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoClosedForm, Unsupported) as exc:  # NoClosedForm is a ValueError
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except FitInvalid as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
