"""The process side of the benchmark: one fresh interpreter per call.

    python perfbench/child.py ops --table T --order 3,0,2 --out F [--trace]
        run library ops of table T in the given order and digest each result;
    python perfbench/child.py cli --out F --op N -- ARGS...
        traced ``surfcount ARGS``: install the span wrappers, then call
        ``surfcount.cli.main``.  Stdout is the command's own output.

Every mode writes its clock stamps (``time.monotonic``, which is the same
clock in every process) and results as JSON to ``--out``.  The package is
driven only through its public functions and its command line.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from typing import Callable, NamedTuple, Optional  # noqa: E402


class Op(NamedTuple):
    name: str
    fn: str  # public name in the surfcount package
    calls: tuple  # argument tuples; an op of several calls digests their list
    anchor: Optional[Callable] = None  # (surfcount, value) -> bool, no engine involved


def _catalan(m: int) -> Callable:
    return lambda S, value: value == S.catalan(m)


def _psi(d: tuple, value: Fraction) -> Callable:
    return lambda S, got: got.get(d) == value


# engine-cold: the first LEAD ops always run first and in this order; the
# seed shuffles the rest.  count_G(0,1,(2100,)) recurses about 1050 frames
# deep and hits the interpreter's default recursion limit; the 1800 disc
# follows it so that a fix moves cost from one op to the other.
LEAD = 2
ENGINE_COLD = (
    Op("count_G(0,1,(2100,))", "count_G", ((0, 1, (2100,)),), _catalan(1050)),
    Op("count_G(0,1,(1800,))", "count_G", ((0, 1, (1800,)),), _catalan(900)),
    Op("count_G(1,1,(120,))", "count_G", ((1, 1, (120,)),)),
    Op("count_N(3,1,(30,))", "count_N", ((3, 1, (30,)),)),
    Op("count_G(2,2,(16,16))", "count_G", ((2, 2, (16, 16)),)),
    Op("count_N(2,2,(16,16))", "count_N", ((2, 2, (16, 16)),)),
    Op("build_frak_f(1,2,24,13)", "build_frak_f", ((1, 2, 24, 13),)),
    Op("build_bold_fN(1,2,24)", "build_bold_fN", ((1, 2, 24),)),
    Op("count_N_t(2,1,(40,),t<=4)", "count_N_t", tuple((2, 1, (40,), t) for t in range(5))),
    Op("count_lattice(2,1,(40,))", "count_lattice", ((2, 1, (40,)),)),
    Op("extract_psi(3,1)", "extract_psi", ((3, 1),), _psi((7,), Fraction(1, 82944))),
)

ENGINE_COLD_SMOKE = (
    Op("count_G(0,1,(2100,))", "count_G", ((0, 1, (2100,)),), _catalan(1050)),
    Op("count_G(0,1,(200,))", "count_G", ((0, 1, (200,)),), _catalan(100)),
    Op("count_G(1,1,(20,))", "count_G", ((1, 1, (20,)),)),
    Op("count_N(2,1,(12,))", "count_N", ((2, 1, (12,)),)),
    Op("count_G(1,2,(6,6))", "count_G", ((1, 2, (6, 6)),)),
    Op("build_frak_f(0,2,8,6)", "build_frak_f", ((0, 2, 8, 6),)),
    Op("build_bold_fN(0,2,8)", "build_bold_fN", ((0, 2, 8),)),
    Op("count_N_t(1,1,(12,),t<=2)", "count_N_t", tuple((1, 1, (12,), t) for t in range(3))),
    Op("count_lattice(1,2,(4,4))", "count_lattice", ((1, 2, (4, 4)),)),
    Op("extract_psi(1,1)", "extract_psi", ((1, 1),), _psi((1,), Fraction(1, 24))),
)

TABLES = {"engine-cold": ENGINE_COLD, "engine-cold-smoke": ENGINE_COLD_SMOKE}

# The 25 checks of ``surfcount verify`` in suite order, as the report lists
# them, with the public function behind each.
CHECKS = (
    ("closed-forms", "disc-catalan", "check_disc_catalan"),
    ("closed-forms", "all-diagram-closed-vs-recursion", "check_closed_vs_recursion_G"),
    ("closed-forms", "parallel-free-closed-vs-recursion", "check_closed_vs_recursion_N"),
    ("recursion-consistency", "collar-convolution", "check_collar_convolution"),
    ("recursion-consistency", "refinement-sums-and-dual-route", "check_refinement_sums"),
    ("recursion-consistency", "zero-entry-dilaton", "check_dilaton"),
    ("refined", "refined-table-torus", "check_refined_cells_1_1"),
    ("refined", "refined-table-pants", "check_refined_cells_0_3"),
    ("refined", "refined-table-four-boundary", "check_refined_cells_0_4"),
    ("refined", "vanishing-window-and-existence", "check_refined_window"),
    ("sums", "weighted-sum-tables", "check_sum_tables"),
    ("sums", "moment-sum-factorizations", "check_moment_sums"),
    ("fits", "normalized-fit-reference-cases", "check_nhat_reference"),
    ("fits", "normalized-fit-degree-heldout", "check_nhat_degree_heldout"),
    ("fits", "stripped-all-diagram-fits", "check_g_poly_stripped"),
    ("psi", "intersection-numbers", "check_psi_values"),
    ("psi", "lattice-twin-top-degree", "check_lattice_top_degree"),
    ("psi", "refined-top-at-minimal-t", "check_refined_top_at_k"),
    ("series", "coordinate-pullback", "check_series_pullback"),
    ("series", "closed-form-catalogue", "check_series_catalogue"),
    ("series", "differential-recursion", "check_series_diff_recursion"),
    ("series", "scaling-reindex", "check_series_scaling"),
    ("oracles", "disc-enumeration", "check_disc_oracle"),
    ("oracles", "pants-profiles", "check_pants_oracle"),
    ("oracles", "arrow-decoding", "check_arrows_oracle"),
)


def canon(value) -> str:
    """A text form of a result that is equal exactly when the results are."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in items) + "}"
    if hasattr(value, "to_json_dict"):
        return json.dumps(value.to_json_dict(), sort_keys=True, separators=(",", ":"))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(canon(value).encode()).hexdigest()


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def run_ops(table: str, order: list[int], out: str, trace: bool) -> None:
    t_import = time.monotonic()
    import surfcount as S

    stamps = {"t_start": T_START, "t_import": t_import, "t_imported": time.monotonic()}
    tracer = None
    if trace:
        from tracer import LAYER, Tracer

        tracer = Tracer()
        tracer.install()
    ops = TABLES[table]
    records = []
    stamps["t_main"] = time.monotonic()
    for i in order:
        op = ops[i]
        fn = getattr(S, op.fn)
        if tracer is not None:
            tracer.op = i
            fn = tracer.wrap(f"op.{op.fn}", LAYER[fn.__module__], fn)
        rec = {"op": i, "name": op.name}
        t0 = time.monotonic()
        try:
            values = [fn(*args) for args in op.calls]
        except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
            rec["s"] = time.monotonic() - t0
            rec["status"] = type(exc).__name__
        else:
            rec["s"] = time.monotonic() - t0
            rec["status"] = "ok"
            value = values[0] if len(values) == 1 else values
            rec["sha256"] = digest(value)
            if op.anchor is not None:
                rec["anchor"] = bool(op.anchor(S, value))
        records.append(rec)
    stamps["t_main_end"] = time.monotonic()
    doc = dict(stamps, ops=records, memo_entries=S.engine.memo_size())
    if tracer is None:
        _write(out, doc)
    else:
        tracer.dump(out, doc)


def run_checks(tracer, suite: str, threads: int = 1) -> list:
    """Stand-in for ``verify.run_suite`` in traced runs: the same checks in
    the same order, each called through its public function inside its own
    span, with the memo growth it caused.  Traced runs are sequential, so
    ``threads`` is ignored."""
    from surfcount import CheckResult, verify
    from surfcount.engine import memo_size

    results = []
    for s, check, fname in CHECKS:
        if suite not in ("all", s):
            continue
        fn = tracer.wrap(f"check.{check}", "verify", getattr(verify, fname))
        before = memo_size()
        try:
            results.append(CheckResult(s, check, True, fn()))
        except Exception as exc:  # noqa: BLE001 -- as run_suite: a failed check
            results.append(CheckResult(s, check, False, f"{type(exc).__name__}: {exc}"))
        tracer.count(f"verify.{check}.memo_growth", memo_size() - before)
    return results


def run_cli(argv: list[str], out: str, op: int) -> int:
    import functools

    from tracer import Tracer

    t_import = time.monotonic()
    import surfcount.cli as cli
    import surfcount.engine as engine

    stamps = {"t_start": T_START, "t_import": t_import, "t_imported": time.monotonic()}
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    cli.run_suite = functools.partial(run_checks, tracer)
    main = tracer.wrap("cli.main", "cli", cli.main)
    stamps["t_main"] = time.monotonic()
    try:
        rc = main(argv)
    finally:
        stamps["t_main_end"] = time.monotonic()
        sys.stdout.flush()
        tracer.dump(out, dict(stamps, memo_entries=engine.memo_size()))
    return rc


def main(argv: list[str]) -> int:
    import argparse

    own, cli_args = argv, []
    if "--" in argv:
        own, cli_args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("ops", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--table", choices=tuple(TABLES))
    parser.add_argument("--order", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--op", type=int, default=0)
    ns = parser.parse_args(own)
    if ns.mode == "ops":
        run_ops(ns.table, [int(x) for x in ns.order.split(",")], ns.out, ns.trace)
        return 0
    return run_cli(cli_args, ns.out, ns.op)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
