"""The surfcount benchmark.

    python3 perfbench/run.py --workload engine-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all         # every workload in turn
    python3 perfbench/run.py --workload cli-cache --smoke   # reduced inputs

Run it from anywhere; it measures the package under ``src/`` of the
checkout it lives in, using only the standard library.  Each workload is a
closed loop with one client: the next op starts when the previous one has
ended, and every op runs in a fresh interpreter, so the engine memo, the fit
cache and the cache file start as a user's process finds them.  At most two
processes are alive at a time: this one and the op it waits for.

A run repeats rounds of its workload for about ``--seconds`` (at least one
round; see ``Bench.rounds``), checks every output against its frozen
SHA-256 in ``expected.json``, prints one line per metric, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends the
first half of the time on untraced rounds and the second half on traced
ones and reports the per-layer metrics.  Every figure, with a stamp of the
machine and the commit, is also written to ``perfbench/out/``.  The exit
code is 1 when an output differs from its frozen value or an op fails in a
way not recorded as a known failure, and 2 when there is no package to
measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")

sys.path.insert(0, BENCH)
import child  # noqa: E402  (op tables only; it does not import surfcount)
import tracer  # noqa: E402

clock = time.monotonic

WORKLOADS = ("engine-cold", "verify-all", "cli-cache")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_p50_ms", "ms"),
)

# Per-layer metrics of the JSON line: the ones measured on every workload.
# Times of layers that some workload never enters (the cache file, sums,
# oracles, the single verify checks) would read 0 there; they are printed
# and written to the results file instead.
PER_LAYER = (
    ("exact.interp_calls", "count"),
    ("exact.interp_points", "count"),
    ("exact.interp_s", "s"),
    ("fitlab.s", "s"),
    ("fitlab.self_s", "s"),
    ("engine.calls", "count"),
    ("engine.s", "s"),
    ("engine.memo_entries", "count"),
    ("engine.cache_records", "count"),
    ("engine.cache_bytes", "B"),
    ("series.s", "s"),
    ("series.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.spawn_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"verify.{check}.memo_growth", "count") for _, check, _ in child.CHECKS)

LAYER_ONLY_IN_FILE = (
    ("engine.cache_load_s", "s"),
    ("engine.cache_save_s", "s"),
    ("sums.s", "s"),
    ("oracles.s", "s"),
) + tuple((f"verify.{check}.s", "s") for _, check, _ in child.CHECKS)

# cli-cache: one cold round fills a fresh cache file during set-up; warm
# rounds then read and rewrite it on every invocation.
CLI_CACHE = (
    "count --mode G --g 1 --n 1 --b 120",
    "count --mode N --g 3 --n 1 --b 40 --json",
    "count --mode G --g 2 --n 2 --b 28,28",
    "count --mode N --g 2 --n 1 --b 60 --t 2",
    "table --mode G --g 0 --n 3 --b-max 12 --threads 2",
    "series --which frakf --g 1 --n 2 --order 24",
    "psi --g 1 --n 2",
)
CLI_CACHE_SMOKE = (
    "count --mode G --g 1 --n 1 --b 20",
    "table --mode N --g 0 --n 2 --b-max 6 --threads 2",
    "psi --g 1 --n 1",
)
VERIFY = ("verify --suite all", "RESULT: PASS (25 checks)")
VERIFY_SMOKE = ("verify --suite closed-forms", "RESULT: PASS (3 checks)")

SETUP_PROBES = 5
PROBE = "import time, surfcount; print(time.monotonic(), surfcount.__file__)"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Timeout(Exception):
    pass


class NoPackage(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.key = workload + ("-smoke" if smoke else "")
        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
            frozen = json.load(fh)
        self.expected = frozen["digests"][self.key]
        self.known = frozen["known_failures"].get(self.key, {})
        self.rng = random.Random(seed)
        self.start = clock()
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.known_seen: dict[str, int] = {}
        self.op_log: list[dict] = []
        self.nfile = 0
        self.peak_kb = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- processes ------------------------------------------------------------

    def path(self, stem: str) -> str:
        self.nfile += 1
        return os.path.join(self.tmp, f"{self.nfile}-{stem}")

    def spawn(self, argv: list[str], stdout_path: str | None = None) -> tuple[float, float, int]:
        """Run one process to its end; returns (spawned at, ended at, exit code).

        ``os.wait4`` blocks until the exit, so the end time is exact and the
        process's own peak resident set comes with it; an interval timer
        kills the process at the run's time limit without a helper thread.
        """
        remaining = RUN_LIMIT_S - (clock() - self.start)
        if remaining <= 0:
            raise Timeout("run time limit reached")
        err_path = self.path("stderr")
        killed = []

        with open(err_path, "wb") as err, open(stdout_path or os.devnull, "wb") as out:
            t0 = clock()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )

            def kill(signum, frame):
                killed.append(signum)
                proc.kill()

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or ^C: the process does not outlive us
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            t1 = clock()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if killed:
            raise Timeout(f"{' '.join(argv[1:4])} ... still running at the time limit")
        if rc != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-800:]
            if tail:
                print(tail, file=sys.stderr)
        return t0, t1, rc

    def setup_probe(self) -> float:
        out = self.path("probe")
        t0, _, rc = self.spawn([sys.executable, "-c", PROBE], out)
        with open(out, encoding="utf-8") as fh:
            fields = fh.read().split()
        if rc != 0 or len(fields) != 2:
            raise NoPackage(f"cannot import surfcount from {SRC}")
        if not os.path.abspath(fields[1]).startswith(SRC + os.sep):
            raise NoPackage(f"surfcount was imported from {fields[1]}, not {SRC}")
        return float(fields[0]) - t0

    # -- output checks ----------------------------------------------------------

    def check(self, name: str, status: str, sha: str | None, anchor: bool | None = None) -> None:
        """Count one op; a wrong output or an unexpected failure makes the run incorrect."""
        self.attempted += 1
        self.op_log.append({"op": name, "status": status, "sha256": sha, "anchor": anchor})
        if status == "ok" and sha == self.expected[name] and anchor is not False:
            return
        self.failed += 1
        if status != "ok" and self.known.get(name) == status:
            self.known_seen[name] = self.known_seen.get(name, 0) + 1
            return
        self.correct = False
        if status != "ok":
            why = status
        elif anchor is False:
            why = "anchor value differs"
        else:
            why = f"output sha256 {sha} differs from the frozen {self.expected[name]}"
        self.problems.append(f"{name}: {why}")

    # -- one op each ----------------------------------------------------------

    def cli(self, line: str, traced: bool, op: int, extra: tuple = (), anchor_line=None):
        """One ``surfcount`` invocation; returns (latency, trace doc or None)."""
        args = line.split() + list(extra)
        out = self.path("stdout")
        if traced:
            doc_path = self.path("spans.json")
            argv = [sys.executable, CHILD, "cli", "--out", doc_path, "--op", str(op), "--", *args]
        else:
            argv = [sys.executable, "-m", "surfcount.cli", *args]
        t0, t1, rc = self.spawn(argv, out)
        with open(out, "rb") as fh:
            data = fh.read()
        anchor = None
        if anchor_line is not None:
            anchor = data.decode(errors="replace").rstrip("\n").split("\n")[-1] == anchor_line
        status = "ok" if rc == 0 else f"exit {rc}"
        self.check(line, status, hashlib.sha256(data).hexdigest(), anchor)
        doc = None
        if traced and os.path.exists(doc_path):
            with open(doc_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["t_spawn"] = t0
        return t1 - t0, doc

    # -- rounds: (timed wall, per-process latencies, trace docs) ----------------

    def round_engine(self, traced: bool):
        table = child.TABLES[self.key]
        rest = list(range(child.LEAD, len(table)))
        self.rng.shuffle(rest)
        order = list(range(child.LEAD)) + rest
        doc_path = self.path("ops.json")
        argv = [sys.executable, CHILD, "ops", "--table", self.key, "--order",
                ",".join(map(str, order)), "--out", doc_path] + (["--trace"] if traced else [])
        t0, t1, rc = self.spawn(argv)
        if rc != 0 or not os.path.exists(doc_path):
            for i in order:
                self.check(table[i].name, f"exit {rc}", None)
            return t1 - t0, [t1 - t0], []
        with open(doc_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["t_spawn"] = t0
        for rec in doc["ops"]:
            self.check(rec["name"], rec["status"], rec.get("sha256"), rec.get("anchor"))
        return doc["t_main_end"] - doc["t_main"], [t1 - t0], [doc] if traced else []

    def round_verify(self, traced: bool):
        line, anchor = VERIFY_SMOKE if self.smoke else VERIFY
        latency, doc = self.cli(line, traced, 0, anchor_line=anchor)
        return latency, [latency], [doc] if doc else []

    def round_cli(self, traced: bool, shuffle: bool = True):
        lines = list(enumerate(CLI_CACHE_SMOKE if self.smoke else CLI_CACHE))
        if shuffle:
            self.rng.shuffle(lines)
        extra = ("--cache", self.cache)
        t0 = clock()
        latencies, docs = [], []
        for op, line in lines:
            latency, doc = self.cli(line, traced, op, extra)
            latencies.append(latency)
            if doc:
                docs.append(doc)
        return clock() - t0, latencies, docs

    # -- the run ----------------------------------------------------------------

    @staticmethod
    def rounds(done: list, one_round, traced: bool, until: float) -> None:
        """Append rounds to ``done`` until ``until``: another round starts only
        if, at the median length of the rounds so far, it ends no later than half
        a round after ``until``.  So a run lasts about ``--seconds`` even when a
        round is a large share of it.  At least one round."""
        lengths = []
        while True:
            start = clock()
            done.append(one_round(traced))
            lengths.append(clock() - start)
            if clock() + statistics.median(lengths) / 2 > until:
                return

    def run(self) -> dict:
        self.setup_probe()  # discarded: the first import writes the bytecode cache
        setup = statistics.median(self.setup_probe() for _ in range(SETUP_PROBES))
        one_round = {
            "engine-cold": self.round_engine,
            "verify-all": self.round_verify,
            "cli-cache": self.round_cli,
        }[self.workload]
        if self.workload == "cli-cache":
            self.cache = self.path("surfcount.cache")
            cold_wall, _, _ = self.round_cli(False, shuffle=False)
            setup += cold_wall
        plain, traced = [], []
        t0 = clock()
        try:
            self.rounds(plain, one_round, False, t0 + (self.seconds / 2 if self.trace else self.seconds))
            if self.trace:
                self.rounds(traced, one_round, True, t0 + self.seconds)
        except Timeout as exc:
            if not plain or (self.trace and not traced):
                raise
            self.correct = False
            self.problems.append(str(exc))
        latencies = [x for _, lats, _ in plain for x in lats]
        e2e = {
            "wall_s": statistics.median(w for w, _, _ in plain),
            "setup_s": setup,
            "peak_rss_mb": self.peak_kb / 1024,
            "cli_p50_ms": statistics.median(latencies) * 1000,
        }
        layers = layer_metrics(plain, traced) if traced else {}
        return {"e2e": e2e, "layers": layers, "rounds": len(plain), "traced_rounds": len(traced)}


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer figures from the traced rounds: times are medians over the
    rounds, counts come from the first traced round."""
    per_round = []
    for _, _, docs in traced:
        m: dict[str, float] = {}
        for doc in docs:
            busy, own, calls = tracer.layer_times(doc)
            add(m, "exact.interp_calls", calls.get("exact", 0))
            add(m, "exact.interp_points", doc["counters"].get("exact.interp_points", 0))
            add(m, "exact.interp_s", busy.get("exact", 0.0))
            for layer in ("fitlab", "series"):
                add(m, f"{layer}.s", busy.get(layer, 0.0))
                add(m, f"{layer}.self_s", own.get(layer, 0.0))
            for layer in ("sums", "oracles"):
                add(m, f"{layer}.s", busy.get(layer, 0.0))
            add(m, "engine.calls", calls.get("engine", 0))
            add(m, "engine.s", busy.get("engine", 0.0))
            add(m, "engine.cache_load_s", busy.get("engine.cache_load", 0.0))
            add(m, "engine.cache_save_s", busy.get("engine.cache_save", 0.0))
            # the file is read whole by each invocation: report one reading
            for key in ("engine.cache_records", "engine.cache_bytes"):
                m[key] = max(m.get(key, 0), doc["counters"].get(key, 0))
            m["engine.memo_entries"] = max(m.get("engine.memo_entries", 0), doc["memo_entries"])
            checks = tracer.span_times(doc, "check.")
            for _, check, _ in child.CHECKS:
                add(m, f"verify.{check}.s", checks.get(f"check.{check}", 0.0))
                key = f"verify.{check}.memo_growth"
                add(m, key, doc["counters"].get(key, 0))
        per_round.append(m)
    docs = [doc for _, _, ds in traced for doc in ds]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER + LAYER_ONLY_IN_FILE:
        if name.startswith(("cli.", "trace.")):
            continue
        values = [m.get(name, 0) for m in per_round]
        out[name] = values[0] if unit in ("count", "B") else statistics.median(values)
    # a traced process that crashed leaves no spans; the run is then incorrect
    out["cli.spawn_s"] = statistics.median([d["t_start"] - d["t_spawn"] for d in docs] or [0.0])
    out["cli.import_s"] = statistics.median([d["t_imported"] - d["t_import"] for d in docs] or [0.0])
    out["cli.main_s"] = statistics.median([d["t_main_end"] - d["t_main"] for d in docs] or [0.0])
    out["trace.overhead_s"] = statistics.median(w for w, _, _ in traced) - statistics.median(
        w for w, _, _ in plain
    )
    varied = [n for n, u in PER_LAYER if u == "count" and len({m.get(n, 0) for m in per_round}) > 1]
    if varied:
        print(f"warning: counts varied between traced rounds: {', '.join(varied)}", file=sys.stderr)
    return out


def add(m: dict, key: str, value) -> None:
    m[key] = m.get(key, 0) + value


def stamp(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> bool:
    info = stamp(workload, seed, trace, smoke)
    bench = Bench(workload, seed, seconds, trace, smoke)
    try:
        measured = bench.run()
    finally:
        bench.close()
    chosen = PER_LAYER if trace else END_TO_END
    source = measured["layers"] if trace else measured["e2e"]
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in chosen}
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    name = f"{bench.key}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "result": result, "end_to_end": measured["e2e"],
                   "layers": measured["layers"], "rounds": measured["rounds"],
                   "traced_rounds": measured["traced_rounds"], "ops": bench.op_log,
                   "problems": bench.problems}, fh, indent=1)

    print(f"{bench.key}  seed {seed}  trace {int(trace)}  rounds {measured['rounds']}"
          f"+{measured['traced_rounds']} traced  results perfbench/out/{name}")
    units = dict(END_TO_END + PER_LAYER + LAYER_ONLY_IN_FILE)
    for key, value in list(measured["e2e"].items()) + list(measured["layers"].items()):
        if value or key in measured["e2e"]:
            print(f"  {key:<58} {value:>16.6f} {units[key]}")
    ratio = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_ops':<58} {bench.failed:>9}/{bench.attempted:<6} = {ratio:.4f}")
    for op, times in bench.known_seen.items():
        print(f"  known failure: {op} raised {bench.known[op]} ({times}x)")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    print(json.dumps(result, separators=(",", ":")))
    return bench.correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="sets the op order only")
    parser.add_argument("--seconds", type=float, default=35.0, help="time spent on rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, for the tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "surfcount", "__init__.py")):
        print(f"error: no surfcount package under {SRC}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for workload in chosen:
            ok = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke) and ok
    except NoPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Timeout as exc:
        print(f"error: no round finished: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
