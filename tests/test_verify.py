"""The suite runner: forked workers, one per usable CPU, and the same report."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from surfcount import verify

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

ALL_SHA256 = "20f25a050c21f5eb0f538bc1df9592654ff62bef782d272be05c997881aa76de"
CLOSED_FORMS_SHA256 = "fc674e2613fb46e12bec654c41e305fe0d49c9b10637915a6427bdfdcf92f723"


def _sha256(results):
    return hashlib.sha256((verify.format_report(results) + "\n").encode()).hexdigest()


def _run(code):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool that ``run_suite`` starts."""
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started


@pytest.mark.parametrize(
    "cpus, workers", [(1, []), (2, [2]), (8, [7])], ids=["1-cpu", "2-cpus", "8-cpus"]
)
def test_reports_are_byte_identical_at_any_cpu_count(monkeypatch, pools, cpus, workers):
    # seven units: one per suite, psi joined to fits
    monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
    assert _sha256(verify.run_suite("all")) == ALL_SHA256
    assert pools == workers
    assert _sha256(verify.run_suite("closed-forms")) == CLOSED_FORMS_SHA256
    assert pools == workers, "a single suite runs inline"


def test_psi_runs_with_fits_in_one_worker():
    units = {}
    for suite, _, _ in verify._REGISTRY:
        units.setdefault(verify._UNIT_OF.get(suite, suite), set()).add(suite)
    assert units["fits"] == {"fits", "psi"}
    assert len(units) == len(verify.SUITES) - 1


def test_the_cpu_count_is_the_affinity_where_there_is_one():
    if hasattr(os, "sched_getaffinity"):
        assert verify._cpu_count() == len(os.sched_getaffinity(0))
    assert verify._cpu_count() >= 1


def test_a_process_with_other_threads_runs_inline(monkeypatch, pools):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_REGISTRY", [
        ("closed-forms", "disc-catalan", verify.check_disc_catalan),
        ("oracles", "arrow-decoding", verify.check_arrows_oracle),
    ])
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        results = verify.run_suite("all")
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert pools == [] and verify.all_passed(results) and len(results) == 2
    verify.run_suite("all")
    assert pools == [2], "with the thread gone the units run in workers again"


def test_a_worker_that_dies_raises(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_REGISTRY", [
        ("closed-forms", "disc-catalan", verify.check_disc_catalan),
        ("oracles", "worker-exits", lambda: os._exit(3)),
    ])
    with pytest.raises(BrokenProcessPool):
        verify.run_suite("all")
    assert issubclass(BrokenProcessPool, RuntimeError)


def test_verify_exits_5_when_a_worker_dies():
    proc = _run(
        """
        import os, sys
        from surfcount import cli, verify
        verify._cpu_count = lambda: 2
        verify._REGISTRY[:] = [
            ("closed-forms", "disc-catalan", verify.check_disc_catalan),
            ("oracles", "worker-exits", lambda: os._exit(3)),
        ]
        sys.exit(cli.main(["verify", "--suite", "all"]))
        """
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ") and proc.stderr.count("\n") == 1


def test_cli_import_leaves_the_pool_modules_out():
    # every other command, and the start-up of each, skips their import cost
    proc = _run(
        """
        import sys
        import surfcount.cli
        print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
