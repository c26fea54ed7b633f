"""Command-line surface: outputs, exit codes, cache, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import marshal
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfcount
from surfcount import cli, engine, exact, fitlab, series
from surfcount.cli import main
from surfcount.closed import catalan
from surfcount.engine import clear_memo, count_N
from surfcount.exact import DegenerateGridError, SeriesIdentityError


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_count_plain(capsys):
    rc, out, _ = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")
    assert rc == 0 and out.strip() == "13"


def test_count_examples(capsys):
    rc, out, _ = run(capsys, "count", "--mode", "N", "--g", "0", "--n", "4", "--b", "2,2,2,2")
    assert rc == 0 and out.strip() == "96"
    rc, out, _ = run(capsys, "count", "--mode", "G", "--g", "0", "--n", "2", "--b", "1,2")
    assert rc == 0 and out.strip() == "0"


def test_count_json_decimal_strings(capsys):
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "40", "--json"
    )
    assert rc == 0
    d = json.loads(out)
    assert isinstance(d["count"], str)
    assert int(d["count"]) == int(d["count"])  # parses as an integer
    assert d["b"] == [40]


def test_count_refined_flags(capsys):
    rc, out, _ = run(
        capsys, "count", "--mode", "N", "--g", "1", "--n", "1", "--b", "4", "--t", "1"
    )
    assert rc == 0 and out.strip() == "2"
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "2", "--b", "2,2", "--r", "3"
    )
    assert rc == 0 and out.strip() == "4"


def test_exit_codes(capsys):
    # usage: bad vector length
    rc, _, err = run(capsys, "count", "--mode", "G", "--g", "0", "--n", "2", "--b", "2")
    assert rc == 2 and "entries" in err
    # unsupported: closed form wanted where none exists
    rc, _, err = run(
        capsys, "count", "--mode", "G", "--g", "2", "--n", "1", "--b", "0",
        "--closed-only",
    )
    assert rc == 3 and err == "unsupported: no closed form for (g, n) = (2, 1)\n"
    # unsupported: r-refined parallel-free counts
    rc, _, err = run(
        capsys, "count", "--mode", "N", "--g", "0", "--n", "2", "--b", "2,2", "--r", "1"
    )
    assert rc == 3


def test_psi_line(capsys):
    rc, out, _ = run(capsys, "psi", "--g", "1", "--n", "1")
    assert rc == 0
    assert out.strip() == '{"d":[1],"value":"1/24"}'


def test_fit_parity_branch(capsys):
    rc, out, _ = run(
        capsys, "fit", "--mode", "nhat", "--g", "0", "--n", "3", "--parity", "e,e,e"
    )
    assert rc == 0 and out.strip() == "1"


def test_fit_json(capsys):
    rc, out, _ = run(capsys, "fit", "--mode", "nhat", "--g", "1", "--n", "1", "--json")
    d = json.loads(out)
    assert rc == 0
    assert d["degree"] == 2
    assert d["branches"]["e"]["terms"][-1]["coeff"] == "1/48"


def test_fit_nhat_0_5_json_is_frozen(capsys):
    """All 32 branches of the (0,5) fit, 16 of them derived by permuting
    variables and 16 certified zero, byte for byte."""
    rc, out, _ = run(capsys, "fit", "--mode", "nhat", "--g", "0", "--n", "5", "--json")
    assert rc == 0 and len(out.encode()) == 13720
    d = json.loads(out)
    assert len(d["branches"]) == 32 and d["validation_points"] == 320
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "dbf58ce7119ed92dbf7941f9d7b611948ddeb6983776c36aebe83da8e1c4b749"


def test_fit_that_fails_certification_exits_1(capsys, monkeypatch):
    def skewed(g, n, b):
        return count_N(g, n, b) + (sum(b) % 2 == 0 and b[0] % 2 == 1)

    monkeypatch.setattr(fitlab, "count_N", skewed)
    monkeypatch.setattr(fitlab, "_NHAT_CACHE", {})
    rc, out, err = run(capsys, "fit", "--mode", "nhat", "--g", "0", "--n", "4")
    assert rc == 1 and out == ""
    assert err.startswith("verification failed: Nhat(0,4) branch oeeo")


@pytest.mark.parametrize("exc", [RuntimeError("cycle at ('G', 1, 1, (4,))"), ZeroDivisionError("x")])
def test_internal_error_exits_5_without_traceback(capsys, monkeypatch, exc):
    def broken(g, n, b):
        raise exc

    monkeypatch.setattr(cli, "count_G", broken)
    rc, out, err = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")
    assert rc == 5 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


# one function each subcommand calls before it writes a line, patched to raise, and a
# command line that reaches it
_SUBCOMMAND_CALLS = {
    "count": ("cli", "count_G", ("count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")),
    "table": ("cli", "count_G", ("table", "--mode", "G", "--g", "0", "--n", "2", "--b-max", "2")),
    "fit": ("fitlab", "fit_Nhat", ("fit", "--mode", "nhat", "--g", "0", "--n", "3")),
    "psi": ("fitlab", "extract_psi", ("psi", "--g", "1", "--n", "1")),
    "sums": ("sums", "SumFamily", ("sums", "--family", "A", "--m", "1")),
    "series": ("series", "expand_closed_form", ("series", "--which", "fG02", "--order", "4")),
    "oracle": ("oracles", "enumerate_disc", ("oracle", "--disc", "4")),
    "verify": ("cli", "run_suite", ("verify", "--suite", "all")),
}

# ValueError is left out: an internal one still exits 2, as a usage error does,
# until the checks of caller input raise a class of their own
_INTERNAL_FAULTS = [
    TypeError("t"), IndexError("i"), AttributeError("a"), ZeroDivisionError("z"), KeyError("k"),
    SeriesIdentityError("s"),
]


@pytest.mark.parametrize("exc", _INTERNAL_FAULTS, ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("command", _SUBCOMMAND_CALLS)
def test_an_internal_fault_in_any_subcommand_exits_5_with_one_line(capsys, monkeypatch, command, exc):
    module, name, argv = _SUBCOMMAND_CALLS[command]

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(importlib.import_module(f"surfcount.{module}"), name, broken)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (5, "", f"internal error: {type(exc).__name__}: {exc}\n")


def test_an_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(g, n, b):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "count_G", interrupted)
    rc, out, err = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")
    assert (rc, out, err) == (130, "", "interrupted\n")


def test_a_closed_stdout_is_an_io_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)  # what Python sets when fd 1 is closed
    rc = main(["count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4"])
    assert (rc, capsys.readouterr().err) == (4, "i/o error: stdout is closed\n")


def test_a_missing_stderr_takes_no_line_and_keeps_the_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)  # what Python sets when fd 2 is closed at start-up
    rc = main(["sums", "--family", "A", "--m", "0", "--n", "3"])
    assert (rc, capsys.readouterr().out) == (2, "")


def test_a_closed_stderr_keeps_the_exit_code():
    # fd 2 closed in the child: writing the error line fails, and nothing lands on stdout
    proc = subprocess.run(
        [sys.executable, "-m", "surfcount.cli", "sums", "--family", "A", "--m", "0", "--n", "3"],
        stdout=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=lambda: os.close(2),
    )
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize(
    "module, name, argv, exc",
    [
        (series, "expand_closed_form", ("series", "--which", "fG02", "--order", "4"),
         SeriesIdentityError("fG02 differs at x^2")),
        (fitlab, "fit_Nhat", ("fit", "--mode", "nhat", "--g", "0", "--n", "3"),
         DegenerateGridError("degenerate grid: ragged keys")),
        # no source line raises KeyError on purpose: one that escapes is a fault, not a usage error
        (cli, "count_G", ("count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4"), KeyError("fam")),
    ],
    ids=["series-identity", "degenerate-grid", "key-error"],
)
def test_a_failed_identity_or_a_degenerate_grid_is_an_internal_error(capsys, monkeypatch, module, name, argv, exc):
    def broken(*args):
        raise exc

    monkeypatch.setattr(module, name, broken)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (5, "", f"internal error: {type(exc).__name__}: {exc}\n")
    assert series.SeriesIdentityError is surfcount.SeriesIdentityError is exact.SeriesIdentityError


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--mode", "G", "--g", "0", "--n", "1", "--b-max", "6")
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0] == "b1,count"
    assert rows[1:] == ["0,1", "1,0", "2,1", "3,0", "4,2", "5,0", "6,5"]


def test_table_rejects_a_negative_bound(capsys):
    rc, out, err = run(capsys, "table", "--mode", "G", "--g", "0", "--n", "1", "--b-max", "-2")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--b-max" in err


def test_sums_rejects_a_negative_bound(capsys):
    rc, out, err = run(capsys, "sums", "--family", "A", "--m", "0", "--k-max", "-3")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--k-max" in err


def test_fit_gpoly_outside_the_t_window_exits_0(capsys):
    rc, out, _ = run(capsys, "fit", "--mode", "gpoly", "--g", "0", "--n", "3", "--t", "-1")
    assert rc == 0
    assert out.splitlines() == [f"{sig}: 0" for sig in ("eee", "eeo", "eoe", "eoo", "oee", "oeo", "ooe", "ooo")]


def test_table_threads_identical(capsys):
    args = ["table", "--mode", "N", "--g", "0", "--n", "2", "--b-max", "5"]
    rc1, out1, _ = run(capsys, *args, "--threads", "1")
    rc2, out2, _ = run(capsys, *args, "--threads", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_series_command(capsys):
    rc, out, _ = run(
        capsys, "series", "--which", "fN02_t1", "--order", "4"
    )
    d = json.loads(out)
    assert rc == 0
    assert d["terms"] == [{"exps": [-1, -1], "aux_exp": 0, "coeff": "1"}]
    rc, out, _ = run(
        capsys, "series", "--which", "frakf", "--g", "0", "--n", "1", "--order", "3"
    )
    d = json.loads(out)
    assert d["aux"] == "alpha"


def test_series_needs_surface(capsys):
    rc, _, err = run(capsys, "series", "--which", "fN", "--order", "4")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--which", "fN01", "--order", "-3"),
        ("--which", "frakf", "--g", "1", "--n", "2", "--order", "-1"),
        ("--which", "fN", "--g", "0", "--n", "2", "--order", "-3"),
    ],
)
def test_series_rejects_a_negative_order(capsys, argv):
    rc, out, err = run(capsys, "series", *argv)
    assert (rc, out) == (2, "")
    assert "truncation order must be nonnegative" in err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_series_rejects_an_alpha_bound_below_one(capsys, bound):
    rc, out, err = run(capsys, "series", "--which", "frakf", "--g", "0", "--n", "1",
                       "--order", "5", "--alpha-bound", bound)
    assert (rc, out) == (2, "")
    assert err == "error: alpha_bound must be at least 1\n"


FIT_03 = ("fit", "--g", "0", "--n", "3")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("series", "--which", "fN01", "--order", "4", "--g", "0"), "--g"),
        (("series", "--which", "fG02", "--order", "4", "--n", "2"), "--n"),
        (("series", "--which", "fN03_t1", "--order", "4", "--t", "1"), "--t"),
        (("series", "--which", "frakf01G", "--order", "4", "--alpha-bound", "3"), "--alpha-bound"),
        (("series", "--which", "fN", "--g", "0", "--n", "2", "--order", "4",
          "--alpha-bound", "3"), "--alpha-bound"),
        (("series", "--which", "fG", "--g", "0", "--n", "2", "--order", "4",
          "--alpha-bound", "3"), "--alpha-bound"),
        (("series", "--which", "frakf", "--g", "1", "--n", "2", "--order", "4", "--t", "1"),
         "--t"),
        ((*FIT_03, "--mode", "nhat", "--t", "1"), "--t"),
        ((*FIT_03, "--mode", "nhat", "--k", "0"), "--k"),
        ((*FIT_03, "--mode", "gpoly", "--k", "3"), "--k"),
    ],
)
def test_options_the_mode_does_not_read_are_rejected(capsys, argv, option):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.rstrip().endswith(f"does not read {option}")


def test_sums_command(capsys):
    rc, out, _ = run(capsys, "sums", "--family", "A", "--m", "0", "--k-max", "4")
    rows = out.strip().splitlines()
    assert rows[0] == "k,value"
    assert rows[1:5] == ["0,0", "1,0", "2,2", "3,2"]
    fitted = json.loads(rows[-1])
    assert "branches" in fitted


@pytest.mark.parametrize("family", ["A", "S"])
def test_sums_rejects_a_second_index_for_a_one_index_family(capsys, family):
    rc, out, err = run(capsys, "sums", "--family", family, "--m", "0", "--n", "3")
    assert (rc, out) == (2, "")
    assert err.rstrip() == f"error: family {family} takes one index, not n = 3"


def test_oracle_commands(capsys):
    rc, out, _ = run(capsys, "oracle", "--disc", "4")
    assert rc == 0 and out.strip() == "14"
    rc, out, _ = run(capsys, "oracle", "--pants", "6,2,2")
    assert out == '{"p1":1,"p2":0,"p3":0,"t12":2,"t23":0,"t31":2}\n'
    rc, out, _ = run(capsys, "oracle", "--arrows", "2")
    assert "6 labellings, 6 distinct" in out
    rc, _, _ = run(capsys, "oracle", "--disc", "1", "--pants", "0,0,0")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--disc", "6"), "1f320991331cc0f35c340e02c22326e06b1c3886d26e29e55de575fcc57fd66a"),
        (("--arrows", "5"), "11c8355f1a44a9bf2dc3356483b27d77760a4b6dc9cde2872f8055cb7c4821d1"),
    ],
    ids=["disc-6", "arrows-5"],
)
def test_an_oracle_listing_is_frozen(capsys, argv, digest):
    rc, out, err = run(capsys, "oracle", *argv, "--list")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", ["1,1", "x"])
def test_oracle_pants_usage_errors_name_the_option(capsys, value):
    rc, out, err = run(capsys, "oracle", "--pants", value)
    assert rc == 2 and out == ""
    assert err.startswith("error: --pants ")


def test_verify_suite_exit_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "oracles")
    assert rc == 0
    assert out.strip().endswith("RESULT: PASS (3 checks)")


def test_verify_rejects_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "closed-forms", "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cache_flag(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "1", "--n", "2", "--b", "4,2",
        "--cache", str(path),
    )
    assert rc == 0
    first = out
    assert (path / "G-1-2").exists()
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "1", "--n", "2", "--b", "4,2",
        "--cache", str(path),
    )
    assert out == first
    # env fallback
    monkeypatch.setenv("SURFCOUNT_CACHE", str(tmp_path / "env"))
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "6", "--cache"
    )
    assert rc == 0 and out.strip() == "5" and (tmp_path / "env" / "G-0-1").exists()
    # no path anywhere is a usage error
    monkeypatch.delenv("SURFCOUNT_CACHE")
    rc, _, err = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "6", "--cache"
    )
    assert rc == 2


TORUS_40 = ("count", "--mode", "G", "--g", "1", "--n", "1", "--b", "40")


def test_cache_io_error(tmp_path, capsys):
    bad = tmp_path / "nodir" / "cache"  # a save makes the directory, not its parents
    rc, _, err = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "2",
        "--cache", str(bad),
    )
    assert rc == 4 and "i/o" in err


def test_an_old_single_file_cache_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    path.write_text("surfcount-cache 0 1 0\nG 1 1 28:1\n")  # the single-file layout
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert (rc, out) == (4, "") and err.count("\n") == 1
    assert err.startswith("i/o error:") and "Not a directory" in err and "G-1-1" in err


def test_a_later_call_without_the_cache_reads_no_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setattr(engine, "_MEMO", engine._Memo())
    assert run(capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "4", "--cache", str(path))[0] == 0
    shutil.rmtree(path)
    path.write_text("")  # a directory still attached would now fail every read
    rc, out, err = run(capsys, "count", "--mode", "N", "--g", "1", "--n", "1", "--b", "4")
    assert (rc, out, err) == (0, "3\n", "")
    assert engine._MEMO.cache is None


def test_a_warm_count_reads_only_its_own_heads_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    clear_memo()
    rc, first, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and len(os.listdir(path)) > 1
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(os.path.relpath(file, path))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(engine, "open", spy, raising=False)
    clear_memo()  # as in a fresh process
    assert run(capsys, *TORUS_40, "--cache", str(path)) == (0, first, "")
    assert opened == ["G-1-1"]


def test_truncated_cache_line_cannot_change_the_output(tmp_path, capsys, cache_records):
    path = tmp_path / "cache"
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert list(cache_records(path / "G-1-1").items())[-1] == ((40,), 5881451896320)  # b = (40,) comes last
    data = (path / "G-1-1").read_bytes()
    (path / "G-1-1").write_bytes(data[:-1])  # the body loses its last byte
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "ignoring cache" in err


def test_malformed_cache_record_is_not_a_usage_error(tmp_path, capsys, write_cache):
    path = tmp_path / "cache"
    write_cache(path, ("G", 1, 1), {(40,): 5881451896320, (42,): "extra"})
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "malformed record" in err


def test_a_cache_warning_with_a_missing_stderr_leaves_stdout_the_count(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    path.mkdir()
    (path / "G-1-1").write_text("garbage")
    monkeypatch.setattr(sys, "stderr", None)  # what Python sets when fd 2 is closed at start-up
    clear_memo()
    rc = main(["count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4", "--cache", str(path)])
    assert (rc, capsys.readouterr().out) == (0, "13\n")


def test_a_cache_warning_with_a_closed_stderr_leaves_stdout_the_count(tmp_path):
    path = tmp_path / "cache"
    path.mkdir()
    (path / "G-1-1").write_text("garbage")
    proc = subprocess.run(
        [sys.executable, "-m", "surfcount.cli", "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4",
         "--cache", str(path)],
        stdout=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=lambda: os.close(2),
    )
    assert (proc.returncode, proc.stdout) == (0, "13\n")


def _stats(path) -> dict:
    return {f: (s.st_ino, s.st_mtime_ns) for f in os.listdir(path) for s in [os.stat(path / f)]}


def test_unchanged_cache_is_not_rewritten(tmp_path, capsys, cache_records):
    path = tmp_path / "cache"
    clear_memo()
    rc, first, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0
    before, data = _stats(path), (path / "G-1-1").read_bytes()
    clear_memo()  # as in a fresh process
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out == first
    assert _stats(path) == before and (path / "G-1-1").read_bytes() == data
    held = len(cache_records(path / "G-1-1"))
    rc, out, _ = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "42",
                     "--cache", str(path))
    assert rc == 0 and _stats(path)["G-1-1"] != before["G-1-1"]
    assert len(cache_records(path / "G-1-1")) == held + 1


def test_ignored_cache_is_rewritten_without_new_records(tmp_path, capsys, cache_records):
    path = tmp_path / "cache"
    clear_memo()
    rc, first, _ = run(capsys, *TORUS_40, "--cache", str(path))
    file = path / "G-1-1"
    data, stamp, records = file.read_bytes(), file.stat(), cache_records(file)
    assert records[40,] == 5881451896320
    records[40,] += 1  # a body with the value off by one under the old header
    file.write_bytes(data.split(b"\n", 1)[0] + b"\n" + marshal.dumps(records, 2))
    os.utime(file, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))  # unchanged to os.stat
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))  # the memo holds every key
    assert rc == 0 and out == first and "digest mismatch" in err
    assert file.read_bytes() == data


def test_cache_grown_by_another_process_keeps_its_records(tmp_path, capsys, monkeypatch):
    path, grown = tmp_path / "cache", tmp_path / "grown"
    clear_memo()
    assert run(capsys, *TORUS_40, "--cache", str(grown))[0] == 0
    assert run(capsys, "count", "--mode", "N", "--g", "1", "--n", "1", "--b", "20",
               "--cache", str(grown))[0] == 0
    clear_memo()
    assert run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "30",
               "--cache", str(path))[0] == 0
    load = cli.load_cache

    def load_then_grown_elsewhere(where):
        loaded = load(where)
        shutil.copytree(grown, where, dirs_exist_ok=True)  # another process saves its larger memo
        return loaded

    monkeypatch.setattr(cli, "load_cache", load_then_grown_elsewhere)
    clear_memo()
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))  # adds no record
    assert rc == 0 and out.strip() == "5881451896320"
    assert _files(path) == _files(grown)


def _files(path) -> dict:
    return {f: (path / f).read_bytes() for f in os.listdir(path)}


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.mark.parametrize(
    "module, old, new, argv, cold, poisoned",
    [
        ("engine.py", "acc += sep if own else 2 * sep", "acc += 2 * sep",
         ("--mode", "N", "--g", "2", "--n", "1", "--b", "4"), "13", "17"),
        ("closed.py", "return bar(b[0]) if", "return 2 * bar(b[0]) if",
         ("--mode", "N", "--g", "1", "--n", "2", "--b", "4,2"), "32", "42"),
    ],
    ids=["engine", "closed"],
)
def test_cache_written_by_a_mutant_source_is_ignored(tmp_path, capsys, module, old, new, argv,
                                                      cold, poisoned):
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "surfcount" / module
    text = source.read_text(encoding="utf-8")
    assert text.count(old) == 1
    source.write_text(text.replace(old, new), encoding="utf-8")
    path = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-m", "surfcount.cli", "count", *argv, "--cache", str(path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == poisoned, proc.stderr
    clear_memo()
    rc, out, err = run(capsys, "count", *argv, "--cache", str(path))
    assert rc == 0 and out.strip() == cold
    assert "ignoring cache" in err and "written by other source code" in err
    clear_memo()  # the clean run rewrote the file: it now serves its own values
    assert run(capsys, "count", *argv, "--cache", str(path)) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "closed-forms"),
        ("sums", "--family", "A", "--m", "0", "--k-max", "2"),
        ("oracle", "--disc", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_cache_is_a_usage_error_where_the_engine_does_not_run(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache", str(tmp_path / "memo.cache")])
    assert exc.value.code == 2
    assert not (tmp_path / "memo.cache").exists()


def test_cache_with_a_removed_family_is_ignored_and_rewritten(tmp_path, capsys, write_cache,
                                                                cache_records):
    # a cache written while the lattice twin was an engine family of its own,
    # so by other source code: the file the count reads is ignored and
    # rewritten, and the removed family's file is never read
    path = tmp_path / "cache"
    write_cache(path, ("G", 1, 1), {(40,): 5881451896320})
    write_cache(path, ("LatticeN", 1, 1), b"4:1/4\n")  # its records in the text form of then
    for file in path.iterdir():
        file.write_bytes(file.read_bytes().replace(engine._fingerprint().encode(), b"0" * 64))
    lattice = (path / "LatticeN-1-1").read_bytes()
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert err.count("ignoring cache") == 1 and "G-1-1" in err and "written by other source code" in err
    assert (path / "G-1-1").read_bytes().startswith(f"surfcount-cache {engine._fingerprint()} ".encode())
    assert list(cache_records(path / "G-1-1").items())[-1] == ((40,), 5881451896320)
    assert (path / "LatticeN-1-1").read_bytes() == lattice


BIG_DISC = ("count", "--mode", "G", "--g", "0", "--n", "1", "--b", "16000")


@contextlib.contextmanager
def _digit_limit(limit):
    """The int/str digit limit ``limit`` inside, where the interpreter has one."""
    before = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(before)


@pytest.mark.parametrize("extra", [("--t", "0"), ("--closed-only",)])
def test_counts_of_any_size_are_printed(capsys, extra):
    want = catalan(8000)  # 4,811 digits
    rc, out, _ = run(capsys, *BIG_DISC, *extra)
    rc_json, out_json, _ = run(capsys, *BIG_DISC, *extra, "--json")
    with _digit_limit(0):  # the test's own reading of a big count
        assert rc == 0 and int(out) == want
        assert rc_json == 0 and int(json.loads(out_json)["count"]) == want


class _CacheOnlyTable(engine._Table):
    __slots__ = ()

    def __missing__(self, b):
        raise RuntimeError(f"{b} did not come from the cache")


class _CacheOnlyMemo(engine._Memo):
    def __missing__(self, head):
        table = self[head] = _CacheOnlyTable(head)
        self.read(head, table)
        return table


def test_counts_of_any_size_round_trip_through_the_cache(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    memo = engine._Memo()
    memo["G", 0, 1][16000,] = catalan(8000)  # too slow to recompute here
    monkeypatch.setattr(engine, "_MEMO", memo)
    rc, first, _ = run(capsys, *BIG_DISC, "--cache", str(path))
    with _digit_limit(0):  # the test's own reading of a big count
        assert rc == 0 and int(first) == catalan(8000)
    monkeypatch.setattr(engine, "_MEMO", _CacheOnlyMemo())
    rc, out, err = run(capsys, *BIG_DISC, "--cache", str(path))
    assert (rc, out, err) == (0, first, "")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "Q", "--g", "0", "--n", "1", "--b", "2"])
    assert exc.value.code == 2


def test_an_unknown_suite_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "no-such-suite")
    assert rc == 2 and out == ""
    assert "unknown suite 'no-such-suite'" in err


def test_an_unknown_series_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "series", "--which", "nope", "--order", "3")
    assert (rc, out, err) == (2, "", "error: unknown series 'nope'\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_main_restores_the_digit_limit_it_lifts(capsys):
    with _digit_limit(4300):
        rc, out, _ = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")
        assert (rc, out) == (0, "13\n")
        assert sys.get_int_max_str_digits() == 4300


def _fresh(*argv):
    """Run ``python -S argv`` on this checkout's source: no site hooks, so the
    modules it ends with are the ones the package imported."""
    proc = subprocess.run(
        [sys.executable, "-S", *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


UNUSED_BY_COUNT = ("surfcount.verify", "surfcount.sums", "surfcount.oracles", "surfcount.moduli",
                   "surfcount.fitlab", "surfcount.series", "dataclasses")


def _modules_after(*argv):
    """Run ``surfcount argv`` in a fresh interpreter: its output lines and the
    modules it ended with."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['surfcount', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('surfcount.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(*sorted(sys.modules))\n"
    )
    *out, modules = _fresh("-c", code).splitlines()
    return out, set(modules.split())


def test_count_imports_only_the_modules_it_runs():
    out, modules = _modules_after("count", "--mode", "G", "--g", "1", "--n", "1", "--b", "4")
    assert out == ["13"]
    assert "surfcount.engine" in modules
    assert modules.isdisjoint(UNUSED_BY_COUNT)


@pytest.mark.parametrize(
    "argv, first, unused",
    [
        (("table", "--mode", "G", "--g", "0", "--n", "1", "--b-max", "2"), "b1,count",
         UNUSED_BY_COUNT),
        (("psi", "--g", "1", "--n", "1"), '{"d":[1],"value":"1/24"}',
         tuple(m for m in UNUSED_BY_COUNT if m != "surfcount.fitlab")),
    ],
    ids=["table", "psi"],
)
def test_table_and_psi_import_only_the_modules_they_run(argv, first, unused):
    out, modules = _modules_after(*argv)
    assert out[0] == first
    assert "surfcount.engine" in modules
    assert modules.isdisjoint(unused)


def test_every_public_name_resolves_and_loads_its_module_on_first_use():
    code = (
        "import sys, surfcount\n"
        "print(*sorted(sys.modules))\n"
        "print(set(surfcount.__all__) <= set(dir(surfcount)))\n"
        "print(all(getattr(surfcount, name) is not None for name in surfcount.__all__))\n"
        "print(*sorted(sys.modules))\n"
    )
    before, listed, resolved, after = _fresh("-c", code).splitlines()
    assert [m for m in before.split() if m.startswith("surfcount.")] == []
    assert listed == resolved == "True"
    assert {f"surfcount.{m}" for m in ("closed", "engine", "exact", "fitlab", "oracles", "series",
                                      "sums", "verify")} <= set(after.split())


def test_a_submodule_resolves_as_an_attribute_before_any_count():
    out = _fresh("-c", "import surfcount; print(surfcount.engine.memo_size())")
    assert out == "0\n"


def test_an_unknown_public_name_is_an_attribute_error():
    import surfcount

    with pytest.raises(AttributeError, match="no_such_name"):
        surfcount.no_such_name


@pytest.mark.parametrize(
    "argv, rc, err",
    [
        (("oracle", "--arrows", "14"), 5, "internal error: out of memory\n"),
        # refused before the 9^6-point grid is built
        (("table", "--mode", "N", "--g", "0", "--n", "6", "--b-max", "9", "--r", "1"), 3,
         "unsupported: parallel-free counts are refined by t, not by r\n"),
    ],
    ids=["oracle-out-of-memory", "table-refused-first"],
)
def test_a_capped_address_space_ends_in_one_stderr_line(argv, rc, err):
    resource = pytest.importorskip("resource")
    cap = 400_000 * 1024  # ulimit -v 400000

    def limit():  # runs in the child alone
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run(
        [sys.executable, "-m", "surfcount.cli", *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, "", err)


_INT = st.integers(-2, 6).map(str)


_HYPERBOLIC = [(0, 3), (1, 1), (0, 4), (1, 2)]  # 2g - 2 + n = 1 or 2
_FITTED = [(g, n) for g in range(-2, 3) for n in range(-2, 4) if 2 * g - 2 + n <= 2]


@st.composite
def _command_lines(draw):
    """A small command line for one of the subcommands that compute: integers
    from -2 to 6 (g from -2 to 2, n from -2 to 3), and 2g - 2 + n <= 2 for
    fit and psi, so that each call stays cheap."""
    command = draw(st.sampled_from(("count", "table", "sums", "oracle", "series", "fit", "psi")))
    g, n = draw(st.integers(-2, 2)), draw(st.integers(-2, 3))
    if command in ("fit", "psi"):
        g, n = draw(st.sampled_from(_HYPERBOLIC) | st.sampled_from(_FITTED))
    surface = ["--g", str(g), "--n", str(n)]

    def entries(size):  # a comma list, often of the length the surface wants
        size = size if size > 0 and draw(st.booleans()) else draw(st.integers(1, 4))
        return ",".join(draw(st.lists(_INT, min_size=size, max_size=size)))

    def maybe(option, value=lambda: draw(_INT)):
        return [option, value()] if draw(st.booleans()) else []

    refined = draw(st.sampled_from([[], ["--r"], ["--t"]]))
    refined += [draw(_INT)] if refined else []
    if command == "count":
        argv = ["--mode", draw(st.sampled_from("GN")), *surface, "--b", entries(n), *refined]
        argv += draw(st.sampled_from([[], ["--closed-only"], ["--json"]]))
    elif command == "table":
        argv = ["--mode", draw(st.sampled_from("GN")), *surface, "--b-max", draw(_INT), *refined]
    elif command == "sums":
        family = draw(st.sampled_from(("A", "S", "B", "B0", "B1", "R", "R0", "R1")))
        argv = ["--family", family, "--m", draw(_INT), *maybe("--n"), *maybe("--k-max")]
    elif command == "oracle":
        argv = [*maybe("--disc"), *maybe("--pants", lambda: entries(3)), *maybe("--arrows")]
        argv += draw(st.sampled_from([[], ["--list"]]))
    elif command == "series":
        which = draw(st.sampled_from(("fN", "fG", "frakf", "fG01", "nope")))
        argv = ["--which", which, *draw(st.sampled_from([[], surface])), "--order", draw(_INT)]
        argv += maybe("--t") + maybe("--alpha-bound")
    elif command == "fit":
        argv = ["--mode", draw(st.sampled_from(("nhat", "nhat-t", "gpoly"))), *surface]
        argv += maybe("--t") + maybe("--k")
        argv += maybe("--parity", lambda: ",".join(draw(st.lists(st.sampled_from("eoz"), min_size=1, max_size=4))))
        argv += draw(st.sampled_from([[], ["--json"]]))
    else:  # psi
        argv = surface
    return [command, *argv]


@given(_command_lines())
@settings(max_examples=200, deadline=None)
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
            assert rc == 2, argv
        else:
            assert rc in range(6), argv
            assert (len(err.getvalue().splitlines()) == 1) == (rc != 0), (argv, err.getvalue())
