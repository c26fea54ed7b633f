"""Command-line surface: outputs, exit codes, cache, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from surfcount import cli, engine, fitlab
from surfcount.cli import main
from surfcount.closed import catalan
from surfcount.engine import clear_memo, count_N


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
    assert err == f"internal error: {exc}\n"


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
    prof = json.loads(out)
    assert prof == {"p1": 1, "p2": 0, "p3": 0, "t12": 2, "t23": 0, "t31": 2}
    rc, out, _ = run(capsys, "oracle", "--arrows", "2")
    assert "6 labellings, 6 distinct" in out
    rc, _, _ = run(capsys, "oracle", "--disc", "1", "--pants", "0,0,0")
    assert rc == 2


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
    path = tmp_path / "memo.cache"
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "1", "--n", "2", "--b", "4,2",
        "--cache", str(path),
    )
    assert rc == 0
    first = out
    assert path.exists()
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "1", "--n", "2", "--b", "4,2",
        "--cache", str(path),
    )
    assert out == first
    # env fallback
    monkeypatch.setenv("SURFCOUNT_CACHE", str(tmp_path / "env.cache"))
    rc, out, _ = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "6", "--cache"
    )
    assert rc == 0 and out.strip() == "5"
    # no path anywhere is a usage error
    monkeypatch.delenv("SURFCOUNT_CACHE")
    rc, _, err = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "6", "--cache"
    )
    assert rc == 2


def test_cache_io_error(tmp_path, capsys):
    bad = tmp_path / "nodir" / "x.cache"
    rc, _, err = run(
        capsys, "count", "--mode", "G", "--g", "0", "--n", "1", "--b", "2",
        "--cache", str(bad),
    )
    assert rc == 4 and "i/o" in err


TORUS_40 = ("count", "--mode", "G", "--g", "1", "--n", "1", "--b", "40")


def test_truncated_cache_line_cannot_change_the_output(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("G 1 1 40 "))
    lines[k] = lines[k][:-1]  # the value loses its last digit
    path.write_text("\n".join(lines) + "\n")
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "ignoring cache" in err


def test_malformed_cache_record_is_not_a_usage_error(tmp_path, capsys, write_cache):
    path = tmp_path / "memo.cache"
    write_cache(path, "G 1 1 40 5881451896320 extra\n")
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "malformed record" in err


def test_unchanged_cache_is_not_rewritten(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    clear_memo()
    rc, first, _ = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0
    before, text = path.stat(), path.read_bytes()
    clear_memo()  # as in a fresh process
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))
    after = path.stat()
    assert rc == 0 and out == first
    assert path.read_bytes() == text
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    rc, out, _ = run(capsys, "count", "--mode", "G", "--g", "1", "--n", "1", "--b", "42",
                     "--cache", str(path))
    assert rc == 0 and path.stat().st_ino != after.st_ino
    assert int(path.read_text().split(" ", 3)[2]) > int(text.split(b" ", 3)[2])


def test_ignored_cache_is_rewritten_without_new_records(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    clear_memo()
    rc, first, _ = run(capsys, *TORUS_40, "--cache", str(path))
    text, stamp = path.read_text(), path.stat()
    path.write_text(text.replace("G 1 1 40 5881451896320", "G 1 1 40 5881451896321"))
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))  # unchanged to os.stat
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))  # the memo holds every key
    assert rc == 0 and out == first and "digest mismatch" in err
    assert path.read_text() == text


def test_cache_grown_by_another_process_keeps_its_records(tmp_path, capsys, monkeypatch):
    path, grown = tmp_path / "memo.cache", tmp_path / "grown.cache"
    clear_memo()
    assert run(capsys, *TORUS_40, "--cache", str(grown))[0] == 0
    assert run(capsys, "count", "--mode", "N", "--g", "1", "--n", "1", "--b", "20",
               "--cache", str(grown))[0] == 0
    clear_memo()
    assert run(capsys, *TORUS_40, "--cache", str(path))[0] == 0
    load = cli.load_cache

    def load_then_grown_elsewhere(where):
        loaded = load(where)
        shutil.copy(grown, where)  # another process saves its larger memo
        return loaded

    monkeypatch.setattr(cli, "load_cache", load_then_grown_elsewhere)
    clear_memo()
    rc, out, _ = run(capsys, *TORUS_40, "--cache", str(path))  # adds no record
    assert rc == 0 and out.strip() == "5881451896320"
    assert path.read_bytes() == grown.read_bytes()


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
    path = tmp_path / "memo.cache"
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


def test_cache_with_a_removed_family_is_ignored_and_rewritten(tmp_path, capsys, write_cache):
    # a cache written while the lattice twin was an engine family of its own
    path = tmp_path / "memo.cache"
    write_cache(path, "G 1 1 40 5881451896320\nLatticeN 1 1 4 1/4\n")
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "ignoring cache" in err and "malformed record on line 3" in err
    text = path.read_text()
    assert "G 1 1 40 5881451896320\n" in text and "LatticeN" not in text


BIG_DISC = ("count", "--mode", "G", "--g", "0", "--n", "1", "--b", "16000")


@pytest.mark.parametrize("extra", [("--t", "0"), ("--closed-only",)])
def test_counts_of_any_size_are_printed(capsys, extra):
    want = catalan(8000)  # 4,811 digits
    rc, out, _ = run(capsys, *BIG_DISC, *extra)
    assert rc == 0 and int(out) == want
    rc, out, _ = run(capsys, *BIG_DISC, *extra, "--json")
    assert rc == 0 and int(json.loads(out)["count"]) == want


class _CacheOnlyMemo(engine._Memo):
    def __missing__(self, key):
        raise RuntimeError(f"{key} did not come from the cache")


def test_counts_of_any_size_round_trip_through_the_cache(tmp_path, capsys, monkeypatch):
    path = tmp_path / "memo.cache"
    memo = engine._Memo()
    memo[("G", 0, 1, (16000,))] = catalan(8000)  # too slow to recompute here
    monkeypatch.setattr(engine, "_MEMO", memo)
    rc, first, _ = run(capsys, *BIG_DISC, "--cache", str(path))
    assert rc == 0 and int(first) == catalan(8000)
    monkeypatch.setattr(engine, "_MEMO", _CacheOnlyMemo())
    rc, out, err = run(capsys, *BIG_DISC, "--cache", str(path))
    assert (rc, out, err) == (0, first, "")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "Q", "--g", "0", "--n", "1", "--b", "2"])
    assert exc.value.code == 2
