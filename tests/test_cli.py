"""Command-line surface: outputs, exit codes, cache, determinism."""

import hashlib
import json

import pytest

from surfcount import cli, fitlab
from surfcount.cli import main
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
    assert rc == 3
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


def test_sums_command(capsys):
    rc, out, _ = run(capsys, "sums", "--family", "A", "--m", "0", "--k-max", "4")
    rows = out.strip().splitlines()
    assert rows[0] == "k,value"
    assert rows[1:5] == ["0,0", "1,0", "2,2", "3,2"]
    fitted = json.loads(rows[-1])
    assert "branches" in fitted


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


def test_verify_suite_exit_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "oracles")
    assert rc == 0
    assert out.strip().endswith("RESULT: PASS (3 checks)")


def test_verify_threads_byte_identical(capsys):
    rc1, out1, _ = run(capsys, "verify", "--suite", "closed-forms", "--threads", "1")
    rc2, out2, _ = run(capsys, "verify", "--suite", "closed-forms", "--threads", "8")
    assert rc1 == rc2 == 0 and out1 == out2


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


def test_malformed_cache_record_is_not_a_usage_error(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    body = "G 1 1 40 5881451896320 extra\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"surfcount-cache v2 1 {digest}\n{body}")
    clear_memo()
    rc, out, err = run(capsys, *TORUS_40, "--cache", str(path))
    assert rc == 0 and out.strip() == "5881451896320"
    assert "malformed record" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "Q", "--g", "0", "--n", "1", "--b", "2"])
    assert exc.value.code == 2
