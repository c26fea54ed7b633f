"""Recursion engine: traces, symmetries, refinements, convolution, cache."""

import hashlib
import os
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount import engine
from surfcount.closed import closed_G, closed_N
from surfcount.engine import (
    clear_memo,
    convolve_G_from_N,
    count_G,
    count_G_r,
    count_G_t,
    count_G_t_via_r,
    count_lattice,
    count_N,
    count_N_t,
    dilaton_reduce,
    load_cache,
    memo_size,
    save_cache,
)

# Values worked out by hand from the recursion's first steps.
TRACES_G = {
    (1, 1, (2,)): 3,
    (1, 1, (4,)): 13,
    (0, 2, (2, 0)): 2,
    (0, 2, (2, 2)): 6,
    (0, 2, (1, 1)): 1,
}

TRACES_N = {
    (1, 1, (2,)): 1,
    (1, 1, (4,)): 3,
    (0, 4, (2, 2, 2, 2)): 96,
}


def test_trace_values():
    for (g, n, b), v in TRACES_G.items():
        assert count_G(g, n, b) == v
    for (g, n, b), v in TRACES_N.items():
        assert count_N(g, n, b) == v


def test_empty_diagram_normalization():
    for g, n in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (0, 4)):
        assert count_G(g, n, (0,) * n) == 1
        assert count_N(g, n, (0,) * n) == 1


def test_zero_entry_sums_over_region_grades():
    # filling in an unmarked boundary, summed over the region grades
    want = sum(r * count_G_r(1, 1, (2,), r) for r in range(1, 4))
    assert count_G(1, 2, (2, 0)) == want


@given(st.integers(0, 1), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_symmetry_and_parity(g, n, data):
    b = tuple(data.draw(st.integers(0, 8)) for _ in range(n))
    perm = data.draw(st.permutations(range(n)))
    pb = tuple(b[i] for i in perm)
    assert count_G(g, n, b) == count_G(g, n, pb)
    assert count_N(g, n, b) == count_N(g, n, pb)
    if sum(b) % 2:
        assert count_G(g, n, b) == 0
        assert count_N(g, n, b) == 0


def test_refined_traces():
    assert count_N_t(1, 1, (4,), 0) == 1
    assert count_N_t(1, 1, (4,), 1) == 2
    assert count_G_r(0, 2, (2, 2), 2) == 2
    assert count_G_r(0, 2, (2, 2), 3) == 4
    assert count_G_r(0, 2, (2, 2), 1) == 0


def test_refinement_sums_small():
    for g, n in ((0, 3), (1, 1)):
        tmax = 2 * g + n - 1
        for total in range(0, 9, 2):
            b = (total,) + (0,) * (n - 1)
            assert sum(count_N_t(g, n, b, t) for t in range(tmax + 1)) == count_N(g, n, b)
            assert sum(count_G_t(g, n, b, t) for t in range(tmax + 1)) == count_G(g, n, b)


def test_refined_dual_routes_agree():
    for b in ((2, 2), (4, 2), (6, 0)):
        for t in range(4):
            assert count_G_t(1, 2, b, t) == count_G_t_via_r(1, 2, b, t)


def test_convolution_reproduces_G():
    for g, n, b in (
        (0, 2, (4, 2)),
        (0, 3, (2, 2, 2)),
        (1, 1, (6,)),
        (1, 2, (2, 2)),
    ):
        assert convolve_G_from_N(g, n, b) == count_G(g, n, b)


def test_closed_agree_spot():
    assert count_G(0, 3, (3, 1, 2)) == closed_G(0, 3, (3, 1, 2))
    assert count_N(0, 2, (5, 5)) == closed_N(0, 2, (5, 5))


def test_dilaton_spot():
    for r in range(1, 6):
        assert count_G_r(0, 3, (0, 2, 2), r) == dilaton_reduce(0, 3, (0, 2, 2), r)


def test_lattice_values():
    assert count_lattice(1, 1, (2,)) == 0
    assert count_lattice(1, 1, (4,)) == Fraction(1, 4)
    assert count_lattice(0, 3, (2, 4, 2)) == 1


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "memo.cache"
    count_G(1, 2, (4, 2))
    written = save_cache(str(path))
    assert written == memo_size()
    text = path.read_text()
    head, body = text.split("\n", 1)
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert head == f"surfcount-cache v2 {written} {digest}"
    clear_memo()
    assert memo_size() == 0
    loaded = load_cache(str(path))
    assert loaded == written
    assert count_G(1, 2, (4, 2)) == count_G(1, 2, (4, 2))


def test_cache_rejects_unknown_header(tmp_path, capsys):
    path = tmp_path / "bad.cache"
    path.write_text("surfcount-cache v99\nG 0 1 - 2 1\n")
    assert load_cache(str(path)) == 0
    assert "unknown version" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fn, args",
    [
        (count_G, (0, 1, (2.7,))),
        (count_G, (0, 1, ("4",))),
        (count_G, (True, 1, (2,))),
        (count_N, (0, True, (2,))),
        (count_N, (0, 1, (Fraction(4),))),
        (count_G_r, (0, 1, (4,), 2.5)),
        (count_N_t, (1, 1, (4,), True)),
        (count_G_t, (1, 1, (4,), 1.0)),
        (count_G_t_via_r, (1, 1, (4,), "1")),
        (dilaton_reduce, (0, 2, (0, 2), 2.0)),
        (count_lattice, (1, 1, (4.0,))),
        (convolve_G_from_N, (1, 1, (False,))),
    ],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_non_int_inputs_are_rejected(fn, args):
    with pytest.raises(TypeError):
        fn(*args)


class _Int(int):
    pass


def test_check_takes_plain_ints_fast_and_keeps_its_rules():
    for args in ((True, 1, (4,)), (1, 1, (4.0,)), (1, 1, (Fraction(4),)), (1, Fraction(1), (4,))):
        with pytest.raises(TypeError, match="must be ints"):
            engine._check(*args)
    for grade in (False, 0.0, Fraction(0)):
        with pytest.raises(TypeError, match="must be ints"):
            engine._check(1, 1, (4,), grade)
    assert engine._check(_Int(1), _Int(1), [_Int(4)], _Int(0)) == (4,)
    assert count_N(_Int(1), 1, (_Int(4),)) == count_N(1, 1, (4,))
    assert count_N_t(1, 1, (4,), _Int(1)) == count_N_t(1, 1, (4,), 1)
    with pytest.raises(ValueError, match="genus"):
        engine._check(-1, 1, (4,))


def test_lattice_rejects_disc_and_annulus():
    for g, n, b in ((0, 1, (4,)), (0, 2, (2, 2)), (0, 1, (3,))):
        with pytest.raises(ValueError):
            count_lattice(g, n, b)


def test_every_edge_lowers_the_termination_measure(monkeypatch):
    edges = []
    real_body = engine._body

    def spy(key):
        body, value = real_body(key), None
        while True:
            try:
                child = body.send(value)
            except StopIteration as done:
                return done.value
            edges.append((key, child))
            value = yield child

    def measure(key):
        _, g, n, b = key
        return (2 * g + n - 2, sum(b))

    monkeypatch.setattr(engine, "_body", spy)
    clear_memo()
    try:
        count_G(1, 2, (6, 4))
        count_G(0, 1, (12,))
        count_G_r(1, 2, (4, 2), 3)
        count_N(2, 1, (10,))
        count_N_t(1, 3, (4, 2, 0), 1)
        count_lattice(1, 3, (4, 2, 2))
        count_lattice(0, 5, (2, 2, 2, 1, 1))
    finally:
        clear_memo()
    assert {parent[0] for parent, _ in edges} == {"G", "Gr", "N", "Nt"}
    for parent, child in edges:
        assert child[0] == parent[0]
        assert measure(child) < measure(parent), (parent, child)


def test_driver_rejects_a_cycle(monkeypatch):
    bodies = []

    def looping(key):
        bodies.append(key)
        if len(bodies) > 50:  # the driver followed the cycle
            raise AssertionError("cycle not detected")
        yield key

    monkeypatch.setattr(engine, "_body", looping)
    clear_memo()
    with pytest.raises(RuntimeError):
        count_G(1, 1, (4,))
    assert bodies == [("G", 1, 1, (4,))]
    assert memo_size() == 0


def test_deep_disc_needs_no_recursion_limit_or_asserts():
    # python -O strips assert statements, so the child prints its checks
    code = textwrap.dedent(
        """
        import sys
        sys.setrecursionlimit(200)
        from surfcount import catalan, count_G, count_G_r, count_lattice
        want = catalan(300)
        print(count_G(0, 1, (600,)) == want)
        print(sum(count_G_r(0, 1, (600,), r) for r in range(303)) == want)
        for b in ((4,), (2, 2)):
            try:
                count_lattice(0, len(b), b)
            except ValueError:
                print(True)
        """
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 4


def _write_cache(path, body):
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"surfcount-cache v2 {body.count(chr(10))} {digest}\n{body}")


def test_cache_with_a_truncated_line_is_ignored(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    clear_memo()
    want = count_G(1, 1, (40,))
    save_cache(str(path))
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("G 1 1 40 "))
    lines[k] = lines[k][:-1]  # drop the last digit of the value
    path.write_text("\n".join(lines) + "\n")
    clear_memo()
    assert load_cache(str(path)) == 0
    assert "digest mismatch" in capsys.readouterr().err
    assert memo_size() == 0
    assert count_G(1, 1, (40,)) == want == 5881451896320


@pytest.mark.parametrize(
    "body",
    [
        "G 0 1 2 1\nG 0 1 4\n",  # a record short of a field
        "G 0 1 2 1\nG 0 1 4 2 2\n",  # a record with a field too many
        "G 0 2 4 2\n",  # boundary vector of the wrong length
        "Q 0 1 4 2\n",  # unknown family
        "G 0 1 4 two\n",
        "LatticeN 1 1 4 1/0\n",
    ],
)
def test_cache_with_a_malformed_record_is_ignored(tmp_path, capsys, body):
    path = tmp_path / "memo.cache"
    _write_cache(path, body)
    clear_memo()
    assert load_cache(str(path)) == 0
    assert "ignoring cache" in capsys.readouterr().err
    assert memo_size() == 0


def test_cache_record_count_and_old_version_are_checked(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    body = "G 0 1 2 1\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"surfcount-cache v2 2 {digest}\n{body}")
    assert load_cache(str(path)) == 0
    assert "record count" in capsys.readouterr().err
    path.write_text("surfcount-cache v1\nG 0 1 - 2 1\n")
    assert load_cache(str(path)) == 0
    assert "unknown version" in capsys.readouterr().err


def test_cache_save_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "memo.cache"
    count_G_r(1, 2, (4, 2), 3)
    count_lattice(1, 2, (3, 1))
    written = save_cache(str(path))
    assert os.listdir(tmp_path) == ["memo.cache"]
    clear_memo()
    assert load_cache(str(path)) == written
    assert count_G_r(1, 2, (4, 2), 3) == 66


def _rewrites(path, action) -> bool:
    """Whether ``action()`` replaced the file: every write makes a new inode."""
    before = os.stat(path).st_ino
    action()
    return os.stat(path).st_ino != before


def test_cache_load_into_a_nonempty_memo_saves_the_union(tmp_path):
    path = str(tmp_path / "memo.cache")
    clear_memo()
    count_G(0, 1, (10,))
    on_file = save_cache(path)
    clear_memo()
    count_N(1, 1, (8,))
    assert load_cache(path) == on_file
    union = memo_size()
    assert union > on_file
    assert _rewrites(path, lambda: save_cache(path))
    clear_memo()
    assert load_cache(path) == union


def test_cache_save_skips_only_an_unchanged_file_and_memo(tmp_path):
    path = str(tmp_path / "memo.cache")
    clear_memo()
    count_G(1, 1, (10,))
    written = save_cache(path)
    assert not _rewrites(path, lambda: save_cache(path))
    assert load_cache(path) == written
    assert not _rewrites(path, lambda: save_cache(path)) and save_cache(path) == written
    count_G(1, 1, (12,))  # the memo grew
    assert _rewrites(path, lambda: save_cache(path))
    clear_memo()  # the same records again, recomputed
    count_G(1, 1, (12,))
    assert _rewrites(path, lambda: save_cache(path))


def test_cache_changed_on_disk_after_a_load_is_written(tmp_path):
    path = str(tmp_path / "memo.cache")
    other = str(tmp_path / "other.cache")
    clear_memo()
    count_G(1, 1, (10,))
    written = save_cache(path)
    shutil.copy(path, other)
    clear_memo()
    assert load_cache(path) == written
    os.remove(path)
    assert save_cache(path) == written and os.path.exists(path)
    assert load_cache(path) == written
    os.replace(other, path)  # the same bytes, another file
    assert _rewrites(path, lambda: save_cache(path))
    clear_memo()
    assert load_cache(path) == written


# (g, n) -> largest entry of the frozen sweep; the sweep meets every fold's
# fixed point: the disc with i == j, n = 1 at even g with g1 == g2, and
# repeated and zero entries.
SWEEP = {
    (0, 1): 40, (0, 2): 14, (0, 3): 10, (0, 4): 6, (0, 5): 4, (1, 1): 20,
    (1, 2): 10, (1, 3): 6, (2, 1): 16, (2, 2): 8, (3, 1): 12, (4, 1): 10,
}


def _sweep_lines():
    for (g, n), top in SWEEP.items():
        for b in combinations_with_replacement(range(top, -1, -1), n):
            row = [
                f"{g} {n} {','.join(map(str, b))}",
                str(count_G(g, n, b)),
                str(count_N(g, n, b)),
                str(engine._eval(("Gr", g, n, b))),
                str(engine._eval(("Nt", g, n, b))),
            ]
            if sum(b) % 2 == 0 and b[0] <= 8:
                row.append(str(count_G_t(g, n, b, 0)))
            if 2 * g - 2 + n >= 1 and b[-1] > 0:
                row.append(str(count_lattice(g, n, b)))
            yield " ".join(row)


def test_engine_sweep_is_frozen():
    # G, N, the Gr and Nt grade vectors, Gt at t = 0 and the lattice twin on
    # every sorted b within SWEEP; digest recorded before the bodies folded
    # their mirror-image terms
    lines = list(_sweep_lines())
    assert len(lines) == 1040
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "213c3c0f2bbc969c817adfe9924b70b65b25e8b8ff1ec150dbda3132f640c7a9"


class _CountingMemo(engine._Memo):
    """A memo that counts its reads and records the keys read."""

    def __init__(self):
        super().__init__()
        self.reads, self.read = 0, set()

    def __getitem__(self, key):
        self.reads += 1
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "fn, args, reads, entries",
    [
        # memo reads before the folds, in order: 114,744, 40,201, 88,374
        # and 29,866.  The disc and Nt now read each distinct child once per
        # body; the other two read a key twice in a body almost only where
        # its b has equal entries (or a zero entry).  Shape B then computed
        # its pants children in place, without a memo read: the N and Nt rows
        # read 43,900 and 16,036 before; the entry counts did not move.
        # Shape B then read its cut and join sums from running sums kept per
        # row: the N and Nt rows read 25,426 and 4,221 before; the entries
        # did not move.  The lattice twin, once a family of its own, now
        # reads exactly the Nt row below.
        pytest.param(count_N, (3, 1, (30,)), 7949, 1322, id="count_N(3,1,(30,))"),
        pytest.param(count_G, (0, 1, (400,)), 20101, 200, id="count_G(0,1,(400,))"),
        pytest.param(count_G, (2, 2, (16, 16)), 45641, 1452, id="count_G(2,2,(16,16))"),
        pytest.param(count_N_t, (2, 1, (40,), 0), 440, 229, id="count_N_t(2,1,(40,),0)"),
    ],
)
def test_cold_memo_reads_are_pinned(monkeypatch, fn, args, reads, entries):
    memo = _CountingMemo()
    monkeypatch.setattr(engine, "_MEMO", memo)
    fn(*args)
    assert (memo.reads, len(memo)) == (reads, entries)


# shape-B keys met by every row kind: cuts (g >= 1), joins onto zero and
# nonzero boundaries, repeated entries, odd entries and deep one-entry pieces
ROW_KEYS = [
    ("N", 3, 1, (24,)), ("N", 1, 3, (8, 4, 0)), ("N", 2, 2, (10, 6)), ("N", 0, 5, (6, 4, 4, 2, 0)),
    ("Nt", 2, 1, (20,)), ("Nt", 1, 3, (6, 2, 0)), ("Nt", 0, 4, (8, 2, 0, 0)), ("Nt", 1, 2, (12, 0)),
    ("Nt", 2, 1, (22,)), ("Nt", 1, 3, (7, 5, 2)), ("Nt", 0, 5, (4, 3, 3, 1, 1)),
    ("Nt", 2, 2, (9, 3)),
]


def _values(keys):
    return {key: engine._eval(key) for key in keys}


def test_rows_give_the_same_values_in_any_order():
    clear_memo()
    try:
        ascending = _values(sorted(ROW_KEYS, key=lambda k: (k[3][0], k)))
        clear_memo()
        descending = _values(sorted(ROW_KEYS, key=lambda k: (k[3][0], k), reverse=True))
        cold = {}
        for key in ROW_KEYS:
            clear_memo()
            cold.update(_values([key]))
    finally:
        clear_memo()
    assert ascending == descending == cold


def test_rows_live_on_the_memo_and_clear_with_it(monkeypatch):
    def lengths(memo):
        return {key: len(row.ramp) for key, row in memo.rows.items()}

    clear_memo()
    count_N(2, 1, (12,))
    outer = engine._MEMO
    kept = lengths(outer)
    assert kept
    memo = _CountingMemo()
    assert memo.rows == {}  # a swapped-in memo starts with no rows
    monkeypatch.setattr(engine, "_MEMO", memo)
    count_N(2, 1, (14,))
    assert memo.rows and lengths(outer) == kept
    monkeypatch.undo()
    clear_memo()
    assert outer.rows == {} and memo_size() == 0


def test_a_key_missing_from_a_loaded_cache_gets_the_cold_value(tmp_path):
    path = str(tmp_path / "memo.cache")
    clear_memo()
    count_N(3, 1, (20,))
    count_N_t(2, 2, (10, 4), 1)
    count_lattice(2, 1, (20,))
    save_cache(path)
    clear_memo()
    try:
        assert load_cache(path) > 0 and engine._MEMO.rows == {}
        warm = [
            count_N(3, 1, (26,)),
            count_N_t(2, 2, (14, 4), 1),
            str(engine._eval(("Nt", 2, 2, (12, 6)))),
            count_lattice(2, 1, (26,)),
        ]
    finally:
        clear_memo()
    code = (
        "from surfcount import engine\n"
        "from surfcount.engine import count_N, count_N_t, count_lattice\n"
        "print(count_N(3, 1, (26,)))\n"
        "print(count_N_t(2, 2, (14, 4), 1))\n"
        "print(engine._eval(('Nt', 2, 2, (12, 6))))\n"
        "print(count_lattice(2, 1, (26,)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(v) for v in warm]


def test_a_row_grown_under_its_extension_raises():
    clear_memo()
    try:
        ext = engine._ramps(engine._FAMILIES["N"], "N", True, 1, (), 10)
        child = next(ext)  # cold memo: the extension waits for a child
        count_N(2, 1, (12,))  # a body that extends the same row meanwhile
        with pytest.raises(RuntimeError, match="grew while"):
            while True:
                child = ext.send(engine._eval(child))
    finally:
        clear_memo()
