"""Recursion engine: traces, symmetries, refinements, convolution, cache."""

import hashlib
import marshal
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount import engine
from surfcount.closed import catalan, closed_G, closed_N, closed_refined
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
from surfcount.exact import binomial, vectors_with_sum_at_most

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


def _collar_inputs():
    """Every b with sum(b) <= 10 on heads past verify's sweep: the collar
    route and the dual refined route where verify never reaches."""
    for g, n in ((1, 3), (2, 1), (2, 2), (0, 5)):
        for b in vectors_with_sum_at_most(n, 10):
            yield g, n, b


def test_refined_dual_routes_agree():
    for b in ((2, 2), (4, 2), (6, 0)):
        for t in range(4):
            assert count_G_t(1, 2, b, t) == count_G_t_via_r(1, 2, b, t)
    for g, n, b in _collar_inputs():
        grades = [count_G_t(g, n, b, t) for t in range(2 * g + n)]
        assert sum(grades) == count_G(g, n, b), (g, n, b)
        assert grades == [count_G_t_via_r(g, n, b, t) for t in range(2 * g + n)], (g, n, b)


def test_convolution_reproduces_G():
    # every b, sorted or not, up to a total per (g, n): the formula heads of N
    # against the G recursion beyond the verify sweep
    wide = [(0, n, b) for n, top in ((2, 40), (3, 24), (4, 14)) for b in vectors_with_sum_at_most(n, top)]
    assert len(wide) == 861 + 2925 + 3060
    for g, n, b in (
        (0, 2, (4, 2)),
        (0, 3, (2, 2, 2)),
        (1, 1, (6,)),
        (1, 2, (2, 2)),
        *_collar_inputs(),
        *wide,
    ):
        assert convolve_G_from_N(g, n, b) == count_G(g, n, b), (g, n, b)


def _ref_G_t(g, n, b, t):
    """The refined all-diagram count as ``count_G_t`` assembled it before
    ``Gt`` was a family: zero on odd totals, Catalan at the disc for t = 0,
    otherwise the collar weights times the parallel-free refined counts."""
    if sum(b) % 2:
        return 0
    if (g, n) == (0, 1):
        return catalan(b[0] // 2) if t == 0 else 0
    return sum(w * count_N_t(g, n, a, t) for a, w in engine._collars(b).items())


@pytest.mark.parametrize("g, n", [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_the_Gt_family_gives_the_collar_assembly(g, n):
    clear_memo()
    try:
        for b in vectors_with_sum_at_most(n, 10):
            if list(b) == sorted(b, reverse=True):
                for t in range(2 * g + n):
                    assert count_G_t(g, n, b, t) == _ref_G_t(g, n, b, t), (g, n, b, t)
    finally:
        clear_memo()


def _collars_by_filling(b):
    """The collar weights the way they were first written: every filling
    enumerated, each core sorted."""
    weights = {}
    for fill in product(*([(y, binomial(x, (x - y) // 2)) for y in range(x % 2, x + 1, 2)] for x in b)):
        core, ws = zip(*fill)
        core = tuple(sorted(core, reverse=True))
        weights[core] = weights.get(core, 0) + prod(ws)
    return weights


def test_collar_weights_merge_cores_entry_by_entry():
    for n in range(1, 5):
        for b in vectors_with_sum_at_most(n, 14):
            assert engine._collars(b) == _collars_by_filling(b), b


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


def _heads(path) -> set:
    """The heads (family, g, n) of the files in the cache directory ``path``."""
    return {(name, int(g, 16), int(n, 16)) for name, g, n in (f.split("-") for f in os.listdir(path))}


def _read(path, head):
    """The table of ``head`` in a cold memo attached to the cache directory
    ``path``: fetching it reads its file."""
    clear_memo()
    assert load_cache(str(path)) == 0  # an empty memo reads no file yet
    return engine._MEMO[head]


def test_cache_roundtrip(tmp_path, cache_records):
    path = tmp_path / "cache"
    clear_memo()
    want = count_G(1, 2, (4, 2))
    written = save_cache(str(path))
    assert written == memo_size() and _heads(path) == set(engine._MEMO)
    head, body = (path / "G-1-2").read_bytes().split(b"\n", 1)
    digest = hashlib.sha256(body).hexdigest()
    assert head.decode() == f"surfcount-cache {engine._fingerprint()} {digest}"
    records = cache_records(path / "G-1-2")
    assert body == marshal.dumps(records, 2) and list(records) == sorted(records)
    try:
        table = _read(path, ("G", 1, 2))
        assert table.held == len(table) == len(records) == memo_size()
        assert count_G(1, 2, (4, 2)) == want
    finally:
        clear_memo()


def test_cache_rejects_unknown_header(tmp_path, capsys):
    path = tmp_path / "cache"
    path.mkdir()
    body = marshal.dumps({(2,): 1}, 2)
    digest = hashlib.sha256(body).hexdigest()
    # the last is the header of the single cache file this layout replaced
    for header in ("surfcount-cache v99", "surfcount-cache v1", f"surfcount-cache {engine._fingerprint()} 1 {digest}"):
        (path / "G-0-1").write_bytes(f"{header}\n".encode() + body)
        try:
            assert _read(path, ("G", 0, 1)) == {}
            assert count_G(0, 1, (2,)) == 1
        finally:
            clear_memo()
        assert "unknown version" in capsys.readouterr().err


def test_a_header_that_is_not_ascii_is_refused(tmp_path, capsys):
    path = tmp_path / "cache"
    path.mkdir()
    (path / "G-0-1").write_bytes(b"surfcount-cache \xe9\n" + marshal.dumps({(2,): 1}, 2))
    try:
        table = _read(path, ("G", 0, 1))
        assert (table, table.held) == ({}, -1) and count_G(0, 1, (2,)) == 1
    finally:
        clear_memo()
    err = capsys.readouterr().err
    assert "'ascii' codec can't decode byte" in err and err.count("\n") == 1


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
        with pytest.raises(TypeError, match="must be an int"):
            engine._check(*args)
    for grade in (False, 0.0, Fraction(0)):
        with pytest.raises(TypeError, match="must be an int"):
            engine._check(1, 1, (4,), grade)
    assert engine._check(_Int(1), _Int(1), [_Int(4)], _Int(0)) == (4,)
    assert count_N(_Int(1), 1, (_Int(4),)) == count_N(1, 1, (4,))
    assert count_N_t(1, 1, (4,), _Int(1)) == count_N_t(1, 1, (4,), 1)
    with pytest.raises(ValueError, match="genus"):
        engine._check(-1, 1, (4,))


# every public count, and whether it takes a grade (r or t)
_PUBLIC_COUNTS = [
    (count_G, False), (count_N, False), (count_lattice, False),
    (count_G_r, True), (count_N_t, True), (count_G_t, True), (count_G_t_via_r, True),
]
_a_public_count = st.sampled_from(_PUBLIC_COUNTS)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@given(_a_public_count, st.integers(0, 2), st.integers(1, 3), st.data())
@settings(max_examples=120, deadline=None)
def test_a_public_count_takes_b_as_any_iterable_of_ints_in_any_order(count, g, n, data):
    fn, graded = count
    b = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    grades = (data.draw(st.integers(0, 4)),) if graded else ()
    want = _outcome(fn, g, n, b, *grades)
    perm = tuple(data.draw(st.permutations(b)))
    for form in (list(b), iter(b), (x for x in b), perm, tuple(map(_Int, b))):
        assert _outcome(fn, g, n, form, *grades) == want
    assert _outcome(fn, _Int(g), _Int(n), b, *map(_Int, grades)) == want


@given(_a_public_count, st.data())
@settings(max_examples=120, deadline=None)
def test_a_bool_float_or_fraction_in_any_slot_is_not_an_int(count, data):
    fn, graded = count
    args = [1, 2, [4, 2], *([1] if graded else [])]
    slot = data.draw(st.integers(0, 3 + graded))  # g, n, b[0], b[1], then the grade
    bad = data.draw(st.booleans() | st.floats() | st.fractions())
    if slot in (2, 3):
        args[2][slot - 2] = bad
    else:
        args[slot - (slot > 3)] = bad
    with pytest.raises(TypeError, match="must be an int"):
        fn(*args)


_GENUS, _SHAPE, _ENTRY = (
    "genus must be >= 0",
    "need n >= 1 boundary components and len(b) == n",
    "boundary point counts must be >= 0",
)


@given(_a_public_count, st.integers(0, 2), st.integers(1, 3), st.sampled_from((_GENUS, _SHAPE, _ENTRY)), st.data())
@settings(max_examples=120, deadline=None)
def test_a_negative_genus_a_bad_shape_or_a_negative_entry_is_a_value_error(count, g, n, fault, data):
    fn, graded = count
    b = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if fault == _GENUS:
        g = data.draw(st.integers(-5, -1))
    elif fault == _ENTRY:
        b[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-5, -1))
    elif data.draw(st.booleans()):  # n < 1, with as many entries or more
        n = data.draw(st.integers(-2, 0))
        b = b[: data.draw(st.integers(max(n, 0), len(b)))]
    else:  # len(b) != n
        b = data.draw(st.lists(st.integers(0, 6), max_size=4).filter(lambda x: len(x) != n))
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        fn(g, n, b, *([1] if graded else []))


def test_lattice_rejects_disc_and_annulus():
    for g, n, b in ((0, 1, (4,)), (0, 2, (2, 2)), (0, 1, (3,))):
        with pytest.raises(ValueError):
            count_lattice(g, n, b)


def test_every_edge_lowers_the_termination_measure(monkeypatch):
    edges, running = [], []
    real_body = engine._body

    def spy(key):
        if running:
            edges.append((running[-1], key))
        running.append(key)
        try:
            return real_body(key)
        finally:
            running.pop()

    def measure(key):
        _, g, n, b = key
        return (2 * g + n - 2, sum(b))

    monkeypatch.setattr(engine, "_body", spy)
    clear_memo()
    try:
        count_G(1, 2, (6, 4))
        count_G(0, 1, (12,))
        count_G(1, 3, (4, 3, 1))
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
        return engine._fill(key)

    monkeypatch.setattr(engine, "_body", looping)
    clear_memo()
    with pytest.raises(RuntimeError):
        count_G(1, 1, (4,))
    assert bodies == [("G", 1, 1, (4,))]
    assert memo_size() == 0


@st.composite
def _small_keys(draw):
    """A key of any family with g <= 2, n <= 4 - g and entries <= 8 of an even total."""
    g = draw(st.integers(0, 2))
    b = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4 - g))
    b[0] += sum(b) % 2
    return draw(st.sampled_from(("G", "Gr", "N", "Nt", "Gt"))), g, len(b), tuple(sorted(b, reverse=True))


@given(st.lists(_small_keys(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_bodies_nest_at_most_2g_plus_n_plus_2_deep(keys):
    # the keys before each one leave the memo in a random state: entries and partly grown rows
    real_body, running, deepest = engine._body, [0], [0]

    def spy(key):
        running[0] += 1
        deepest[0] = max(deepest[0], running[0])
        try:
            return real_body(key)
        finally:
            running[0] -= 1

    clear_memo()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_body", spy)
        try:
            for key in keys:
                _, g, n, _ = key
                deepest[0] = 0
                engine._eval(key)
                assert deepest[0] <= 2 * g + n + 2, key
        finally:
            clear_memo()


def test_deep_disc_needs_no_recursion_limit_or_asserts():
    # python -O strips assert statements, so the child prints its checks
    code = textwrap.dedent(
        """
        import sys
        sys.setrecursionlimit(200)
        from surfcount import catalan, convolve_G_from_N, count_G, count_G_r, count_lattice
        want = catalan(300)
        print(count_G(0, 1, (600,)) == want)
        print(sum(count_G_r(0, 1, (600,), r) for r in range(303)) == want)
        for b in ((4,), (2, 2)):
            try:
                count_lattice(0, len(b), b)
            except ValueError:
                print(True)
        # the deepest nesting met, 9 bodies: both shapes, checked one against the other
        for g, n, b in ((1, 7, (3, 3, 3, 3, 3, 3, 2)), (0, 8, (4,) * 8), (4, 3, (10, 10, 10)), (6, 1, (30,))):
            print(count_G(g, n, b) == convolve_G_from_N(g, n, b) > 0)
        """
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 8


def test_cache_with_a_truncated_line_is_ignored(tmp_path, capsys, cache_records):
    path = tmp_path / "cache"
    clear_memo()
    want = count_G(1, 1, (40,))
    save_cache(str(path))
    assert list(cache_records(path / "G-1-1").items())[-1] == ((40,), want)  # b = (40,) comes last
    data = (path / "G-1-1").read_bytes()
    (path / "G-1-1").write_bytes(data[:-1])  # the body loses its last byte
    try:
        assert _read(path, ("G", 1, 1)) == {} and memo_size() == 0
        assert "digest mismatch" in capsys.readouterr().err
        assert count_G(1, 1, (40,)) == want == 5881451896320
    finally:
        clear_memo()


FAMILIES = ("G", "N", "Gr", "Nt", "Gt")  # the heads of the memo: a file of any other family is never read


@pytest.mark.parametrize(
    "body",
    [
        # "family g n body", the body in the text form of older versions, one
        # line of hexadecimal records: no marshal data, so a malformed record
        "G 0 1 2:1 4\n",  # a record short of a field
        "G 0 1 2:1 4:2:2\n",  # a record with a field too many
        "G 0 2 4:2\n",  # boundary vector of the wrong length
        "Q 0 1 4 2\n",  # unknown family: refused at its head, whatever follows
        "G 0 1 4:two\n",
        "LatticeN 1 1 4 1/0\n",  # a removed family, likewise
    ],
)
def test_cache_with_a_malformed_record_is_ignored(tmp_path, capsys, write_cache, body):
    # every family's table of the file's (g, n) is fetched: a file of a family
    # the engine does not have is never read
    name, g, n, text = body.split(" ", 3)
    write_cache(tmp_path, (name, int(g, 16), int(n, 16)), text.encode())
    clear_memo()
    try:
        assert load_cache(str(tmp_path)) == 0
        for family in FAMILIES:
            assert engine._MEMO[family, int(g, 16), int(n, 16)] == {}
        assert memo_size() == 0
    finally:
        clear_memo()
    assert ("ignoring cache" in capsys.readouterr().err) == (name in FAMILIES)


def test_cache_save_leaves_no_temporary_file(tmp_path, cache_records):
    path = tmp_path / "cache"
    clear_memo()
    count_G_r(1, 2, (4, 2), 3)
    count_lattice(1, 2, (3, 1))
    written = save_cache(str(path))
    assert os.listdir(tmp_path) == ["cache"]
    assert sorted(os.listdir(path)) == sorted("%s-%x-%x" % head for head, table in engine._MEMO.items() if table)
    assert written == memo_size() == sum(len(cache_records(path / f)) for f in os.listdir(path))
    try:
        assert _read(path, ("Gr", 1, 2)) and count_G_r(1, 2, (4, 2), 3) == 66
    finally:
        clear_memo()


def _inodes(path) -> dict:
    """The inode of each file in the cache directory ``path``: every write makes a new one."""
    return {f: os.stat(path / f).st_ino for f in os.listdir(path)}


def test_cache_load_into_a_nonempty_memo_saves_the_union(tmp_path):
    path = tmp_path / "cache"
    clear_memo()
    try:
        count_G(0, 1, (10,))
        on_file = save_cache(str(path))
        clear_memo()
        engine._MEMO["G", 0, 1][14,] = catalan(7)  # a key the file does not hold
        count_N(1, 1, (8,))
        assert load_cache(str(path)) == on_file  # a table the memo holds reads its file at once
        union = memo_size()
        assert len(engine._MEMO["G", 0, 1]) == on_file + 1
        before = _inodes(path)
        assert save_cache(str(path)) == union
        assert _inodes(path)["G-0-1"] != before["G-0-1"]
        clear_memo()
        load_cache(str(path))
        assert sum(len(engine._MEMO[head]) for head in _heads(path)) == union
    finally:
        clear_memo()


def test_cache_save_writes_only_the_tables_that_grew(tmp_path):
    path = tmp_path / "cache"
    clear_memo()
    try:
        count_N(1, 1, (8,))
        count_G(1, 1, (10,))
        save_cache(str(path))
        before = _inodes(path)
        assert _read(path, ("N", 1, 1)) and count_N(1, 1, (8,)) == 14
        assert save_cache(str(path)) == 0 and _inodes(path) == before  # read, not grown
        count_G(1, 1, (12,))  # grows the G tables it reads
        grown = {"%s-%x-%x" % head: len(table) for head, table in engine._MEMO.items() if len(table) > table.held}
        assert set(grown) == {"G-1-1", "G-0-2", "G-0-1"}
        assert save_cache(str(path)) == sum(grown.values())
        after = _inodes(path)
        assert {f for f in after if after[f] != before[f]} == set(grown)
        assert save_cache(str(path)) == 0 and _inodes(path) == after
    finally:
        clear_memo()


def test_cache_written_by_other_source_is_ignored(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache"
    clear_memo()
    cold = count_N(2, 1, (4,))
    written = save_cache(str(path))
    try:
        assert _read(path, ("N", 2, 1)).held == len(engine._MEMO["N", 2, 1]) > 0
        monkeypatch.setattr(engine, "_fingerprint", lambda: "0" * 64)
        table = _read(path, ("N", 2, 1))
        assert "ignoring cache" in capsys.readouterr().err
        assert (table, table.held, memo_size()) == ({}, -1, 0)
        assert count_N(2, 1, (4,)) == cold == 13
        assert save_cache(str(path)) == memo_size() <= written  # each refused file it read is rewritten
    finally:
        clear_memo()


def test_cache_changed_on_disk_after_a_load_is_written(tmp_path, cache_records):
    # a file changed before its table reads it is read as it is then; one
    # changed after is left as it is until its table grows
    path = tmp_path / "cache"
    clear_memo()
    try:
        count_G(1, 1, (10,))
        save_cache(str(path))
        file = path / "G-1-1"
        data, held = file.read_bytes(), len(cache_records(file))
        clear_memo()
        load_cache(str(path))
        os.remove(file)  # after the load, before the read
        assert engine._MEMO["G", 1, 1] == {} and save_cache(str(path)) == 0
        file.write_bytes(data)
        assert _read(path, ("G", 1, 1)).held == held
        os.remove(file)  # another process deletes the file, then writes the same bytes
        assert save_cache(str(path)) == 0 and not file.exists()
        file.write_bytes(data)
        before = _inodes(path)
        assert save_cache(str(path)) == 0 and _inodes(path) == before
        count_G(1, 1, (12,))
        assert save_cache(str(path)) > 0 and _inodes(path)["G-1-1"] != before["G-1-1"]
        assert len(cache_records(file)) == held + 1
    finally:
        clear_memo()


# (g, n) -> largest entry of the frozen sweep; the sweep meets every fold's
# fixed point: the disc with i == j, n = 1 at even g with g1 == g2, and
# repeated and zero entries.
SWEEP = {
    (0, 1): 40, (0, 2): 14, (0, 3): 10, (0, 4): 6, (0, 5): 4, (1, 1): 20,
    (1, 2): 10, (1, 3): 6, (2, 1): 16, (2, 2): 8, (3, 1): 12, (4, 1): 10,
}


def _grades_text(grades) -> str:
    return ",".join(map(str, grades)) or "-"


def _sweep_lines():
    for (g, n), top in SWEEP.items():
        for b in combinations_with_replacement(range(top, -1, -1), n):
            row = [
                f"{g} {n} {','.join(map(str, b))}",
                str(count_G(g, n, b)),
                str(count_N(g, n, b)),
                _grades_text(engine._eval(("Gr", g, n, b))),
                _grades_text(engine._eval(("Nt", g, n, b))),
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


class _CountingTable(engine._Table):
    """A table that counts its reads on its memo."""

    __slots__ = ("memo",)

    def __getitem__(self, b):
        self.memo.reads += 1
        return super().__getitem__(b)


class _CountingMemo(engine._Memo):
    """A memo whose tables count their reads."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def __missing__(self, head):
        table = self[head] = _CountingTable(head)
        table.memo = self
        self.read(head, table)
        return table


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
        # reads exactly the Nt row below.  Every one-entry piece is then read
        # once per memo through a value row shared by all bodies: the rows
        # read 7,949, 20,101, 45,641 and 440 before; the entries did not move.
        # Shape A's joins then read their pieces through the same value rows:
        # the G row read 7,218 before; the entries did not move.  Shape B's
        # rows then took their disc and annulus values from the family's
        # rules, as they took their pants values: the N and Nt rows read
        # 4,011 and 421 before; the entries did not move.
        pytest.param(count_N, (3, 1, (30,)), 3906, 1322, id="count_N(3,1,(30,))"),
        pytest.param(count_G, (0, 1, (400,)), 201, 200, id="count_G(0,1,(400,))"),
        pytest.param(count_G, (2, 2, (16, 16)), 4662, 1452, id="count_G(2,2,(16,16))"),
        pytest.param(count_N_t, (2, 1, (40,), 0), 231, 229, id="count_N_t(2,1,(40,),0)"),
    ],
)
def test_cold_memo_reads_are_pinned(monkeypatch, fn, args, reads, entries):
    memo = _CountingMemo()
    monkeypatch.setattr(engine, "_MEMO", memo)
    fn(*args)
    assert (memo.reads, memo_size()) == (reads, entries)


def _mixed_cold_ops():
    """A cold mixed op list over every family: G, N, Gr, Nt and Gt."""
    clear_memo()
    count_N(2, 1, (16,))
    count_N_t(1, 3, (8, 3, 1), 1)
    count_G_r(1, 2, (6, 4), 3)
    count_G_t(1, 2, (8, 6), 1)
    count_G(1, 3, (6, 4, 2))


def test_the_memo_holds_one_table_per_head_keyed_by_sorted_entries():
    try:
        _mixed_cold_ops()
        tables = dict(engine._MEMO)
    finally:
        clear_memo()
    assert {name for name, _, _ in tables} == {"G", "N", "Gr", "Nt", "Gt"}
    for head, table in tables.items():
        name, g, n = head
        assert isinstance(head, tuple) and len(head) == 3 and isinstance(table, engine._Table)
        assert all(type(b) is tuple and len(b) == n and list(b) == sorted(b, reverse=True) for b in table)
        # no base value is stored, so no pants key either
        assert all(engine._base(engine._FAMILIES[name], g, n, b) is None for b in table)
    assert not any(tables.get((name, 0, 3)) for name in ("N", "Nt"))


# shape-B keys met by every row kind: cuts (g >= 1), joins onto zero and
# nonzero boundaries, repeated entries, odd entries and deep one-entry pieces;
# shape-A keys whose separations have a disc or annulus piece and a piece of
# the body's own (g, n), and one whose joins extend a value row past what its
# separations read
ROW_KEYS = [
    ("N", 3, 1, (24,)), ("N", 1, 3, (8, 4, 0)), ("N", 2, 2, (10, 6)), ("N", 0, 5, (6, 4, 4, 2, 0)),
    ("Nt", 2, 1, (20,)), ("Nt", 1, 3, (6, 2, 0)), ("Nt", 0, 4, (8, 2, 0, 0)), ("Nt", 1, 2, (12, 0)),
    ("Nt", 2, 1, (22,)), ("Nt", 1, 3, (7, 5, 2)), ("Nt", 0, 5, (4, 3, 3, 1, 1)),
    ("Nt", 2, 2, (9, 3)),
    ("G", 1, 1, (20,)), ("G", 0, 2, (9, 5)), ("G", 0, 3, (6, 3, 1)), ("G", 1, 3, (8, 6, 2)),
    ("Gr", 1, 2, (6, 4)), ("Gr", 0, 1, (30,)),
]


def _values(keys):
    return {key: engine._eval(key) for key in keys}


@pytest.mark.parametrize("g", range(4))
def test_separation_tables_list_each_separation_once(g):
    def disc_or_annulus(genus, entries):  # a piece of Euler characteristic >= 0
        return 2 * genus - 2 + entries + 1 <= 0

    for m in range(5):
        rest = tuple(range(10, 10 + m))  # distinct entries, so each split is visible
        # brute force: every genus and subset of rest for one piece, the rest
        # for the other, up to swapping the pieces (mirror image)
        brute = set()
        for g1 in range(g + 1):
            for mask in range(1 << m):
                left = tuple(x for i, x in enumerate(rest) if mask >> i & 1)
                right = tuple(x for i, x in enumerate(rest) if not mask >> i & 1)
                brute.add(frozenset({(g1, left), (g - g1, right)}))
        shape_a = engine._halves(g, rest, False)
        pairs = [frozenset({(g1, left), (g - g1, right)}) for g1, left, right, _ in shape_a]
        assert len(pairs) == len(set(pairs)) and set(pairs) == brute
        assert all(not left or left[0] == rest[0] for _, left, _, _ in shape_a)
        assert [own for *_, own in shape_a] == [m == 0 and 2 * g1 == g for g1, *_ in shape_a]
        assert [own for *_, own in shape_a] == [len(pair) == 1 for pair in pairs]
        assert engine._halves(g, rest, True) == [
            (g1, left, right, own)
            for g1, left, right, own in shape_a
            if not disc_or_annulus(g1, len(left)) and not disc_or_annulus(g - g1, len(right))
        ]
        table = engine._HALVES[(True, g, m)]
        engine._halves(g, tuple(range(20, 20 + m)), True)  # same length, other entries
        assert engine._HALVES[(True, g, m)] is table


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
    def lengths(memo):  # the values a row keeps, and its ramp (None: it keeps none)
        return {key: (len(row), len(row.ramp) if hasattr(row, "ramp") else None) for key, row in memo.rows.items()}

    clear_memo()
    count_N(2, 1, (12,))
    count_G(1, 2, (8, 4))
    outer = engine._MEMO
    kept = lengths(outer)
    kinds = {(name, cut) for name, cut, _, _ in kept}
    assert kinds == {("N", False), ("G", False), ("N", True)}  # value rows of both shapes, cut rows
    pants = {key for key in kept if key[0] == "N" and (key[2], len(key[3]) + 1 + key[1]) == (0, 3)}
    # a shape-B row, pants rows and cut rows too, keeps its ramp in step with
    # its values; a shape-A row keeps none
    assert all(ramp == values + 1 for (name, *_), (values, ramp) in kept.items() if name in ("N", "Nt"))
    assert all(ramp is None for (name, *_), (_, ramp) in kept.items() if name in ("G", "Gr"))
    assert any(kept[key][0] for key in pants)
    assert any(kept[key][0] for key in kept if key[1] and key not in pants)
    memo = _CountingMemo()
    assert memo.rows == {}  # a swapped-in memo starts with no rows
    monkeypatch.setattr(engine, "_MEMO", memo)
    count_N(2, 1, (14,))
    assert memo.rows and lengths(outer) == kept
    monkeypatch.undo()
    clear_memo()
    assert outer.rows == {} and memo_size() == 0


def test_every_ramp_entry_is_its_weighted_sum():
    # a cold mixed op list: shape-B rows of both families grown by cuts,
    # joins and separations in any order, and shape-A separations with k = 0
    # (no run pairs) read after their rows have grown
    clear_memo()
    try:
        count_N(2, 1, (16,))
        count_N_t(1, 3, (8, 3, 1), 1)
        count_G(1, 2, (8, 4))
        count_N(0, 5, (6, 4, 4, 2, 0))
        count_G_r(1, 2, (6, 4), 3)
        count_N_t(2, 2, (9, 3), 0)
        assert count_G(0, 3, (1, 1, 0)) == 1
        assert count_G(1, 3, (3, 1, 0)) == 15
        rows = dict(engine._MEMO.rows)
    finally:
        clear_memo()
    assert {name for name, *_ in rows} == {"N", "Nt", "G", "Gr"}
    for (name, *_), row in rows.items():
        if name in ("G", "Gr"):
            continue
        zero = engine._FAMILIES[name].zero
        brute = [sum(((k - t) * row[t] for t in range(k)), zero) for k in range(len(row) + 1)]
        assert row.ramp == brute
        assert row.run == sum(row, zero)


def test_pants_rows_compute_each_value_once(monkeypatch):
    rule, calls = engine._pants_N, []

    def counted(b):
        calls.append(b)
        return rule(b)

    fam = engine._FAMILIES["N"]
    monkeypatch.setitem(engine._FAMILIES, "N", fam._replace(rules={**fam.rules, (0, 3): counted}))
    clear_memo()
    try:
        assert count_N(1, 3, (20, 8, 4)) == 23970080
        rows = {
            key: row for key, row in engine._MEMO.rows.items() if (key[2], len(key[3]) + 1 + key[1]) == (0, 3)
        }
        assert not any(table for (_, g, n), table in engine._MEMO.items() if (g, n) == (0, 3))  # no pants key
    finally:
        clear_memo()
    # one call per kept value of a pants value row; a pants cut row's value
    # Q(s) takes one call per run pair i <= s - i
    per_value = [
        1 if not cut else s // 2 + 1
        for (_, cut, _, side), row in rows.items()
        for s in range(sum(side) % 2, sum(side) % 2 + 2 * len(row), 2)
    ]
    assert any(cut for _, cut, _, _ in rows) and sum(map(len, rows.values())) > 0
    assert len(calls) == sum(per_value)


# The base values as four functions, one per family, the way they were first
# written: the reference for ``engine._base`` and the family table it reads.

def _ref_pants_N(x, y, z):
    return (x or 1) * (y or 1) * (z or 1)


def _ref_pants_Nt(x, y, z):
    zeros = (not x) + (not y) + (not z)
    return engine._Grades((0,) * min(zeros, 2) + (_ref_pants_N(x, y, z),))


def _ref_base_G(g, n, b):
    if g < 0 or sum(b) % 2:
        return 0
    return None if b[0] else 1


def _ref_base_Gr(g, n, b):
    if g < 0 or sum(b) % 2:
        return engine._Grades()
    return None if b[0] else engine._Grades((0, 1))


def _ref_base_N(g, n, b):
    if g < 0 or sum(b) % 2:
        return 0
    if (g, n) == (0, 3):
        return _ref_pants_N(*b)
    if (g, n) in {(0, 1), (0, 2)}:
        return closed_N(g, n, b)
    return None if b[0] else 1


def _ref_base_Nt(g, n, b):
    if g < 0 or sum(b) % 2:
        return engine._Grades()
    if (g, n) == (0, 3):
        return _ref_pants_Nt(*b)
    if (g, n) in {(0, 1), (0, 2)}:
        return engine._trim([closed_refined("N", g, n, b, t) for t in range(2 * g + n)])
    return None if b[0] else engine._Grades((0,) * (2 * g + n - 1) + (1,))


def _ref_base_Gt(g, n, b):  # what count_G_t answered without the collar sum
    if g < 0 or sum(b) % 2:
        return engine._Grades()
    if (g, n) == (0, 1):
        return engine._Grades((catalan(b[0] // 2),))
    return None if b[0] else engine._Grades((0,) * (2 * g + n - 1) + (1,))


def test_the_base_rule_reads_each_family_table_as_the_four_base_functions_did():
    refs = {"G": _ref_base_G, "Gr": _ref_base_Gr, "N": _ref_base_N, "Nt": _ref_base_Nt, "Gt": _ref_base_Gt}
    assert set(refs) == set(engine._FAMILIES)
    for name, ref in refs.items():
        fam = engine._FAMILIES[name]
        for g in range(-1, 4):
            for n in range(1, 5):
                for b in vectors_with_sum_at_most(n, 10):
                    if list(b) == sorted(b, reverse=True):
                        want, got = ref(g, n, b), engine._base(fam, g, n, b)
                        assert (type(got), got) == (type(want), want), (name, g, n, b)


def test_a_key_missing_from_a_loaded_cache_gets_the_cold_value(tmp_path):
    path = str(tmp_path / "cache")
    clear_memo()
    count_N(3, 1, (20,))
    count_N_t(2, 2, (10, 4), 1)
    count_lattice(2, 1, (20,))
    save_cache(path)
    clear_memo()
    try:
        assert load_cache(path) == 0 and engine._MEMO.rows == {}
        warm = [
            count_N(3, 1, (26,)),
            count_N_t(2, 2, (14, 4), 1),
            _grades_text(engine._eval(("Nt", 2, 2, (12, 6)))),
            count_lattice(2, 1, (26,)),
        ]
    finally:
        clear_memo()
    code = (
        "from surfcount import engine\n"
        "from surfcount.engine import count_N, count_N_t, count_lattice\n"
        "print(count_N(3, 1, (26,)))\n"
        "print(count_N_t(2, 2, (14, 4), 1))\n"
        "print(*engine._eval(('Nt', 2, 2, (12, 6))), sep=',')\n"
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


def _extend_a_row_grown_meanwhile(monkeypatch, name, cut, grow):
    real_body, bodies = engine._body, []

    def body(key):
        bodies.append(key)
        value = real_body(key)
        if key == bodies[0]:  # the row's first missing piece: stored, then the row grows meanwhile
            engine._MEMO[key[:3]][key[3]] = value
            grow()
        return value

    monkeypatch.setattr(engine, "_body", body)
    clear_memo()
    try:
        with pytest.raises(RuntimeError, match="grew while"):
            engine._row(engine._FAMILIES[name], name, cut, 1, (), 6)
        assert bodies[0] == (name, 1, 2 if cut else 1, (2, 0) if cut else (2,))
    finally:
        clear_memo()


def test_a_value_row_grown_under_its_extension_raises(monkeypatch):
    _extend_a_row_grown_meanwhile(monkeypatch, "G", False, lambda: count_G(1, 1, (12,)))


def test_a_cut_row_grown_under_its_extension_raises(monkeypatch):
    _extend_a_row_grown_meanwhile(monkeypatch, "N", True, lambda: count_N(2, 1, (12,)))


def test_a_row_that_holds_the_values_read_comes_back_as_it_is():
    clear_memo()
    try:
        count_N(2, 1, (12,))
        fam = engine._FAMILIES["N"]
        for (name, cut, g, side), row in engine._MEMO.rows.items():
            assert engine._row(fam, name, cut, g, side, len(row)) is row
    finally:
        clear_memo()


def test_a_loaded_cache_parses_a_block_when_a_read_first_asks_for_its_head(tmp_path):
    # a block is the file of one head
    path = str(tmp_path / "cache")
    clear_memo()
    try:
        want = count_G(1, 1, (10,)), count_N(1, 2, (6, 4)), count_G_t(1, 2, (4, 2), 1)
        count_G_r(0, 3, (4, 2, 2), 3)
        written = save_cache(path)
        heads = _heads(path)
        assert {("G", 1, 1), ("N", 1, 2), ("Gt", 1, 2), ("Gr", 0, 3)} <= heads
        clear_memo()
        assert load_cache(path) == 0 and len(engine._MEMO) == 0
        assert count_G(1, 1, (10,)) == want[0]  # a key of the directory: its head's file alone
        assert set(engine._MEMO) == {("G", 1, 1)}
        assert count_G_t(1, 2, (4, 2), 1) == want[2]  # read straight from its file: no body runs
        assert count_N(1, 2, (6, 4)) == want[1]
        assert set(engine._MEMO) == {("G", 1, 1), ("Gt", 1, 2), ("N", 1, 2)}
        assert all(table.held == len(table) > 0 for table in engine._MEMO.values())
        count_G(1, 1, (12,))  # not on file: its body reads pieces from the files that hold them
        assert engine._MEMO["G", 0, 2].held > 0
        grown = sum(len(table) for table in engine._MEMO.values() if len(table) > table.held)
        assert save_cache(path) == grown > 0
        assert memo_size() < written + grown  # the heads no read asked for were never read
    finally:
        clear_memo()


def _hex(x) -> str:
    """An int, or a tuple of them as a comma list ("-" if empty), in lowercase
    hexadecimal: the text form of a record in the bodies of older versions."""
    return format(x, "x") if isinstance(x, int) else ",".join(map(_hex, x)) or "-"


def test_a_saved_body_is_frozen(tmp_path, cache_records):
    # recorded from the flat memo keyed by (family, g, n, b) as the body of
    # the single cache file this layout replaced: a line "family g n body"
    # per head file, in ascending head order, the body one line of records
    # "b:value" in hexadecimal, the text form bodies had then; each file's
    # records are rendered in that form here, since only they are hashed
    path = tmp_path / "cache"
    try:
        _mixed_cold_ops()
        assert save_cache(str(path)) == 183
    finally:
        clear_memo()
    lines = [
        f"{name} {g:x} {n:x} "
        + " ".join(f"{_hex(b)}:{_hex(v)}" for b, v in cache_records(path / f"{name}-{g:x}-{n:x}").items())
        + "\n"
        for name, g, n in sorted(_heads(path))
    ]
    body = "".join(lines).encode()
    assert hashlib.sha256(body).hexdigest() == "f90a7e5f59ff93346fad5e15d5e91b9ee127bf1a49873fc3a83932cd4bc4f2aa"


def _files(path) -> dict:
    return {f: (path / f).read_bytes() for f in os.listdir(path)}


def test_a_save_right_after_a_load_writes_the_same_bytes(tmp_path):
    path, again = tmp_path / "cache", tmp_path / "again"
    clear_memo()
    try:
        count_N_t(2, 2, (10, 4), 1)
        count_G(1, 3, (6, 4, 2))
        save_cache(str(path))
        clear_memo()
        load_cache(str(path))
        for head in _heads(path):
            engine._MEMO[head]  # every table reads its file
        assert save_cache(str(path)) == 0  # none grew
        save_cache(str(again))  # not the attached directory: every table
        assert _files(again) == _files(path)
    finally:
        clear_memo()


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit, 4300, where it has one
    (Python 3.11 and later); None where it has none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_a_count_past_the_digit_limit_round_trips_through_the_cache(tmp_path, default_digit_limit):
    path = str(tmp_path / "cache")
    want = catalan(8000)  # 4,811 digits
    clear_memo()
    try:
        engine._MEMO["G", 0, 1][16000,] = want  # too slow to recompute here
        assert save_cache(path) == 1
        clear_memo()
        assert load_cache(path) == 0
        assert count_G(0, 1, (16000,)) == want and engine._MEMO["G", 0, 1].held == 1
    finally:
        clear_memo()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == default_digit_limit


@pytest.mark.parametrize(
    "line, fault",
    [
        # "family g n body", the body in the text form of older versions (a
        # line of hexadecimal records "b:value"), damaged or not: under this
        # source's header it is no marshal data, so a malformed record
        ("G 1 1 2:3 4\n", "malformed record"),  # a record short of its value
        ("N 0 2 4,2,2:8\n", "malformed record"),  # entries of the wrong length
        ("Gr 0 1 4:0,x\n", "malformed record"),
        ("G 0 1 2:+1\n", "malformed record"),
        ("G 1 1 4:d", "malformed record"),  # no last newline
        ("G 1 1 4:d\n2:3\n", "malformed record"),  # a second line
        ("G 1 1 4:d \n", "malformed record"),  # a space after the last record
        ("G 1 1 \n\n", "malformed record"),
        ("G 1 1 4:d\xe9\n", "malformed record"),  # no ASCII
        ("G 1 1 4:D\n", "malformed record"),
        ("G 1 1 4:0d\n", "malformed record"),
        ("G 1 1 04:d\n", "malformed record"),  # a zero: marshal's NULL object
    ],
)
def test_a_refused_cache_names_its_first_fault(tmp_path, capsys, write_cache, line, fault):
    name, g, n, text = line.split(" ", 3)
    write_cache(tmp_path, head := (name, int(g, 16), int(n, 16)), text.encode())
    try:
        table = _read(tmp_path, head)
        assert (table, table.held, memo_size()) == ({}, -1, 0)
    finally:
        clear_memo()
    err = capsys.readouterr().err
    assert fault in err and err.count("\n") == 1


def _marshal_dict(key: bytes, value: bytes) -> bytes:
    """A marshal dict of one record, key and value given as marshal data."""
    return b"{" + key + value + b"0"


@pytest.mark.parametrize(
    "head, body",
    [
        pytest.param(("G", 1, 1), marshal.dumps([((4,), 13)], 2), id="a list, not a dict"),
        pytest.param(("G", 1, 1), _marshal_dict(marshal.dumps([4], 2), marshal.dumps(13, 2)), id="a list as a key"),
        pytest.param(("G", 1, 1), {frozenset((4,)): 13}, id="a frozenset as a key"),
        pytest.param(("G", 1, 1), {(4, 2): 13}, id="entries of the wrong length"),
        pytest.param(("G", 1, 1), {(-4,): 13}, id="a negative entry"),
        pytest.param(("G", 1, 1), {(True,): 13}, id="a True entry"),
        pytest.param(("G", 1, 1), {(4,): 13.0}, id="a float G value"),
        pytest.param(("N", 1, 1), {(4,): True}, id="a bool N value"),
        pytest.param(("Gr", 1, 1), {(4,): [0, 1, 6, 6]}, id="a list as Gr grades"),
        pytest.param(("Gr", 1, 1), {(4,): (0, True, 6, 6)}, id="a bool Gr grade"),
        pytest.param(("Nt", 1, 1), {(4,): 3}, id="an int as Nt grades"),
        pytest.param(("G", 1, 1), marshal.dumps(compile("13", "<cache>", "eval"), 2), id="a code object"),
        pytest.param(("G", 1, 1), b"\x00\xffsurfcount\n", id="garbage bytes"),
    ],
)
def test_a_body_of_the_wrong_shape_is_a_malformed_record(tmp_path, capsys, write_cache, head, body):
    # marshal refuses the list key and the garbage; the type check refuses each other body
    key = (*head, (4,))
    clear_memo()
    cold = engine._eval(key)
    clear_memo()
    write_cache(tmp_path, head, body)
    try:
        table = _read(tmp_path, head)
        assert (table, table.held, memo_size()) == ({}, -1, 0)
        assert engine._eval(key) == cold
    finally:
        clear_memo()
    err = capsys.readouterr().err
    assert "malformed record" in err and err.count("\n") == 1


def test_int_subclass_inputs_save_plain_ints(tmp_path, cache_records):
    # marshal writes plain ints alone: a public count stores int subclasses as plain ints
    path = tmp_path / "cache"
    clear_memo()
    try:
        want = count_G(_Int(1), _Int(2), [_Int(4), _Int(2)])
        assert save_cache(str(path)) == memo_size() > 0
        records = cache_records(path / "G-1-2")
        assert records[4, 2] == want and {type(x) for b in records for x in b} == {int}
        assert _read(path, ("G", 1, 2)).held == len(records) and count_G(1, 2, (4, 2)) == want
    finally:
        clear_memo()
