"""Orbifold Euler characteristics, and the verify route built on them."""

import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from surfcount.moduli import bernoulli, euler_characteristic

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_bernoulli_numbers():
    assert [bernoulli(m) for m in range(9)] == [
        1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
        Fraction(-1, 30),
    ]
    assert all(type(bernoulli(m)) is Fraction for m in range(9))


def test_euler_characteristics_are_harer_zagier():
    want = {
        (0, 3): 1, (0, 4): -1, (0, 5): 2, (1, 1): Fraction(-1, 12), (1, 2): Fraction(1, 12),
        (1, 3): Fraction(-1, 6), (2, 1): Fraction(1, 120), (2, 2): Fraction(-1, 40),
        (3, 1): Fraction(-1, 252),
    }
    got = {gn: euler_characteristic(*gn) for gn in want}
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("g, n", [(0, 1), (0, 2), (-1, 3), (-1, 1), (1, 0)])
def test_euler_characteristic_rejects_unstable_or_negative_input(g, n):
    with pytest.raises(ValueError):
        euler_characteristic(g, n)


@pytest.mark.parametrize("args", [(True, 1), (1.0, 1), (0, 3.0)])
def test_euler_characteristic_takes_ints_only(args):
    with pytest.raises(TypeError):
        euler_characteristic(*args)


def test_verify_catches_the_equal_genus_split_mutant(tmp_path):
    # Counting the one-boundary split into equal genera twice changes the
    # counts from genus 2 on only; the lattice twin's value at b = 0 on
    # (2,1) is the first check to see it.
    shutil.copytree(SRC, tmp_path / "src")
    engine = tmp_path / "src" / "surfcount" / "engine.py"
    text = engine.read_text(encoding="utf-8")
    old = "acc += sep if own else 2 * sep"
    assert text.count(old) == 1
    engine.write_text(text.replace(old, "acc += 2 * sep"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "surfcount.cli", "verify", "--suite", "psi"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
    )
    assert proc.returncode == 1, proc.stderr
    assert "FAIL psi/lattice-twin-top-degree" in proc.stdout
    assert "lattice twin at b = 0 on (2,1): 23/2520 != chi = 1/120" in proc.stdout
