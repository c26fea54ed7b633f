"""Brute-force combinatorial oracles.

Independent constructions that never touch the recursion engine: exhaustive
noncrossing matchings on the disc (with a genuine region count), the
arrow-labelling-to-arc-structure scan on the annulus with one marked
boundary, and an exhaustive search for pants arc-type profiles.  The test
suite uses these as ground truth for the closed forms and the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .closed import PantsProfile, pants_admissible
from .exact import _reject


@dataclass(frozen=True)
class DiscDiagram:
    """A noncrossing perfect matching of 2m cyclic points, 0-indexed."""

    m: int
    pairs: tuple[tuple[int, int], ...]
    regions: int


def _matchings(points: tuple[int, ...]):
    """All noncrossing matchings of a linearly ordered point set.

    The smallest point pairs with each candidate at odd distance; the two
    resulting segments match independently.  Deterministic order.
    """
    if not points:
        yield ()
        return
    a = points[0]
    for idx in range(1, len(points), 2):
        b = points[idx]
        for left in _matchings(points[1:idx]):
            for right in _matchings(points[idx + 1:]):
                yield ((a, b),) + left + right


def _count_regions(m: int, pairs: tuple[tuple[int, int], ...]) -> int:
    """Complementary regions of a noncrossing chord diagram on the disc.

    Each chord {a, b} (a < b) cuts the disc in two; a region is determined
    by its side of every chord.  For noncrossing diagrams every region
    touches the boundary circle, so the regions are exactly the distinct
    side-vectors of the 2m boundary gaps (gap i sits between points i and
    i+1 mod 2m, and lies inside chord {a, b} iff a <= i < b).
    """
    if m == 0:
        return 1
    chords = [tuple(sorted(p)) for p in pairs]
    sides = set()
    for gap in range(2 * m):
        sides.add(tuple(a <= gap < b for a, b in chords))
    return len(sides)


def enumerate_disc(m: int) -> list[DiscDiagram]:
    """All arc diagrams on a disc with 2m boundary points, exhaustively.

    Each diagram is a noncrossing perfect matching; the region count is
    computed from the chord arrangement, not assumed.
    """
    _reject(int, (m,), "m")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = []
    for pairs in _matchings(tuple(range(2 * m))):
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        out.append(DiscDiagram(m, canon, _count_regions(m, canon)))
    return out


@dataclass(frozen=True)
class ArcStructure:
    """Output of the in/out-label scan: directed arc pairing with the
    number of basepoint wraps each arc makes."""

    arcs: tuple[tuple[int, int, int], ...]  # (in position, out position, wraps)


def arrows_to_arcs(labels) -> ArcStructure:
    """Resolve an in/out labelling on one marked boundary into arcs.

    Positions are 1..2m anticlockwise.  Walk the boundary cyclically:
    an "in" opens an arc; an "out" closes the most recently opened arc if
    one is open, and otherwise waits for a later lap.  Every passage of the
    basepoint while an arc is open adds a wrap to it when it closes.  The
    scan must pair everything — a failure is an implementation bug.
    """
    labels = tuple(labels)
    size = len(labels)
    if size % 2 or any(x not in ("in", "out") for x in labels):
        raise ValueError("labels must be an even-length in/out sequence")
    m = size // 2
    if sum(1 for x in labels if x == "in") != m:
        raise ValueError("need equal numbers of in and out labels")
    opened: list[tuple[int, int]] = []  # (position, lap when opened)
    matched_out = [False] * size
    arcs = []
    max_laps = 3
    for lap in range(max_laps):
        for pos in range(size):
            if labels[pos] == "in":
                if lap == 0:
                    opened.append((pos + 1, lap))
            elif not matched_out[pos] and opened:
                start, start_lap = opened.pop()
                matched_out[pos] = True
                arcs.append((start, pos + 1, lap - start_lap))
        if not opened and all(
            matched_out[i] for i in range(size) if labels[i] == "out"
        ):
            break
    if opened or len(arcs) != m:
        raise RuntimeError("scan failed to pair all labels")
    return ArcStructure(tuple(sorted(arcs)))


def all_arrow_labellings(m: int):
    """Every in/out labelling of 2m positions with m of each, in a fixed
    deterministic order."""
    _reject(int, (m,), "m")
    if m < 0:
        raise ValueError("m must be >= 0")
    return (
        tuple("in" if i in chosen else "out" for i in range(2 * m))
        for chosen in map(set, combinations(range(2 * m), m))
    )


def pants_search(b1: int, b2: int, b3: int) -> list[PantsProfile]:
    """Exhaustive scan for pants arc-type profiles fitting (b1, b2, b3).

    Scans every traversing triple compatible with the boundary equations
    (values outside these ranges or of the other parity cannot satisfy
    them), tests the exclusion rules on the six counts, and builds a
    profile only for the triples that pass.
    Expected to be a singleton for every even-sum input.
    """
    _reject(int, (b1, b2, b3), "boundary point counts")
    if min(b1, b2, b3) < 0:
        raise ValueError("negative boundary count")
    if (b1 + b2 + b3) % 2:
        raise ValueError("no diagram: odd total boundary count")
    found = []
    for t12 in range(0, min(b1, b2) + 1):
        # t31 and t23 step by 2 from the parities that leave b1 - t12 - t31
        # and b2 - t12 - t23 even; an even total then leaves b3 - t31 - t23 even
        for t31 in range((b1 - t12) % 2, min(b1 - t12, b3) + 1, 2):
            p1 = (b1 - t12 - t31) // 2
            for t23 in range((b2 - t12) % 2, min(b2 - t12, b3 - t31) + 1, 2):
                counts = (p1, (b2 - t12 - t23) // 2, (b3 - t31 - t23) // 2, t12, t23, t31)
                if pants_admissible(*counts):
                    found.append(PantsProfile(*counts))
    return found
