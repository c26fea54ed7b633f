"""Brute-force combinatorial oracles.

Independent constructions that never touch the recursion engine: exhaustive
noncrossing matchings on the disc (regions counted by tracing faces), the
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
    resulting segments match independently.  Deterministic order; the pairs
    come as (a, b) with a < b, ascending in a.
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


def _count_faces(mate: list[int]) -> int:
    """Regions of a noncrossing chord diagram on the disc, by tracing faces.

    Every region touches the boundary.  From the gap after point p, walk to
    point p + 1 and cross its chord: the regions are the cycles of the gaps
    under p -> mate[(p + 1) % 2m].  A disc with no points is one region.
    """
    size = len(mate)
    seen = [False] * size
    faces = 0
    for start in range(size):
        if not seen[start]:
            faces += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = mate[(p + 1) % size]
    return faces or 1


def enumerate_disc(m: int) -> list[DiscDiagram]:
    """All arc diagrams on a disc with 2m boundary points, exhaustively.

    Each diagram is a noncrossing perfect matching; the region count is
    traced from the chords, not assumed.
    """
    _reject(int, (m,), "m")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = []
    mate = [0] * (2 * m)  # every diagram rewrites each entry
    for pairs in _matchings(tuple(range(2 * m))):
        for a, b in pairs:
            mate[a], mate[b] = b, a
        out.append(DiscDiagram(m, pairs, _count_faces(mate)))
    return out


@dataclass(frozen=True)
class ArcStructure:
    """Output of the in/out-label scan: directed arc pairing with the
    number of basepoint wraps each arc makes."""

    arcs: tuple[tuple[int, int, int], ...]  # (in position, out position, wraps)


def arrows_to_arcs(labels) -> ArcStructure:
    """Resolve an in/out labelling on one marked boundary into arcs.

    Positions are 1..2m anticlockwise.  On the first lap an "in" opens an
    arc and an "out" closes the latest open arc, or waits if none is open;
    on the second lap, past the basepoint, each waiting out closes the
    latest open arc with one wrap.  The scan must pair everything — a
    failure is an implementation bug.
    """
    labels = tuple(labels)
    size = len(labels)
    if size % 2 or any(x not in ("in", "out") for x in labels):
        raise ValueError("labels must be an even-length in/out sequence")
    m = size // 2
    if sum(1 for x in labels if x == "in") != m:
        raise ValueError("need equal numbers of in and out labels")
    opened: list[int] = []  # positions of the ins not yet closed, latest last
    waiting, arcs = [], []  # waiting: the outs met on lap 0 while no arc was open
    for pos, label in enumerate(labels, 1):
        if label == "in":
            opened.append(pos)
        elif opened:
            arcs.append((opened.pop(), pos, 0))
        else:
            waiting.append(pos)
    for pos in waiting[:len(opened)]:  # lap 1: as many arcs are open as outs wait
        arcs.append((opened.pop(), pos, 1))
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
