"""Search for and verification of zig-zag walks.

A zig-zag walk is a cyclic sequence of distinct inner intervals whose
consecutive members meet in a single corner, entering and leaving each
interval through adjacent corners, and whose far corners (the z-corners)
are pairwise never contained together in any inner interval.  Existence of
such a walk is the obstruction the primality pipeline reports.
"""

from __future__ import annotations

from .grid import Interval, Point, Polyomino, Record, inner_intervals, on_common_edge_interval


class ZigZagWalk(Record):
    """Witness: intervals I_1..I_l with corner labels v, z, u.

    ``v`` has length l + 1 with v[l] == v[0]; entry corner of interval i is
    v[i], its opposite corner is z[i], and the two remaining corners are
    u[i] and v[i + 1].
    """

    intervals: tuple[Interval, ...]
    v: tuple[Point, ...]
    z: tuple[Point, ...]
    u: tuple[Point, ...]

    @property
    def length(self) -> int:
        return len(self.intervals)

    def to_json_dict(self) -> dict:
        return {
            "intervals": [{"a": list(i.a), "b": list(i.b)} for i in self.intervals],
            "v": [list(p) for p in self.v],
            "z": [list(p) for p in self.z],
            "u": [list(p) for p in self.u],
        }


def _opposite_corner(interval: Interval, corner: Point) -> Point:
    a, b = interval.a, interval.b
    x = b[0] if corner[0] == a[0] else a[0]
    y = b[1] if corner[1] == a[1] else a[1]
    return (x, y)


def _other_pair(interval: Interval, corner: Point) -> tuple[Point, Point]:
    """The two corners adjacent to ``corner`` (the complementary pair)."""
    opposite = _opposite_corner(interval, corner)
    return tuple(c for c in interval.corners if c not in (corner, opposite))  # type: ignore[return-value]


def _single_corner_meeting(a: Interval, b: Interval) -> bool:
    """Do two intervals sharing a corner have no other common lattice point?"""
    return (max(a.a[0], b.a[0]) == min(a.b[0], b.b[0])
            and max(a.a[1], b.a[1]) == min(a.b[1], b.b[1]))


def cocontained_in_inner_interval(p: Polyomino, s: Point, t: Point) -> bool:
    """Brute-force scan: does any inner interval contain both points?"""
    return any(i.contains_point(s) and i.contains_point(t) for i in inner_intervals(p))


def _cocontainment_index(p: Polyomino) -> dict[Point, frozenset[Point]]:
    """For each corner point, all points sharing some inner interval with it."""
    index: dict[Point, set[Point]] = {}
    for interval in inner_intervals(p):
        pts = list(interval.points())
        for s in pts:
            index.setdefault(s, set()).update(pts)
    return {s: frozenset(t) for s, t in index.items()}


def verify_zigzag(p: Polyomino, walk: ZigZagWalk) -> bool:
    """Check every defining condition of the walk against the polyomino."""
    intervals = walk.intervals
    n = len(intervals)
    if n < 2 or len(set(intervals)) != n:
        return False
    if len(walk.v) != n + 1 or walk.v[-1] != walk.v[0]:
        return False
    if len(walk.z) != n or len(walk.u) != n:
        return False
    inner = set(inner_intervals(p))
    for i, interval in enumerate(intervals):
        if interval not in inner:
            return False
        corners = set(interval.corners)
        v_in, z, u, v_out = walk.v[i], walk.z[i], walk.u[i], walk.v[i + 1]
        if {v_in, z, u, v_out} != corners or len({v_in, z, u, v_out}) != 4:
            return False
        # {v_in, z} must be the diagonal pair or the anti-diagonal pair.
        if z != _opposite_corner(interval, v_in):
            return False
        # Single-corner meeting with the next interval.
        nxt = intervals[(i + 1) % n]
        if interval.intersection_points(nxt) != frozenset({v_out}):
            return False
        # Entry and exit corners on one maximal edge interval of P.
        if not on_common_edge_interval(p, v_in, v_out):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if cocontained_in_inner_interval(p, walk.z[i], walk.z[j]):
                return False
    return True


def find_zigzag_walk(p: Polyomino) -> ZigZagWalk | None:
    """Exhaustive backtracking search for a zig-zag walk.

    Intervals are tried in lexicographic order; a walk is always reported
    with its lexicographically least interval first, which cuts the cyclic
    rotations of each witness.  Both corner labelings of every interval are
    branched.  Termination is guaranteed by interval distinctness.
    """
    inner = inner_intervals(p)
    if len(inner) < 2:
        return None
    corner_lookup: dict[Point, list[int]] = {}
    for idx, interval in enumerate(inner):
        for c in interval.corners:
            corner_lookup.setdefault(c, []).append(idx)
    # meets[i][c]: in index order, the intervals whose only common lattice
    # point with interval i is its corner c.
    meets: list[dict[Point, list[int]]] = [
        {
            c: [j for j in corner_lookup[c] if _single_corner_meeting(interval, inner[j])]
            for c in interval.corners
        }
        for interval in inner
    ]
    cocontained = _cocontainment_index(p)
    for anchor in range(len(inner)):
        first = inner[anchor]
        for v1 in sorted(first.corners):
            z1 = _opposite_corner(first, v1)
            for v2 in sorted(_other_pair(first, v1)):
                u1 = next(c for c in first.corners if c not in (v1, z1, v2))
                result = _extend_walk(p, inner, meets, cocontained,
                                      ([anchor], [v1, v2], [z1], [u1]))
                if result is not None:
                    return result
    return None


def _extend_walk(p: Polyomino, inner: list[Interval], meets: list[dict[Point, list[int]]],
                 cocontained: dict[Point, frozenset[Point]],
                 state: tuple[list[int], list[Point], list[Point], list[Point]],
                 ) -> ZigZagWalk | None:
    """Depth-first step of :func:`find_zigzag_walk` from a partial walk.

    ``state`` holds the partial walk's interval indices and its v, z and u
    corners; every branch restores it before moving on.  The tables are
    passed in, not captured: a recursive closure is a reference cycle, which
    would keep them alive until the next full garbage collection.
    """
    intervals, v, z, u = state
    anchor, current = intervals[0], v[-1]
    for idx in meets[intervals[-1]][current]:
        if idx <= anchor or idx in intervals:
            continue
        candidate = inner[idx]
        z_next = _opposite_corner(candidate, current)
        block = cocontained.get(z_next, frozenset())
        if any(prior in block for prior in z):
            continue
        for v_next in sorted(_other_pair(candidate, current)):
            intervals.append(idx)
            v.append(v_next)
            z.append(z_next)
            u.append(next(c for c in candidate.corners if c not in (current, z_next, v_next)))
            if v_next == v[0] and len(intervals) >= 3 and anchor in meets[idx][v_next]:
                walk = ZigZagWalk(tuple(inner[i] for i in intervals), tuple(v), tuple(z), tuple(u))
                if verify_zigzag(p, walk):
                    return walk
            found = _extend_walk(p, inner, meets, cocontained, state)
            if found is not None:
                return found
            intervals.pop()
            v.pop()
            z.pop()
            u.pop()
    return None
