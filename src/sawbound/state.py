"""Walk suffix states: canonical frame, size-loop arithmetic, stepping.

A walk is an ordered vertex list from the oldest vertex B to the newest
vertex A. States are stored as direction-code byte strings read from B;
the canonical frame puts A at the origin with the final step pointing
Right, and of the two reflection images keeps the lexicographically
smaller byte string (which forces the first vertical step downward).
"""

from __future__ import annotations

from .geometry import (
    DIR_VEC,
    RIGHT,
    REFLECT_TABLE,
    ROT_SUB,
    Point,
)


def points_of(dirs: bytes) -> list[Point]:
    """Vertices from B to A with A at the origin."""
    x, y = 0, 0
    rev = [(x, y)]
    for c in reversed(dirs):
        dx, dy = DIR_VEC[c]
        x, y = x - dx, y - dy
        rev.append((x, y))
    rev.reverse()
    return rev


def size_loop(points: list[Point]) -> int:
    """Vertex count plus the L1 distance from A back to B, minus one, for
    the walk's vertices from B to A."""
    (bx, by), (ax, ay) = points[0], points[-1]
    return len(points) - 1 + abs(ax - bx) + abs(ay - by)


def canonical(dirs: bytes) -> bytes:
    """Normal form under the rotation fixing the last step and reflection."""
    r = (dirs[-1] - RIGHT) % 4
    t = dirs.translate(ROT_SUB[r]) if r else dirs
    u = t.translate(REFLECT_TABLE)
    return t if t <= u else u


class Walk:
    """A concrete walk with cached geometry, anchored with A at the origin."""

    __slots__ = ("dirs", "points", "vset")

    def __init__(self, dirs: bytes, points: list[Point] | None = None):
        self.dirs = dirs
        self.points = points if points is not None else points_of(dirs)
        self.vset = set(self.points)

    def stepped(self, move: int) -> Walk:
        """Walk extended by one absolute step from A. No size check here."""
        hx, hy = self.points[-1]
        dx, dy = DIR_VEC[move]
        target = (hx + dx, hy + dy)
        if target in self.vset:
            raise ValueError("blocked: target vertex is occupied")
        return Walk(self.dirs + bytes((move,)), self.points + [target])


def line_walk(edges: int) -> Walk:
    """The straight walk of `edges` Right steps ending at the origin."""
    return Walk(bytes((RIGHT,)) * edges)
