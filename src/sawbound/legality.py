"""Move filtering: occupancy plus the planar pruning rules around A and B."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from .geometry import DIR_VEC, DOWN, RIGHT, UP, Point, turn_sign
from .state import Walk

# Relative moves from A in the canonical frame, in the fixed order used for
# children tables everywhere (the frame arrives at A moving Right, so Left
# would be a reversal).
MOVES = (UP, RIGHT, DOWN)
MOVE_INDEX = {UP: 0, RIGHT: 1, DOWN: 2}

# Planar A, one row per occupied cell right of A: its vertical offset from
# A, then the moves excluded when the corner sum from it to A is positive,
# then those excluded when it is negative.
PLANAR_A_RULES = (
    (0, (DOWN,), (UP,)),
    (1, (RIGHT, DOWN), (UP,)),
    (-1, (DOWN,), (RIGHT, UP)),
)


def turn_prefix(dirs: bytes) -> list[int]:
    """Prefix sums of the turn signs: the corner sum (algebraic corner count)
    from vertex i to vertex j is p[j - 1] - p[i], for 0 <= i < j <= len(dirs)."""
    return [0, *accumulate(map(turn_sign, dirs, dirs[1:]))]


def planar_a_exclusions(walk: Walk) -> set[int]:
    """Moves ruled out because the walk wraps around A.

    When a vertex right of A (or diagonally right) is occupied, the sign of
    the corner sum from that vertex to A tells on which side the enclosed
    pocket lies, and moves into the pocket can never close a legal loop.
    A zero corner sum excludes nothing (it cannot occur for the adjacent
    case, and for the diagonals nothing can be concluded).
    """
    points, vset = walk.points, walk.vset
    m = len(points) - 1
    ax, ay = points[-1]
    excl: set[int] = set()
    cum = None  # turn_prefix(walk.dirs), made on first use
    for oy, positive, negative in PLANAR_A_RULES:
        p = (ax + 1, ay + oy)
        if p in vset:
            cum = cum or turn_prefix(walk.dirs)
            cs = cum[m - 1] - cum[points.index(p)]
            if cs:
                excl.update(positive if cs > 0 else negative)
    return excl


Box = tuple[int, int, int, int]  # lo_x, hi_x, lo_y, hi_y


def bounding_box(points: Iterable[Point]) -> Box:
    """The smallest box holding every one of `points`."""
    xs, ys = zip(*points)
    return min(xs), max(xs), min(ys), max(ys)


def extend_box(box: Box, p: Point) -> Box:
    """The bounding box of the cells in `box` plus `p`."""
    lo_x, hi_x, lo_y, hi_y = box
    x, y = p
    return min(lo_x, x), max(hi_x, x), min(lo_y, y), max(hi_y, y)


def flood_fill(starts: Iterable[Point], blocked: set[Point], box: Box) -> set[Point] | None:
    """The free cells reachable from `starts` around `blocked`, or None if
    they reach infinity.

    Starts inside `blocked` are ignored. The fill gives up as soon as it
    leaves `box`, which must contain the bounding box of `blocked`: every
    cell outside that box has a free straight ray to infinity, so leaving it
    is the same as escaping, and a component that does not escape never
    leaves it. Any such box gives the same result; the tight one, the
    bounding box of `blocked`, gives up soonest.
    """
    lo_x, hi_x, lo_y, hi_y = box
    stack = [p for p in starts if p not in blocked]
    seen = set(stack)
    while stack:
        x, y = stack.pop()
        if x < lo_x or x > hi_x or y < lo_y or y > hi_y:
            return None
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p not in seen and p not in blocked:
                seen.add(p)
                stack.append(p)
    return seen


def b_escapes(walk: Walk, candidate: Point, box: Box) -> bool:
    """Whether B still has a free path to infinity once the walk and the
    candidate vertex are occupied. `box` is the walk's bounding box."""
    bx, by = walk.points[0]
    return flood_fill(
        [(bx + dx, by + dy) for dx, dy in DIR_VEC], walk.vset | {candidate}, extend_box(box, candidate)
    ) is None


def allowed_moves(walk: Walk, planar_a: bool, planar_b: bool) -> list[int]:
    """The permitted relative moves from A, in (Up, Right, Down) order."""
    excl = planar_a_exclusions(walk) if planar_a else ()
    hx, hy = walk.points[-1]
    box = bounding_box(walk.points)
    out = []
    for mv in MOVES:
        if mv in excl:
            continue
        dx, dy = DIR_VEC[mv]
        target = (hx + dx, hy + dy)
        if target in walk.vset:
            continue
        if planar_b and not b_escapes(walk, target, box):
            continue
        out.append(mv)
    return out
