"""Move filtering: occupancy plus the planar pruning rules around A and B."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import sub

from .geometry import DIR_VEC, DOWN, RIGHT, TURN_SIGN, UP, Point
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
    return [0, *accumulate(map(TURN_SIGN.__getitem__, map(sub, dirs[1:], dirs)))]


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


def flood_fill(
    starts: Iterable[Point],
    blocked: set[Point],
    box: Box,
    extra: Point | None = None,
    seen: set[Point] | None = None,
) -> set[Point] | None:
    """The free cells reachable from `starts` around `blocked` plus the one
    cell `extra`, or None if they reach infinity.

    Starts that are blocked are ignored. `box` must contain the bounding box
    of `blocked`. The cells outside that box form one connected unbounded
    region, and stay so with any one cell taken out, so a fill that reaches
    a cell outside the box other than `extra` escapes, and a component that
    does not escape never leaves the box. The fill checks each cell against
    the box when it pushes it, and gives up at the first one outside. Any
    such box gives the same result; the tight one gives up soonest.

    `extra`, inside the box or not, blocks one more cell without a copy of
    `blocked`: it goes into the seen set up front, so the fill never enters
    it, and is taken out before the set is returned.

    With `seen` (an empty set, and no `extra`) the fill records there every
    cell it tested and found free, the one outside the box it gave up at
    included. After an escape, blocking any other free cell c keeps the
    escape: a fill with c as `extra` and the same box makes the same tests,
    none of them of c, so it gets the same answers and gives up at the same
    cell.
    """
    lo_x, hi_x, lo_y, hi_y = box
    if seen is None:
        seen = set()
    if extra is not None:
        seen.add(extra)
    stack = []
    for p in starts:
        if p not in seen and p not in blocked:
            seen.add(p)
            x, y = p
            if x < lo_x or x > hi_x or y < lo_y or y > hi_y:
                return None
            stack.append(p)
    while stack:
        x, y = stack.pop()
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p not in seen and p not in blocked:
                seen.add(p)
                px, py = p
                if px < lo_x or px > hi_x or py < lo_y or py > hi_y:
                    return None
                stack.append(p)
    seen.discard(extra)
    return seen


def b_neighbours(walk: Walk) -> tuple[Point, ...]:
    """The four cells next to B, where every fill of the B-escape rule starts."""
    bx, by = walk.points[0]
    return (bx, by - 1), (bx + 1, by), (bx, by + 1), (bx - 1, by)


def b_escapes(walk: Walk, candidate: Point, box: Box) -> bool:
    """Whether B still has a free path to infinity once the walk and the
    candidate vertex are occupied: one fill from B's neighbours with the
    candidate as `flood_fill`'s extra cell. `box` is the walk's bounding
    box."""
    return flood_fill(b_neighbours(walk), walk.vset, box, candidate) is None


def allowed_moves(walk: Walk, planar_a: bool, planar_b: bool) -> list[int]:
    """The permitted relative moves from A, in (Up, Right, Down) order.

    Planar B fills from B's neighbours around the walk alone once, when the
    first unoccupied target needs it. If that fill does not escape, no
    target passes: blocking one more cell cannot open a path. If it escapes,
    every target it did not record as tested passes too (see `flood_fill`).
    Only a tested target gets a fill of its own, through `b_escapes`.
    """
    excl = planar_a_exclusions(walk) if planar_a else ()
    hx, hy = walk.points[-1]
    vset = walk.vset
    tested = None  # the cells B's fill around the walk alone tested free
    out = []
    for mv in MOVES:
        if mv in excl:
            continue
        dx, dy = DIR_VEC[mv]
        target = (hx + dx, hy + dy)
        if target in vset:
            continue
        if planar_b:
            if tested is None:
                box = bounding_box(walk.points)
                tested = set()
                if flood_fill(b_neighbours(walk), vset, box, seen=tested) is not None:
                    return []
            if target in tested and not b_escapes(walk, target, box):
                continue
        out.append(mv)
    return out
