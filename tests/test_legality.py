from collections import deque

from hypothesis import given, strategies as st

from sawbound.geometry import DIR_VEC, DOWN, RIGHT, UP
from sawbound.legality import (
    MOVES,
    MOVE_INDEX,
    allowed_moves,
    b_escapes,
    bounding_box,
    extend_box,
    flood_fill,
    planar_a_exclusions,
    turn_prefix,
)
from sawbound.state import Walk, line_walk
from conftest import corner_sum, from_text, saw_dirs


def test_move_order_is_up_right_down():
    assert MOVES == (UP, RIGHT, DOWN)
    assert [MOVE_INDEX[m] for m in MOVES] == [0, 1, 2]


def test_corner_sum():
    dirs = from_text("RDRU")  # right, left, left over the three corners
    assert corner_sum(dirs, 0, 4) == 1 - 1 - 1
    assert corner_sum(dirs, 1, 3) == -1
    assert corner_sum(dirs, 2, 2) == 0


@given(saw_dirs(0, 26))
def test_turn_prefix_gives_every_corner_sum(dirs):
    p = turn_prefix(dirs)
    for j in range(1, len(dirs) + 1):
        for i in range(j):
            assert p[j - 1] - p[i] == corner_sum(dirs, i, j)


def test_line_has_no_exclusions():
    assert planar_a_exclusions(line_walk(4)) == set()
    assert allowed_moves(line_walk(4), True, True) == [UP, RIGHT, DOWN]


def test_wrap_from_below_excludes_down():
    # the walk curls clockwise and ends with the cell right of A occupied
    # by its own tail; the pocket below A is sealed off
    w = Walk(from_text("DDLLUUR"))
    assert (1, 0) in w.vset
    assert planar_a_exclusions(w) == {DOWN}
    assert allowed_moves(w, True, True) == [UP]
    # the mirror image wraps counterclockwise and bars Up instead
    m = Walk(from_text("UULLDDR"))
    assert planar_a_exclusions(m) == {UP}
    assert allowed_moves(m, True, True) == [DOWN]


def test_diagonal_wrap_excludes_up():
    # only the up-right diagonal is occupied; the tail hangs over the head
    w = Walk(from_text("ULLDDR"))
    assert (1, 1) in w.vset
    assert (1, 0) not in w.vset
    assert corner_sum(w.dirs, 0, len(w.dirs)) == -3
    assert planar_a_exclusions(w) == {UP}
    assert allowed_moves(w, True, True) == [RIGHT, DOWN]


def test_occupancy_blocks_moves():
    # Up and Down both land on walk vertices, Right is the only exit
    w = Walk(from_text("RRUULLLDR"))
    assert (0, 1) in w.vset and (0, -1) in w.vset
    assert allowed_moves(w, planar_a=False, planar_b=False) == [RIGHT]


def test_planar_flags_off_gives_occupancy_only():
    w = Walk(from_text("DDLLUUR"))
    assert allowed_moves(w, planar_a=False, planar_b=False) == [UP, DOWN]


def test_b_escapes_open_walk():
    w = line_walk(5)
    assert b_escapes(w, (0, 1), bounding_box(w.points))


def test_b_escapes_sealed_tail():
    # B keeps a single free neighbor below A; the candidate plugs it
    w = Walk(from_text("RDLLUUUR"))
    assert w.points[0] == (0, -2)
    box = bounding_box(w.points)
    assert b_escapes(w, (0, 1), box)
    assert not b_escapes(w, (0, -1), box)


def test_b_escape_rule_prunes_the_sealing_move():
    w = Walk(from_text("RDLLUUUR"))
    assert allowed_moves(w, planar_a=False, planar_b=False) == [UP, RIGHT, DOWN]
    assert allowed_moves(w, planar_a=False, planar_b=True) == [UP, RIGHT]


def naive_reach(starts, blocked):
    """Breadth-first fill inside the blocked cells' box inflated by 3; None if
    it reaches the box's edge, which lies wholly outside the blocked cells."""
    lo_x = min(x for x, _ in blocked) - 3
    hi_x = max(x for x, _ in blocked) + 3
    lo_y = min(y for _, y in blocked) - 3
    hi_y = max(y for _, y in blocked) + 3
    seen = {p for p in starts if p not in blocked}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        if x in (lo_x, hi_x) or y in (lo_y, hi_y):
            return None
        for dx, dy in DIR_VEC:
            p = (x + dx, y + dy)
            if p not in seen and p not in blocked:
                seen.add(p)
                queue.append(p)
    return seen


@given(saw_dirs(4, 16), st.integers(0, 2))
def test_flood_fill_matches_naive_bfs(dirs, slack):
    # fill from B's neighbours, as b_escapes does, and from each free cell
    # next to the walk, as loop_shift_safe does from a fresh vertex; block the
    # walk alone, then the walk plus each free cell next to it as the gate.
    # The walk's box extended by the gate is the blocked set's own box, and any
    # larger box gives the same fill.
    w = Walk(dirs)
    walk_box = bounding_box(w.points)
    bx, by = w.points[0]
    b_starts = [(bx + dx, by + dy) for dx, dy in DIR_VEC]
    near = sorted(
        {(x + dx, y + dy) for x, y in w.points for dx, dy in DIR_VEC} - w.vset
    )
    for gate in [None] + near:
        blocked = w.vset if gate is None else w.vset | {gate}
        box = walk_box if gate is None else extend_box(walk_box, gate)
        assert box == bounding_box(blocked)
        lo_x, hi_x, lo_y, hi_y = box
        loose = (lo_x - slack, hi_x + slack, lo_y - slack, hi_y + slack)
        if gate is not None:
            assert b_escapes(w, gate, walk_box) == (naive_reach(b_starts, blocked) is None)
        for starts in [b_starts] + [[p] for p in near if p != gate]:
            expected = naive_reach(starts, blocked)
            assert flood_fill(starts, blocked, box) == expected
            assert flood_fill(starts, blocked, loose) == expected
