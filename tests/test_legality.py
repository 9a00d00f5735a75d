from collections import deque

from hypothesis import example, given, strategies as st

from sawbound import legality
from sawbound.geometry import DIR_VEC, DOWN, RIGHT, UP
from sawbound.legality import (
    MOVES,
    MOVE_INDEX,
    allowed_moves,
    b_escapes,
    b_neighbours,
    bounding_box,
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
    # walk alone, then the walk plus each free cell next to it as the gate,
    # both as a set union and as the fill's extra cell. The blocked set's own
    # box and any larger box give the same fill; with an extra cell, the
    # walk's own box serves.
    w = Walk(dirs)
    walk_box = bounding_box(w.points)
    bx, by = w.points[0]
    b_starts = [(bx + dx, by + dy) for dx, dy in DIR_VEC]
    near = sorted(
        {(x + dx, y + dy) for x, y in w.points for dx, dy in DIR_VEC} - w.vset
    )
    for gate in [None] + near:
        blocked = w.vset if gate is None else w.vset | {gate}
        box = bounding_box(blocked)
        lo_x, hi_x, lo_y, hi_y = box
        loose = (lo_x - slack, hi_x + slack, lo_y - slack, hi_y + slack)
        if gate is not None:
            assert b_escapes(w, gate, walk_box) == (naive_reach(b_starts, blocked) is None)
        for starts in [b_starts] + [[p] for p in near if p != gate]:
            expected = naive_reach(starts, blocked)
            assert flood_fill(starts, blocked, box) == expected
            assert flood_fill(starts, blocked, loose) == expected
            assert flood_fill(starts, w.vset, walk_box, gate) == expected
            assert flood_fill(starts, w.vset, loose, gate) == expected


@given(saw_dirs(4, 16))
@example(from_text("LUUULDDDDRRRUUUUR"))  # B's only way out is one cell past the box
def test_escape_never_depends_on_an_untested_cell(dirs):
    # the argument behind allowed_moves' one fill: when a fill around the
    # walk escapes, blocking any free cell it did not record as tested still
    # lets it escape
    w = Walk(dirs)
    box = bounding_box(w.points)
    lo_x, hi_x, lo_y, hi_y = box
    free = [
        (x, y)
        for x in range(lo_x - 2, hi_x + 3)
        for y in range(lo_y - 2, hi_y + 3)
        if (x, y) not in w.vset
    ]
    near = [p for p in free if any((p[0] + dx, p[1] + dy) in w.vset for dx, dy in DIR_VEC)]
    for starts in [b_neighbours(w)] + [[p] for p in near]:
        tested = set()
        comp = flood_fill(starts, w.vset, box, seen=tested)
        assert comp == naive_reach(starts, w.vset)
        if comp is None:
            for cell in free:
                if cell not in tested:
                    assert naive_reach(starts, w.vset | {cell}) is None


def reference_allowed_moves(w, planar_a, planar_b):
    """Occupancy, then planar-A exclusion, then a breadth-first fill from
    each neighbour of B around the walk and the candidate, per candidate."""
    excl = planar_a_exclusions(w) if planar_a else set()
    (hx, hy), (bx, by) = w.points[-1], w.points[0]
    out = []
    for mv in MOVES:
        dx, dy = DIR_VEC[mv]
        target = (hx + dx, hy + dy)
        if target in w.vset or mv in excl:
            continue
        b_starts = [(bx + ox, by + oy) for ox, oy in DIR_VEC]
        if planar_b and naive_reach(b_starts, w.vset | {target}) is not None:
            continue
        out.append(mv)
    return out


@given(saw_dirs(4, 16), st.booleans(), st.booleans())
@example(from_text("RULLDDRRRUU"), False, True)  # B walled in by the walk alone
def test_allowed_moves_matches_per_candidate_reference(dirs, planar_a, planar_b):
    w = Walk(dirs)
    assert allowed_moves(w, planar_a, planar_b) == reference_allowed_moves(w, planar_a, planar_b)


def test_only_tested_targets_get_their_own_fill(g10_default, monkeypatch):
    # over the k=10 graph's states, 243 targets lie where B's one fill
    # looked; every other move is decided without a fill of its own
    calls = []
    real = legality.b_escapes
    monkeypatch.setattr(legality, "b_escapes", lambda *args: calls.append(args) or real(*args))
    moves = sum(len(allowed_moves(Walk(key), True, True)) for key in g10_default.states)
    assert (moves, len(calls)) == (5081, 243)
