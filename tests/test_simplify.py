from dataclasses import fields

import pytest
from conftest import BASELINE, corner_sum, from_text, saw_dirs, turn_sign
from hypothesis import example, given, strategies as st

from sawbound import simplify
from sawbound.automaton import StateGraph, _children, build, graph_ctx
from sawbound.geometry import DIR_VEC, RIGHT, UP, linf_distance, reverse
from sawbound.legality import MOVE_INDEX, allowed_moves, bounding_box, flood_fill
from sawbound.simplify import (
    DOUBLE,
    EXTENDED,
    ExpandContext,
    LoopShift,
    NORMAL,
    Options,
    _clear_ray_count,
    allowance_class,
    allowance_limit,
    candidate_children,
    child_ids,
    drop_pair,
    erase_oldest,
    lacks_simplifications,
    large_bridges,
    line_like_class,
    loop_shift_safe,
    monotone_clear_path,
    small_bridges,
    small_loops,
)
from sawbound.state import (
    Walk,
    canonical,
    line_walk,
    points_of,
    size_loop,
)

@st.composite
def run_dirs(draw, max_steps=26):
    """A self-avoiding walk of straight runs, most turns in one sense, cut
    before its first self-intersection: spirals with long sides and
    near-touching ends, which `saw_dirs` rarely draws."""
    d = draw(st.sampled_from(range(4)))
    sense = draw(st.sampled_from((-1, 1)))
    runs = st.tuples(st.sampled_from((sense, sense, -sense)), st.integers(1, 5))
    x, y = 0, 0
    occupied = {(0, 0)}
    out = bytearray()
    for turn, length in draw(st.lists(runs, min_size=4, max_size=12)):
        for _ in range(length):
            dx, dy = DIR_VEC[d]
            x, y = x + dx, y + dy
            if (x, y) in occupied or len(out) == max_steps:
                return bytes(out)
            occupied.add((x, y))
            out.append(d)
        d = (d + turn) % 4
    return bytes(out)


def make_ctx(k=4, opts=BASELINE, members=None):
    """Expansion context seeded with the states of `members`, a dict from
    key to allowance class; admissions append to ctx.states."""
    members = members or {}
    return ExpandContext(k, opts, list(members), list(members.values()))


def assert_drops_one_pair(w, out):
    """`out` is `w` with one opposite step pair deleted, A and B in place."""
    d = w.dirs
    assert any(
        out.dirs == d[:i] + d[i + 1 : j] + d[j + 1 :]
        for i in range(len(d))
        for j in range(i + 1, len(d))
        if d[j] == reverse(d[i])
    )
    hx, hy = w.points[-1]
    assert [(x + hx, y + hy) for x, y in points_of(out.dirs)] == out.points
    assert out.points[0] == w.points[0]
    assert len(out.vset) == len(out.points)
    assert size_loop(out.points) == size_loop(w.points) - 2


# ---------------------------------------------------------------- options

OPTION_NAMES = [f.name for f in fields(Options)]


@given(st.tuples(*[st.booleans()] * len(OPTION_NAMES)))
def test_options_bits_round_trip(flags):
    opts = Options(**dict(zip(OPTION_NAMES, flags)))
    assert Options.from_bits(opts.to_bits()) == opts
    assert not opts.to_bits() & 1 << 6  # reserved for the retired staged children


def test_options_unknown_bits_rejected():
    mask = 1 << len(Options._BIT_FIELDS)
    with pytest.raises(ValueError):
        Options.from_bits(mask)
    with pytest.raises(ValueError, match="staged-children"):
        Options.from_bits(1 << 6)


def test_allowance_limit():
    assert allowance_limit(NORMAL, 10) == 10
    assert allowance_limit(EXTENDED, 10) == 12
    assert allowance_limit(DOUBLE, 10) == 14


# ---------------------------------------------------------- line-like class

def test_line_like_straight():
    assert line_like_class(line_walk(2), 8) == EXTENDED  # A-B gap below 3
    assert line_like_class(line_walk(4), 8) == DOUBLE


def test_line_like_single_turn():
    assert line_like_class(Walk(from_text("URRRR")), 8) == DOUBLE


def test_line_like_two_turns_same_sense():
    w = Walk(from_text("RULLL"))
    assert line_like_class(w, 10) == DOUBLE


def test_line_like_two_turns_opposite_senses():
    assert line_like_class(Walk(from_text("RURD")), 8) == NORMAL


def test_line_like_three_turns():
    assert line_like_class(Walk(from_text("RULD")), 8) == NORMAL


def test_line_like_only_reads_the_prefix():
    # identical k//2 prefixes must agree, whatever happens later
    a = Walk(from_text("RRRRUULD"))
    b = Walk(from_text("RRRRRRRR"))
    assert line_like_class(a, 8) == line_like_class(b, 8) == DOUBLE


# ------------------------------------------------------------------ bridges

def test_small_bridge_site_and_rewrite():
    w = Walk(from_text("RULL"))
    assert small_bridges(w) == [(0, 2)]
    out = drop_pair(w, 0, 2)
    assert_drops_one_pair(w, out)
    assert out.dirs == from_text("UL")
    assert out.points == [w.points[0]] + w.points[3:]


def test_small_bridge_none_on_line():
    assert small_bridges(line_walk(6)) == []


def test_large_bridge_site_and_rewrite():
    w = Walk(from_text("DLLUURR"))
    ((i, j),) = large_bridges(w)
    assert (i, j) == (2, 5)
    # the shortcut is one step dirs[i + 1] from vertex i, and it is free
    (vx, vy), (ox, oy) = w.points[i], DIR_VEC[w.dirs[i + 1]]
    cross = (vx + ox, vy + oy)
    assert cross not in w.vset
    out = drop_pair(w, i, j)
    assert_drops_one_pair(w, out)
    assert out.points[i + 1] == cross
    # the shortcut vertex ends up wedged against three walk neighbors
    assert sum(
        (cross[0] + dx, cross[1] + dy) in out.vset for dx, dy in DIR_VEC
    ) == 3


def test_large_bridge_requires_free_shortcut():
    # same S shape, but the walk tail sits on the shortcut cell
    w = Walk(from_text("RDLLUURR"))
    assert large_bridges(w) == []


def test_large_bridge_skips_walk_ends():
    # the S pattern counts only when its outer vertices are interior,
    # so detours starting at B or finishing at A are left alone
    assert large_bridges(Walk(from_text("LUURR"))) == []
    assert large_bridges(Walk(from_text("DLLUUR"))) == []


# --------------------------------------------------------------- small loops

def spiral_walk():
    """A sixteen-step outward spiral whose ends nearly touch, B at (3, 0)."""
    dirs = from_text("DDLLLDDDRRRRUURR")
    return Walk(dirs, [(x + 6, y - 3) for x, y in points_of(dirs)])


def test_small_loops_on_spiral():
    w = spiral_walk()
    shifts = small_loops(w)
    assert [drop_pair(w, s.i, s.j).points for s in shifts] == [
        # the inner column slides one cell toward the enclosed side
        [
            (3, 0), (3, -1), (3, -2), (2, -2), (1, -2),
            (1, -3), (1, -4), (1, -5), (2, -5), (3, -5),
            (4, -5), (4, -4), (4, -3), (5, -3), (6, -3),
        ],
        # the bottom row slides one cell up
        [
            (3, 0), (3, -1), (3, -2), (2, -2), (1, -2), (0, -2),
            (0, -3), (0, -4), (1, -4), (2, -4), (3, -4),
            (4, -4), (4, -3), (5, -3), (6, -3),
        ],
    ]
    for s in shifts:
        assert_drops_one_pair(w, drop_pair(w, s.i, s.j))
        assert all(p not in w.vset for p in s.extras)
        assert (s.gap_a, s.gap_b) == ((3, -1), (4, -3))
        assert loop_shift_safe(w, s)


def test_small_loops_need_clear_rays():
    # A in a pocket: fewer than two clear axis rays, so no scan happens
    assert small_loops(Walk(from_text("DDLLUUR"))) == []


def test_small_loops_short_walks():
    assert small_loops(line_walk(8)) == []


# ----------------------------------------------------- lacking simplifications

def test_lacks_on_zig_zag():
    assert lacks_simplifications(Walk(from_text("RURU")))


def test_lacks_rejected_by_near_b_bridge():
    assert not lacks_simplifications(Walk(from_text("RULLL")))


def test_lacks_rejected_by_loop():
    assert not lacks_simplifications(spiral_walk())


def test_lacks_rejected_without_escape_path():
    # a straight line: the only monotone A-B corridor runs along the walk
    assert not lacks_simplifications(line_walk(4))


def test_monotone_clear_path():
    assert monotone_clear_path(Walk(from_text("RRRU")))
    # a wall crossing every monotone corridor between A and B
    blocked = Walk(from_text("LLDDLU"))
    assert blocked.points[0] == (3, 1) and blocked.points[-1] == (0, 0)
    assert not monotone_clear_path(blocked)


@given(saw_dirs(0, 24))
@example(from_text("RRRU"))
@example(from_text("LLDDLU"))
def test_monotone_clear_path_matches_full_table(dirs):
    # the whole table over the A-B rectangle, each cell reached from the
    # cell before it on either axis; only B may lie on the walk
    w = Walk(dirs)
    (ax, ay), (bx, by) = w.points[-1], w.points[0]
    nx, ny = abs(bx - ax), abs(by - ay)
    sx, sy = (1 if bx >= ax else -1), (1 if by >= ay else -1)
    table = [[False] * (ny + 1) for _ in range(nx + 1)]
    for i in range(nx + 1):
        for j in range(ny + 1):
            if i == j == 0:
                table[i][j] = True
            elif (i, j) == (nx, ny) or (ax + sx * i, ay + sy * j) not in w.vset:
                table[i][j] = (i > 0 and table[i - 1][j]) or (j > 0 and table[i][j - 1])
    assert monotone_clear_path(w) == table[nx][ny]


# ------------------------------------------------------------------- erasure

def test_erase_stops_at_base_budget():
    ctx = make_ctx(k=4)
    w = line_walk(4)
    t, key = erase_oldest(w, ctx)
    assert w.dirs[t:] == bytes([RIGHT, RIGHT])
    assert key == canonical(w.dirs[t:])


def test_erase_stops_early_on_covered_member():
    member = canonical(bytes([RIGHT] * 3))
    ctx = make_ctx(k=4, members={member: EXTENDED})
    w = line_walk(4)
    t, key = erase_oldest(w, ctx)
    assert key == member
    assert size_loop(w.points[t:]) == 6  # above k, admitted through the stored allowance


def test_erase_class_without_membership_does_not_stop():
    # the three-edge line would qualify as line-like, but qualification
    # alone is not admission
    ctx = make_ctx(k=4, opts=Options(two_pass=False))
    w = line_walk(4)
    t, _ = erase_oldest(w, ctx)
    assert w.dirs[t:] == bytes([RIGHT, RIGHT])


def test_erase_two_vertex_walk_rejected():
    ctx = make_ctx(k=4)
    with pytest.raises(ValueError):
        erase_oldest(line_walk(1), ctx)


# ---------------------------------------------------------------- children

def test_admissible_step_is_its_own_child():
    ctx = make_ctx(k=4)
    out = candidate_children(line_walk(1), UP, ctx)
    assert len(out) == 1
    key, w = out[0]
    assert w.dirs == from_text("RU")
    assert key == canonical(w.dirs)
    assert ctx.states == [key]


def test_oversized_step_falls_back_to_erasure():
    ctx = make_ctx(k=4)
    out = candidate_children(line_walk(2), UP, ctx)
    assert [key for key, _ in out] == [canonical(from_text("RU"))]


def test_children_deduplicated_in_emission_order():
    # stepping Right overshoots k=8; the erase fallback and the expansion of
    # the U-detour rewrite at B both end in the same state, so it is emitted
    # twice, and the stored children keep one copy, in first-emission position
    w = Walk(from_text("LDRRDRR"))
    raw = candidate_children(w, RIGHT, make_ctx(k=8, opts=Options()))
    assert len(raw) == 2
    assert raw[0][0] == raw[1][0]
    assert canonical(w.dirs) == w.dirs
    ctx = make_ctx(k=8, opts=Options(), members={w.dirs: NORMAL})
    assert _children(ctx, 0)[MOVE_INDEX[RIGHT]] == [ctx.ids[raw[0][0]]]


def test_memo_replay_and_stale_entry_match_a_fresh_expansion(monkeypatch):
    # expand as a k=8 build does until a rewrite subtree stored in the memo
    # has passed over an absent key
    stored = []
    remember = ExpandContext.remember

    def spy(ctx, key, ids, passed):
        stored.append(list(passed))
        remember(ctx, key, ids, passed)

    monkeypatch.setattr(ExpandContext, "remember", spy)
    opts = Options()
    ctx = ExpandContext(8, opts)
    root = line_walk(4)
    ctx.admit(root, canonical(root.dirs))
    found = None
    for key in ctx.states:  # grows as the expansions admit states
        w = Walk(key)
        for mv in allowed_moves(w, True, True):
            stored.clear()
            first = child_ids(w, mv, ctx)
            passed = [pkey for keys in stored for pkey in keys]
            if passed:
                found = w, mv, passed[0]
                break
        if found:
            break
    w, mv, absent = found
    assert absent not in ctx.ids

    def fresh():
        # the same members and classes, and an empty memo
        return ExpandContext(8, opts, list(ctx.states), [ctx.classes[key] for key in ctx.states])

    # while the passed key is absent, the entry replays
    twin = fresh()
    hits = ctx.memo_hits
    assert child_ids(w, mv, ctx) == child_ids(w, mv, twin) == first
    assert ctx.memo_hits > hits
    assert ctx.trail == twin.trail and absent in ctx.trail

    # admitted with a class that covers it, the key stops that erasure, so
    # the entry is stale and its subtree is expanded afresh
    ctx.classes[absent] = DOUBLE
    ctx.admit(None, absent)
    twin = fresh()
    stale = ctx.memo_stale
    again = child_ids(w, mv, ctx)
    assert ctx.memo_stale == stale + 1
    assert again == child_ids(w, mv, twin)
    assert ctx.ids[absent] in again and ctx.ids[absent] not in first
    assert ctx.trail == twin.trail
    assert ctx.states == twin.states


def test_context_rejects_bad_k():
    with pytest.raises(ValueError):
        make_ctx(k=5)
    with pytest.raises(ValueError):
        make_ctx(k=2)


# -------------------------------------------------------------- class table

def test_build_classes_each_key_once_within_the_double_limit(monkeypatch):
    # a key fixes size_loop, so a walk above k + 2*DOUBLE is never classed
    classed = []

    def counted(walk, k, opts):
        classed.append((canonical(walk.dirs), size_loop(walk.points)))
        return allowance_class(walk, k, opts)

    monkeypatch.setattr(simplify, "allowance_class", counted)
    g = build(10)
    assert max(sl for _, sl in classed) <= allowance_limit(DOUBLE, 10)
    keys = [key for key, _ in classed]
    assert len(set(keys)) == len(keys)
    assert set(g.states) <= set(keys)


def test_graph_ctx_reads_stored_classes(g10_default):
    g = g10_default
    sid = len(g) - 1
    key = g.states[sid]
    computed = allowance_class(Walk(key), g.k, g.options)
    assert g.allowances[sid] == computed
    allowances = list(g.allowances)
    allowances[sid] = (computed + 1) % 3
    ctx = graph_ctx(StateGraph(g.k, g.options, g.states, allowances, g.offsets, g.ids))
    assert ctx.allowance(Walk(key), key) == allowances[sid]


# ------------------------------------------------------------- invariants

@given(saw_dirs(4, 16))
def test_rewrites_shrink_size_loop_by_two(dirs):
    w = Walk(dirs)
    target = size_loop(w.points) - 2
    pairs = small_bridges(w) + large_bridges(w) + [(s.i, s.j) for s in small_loops(w)]
    for out in (drop_pair(w, i, j) for i, j in pairs):
        assert len(out.vset) == len(out.points)
        assert size_loop(out.points) == target


@given(saw_dirs(4, 20))
@example(from_text("DLLUURR"))  # one large bridge
@example(from_text("DDLLLDDDRRRRUURR"))  # the spiral: two loop shifts
def test_rewrites_drop_one_opposite_pair(dirs):
    w = Walk(dirs)
    for i, j in small_bridges(w) + large_bridges(w):
        assert_drops_one_pair(w, drop_pair(w, i, j))
    for shift in small_loops(w):
        out = drop_pair(w, shift.i, shift.j)
        assert_drops_one_pair(w, out)
        assert list(shift.extras) == [p for p in out.points if p not in w.vset]


@given(saw_dirs(4, 16))
def test_loop_shift_extras_are_fresh(dirs):
    w = Walk(dirs)
    for shift in small_loops(w):
        assert all(p not in w.vset for p in shift.extras)


@given(saw_dirs(0, 24))
@example(from_text("DLLUURR"))
def test_clear_ray_count_matches_per_ray_scan(dirs):
    # step out from A along each axis ray, as far as the walk can reach
    w = Walk(dirs)
    clear = sum(
        all((dx * t, dy * t) not in w.vset for t in range(1, len(dirs) + 1))
        for dx, dy in DIR_VEC
    )
    assert _clear_ray_count(w) == clear


# -------------------------------------------------------- reference kernels
#
# Straightforward loop versions of the rewrite kernels: `small_loops` scans
# every (i, j) portion, recomputes each corner sum and builds each shifted
# walk to test it for self-avoidance, and `erase_oldest`
# canonicalises every suffix. The fast kernels must agree with them exactly.

def reference_small_loops(walk):
    if _clear_ray_count(walk) < 2:
        return []
    dirs = walk.dirs
    pts = walk.points
    m = len(dirs)
    runs = []
    s = 0
    for t in range(1, m + 1):
        if t == m or dirs[t] != dirs[s]:
            if t - s >= 3:
                runs.append((s, t))
            s = t
    out = []
    tried = set()
    for i in range(m - 8):
        pi = pts[i]
        for j in range(i + 9, m + 1):
            gap = linf_distance(pi, pts[j])
            if gap > 2 or (gap == 2 and j == m):
                continue
            cs = corner_sum(dirs, i, j)
            if cs == 0:
                continue
            orient = 1 if cs > 0 else -1
            for a, b in runs:
                if a < i + 1 or b > j - 1 or a in tried:
                    continue
                if turn_sign(dirs[a - 1], dirs[a]) != orient:
                    continue
                if turn_sign(dirs[b - 1], dirs[b]) != orient:
                    continue
                tried.add(a)
                cand = drop_pair(walk, a - 1, b)
                if len(cand.vset) < len(cand.points):
                    continue
                extras = tuple(p for p in cand.points[a : b - 1] if p not in walk.vset)
                out.append(LoopShift(a - 1, b, extras, pi, pts[j]))
    return out


def reference_erase_oldest(walk, ctx):
    dirs = walk.dirs
    pts = walk.points
    k = ctx.k
    for t in range(1, len(pts) - 1):
        key = canonical(dirs[t:])
        sl = size_loop(pts[t:])
        sid = ctx.ids.get(key)
        limit = k if sid is None else allowance_limit(ctx.classes[key], k)
        if sl <= limit:
            return t, key
        if sid is None and sl <= allowance_limit(DOUBLE, k):
            ctx.trail.append(key)
    raise ValueError("cannot erase the oldest vertex of a two-vertex walk")


def reference_bridge_sites(walk):
    """(U sites, S sites) from the definitions, with explicit turn tests."""
    d = walk.dirs

    def perp(a, b):
        return (a - b) % 2 == 1

    def shortcut(i):
        (vx, vy), (ox, oy) = walk.points[i], DIR_VEC[d[i + 1]]
        return vx + ox, vy + oy

    u = [i for i in range(len(d) - 2) if perp(d[i], d[i + 1]) and d[i + 2] == reverse(d[i])]
    s = [
        i
        for i in range(1, len(d) - 4)
        if perp(d[i], d[i + 1]) and d[i + 2] == d[i + 1] and d[i + 3] == reverse(d[i])
        and shortcut(i) not in walk.vset
    ]
    return u, s


@given(st.one_of(saw_dirs(4, 26), run_dirs()))
@example(from_text("DDLLLDDDRRRRUURR"))  # the spiral: two loop shifts
def test_small_loops_matches_reference(dirs):
    w = Walk(dirs)
    assert small_loops(w) == reference_small_loops(w)


@given(st.one_of(saw_dirs(4, 26), run_dirs()))
@example(from_text("DLLUURR"))  # one large bridge
def test_bridge_sites_match_reference(dirs):
    w = Walk(dirs)
    u, s = reference_bridge_sites(w)
    assert small_bridges(w) == [(i, i + 2) for i in u]
    assert large_bridges(w) == [(i, i + 3) for i in s]


def reference_lacks_simplifications(walk):
    """No bridge site in the B-side half, no loop shift, and a clear
    monotone A-B path, each from its reference."""
    half = (len(walk.dirs) + 2) // 2
    u, s = reference_bridge_sites(walk)
    if any(i < half for i in u + s):
        return False
    return not reference_small_loops(walk) and monotone_clear_path(walk)


@given(st.one_of(saw_dirs(1, 26), run_dirs()))
@example(from_text("RURU"))  # zig-zag: lacks
@example(from_text("RULLL"))  # a U next to B
@example(from_text("RRRRRULL"))  # its U starts at step 4, inside the B-side half
@example(from_text("RRRRRRULL"))  # its U starts at step 5, the half
@example(from_text("RRRRRRRUULLU"))  # its S starts at step 6, inside the B-side half
@example(from_text("RRRRRRRRUULU"))  # its S starts at step 7, the half
@example(from_text("DDLLLDDDRRRRUURR"))  # the spiral: two loop shifts
def test_lacks_simplifications_matches_reference(dirs):
    w = Walk(dirs)
    assert lacks_simplifications(w) == reference_lacks_simplifications(w)


@given(
    st.one_of(saw_dirs(2, 26), run_dirs().filter(lambda d: len(d) >= 2)),
    st.sampled_from([4, 6, 8, 10, 12, 14]),
    st.data(),
)
def test_erase_oldest_matches_reference(dirs, k, data):
    # seed the states with a random choice of the walk's suffixes, each with
    # a random allowance class, so that erasures stop on members of every
    # class as well as on the base budget
    w = Walk(dirs)
    suffixes = sorted({canonical(dirs[t:]) for t in range(1, len(dirs))})
    chosen = data.draw(st.lists(st.sampled_from(suffixes), unique=True))
    members = {key: data.draw(st.sampled_from((NORMAL, EXTENDED, DOUBLE))) for key in chosen}
    fast, ref = make_ctx(k=k, members=members), make_ctx(k=k, members=members)
    assert erase_oldest(w, fast) == reference_erase_oldest(w, ref)
    assert fast.trail == ref.trail


def test_kernels_match_reference_on_built_walks():
    # every stepped walk a k=10 build expands, against the graph's own states
    g = build(10)
    fast, ref = graph_ctx(g), graph_ctx(g)
    shifted = 0
    for key in g.states:
        w = Walk(key)
        for mv in allowed_moves(w, True, True):
            step = w.stepped(mv)
            got = small_loops(step)
            assert got == reference_small_loops(step)
            shifted += bool(got)
            if size_loop(step.points) > 10:
                assert erase_oldest(step, fast) == reference_erase_oldest(step, ref)
    assert shifted and len(fast.trail)
    assert fast.trail == ref.trail


def reference_loop_shift_safe(walk, shift):
    """`loop_shift_safe` with each gate blocked by a set union and a fill over
    every candidate gate."""
    extras = shift.extras
    if not extras:
        return True
    start = extras[:1]
    if flood_fill(start, walk.vset, bounding_box(walk.points)) is not None:
        return True
    ax, ay = walk.points[-1]
    gax, gay = shift.gap_a
    for ox in range(-2, 3):
        for oy in range(-2, 3):
            g = (gax + ox, gay + oy)
            if linf_distance(g, shift.gap_b) > 2 or g in walk.vset or g in extras:
                continue
            blocked = walk.vset | {g}
            comp = flood_fill(start, blocked, bounding_box(blocked))
            if comp is not None and not any((ax + dx, ay + dy) in comp for dx, dy in DIR_VEC):
                return True
    return False


def test_loop_shift_safe_matches_set_union_reference(g10_default):
    # every shift small_loops emits for the k=10 graph's states and the walks
    # they step to; every one is safe, and 288 of the 626 need a gate
    shifts = gated = 0
    for key in g10_default.states:
        w = Walk(key)
        for walk in [w] + [w.stepped(mv) for mv in allowed_moves(w, True, True)]:
            for shift in small_loops(walk):
                assert loop_shift_safe(walk, shift) == reference_loop_shift_safe(walk, shift)
                shifts += 1
                gated += flood_fill(shift.extras[:1], walk.vset, bounding_box(walk.points)) is None
    assert (shifts, gated) == (626, 288)


@pytest.mark.parametrize("text", ["DLULURRRRRRUULDLLLULDLUULURRUU", "DRDDRDDLULDDRDDDDDLLURUUULLL"])
def test_loop_shift_safe_rejects_an_open_pocket(text):
    # walks with one shift whose pocket no single gate seals
    w = Walk(from_text(text))
    (shift,) = small_loops(w)
    assert not loop_shift_safe(w, shift)
    assert not reference_loop_shift_safe(w, shift)
