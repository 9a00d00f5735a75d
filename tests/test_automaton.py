"""Graph construction, the on-disk format, and unrolled path counts."""

import hashlib
import itertools
import os
import resource
import struct
from unittest import mock

import numpy as np
import pytest
from conftest import dense, resealed, saw_dirs
from hypothesis import given, settings, strategies as st

from sawbound import automaton, simplify
from sawbound.automaton import (
    GraphAllowanceError,
    GraphBudgetError,
    GraphChecksumError,
    GraphChildError,
    GraphClosureError,
    GraphEmptyError,
    GraphFileError,
    GraphMagicError,
    GraphOptionsError,
    GraphStepsError,
    GraphTruncatedError,
    GraphVersionError,
    GraphWalkError,
    StateGraph,
    _child_arrays,
    build,
    graph_ctx,
    load_graph,
    save_graph,
)
from sawbound.cli import ABLATE_COMBOS
from sawbound.geometry import DOWN, LEFT, REFLECT_TABLE, RIGHT, ROT_SUB, UP
from sawbound.legality import MOVES, allowed_moves
from sawbound.oracle import count_line_extensions, unroll
from sawbound.simplify import ExpandContext, Options, allowance_limit, candidate_children
from sawbound.spectral import choice_matrix, first_choice
from sawbound.state import Walk, canonical, line_walk, points_of, size_loop

# erasure as the only rewrite, and no legality pruning beyond self-avoidance
ERASE_ONLY = Options(
    line_like=False,
    lacking_simpl=False,
    small_bridges=False,
    large_bridges=False,
    small_loops=False,
    two_pass=False,
    planar_a=False,
    planar_b=False,
)


def test_build_rejects_bad_k():
    with pytest.raises(ValueError):
        build(5)
    with pytest.raises(ValueError):
        build(2)


def test_root_is_half_line(g4_baseline, g10_default):
    assert g4_baseline.states[g4_baseline.root] == bytes((RIGHT, RIGHT))
    assert g10_default.states[g10_default.root] == bytes((RIGHT,) * 5)
    # a straight root always earns the doubled allowance when classes are on
    assert g10_default.allowances[g10_default.root] == 2
    assert g4_baseline.allowances[g4_baseline.root] == 0


def test_k4_baseline_has_three_states(g4_baseline):
    assert len(g4_baseline) == 3


def test_k4_first_choice_matrix_matches_known_form(g4_baseline):
    target = ((1, 2, 0), (1, 1, 1), (1, 1, 0))
    m = dense(choice_matrix(first_choice(g4_baseline)))
    hits = [
        p
        for p in itertools.permutations(range(3))
        if all(m[p[i], p[j]] == target[i][j] for i in range(3) for j in range(3))
    ]
    assert hits


def test_children_ids_in_range(g10_default):
    g = g10_default
    assert g.offsets.dtype == np.int64 and g.ids.dtype == np.int32
    assert len(g.offsets) == 3 * len(g) + 1
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.ids)
    assert (np.diff(g.offsets) >= 0).all()
    assert ((0 <= g.ids) & (g.ids < len(g))).all()
    # children(s, j) is the (s, j) segment, in state then move order
    assert np.array_equal(
        np.concatenate([g.children(s, j) for s in range(len(g)) for j in range(3)]), g.ids
    )


BLOCKING_ROWS = [
    *(Options(line_like=bool(a), lacking_simpl=bool(b), two_pass=bool(c))
      for a, b, c in ABLATE_COMBOS),
    Options(planar_a=False),
    Options(planar_a=False, planar_b=False),
]


@pytest.mark.parametrize("opts", BLOCKING_ROWS)
def test_only_blocked_moves_have_empty_segments(opts):
    g = build(8, opts)
    for s, key in enumerate(g.states):
        open_moves = [MOVES[j] for j in range(3) if len(g.children(s, j))]
        assert open_moves == allowed_moves(Walk(key), opts.planar_a, opts.planar_b)


# blake2b trailers of the graph files for the ABLATE_COMBOS rows, in order;
# the last row is the default options. Any change to a graph shows here.
TRAILERS = {
    6: ("4b2945ef38497191", "171fe84c96b09c03", "c99f40993bb9f6b5",
        "492bfc52e1f76e0a", "17bf2a1e0222d6dd", "fe2716b7b477de69"),
    8: ("6d11de24bc6b26f8", "03961bb3f365be96", "3a36527c63710c34",
        "a9e0cf7e9ecff37a", "48143246f1bf2a75", "df77cf2e4401e02a"),
    10: ("4dd450d5300cf4f6", "37da8f7668373118", "3a46891585118600",
         "56d88778ddecd510", "bb677f9cf24184f1", "176ca464e9e5f2ac"),
    12: ("f0b4cdbc22ad1fda", "1df4362ce0088501", "7fa6b7af5610e942",
         "5838ba26896d3a9e", "5490bd6fc00c2999", "4562c7c351d63daa"),
}


@pytest.mark.parametrize("k", sorted(TRAILERS))
def test_graph_files_pinned(tmp_path, k):
    rows = [
        Options(line_like=bool(a), lacking_simpl=bool(b), two_pass=bool(c))
        for a, b, c in ABLATE_COMBOS
    ]
    assert rows[-1] == Options()
    path = tmp_path / "g.graph"
    trailers = []
    for opts in rows:
        save_graph(build(k, opts), str(path))
        trailers.append(path.read_bytes()[-8:].hex())
    assert tuple(trailers) == TRAILERS[k]


def test_k14_one_pass_graph_file_pinned(tmp_path, g14_one_pass):
    # the graph the solver's memory test runs on; test_acceptance pins the
    # k=14 and k=16 default files
    path = tmp_path / "g.graph"
    save_graph(g14_one_pass, str(path))
    assert path.read_bytes()[-8:].hex() == "773b33a97e8f4ea7"


def test_two_pass_reaches_same_state_set():
    two = build(8)
    one = build(8, Options(two_pass=False))
    assert set(two.states) == set(one.states)
    key_cls = {key: cls for key, cls in zip(one.states, one.allowances)}
    assert all(key_cls[key] == cls for key, cls in zip(two.states, two.allowances))


def _segments(g):
    return [tuple(g.ids[g.offsets[3 * s]:g.offsets[3 * s + 3]]) for s in range(len(g))]


TWO_PASS_ROWS = [
    Options(line_like=bool(a), lacking_simpl=bool(b)) for a, b, c in ABLATE_COMBOS if c
]


@pytest.mark.parametrize("opts", TWO_PASS_ROWS)
@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_incremental_pass_two_equals_full_recompute(monkeypatch, k, opts):
    stale = []
    select = automaton._stale_states

    def recorded(ctx, starts):
        out = select(ctx, starts)
        stale.append(set(out.tolist()))
        return out

    monkeypatch.setattr(automaton, "_stale_states", recorded)
    stats = {}
    g = build(k, opts, stats=stats)
    offsets, ids = _child_arrays(graph_ctx(g))
    assert np.array_equal(offsets, g.offsets) and np.array_equal(ids, g.ids)
    # pass 1 alone is the one-pass build, over the same states in the same order
    one = build(k, Options(line_like=opts.line_like, lacking_simpl=opts.lacking_simpl,
                           two_pass=False))
    assert one.states == g.states
    changed = {s for s, (a, b) in enumerate(zip(_segments(one), _segments(g))) if a != b}
    assert changed <= stale[0]
    assert stats["pass2_recomputed"] == len(stale[0])
    if k == 10 and opts == Options():
        assert stats["pass2_recomputed"] == 268


def test_one_pass_build_recomputes_nothing():
    stats = {}
    build(6, Options(two_pass=False), stats=stats)
    assert stats["pass2_recomputed"] == 0
    assert stats["pass1_s"] > 0 and stats["pass2_s"] >= 0


def test_build_counts_rewrite_walks_and_memo_use(monkeypatch):
    # every rewrite subtree that needs expanding is a hit, a miss or stale,
    # and each miss or stale entry is expanded afresh and stored again
    stored = []
    remember = ExpandContext.remember

    def counted(ctx, key, ids, passed):
        stored.append(key)
        remember(ctx, key, ids, passed)

    monkeypatch.setattr(ExpandContext, "remember", counted)
    stats = {}
    build(10, stats=stats)
    assert stats["memo_misses"] + stats["memo_stale"] == len(stored)
    # an expanded rewrite is a walk, and a replayed one is none
    assert len(stored) <= stats["rewrite_walks"]
    # pinned: a change to the memo or to when a rewrite becomes a walk shows here
    assert [stats[name] for name in ("rewrite_walks", "memo_hits", "memo_misses", "memo_stale")] \
        == [1113, 693, 891, 0]


def _eager_children(k: int, opts: Options) -> tuple[list[bytes], list[list[int]]]:
    """States and per-(state, move) child ids of a build made through
    `candidate_children`, which makes every rewrite a walk and bypasses the
    memo: pass 1 in id order, then with two_pass every state recomputed
    against the frozen state set."""
    ctx = ExpandContext(k, opts)
    root = line_walk(k // 2)
    ctx.admit(root, canonical(root.dirs))

    def segments(sid):
        w = Walk(ctx.states[sid])
        moves = allowed_moves(w, opts.planar_a, opts.planar_b)
        for mv in MOVES:
            keys = dict.fromkeys(key for key, _ in candidate_children(w, mv, ctx)) \
                if mv in moves else {}
            yield [ctx.ids[key] for key in keys]

    segs = []
    sid = 0
    while sid < len(ctx.states):
        segs.extend(segments(sid))
        sid += 1
    if opts.two_pass:
        ctx.frozen = True
        segs = [seg for sid in range(len(ctx.states)) for seg in segments(sid)]
    return ctx.states, segs


@pytest.mark.parametrize("combo", ABLATE_COMBOS)
def test_memo_replay_equals_eager_expansion(combo):
    # the build's lazy rewrites and memo replays against a build whose every
    # expansion runs afresh with walks; all rows but (0, 0, 0) replay entries
    opts = Options(line_like=bool(combo[0]), lacking_simpl=bool(combo[1]),
                   two_pass=bool(combo[2]))
    g = build(10, opts)
    states, segs = _eager_children(10, opts)
    assert g.states == states
    assert [g.children(s, j).tolist() for s in range(len(g)) for j in range(3)] == segs


def test_memo_entries_equal_fresh_expansions(monkeypatch):
    # each stored entry against an expansion of its rewrite without the memo,
    # in a context holding the states that were members when the subtree
    # began: its ids, and its passed keys, nested replays' included
    recall, remember = ExpandContext.recall, ExpandContext.remember
    begun = []
    checked = 0

    def recall_spy(ctx, key, out):
        hit = recall(ctx, key, out)
        if not hit:
            begun.append(len(ctx.states))
        return hit

    def remember_spy(ctx, key, ids, passed):
        nonlocal checked
        members = ctx.states[:begun.pop()]
        twin = ExpandContext(ctx.k, ctx.opts, members, [ctx.classes[m] for m in members])
        w = Walk(key)
        out = []
        simplify._expand(w, size_loop(w.points), twin, 1, out, True)
        assert [twin.ids[ckey] for ckey, _ in out] == ids
        assert twin.trail == passed
        checked += bool(passed)
        remember(ctx, key, ids, passed)

    monkeypatch.setattr(ExpandContext, "recall", recall_spy)
    monkeypatch.setattr(ExpandContext, "remember", remember_spy)
    build(10)
    assert checked and not begun


def test_build_deterministic(tmp_path):
    a = build(6)
    b = build(6)
    assert a == b
    pa, pb = tmp_path / "a.graph", tmp_path / "b.graph"
    save_graph(a, str(pa))
    save_graph(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


@settings(deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=40).map(bytes),
                          st.integers(0, 2)), min_size=1, max_size=12),
       st.integers(1, 60))
def test_save_packs_steps_two_bits_each(tmp_path_factory, records, chunk):
    # step t of a record sits in bits 2(t mod 4) of its byte t // 4 and the
    # padding bits stay 0, whatever runs the small chunk cuts the records into
    states = [dirs for dirs, _ in records]
    allowances = [cls for _, cls in records]
    fake = StateGraph(6, Options(), states, allowances, np.zeros(3 * len(states) + 1), [])
    path = tmp_path_factory.mktemp("packed") / "g.graph"
    with mock.patch.object(automaton, "_STEP_CHUNK", chunk):
        save_graph(fake, str(path))
    # no children: the child section is one zero count word per (state, move)
    assert path.read_bytes()[20:-8] == state_section(states, allowances) + bytes(12 * len(states))


@given(st.lists(st.integers(0, 12), max_size=30), st.integers(1, 8),
       st.sampled_from([np.uint16, np.int64]))
def test_runs_are_consecutive_and_within_the_chunk(sizes, chunk, dtype):
    # the cutter of the state records (uint16 step counts) and of reselect's
    # segments (int64 child counts); an item counts its size plus one
    runs = list(automaton._runs(np.array(sizes, dtype), chunk))
    edges = [0] + [b for _, b in runs]
    assert [a for a, _ in runs] == edges[:-1] and edges[-1] == len(sizes)
    assert all(a < b for a, b in runs)
    for a, b in runs:
        assert b - a == 1 or sum(sizes[a:b]) + (b - a) <= chunk


def test_roundtrip_bit_identical(tmp_path):
    g = build(6)
    first = tmp_path / "g.graph"
    written = save_graph(g, str(first))
    assert written == os.path.getsize(first)
    loaded = load_graph(str(first))
    assert loaded == g
    second = tmp_path / "again.graph"
    save_graph(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture()
def saved(tmp_path, g4_baseline):
    path = tmp_path / "g.graph"
    save_graph(g4_baseline, str(path))
    return path, bytearray(path.read_bytes())


@pytest.fixture(scope="session")
def g6_saved(tmp_path_factory):
    """The default k=6 graph (163 states) and its saved bytes."""
    g = build(6)
    path = tmp_path_factory.mktemp("g6") / "g.graph"
    save_graph(g, str(path))
    return g, path.read_bytes()


def test_corrupt_magic(saved):
    path, blob = saved
    blob[0] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(GraphMagicError):
        load_graph(str(path))


def test_corrupt_version(saved):
    path, blob = saved
    struct.pack_into("<H", blob, 4, 2)
    path.write_bytes(blob)
    with pytest.raises(GraphVersionError):
        load_graph(str(path))


def test_corrupt_truncated(saved):
    path, blob = saved
    path.write_bytes(blob[:-5])
    with pytest.raises(GraphTruncatedError):
        load_graph(str(path))
    path.write_bytes(blob[:3])
    with pytest.raises(GraphTruncatedError):
        load_graph(str(path))
    path.write_bytes(bytes(blob) + b"junkjunk")
    with pytest.raises(GraphTruncatedError):
        load_graph(str(path))


def test_corrupt_body_byte(saved):
    path, blob = saved
    for at in (23, -3):  # inside the first state's packed steps, then the trailer itself
        flipped = bytearray(blob)
        flipped[at] ^= 0xFF
        path.write_bytes(flipped)
        with pytest.raises(GraphChecksumError):
            load_graph(str(path))


def test_trailer_is_blake2b_of_the_body(saved):
    _, blob = saved
    assert blob[-8:] == hashlib.blake2b(blob[:-8], digest_size=8).digest()


@pytest.mark.parametrize("bit", [6, 9, 31])
def test_retired_and_unknown_option_bits(saved, bit):
    path, blob = saved
    (mask,) = struct.unpack_from("<I", blob, 8)
    struct.pack_into("<I", blob, 8, mask | 1 << bit)
    path.write_bytes(resealed(blob))
    with pytest.raises(GraphOptionsError, match="staged-children" if bit == 6 else "unknown"):
        load_graph(str(path))


@pytest.mark.parametrize("k", [2, 5, 42])
def test_bad_budget_rejected(saved, k):
    path, blob = saved
    struct.pack_into("<H", blob, 6, k)
    path.write_bytes(resealed(blob))
    with pytest.raises(GraphBudgetError, match=rf"k must be even and within \[4, 40\], got {k}$"):
        load_graph(str(path))


def test_child_count_past_section_rejected(saved, g4_baseline):
    path, blob = saved
    g = g4_baseline
    # the last segment's count word sits just before its ids at the body's end
    at = len(blob) - 8 - 4 * (1 + len(g.children(len(g) - 1, 2)))
    (count,) = struct.unpack_from("<I", blob, at)
    struct.pack_into("<I", blob, at, count + 1)
    path.write_bytes(resealed(blob))
    with pytest.raises(GraphTruncatedError, match="child counts"):
        load_graph(str(path))


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_child_section_of_partial_words_rejected(saved, extra):
    path, blob = saved
    path.write_bytes(resealed(blob[:-8] + bytes(extra + 8)))
    with pytest.raises(GraphTruncatedError, match="whole u32 words"):
        load_graph(str(path))


def test_empty_graph_rejected(tmp_path):
    # a sound header with state count 0 and a valid checksum has no root
    path = tmp_path / "empty.graph"
    assert save_graph(StateGraph(6, Options(), [], [], [0], []), str(path)) == 28
    with pytest.raises(GraphEmptyError, match="no states"):
        load_graph(str(path))


def test_bad_allowance_rejected(saved):
    path, blob = saved
    blob[20] = 3  # the first state's allowance class
    path.write_bytes(resealed(blob))
    with pytest.raises(GraphAllowanceError):
        load_graph(str(path))


def save_with_state(tmp_path, g, sid, dirs):
    """Save `g` with state `sid`'s step string replaced; the checksum holds."""
    states = list(g.states)
    states[sid] = dirs
    path = tmp_path / "g.graph"
    save_graph(StateGraph(g.k, g.options, states, g.allowances, g.offsets, g.ids), str(path))
    return str(path)


def test_stepless_state_rejected(tmp_path, g4_baseline):
    path = save_with_state(tmp_path, g4_baseline, 1, b"")
    with pytest.raises(GraphStepsError, match="no steps"):
        load_graph(path)


def test_oversized_state_rejected(tmp_path, g4_baseline):
    g = g4_baseline
    assert g.allowances[1] == 0
    # four straight steps have size_loop 8, above k = 4; a U of three steps
    # (L D R in canonical form) has size_loop 4, exactly k, and still loads
    with pytest.raises(GraphStepsError, match="size 8"):
        load_graph(save_with_state(tmp_path, g, 1, bytes([RIGHT] * 4)))
    assert load_graph(save_with_state(tmp_path, g, 1, bytes([LEFT, DOWN, RIGHT])))


def test_non_walk_state_rejected(tmp_path, g4_baseline):
    # R L R steps back onto its own vertex
    with pytest.raises(GraphWalkError, match="state 1"):
        load_graph(save_with_state(tmp_path, g4_baseline, 1, bytes([RIGHT, LEFT, RIGHT])))


def test_non_canonical_state_rejected(tmp_path, g4_baseline):
    g = g4_baseline
    dirs = g.states[2]
    for r in (1, 2, 3):
        rotated = dirs.translate(ROT_SUB[r])
        with pytest.raises(GraphWalkError, match="canonical"):
            load_graph(save_with_state(tmp_path, g, 2, rotated))
    assert load_graph(save_with_state(tmp_path, g, 2, dirs)) == g


def reference_walk_check(path, states, allowances, k):
    """The error of the first bad state, or None, checked one state at a
    time through `points_of`: the reference for load_graph's whole-array
    pass."""
    for sid, (dirs, cls) in enumerate(zip(states, allowances)):
        if not dirs:
            return GraphStepsError(f"{path}: state {sid} has no steps")
        pts = points_of(dirs)
        if len(set(pts)) < len(pts) or canonical(dirs) != dirs:
            return GraphWalkError(f"{path}: state {sid} is not a self-avoiding walk in canonical form")
        size = size_loop(pts)
        if size > allowance_limit(cls, k):
            return GraphStepsError(
                f"{path}: state {sid} has size {size}, above the "
                f"limit {allowance_limit(cls, k)} of its allowance class {cls}"
            )
    return None


def state_section(states, allowances) -> bytes:
    """The state records, packed step by step apart from save_graph."""
    out = bytearray()
    for dirs, cls in zip(states, allowances):
        packed = sum(c << 2 * t for t, c in enumerate(dirs))
        out += struct.pack("<BH", cls, len(dirs)) + packed.to_bytes((len(dirs) + 3) // 4, "little")
    return bytes(out)


def assert_load_matches_reference(path, blob, g, states):
    """Write `g`'s saved `blob` with its states spliced to `states` and
    resealed; load_graph must fail as the reference does, or load them."""
    old = len(state_section(g.states, g.allowances))
    path.write_bytes(resealed(blob[:20] + state_section(states, g.allowances) + blob[20 + old:]))
    want = reference_walk_check(str(path), states, g.allowances, g.k)
    if want is None:
        assert load_graph(str(path)).states == states
        return
    with pytest.raises(GraphFileError) as info:
        load_graph(str(path))
    assert type(info.value) is type(want)
    assert str(info.value) == str(want)


@st.composite
def spliced_states(draw):
    """A state id and a step string of one of the kinds the walk check must
    judge: random codes (empty and self-intersecting ones are common),
    self-avoiding walks made canonical or not, with their last step changed
    or their first vertical step flipped to Up, and walks of 300 to 330
    steps, self-avoiding or not."""
    sid = draw(st.integers(0, 162))
    kind = draw(st.sampled_from(["codes", "walk", "canonical", "last", "up", "long"]))
    if kind == "codes":
        return sid, bytes(draw(st.lists(st.integers(0, 3), max_size=12)))
    if kind == "long":
        # no Left step and no vertical reversal keeps a walk self-avoiding,
        # until one step turns Left
        steps = draw(st.lists(st.sampled_from([RIGHT, UP, DOWN]), min_size=300, max_size=330))
        for t in range(1, len(steps)):
            if steps[t] != RIGHT and steps[t - 1] == 2 - steps[t]:
                steps[t] = RIGHT
        if draw(st.booleans()):
            steps[draw(st.integers(0, len(steps) - 1))] = LEFT
        return sid, canonical(bytes(steps))
    dirs = draw(saw_dirs(1, 12))
    if kind != "walk":
        dirs = canonical(dirs)
    if kind == "last":
        dirs = dirs[:-1] + bytes([draw(st.sampled_from([DOWN, UP, LEFT]))])
    if kind == "up" and dirs.translate(REFLECT_TABLE) != dirs:
        dirs = dirs.translate(REFLECT_TABLE)  # its first vertical step is Up
    return sid, dirs


@settings(max_examples=300, deadline=None)
@given(st.lists(spliced_states(), min_size=1, max_size=4),
       st.sampled_from([1, 3, 40, automaton._STEP_CHUNK]))
def test_walk_check_matches_per_state_reference(tmp_path_factory, g6_saved, splices, chunk):
    # runs of 1 to 40 vertices cut the 163 states into many runs
    g, blob = g6_saved
    states = list(g.states)
    for sid, dirs in splices:
        states[sid] = dirs
    path = tmp_path_factory.mktemp("spliced") / "g.graph"
    with mock.patch.object(automaton, "_STEP_CHUNK", chunk):
        assert_load_matches_reference(path, blob, g, states)


@pytest.mark.parametrize("dirs", [
    # passes through A before it ends there; B is never revisited
    bytes([DOWN, DOWN, LEFT, UP, RIGHT]),
    # a u16 step count allows 65,535 steps, so a vertex key must hold
    # coordinates out to 65,535 from A on either axis
    bytes([RIGHT] * 0xFFFF),  # B at x = -65535
    bytes([LEFT] * 32767 + [DOWN] + [RIGHT] * 32767),
    bytes([DOWN] * 20000 + [RIGHT] + [UP] * 45533 + [RIGHT]),  # down to y = -45533
    bytes([LEFT] * 32766 + [UP] + [RIGHT] * 32766 + [DOWN] + [RIGHT]),  # back at B
], ids=["through-a", "line", "hairpin", "deep-u", "crosses-b"])
def test_walk_check_edge_cases_match_reference(tmp_path, g6_saved, dirs):
    assert len(dirs) <= 0xFFFF
    g, blob = g6_saved
    states = list(g.states)
    states[5] = dirs
    assert_load_matches_reference(tmp_path / "g.graph", blob, g, states)


def test_huge_state_count_fails_before_allocating(saved):
    # the records run out long before 2**40 states; nothing may be sized by the count
    path, blob = saved
    struct.pack_into("<Q", blob, 12, 2**40)
    path.write_bytes(resealed(blob))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with pytest.raises(GraphTruncatedError, match="body ends early"):
        load_graph(str(path))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 16 * 1024  # KiB


@pytest.mark.parametrize("child", ["count", 0xFFFFFFFF])
def test_child_id_out_of_range_rejected(tmp_path, g4_baseline, child):
    g = g4_baseline
    child = len(g) if child == "count" else child
    # append to the last segment; the file holds the raw u32, which the
    # loader must compare before any narrowing to int32
    ids = np.append(g.ids, np.array([child], dtype=np.uint32).view(np.int32))
    offsets = g.offsets.copy()
    offsets[-1] += 1
    path = tmp_path / "g.graph"
    save_graph(StateGraph(g.k, g.options, g.states, g.allowances, offsets, ids), str(path))
    with pytest.raises(GraphChildError, match=f"child id {child} "):
        load_graph(str(path))


def test_frozen_graph_rejects_new_states(g4_baseline):
    g = g4_baseline
    stub = type(g)(g.k, g.options, g.states[:1], g.allowances[:1], [0, 0, 0, 0], [])
    with pytest.raises(GraphClosureError):
        candidate_children(Walk(g.states[g.root]), UP, graph_ctx(stub))


def test_unroll_counts(g4_baseline):
    assert [unroll(g4_baseline, n) for n in range(3)] == [1, 3, 9]
    with pytest.raises(ValueError):
        unroll(g4_baseline, -1)


@pytest.mark.parametrize("k", [6, 8])
def test_erasure_only_unroll_matches_direct_count(k):
    g = build(k, ERASE_ONLY)
    for n in range(9):
        assert unroll(g, n) == count_line_extensions(k, n)
