"""Reduction of oversized walks to admissible states.

A move can push a walk past its size budget. Rather than dropping it, the
walk is replaced by a set of shorter walks that dominate every continuation
it could have had: an unconditional fallback that erases vertices from the
B end, plus pattern rewrites (bridges and loop shifts) that keep more of the
recent geometry. Every rewrite is one `drop_pair`: it deletes two opposite
steps, so A and B stay put and size_loop falls by two; the rewrites differ
only in where they find the pair. The budget itself depends on the walk
through allowance classes, so that walks which no rewrite can shorten get a
little extra room.

The rewrite kernels return the (i, j) step pairs, not walks. Expansion
carries each rewrite as its step string, canonicalised once, and its
size_loop, which is its parent's minus two. It becomes a `Walk` only when
its key has never been classed or when it must itself be erased and
rewritten. So a rewrite that is admissible as it stands costs a
canonicalisation and two table lookups. A build also memoises the child
ids of each rewrite that needs further expansion, by canonical key (see
`ExpandContext`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .geometry import DIR_VEC, TURN_SIGN, Point, l1_distance, linf_distance
from .legality import bounding_box, flood_fill, turn_prefix
from .state import Walk, canonical, size_loop

# Allowance classes; a walk of class c may hold up to k + 2*c vertices-plus-gap.
NORMAL, EXTENDED, DOUBLE = 0, 1, 2

# Replacement recursion is bounded: every rewrite shrinks size_loop by two
# and a stepped walk overshoots its budget by at most six.
MAX_EXPAND_DEPTH = 8


@dataclass(frozen=True)
class Options:
    """Build feature toggles. The bit layout is part of the graph file format."""

    line_like: bool = True
    lacking_simpl: bool = True
    small_bridges: bool = True
    large_bridges: bool = True
    small_loops: bool = True
    two_pass: bool = True
    planar_a: bool = True
    planar_b: bool = True

    _BIT_FIELDS = (
        "line_like",
        "lacking_simpl",
        "small_bridges",
        "large_bridges",
        "small_loops",
        "two_pass",
        None,  # bit 6 held the retired staged-children option; reserved
        "planar_a",
        "planar_b",
    )

    def to_bits(self) -> int:
        mask = 0
        for bit, name in enumerate(self._BIT_FIELDS):
            if name and getattr(self, name):
                mask |= 1 << bit
        return mask

    @classmethod
    def from_bits(cls, mask: int) -> "Options":
        if mask >> 6 & 1:
            raise ValueError("option bit 6 is set: the staged-children option was retired")
        if mask >> len(cls._BIT_FIELDS):
            raise ValueError(f"unknown option bits in mask {mask:#x}")
        return cls(**{name: bool(mask >> bit & 1) for bit, name in enumerate(cls._BIT_FIELDS) if name})


def check_budget(k: int) -> None:
    if k % 2 or not 4 <= k <= 40:
        raise ValueError(f"k must be even and within [4, 40], got {k}")


def allowance_limit(cls: int, k: int) -> int:
    return k + 2 * cls


def line_like_class(walk: Walk, k: int) -> int:
    """Extra room for walks whose B side is nearly straight.

    The first k//2 steps must make at most two turns, all in the same
    rotational sense, so the oldest portion is a line or a staircase bend
    that cannot curl back on itself. Such walks get Extended room; if A is
    additionally at L1 distance 3 or more from B they get Double.
    """
    prefix = walk.dirs[: k // 2]
    turns = [TURN_SIGN[b - a] for a, b in zip(prefix, prefix[1:]) if a != b]
    if len(turns) > 2 or len(set(turns)) > 1:
        return NORMAL
    if l1_distance(walk.points[-1], walk.points[0]) >= 3:
        return DOUBLE
    return EXTENDED


def monotone_clear_path(walk: Walk) -> bool:
    """Whether some axis-monotone lattice path joins A to B off the walk.

    Dynamic program over the A-B bounding rectangle; interior path vertices
    must avoid every walk vertex.
    """
    ax, ay = walk.points[-1]
    bx, by = walk.points[0]
    dx, dy = bx - ax, by - ay
    sx = 1 if dx >= 0 else -1
    sy = 1 if dy >= 0 else -1
    nx, ny = abs(dx), abs(dy)
    vset = walk.vset
    # reach[j]: whether cell (i, j) is reached once row i sweeps it, (i - 1, j) before
    reach = [True] + [False] * ny
    for i in range(nx + 1):
        for j in range(ny + 1):
            if i or j:
                free = (i, j) == (nx, ny) or (ax + sx * i, ay + sy * j) not in vset
                reach[j] = free and (reach[j] or (j > 0 and reach[j - 1]))
    return reach[ny]


def drop_pair(walk: Walk, i: int, j: int) -> Walk:
    """The walk with steps i < j deleted, where step j reverses step i.

    A and B stay in place: vertices i+1 and j go, and vertices i+2..j-1 move
    back by step i. Directions and points come from one splice, so they agree.
    """
    dirs = walk.dirs
    pts = walk.points
    dx, dy = DIR_VEC[dirs[i]]
    shifted = [(x - dx, y - dy) for x, y in pts[i + 2 : j]]
    return Walk(dirs[:i] + dirs[i + 1 : j] + dirs[j + 1 :], pts[: i + 1] + shifted + pts[j + 1 :])


# The step scans read a walk's steps as one big-endian integer
# word = int.from_bytes(dirs, "big"), byte j holding step j. Byte j >= d of
# word ^ word >> 8 * d is dirs[j] ^ dirs[j - d]: 0 where the two steps agree,
# 2 where step j reverses step j - d (code c ^ 2 is the reverse of code c),
# and 1 or 3 where they are perpendicular. So a few integer operations
# compare every pair of steps d apart, and bytes.find walks the matches with
# no Python loop over the steps. No step of a self-avoiding walk reverses the
# one before it, so step i + 1 is perpendicular to step i both in a U (step
# i + 2 reverses step i) and in an S (step i + 2 repeats step i + 1, and step
# i + 3 reverses step i).

# Maps each byte of word ^ word >> 8 to whether its two steps differ.
_TURNED = bytes([0] + [1] * 255)


def small_bridges(walk: Walk) -> list[tuple[int, int]]:
    """Rewrites dropping the two inner vertices of each U detour, a
    perpendicular step then a reversal, as the step pairs `drop_pair`
    deletes. Always SAWs."""
    dirs = walk.dirs
    word = int.from_bytes(dirs, "big")
    u_ends = (word ^ word >> 16).to_bytes(len(dirs), "big")  # 2 at step i + 2 of a U
    out = []
    j = u_ends.find(2, 2)
    while j >= 0:
        out.append((j - 2, j))
        j = u_ends.find(2, j + 1)
    return out


def large_bridges(walk: Walk) -> list[tuple[int, int]]:
    """Rewrites replacing the three inner vertices of an S detour by the
    shortcut, one step dirs[i + 1] from the detour's start vertex i, as the
    step pairs `drop_pair` deletes. Only detours whose shortcut is free count.

    The shortcut vertex has three neighbors on the shortened walk, so any
    continuation that touches it is already trapped against the walk; the
    rewrite therefore loses no continuations. Results are always SAWs.
    """
    dirs = walk.dirs
    end = len(dirs) - 1
    word = int.from_bytes(dirs, "big")
    # byte i + 3 is 2 exactly where step i + 3 reverses step i and step i + 2
    # repeats step i + 1: the repeat test, 0 or a multiple of 4, shares it
    s_ends = ((word ^ word >> 24) | (word ^ word >> 8) >> 8 << 2).to_bytes(len(dirs), "big")
    out = []
    j = s_ends.find(2, 4, end)
    while j >= 0:
        vx, vy = walk.points[j - 3]
        ox, oy = DIR_VEC[dirs[j - 2]]
        if (vx + ox, vy + oy) not in walk.vset:
            out.append((j - 3, j))
        j = s_ends.find(2, j + 1, end)
    return out


@dataclass
class LoopShift:
    """One loop-shift rewrite: `drop_pair(walk, i, j)`, its fresh vertices,
    and the two near-touching portion endpoints whose gap is the only way
    into the pocket."""

    i: int
    j: int
    extras: tuple[Point, ...]
    gap_a: Point
    gap_b: Point


def _clear_ray_count(walk: Walk) -> int:
    """Axis rays from A that meet no other walk vertex."""
    ax, ay = walk.points[-1]
    # a vertex on A's row or column names its ray: +-1 along x, +-2 along y
    hit = {
        (x > ax) - (x < ax) + 2 * ((y > ay) - (y < ay))
        for x, y in walk.points[:-1]
        if x == ax or y == ay
    }
    return 4 - len(hit)


def small_loops(walk: Walk) -> list[LoopShift]:
    """Rewrites that squash a long near-loop by sliding one straight side inward.

    A portion of nine or more steps whose endpoints nearly touch encloses a
    region; a maximal straight side of three or more edges strictly inside the
    portion, turning into the region at both ends, can be shifted one unit
    inward, shortening the walk by two. The shift is `drop_pair` of the
    turn-in and turn-out steps, so a rewrite depends on its side alone.
    Emissions are in scan order from B, one per side; anything that fails to
    be a self-avoiding walk is dropped. The shifted side lies on a line
    parallel to the old one, so it can meet only vertices the rewrite keeps:
    the rewrite is a self-avoiding walk exactly when no shifted vertex is on
    the walk, and then every shifted vertex is fresh. No walk is built.

    Walks with fewer than two clear axis rays from A never qualify.

    The sides are found first, since most walks have none and then no portion
    needs scanning. A portion from vertex i to vertex j can use a side only if
    i is before the side's first step and j after its last, so the scan skips
    the (i, j) pairs that contain no side, and it skips j past a gap above 2
    by the gap minus 2, since the gap changes by at most one per step. It
    stops once every side has been tried. Only pairs that could emit nothing
    are skipped, so every emission keeps its place in the scan order and the
    portion ends of the first pair that uses its side.
    """
    dirs = walk.dirs
    m = len(dirs)
    # (first step, end, turn sign at both ends) of each side. Byte t >= 1 of
    # `turns` is 1 where step t turns and 0 where it repeats step t - 1, so a
    # side of three or more steps after a turn starts at a match of 1, 0, 0.
    sides = []
    word = int.from_bytes(dirs, "big")
    turns = (word ^ word >> 8).to_bytes(m, "big").translate(_TURNED)
    s = turns.find(b"\1\0\0", 1)
    while s >= 0:
        t = turns.find(1, s + 3)
        if t < 0:
            break  # the run reaches A
        orient = TURN_SIGN[dirs[s] - dirs[s - 1]]
        if TURN_SIGN[dirs[t] - dirs[t - 1]] == orient:
            sides.append((s, t, orient))
        s = turns.find(b"\1\0\0", t)
    if not sides or _clear_ray_count(walk) < 2:
        return []
    pts = walk.points
    vset = walk.vset
    # the corner sum over the portion from vertex i to vertex j is cum[j-1] - cum[i]
    cum = turn_prefix(dirs)
    first_j = min(b for _, b, _ in sides) + 1
    out: list[LoopShift] = []
    tried: set[int] = set()
    for i in range(min(m - 8, max(a for a, _, _ in sides))):
        px, py = pts[i]
        j = max(i + 9, first_j)
        while j <= m:
            qx, qy = pts[j]
            gap = max(abs(qx - px), abs(qy - py))
            if gap > 2:
                j += gap - 2
                continue
            if gap == 2 and j == m:
                break
            cs = cum[j - 1] - cum[i]
            if cs:
                orient = 1 if cs > 0 else -1
                for a, b, side_orient in sides:
                    if side_orient != orient or a <= i or b >= j or a in tried:
                        continue
                    tried.add(a)
                    # turning in and out the same way makes step b reverse step
                    # a-1; dropping both slides the side back along step a-1,
                    # toward the enclosed region
                    dx, dy = DIR_VEC[dirs[a - 1]]
                    extras = tuple((x - dx, y - dy) for x, y in pts[a + 1 : b])
                    if any(p in vset for p in extras):
                        continue
                    out.append(LoopShift(a - 1, b, extras, pts[i], pts[j]))
                if len(tried) == len(sides):
                    return out
            j += 1
    return out


def loop_shift_safe(walk: Walk, shift: LoopShift) -> bool:
    """Whether a loop shift provably forbids no continuation of `walk`.

    A continuation is lost only if it can touch a fresh vertex and still
    escape to infinity afterwards. Safe if the fresh vertices sit in a region
    sealed by the walk itself, or in a region sealed once a single free gate
    vertex near the portion gap is closed; entering through the gate means
    leaving would revisit it, and A must not open into the region directly.

    Each gate's fill blocks the gate as `flood_fill`'s extra cell. A gate
    that the first fill, around the walk alone, did not record as tested
    keeps that fill's escape (see `flood_fill`), so it gets no fill.
    """
    extras = shift.extras
    if not extras:
        return True
    obstacles = walk.vset
    box = bounding_box(walk.points)
    start = extras[:1]
    tested: set[Point] = set()
    if flood_fill(start, obstacles, box, seen=tested) is not None:
        return True

    gax, gay = shift.gap_a
    ax, ay = walk.points[-1]
    for ox in range(-2, 3):
        for oy in range(-2, 3):
            g = (gax + ox, gay + oy)
            if g not in tested or g in extras or linf_distance(g, shift.gap_b) > 2:
                continue
            comp = flood_fill(start, obstacles, box, g)
            if comp is not None and not any((ax + dx, ay + dy) in comp for dx, dy in DIR_VEC):
                return True
    return False


def lacks_simplifications(walk: Walk) -> bool:
    """Whether no rewrite can relieve the walk, so it earns extra allowance.

    Requires: no bridge site starting in the B-side half of the walk, no loop
    shift at all, and some monotone staircase from A to B clear of the walk
    (without one, erasing from B frees no room near A for a long time).
    """
    half = (len(walk.dirs) + 2) // 2
    if any(i < half for i, _ in small_bridges(walk)):
        return False
    if any(i < half for i, _ in large_bridges(walk)):
        return False
    if small_loops(walk):
        return False
    return monotone_clear_path(walk)


def allowance_class(walk: Walk, k: int, opts: Options) -> int:
    cls = NORMAL
    if opts.line_like:
        cls = line_like_class(walk, k)
    if cls == NORMAL and opts.lacking_simpl and lacks_simplifications(walk):
        cls = EXTENDED
    return cls


class GraphClosureError(RuntimeError):
    """A recomputed child fell outside the frozen state set."""


# Entries per generation of the rewrite-subtree memo; with two generations
# a context holds at most twice this many.
_MEMO_SIZE = 4096
# Joins the passed keys of a memo entry; no step code is 4.
_KEY_SEP = b"\x04"


class ExpandContext:
    """The state table of one build, its one table of allowance classes, and
    its memo of rewrite subtrees.

    `states` holds each state's canonical key in id order, used in place, and
    `ids` maps a key back to its id. `classes` maps every state's key to its
    stored class, and every other key `allowance` was asked about to its
    computed class; `automaton.graph_ctx` seeds it from a graph's stored
    classes. While `frozen` is set, admitting a new state raises
    GraphClosureError. `erase_oldest` appends to `trail` every absent key it
    passes over that a later admission could turn into a stop (see there);
    the memo and a two-pass build (`automaton._children`) read that record.

    The memo maps the key of each rewrite that had to be erased and
    rewritten further to one bytes object: the number n of child ids its
    subtree emitted, then those n ids in emission order with repeats kept,
    all as int32, then the keys its erasures passed over, joined by
    `_KEY_SEP`. A subtree's emissions depend on its key alone, except where
    an erasure passed over an absent key that is admitted later and then
    stops it. So `recall` replays an entry only while none of its passed
    keys is a member. A replay appends them to `trail`, exactly as a fresh
    expansion would, and admits nothing, since every id it emits is a
    member already. A stale entry is expanded afresh and stored again.

    Replay skips no depth check that a fresh expansion could fail. Each
    rewrite is two below its parent's size_loop, and nothing at or below k
    is expanded, so a subtree rooted at size_loop sl is at most (sl - k) / 2
    deep wherever it hangs. A state's stepped walk has size_loop at most
    k + 6, so its rewrites start at most at k + 4 and no expansion runs
    deeper than depth 2, far inside MAX_EXPAND_DEPTH.

    The memo keeps two generations of at most `_MEMO_SIZE` entries: when
    the young one is full it becomes the old one, and a hit in the old one
    is stored in the young one again. The counters `rewrite_walks` (Walks
    built for rewrites), `memo_hits`, `memo_misses` and `memo_stale` (entries
    found but not replayable) feed the build's stats.
    """

    def __init__(
        self,
        k: int,
        opts: Options,
        states: list[bytes] | None = None,
        allowances: list[int] | None = None,
        frozen: bool = False,
    ):
        check_budget(k)
        self.k = k
        self.opts = opts
        self.states = states if states is not None else []
        self.ids = {key: sid for sid, key in enumerate(self.states)}
        self.classes = dict(zip(self.states, allowances or ()))
        self.frozen = frozen
        self.trail: list[bytes] = []
        self.memo: dict[bytes, bytes] = {}
        self.memo_old: dict[bytes, bytes] = {}
        self.rewrite_walks = self.memo_hits = self.memo_misses = self.memo_stale = 0

    def allowance(self, walk: Walk | None, key: bytes) -> int:
        """The class of `key`, computed from `walk` on first sight; `walk` may
        be None once the class is recorded."""
        cls = self.classes.get(key)
        if cls is None:
            cls = allowance_class(walk, self.k, self.opts)
            self.classes[key] = cls
        return cls

    def admit(self, walk: Walk | None, key: bytes) -> int:
        """Give `key`, the key of `walk`, the next id and return it; `allowance`
        records its class."""
        if self.frozen:
            raise GraphClosureError(f"candidate state {key.hex()} is not in the state set")
        self.allowance(walk, key)
        sid = self.ids[key] = len(self.states)
        self.states.append(key)
        return sid

    def recall(self, key: bytes, out: list) -> bool:
        """Replay the memo entry of `key` onto `out` and `trail`; False if
        there is none or one of its passed keys is a member now."""
        entry = self.memo.get(key)
        if entry is None:
            entry = self.memo_old.get(key)
            if entry is None:
                self.memo_misses += 1
                return False
            self._store(key, entry)
        view = memoryview(entry)
        end = 4 + 4 * view[:4].cast("i")[0]
        passed = entry[end:].split(_KEY_SEP) if len(entry) > end else ()
        ids = self.ids
        for pkey in passed:
            if pkey in ids:
                self.memo_stale += 1
                return False
        self.memo_hits += 1
        out.extend(view[4:end].cast("i"))
        self.trail.extend(passed)
        return True

    def remember(self, key: bytes, ids: list[int], passed: list[bytes]) -> None:
        """Store the subtree of `key`: the ids it emitted, the keys it passed."""
        self._store(key, array("i", [len(ids), *ids]).tobytes() + _KEY_SEP.join(passed))

    def _store(self, key: bytes, entry: bytes) -> None:
        if len(self.memo) >= _MEMO_SIZE:
            self.memo_old, self.memo = self.memo, {}
        self.memo[key] = entry

    def forget(self) -> None:
        """Empty the memo, to free its memory before the child arrays are joined."""
        self.memo, self.memo_old = {}, {}


def erase_oldest(walk: Walk, ctx: ExpandContext) -> tuple[int, bytes]:
    """Drop vertices from the B end until the remainder is admissible; return
    the index t of the first vertex kept and the key of the walk from it.

    A remainder is admissible once it is a member whose `ctx.classes` entry
    covers it, or once it fits the base budget k. Oversized remainders that
    merely qualify for an allowance class do not stop the erasure; they enter
    the graph only by being stepped into, after which later erasures can stop
    on them as members. Each suffix's size_loop comes from its first vertex
    and A; only a suffix within k + 2*DOUBLE, the largest limit any class
    gives, can stop the erasure, so only those are canonicalised and looked
    up. The remainder is `Walk(walk.dirs[t:], walk.points[t:])`; the caller
    builds it only when it needs it. Terminates because a two-vertex walk
    has size_loop 2, below any limit.

    This is the only outcome of a build that depends on which states are
    members at the time: an absent suffix with k < size_loop <= k + 2*DOUBLE
    is passed over, but would stop the erasure if it were admitted later
    with a class that covers it. Each such key is appended to `ctx.trail`,
    which the memo stores and the build reads to tell which expansions a
    later admission may have changed.
    """
    dirs = walk.dirs
    pts = walk.points
    n = len(pts)
    ax, ay = pts[-1]
    k = ctx.k
    top = allowance_limit(DOUBLE, k)
    t = 1
    while t < n - 1:
        x, y = pts[t]
        sl = n - 1 - t + abs(ax - x) + abs(ay - y)  # size_loop(pts[t:])
        if sl > top:
            # erasing a vertex lowers size_loop by zero or two
            t += (sl - top + 1) // 2
            continue
        key = canonical(dirs[t:])
        member = key in ctx.ids
        limit = allowance_limit(ctx.classes[key], k) if member else k
        if sl <= limit:
            return t, key
        if not member:
            ctx.trail.append(key)
        t += 1
    raise ValueError("cannot erase the oldest vertex of a two-vertex walk")


def _expand(walk: Walk, sl: int, ctx: ExpandContext, depth: int, out: list, walks: bool) -> None:
    """Append to `out` the replacements of `walk`, whose size_loop `sl` is
    above its limit: the erasure fallback, then each bridge and loop-shift
    rewrite, expanded in turn unless it is admissible. With `walks` each is
    a (key, walk) pair in `walk`'s frame and the memo is not used; otherwise
    each is a state id, and a rewrite that needs expanding is replayed from
    the memo where it can be."""
    if depth >= MAX_EXPAND_DEPTH:
        raise RuntimeError("walk replacement recursion exceeded its depth bound")
    t, key = erase_oldest(walk, ctx)
    sid = ctx.ids.get(key)
    ew = Walk(walk.dirs[t:], walk.points[t:]) if walks or sid is None else None
    if sid is None:
        sid = ctx.admit(ew, key)
    out.append((key, ew) if walks else sid)

    opts = ctx.opts
    pairs = small_bridges(walk) if opts.small_bridges else []
    if opts.large_bridges:
        pairs += large_bridges(walk)
    if opts.small_loops:
        pairs += [(s.i, s.j) for s in small_loops(walk) if loop_shift_safe(walk, s)]
    sl -= 2  # every rewrite drops one step pair and keeps A and B in place
    k, classes, ids, trail = ctx.k, ctx.classes, ctx.ids, ctx.trail
    # a key fixes size_loop, so a walk above every class's limit is no state
    classed = sl <= allowance_limit(DOUBLE, k)
    dirs = walk.dirs
    made = 0
    for i, j in pairs:
        key = canonical(dirs[:i] + dirs[i + 1 : j] + dirs[j + 1 :])
        rw = None
        if walks:
            rw = drop_pair(walk, i, j)
            made += 1
        if classed:
            cls = classes.get(key)
            if cls is None:
                if rw is None:
                    rw = drop_pair(walk, i, j)
                    made += 1
                cls = ctx.allowance(rw, key)
            if sl <= k + 2 * cls:
                sid = ids.get(key)
                if sid is None:
                    sid = ctx.admit(rw, key)
                out.append((key, rw) if walks else sid)
                continue
        if walks:
            _expand(rw, sl, ctx, depth + 1, out, True)
        elif not ctx.recall(key, out):
            if rw is None:
                rw = drop_pair(walk, i, j)
                made += 1
            mark, pmark = len(out), len(trail)
            _expand(rw, sl, ctx, depth + 1, out, False)
            ctx.remember(key, out[mark:], trail[pmark:])
    ctx.rewrite_walks += made


def _step(walk: Walk, move: int, ctx: ExpandContext, walks: bool) -> list:
    """The stepped walk as its own child if it is admissible, else its
    expansion; as (key, walk) pairs with `walks`, else as ids."""
    stepped = walk.stepped(move)
    ctx.trail.clear()  # it serves only the memo entries of one expansion
    out: list = []
    sl = size_loop(stepped.points)
    k = ctx.k
    if sl <= allowance_limit(DOUBLE, k):
        key = canonical(stepped.dirs)
        if sl <= allowance_limit(ctx.allowance(stepped, key), k):
            sid = ctx.ids.get(key)
            if sid is None:
                sid = ctx.admit(stepped, key)
            out.append((key, stepped) if walks else sid)
            return out
    _expand(stepped, sl, ctx, 0, out, walks)
    return out


def candidate_children(walk: Walk, move: int, ctx: ExpandContext) -> list[tuple[bytes, Walk]]:
    """All replacement states for one move of `walk`, in emission order.

    Each element pairs the canonical key with a representative walk in the
    stepped walk's frame. An admissible stepped walk is its own single child.
    A key can be emitted more than once; callers that want each child once
    keep its first emission. This is the build's expansion with every
    rewrite made a walk and the memo bypassed.
    """
    return _step(walk, move, ctx, True)


def child_ids(walk: Walk, move: int, ctx: ExpandContext) -> list[int]:
    """The ids of the keys `candidate_children` emits, in the same order and
    with the same repeats, as the build computes them: rewrites stay step
    strings where they can, and rewrite subtrees come from the memo."""
    return _step(walk, move, ctx, False)
