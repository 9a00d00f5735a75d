"""State graph construction and its binary file format.

States are walks in canonical form, identified by their direction strings
read from B. The root is the straight walk of k/2 edges. Ids are assigned in
first-admission order by a sequential FIFO exploration, so builds with the
same k and options are bit-for-bit reproducible.

With `two_pass`, every state's children are those a recomputation against
the final state set gives. A state's pass-1 children can differ from them
only where one of its erasures passed over an absent key that was admitted
later (see `simplify.erase_oldest`); pass 2 recomputes exactly those states
and keeps every other state's pass-1 children.
"""

from __future__ import annotations

import hashlib
import struct
import time
from array import array

import numpy as np

from .geometry import DIR_VEC, RIGHT, UP
from .legality import MOVE_INDEX, allowed_moves
from .simplify import (  # GraphClosureError is re-exported
    DOUBLE,
    ExpandContext,
    GraphClosureError,
    Options,
    allowance_limit,
    check_budget,
    child_ids,
)
from .state import Walk, canonical, line_walk

MAGIC = b"SAWG"
VERSION = 1

_LOOKUP_CHUNK = 1 << 16


class GraphFileError(Exception):
    """Base class for graph file problems."""


class GraphMagicError(GraphFileError):
    """The file does not start with the graph magic bytes."""


class GraphVersionError(GraphFileError):
    """The file uses an unsupported format version."""


class GraphTruncatedError(GraphFileError):
    """The file is shorter than its own structure claims."""


class GraphChecksumError(GraphFileError):
    """The trailing checksum does not match the file contents."""


class GraphOptionsError(GraphFileError):
    """The option word sets the reserved bit 6 or a bit above 8."""


class GraphBudgetError(GraphFileError):
    """The size budget k is odd or outside [4, 40]."""


class GraphEmptyError(GraphFileError):
    """The file holds no states, so there is no root state 0."""


class GraphAllowanceError(GraphFileError):
    """A state's allowance class is not 0, 1 or 2."""


class GraphChildError(GraphFileError):
    """A child id is not below the state count."""


class GraphStepsError(GraphFileError):
    """A state has no steps, or a size_loop above k + 2 * its allowance class."""


class GraphWalkError(GraphFileError):
    """A state's steps are not a self-avoiding walk in canonical form."""


class StateGraph:
    """An immutable build result: states, allowances, and children per move.

    The children of state `s` under move `j` (0, 1, 2 = Up, Right, Down) are
    `ids[offsets[3 * s + j]:offsets[3 * s + j + 1]]`, the order of the file's
    child section; a blocked move has an empty segment.
    """

    __slots__ = ("k", "options", "states", "allowances", "offsets", "ids")

    root = 0

    def __init__(
        self,
        k: int,
        options: Options,
        states: list[bytes],
        allowances: list[int],
        offsets: np.ndarray,
        ids: np.ndarray,
    ):
        self.k = k
        self.options = options
        self.states = states
        self.allowances = allowances
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.options == other.options
            and self.states == other.states
            and self.allowances == other.allowances
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
        )

    def children(self, sid: int, j: int) -> np.ndarray:
        """Child ids of state `sid` under move `j`."""
        return self.ids[self.offsets[3 * sid + j]:self.offsets[3 * sid + j + 1]]


def graph_ctx(g: StateGraph) -> ExpandContext:
    """Expansion context over a frozen graph; any new state is a closure error."""
    return ExpandContext(g.k, g.options, g.states, g.allowances, frozen=True)


def _children(ctx: ExpandContext, sid: int) -> tuple[list[int], list[int], list[int]]:
    """Child ids of state `sid` per move in (Up, Right, Down) order, each
    once in first-emission order, admitting new states unless the context is
    frozen."""
    w = Walk(ctx.states[sid])
    lists: tuple[list[int], list[int], list[int]] = ([], [], [])
    opts = ctx.opts
    for mv in allowed_moves(w, opts.planar_a, opts.planar_b):
        lists[MOVE_INDEX[mv]].extend(dict.fromkeys(child_ids(w, mv, ctx)))
    return lists


def _child_arrays(ctx: ExpandContext, starts: array | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Children of every state in id order, states admitted on the way
    included, as CSR offsets and ids with one segment per (state, move).
    With `starts`, appends to it each state's first index into `ctx.passed`.
    Empties the context's memo before it joins the arrays."""
    ids = array("i")
    counts = array("i", [0])  # state sid's first segment is counts[3 * sid + 1]
    while len(counts) <= 3 * len(ctx.states):
        if starts is not None:
            starts.append(len(ctx.passed))
        for seg in _children(ctx, len(counts) // 3):
            ids.extend(seg)
            counts.append(len(seg))
    ctx.forget()
    return np.cumsum(counts), np.frombuffer(ids, np.int32)


def _stale_states(ctx: ExpandContext, starts: array) -> np.ndarray:
    """Ids of the states whose pass-1 erasures passed over a key that is now
    a member, in increasing order. Keys are compared by hash, so a collision
    can add a state but never drop one."""
    passed = np.frombuffer(ctx.passed, np.int64)
    members = np.sort(np.fromiter(map(hash, ctx.states), np.int64, len(ctx.states)))
    # looked up in chunks, so the temporaries stay small next to the record
    hits = [np.empty(0, np.int64)]
    for lo in range(0, len(passed), _LOOKUP_CHUNK):
        part = passed[lo:lo + _LOOKUP_CHUNK]
        at = np.minimum(np.searchsorted(members, part), len(members) - 1)
        hits.append(lo + np.flatnonzero(members[at] == part))
    return np.unique(np.searchsorted(starts, np.concatenate(hits), side="right") - 1)


def _splice(ctx: ExpandContext, stale: np.ndarray, offsets: np.ndarray, ids: np.ndarray):
    """`offsets`/`ids` with the segments of every `stale` state recomputed
    against the state set of the frozen `ctx`; the runs between them are
    copied. Empties the context's memo before it joins the pieces."""
    counts = np.diff(offsets, prepend=0)  # counts[0] = 0, as in _child_arrays
    pieces = []
    at = 0
    for sid in stale.tolist():
        lists = _children(ctx, sid)
        pieces.append(ids[at:offsets[3 * sid]])
        pieces.append(np.array(lists[0] + lists[1] + lists[2], np.int32))
        counts[3 * sid + 1:3 * sid + 4] = [len(seg) for seg in lists]
        at = offsets[3 * sid + 3]
    pieces.append(ids[at:])
    ctx.forget()
    return np.cumsum(counts, out=counts), np.concatenate(pieces)


def build(k: int, options: Options = Options(), stats: dict | None = None) -> StateGraph:
    """Explore from the root in id order, which is FIFO order.

    With two_pass, the result is what recomputing every state's children
    against the final, frozen state set gives. Pass 1 records, per state, the
    absent keys its erasures passed over; pass 2 recomputes only the states
    with a recorded key that was admitted later, since no other state's
    children can change. A `stats` dict receives `pass1_s`, `pass2_s`,
    `pass2_recomputed`, the number of states pass 2 recomputed, and the
    expansion counters of `simplify.ExpandContext`: `rewrite_walks`, the
    Walks built for rewrites, and `memo_hits`, `memo_misses` and
    `memo_stale`, how the rewrite subtrees that needed expanding were served.
    """
    t0 = time.perf_counter()
    ctx = ExpandContext(k, options)
    root = line_walk(k // 2)
    ctx.admit(root, canonical(root.dirs))
    starts = array("q")
    if options.two_pass:
        ctx.passed = array("q")
    offsets, ids = _child_arrays(ctx, starts if options.two_pass else None)
    t1 = time.perf_counter()
    stale = np.empty(0, np.int64)
    if options.two_pass:
        stale = _stale_states(ctx, starts)
        ctx.passed, ctx.frozen = None, True
        offsets, ids = _splice(ctx, stale, offsets, ids)
    if stats is not None:
        stats.update(pass1_s=t1 - t0, pass2_s=time.perf_counter() - t1,
                     pass2_recomputed=len(stale), rewrite_walks=ctx.rewrite_walks,
                     memo_hits=ctx.memo_hits, memo_misses=ctx.memo_misses,
                     memo_stale=ctx.memo_stale)
    allowances = [ctx.classes[key] for key in ctx.states]
    return StateGraph(k, options, ctx.states, allowances, offsets, ids)


_STEP_CHUNK = 1 << 14  # walk vertices (steps + 1 per state) per run of state records

_DX, _DY = (np.array(axis, np.int64) for axis in zip(*DIR_VEC))
# a vertex of a state of at most 0xFFFF steps lies within 0xFFFF of A on
# each axis, so a coordinate plus _REACH fills 17 bits of a vertex key
_REACH = 0xFFFF


def _step_slots(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """For a run of state records holding n[i] steps each: where each
    record starts among the run's bytes, where each step sits among the
    2-bit slots of those bytes (a record packs its steps from the byte
    after its 3-byte header on), and the run's length in bytes."""
    sizes = 3 + (n + 3) // 4
    heads = np.cumsum(sizes) - sizes
    firsts = np.cumsum(n) - n
    slots = np.repeat(4 * heads + 12 - firsts, n) + np.arange(firsts[-1] + n[-1])
    return heads, slots, int(heads[-1] + sizes[-1])


def _runs(lengths: np.ndarray, chunk: int):
    """(a, b) bounds of consecutive runs of items of about `chunk` units each,
    an item counting its length plus one; a longer item is a run of its own."""
    a = 0
    while a < len(lengths):
        reach = np.cumsum(lengths[a:a + chunk].astype(np.int64) + 1)
        b = a + max(int(np.searchsorted(reach, chunk, "right")), 1)
        yield a, b
        a = b


def save_graph(g: StateGraph, path: str) -> int:
    """Write the graph; returns the number of bytes written.

    Layout (little-endian): magic, u16 version, u16 k, u32 option bits,
    u64 state count; per state u8 allowance, u16 step count, dirs packed two
    bits per step; then per state three child lists in (Up, Right, Down)
    order, each a u32 count plus u32 ids; finally the 8-byte blake2b digest
    of all preceding bytes.
    """
    parts = [MAGIC, struct.pack("<HHIQ", VERSION, g.k, g.options.to_bits(), len(g.states))]
    lengths = np.fromiter(map(len, g.states), np.uint16, len(g.states))
    for a, b in _runs(lengths, _STEP_CHUNK):
        n = lengths[a:b].astype(np.int64)
        heads, at, nbytes = _step_slots(n)
        steps = np.frombuffer(b"".join(g.states[a:b]), np.uint8).astype(np.uint16)
        # a step's two bits as the two bytes of one little-endian u16
        pairs = np.zeros(4 * nbytes, "<u2")
        pairs[at] = steps & 1 | (steps & 2) << 7
        run = np.packbits(pairs.view(np.uint8), bitorder="little")
        run[heads] = g.allowances[a:b]
        run[heads + 1] = n & 0xFF
        run[heads + 2] = n >> 8
        parts.append(run)
    parts.append(np.insert(g.ids.astype("<u4"), g.offsets[:-1], np.diff(g.offsets)))
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part)
    parts.append(digest.digest())
    with open(path, "wb") as fh:
        fh.writelines(parts)
        return fh.tell()


def _read_states(path: str, data: bytes, lengths: array, allowances: list[int],
                 k: int) -> list[bytes]:
    """The step strings of the state records from byte 20 of `data` on,
    holding `lengths[i]` steps each, checked as whole-array passes over runs
    of states.

    A state must have steps, be a self-avoiding walk (B included) in
    canonical form, meaning its last step is Right and its first vertical
    step, if any, is Down, and have a size_loop within its allowance class.
    The first state to fail raises, with the first of these checks it fails.
    """
    lengths = np.frombuffer(lengths, np.uint16)
    states: list[bytes] = []
    lo = 20
    for a, b in _runs(lengths, _STEP_CHUNK):
        n = lengths[a:b].astype(np.int64)
        _, at, nbytes = _step_slots(n)
        bits = np.unpackbits(np.frombuffer(data, np.uint8, nbytes, lo), bitorder="little")
        pairs = bits.view("<u2")[at]
        steps = (pairs & 1 | pairs >> 7).astype(np.uint8)
        lo += nbytes
        ends = np.cumsum(n)
        firsts = ends - n
        blob = steps.tobytes()
        states.extend([blob[s:e] for s, e in zip(firsts.tolist(), ends.tolist())])

        # the vertex before each step, with A at the origin: minus the steps after it
        cx = np.concatenate(([0], np.cumsum(_DX[steps])))
        cy = np.concatenate(([0], np.cumsum(_DY[steps])))
        x = cx[:-1] - np.repeat(cx[ends], n)
        y = cy[:-1] - np.repeat(cy[ends], n)
        seg = np.repeat(np.arange(len(n)), n)
        # a repeated (state, x, y) key is a vertex visited twice; A is one key per state
        keys = np.concatenate((seg << 34 | (x + _REACH) << 17 | (y + _REACH),
                               np.arange(len(n)) << 34 | _REACH << 17 | _REACH))
        keys.sort()
        bad_walk = np.zeros(len(n), bool)
        bad_walk[keys[1:][keys[1:] == keys[:-1]] >> 34] = True
        # canonical: the last step is Right and the first vertical step (the
        # even codes are Down and Up) is not Up
        last = np.full(len(n), RIGHT)
        last[n > 0] = steps[ends[n > 0] - 1]
        bad_walk |= last != RIGHT
        vertical = np.concatenate(([0], np.cumsum(steps & 1 == 0)))
        first_up = (steps == UP) & (vertical[1:] - np.repeat(vertical[firsts], n) == 1)
        bad_walk[seg[first_up]] = True
        size = n + np.abs(cx[firsts] - cx[ends]) + np.abs(cy[firsts] - cy[ends])
        limit = allowance_limit(np.array(allowances[a:b]), k)
        failed = np.flatnonzero((n == 0) | bad_walk | (size > limit))
        if failed.size:
            i = failed[0]
            sid = a + int(i)
            if not n[i]:
                raise GraphStepsError(f"{path}: state {sid} has no steps")
            if bad_walk[i]:
                raise GraphWalkError(f"{path}: state {sid} is not a self-avoiding walk in canonical form")
            raise GraphStepsError(
                f"{path}: state {sid} has size {size[i]}, above the "
                f"limit {limit[i]} of its allowance class {allowances[sid]}"
            )
    return states


def load_graph(path: str) -> StateGraph:
    """Read a graph written by `save_graph`. Its checks run in this order:

    - 4 bytes, the magic, then a whole header and trailer (GraphTruncatedError,
      GraphMagicError, GraphTruncatedError); the version (GraphVersionError);
    - the state records, then the child section's whole u32 words, then its
      child counts end where the body does (GraphTruncatedError);
    - the trailer is the blake2b digest of all before it (GraphChecksumError);
    - the option word (GraphOptionsError), k (GraphBudgetError), a state
      count above 0 (GraphEmptyError), each allowance class (GraphAllowanceError);
    - per state in id order: it has steps (GraphStepsError), is a canonical
      self-avoiding walk (GraphWalkError), fits its class (GraphStepsError);
    - every child id is below the state count (GraphChildError).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise GraphTruncatedError(f"{path}: too short for a header")
    if data[:4] != MAGIC:
        raise GraphMagicError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 20 + 8:
        raise GraphTruncatedError(f"{path}: too short for a header")
    version, k, mask, nstates = struct.unpack_from("<HHIQ", data, 4)
    if version != VERSION:
        raise GraphVersionError(f"{path}: unsupported version {version}")

    end = len(data) - 8
    at = 20
    record = struct.Struct("<BH").unpack_from
    lengths = array("H")
    allowances: list[int] = []
    for _ in range(nstates):
        cls, nsteps = record(data, at)
        lengths.append(nsteps)
        allowances.append(cls)
        at += 3 + (nsteps + 3) // 4
        if at > end:
            raise GraphTruncatedError(f"{path}: body ends early at offset {at}")
    if (end - at) % 4:
        raise GraphTruncatedError(f"{path}: the child section is not whole u32 words")
    # one scan over the (state, move) segments: s's count is word s + offsets[s]
    words = np.frombuffer(data, "<u4", (end - at) // 4, at).astype(np.uint32)
    counts = memoryview(words)  # aligned and in native order, so indexable
    heads = array("q")
    append = heads.append
    pos = 0
    try:
        for _ in range(3 * nstates):
            append(pos)
            pos += 1 + counts[pos]
    except IndexError:  # a segment starts past the section's end
        pos = -1
    if pos != len(words):
        raise GraphTruncatedError(f"{path}: the child counts do not end where the body does")
    if data[end:] != hashlib.blake2b(memoryview(data)[:end], digest_size=8).digest():
        raise GraphChecksumError(f"{path}: checksum mismatch")
    try:
        options = Options.from_bits(mask)
    except ValueError as exc:
        raise GraphOptionsError(f"{path}: {exc}") from None
    try:
        check_budget(k)
    except ValueError as exc:
        raise GraphBudgetError(f"{path}: {exc}") from None
    if not nstates:
        raise GraphEmptyError(f"{path}: no states, so no root state 0")
    top_cls = max(allowances, default=0)
    if top_cls > DOUBLE:
        raise GraphAllowanceError(f"{path}: allowance class {top_cls} is not 0, 1 or 2")
    states = _read_states(path, data, lengths, allowances, k)
    del data  # every part of the file now has its own copy, so free it before the arrays
    ids = np.delete(words, heads)
    if ids.size and ids.max() >= nstates:
        raise GraphChildError(f"{path}: child id {ids.max()} is not below the state count {nstates}")
    offsets = np.append(heads, len(words))
    offsets -= np.arange(len(offsets))
    return StateGraph(k, options, states, allowances, offsets, ids.view(np.int32))
