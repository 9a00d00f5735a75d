"""State graph construction and its binary file format.

States are walks in canonical form, identified by their direction strings
read from B. The root is the straight walk of k/2 edges. Ids are assigned in
first-admission order by a sequential FIFO exploration, so builds with the
same k and options are bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

import numpy as np

from .legality import MOVE_INDEX, allowed_moves
from .simplify import (  # GraphClosureError is re-exported
    DOUBLE,
    ExpandContext,
    GraphClosureError,
    Options,
    allowance_limit,
    candidate_children,
)
from .state import Walk, canonical, line_walk, size_loop

MAGIC = b"SAWG"
VERSION = 1


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

    def walk(self, sid: int) -> Walk:
        """The state's walk in the canonical frame."""
        return Walk(self.states[sid])


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
        keys = dict.fromkeys(key for key, _ in candidate_children(w, mv, ctx))
        lists[MOVE_INDEX[mv]].extend(ctx.ids[key] for key in keys)
    return lists


def build(k: int, options: Options = Options()) -> StateGraph:
    """Explore from the root in id order, which is FIFO order; with two_pass,
    recompute every state's children against the final, frozen state set."""
    ctx = ExpandContext(k, options)
    root = line_walk(k // 2)
    rkey = canonical(root.dirs)
    ctx.admit(rkey, ctx.allowance(root, rkey))

    children: list[list[int]] = []  # one id list per (state, move)
    while len(children) < 3 * len(ctx.states):
        children.extend(_children(ctx, len(children) // 3))

    if options.two_pass:
        ctx.frozen = True
        for sid in range(len(ctx.states)):
            children[3 * sid:3 * sid + 3] = _children(ctx, sid)

    offsets = np.cumsum([0] + [len(ids) for ids in children])
    ids = np.fromiter(itertools.chain.from_iterable(children), np.int32, offsets[-1])
    return StateGraph(k, options, ctx.states, ctx.allowances, offsets, ids)


def _checksum(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _pack_dirs(dirs: bytes) -> bytes:
    out = bytearray((len(dirs) + 3) // 4)
    for t, c in enumerate(dirs):
        out[t >> 2] |= c << ((t & 3) * 2)
    return bytes(out)


def _unpack_dirs(buf: bytes, n: int) -> bytes:
    return bytes((buf[t >> 2] >> ((t & 3) * 2)) & 3 for t in range(n))


def save_graph(g: StateGraph, path: str) -> int:
    """Write the graph; returns the number of bytes written.

    Layout (little-endian): magic, u16 version, u16 k, u32 option bits,
    u64 state count; per state u8 allowance, u16 step count, dirs packed two
    bits per step; then per state three child lists in (Up, Right, Down)
    order, each a u32 count plus u32 ids; finally a u64 checksum of all
    preceding bytes.
    """
    parts = [MAGIC, struct.pack("<HHIQ", VERSION, g.k, g.options.to_bits(), len(g.states))]
    for dirs, cls in zip(g.states, g.allowances):
        parts.append(struct.pack("<BH", cls, len(dirs)))
        parts.append(_pack_dirs(dirs))
    parts.append(np.insert(g.ids.astype("<u4"), g.offsets[:-1], np.diff(g.offsets)).tobytes())
    body = b"".join(parts)
    blob = body + struct.pack("<Q", _checksum(body))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_graph(path: str) -> StateGraph:
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
    off = 20

    def take(size: int) -> int:
        nonlocal off
        if off + size > end:
            raise GraphTruncatedError(f"{path}: body ends early at offset {off}")
        off += size
        return off - size

    states: list[bytes] = []
    allowances: list[int] = []
    for _ in range(nstates):
        at = take(3)
        cls, nsteps = struct.unpack_from("<BH", data, at)
        at = take((nsteps + 3) // 4)
        states.append(_unpack_dirs(data[at:off], nsteps))
        allowances.append(cls)
    offsets = [0]
    ids: list[int] = []
    for _ in range(3 * nstates):
        at = take(4)
        (count,) = struct.unpack_from("<I", data, at)
        at = take(4 * count)
        ids.extend(struct.unpack_from(f"<{count}I", data, at))
        offsets.append(len(ids))
    if off != end:
        raise GraphTruncatedError(f"{path}: {end - off} unexpected trailing bytes")
    (stored,) = struct.unpack_from("<Q", data, end)
    if stored != _checksum(data[:end]):
        raise GraphChecksumError(f"{path}: checksum mismatch")
    try:
        options = Options.from_bits(mask)
    except ValueError as exc:
        raise GraphOptionsError(f"{path}: {exc}") from None
    if k % 2 or not 4 <= k <= 40:
        raise GraphBudgetError(f"{path}: k must be even and within [4, 40], got {k}")
    if not nstates:
        raise GraphEmptyError(f"{path}: no states, so no root state 0")
    top_cls = max(allowances, default=0)
    if top_cls > DOUBLE:
        raise GraphAllowanceError(f"{path}: allowance class {top_cls} is not 0, 1 or 2")
    for sid, (dirs, cls) in enumerate(zip(states, allowances)):
        if not dirs:
            raise GraphStepsError(f"{path}: state {sid} has no steps")
        if len(Walk(dirs).vset) <= len(dirs) or canonical(dirs) != dirs:
            raise GraphWalkError(f"{path}: state {sid} is not a self-avoiding walk in canonical form")
        if size_loop(dirs) > allowance_limit(cls, k):
            raise GraphStepsError(
                f"{path}: state {sid} has size {size_loop(dirs)}, above the "
                f"limit {allowance_limit(cls, k)} of its allowance class {cls}"
            )
    top_id = max(ids, default=-1)
    if top_id >= nstates:
        raise GraphChildError(f"{path}: child id {top_id} is not below the state count {nstates}")
    return StateGraph(k, options, states, allowances, offsets, ids)
