"""Span tracing of sawbound's layers, installed from outside the package.

Each traced function is replaced, in every sawbound module namespace that
holds it, by a wrapper that records one span: name, start, end and the span
that was open when it was called. Spans are kept in flat arrays while the
traced work runs and are reduced to per-layer calls and self time at the
end, where self time is a span's duration minus that of its direct children.

Functions that are not wrapped (`_expand`, `Walk` construction, `dirs_of`,
`is_saw`, ...) count toward the self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (defining module, attribute). Callers such as `automaton` import these by
# name, so the wrapper replaces the object in every sawbound namespace.
TRACED = (
    ("automaton", "build"),
    ("automaton", "save_graph"),
    ("automaton", "load_graph"),
    ("state", "canonical"),
    ("legality", "allowed_moves"),
    ("legality", "planar_a_exclusions"),
    ("legality", "b_escapes"),
    ("simplify", "candidate_children"),
    ("simplify", "erase_oldest"),
    ("simplify", "small_bridges"),
    ("simplify", "large_bridges"),
    ("simplify", "small_loops"),
    ("simplify", "loop_shift_safe"),
    ("simplify", "lacks_simplifications"),
    ("simplify", "allowance_class"),
    ("simplify", "ExpandContext.allowance"),
    ("spectral", "optimize"),
    ("spectral", "choice_matrix"),
    ("spectral", "power_iterate"),
    ("spectral", "reselect"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)


class Tracer:
    """Records spans of the TRACED functions between install() and uninstall()."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.build_states: dict[int, int] = {}  # build span -> state count
        self.file_bytes = 0
        self.safe_shifts = 0
        self.power_iterations = 0

    def _wrap(self, nid: int, fn, on_result=None):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t
                stack.pop()
            if on_result is not None:
                on_result(i, result)
            return result

        return functools.update_wrapper(span, fn)

    # Results the derived metrics need, taken from the traced calls' returns.
    def _built(self, i: int, g) -> None:
        self.build_states[i] = len(g)

    def _saved(self, i: int, nbytes: int) -> None:
        self.file_bytes += nbytes

    def _judged(self, i: int, safe: bool) -> None:
        self.safe_shifts += bool(safe)

    def _iterated(self, i: int, res) -> None:
        self.power_iterations += res.iterations

    _HOOKS = {
        "automaton.build": _built,
        "automaton.save_graph": _saved,
        "simplify.loop_shift_safe": _judged,
        "spectral.power_iterate": _iterated,
    }

    def install(self) -> None:
        import sawbound
        from sawbound import automaton, legality, simplify, spectral, state

        modules = dict(state=state, legality=legality, simplify=simplify,
                       automaton=automaton, spectral=spectral)
        for nid, (mod, attr) in enumerate(TRACED):
            owner = modules[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                holders = [owner]
            else:
                holders = [sawbound, *modules.values()]
            original = getattr(owner, attr)
            hook = self._HOOKS.get(NAMES[nid])
            wrapped = self._wrap(nid, original, functools.partial(hook, self) if hook else None)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per span, plus derived figures."""
        a = self.arrays()
        name, parent, start, end = a["name"], a["parent"], a["start"], a["end"]
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=len(NAMES))
        self_s = np.bincount(name, weights=self_time, minlength=len(NAMES))
        total = np.bincount(name, weights=dur, minlength=len(NAMES))

        out: dict[str, float] = {}
        for nid, qualname in enumerate(NAMES):
            out[f"{qualname}.calls"] = int(calls[nid])
            out[f"{qualname}.self_s"] = float(self_s[nid])
        idx = {q: i for i, q in enumerate(NAMES)}

        def n(q):
            return int(calls[idx[q]])

        pass1 = pass2 = 0.0
        moves_id = idx["legality.allowed_moves"]
        for b, states in self.build_states.items():
            kids = np.flatnonzero(parent == b)
            visits = kids[name[kids] == moves_id]
            # Each pass visits every state once, so pass 2 begins with the
            # (states + 1)-th move query of the build.
            if len(visits) > states:
                pass1_end = end[kids[np.searchsorted(kids, visits[states]) - 1]]
            else:
                pass1_end = end[kids[-1]] if len(kids) else start[b]
            pass1 += pass1_end - start[b]
            pass2 += end[b] - pass1_end
        out["automaton.pass1_s"] = float(pass1)
        out["automaton.pass2_s"] = float(pass2)
        out["automaton.states"] = sum(self.build_states.values())
        out["automaton.save_s"] = float(total[idx["automaton.save_graph"]])
        out["automaton.load_s"] = float(total[idx["automaton.load_graph"]])
        out["automaton.file_bytes"] = self.file_bytes
        shifts = n("simplify.loop_shift_safe")
        out["simplify.loop_shift_safe.accept_ratio"] = self.safe_shifts / shifts if shifts else 0.0
        lookups = n("simplify.ExpandContext.allowance")
        out["simplify.allowance.cache_hit_ratio"] = (
            1.0 - n("simplify.allowance_class") / lookups if lookups else 0.0
        )
        out["spectral.power_iterate.iterations"] = self.power_iterations
        out["trace.spans"] = len(dur)
        out["trace.self_sum_s"] = float(self_time.sum())
        return out
