"""In-memory span recording around the public functions of ``cbos``.

The benchmark times each layer from outside: :class:`Tracer` replaces a
function or method with a wrapper that records one span per call (name,
start, end, parent span, and one integer of call detail) and puts the
original back on :meth:`Tracer.uninstall`. Nothing inside ``cbos`` changes.

Spans nest by call order on the single thread that runs the traced round,
so a layer's self time is its duration minus the durations of its direct
children. The wrappers' own bookkeeping runs inside their parents' spans;
each wrapper clocks its part of it per call, a calibration gives the rest,
and both are taken out of the parents' durations before any figure is read.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from typing import Callable, Iterator

import numpy as np

# Call details stored in the span's ``info`` slot.
NS_ADD_AT = 1 << 30  # ns_update: repeated input or output ids (np.add.at path)


def _ns_update_info(args, kwargs, result) -> int:
    hidden, target, negatives = args[0], args[1], args[2]
    rows = int(hidden.source_ids.size)
    outputs = [int(target)] + [int(n) for n in np.asarray(negatives).tolist()]
    src = hidden.source_ids.tolist() if rows > 1 else []
    repeated = len(set(outputs)) != len(outputs) or len(set(src)) != len(src)
    return rows | (NS_ADD_AT if repeated else 0)


def _prepare_info(args, kwargs, result) -> int:
    kept, scanned = result
    return len(kept) << 20 | scanned


def _draw_info(args, kwargs, result) -> int:
    return int(result.size)


def _cache_info(args, kwargs, result) -> int:
    return sum(int(ids.size) for ids in result) << 20 | len(result)


def _nn_info(args, kwargs, result) -> int:
    model, vocab, word = args[0], args[1], args[2]
    return 0 if word in vocab else 1


def _rows_info(args, kwargs, result) -> int:
    return int(np.asarray(args[0]).size)


class Tracer:
    """Records spans from wrapped callables into flat integer arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.info = array("q")
        self.cost = array("q")  # wrapper bookkeeping outside [start, end], clocked per call
        self.residual_ns = 0.0  # per-call wrapper cost its own clocks do not see (calibrate)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = True

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside record no spans (the benchmark's own probes and checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn: Callable, span: str, detail=None) -> Callable:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = clock()
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            self.info.append(0)
            self.cost.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if detail is not None:
                self.info[idx] = detail(args, kwargs, result)
            self.cost[idx] = clock() - entered - (self.end[idx] - self.start[idx])
            return result

        return wrapper

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Set ``residual_ns``: the per-call cost of a wrapper beyond what ``cost`` clocks.

        That is the call into the wrapper, its argument packing and return,
        and the stores after its last clock: the fastest loop over a wrapped
        no-op, minus the fastest loop over the bare no-op, minus the clocked
        cost of the wrapped calls.
        """

        def noop():
            return None

        clock = time.perf_counter_ns
        bare = wrapped = float("inf")
        clocked = []
        for _ in range(repeats):
            probe = Tracer()
            fn = probe.wrap(noop, "noop")
            t0 = clock()
            for _ in range(calls):
                fn()
            wrapped = min(wrapped, clock() - t0)
            t0 = clock()
            for _ in range(calls):
                noop()
            bare = min(bare, clock() - t0)
            clocked.append(float(np.frombuffer(probe.cost, dtype=np.int64).mean()))
        self.residual_ns = max(0.0, (wrapped - bare) / calls - min(clocked))

    def patch(self, owner: object, attr: str, span: str, detail=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper, and every other binding of it in ``cbos``."""
        original = getattr(owner, attr)
        wrapped = self.wrap(original, span, detail)
        self._set(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if name.startswith("cbos") and module is not owner:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap the public entry points of every ``cbos`` layer."""
        import cbos.analogy
        import cbos.cli
        import cbos.corpus
        import cbos.model
        import cbos.persist
        import cbos.subword
        import cbos.trainer

        self.patch(cbos.trainer, "train", "trainer.train")
        self.patch(cbos.corpus, "build_vocab_from_file", "corpus.build_vocab_from_file")
        self.patch(cbos.corpus, "build_negative_table", "corpus.build_negative_table")
        self.patch(cbos.subword, "build_subword_cache", "subword.build_subword_cache", _cache_info)
        self.patch(cbos.model, "initialize_matrices", "model.initialize_matrices")
        self.patch(cbos.model, "compute_hidden", "model.compute_hidden", _rows_info)
        self.patch(cbos.model, "ns_update", "model.ns_update", _ns_update_info)
        self.patch(cbos.model, "composed_word_matrix", "analogy.composed_word_matrix")
        Trainer = cbos.trainer.Trainer
        self.patch(Trainer, "draw_negatives", "trainer.draw_negatives", _draw_info)
        self.patch(Trainer, "prepare_sentence", "trainer.prepare_sentence", _prepare_info)
        self.patch(Trainer, "train_sentence", "trainer.train_sentence")
        VectorSpace = cbos.analogy.VectorSpace
        self.patch(VectorSpace, "__init__", "analogy.VectorSpace")
        self.patch(VectorSpace, "predict_id", "analogy.predict_id")
        self.patch(cbos.analogy, "evaluate", "analogy.evaluate")
        self.patch(cbos.analogy, "nearest_neighbors", "analogy.nearest_neighbors", _nn_info)
        for fn in ("save_bin", "save_vec", "load_bin", "load_vec"):
            self.patch(cbos.persist, fn, f"persist.{fn}")
        self.patch(cbos.cli, "run", "cli.run")
        self.calibrate()
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "info": np.frombuffer(self.info, dtype=np.int64),
            "cost": np.frombuffer(self.cost, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span (names table, the six columns, the calibrated residual) as one ``.npz``."""
        np.savez(path, names=np.array(self.names), residual_ns=self.residual_ns, **self.arrays())

    def select(self, span: str) -> np.ndarray:
        """Indices of the spans with this name."""
        if span not in self._name_ids:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.arrays()["name"] == self._name_ids[span])

    def wrapper_ns(self) -> np.ndarray:
        """Per span: the whole cost of its own wrapper, clocked plus calibrated."""
        return np.frombuffer(self.cost, dtype=np.int64) + self.residual_ns

    def durations_ns(self) -> np.ndarray:
        """Per span: end minus start, less the wrapper cost of every span nested inside it."""
        cols = self.arrays()
        parent = cols["parent"]
        depth = np.zeros(parent.size, dtype=np.int64)
        while True:  # one pass per nesting level
            deeper = np.where(parent >= 0, depth[parent] + 1, 0)
            if np.array_equal(deeper, depth):
                break
            depth = deeper
        own = self.wrapper_ns()
        nested = np.zeros(parent.size)
        for level in range(int(depth.max(initial=0)), 0, -1):
            sel = np.flatnonzero(depth == level)
            nested += np.bincount(parent[sel], weights=own[sel] + nested[sel], minlength=parent.size)
        return (cols["end"] - cols["start"]) - nested

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        parent = self.arrays()["parent"]
        dur = self.durations_ns()
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - covered

    def self_seconds_by_name(self) -> dict[str, float]:
        own = self.self_ns()
        names = self.arrays()["name"]
        return {
            span: float(own[names == i].sum()) / 1e9 for i, span in enumerate(self.names)
        }
