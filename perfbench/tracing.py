"""In-memory spans around calls into tripletboost's public functions.

Spans are recorded only in traced runs.  ``install`` replaces a fixed list of
module-level entry points (and a few store methods) with wrappers that open a
span, call the original and close the span; ``uninstall`` puts the originals
back.  Per-round step functions are not patched, because ``train()`` calls
some of them once per round; the step-API replay wraps them locally instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

# (span prefix, module attribute path, names) of the entry points to wrap.
# Span names are "<layer>.<name>"; the layer is the module the code lives in.
ENTRY_POINTS = (
    ("dataset", "dataset", ("make_moons", "split", "load_csv", "save_csv")),
    ("triplets", "triplets", ("generate_training_set", "generate_test_set")),
    ("triplets", "triplets.TripletStore", ("save", "load", "pair_groups")),
    ("triplets", "triplets.TestTripletSet", ("save", "load")),
    ("boost", "boost", ("train", "save_model", "load_model")),
    ("predict", "predict", ("predict_all", "score", "resolve_all",
                            "write_predictions_csv")),
    ("metrics", "metrics", ("evaluate_predictions", "parse_labels_file")),
    ("bounds", "bounds", ("training_error_bound", "margin", "abstention_bound")),
)

# Which positional argument holds the file path (or file object) of an I/O
# entry point, and whether its size is read before (load) or after (save).
_IO_PATH_ARG = {
    "dataset.load_csv": (0, "read"),
    "dataset.save_csv": (1, "write"),
    "triplets.TripletStore.save": (1, "write"),
    "triplets.TripletStore.load": (1, "read"),
    "triplets.TestTripletSet.save": (1, "write"),
    "triplets.TestTripletSet.load": (1, "read"),
    "boost.save_model": (1, "write"),
    "boost.load_model": (0, "read"),
    "predict.write_predictions_csv": (0, "write"),
}


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        """Return ``fn`` with a span around each call.

        File I/O entry points also record the bytes they read or wrote.
        """
        io = _IO_PATH_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            target = args[io[0]] if io else None
            before = _size(target) if io else 0
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if io:
                    after = _size(target)
                    if io[1] == "read":
                        moved = before
                    elif hasattr(target, "tell"):
                        moved = after - before
                    else:
                        moved = after
                    self.attrs[idx] = {"io": io[1], "bytes": moved}

        return traced

    # -- analysis ---------------------------------------------------------------

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover.

        Spans come from one thread and nest, so children never overlap and
        the covered time is the sum of their durations.
        """
        out = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.duration(i)
        return out

    def root_of(self) -> list[int]:
        roots = []
        for i, parent in enumerate(self.parents):
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def dump(self, path) -> None:
        spans = [{"name": self.names[i], "start": self.starts[i], "end": self.ends[i],
                  "parent": self.parents[i], "run": self.run_id,
                  **self.attrs.get(i, {})} for i in range(len(self.names))]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": spans}, fh)


def _size(target) -> int:
    if hasattr(target, "tell"):
        return target.tell() if target.seekable() else 0
    return os.path.getsize(target) if os.path.exists(target) else 0


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, package) -> list:
    """Wrap every entry point; returns what ``uninstall`` needs to undo it."""
    undo = []
    for layer, owner_path, names in ENTRY_POINTS:
        owner = _resolve(package, owner_path)
        prefix = layer if owner_path == layer else f"{layer}.{owner.__name__}"
        for name in names:
            span_name = f"{prefix}.{name}"
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, raw.__func__))
            elif name == "pair_groups":
                wrapped = _cold_only(tracer.wrap(span_name, raw), raw)
            else:
                wrapped = tracer.wrap(span_name, raw)
            setattr(owner, name, wrapped)
            undo.append((owner, name, raw))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, raw in reversed(undo):
        setattr(owner, name, raw)


def _cold_only(traced, raw):
    """Span only the call that builds the cached pair index, not cache hits."""

    @functools.wraps(raw)
    def pair_groups(self):
        if getattr(self, "_pair_cache", None) is None:
            return traced(self)
        return raw(self)

    return pair_groups
