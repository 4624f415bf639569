"""In-memory span tracer that patches the package's public API from outside.

A span records (name, start, end, parent, op id). Spans are kept in flat
arrays while the traced pass runs and are reduced or saved after it. Only the
public API is wrapped: the names in ``unsharp.__all__``, the module entry
points the CLI drives (``ENTRY_POINTS``), ``Povm.__post_init__`` and the
LAPACK front ends of ``numpy.linalg``. Wrapping per-element helpers such as
``entropy_term`` (tens of thousands of calls per run) would make the tracer
cost more than the work it measures.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "serialize", "sweeps", "suites", "bounds", "uncertainty", "povm", "sampling", "linalg")

ENTRY_POINTS = {
    "cli": ("main",),
    "serialize": ("load_povm", "load_state", "povm_from_json", "state_from_json"),
    "sweeps": ("theta_sweep", "damping_sweep", "theta_row", "damping_row", "find_crossings"),
    "suites": ("run_suite",),
}

LAPACK = ("eigh", "eigvalsh", "qr")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arguments_key(args, kwargs) -> bytes:
    """Digest of the array contents of a call's arguments."""
    digest = hashlib.blake2b(digest_size=16)
    for value in (*args, *kwargs.values()):
        digest.update(np.ascontiguousarray(np.asarray(value, dtype=complex)).tobytes())
    return digest.digest()


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list = []
        self.op_id = -1
        self.bytes_read = 0
        self.distinct_bases = 0
        self._op_bases: set[bytes] = set()

    # --- op boundaries -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_bases = set()

    def end_op(self) -> None:
        self.distinct_bases += len(self._op_bases)
        self._op_bases = set()

    # --- wrapping ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack,
        )
        probe = None
        if name in ("serialize.load_povm", "serialize.load_state"):
            def probe(args, kwargs):
                self.bytes_read += _file_size(args[0] if args else kwargs.get("path"))
        elif name == "bounds.majorization_vector":
            def probe(args, kwargs):
                self._op_bases.add(_arguments_key(args, kwargs))

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _targets(self, package) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, original) for the public API."""
        targets = {}

        def add(fn):
            module = getattr(fn, "__module__", "") or ""
            if callable(fn) and module.startswith(package.__name__ + "."):
                layer = module.rsplit(".", 1)[-1]
                targets[id(fn)] = (f"{layer}.{fn.__name__}", fn)

        for public in getattr(package, "__all__", ()):
            fn = getattr(package, public, None)
            if not isinstance(fn, type):
                add(fn)
        for layer, entry_names in ENTRY_POINTS.items():
            module = getattr(package, layer, None)
            for entry in entry_names:
                add(getattr(module, entry, None))
        return targets

    def install(self, package) -> None:
        """Patch every namespace (module globals and module-level dicts) that
        holds a public function, so `from .x import y` copies are traced too."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        targets = self._targets(package)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and item is targets[id(item)][1]:
                            self._patch_item(value, key, wrappers[id(item)])

        povm_cls = package.povm.Povm
        self._patch(povm_cls, "__post_init__", self._wrap("povm.construct", povm_cls.__post_init__))
        for fn_name in LAPACK:
            self._patch(np.linalg, fn_name, self._wrap(f"numpy.linalg.{fn_name}", getattr(np.linalg, fn_name)))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo = []

    # --- reduction -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in ns); self time is the span's
        duration minus the durations of its direct children."""
        cols = self.arrays()
        n_names = len(self.names)
        duration = (cols["end"] - cols["start"]).astype(float)
        has_parent = cols["parent"] >= 0
        children = np.bincount(
            cols["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_ns = duration - children
        calls = np.bincount(cols["name"], minlength=n_names)
        self_by_name = np.bincount(cols["name"], weights=self_ns, minlength=n_names)
        return {name: (int(calls[i]), float(self_by_name[i])) for i, name in enumerate(self.names)}

    def top_level_ns(self) -> float:
        """Time covered by spans that no other span encloses."""
        cols = self.arrays()
        top = cols["parent"] < 0
        return float(np.sum(cols["end"][top] - cols["start"][top]))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
