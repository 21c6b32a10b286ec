"""Span recorder that wraps magprop's public API from outside the package.

``Tracer.install`` replaces every public function of the five working
modules, and the methods of ``BlockOperator``, with a wrapper that records
a span. The wrapper is bound wherever the original object is looked up, in
every ``magprop`` module namespace, so calls made inside the package (for
example ``magnetic`` calling ``grid.discretize``) are recorded too.

A span's self time is its duration minus the time covered by its direct
child spans. Self times are summed per layer, so over a traced interval

    sum of layer self times + benchmark remainder = traced wall time.

All accumulators live in one flat dict of metric names (``grid.calls``,
``magnetic.n_inverse_closed_s``, ...), which lets a CLI child process send
its own dict back to the parent to be summed in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "gaussians", "magnetic", "oracle", "cli")

_BLOCK_METHODS = ("apply", "dense", "superblock", "block", "compose", "__add__")

# BlockOperator methods whose self time is reported under a shared name
# (grid.apply_s, grid.dense_s) rather than under their own.
_SPAN_ALIASES = {
    "BlockOperator.apply": "apply",
    "BlockOperator.dense": "dense",
    "BlockOperator.superblock": "dense",
    "BlockOperator.block": "dense",
}


def _result_bytes(value) -> int:
    """Bytes of the arrays a grid call returns (computed, not measured)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    blocks = getattr(value, "blocks", None)
    if isinstance(blocks, dict):
        return sum(b.nbytes for b in blocks.values() if isinstance(b, np.ndarray))
    for attr in ("entries", "values"):
        arr = getattr(value, attr, None)
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    return 0


class Tracer:
    """Records spans around magprop's public API while installed."""

    def __init__(self):
        self.acc = defaultdict(float)
        self._stack = []  # open spans: [layer, name, child seconds]
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.acc[key] += value

    def merge(self, other: dict) -> None:
        for key, value in other.items():
            self.acc[key] += value

    def _call(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [layer, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            own = dur - frame[2]
            acc = self.acc
            if parent is not None:
                parent[2] += dur
            acc[f"{layer}.calls"] += 1
            acc[f"{layer}.self_s"] += own
            acc[f"{layer}.{_SPAN_ALIASES.get(name, name)}_s"] += own
            if not ok and (parent is None or parent[0] != layer):
                acc[f"{layer}.failed"] += 1
            if layer == "grid" and ok:
                acc["grid.dense_mb"] += _result_bytes(out) / 1e6
            if name == "time_sliced_propagator":
                slices = args[1] if len(args) > 1 else kwargs.get("slices", 0)
                acc["oracle.slices_evaluated"] += int(slices)
                if parent is not None and parent[1] == "adjudicate":
                    # every level the tournament evaluates enters its verdict
                    acc["oracle.useful_slices"] += int(slices)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, layer, name):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public API of the magprop modules already imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"magprop.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "magprop" or mod_name.startswith("magprop.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        block_op = importlib.import_module("magprop.grid").BlockOperator
        for meth in _BLOCK_METHODS:
            original = block_op.__dict__[meth]
            self._patched.append((block_op, meth, original))
            setattr(block_op, meth, self._wrap(original, "grid", f"BlockOperator.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
