"""Span tracer for the benchmark's traced runs.

The tracer wraps a layer's public entry point on a live object (an
instance; a class, where instances use ``__slots__``; or a module, for
module-level functions) with a closure that
records one span per call: layer name, start, end, parent span and the
key of the tick or request it ran under. Spans live in flat in-memory
arrays until the run ends; :meth:`Tracer.save` writes them out and
:func:`layer_totals` derives each layer's self time, the span's
duration minus the part its direct children cover.

Tracing only observes: a wrapper forwards arguments, results and
exceptions unchanged, so a traced simulation computes the same metric
digest as an untraced one (the self-tests check this).
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Records nested spans around wrapped entry points."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.layer = array("H")
        self.parent = array("i")
        self.key = array("q")
        #: Tick index or request id that new spans are filed under.
        self.current_key = -1
        self._open: List[int] = []
        self._wrapped: List[Tuple[Any, str, Any, bool]] = []
        #: Values counted at span boundaries (bytes written, ...).
        self.samples: Dict[str, List[float]] = {}

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_return: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(result, *args)`` runs after a successful call, to
        count what the call did at the same boundary (fault events,
        bytes written).
        """
        fn = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        self._wrapped.append((owner, attr, fn if own else None, own))
        lid = self.layer_id(layer)
        start, end, layers = self.start, self.end, self.layer
        parent, key, open_spans = self.parent, self.key, self._open
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            layers.append(lid)
            key.append(tracer.current_key)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(result, *args)
            return result

        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._wrapped:
            owner, attr, original, own = self._wrapped.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        # Copies: a live view would pin the arrays' buffers and make
        # the next append raise.
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "layer": np.array(self.layer, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "key": np.array(self.key, dtype=np.int64),
            "layers": np.array(self.layers, dtype=str),
            **{
                f"sample:{name}": np.array(values, dtype=np.float64)
                for name, values in self.samples.items()
            },
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (an ``.npz`` archive)."""
        np.savez(path, **self.arrays())


def load_spans(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus direct children's durations."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=dur[nested], minlength=len(dur)
    )
    return dur - covered


def layer_totals(
    spans: Dict[str, np.ndarray], mask: Optional[np.ndarray] = None
) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per layer (optionally masked)."""
    layer_ids = spans["layer"]
    own = self_times(spans)
    dur = spans["end"] - spans["start"]
    if mask is not None:
        layer_ids, own, dur = layer_ids[mask], own[mask], dur[mask]
    n = len(spans["layers"])
    calls = np.bincount(layer_ids, minlength=n)
    total = np.bincount(layer_ids, weights=dur, minlength=n)
    self_s = np.bincount(layer_ids, weights=own, minlength=n)
    return {
        str(name): {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(self_s[i]),
        }
        for i, name in enumerate(spans["layers"])
    }
