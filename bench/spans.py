"""Operation accounting and span recording for one benchmark run.

Every call the benchmark makes into the package goes through `Run.op`, which
counts it as one attempted operation and turns a `ConicEmbedError` into a
counted failure instead of an abort. With tracing on, `op` also records a span
(name, start, end, parent, instance id); spans stay in memory until the run
writes them out. With tracing off, `op` only counts.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from conic_embed import ConicEmbedError, EpsilonInvalid

# Failure counter charged when a call into a layer raises.
LAYER_FAIL = {
    "embed_dual": "embed_dual.fail",
    "embed_primal": "embed_primal.fail",
    "verify": "verify.fail",
    "partition": "partition.mismatch",
    "io": "io.roundtrip_fail",
    "cli": "cli.nonzero_exit",
}


class Run:
    """Counts and spans of one workload run.

    `refused` counts full-rank transports that end in `EpsilonInvalid`: the
    package declines the split with a structured error on a valid interior
    vector. They are kept apart from `failed` (wrong output or any other error)
    and both lower `ok_frac`.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._parent = None
        self._instance = None

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed - self.refused) / max(self.attempted, 1)

    def fail(self, counter: str) -> None:
        """Count one operation whose output failed its check."""
        self.failed += 1
        self.counts[counter] += 1

    def op(self, name: str, fn, *args, refusable: bool = False):
        """Call fn(*args) as one operation; None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except ConicEmbedError as exc:
            if refusable and isinstance(exc, EpsilonInvalid):
                self.refused += 1
            else:
                self.fail(LAYER_FAIL[name.split(".", 1)[0]])
            return None
        finally:
            if self.traced:
                self.spans.append((len(self.spans), name, start, time.perf_counter(),
                                   self._parent, self._instance))

    @contextmanager
    def span(self, name: str, instance=None):
        """Parent span (an instance pipeline, or set-up) for the calls inside."""
        if not self.traced:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        outer = (self._parent, self._instance)
        self._parent, self._instance = sid, instance
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, name, start, time.perf_counter(), outer[0], instance)
            self._parent, self._instance = outer

    def busy(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed milliseconds, call count)."""
        out: dict[str, list] = {}
        for _, name, start, end, _, _ in self.spans:
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) * 1e3
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


def write_spans(path: Path, runs) -> None:
    """Write the spans of several runs as JSON lines, ids numbered on across runs."""
    keys = ("id", "name", "start", "end", "parent", "instance")
    base = 0
    with path.open("w") as fh:
        for run in runs:
            for sid, name, start, end, parent, instance in run.spans:
                parent = None if parent is None else parent + base
                fh.write(json.dumps(dict(zip(keys, (sid + base, name, start, end, parent, instance)))) + "\n")
            base += len(run.spans)
