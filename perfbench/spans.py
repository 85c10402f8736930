"""An in-memory span recorder and its reduction to self time.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``job`` the benchmark job it belongs
to.  Spans nest per thread.  A span opened on a thread with no open span of
its own takes the main thread's innermost open span as its parent: the
service executes jobs on its scheduler thread while the caller waits in
``result()``, and that wait is what the execution's spans subtract from.
"""

from __future__ import annotations

import gzip
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Recorder:
    """Collects spans and counters in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self.job: Optional[str] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.get_ident()

    def open(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else -1
            index = len(self.spans)
            self.spans.append([name, self._clock(), 0.0, parent, self.job])
            stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = self._clock()
        with self._lock:
            self.spans[index][2] = end
            self._stacks[threading.get_ident()].pop()

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\tjob\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds per span name, each span counting only the part of its
    interval that no child span covers."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)
