"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request).  Spans are recorded around
the calls the benchmark makes into the library, kept in flat arrays while
the run lasts, and written out once at the end.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._open = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str, request: int) -> None:
        """Open a span that later calls nest under, until `finish`."""
        self._open.append(len(self.start))
        self.name_id.append(self._intern(name))
        self.parent.append(self._open[-2])
        self.request.append(request)
        self.end.append(0)
        self.start.append(perf_counter_ns())

    def finish(self) -> None:
        self.end[self._open.pop()] = perf_counter_ns()

    def wrap(self, name: str, fn):
        """Return `fn` recording one leaf span per call under the open span."""
        nid = self._intern(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, open_ = self.parent, self.request, self._open

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            t1 = perf_counter_ns()
            up = open_[-1]
            name_id.append(nid)
            start.append(t0)
            end.append(t1)
            parent.append(up)
            request.append(request[up] if up >= 0 else -1)
            return out

        return traced

    def self_times(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Per span name (calls, self ns), and the summed duration of root spans."""
        covered = array("q", bytes(8 * len(self.start)))
        for sid, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        root_ns = 0
        for sid, nid in enumerate(self.name_id):
            dur = self.end[sid] - self.start[sid]
            calls[nid] += 1
            self_ns[nid] += dur - covered[sid]
            if self.parent[sid] < 0:
                root_ns += dur
        per_name = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        return per_name, root_ns

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, times in ns."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id,name,start_ns,end_ns,parent,request\n")
            for sid, nid in enumerate(self.name_id):
                out.write(f"{sid},{self.names[nid]},{self.start[sid]},{self.end[sid]},"
                          f"{self.parent[sid]},{self.request[sid]}\n")
