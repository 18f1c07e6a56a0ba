"""Spans around the benchmark's calls into protspin, kept in memory.

A span is [name, start_ns, end_ns, parent_index, job_id].  A layer's self time
is its span duration minus the time covered by its direct child spans.
"""

import collections
import json
import time


def direct(name, fn, *args, **kwargs):
    """Untraced call hook: the same signature as Tracer.call, no recording."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = collections.Counter()
        self.job = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self):
        """{span name: (calls, self time in ms)}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = collections.Counter()
        self_ns = collections.Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - inner
        return {name: (calls[name], self_ns[name] / 1e6) for name in calls}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, job] for n, start, end, parent, job in self.spans]
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "job"],
            "names": names,
            "spans": rows,
        }))
