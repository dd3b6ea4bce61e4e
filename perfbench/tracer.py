"""In-memory spans around calls into the vel layers.

The tracer replaces the attributes through which callers reach a layer's
public functions (for example ``vel.radial.energy_functionals``, the name
``radial.run`` looks up) with wrappers that record a span per call: the
layer name, its parent span, and start and end on ``time.perf_counter``.
Calls made many thousand times per run (``theta.nu``, ``BallGrid.partials``)
are "hot": they are counted and timed per parent span instead of stored one
by one, which keeps memory flat while still giving every span its self time.
Nothing is written until ``dump`` is called at the end of a run.
"""

import json
import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        # one [name, parent, start, end] row per span
        self.spans = []
        # (name, parent) -> [calls, seconds] for hot names
        self.hot = defaultdict(lambda: [0, 0.0])
        self.layers = set()
        self._stack = []
        self._patches = []

    def _parent(self):
        return self._stack[-1] if self._stack else NO_PARENT

    def wrap(self, name, fn, hot=False):
        clock = time.perf_counter
        if hot:
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell = self.hot[(name, self._parent())]
                    cell[0] += 1
                    cell[1] += clock() - start
        else:
            def traced(*args, **kwargs):
                row = [name, self._parent(), clock(), 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(row)
                try:
                    return fn(*args, **kwargs)
                finally:
                    row[3] = clock()
                    self._stack.pop()
        return traced

    def patch(self, owner, attr, name, hot=False):
        """Route ``owner.attr`` through a span named ``name``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        self.layers.add(name)
        setattr(owner, attr, self.wrap(name, original, hot=hot))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries

    def _child_seconds(self):
        """Seconds covered by direct children, per span index."""
        covered = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent != NO_PARENT:
                covered[parent] += end - start
        for (_, parent), (_, seconds) in self.hot.items():
            if parent != NO_PARENT:
                covered[parent] += seconds
        return covered

    def totals(self):
        """name -> {"calls", "s", "self_s"} over every span of that name."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        covered = self._child_seconds()
        for idx, (name, _, start, end) in enumerate(self.spans):
            cell = out[name]
            cell["calls"] += 1
            cell["s"] += end - start
            cell["self_s"] += end - start - covered[idx]
        for (name, _), (calls, seconds) in self.hot.items():
            cell = out[name]
            cell["calls"] += calls
            cell["s"] += seconds
            cell["self_s"] += seconds
        return dict(out)

    def top_level_seconds(self):
        """Wall time covered by spans that have no parent."""
        top = sum(end - start for _, parent, start, end in self.spans
                  if parent == NO_PARENT)
        return top + sum(seconds for (_, parent), (_, seconds)
                         in self.hot.items() if parent == NO_PARENT)

    def dump(self, path):
        payload = {
            "columns": ["name", "parent", "start", "end"],
            "spans": self.spans,
            "hot": [{"name": name, "parent": parent, "calls": calls,
                     "s": seconds}
                    for (name, parent), (calls, seconds) in self.hot.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
