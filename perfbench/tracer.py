"""Run one apx CLI command with a span around each call into the public
functions of the apx modules, and write the spans as JSON lines.

    python3 perfbench/tracer.py SPANS OP_ID SPAWN_TIME -- APX_ARGS...

SPAWN_TIME is the parent's time.monotonic() when it started this
process; on Linux that clock is system-wide, so the interpreter's start-up
becomes the span ``process.startup``.  Each line of SPANS is one span,
``[op, id, parent, name, start, end]`` with parent -1 for a root, and the
last line is ``{"op": OP_ID, "counts": {...}}``.  apx itself is not
edited: every public function is rebound, in every apx namespace that
imported it, to a wrapper.  The report the command writes is unchanged.
The tracer's own set-up and output are the root spans ``trace.import``,
``trace.install`` and ``trace.write``.
"""

import sys
import time

_STARTED = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

from layers import MODULES  # noqa: E402

# Public functions that get a call count but no span.  The first group are
# per-element constructors that do less work per call than a span costs;
# the second are the shared bodies behind entry points that the layer
# metrics name (normalized_volume_of_cell, normalized_volume,
# enumerate_facets), whose time stays with those entry points.
COUNT_ONLY = frozenset({
    "exactlin.vec", "exactlin.mat", "exactlin.dot", "exactlin.format_scalar",
    "graphcore.edge", "graphcore.vertices_of", "polytope.phi",
    "subdivision.lift_weight",
    "polytope.normalized_volume_of_points", "polytope.placing_triangulation",
    "polytope.hull_facet_rays",
})

# The placing-triangulation oracle; DD cones built inside it are counted
# apart from those of facet enumeration and regular subdivisions.
ORACLE = "polytope.normalized_volume_of_points"

# Counters read off return values: span name -> (counter, function).
RESULT_COUNTS = {
    "matroid.verify_morphism": ("matroid.subsets_checked", lambda r: r.subsets_checked),
    "polytope.enumerate_facets": ("polytope.facets", len),
}


class Recorder:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.oracle_depth = 0

    def add(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([parent, name, start, end])

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic
        counted = RESULT_COUNTS.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(record)
            stack.append(idx)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counted is not None:
                counts[counted[0]] += counted[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts, key = self.counts, name + ".calls"
        if name == ORACLE:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                self.oracle_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.oracle_depth -= 1
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def hook_ddcone(self, cone) -> None:
        """Count cone builds and incremental row insertions, and the
        largest ray list any cone holds after an insertion."""
        counts = self.counts
        init = cone.__init__

        def __init__(cone_self, *args, **kwargs):
            counts["polytope.ddcone.inits"] += 1
            if self.oracle_depth:
                counts["polytope.ddcone.oracle_inits"] += 1
            init(cone_self, *args, **kwargs)

        cone.__init__ = __init__
        insert = getattr(cone, "_insert", None)
        if insert is None:
            return

        def _insert(cone_self, *args, **kwargs):
            out = insert(cone_self, *args, **kwargs)
            counts["polytope.ddcone.rows"] += 1
            if len(cone_self.rays) > counts["polytope.ddcone.peak_rays"]:
                counts["polytope.ddcone.peak_rays"] = len(cone_self.rays)
            return out

        cone._insert = _insert

    def install(self) -> None:
        """Rebind every public function of the apx modules to a wrapper."""
        mods = [importlib.import_module(f"apx.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    make = self.counter if name in COUNT_ONLY else self.span
                    wrappers[id(obj)] = (obj, make(name, obj))
        for mod in [sys.modules["apx"], *mods]:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        cone = getattr(sys.modules["apx.polytope"], "DDCone", None)
        if cone is not None:
            self.hook_ddcone(cone)

    def write(self, path: str, op: int) -> None:
        """Write the spans, then the time that took as the root span
        ``trace.write``, then the counters."""
        start = time.monotonic()
        with open(path, "w") as out:
            out.writelines(
                f'[{op}, {i}, {parent}, "{name}", {t0!r}, {t1!r}]\n'
                for i, (parent, name, t0, t1) in enumerate(self.spans)
            )
            end = time.monotonic()
            out.write(f'[{op}, {len(self.spans)}, -1, "trace.write", {start!r}, {end!r}]\n')
            out.write(json.dumps({"op": op, "counts": dict(sorted(self.counts.items()))}) + "\n")


def main() -> int:
    spans_path, op, spawned, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS OP_ID SPAWN_TIME -- APX_ARGS...")
    t = time.monotonic()
    rec = Recorder()
    rec.add("process.startup", float(spawned), _STARTED)
    rec.add("trace.import", _STARTED, t)
    t = time.monotonic()
    import apx.cli
    rec.add("process.import", t, time.monotonic())
    t = time.monotonic()
    rec.install()
    rec.add("trace.install", t, time.monotonic())
    try:
        return apx.cli.main(argv)
    finally:
        rec.write(spans_path, int(op))


if __name__ == "__main__":
    sys.exit(main())
