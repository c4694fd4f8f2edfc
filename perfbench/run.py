"""End-to-end benchmark of the apx CLI.

    python3 perfbench/run.py --workload cells|geometry|full --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each op is one fresh child
process running one apx command on one generated graph file and writing
its report with --json: users pay one interpreter start per command, and
nothing one command computes can speed up the next.  Ops run one at a
time, so no two children ever overlap.  An op's time is the child's wall
time from spawn to exit; the parent checks the exit code and the report
after the clock stops.  A pass runs every op of the workload once, and
passes repeat until the next one would overrun --seconds.

With --trace 0 each op is followed by a child that only imports apx.cli
(set-up time), and then this process runs perfbench/reference.py, a
fixed workload that does not use apx, until it has taken REFERENCE_SHARE
of the ops' time so far.  wall_ref is the median pass time divided by
the mean reference time of the run: on a shared host whose speed drifts,
that ratio is far steadier than seconds, and only a change to apx can
move it.  Raw seconds are printed above the result line.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (perfbench/tracer.py) and prints the per-layer metrics.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import graphs
import layers
import reference

HERE = Path(__file__).resolve().parent

# Mirrors the `apx` console script, so an op costs what a user's command does.
ENTRY = "import sys; from apx.cli import main; sys.exit(main())"
SETUP = "import apx.cli"
REFERENCE_SHARE = 0.25
OP_TIMEOUT_S = 60.0
# Hard stop for the whole run, so that hung ops cannot push it past the
# three minutes a run may take.
RUN_LIMIT_S = 165.0


@dataclass
class OpResult:
    op: graphs.Op
    wall_s: float
    rss_kb: int
    error: str | None
    cells: int = 0
    spans: Path | None = None


@dataclass
class Pass:
    """One pass over the ops, with the set-up and reference times taken
    between them (none in a traced pass)."""

    ops: list[OpResult]
    setup_s: list[float]
    reference_s: list[float]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)


def spawn_child(argv: list[str], env: dict, log: str, timeout: float):
    """Run a child to completion or kill it at the timeout.  Returns
    (wall seconds, exit code or None when killed, peak RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.monotonic()
    argv = [a if a != "{spawned}" else repr(start) for a in argv]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        exited = bool(poller.poll(max(0.0, timeout) * 1000))
        if not exited:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.monotonic() - start
    finally:
        os.close(fd)
    return wall, (os.waitstatus_to_exitcode(status) if exited else None), usage.ru_maxrss


class Launcher:
    """A small forked process that spawns and times the children.

    Linux counts the peak memory of the process that calls exec into the
    child's ru_maxrss.  The launcher is forked before the benchmark reads
    any report and does nothing else, so its own peak stays below that of
    any apx child and peak_rss_mb is the child's.
    """

    def __init__(self, env: dict):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(request_w)
            os.close(reply_r)
            code = 1
            try:
                with open(request_r) as requests, open(reply_w, "w") as replies:
                    for line in requests:
                        argv, log, timeout = json.loads(line)
                        replies.write(json.dumps(spawn_child(argv, env, log, timeout)) + "\n")
                        replies.flush()
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.requests = open(request_w, "w")
        self.replies = open(reply_r)

    def spawn(self, argv: list[str], log: Path, timeout: float):
        self.requests.write(json.dumps([argv, str(log), timeout]) + "\n")
        self.requests.flush()
        line = self.replies.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return tuple(json.loads(line))

    def close(self) -> None:
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


class Runner:
    """Runs the ops of one benchmark run, one child at a time."""

    def __init__(self, root: Path, workdir: Path, workload: str, seed: int, deadline: float):
        self.workdir = workdir
        self.workload = workload
        self.deadline = deadline
        self.instances = {op.graph: graphs.relabelled(op.graph, seed)
                          for op in graphs.WORKLOADS[workload]}
        self.paths = graphs.write_instances(workload, seed, workdir)
        self.ops_started = 0
        self.op_s = 0.0
        self.reference_s = 0.0
        self.launcher = Launcher({**os.environ, "PYTHONPATH": str(root / "src")})

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.close()

    def spawn(self, argv: list[str], timeout: float) -> tuple[float, int | None, int]:
        return self.launcher.spawn(argv, self.workdir / "child.log", timeout)

    def sample(self, argv: list[str]) -> float:
        """Wall time of a child that must succeed."""
        wall, code, _ = self.spawn(argv, self.time_left())
        if code != 0:
            raise SystemExit(f"{' '.join(argv[1:])} failed:\n{self.child_log()}")
        return wall

    def time_left(self) -> float:
        return min(OP_TIMEOUT_S, self.deadline - time.monotonic())

    def child_log(self) -> str:
        return (self.workdir / "child.log").read_text()[-2000:]

    def op_argv(self, op: graphs.Op, report: Path, spans: Path | None) -> list[str]:
        """The child's command line; traced when ``spans`` is given."""
        args = [op.command[0], str(self.paths[op.graph]), *op.command[1:]]
        if op.edge is not None:
            args += ["--edge", "%d,%d" % self.instances[op.graph].map_edge(op.edge)]
        args += ["--json", str(report)]
        if spans is None:
            return [sys.executable, "-c", ENTRY, *args]
        # spawn_child puts its clock reading at spawn in place of {spawned}.
        return [sys.executable, str(HERE / "tracer.py"), str(spans), str(self.ops_started),
                "{spawned}", "--", *args]

    def run_op(self, op: graphs.Op, traced: bool) -> OpResult:
        inst = self.instances[op.graph]
        report_path = self.workdir / "report.json"
        report_path.unlink(missing_ok=True)
        spans = self.workdir / f"spans-{self.ops_started}.jsonl" if traced else None
        argv = self.op_argv(op, report_path, spans)
        self.ops_started += 1
        wall, code, rss = self.spawn(argv, self.time_left())
        result = OpResult(op, wall, rss, None, spans=spans)
        if code is None:
            result.error = "killed at the deadline"
        elif code != 0:
            result.error = f"exit code {code}: {self.child_log()}"
        else:
            try:
                report = json.loads(report_path.read_text())
                result.error = checks.check_report(op, inst, report)
                result.cells = len(report.get("cells", ()))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result.error = f"unreadable report: {exc!r}"
        return result

    def run_pass(self, traced: bool, sample: bool) -> Pass:
        """Run every op once.  With ``sample``, time one set-up child after
        each op, then the reference workload until it has taken
        REFERENCE_SHARE of the ops' time, so that both kinds of sample span
        the same stretch of time as the ops."""
        done = Pass([], [], [])
        for op in graphs.WORKLOADS[self.workload]:
            if time.monotonic() >= self.deadline:
                break
            done.ops.append(self.run_op(op, traced))
            if sample:
                done.setup_s.append(self.sample([sys.executable, "-c", SETUP]))
                self.op_s += done.ops[-1].wall_s
                while self.reference_s < REFERENCE_SHARE * self.op_s:
                    t = time.monotonic()
                    reference.work()
                    done.reference_s.append(time.monotonic() - t)
                    self.reference_s += done.reference_s[-1]
        return done


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<16} {statistics.median(values):12.4f} {unit:<6} median of {len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f", {tail[0]} {tail[1]:.4f}"
    return line


def trace_pass(results: list[OpResult]) -> layers.PassTrace:
    trace = layers.PassTrace()
    for r in results:
        spans, counts = layers.read_spans(r.spans)
        trace.add_op(spans, counts, r.cells, r.wall_s)
        r.spans.unlink()
    return trace


END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(passes: list[Pass]) -> dict[str, tuple[list[float], str]]:
    """Samples of every end-to-end metric, then the raw pass time and the
    per-command sums of a pass, in seconds and in reference times."""
    refs = [s for p in passes for s in p.reference_s]
    ref = statistics.fmean(refs)
    out = {
        "wall_ref": ([p.wall_s / ref for p in passes], "ref"),
        "setup_s": ([s for p in passes for s in p.setup_s], "s"),
        "peak_rss_mb": ([max(r.rss_kb for p in passes for r in p.ops) / 1024], "MB"),
        "wall_s": ([p.wall_s for p in passes], "s"),
        "reference_s": (refs, "s"),
    }
    for kind in sorted({r.op.kind for r in passes[0].ops}):
        sums = [sum(r.wall_s for r in p.ops if r.op.kind == kind) for p in passes]
        out[f"{kind}_s"] = (sums, "s")
        out[f"{kind}_ref"] = ([t / ref for t in sums], "ref")
    return out


def per_layer(passes: list[Pass], traced: list[Pass],
              traces: list[layers.PassTrace]) -> dict[str, float]:
    """Self times are medians over traced passes; counts come from the first."""
    timings = [t.timings() for t in traces]
    tallies = traces[0].tallies()
    if any(t.tallies() != tallies for t in traces[1:]):
        print("warning: counts differ between traced passes", file=sys.stderr)
    untraced = statistics.median(p.wall_s for p in passes)
    metrics = {}
    for name in layers.PER_LAYER:
        if name == "trace_overhead":
            metrics[name] = statistics.median(p.wall_s for p in traced) / untraced
        elif name in timings[0] or layers.unit_of(name) == "s":
            metrics[name] = statistics.median(t.get(name, 0.0) for t in timings)
        else:
            metrics[name] = tallies.get(name, 0)
    return metrics


def run(args, root: Path, workdir: Path) -> dict:
    start = time.monotonic()
    budget = start + args.seconds
    passes: list[Pass] = []
    traced: list[Pass] = []
    traces: list[layers.PassTrace] = []
    with Runner(root, workdir, args.workload, args.seed, start + RUN_LIMIT_S) as runner:
        # Writes the bytecode caches, as an installed package has them.
        runner.sample([sys.executable, "-c", SETUP])
        while True:
            t = time.monotonic()
            passes.append(runner.run_pass(traced=False, sample=not args.trace))
            if args.trace:
                traced.append(runner.run_pass(traced=True, sample=False))
                traces.append(trace_pass([r for r in traced[-1].ops if r.error is None]))
            now = time.monotonic()
            if now + (now - t) > budget or now >= runner.deadline:
                break

    results = [r for p in passes + traced for r in p.ops]
    failed = [r for r in results if r.error is not None]
    for r in failed[:5]:
        print(f"FAILED {r.op.graph} {' '.join(r.op.command)}: {r.error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(graphs.WORKLOADS[args.workload])} ops")
    if args.trace:
        metrics = {name: (value, layers.unit_of(name))
                   for name, value in per_layer(passes, traced, traces).items()}
    else:
        samples = end_to_end(passes)
        for name, (values, unit) in samples.items():
            print(describe(name, values, unit))
        metrics = {name: (statistics.median(samples[name][0]), unit)
                   for name, unit in END_TO_END.items()}
    print(f"error_rate       {len(failed) / len(results):12.4f} ratio  of {len(results)} ops")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(graphs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "apx" / "cli.py").is_file():
        print("error: run from the root of an apx checkout (no src/apx/cli.py)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
