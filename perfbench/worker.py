"""One benchmark process: set up one workload, then run its ops.

run.py starts this script in a fresh interpreter for every set-up sample and
every measured run, so each measured run starts with cold library caches
(``lens._lens_d`` is a process-wide ``lru_cache``) and its peak RSS is its
own.  The result goes to the JSON file named by ``--result``.

Modes:
  setup     set up and stop (one set-up sample);
  measure   run ops for --seconds, or exactly --max-ops ops;
  lockstep  after set-up print "ready", then obey commands on stdin, one per
            line: "time S" runs ops for S seconds, "ops N" runs until N ops
            are done in all, "end" stops; each command is answered with
            "done <ops so far> <1 if the op list is used up, else 0>".
            run.py steps an untraced and a traced worker this way in turns,
            so both meet the same machine conditions.

The op list is finite: a run that uses it up ends early.

    python3 perfbench/worker.py --workload cable-tower --seed 1 --seconds 15 \\
        --mode measure --trace 0 --result .perfbench/r.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# a speed reading (speed.reading) is taken before the first op, after every
# READ_EVERY_S of op time, and after the last op
READ_EVERY_S = 0.2


class Runner:
    """Runs a workload's ops in order, timing each together with its checks.

    Between ops it takes speed readings; ``readings`` holds ``[ops done,
    block seconds]`` pairs, from which run.py scales each op time to the
    reference speed (see speed.py).

    peak_rss_mb is read once the workload's RSS_OPS ops are done (at the end
    of a shorter run), so it covers a fixed amount of work: the lens cache
    of cable-tower grows with every op, and a faster program would
    otherwise show more memory.
    """

    def __init__(self, wl, tracer):
        self.wl, self.tracer = wl, tracer
        self.before = getattr(wl, "before_traced_op", None) if tracer.enabled else None
        self.ops_digest, self.results_digest = hashlib.sha256(), hashlib.sha256()
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.errors: list[str] = []
        self.failed = 0
        self.wall = 0.0
        self.rss_mb = None
        self.readings: list[list] = []
        self._since_reading = 0.0

    def _read_speed(self) -> None:
        self.readings.append([self.done, speed.reading()])
        self._since_reading = 0.0

    @property
    def done(self) -> int:
        return len(self.times)

    @property
    def exhausted(self) -> bool:
        return self.done >= len(self.wl.ops)

    def step(self, seconds: float | None = None, until_ops: int | None = None) -> None:
        """Run ops until `seconds` have passed or `until_ops` ops are done in all."""
        perf_counter, tracer = time.perf_counter, self.tracer
        start = perf_counter()
        deadline = start + seconds if seconds is not None else None
        while not self.exhausted:
            if until_ops is not None and self.done >= until_ops:
                break
            if deadline is not None and perf_counter() >= deadline:
                break
            if not self.readings or self._since_reading >= READ_EVERY_S:
                self._read_speed()
            i = self.done
            op = self.wl.ops[i]
            tracer.op = i
            if self.before is not None:
                self.before(op, tracer)
            run = tracer.wrap(f"bench.{op[0]}", self.wl.run)
            t0 = perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                self.failed += 1
                result = ("error", type(exc).__name__)
                if len(self.errors) < 10:
                    self.errors.append(f"op {i} {op[:4]}: {type(exc).__name__}: {exc}")
            self.times.append(perf_counter() - t0)
            self._since_reading += self.times[-1]
            self.kinds.append(op[0])
            self.ops_digest.update(repr(op).encode())
            self.results_digest.update(repr(result).encode())
            if self.done == self.wl.RSS_OPS:
                self.rss_mb = _peak_rss_mb()
        self.wall += perf_counter() - start

    def report(self) -> dict:
        if not self.readings or self.readings[-1][0] < self.done:
            self._read_speed()
        return {
            "ops": self.done,
            "failed": self.failed,
            "errors": self.errors,
            "wall_s": self.wall,
            "times_s": self.times,
            "kinds": self.kinds,
            "readings": self.readings,
            "ops_digest": self.ops_digest.hexdigest(),
            "results_digest": self.results_digest.hexdigest(),
            "exhausted": self.exhausted,
            "peak_rss_mb": self.rss_mb if self.rss_mb is not None else _peak_rss_mb(),
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "lockstep"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, help="run exactly this many ops, ignoring --seconds")
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import cablecalc
    if Path(cablecalc.__file__).resolve().parent != SRC / "cablecalc":
        print(f"imported cablecalc from {cablecalc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cablecalc.verify import thread_cap
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Checker, library

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    lib = library(tracer, patch_cli=args.workload == "cli-mix")
    wl = WORKLOADS[args.workload](lib, Checker(args.negative_control), args.seed,
                                  args.seconds, workdir)
    out = {"setup_done": time.monotonic()}
    if args.mode != "setup":
        runner = Runner(wl, tracer)
        if args.mode == "lockstep":
            _obey(runner)
        else:
            runner.step(seconds=None if args.max_ops is not None else args.seconds,
                        until_ops=args.max_ops)
        out.update(runner.report())
        out["thread_cap"] = thread_cap()
        if args.trace:
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(trace_path)
            out["trace_file"] = str(trace_path.relative_to(ROOT))
            out["layers"] = _layer_report(tracer, runner.kinds)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    for path in sorted(workdir.rglob("*"), reverse=True):
        path.rmdir() if path.is_dir() else path.unlink()
    workdir.rmdir()
    return 0


def _obey(runner: Runner) -> None:
    print("ready", flush=True)
    for line in sys.stdin:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "end":
            return
        if cmd == "time":
            runner.step(seconds=float(arg))
        elif cmd == "ops":
            runner.step(until_ops=int(arg))
        else:
            raise SystemExit(f"unknown lockstep command {line!r}")
        print(f"done {runner.done} {int(runner.exhausted)}", flush=True)


def _layer_report(tracer, kinds: list[str]) -> dict:
    by_kind: dict[str, dict[str, float]] = {}
    for name, start, end, _parent, op in tracer.spans:
        spans = by_kind.setdefault("setup" if op is None else kinds[op], {})
        spans[name] = spans.get(name, 0.0) + end - start
    return {
        "busy_s_by_op_kind": by_kind,
        "busy_s": dict(tracer.busy()),
        "calls": dict(tracer.calls()),
        "self_s": dict(tracer.self_times()),
        "layer_self_s": dict(tracer.layer_self_times()),
        "counts": dict(tracer.counts),
        "maxima": dict(tracer.maxima),
    }


if __name__ == "__main__":
    sys.exit(main())
