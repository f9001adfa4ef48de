"""cablecalc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload engine-sweep|cable-tower|cli-mix \\
        --seed N --seconds S --trace 0|1 [--negative-control]

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Every set-up sample and every measured run is a fresh
``worker.py`` process, so each starts from cold caches.

--trace 0 prints the end-to-end metrics of one untraced run of S seconds:
setup_s (median of 15 set-ups, interpreter start included), ops_per_s,
op_ms.p50, op_ms.tail and peak_rss_mb.  Times are scaled to the reference
speed by speed readings taken next to them (see speed.py); the raw wall
times are in the detail file.  --trace 1 runs an untraced and a
traced worker on the same ops, in turns, for about S/2 seconds each, and
prints the per-layer metrics of the traced one plus trace_overhead_pct.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; readable lines and the run's environment
come before it, and the full detail goes to .perfbench/.

Exit status: 0 when every op passed its checks, 1 when some op failed
(the result is still printed), 2 when the checkout has no src/cablecalc,
3 when a worker process failed or ran out of time (no result printed).
--negative-control corrupts the first expected value of the run, so a
correct benchmark must then exit 1 with failure_rate > 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "cablecalc"
OUT = ROOT / ".perfbench"
# set-up samples: seven set-up-only processes before the measured run, its
# own set-up, and seven set-up-only processes after it
SETUP_SAMPLES = 15
# ops_per_s is the median over consecutive chunks of ops of at least CHUNK_S
# seconds of op time each, so that what the speed readings do not catch of a
# few seconds of contention, or one long anchor op, does not move it.
CHUNK_S = 4.0
BUDGET_S = 170.0  # every worker together; the driver allows 180 s per run

# Percentile reported as op_ms.tail: one of the ladder with at least ten
# samples beyond it at the op counts the seed code reaches in one run (the
# highest such for engine-sweep and cable-tower; cli-mix takes p99, with
# about 30 beyond, over p99.5, with about 16).  It is fixed per workload so
# that a faster program is compared at the same percentile; fewer than ten
# samples beyond falls back down the ladder.
TAIL_PERCENTILE = {"engine-sweep": 95.0, "cable-tower": 90.0, "cli-mix": 99.0}
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# (metric, source in the traced worker's layer report, key)
PER_LAYER = [
    ("lens.lens_d_vector.busy_s", "busy_s", "lens.lens_d_vector"),
    ("lens.lens_d_vector.calls", "calls", "lens.lens_d_vector"),
    ("lens.lens_d.busy_s", "busy_s", "lens.lens_d"),
    ("lens.labels", "counts", "lens.labels"),
    ("torus.torus_vs.busy_s", "busy_s", "torus.torus_vs"),
    ("torus.gap_vs.busy_s", "busy_s", "torus.gap_vs"),
    ("torus.vs_entries", "counts", "torus.vs_entries"),
    ("concordance.cable_inv_v0.busy_s", "busy_s", "concordance.cable_inv_v0"),
    ("concordance.cable_inv_v0.calls", "calls", "concordance.cable_inv_v0"),
    ("concordance.genus_max", "maxima", "concordance.genus_max"),
    ("concordance.vseq_entries", "counts", "concordance.vseq_entries"),
    ("concordance.niwu_d.busy_s", "busy_s", "concordance.niwu_d"),
    ("concordance.involutive_surgery_d.busy_s", "busy_s", "concordance.involutive_surgery_d"),
    ("concordance.unknotting_bounds.busy_s", "busy_s", "concordance.unknotting_bounds"),
    ("concordance.load_knot_spec.busy_s", "busy_s", "concordance.load_knot_spec"),
    ("iota.validate.busy_s", "busy_s", "iota.validate"),
    ("iota.homology_summary.busy_s", "busy_s", "iota.homology_summary"),
    ("iota.d_invariant.busy_s", "busy_s", "iota.d_invariant"),
    ("iota.d_lower.busy_s", "busy_s", "iota.d_lower"),
    ("iota.d_upper.busy_s", "busy_s", "iota.d_upper"),
    ("iota.brute_oracle.busy_s", "busy_s", "iota.brute_oracle"),
    ("iota.tensor.busy_s", "busy_s", "iota.tensor"),
    ("iota.load_complex.busy_s", "busy_s", "iota.load_complex"),
    ("iota.generators", "counts", "iota.generators"),
    ("iota.generators_max", "maxima", "iota.generators_max"),
    ("iota.torsion_exponent_max", "maxima", "iota.torsion_exponent_max"),
    ("randgen.random_iota_complex.busy_s", "busy_s", "randgen.random_iota_complex"),
    ("randgen.random_iota_complex.calls", "calls", "randgen.random_iota_complex"),
    ("verify.run_verify_identity13.busy_s", "busy_s", "verify.run_verify_identity13"),
    ("verify.run_verify_moser.busy_s", "busy_s", "verify.run_verify_moser"),
    ("verify.run_verify_engine.busy_s", "busy_s", "verify.run_verify_engine"),
    ("cli.main.busy_s", "busy_s", "cli.main"),
    ("cli.calls", "calls", "cli.main"),
    ("cli.parse.busy_s", "busy_s", "cli.parse"),
    ("cli.self_s", "self_s", "cli.main"),
]


class WorkerError(Exception):
    pass


class Workers:
    """Starts worker processes, all within one shared time budget."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0

    def _cmd(self, mode: str, trace: int) -> tuple[list[str], Path]:
        a = self.args
        self.count += 1
        result = OUT / f"worker-{os.getpid()}-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode,
               "--trace", str(trace), "--result", str(result)]
        if a.negative_control:
            cmd.append("--negative-control")
        return cmd, result

    @staticmethod
    def _result(result: Path) -> dict:
        try:
            return json.loads(result.read_text())
        finally:
            result.unlink()

    def run(self, mode: str) -> tuple[dict, float, float]:
        """Run one untraced worker; return its result, the monotonic time it
        started and a speed reading taken just before."""
        cmd, result = self._cmd(mode, 0)
        before = speed.reading()
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker ran past the time budget") from None
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited with {proc.returncode}")
        return self._result(result), started, before

    def lockstep(self, seconds: float, slice_s: float = 0.5) -> tuple[dict, dict]:
        """Untraced and traced workers on the same ops, in alternating slices.

        The untraced worker runs for slice_s, then the traced one runs the
        same ops, until the untraced one has run for `seconds` in all.
        """
        procs, results = [], []
        try:
            for trace in (0, 1):
                cmd, result = self._cmd("lockstep", trace)
                procs.append(subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                              stdout=subprocess.PIPE, text=True))
                results.append(result)
            plain, traced = procs
            for proc in procs:
                self._reply(proc, "ready")
            spent = 0.0
            while spent < seconds:
                t0 = time.monotonic()
                done, exhausted = self._command(plain, f"time {min(slice_s, seconds - spent)}")
                spent += time.monotonic() - t0
                self._command(traced, f"ops {done}")
                if exhausted:
                    break
            for proc in procs:
                proc.stdin.write("end\n")
                proc.stdin.close()
                if proc.wait(timeout=max(1.0, self.deadline - time.monotonic())) != 0:
                    raise WorkerError(f"lockstep worker exited with {proc.returncode}")
            return self._result(results[0]), self._result(results[1])
        except subprocess.TimeoutExpired:
            raise WorkerError("lockstep worker ran past the time budget") from None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def _command(self, proc, line: str) -> tuple[int, bool]:
        proc.stdin.write(line + "\n")
        proc.stdin.flush()
        _, done, exhausted = self._reply(proc, "done")
        return int(done), exhausted == "1"

    def _reply(self, proc, word: str) -> list[str]:
        wait = max(0.0, self.deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], wait)
        if not ready:
            raise WorkerError("lockstep worker ran past the time budget")
        reply = proc.stdout.readline().split()
        if not reply or reply[0] != word:
            raise WorkerError(f"lockstep worker answered {reply!r}, expected {word!r}")
        return reply


def tail(times_ms: list[float], workload: str) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for op_ms.tail."""
    ordered = sorted(times_ms)
    n = len(ordered)
    for pct in PERCENTILE_LADDER:
        if pct > TAIL_PERCENTILE[workload]:
            continue
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
        if n - rank >= 10 or pct == PERCENTILE_LADDER[-1]:
            return pct, ordered[max(rank, 1) - 1], n - rank
    raise AssertionError("unreachable: the ladder ends with a fallback")


def chunks(times: list[float]) -> list[list[float]]:
    """Consecutive runs of ops with at least CHUNK_S of op time each; a
    shorter remainder joins the last chunk."""
    out: list[list[float]] = []
    cur: list[float] = []
    total = 0.0
    for t in times:
        cur.append(t)
        total += t
        if total >= CHUNK_S:
            out.append(cur)
            cur, total = [], 0.0
    if cur and out:
        out[-1] += cur
    elif cur:
        out.append(cur)
    return out


def scaled_times(times: list[float], readings: list[list]) -> list[float]:
    """Op times scaled to the reference speed: each op time times REF_S over
    the mean of the speed readings taken before and after its segment."""
    out, k = [], 0
    for i, t in enumerate(times):
        while k + 1 < len(readings) and readings[k + 1][0] <= i:
            k += 1
        after = readings[min(k + 1, len(readings) - 1)][1]
        out.append(t * speed.REF_S * 2 / (readings[k][1] + after))
    return out


def environment(seed: int, thread_cap: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "sweep_threads": thread_cap, "seed": seed, "git_commit": commit,
            "src_nonblank_lines": src_lines}


def end_to_end(workers: Workers, args) -> tuple[dict, dict, dict, dict]:
    # Set-up samples are taken before and after the measured run, so that
    # their median spans the machine's state over the whole run.  Each is
    # scaled by the speed readings just before it (in this process) and just
    # after it (the next one in this process, or the measuring worker's first).
    setups, scaled_setups = [], []

    def setup_sample(res, started, before, after):
        setups.append(res["setup_done"] - started)
        scaled_setups.append(setups[-1] * speed.REF_S * 2 / (before + after))

    for _ in range(SETUP_SAMPLES // 2):
        res, started, before = workers.run("setup")
        setup_sample(res, started, before, speed.reading())
    measured, started, before = workers.run("measure")
    setup_sample(measured, started, before, measured["readings"][0][1])
    for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
        res, started, before = workers.run("setup")
        setup_sample(res, started, before, speed.reading())
    res = measured
    times_s = scaled_times(res["times_s"], res["readings"])
    pct, tail_ms, beyond = tail([t * 1e3 for t in times_s], args.workload)
    parts = chunks(times_s)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "ops_per_s": (statistics.median(len(c) / sum(c) for c in parts), "1/s"),
        "op_ms.p50": (statistics.median(times_s) * 1e3, "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"median of {len(parts)} chunks; {res['ops']} ops in {res['wall_s']:.3f} s",
        "op_ms.p50": f"{res['ops']} ops",
        "op_ms.tail": f"p{pct:g}, {beyond} samples beyond",
        "failure_rate": f"{res['failed']} of {res['ops']} ops failed",
        "peak_rss_mb": "measured run's process",
    }
    op_s_by_kind: Counter = Counter()
    for kind, t in zip(res["kinds"], res["times_s"]):
        op_s_by_kind[kind] += t
    detail = {"setup_samples_s": setups, "scaled_setup_samples_s": scaled_setups,
              "speed_readings": res["readings"], "scaled_op_times_s": times_s,
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "ops_by_kind": Counter(res["kinds"]), "op_s_by_kind": op_s_by_kind,
              "failure_rate": res["failed"] / res["ops"],
              "ops_digest": res["ops_digest"], "results_digest": res["results_digest"],
              "op_list_used_up": res["exhausted"], "errors": res["errors"],
              "op_times_s": res["times_s"]}
    return metrics, notes, detail, res


def per_layer(workers: Workers, args) -> tuple[dict, dict, dict, dict]:
    plain, traced = workers.lockstep(args.seconds / 2)
    layers = traced["layers"]
    metrics = {}
    for name, source, key in PER_LAYER:
        unit = "s" if source in ("busy_s", "self_s") else "count"
        metrics[name] = (layers[source].get(key, 0), unit)
    # Same op list in both runs, so the ratio of op times is the ratio of
    # ops_per_s.  Raw times: the two workers run in alternating slices, so
    # they already meet the same machine, and the traced worker's readings
    # came out ~8% slower than the untraced one's in the same run, so scaled
    # times would count that as tracing making the ops faster.
    overhead = (sum(traced["times_s"]) / sum(plain["times_s"]) - 1) * 100
    metrics["trace_overhead_pct"] = (overhead, "%")
    busy, by_kind = layers["busy_s"], layers["busy_s_by_op_kind"]
    engine = sum(busy.get(f"iota.{n}", 0.0) for n in ("d_invariant", "d_lower", "d_upper"))
    baseline = {
        "lens_d_vector(200003, 7919) s": by_kind.get("anchor-lens", {}).get("lens.lens_d_vector"),
        "genus-5513 tower, cable_inv_v0 s":
            by_kind.get("anchor-tower", {}).get("concordance.cable_inv_v0"),
        "d_upper share of d_results (without validate)":
            busy.get("iota.d_upper", 0.0) / engine if engine else None,
    }
    notes = {"trace_overhead_pct": f"{plain['ops']} ops, untraced and traced in turns"}
    detail = {"baseline": baseline, "trace_file": traced["trace_file"],
              "speed_readings": {"untraced": plain["readings"], "traced": traced["readings"]},
              "layer_self_s": layers["layer_self_s"], "busy_s": busy,
              "calls": layers["calls"], "busy_s_by_op_kind": by_kind,
              "errors": plain["errors"] + traced["errors"],
              "ops_digest": traced["ops_digest"], "results_digest": traced["results_digest"]}
    merged = dict(plain, ops=plain["ops"] + traced["ops"],
                  failed=plain["failed"] + traced["failed"])
    return metrics, notes, detail, merged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="corrupt the first expected value; the run must then fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "__init__.py").is_file():
        print(f"error: no cablecalc package under {SRC.parent}; run inside a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workers = Workers(args)
    try:
        metrics, notes, detail, res = (per_layer if args.trace else end_to_end)(workers, args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    env = environment(args.seed, res["thread_cap"])
    print(f"# cablecalc benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    if not args.trace:
        print(f"{'failure_rate':42s} {res['failed'] / res['ops']:>14.6g} {'':6s} "
              f"{notes['failure_rate']}")
    for err in detail["errors"]:
        print(f"# FAIL {err}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if "baseline" in detail:
        print(f"# baseline {json.dumps(detail['baseline'])}")
    detail_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seconds": args.seconds,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "notes": notes, **detail}, fh, indent=1)
    print(f"# detail {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
