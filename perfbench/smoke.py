"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 perfbench/smoke.py

For each workload it checks that
  * the same seed gives the same op list and the same result digest, and
    another seed another op list;
  * a short run prints, as its last line, exactly the end-to-end metrics of
    BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1), each
    with its unit, and no op fails;
  * the negative control (--negative-control) fails an op and exits 1;
and that run.py refuses, without a result, a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "smoke"
WORKLOADS = ("engine-sweep", "cable-tower", "cli-mix")
FIRST_OPS = 5  # inside the first round of every workload, before any anchor op


def worker_digests(workload: str, seed: int) -> tuple[str, str]:
    result = SCRATCH / "worker.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--mode", "measure",
                    "--max-ops", str(FIRST_OPS), "--result", str(result)],
                   cwd=ROOT, check=True)
    res = json.loads(result.read_text())
    assert res["ops"] == FIRST_OPS and res["failed"] == 0, res["errors"]
    return res["ops_digest"], res["results_digest"]


def run_bench(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3",
                           "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in (("0", "end_to_end"), ("1", "per_layer"))}
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        first = worker_digests(workload, 5)
        assert worker_digests(workload, 5) == first, f"{workload}: seed 5 is not reproducible"
        assert worker_digests(workload, 6)[0] != first[0], f"{workload}: seed ignored"
        for trace in ("0", "1"):
            code, out = run_bench(ROOT, "--workload", workload, "--trace", trace)
            result = last_json(out)
            assert code == 0 and result["correct"] and result["failed"] == 0, out
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[trace], f"{workload} trace {trace}: metrics {got}"
        code, out = run_bench(ROOT, "--workload", workload, "--negative-control")
        result = last_json(out)
        assert code == 1 and not result["correct"] and result["failed"] >= 1, out
        print(f"ok {workload}")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench(bare, "--workload", "cli-mix")
    assert code != 0 and not out.strip(), (code, out)
    shutil.rmtree(SCRATCH)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
