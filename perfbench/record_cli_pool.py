"""Write cli_pool.json: the cli-mix call pool with the sha256 of each call's
``--json`` payload.

The digests are the expected outputs the cli-mix workload checks every call
against, so they are recorded once, from a commit whose outputs are trusted,
and kept.  Rerun only when the pool itself changes:

    python3 perfbench/record_cli_pool.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Category -> calls.  "{data}" stands for perfbench/data; no payload names a path.
POOL = {
    "lens": ["lens d 3 5", "lens d 7 2", "lens d 101 13", "lens d 257 31", "lens d 1009 17",
             "lens d 2003 45"],
    "lens-spinc": ["lens d 3 5 --spinc 2", "lens d 101 13 --spinc 7",
                   "lens d 1009 17 --spinc 500", "lens d 2003 45 --spinc 0",
                   "lens d 40009 123 --spinc 31"],
    "torus": ["torus vs 2 3", "torus vs 3 5", "torus vs 5 7", "torus vs 11 13", "torus vs 17 23"],
    "cable": ["cable v0 --spec {data}/knot_trefoil.json",
              "cable v0 --spec {data}/knot_t23_c27.json",
              "cable v0 --spec {data}/knot_t23_c27_c31.json",
              "cable v0 --spec {data}/knot_t35_c215.json",
              "cable v0 --spec {data}/knot_custom_cabled.json"],
    "bounds": ["bounds --spec {data}/knot_custom.json --stage 3,2",
               "bounds --spec {data}/knot_trefoil.json --stage 2,7",
               "bounds --spec {data}/knot_t23_c27.json --stage 3,5 --g4-parity odd",
               "bounds --spec {data}/knot_t35_c215.json --stage 5,3"],
    "surgery": ["surgery d --spec {data}/knot_trefoil.json --pq 5,1",
                "surgery d --spec {data}/knot_t23_c27.json --pq 13,2",
                "surgery d --spec {data}/knot_t35_c215.json --pq 31,3",
                "surgery d --spec {data}/knot_trefoil.json --pq 5,1 --involutive",
                "surgery d --spec {data}/knot_custom.json --pq 3,2 --involutive",
                "surgery d --spec {data}/knot_t23_c27_c31.json --pq 7,3 --involutive"],
    "complex-d": [f"complex d {{data}}/{name}.json"
                  for name in ("cx_figure_eight", "cx_swap", "cx_rand3", "cx_rand5", "cx_rand5x3")],
    "complex-validate": [f"complex validate {{data}}/{name}.json"
                         for name in ("cx_figure_eight", "cx_swap", "cx_rand3", "cx_rand5",
                                      "cx_rand5x3")],
    "verify-identity13": ["verify identity13 --max 11", "verify identity13 --max 15"],
    "verify-moser": ["verify moser --max 4", "verify moser --max 5"],
    "verify-engine": [f"verify engine --n 4 --seed {s}" for s in (0, 10, 20, 30)],
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cablecalc.cli import main as cli_main

    out = ROOT / ".perfbench" / "record_out.json"
    out.parent.mkdir(exist_ok=True)
    recorded = {}
    for category, calls in POOL.items():
        recorded[category] = {}
        for key in calls:
            argv = [a.replace("{data}", str(HERE / "data")) for a in key.split(" ")]
            code = cli_main(argv + ["--json", "--out", str(out)])
            if code != 0:
                print(f"cablecalc {key}: exit code {code}", file=sys.stderr)
                return 1
            recorded[category][key] = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    with open(HERE / "cli_pool.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
