"""Time the iota engine's layers in-process on fixed randgen seeds, and the
knot side's label-vector layers on fixed parameters, for a parent checkout
and this one.

    python3 tools/bench_engine.py --parent ../parent/src

Each side is measured in PROCESSES fresh worker processes, run in turns
(parent first, then change first, ...), each of which imports cablecalc
from its side's src/.  In a worker every layer is timed REPEATS times,
round-robin over the layers, on freshly built complexes, so nothing is
cached on them (cold):

- d_results, validate and brute_oracle (at its minimum truncation) on
  randgen singles of 1, 3 and 5 generators, microseconds per complex;
- brute_oracle again on the same singles, warm (brute_oracle_warm_us):
  d_results(check=False) has computed each complex's homology and kept its
  values first, and the oracle runs with check=False, which is the call
  that the engine-sweep workload and `verify engine` make;
- tensor, and then d_results with its checks on the product, timed apart,
  on products of 9 and 25 generators and on the 27-generator triple
  (C x D) x C of two 3-generator complexes, built the way the engine-sweep
  workload builds it: every factor has been through d_results first, so
  its homology is there; microseconds per product;
- the first read of a 25-generator product's diff and iota, which are
  remade from its columns then (product25.read_maps_us);
- dual and shift(., 1/3), each built from its source's coordinates, on the
  5-generator singles and the 25-generator products, microseconds per
  complex (single5.dual_us, single5.shift_us, product25.dual_us,
  product25.shift_us);
- d_results on the seventh tensor power of the figure-eight complex (2187
  generators, at most 3 repeats), seconds;
- validate on a complex whose iota squares to the identity only up to
  homotopy: the strict model (the tensor square of a one-torsion-class
  complex, its iota perturbed by dG + Gd) tensored with the fourth power
  of the figure-eight complex (729 generators, at most 3 repeats), seconds;
- brute_oracle, warm and unchecked, on that same complex, seconds; a side
  whose oracle still enumerates the subsets of graded pieces (it has
  iota._class_tables) cannot reach it, and reads n/a;
- a second d_results(check=False) on each 5-generator single, the call
  engine-sweep makes for its doubled-windows check, microseconds per
  complex (single5.d_results_repeat_us);
- brute_oracle, warm and unchecked, on the staircase of T(17,19) (from
  tests/test_staircase.py) tensored with the strict model: 1449 generators
  over a wide grading range (stair17_19_strict.brute_oracle_s, at most 3
  repeats), seconds;
- random_iota_complex(seed, max_order=4) itself, over all the single
  seeds above, microseconds per complex (randgen_us);
- lens_d_vector(5001, 701) in milliseconds and lens_d_vector(200003, 7919)
  in seconds (at most 3 repeats); niwu_d(5003, 3) on the V-sequence of the
  genus-1200 tower T(2,3) cabled by (2,5) and (2,2385), milliseconds;
  lens_d per call over up to eight evenly spaced labels each of L(15, 1),
  L(1009, 17) and L(40009, 123), microseconds; concordance._check_vseq on the
  1297-entry V-sequence of T(2, 2593), microseconds;
- the tracemalloc peak of lens_d_vector(20011, 797) and of niwu_d(20011,
  3) on the V-sequence of T(2, 401), in bytes per label, once per worker
  after the timings (*.traced_b_per_label);
- the traced memory still held, after a garbage collection, by
  random_iota_complex(seed, max_order=4) for seeds 0-1999, each solved by
  d_results(check=False), in bytes per complex (randgen2000.held_b), the
  same when each is also solved through d_results(dual(ic), check=False)
  (randgen2000_dual.held_b), and by the 729-generator plain complex that
  complex_from_dict reads from the fifth tensor power of the figure-eight
  complex, solved by
  d_results(check=True), in KB (fig8_pow6_plain.held_kb); each once per
  worker, and exact.

A side's figure for a layer is the minimum over all its repeats in all its
workers; its peak RSS is the largest of its workers' (ru_maxrss), and it
also counts the non-blank lines of the src/cablecalc it imported.  Next to
each worker, a fresh interpreter compiles the side's cablecalc/iota.py
once, as an import that writes no bytecode does; iota_compile_peak_mb is
the largest growth of its peak resident set over that compile, read as
VmHWM (Linux only), since a spawned process inherits its parent's
ru_maxrss.  Next to each worker, too, a fresh `python -S -B` imports
cablecalc and cablecalc.cli from a copy of the side's src/cablecalc that
holds no bytecode, as a checkout run with PYTHONDONTWRITEBYTECODE=1 does:
import_ms is the quickest such import, import_peak_mb the largest growth
of VmHWM over it, and import_modules the number of modules it loads.  The
two columns go to --out (default: BENCH_engine_view.json at the checkout's
root).  Numbers vary with the machine: quote them with its CPU and Python.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLES = 30  # complexes per size
PRODUCTS = 12  # products per size
SIZES = (1, 3, 5)
PROCESSES = 4  # worker processes per side
REPEATS = 15  # repeats of each layer in one worker


def _seeds_of_size(random_iota_complex, size: int, count: int) -> list[int]:
    out, seed = [], 0
    while len(out) < count:
        if len(random_iota_complex(seed, max_order=4).complex.generators) == size:
            out.append(seed)
        seed += 1
    return out


def knot_cases() -> tuple[list, list]:
    """The knot side's timed layers, as (name, build, run, scale) like
    measure()'s cases, and its traced-peak probes, as (name, call, labels)."""
    from cablecalc.concordance import (CableStage, _check_vseq, cable_inv_v0, niwu_d,
                                       torus_knot_invariants)
    from cablecalc.lens import lens_d, lens_d_vector
    from cablecalc.torus import torus_vs

    tower = torus_knot_invariants(2, 3)
    for stage in ((2, 5), (2, 2385)):
        tower = cable_inv_v0(CableStage(*stage), tower)
    assert tower.genus3 == 1200
    labels = [(p, q, i) for p, q in ((15, 1), (1009, 17), (40009, 123)) for i in range(0, p, p // 8 + 7)]
    vs1297, vs401 = torus_vs(2, 2593), torus_vs(2, 401)
    cases = [("lens5001.lens_d_vector_ms", lambda: [(5001, 701)], lambda pq: lens_d_vector(*pq), 1e3),
             ("lens200003.lens_d_vector_s", lambda: [(200003, 7919)], lambda pq: lens_d_vector(*pq), 1),
             ("tower1200.niwu_d_ms", lambda: [tower.v_seq], lambda vs: niwu_d(5003, 3, vs), 1e3),
             ("lens_d_us", lambda: labels, lambda pqi: lens_d(*pqi), 1e6),
             ("check_vseq1297_us", lambda: [vs1297], _check_vseq, 1e6)]
    probes = [("lens20011.traced_b_per_label", lambda: lens_d_vector(20011, 797), 20011),
              ("niwu20011.traced_b_per_label", lambda: niwu_d(20011, 3, vs401), 20011)]
    return cases, probes


def traced_peak(call) -> int:
    """Bytes of the tracemalloc peak of one call, its result included."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


def traced_held(build) -> int:
    """Bytes of traced memory still held, after a garbage collection, by
    what build() returns."""
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    kept = build()
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    del kept
    return held


def held_probes() -> list:
    """(name, build, scale) of the traced-held probes."""
    from cablecalc import iota
    from cablecalc.randgen import random_iota_complex
    from cablecalc.verify import figure_eight_complex

    def solved(ics, check, mirror=False):
        for ic in ics:
            iota.d_results(ic, check=check)
            if mirror:
                iota.d_results(iota.dual(ic), check=False)
        return ics

    f8 = figure_eight_complex()
    power = f8
    for _ in range(5):
        power = iota.tensor(power, f8)
    data = iota.complex_to_dict(power)  # names and text gradings, made outside the trace
    return [("randgen2000.held_b", lambda: solved([random_iota_complex(s, max_order=4) for s in range(2000)], False),
             1 / 2000),
            ("randgen2000_dual.held_b",
             lambda: solved([random_iota_complex(s, max_order=4) for s in range(2000)], False, True), 1 / 2000),
            ("fig8_pow6_plain.held_kb", lambda: solved([iota.complex_from_dict(data)], True), 1 / 1024)]


def measure() -> dict:
    from cablecalc import iota
    from cablecalc.randgen import random_iota_complex
    from cablecalc.torus import torus_vs
    from cablecalc.verify import figure_eight_complex

    sys.path.insert(0, str(ROOT / "tests"))
    from test_staircase import staircase_a0

    vs1719 = torus_vs(17, 19)
    seeds = {n: _seeds_of_size(random_iota_complex, n, SINGLES) for n in SIZES}

    def singles(n):
        return lambda: [random_iota_complex(s, max_order=4) for s in seeds[n]]

    def pairs(n):
        def build():
            ics = [random_iota_complex(s, max_order=4) for s in seeds[n][:2 * PRODUCTS]]
            for ic in ics:
                iota.d_results(ic, check=False)
            return list(zip(ics[0::2], ics[1::2]))
        return build

    def triples():
        out = []
        for c, d in pairs(3)():
            cd = iota.tensor(c, d)
            iota.d_results(cd)
            out.append((cd, c))
        return out

    def products(build):
        return lambda: [iota.tensor(*ab) for ab in build()]

    def power7():
        f8 = figure_eight_complex()
        ic = f8
        for _ in range(6):
            ic = iota.tensor(ic, f8)
        return [ic]

    def strict():
        # a at 0, c at 0 and b at -1 with d b = U c; iota: a -> a + c
        torsion = iota.IotaComplex(iota.GradedComplex([("a", 0), ("c", 0), ("b", -1)], {"b": [("c", 1)]}),
                                   {"a": [("a", 0), ("c", 0)], "c": [("c", 0)], "b": [("b", 0)]})
        sq = iota.tensor(torsion, torsion, sep=".")
        return iota.IotaComplex(sq.complex, {**sq.iota, "b.b": sq.iota["b.b"] ^ {("a.c", 1)}})

    def strict_pow4():
        ic, f8 = strict(), figure_eight_complex()
        for _ in range(4):
            ic = iota.tensor(ic, f8)
        return [ic]

    def oracle(ic, check=True):
        span = iota.homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
        iota.brute_oracle(ic, truncation=span, check=check)

    def warm(build):
        def built():
            ics = build()
            for ic in ics:
                iota.d_results(ic, check=False)
            return ics
        return built

    # (name, build, run on one built item, scale of the reported figure)
    cases = []
    for n in SIZES:
        cases += [(f"single{n}.d_results_us", singles(n), iota.d_results, 1e6),
                  (f"single{n}.validate_us", singles(n), iota.validate, 1e6),
                  (f"single{n}.brute_oracle_us", singles(n), oracle, 1e6),
                  (f"single{n}.brute_oracle_warm_us", warm(singles(n)), lambda ic: oracle(ic, False), 1e6)]
    for name, build in (("product9", pairs(3)), ("product25", pairs(5)), ("triple27", triples)):
        cases += [(f"{name}.tensor_us", build, lambda ab: iota.tensor(*ab), 1e6),
                  (f"{name}.d_results_check_us", products(build), iota.d_results, 1e6)]
    cases.append(("product25.read_maps_us", products(pairs(5)), lambda p: (p.complex.diff, p.iota), 1e6))
    for name, build in (("single5", singles(5)), ("product25", products(pairs(5)))):
        cases += [(f"{name}.dual_us", build, iota.dual, 1e6),
                  (f"{name}.shift_us", build, lambda ic: iota.shift(ic, Fraction(1, 3)), 1e6)]
    cases.append(("fig8_pow7.d_results_s", power7, iota.d_results, 1))
    cases.append(("strict_fig8_pow4.validate_s", strict_pow4, iota.validate, 1))
    if not hasattr(iota, "_class_tables"):
        cases.append(("strict_fig8_pow4.brute_oracle_s", warm(strict_pow4), lambda ic: oracle(ic, False), 1))
        cases.append(("stair17_19_strict.brute_oracle_s", warm(lambda: [iota.tensor(staircase_a0(vs1719), strict())]),
                      lambda ic: oracle(ic, False), 1))
    cases.append(("single5.d_results_repeat_us", warm(singles(5)), lambda ic: iota.d_results(ic, check=False), 1e6))
    all_seeds = [s for n in SIZES for s in seeds[n]]
    cases.append(("randgen_us", lambda: all_seeds, lambda s: random_iota_complex(s, max_order=4), 1e6))
    knot, probes = knot_cases()
    cases += knot
    best = dict.fromkeys(name for name, *_ in cases)
    # round-robin over the cases, so every case's repeats are spread over
    # the whole run and a spell of contention on the machine hits them all
    for r in range(REPEATS):
        for name, build, run, scale in cases:
            if scale == 1 and r >= 3:
                continue  # up to a second or more per repeat
            items = build()
            t0 = time.perf_counter()
            for item in items:
                run(item)
            t = (time.perf_counter() - t0) / len(items) * scale
            best[name] = t if best[name] is None else min(best[name], t)
    out = {name: round(t, 1 if scale > 1 else 4) for (name, *_, scale), t in zip(cases, best.values())}
    for name, call, labels in probes:
        call()  # warm, as the timed repeats have warmed every other layer
        out[name] = round(traced_peak(call) / labels, 1)
    for name, build, scale in held_probes():
        out[name] = round(traced_held(build) * scale, 1)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    pkg = Path(iota.__file__).resolve().parent
    out["src_nonblank_lines"] = sum(1 for f in sorted(pkg.glob("*.py"))
                                    for line in f.read_text().splitlines() if line.strip())
    return out


# The peak resident set of the running process in kB, read from VmHWM
# (Linux): a spawned process starts its ru_maxrss at its parent's peak, so
# a growth below that would read 0, but VmHWM starts afresh at exec.
PEAK_KB = """def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

# run in a fresh interpreter: the peak growth, in MB, of compiling one file
COMPILE_PEAK = PEAK_KB + """import sys
source = open(sys.argv[1], encoding="utf-8").read()
before = peak_kb()
compile(source, sys.argv[1], "exec")
print((peak_kb() - before) / 1024)
"""


def compile_peak(src: str) -> float:
    path = Path(src) / "cablecalc" / "iota.py"
    done = subprocess.run([sys.executable, "-c", COMPILE_PEAK, str(path)], check=True, capture_output=True, text=True)
    return float(done.stdout)


# run in a fresh `python -S -B`: the time, peak growth and modules of
# importing the package from sys.argv[1]
IMPORT_COST = PEAK_KB + """import sys, time
before, loaded = peak_kb(), len(sys.modules)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cablecalc, cablecalc.cli
ms = (time.perf_counter() - t0) * 1e3
print(ms, (peak_kb() - before) / 1024, len(sys.modules) - loaded)
"""


def import_cost(src: str) -> dict:
    """import_ms, import_peak_mb and import_modules of one import of the
    package from a bytecode-free copy of src/cablecalc."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(src) / "cablecalc", Path(tmp) / "cablecalc",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "-S", "-B", "-c", IMPORT_COST, tmp],
                              check=True, capture_output=True, text=True)
    ms, mb, modules = done.stdout.split()
    return {"import_ms": round(float(ms), 1), "import_peak_mb": round(float(mb), 2), "import_modules": int(modules)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent checkout's src/ directory")
    ap.add_argument("--src", default=str(ROOT / "src"), help="this side's src/ (default: this checkout's)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_engine_view.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)  # a src/ to measure and print
    args = ap.parse_args(argv)
    if args.worker:
        sys.path.insert(0, str(Path(args.worker).resolve()))
        print(json.dumps(measure()))
        return 0
    sides = {"parent": args.parent, "change": args.src}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for k in range(PROCESSES):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            cmd = [sys.executable, __file__, "--parent", args.parent, "--worker", sides[side]]
            runs[side].append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                                        text=True).stdout))
            runs[side][-1]["iota_compile_peak_mb"] = compile_peak(sides[side])
            runs[side][-1].update(import_cost(sides[side]))
    names = list(dict.fromkeys([*runs["change"][0], *runs["parent"][0]]))
    columns = {}
    for side, got in runs.items():
        col = {name: min(r[name] for r in got) if name in got[0] else "n/a" for name in names}
        for name in ("peak_rss_mb", "iota_compile_peak_mb", "import_peak_mb", "import_modules"):
            col[name] = max(r[name] for r in got)
        columns[side] = col
    doc = {
        "description": "iota-engine layers, cold unless named warm, and the generator itself on "
                       "fixed randgen seeds (max_order=4), and the knot side's label-vector layers: "
                       "the minimum over every repeat of every worker, *_us per complex, product, "
                       "label or sequence, *_ms and *_s per call; *.traced_b_per_label the "
                       "tracemalloc peak per label; *.held_b and *.held_kb the traced memory "
                       "a solved complex holds; peak_rss_mb the largest worker's; "
                       "iota_compile_peak_mb the largest VmHWM growth of compiling iota.py "
                       "in a fresh interpreter; import_ms (the quickest), import_peak_mb (the "
                       "largest VmHWM growth) and import_modules of importing cablecalc and "
                       "cablecalc.cli in a fresh `python -S -B` from a bytecode-free copy; "
                       "non-blank lines of src/cablecalc",
        "settings": {"processes": PROCESSES, "repeats": REPEATS,
                     "python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
        "columns": columns,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for name in names:
        print(f"{name:32s} {columns['parent'][name]:>10} {columns['change'][name]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
