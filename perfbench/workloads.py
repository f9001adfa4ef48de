"""The three workloads: their inputs, their ops and the checks on every op.

Each workload builds its whole op list from the seed at set-up and then runs
ops one at a time (a closed loop with a single caller).  Op lists are built
from rounds of fixed composition, with the seed choosing the members, so
that every seed gives the same mix of op kinds and sizes and only the
concrete inputs differ.  An op is timed together with its checks; a check
that fails raises ``CheckFailed`` and the op counts as failed.

Workloads reach the library only through ``lib`` (see ``library``), so a
traced run can put a span around each call without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
from math import gcd
from pathlib import Path
from types import SimpleNamespace

from cablecalc import cli, iota
from cablecalc.iota import IotaComplex

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


class Checker:
    """Comparisons that raise CheckFailed.

    With ``negative_control`` the first expected value of the run is
    replaced by one that cannot match, so that run must report a failure.
    """

    def __init__(self, negative_control: bool = False):
        self._corrupt_next = negative_control

    def equal(self, got, want, what: str) -> None:
        if self._corrupt_next:
            self._corrupt_next = False
            want = ("deliberately wrong expected value", want)
        if got != want:
            raise CheckFailed(f"{what}: got {_short(got)}, expected {_short(want)}")

    def true(self, cond: bool, what: str) -> None:
        if not cond:
            raise CheckFailed(what)


def _short(value, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# the library as the workloads see it

_LAYER_FUNCTIONS = {
    "lens": ["lens_d", "lens_d_vector"],
    "torus": ["torus_vs", "gap_vs"],
    "concordance": ["cable_inv_v0", "iterated_cable", "niwu_d", "involutive_surgery_d",
                    "unknotting_bounds", "load_knot_spec", "slice_obstruction",
                    "invariants_to_dict"],
    "iota": ["validate", "homology_summary", "d_invariant", "d_lower", "d_upper",
             "d_results", "brute_oracle", "tensor", "load_complex"],
    "randgen": ["random_iota_complex"],
    "verify": ["run_verify_identity13", "run_verify_moser", "run_verify_engine"],
}

# Names that cablecalc.cli imports from the library and calls per query.
CLI_IMPORTS = ["lens_d", "lens_d_vector", "torus_vs", "load_knot_spec", "iterated_cable",
               "slice_obstruction", "invariants_to_dict", "unknotting_bounds",
               "involutive_surgery_d", "niwu_d", "load_complex", "validate", "d_results",
               "run_verify_identity13", "run_verify_moser", "run_verify_engine"]


def library(tracer, patch_cli: bool = False) -> SimpleNamespace:
    """Library functions by short name, each wrapped in a span when tracing.

    When tracing, the names ``validate``, ``d_invariant``, ``d_lower`` and
    ``d_upper`` in ``cablecalc.iota`` are replaced by their wrappers, so the
    real ``d_results`` gives a span to each of them that it calls, and the
    work counters are kept next to the spans.  With ``patch_cli`` the same
    wrappers replace the names ``cablecalc.cli`` imported, so time inside
    ``cli.main`` splits into library and CLI time.
    """
    fns = {}
    for module, names in _LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"cablecalc.{module}")
        for name in names:
            fns[name] = tracer.wrap(f"{module}.{name}", getattr(mod, name))
    fns["cli_main"] = tracer.wrap("cli.main", cli.main)
    if tracer.enabled:
        for name in ("validate", "d_invariant", "d_lower", "d_upper"):
            setattr(iota, name, fns[name])
        _add_counters(fns, tracer)
    lib = SimpleNamespace(**fns)
    if patch_cli and tracer.enabled:
        for name in CLI_IMPORTS:
            setattr(cli, name, fns[name])
    return lib


def _add_counters(fns: dict, tracer) -> None:
    # the plain wrappers, taken before fns is updated below
    lens_d_vector, torus_vs = fns["lens_d_vector"], fns["torus_vs"]
    cable_inv_v0, homology_summary = fns["cable_inv_v0"], fns["homology_summary"]
    d_results = fns["d_results"]

    def counted_lens_d_vector(p, q):
        tracer.add("lens.labels", p)
        return lens_d_vector(p, q)

    def counted_torus_vs(p, q):
        vs = torus_vs(p, q)
        tracer.add("torus.vs_entries", len(vs))
        return vs

    def counted_cable_inv_v0(stage, inv):
        out = cable_inv_v0(stage, inv)
        if out.genus3 is not None:
            tracer.high("concordance.genus_max", out.genus3)
        if out.v_seq is not None:
            tracer.add("concordance.vseq_entries", len(out.v_seq))
        return out

    def counted_homology_summary(ic, check=True):
        summary = homology_summary(ic, check=check)
        tracer.high("iota.torsion_exponent_max", summary.torsion_exponent)
        return summary

    def counted_d_results(ic, *args, **kwargs):
        n = len(ic.complex.generators)
        tracer.add("iota.generators", n)
        tracer.high("iota.generators_max", n)
        return d_results(ic, *args, **kwargs)

    fns.update(lens_d_vector=counted_lens_d_vector, torus_vs=counted_torus_vs,
               cable_inv_v0=counted_cable_inv_v0, homology_summary=counted_homology_summary,
               d_results=counted_d_results)


# ---------------------------------------------------------------------------
# engine-sweep

def _values(r) -> tuple:
    return (r.d, r.lower, r.upper)


def _chain_holds(ra, rb, rt) -> bool:
    """The interleaved inequality chain of a tensor product."""
    return (ra.lower + rb.lower <= rt.lower <= ra.lower + rb.upper
            <= rt.upper <= ra.upper + rb.upper)


class EngineSweep:
    """Seeded random iota-complexes checked the way ``verify engine`` checks
    them, plus tensor products of them checked for d additivity and the
    inequality chain.

    A round is six single complexes of 5, 5, 3, 3, 1 and 1 generators, the
    consecutive-pair products (25, 9 and 1 generators), and the triple
    product (C x D) x C of the two 3-generator complexes C, D (27
    generators).  One fixed 125-generator triple product (three 5-generator
    complexes from fixed seeds) runs once per run, after the first round;
    its cost does not depend on the seed.
    """

    SIZES = (5, 5, 3, 3, 1, 1)
    ROUNDS_PER_SECOND = 10  # about 1.7x what the seed code completes
    RSS_OPS = 600  # peak_rss_mb is read after this many ops (see worker.Runner)

    def __init__(self, lib, chk, seed: int, seconds: float, workdir: Path):
        self.lib, self.chk = lib, chk
        n_rounds = max(2, math.ceil(seconds * self.ROUNDS_PER_SECOND))
        need = {n: self.SIZES.count(n) * n_rounds for n in set(self.SIZES)}
        buckets: dict[int, list[int]] = {n: [] for n in need}
        self.complexes = {}
        k = 0
        while any(len(buckets[n]) < need[n] for n in need):
            case_seed = seed * 1_000_003 + k
            k += 1
            ic = lib.random_iota_complex(case_seed, max_order=4)
            n = len(ic.complex.generators)
            if n in buckets and len(buckets[n]) < need[n]:
                buckets[n].append(case_seed)
                self.complexes[case_seed] = ic
        anchor = []
        k = 0
        while len(anchor) < 3:
            ic = lib.random_iota_complex(k, max_order=4)
            if len(ic.complex.generators) == 5:
                anchor.append(k)
                self.complexes[("anchor", k)] = ic
            k += 1
        self.ops = []
        pick = {n: iter(seeds) for n, seeds in buckets.items()}
        for r in range(n_rounds):
            a, b, c, d, e, f = (next(pick[n]) for n in self.SIZES)
            self.ops += [("single", r, s) for s in (a, b, c, d, e, f)]
            self.ops += [("pair", r, a, b), ("pair", r, c, d), ("pair", r, e, f),
                         ("triple", r, c, d)]
            if r == 0:
                self.ops.append(("anchor125", r, *anchor))
        self._memo: dict = {}
        self._round = None

    def run(self, op):
        if op[1] != self._round:
            self._memo.clear()
            self._round = op[1]
        return getattr(self, "_" + op[0])(*op[2:])

    def _single(self, s):
        lib, chk = self.lib, self.chk
        ic = self.complexes[s]
        base = lib.d_results(ic, check=False)
        summary = lib.homology_summary(ic, check=False)
        span = summary.torsion_exponent + len(ic.complex.generators)
        got = lib.brute_oracle(ic, truncation=span, check=False)
        chk.equal(_values(got), _values(base), f"seed {s}: engine vs brute oracle")
        stable = lib.d_results(ic, check=False, m_max=2 * span,
                               window_slack=2 * summary.torsion_exponent + 2)
        chk.equal(_values(stable), _values(base), f"seed {s}: doubled search windows")
        identity = {g: [(g, 0)] for g in ic.complex.generators}
        trivial = lib.d_results(IotaComplex(ic.complex, identity), check=False)
        chk.equal(_values(trivial), (base.d,) * 3, f"seed {s}: identity involution")
        self._memo[s] = base
        return tuple(str(v) for v in _values(base))

    def _product(self, a_ic, ra, b_ic, rb, what):
        prod = self.lib.tensor(a_ic, b_ic)
        rt = self.lib.d_results(prod, check=True)
        self.chk.equal(rt.d, ra.d + rb.d, f"{what}: d additivity")
        self.chk.true(_chain_holds(ra, rb, rt),
                      f"{what}: inequality chain violated: A {ra}, B {rb}, product {rt}")
        return prod, rt

    def _pair(self, a, b):
        prod, rt = self._product(self.complexes[a], self._memo[a],
                                 self.complexes[b], self._memo[b], f"seeds {a},{b}")
        self._memo[(a, b)] = (prod, rt)
        return tuple(str(v) for v in _values(rt))

    def _triple(self, c, d):
        prod, rcd = self._memo[(c, d)]
        _, rt = self._product(prod, rcd, self.complexes[c], self._memo[c],
                              f"seeds ({c},{d}),{c}")
        return tuple(str(v) for v in _values(rt))

    def _anchor125(self, *seeds):
        lib = self.lib
        a, b, c = (self.complexes[("anchor", s)] for s in seeds)
        ra, rb, rc = (lib.d_results(x, check=False) for x in (a, b, c))
        ab, rab = self._product(a, ra, b, rb, f"anchor seeds {seeds[0]},{seeds[1]}")
        _, rt = self._product(ab, rab, c, rc, f"anchor seeds {seeds}")
        return tuple(str(v) for v in _values(rt))


# ---------------------------------------------------------------------------
# cable-tower

def semigroup_v0(p: int, q: int) -> int:
    """V_0 of the (p, q) torus knot by counting gaps >= g of <p, q>.

    Residue class b*q mod p first meets the semigroup at b*q, so its gaps
    are b*q - k*p for k >= 1.  O(p), independent of the library's routes.
    """
    g = (p - 1) * (q - 1) // 2
    return sum(max(0, (q * b - g) // p) for b in range(p))


def semigroup_vs(a: int, b: int, stages) -> tuple[int, ...]:
    """V-sequence of an iterated L-space cable of T(a, b) from its semigroup.

    The semigroup of the (p, q)-cable of an L-space knot K is p*S_K + q*N;
    V_s counts the gaps above s + g - 1.  Every integer >= 2g lies in the
    semigroup, so membership up to 2g decides everything.
    """
    g = (a - 1) * (b - 1) // 2
    member = bytearray(2 * g + 1)
    for x in range(0, 2 * g + 1, a):
        member[x:2 * g + 1:b] = b"\x01" * len(range(x, 2 * g + 1, b))
    for p, q in stages:
        g_new = p * g + (p - 1) * (q - 1) // 2
        top = 2 * g_new
        new = bytearray(top + 1)
        for s in range(top // p + 1):
            if s >= 2 * g or member[s]:
                new[p * s:top + 1:q] = b"\x01" * len(range(p * s, top + 1, q))
        member, g = new, g_new
    gaps_above = [0] * (2 * g + 2)
    for k in range(2 * g - 1, -1, -1):
        gaps_above[k] = gaps_above[k + 1] + (not member[k])
    if gaps_above[0] != g:
        raise CheckFailed(f"semigroup has {gaps_above[0]} gaps, expected genus {g}")
    return tuple(gaps_above[s + g] for s in range(g + 1))


def _coprime_at_least(p: int, q: int) -> int:
    while gcd(p, q) != 1:
        q += 1
    return q


class CableTower:
    """Knot-side queries at large parameters; no input repeats within a run.

    A round is one lens vector L(p, q) (p ~ 5000*f, q ~ p/10..p/5), one
    torus V-sequence (pq ~ 60000*f), one two-stage L-space cable tower
    loaded from a spec file (genus ~ 1200*f), a Ni-Wu plus involutive
    surgery query on that tower (p ~ 5000*f), and an unknotting-bound report
    on it.  The size factor f cycles through 0.6..1.4, with a 5% jitter, so
    every seed gives the same spread of sizes and the towers are the
    heaviest fifth of the ops.  After the first round run the two fixed
    anchors: the lens vector L(200003, 7919) and the T(2,3) tower with
    stages (5,41), (3,1001), (2,6007), which reaches genus 5513.
    """

    FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)
    ROUNDS_PER_SECOND = 6  # about 1.6x what the seed code completes
    RSS_OPS = 200
    BASES = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7))
    ANCHOR_TOWER = ((2, 3), ((5, 41), (3, 1001), (2, 6007)))

    def __init__(self, lib, chk, seed: int, seconds: float, workdir: Path):
        self.lib, self.chk = lib, chk
        rng = random.Random(f"cable-tower:{seed}")
        self.spec_dir = workdir / "specs"
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        self._seen: set = set()
        self.ops = []
        for r in range(max(2, math.ceil(seconds * self.ROUNDS_PER_SECOND))):
            f = self.FACTORS[r % len(self.FACTORS)] * rng.uniform(0.95, 1.05)
            self.ops.append(("lens", *self._new_odd_pair(rng, 5000 * f)))
            self.ops.append(("torus", *self._new_torus_pair(rng, 60000 * f)))
            self.ops.append(("tower", *self._new_tower(rng, 1200 * f, r)))
            self.ops.append(("surgery", *self._new_odd_pair(rng, 5000 * f, (1, 3, 5, 7))))
            p = rng.choice((2, 3, 5))
            self.ops.append(("bounds", p, _coprime_at_least(p, rng.randint(2, 60))))
            if r == 0:
                self.ops.append(("anchor-lens", 200003, 7919))
                self._seen.add(("lens", 200003, 7919))
                base, stages = self.ANCHOR_TOWER
                self.ops.append(("anchor-tower", base, stages, 5513,
                                 self._write_spec("anchor", base, stages)))
        self._tower_inv = None

    def _new_odd_pair(self, rng, size, q_choices=None):
        """Odd coprime (p, q) not used yet by a lens or surgery op: both fill
        the lens cache for L(p, q)."""
        while True:
            p = int(size * rng.uniform(0.98, 1.02)) | 1
            q = rng.choice(q_choices) if q_choices else rng.randrange(p // 10, p // 5) | 1
            if gcd(p, q) == 1 and ("lens", p, q) not in self._seen:
                self._seen.add(("lens", p, q))
                return p, q

    def _new_torus_pair(self, rng, size):
        while True:
            p = rng.randint(60, 140)
            q = _coprime_at_least(p, max(p + 1, round(size / p)))
            if ("torus", p, q) not in self._seen:
                self._seen.add(("torus", p, q))
                return p, q

    def _new_tower(self, rng, genus, r):
        while True:
            a, b = rng.choice(self.BASES)
            g = (a - 1) * (b - 1) // 2
            p1 = rng.choice((2, 3))
            q1 = _coprime_at_least(p1, p1 * (2 * g - 1) + rng.randint(1, 6))
            g1 = p1 * g + (p1 - 1) * (q1 - 1) // 2
            p2 = rng.choice((2, 3))
            q2 = max(p2 * (2 * g1 - 1), 2 * (int(genus) - p2 * g1) // (p2 - 1) + 1)
            q2 = _coprime_at_least(p2, q2)
            g2 = p2 * g1 + (p2 - 1) * (q2 - 1) // 2
            stages = ((p1, q1), (p2, q2))
            if ("tower", a, b, stages) not in self._seen:
                self._seen.add(("tower", a, b, stages))
                return (a, b), stages, g2, self._write_spec(f"r{r}", (a, b), stages)

    def _write_spec(self, name, base, stages) -> str:
        """Write a knot-spec file; ops name it without the run's directory."""
        name = f"tower_{name}.json"
        spec = {"base": {"type": "torus", "p": base[0], "q": base[1]},
                "stages": [list(s) for s in stages]}
        (self.spec_dir / name).write_text(json.dumps(spec))
        return name

    def run(self, op):
        return getattr(self, "_" + op[0].removeprefix("anchor-"))(*op[1:])

    def _lens(self, p, q):
        lib, chk = self.lib, self.chk
        d = lib.lens_d_vector(p, q)
        chk.equal(len(d), p, f"L({p},{q}): vector length")
        bad = next((i for i in range(p) if d[i] != d[(p + q - 1 - i) % p]), None)
        chk.true(bad is None, f"L({p},{q}): conjugation symmetry fails at label {bad}")
        # identity13 with (q, p) in the roles of (p, q): pq-surgery on T(q, p)
        lhs = lib.lens_d(p * q, 1, 0) - 2 * semigroup_v0(q, p)
        rhs = d[((q - 1) // 2) % p] + lib.lens_d(q, p, ((p - 1) // 2) % q)
        chk.equal(lhs, rhs, f"L({p},{q}): identity13")
        return (p, q, str(d[0]), str(d[p // 2]), str(d[-1]))

    def _torus(self, p, q):
        vs = self.lib.torus_vs(p, q)
        self.chk.equal(vs, self.lib.gap_vs(p, q), f"T({p},{q}): torus_vs vs gap_vs")
        self.chk.equal(len(vs), (p - 1) * (q - 1) // 2 + 1, f"T({p},{q}): length")
        return (p, q, vs[0], len(vs))

    def _tower(self, base, stages, genus, spec_name):
        lib, chk = self.lib, self.chk
        spec = lib.load_knot_spec(self.spec_dir / spec_name)
        inv = spec.base
        for stage in spec.stages:
            inv = lib.cable_inv_v0(stage, inv)
        what = f"T{base} cabled by {stages}"
        chk.equal((inv.genus3, inv.lspace), (genus, True), f"{what}: genus, L-space")
        chk.equal(inv.v_seq, semigroup_vs(*base, stages), f"{what}: semigroup V-sequence")
        self._tower_inv = inv
        return (base, stages, inv.v_lower, inv.v_upper, inv.v_seq[0], genus)

    def _surgery(self, p, q):
        lib, chk, inv = self.lib, self.chk, self._tower_inv
        d = lib.niwu_d(p, q, inv.v_seq)
        bad = next((i for i in range(p) if d[i] != d[(p + q - 1 - i) % p]), None)
        chk.true(bad is None, f"{p}/{q}-surgery: conjugation symmetry fails at label {bad}")
        pair = lib.involutive_surgery_d(p, q, inv)
        i = ((q - 1) // 2) % p
        # an L-space knot has v_lower = v_upper = V_0, so both sides equal Ni-Wu
        chk.equal(pair, {i: (d[i], d[i])}, f"{p}/{q}-surgery: involutive vs Ni-Wu")
        return (p, q, str(d[0]), str(d[-1]), str(pair[i][0]))

    def _bounds(self, p, q):
        inv, chk = self._tower_inv, self.chk
        v0k, v0t = inv.v_seq[0], semigroup_v0(p, q)
        report = self.lib.unknotting_bounds((p, q), inv, v0_companion=v0k)
        values = {e.name: e.value for e in report.entries}
        want = {"hlp": p, "v0-based": 2 * v0k + 2 * v0t - 1}
        if p % 2:
            want["involutive-lower"] = 2 * inv.v_lower + 2 * v0t - 2
            want["involutive-upper-variant"] = -2 * inv.v_upper - 2 * v0t - 2
        else:
            want["involutive-lower"] = want["involutive-upper-variant"] = None
        chk.equal({k: values.get(k) for k in want}, want, f"bounds ({p},{q})")
        chk.true(values.get("jz-genus") is not None, f"bounds ({p},{q}): jz-genus missing")
        chk.equal(report.maximum, max(v for v in values.values() if v is not None),
                  f"bounds ({p},{q}): maximum")
        return (p, q, report.maximum)


# ---------------------------------------------------------------------------
# cli-mix

class CliMix:
    """In-process ``cablecalc.cli.main([..., "--json", "--out", tmp])`` calls.

    Calls are drawn with repeats from the fixed pool in cli_pool.json, every
    entry with the same weight: the op list is a run of passes over the
    whole pool, each pass in an order drawn by the seed.  An op is
    ``(category, call)``, so shares of calls and of time are reported per
    category.  Each call must exit 0 and write exactly the bytes recorded
    for it (sha256 in cli_pool.json, written by record_cli_pool.py).
    """

    PASSES_PER_SECOND = 4  # about twice what the seed code completes
    RSS_OPS = 1500

    def __init__(self, lib, chk, seed: int, seconds: float, workdir: Path):
        self.lib, self.chk = lib, chk
        pool = json.loads((HERE / "cli_pool.json").read_text())
        self.expected = {key: digest for calls in pool.values() for key, digest in calls.items()}
        calls = [(cat, key) for cat in sorted(pool) for key in sorted(pool[cat])]
        self.data = str(HERE / "data")
        self.out = workdir / "cli_out.json"
        rng = random.Random(f"cli-mix:{seed}")
        self.ops = []
        for _ in range(max(2, math.ceil(seconds * self.PASSES_PER_SECOND))):
            rng.shuffle(calls)
            self.ops += calls
        self._parse = None

    def argv(self, key: str) -> list[str]:
        return [a.replace("{data}", self.data) for a in key.split(" ")] + [
            "--json", "--out", str(self.out)]

    def before_traced_op(self, op, tracer):
        """Time argument parsing alone on the same argv (traced runs only)."""
        if self._parse is None:
            self._parse = tracer.wrap("cli.parse",
                                      lambda argv: cli.build_parser().parse_args(argv))
        self._parse(self.argv(op[1]))

    def run(self, op):
        key = op[1]
        if self.out.exists():
            os.remove(self.out)
        code = self.lib.cli_main(self.argv(key))
        self.chk.equal(code, 0, f"cablecalc {key}: exit code")
        digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
        self.chk.equal(digest, self.expected[key], f"cablecalc {key}: --json payload")
        return (key, digest)


WORKLOADS = {"engine-sweep": EngineSweep, "cable-tower": CableTower, "cli-mix": CliMix}
