"""Command-line front end.

Subcommands:

    lens d P Q [--spinc I]               d-invariant(s) of the lens space L(P,Q)
    torus vs P Q                         V-sequence of the (P,Q) torus knot
    cable v0 --spec FILE                 invariants of an iterated cable, with slice verdict
    bounds --spec FILE --stage P,Q       unknotting-number bound report for a cable
    surgery d --spec FILE --pq P,Q       d-invariants of P/Q-surgery (--involutive for the pair)
    complex d FILE                       d, d_lower, d_upper of an iota-complex file
    complex validate FILE                run the structural checks on an iota-complex file
    verify identity13|moser|engine       self-checking sweeps

Every subcommand takes --json (stable machine-readable output; rationals
are exact "num/den" strings, never floats) and --out PATH (write the
rendered output to a file instead of stdout).

main(argv) may be called repeatedly in one process: the argument parser is
built on the first call and reused, so a query costs what its answer
costs.  build_parser() still returns a fresh parser for callers that
extend it.

Exit codes: 0 success; 1 usage error; 2 invalid input, insufficient data,
a label vector longer than lens.MAX_VECTOR_LABELS (lens d without --spinc,
surgery d without --involutive), a complex file of more than
iota.MAX_GENERATORS generators (20000; complex d and complex validate
refuse it before any reduction), a semigroup genus too large to index its
gap marks, input too large for available memory, or an answer with an
integer too long to write (past sys.get_int_max_str_digits() digits);
3 failed internal check, failed verification sweep, or any other exception
(a bug, reported with its traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections.abc import Iterable
from math import gcd

from .concordance import (
    _niwu_halves,
    invariants_to_dict,
    involutive_surgery_d,
    iterated_cable,
    load_knot_spec,
    slice_obstruction,
    unknotting_bounds,
)
from .errors import InsufficientDataError, InternalCheckError, UsageError, ValidationError, check_coprime
from .iota import d_results, load_complex, validate
from .lens import _check_vector_size, _lens_halves, _mirror, lens_d
from .torus import torus_vs
from .verify import run_verify_engine, run_verify_identity13, run_verify_moser

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _pair(text: str) -> tuple[int, int]:
    """Parse 'P,Q' into a pair of integers."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated integers P,Q, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"expected two comma-separated integers P,Q, got {text!r}") from None


def _emit(args, lines: Iterable[str], payload: dict) -> None:
    """Render either the text lines or the JSON payload, to stdout or --out.
    The lines may be a generator: they are consumed only in text mode.  The
    payload is written as json encodes it, piece by piece, so its whole
    text is never held."""
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.json:
            json.dump(payload, fh, indent=2, sort_keys=True)
        else:
            fh.write("\n".join(lines))
        fh.write("\n")


def _label_strings(p: int, q: int, lo: list[int], hi: list[int], den: int) -> list[str]:
    """str(Fraction(n, den)) for every label of a vector given as
    lens._lens_halves gives it, made once per conjugate pair."""
    def fmt(n: int) -> str:
        g = gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    r = q % p
    return _mirror([fmt(n) for n in lo], r) + _mirror([fmt(n) for n in hi], p - r)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_lens(args) -> int:
    p, q = args.p, args.q
    if args.spinc is not None:
        d = str(lens_d(p, q, args.spinc))
        lines = [f"d(L({p},{q}), [{args.spinc}]) = {d}"]
        payload = {"schema": "cablecalc/lens-d/v1", "p": p, "q": q, "spinc": args.spinc, "d": d}
    else:
        check_coprime(p, q)
        _check_vector_size(p)
        ds = _label_strings(p, q, *_lens_halves(p, q))
        lines = (f"d(L({p},{q}), [{i}]) = {d}" for i, d in enumerate(ds))
        payload = {"schema": "cablecalc/lens-d/v1", "p": p, "q": q, "d": ds}
    _emit(args, lines, payload)
    return 0


def _cmd_torus(args) -> int:
    p, q = args.p, args.q
    vs = torus_vs(p, q)
    lines = [f"V(T({p},{q})) = [{', '.join(str(v) for v in vs)}]"]
    payload = {"schema": "cablecalc/torus-vs/v1", "p": p, "q": q, "vs": list(vs)}
    _emit(args, lines, payload)
    return 0


def _cmd_cable(args) -> int:
    spec = load_knot_spec(args.spec)
    inv = iterated_cable(spec)
    verdict = slice_obstruction(inv)
    lines = [f"v_lower = {inv.v_lower}", f"v_upper = {inv.v_upper}"]
    if inv.v_seq is not None:
        lines.append(f"v_seq = [{', '.join(str(v) for v in inv.v_seq)}]")
    lines.append(f"verdict: {verdict}")
    payload = {
        "schema": "cablecalc/cable-v0/v1",
        "invariants": invariants_to_dict(inv),
        "verdict": verdict,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_bounds(args) -> int:
    spec = load_knot_spec(args.spec)
    companion = iterated_cable(spec)
    v0 = companion.v_seq[0] if companion.v_seq is not None else None
    report = unknotting_bounds(args.stage, companion, v0_companion=v0, g4_parity=args.g4_parity)
    lines = []
    for entry in report.entries:
        if entry.value is None:
            lines.append(f"{entry.name}: n/a ({entry.note})")
        else:
            suffix = f"  [{entry.note}]" if entry.note else ""
            lines.append(f"{entry.name}: u >= {entry.value}{suffix}")
    lines.append(f"maximum: u >= {report.maximum}")
    p, q = args.stage
    payload = {"schema": "cablecalc/bounds/v1", "p": p, "q": q}
    payload.update(report.to_dict())
    _emit(args, lines, payload)
    return 0


def _cmd_surgery(args) -> int:
    spec = load_knot_spec(args.spec)
    inv = iterated_cable(spec)
    p, q = args.pq
    if args.involutive:
        labels = {
            str(s): {"d_lower": str(lo), "d_upper": str(hi)}
            for s, (lo, hi) in sorted(involutive_surgery_d(p, q, inv).items())
        }
        lines = (
            f"[{s}] d_lower = {v['d_lower']}, d_upper = {v['d_upper']}" for s, v in labels.items()
        )
        payload = {
            "schema": "cablecalc/surgery-d/v1",
            "p": p,
            "q": q,
            "involutive": True,
            "labels": labels,
        }
    else:
        if inv.v_seq is None:
            raise InsufficientDataError(
                "insufficient invariants: the knot's v_seq is required for surgery d-invariants"
            )
        ds = _label_strings(p, q, *_niwu_halves(p, q, inv.v_seq))
        lines = (f"[{s}] d = {d}" for s, d in enumerate(ds))
        payload = {"schema": "cablecalc/surgery-d/v1", "p": p, "q": q, "involutive": False, "d": ds}
    _emit(args, lines, payload)
    return 0


def _cmd_complex(args) -> int:
    ic = load_complex(args.file)
    if args.action == "validate":
        report = validate(ic)
        lines = []
        for check in report.checks:
            status = "ok" if check.ok else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"{status}: {check.name}{detail}")
        lines.append("valid" if report.ok else "invalid")
        payload = {
            "schema": "cablecalc/complex-validate/v1",
            "ok": report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
            ],
        }
        _emit(args, lines, payload)
        return 0 if report.ok else 2
    results = d_results(ic)
    lines = [
        f"d       = {results.d}",
        f"d_lower = {results.lower}",
        f"d_upper = {results.upper}",
    ]
    payload = {
        "schema": "cablecalc/complex-d/v1",
        "d": str(results.d),
        "d_lower": str(results.lower),
        "d_upper": str(results.upper),
    }
    _emit(args, lines, payload)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "identity13":
        report = run_verify_identity13(args.max)
    elif args.suite == "moser":
        report = run_verify_moser(args.max)
    else:
        report = run_verify_engine(args.n, seed=args.seed)
    payload = {"schema": "cablecalc/verify/v1"}
    payload.update(report.to_dict())
    _emit(args, report.lines(), payload)
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command tree (main reuses one of these)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    parser = _Parser(prog="cablecalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    lens = sub.add_parser("lens", help="lens-space d-invariants")
    lens_sub = lens.add_subparsers(dest="action", metavar="ACTION", required=True)
    lens_d_cmd = lens_sub.add_parser("d", parents=[common], help="d-invariant(s) of L(P,Q)")
    lens_d_cmd.add_argument("p", type=int)
    lens_d_cmd.add_argument("q", type=int)
    lens_d_cmd.add_argument("--spinc", type=int, metavar="I", help="one spin-c label (default: all)")
    lens_d_cmd.set_defaults(func=_cmd_lens)

    torus = sub.add_parser("torus", help="torus-knot V-sequences")
    torus_sub = torus.add_subparsers(dest="action", metavar="ACTION", required=True)
    torus_vs_cmd = torus_sub.add_parser("vs", parents=[common], help="V-sequence of T(P,Q)")
    torus_vs_cmd.add_argument("p", type=int)
    torus_vs_cmd.add_argument("q", type=int)
    torus_vs_cmd.set_defaults(func=_cmd_torus)

    cable = sub.add_parser("cable", help="iterated-cable invariants")
    cable_sub = cable.add_subparsers(dest="action", metavar="ACTION", required=True)
    cable_v0 = cable_sub.add_parser("v0", parents=[common], help="invariants and slice verdict")
    cable_v0.add_argument("--spec", required=True, metavar="FILE", help="knot-spec JSON file")
    cable_v0.set_defaults(func=_cmd_cable)

    bounds = sub.add_parser("bounds", parents=[common], help="unknotting-number bound report")
    bounds.add_argument("--spec", required=True, metavar="FILE", help="knot-spec JSON file (companion)")
    bounds.add_argument("--stage", required=True, type=_pair, metavar="P,Q", help="cabling stage")
    bounds.add_argument(
        "--g4-parity",
        choices=("odd", "even"),
        help="assumed parity of the cable's slice genus, for the refined variants",
    )
    bounds.set_defaults(func=_cmd_bounds)

    surgery = sub.add_parser("surgery", help="surgery d-invariants")
    surgery_sub = surgery.add_subparsers(dest="action", metavar="ACTION", required=True)
    surgery_d_cmd = surgery_sub.add_parser("d", parents=[common], help="d-invariants of P/Q-surgery")
    surgery_d_cmd.add_argument("--spec", required=True, metavar="FILE", help="knot-spec JSON file")
    surgery_d_cmd.add_argument("--pq", required=True, type=_pair, metavar="P,Q", help="surgery slope")
    surgery_d_cmd.add_argument(
        "--involutive",
        action="store_true",
        help="the (d_lower, d_upper) pair at self-conjugate labels",
    )
    surgery_d_cmd.set_defaults(func=_cmd_surgery)

    cx = sub.add_parser("complex", help="iota-complex engine")
    cx_sub = cx.add_subparsers(dest="action", metavar="ACTION", required=True)
    cx_d = cx_sub.add_parser("d", parents=[common], help="d, d_lower, d_upper of a complex file")
    cx_d.add_argument("file", metavar="FILE", help="iota-complex JSON file")
    cx_d.set_defaults(func=_cmd_complex)
    cx_val = cx_sub.add_parser("validate", parents=[common], help="run the structural checks")
    cx_val.add_argument("file", metavar="FILE", help="iota-complex JSON file")
    cx_val.set_defaults(func=_cmd_complex)

    verify = sub.add_parser("verify", help="self-checking sweeps")
    verify_sub = verify.add_subparsers(dest="suite", metavar="SUITE", required=True)
    v_id = verify_sub.add_parser("identity13", parents=[common], help="surgery identity sweep")
    v_id.add_argument("--max", type=int, default=35, help="sweep bound (default 35)")
    v_id.set_defaults(func=_cmd_verify)
    v_mo = verify_sub.add_parser("moser", parents=[common], help="connected-sum consistency sweep")
    v_mo.add_argument("--max", type=int, default=10, help="companion/stage bound (default 10)")
    v_mo.set_defaults(func=_cmd_verify)
    v_en = verify_sub.add_parser("engine", parents=[common], help="randomized engine properties")
    v_en.add_argument("--n", type=int, default=100, help="number of random complexes (default 100)")
    v_en.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    v_en.set_defaults(func=_cmd_verify)

    return parser


# The parser main reuses: built on first use, once per process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help exits through argparse
            return exc.code if isinstance(exc.code, int) else 0
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for available memory", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            # str of an answer's integer past the interpreter's digit limit
            print(f"error: the answer has an integer past the digit limit for writing it "
                  f"({sys.get_int_max_str_digits()} digits)", file=sys.stderr)
            return 2
        import traceback  # loaded only for a bug: no query needs it

        traceback.print_exc()  # any other exception is a bug, never bad input
        return 3


if __name__ == "__main__":
    sys.exit(main())
