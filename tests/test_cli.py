import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cablecalc
from cablecalc import cli, iota
from cablecalc.cli import main
from cablecalc.concordance import niwu_d
from cablecalc.iota import dump_complex
from cablecalc.lens import MAX_VECTOR_LABELS, lens_d, lens_d_vector
from cablecalc.verify import figure_eight_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(text):
    """Parse CLI JSON output, failing the test if any float sneaks in."""

    def reject(s):
        raise AssertionError(f"float in JSON output: {s}")

    return json.loads(text, parse_float=reject)


@pytest.fixture
def trefoil_spec(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"base": {"type": "torus", "p": 2, "q": 3}, "stages": []}))
    return str(path)


@pytest.fixture
def cabled_spec(tmp_path):
    path = tmp_path / "cabled.json"
    path.write_text(
        json.dumps(
            {"base": {"type": "custom", "v_lower": 1, "v_upper": 0}, "stages": [[3, 1], [5, 1]]}
        )
    )
    return str(path)


def test_lens_d_vector(capsys):
    code, out, _ = run(capsys, "lens", "d", "3", "5")
    assert code == 0
    assert out.splitlines() == [
        "d(L(3,5), [0]) = 1/6",
        "d(L(3,5), [1]) = 1/6",
        "d(L(3,5), [2]) = -1/2",
    ]


def test_lens_d_vector_matches_the_library(capsys):
    # the CLI formats the vector from integer numerators, not from lens_d_vector
    for p, q in ((1, 1), (2, 1), (7, 3), (12, 5), (64, 129), (101, 13), (1009, 17)):
        code, out, _ = run(capsys, "lens", "d", str(p), str(q), "--json")
        assert code == 0
        assert parse_json(out)["d"] == [str(v) for v in lens_d_vector(p, q)], (p, q)


def test_lens_d_single_label_json(capsys):
    code, out, _ = run(capsys, "lens", "d", "3", "5", "--spinc", "2", "--json")
    assert code == 0
    data = parse_json(out)
    assert data["schema"] == "cablecalc/lens-d/v1"
    assert data["d"] == "-1/2"


def test_lens_d_rejects_bad_label(capsys):
    code, _, err = run(capsys, "lens", "d", "3", "5", "--spinc", "7")
    assert code == 2
    assert "out of range" in err


def test_lens_d_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "lens", "d", "4", "2")
    assert code == 2
    assert "coprime" in err


def test_torus_vs(capsys):
    code, out, _ = run(capsys, "torus", "vs", "3", "5")
    assert code == 0
    assert out.strip() == "V(T(3,5)) = [2, 1, 1, 1, 0]"
    code, out, _ = run(capsys, "torus", "vs", "3", "5", "--json")
    assert parse_json(out)["vs"] == [2, 1, 1, 1, 0]


def test_cable_v0_with_verdict(capsys, cabled_spec):
    code, out, _ = run(capsys, "cable", "v0", "--spec", cabled_spec)
    assert code == 0
    lines = out.splitlines()
    assert "v_lower = 1" in lines
    assert "v_upper = 0" in lines
    assert lines[-1] == "verdict: obstructed (not smoothly slice)"


def test_cable_v0_json(capsys, trefoil_spec):
    code, out, _ = run(capsys, "cable", "v0", "--spec", trefoil_spec, "--json")
    assert code == 0
    data = parse_json(out)
    assert data["invariants"]["v_lower"] == 1
    assert data["invariants"]["v_seq"] == [1, 0]
    assert data["verdict"] == "obstructed (not smoothly slice)"


def test_cable_v0_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "cable", "v0", "--spec", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_bounds_report(capsys, tmp_path):
    path = tmp_path / "companion.json"
    path.write_text(
        json.dumps({"base": {"type": "custom", "v_lower": 3, "v_upper": 0, "v_seq": [0]}, "stages": []})
    )
    code, out, _ = run(capsys, "bounds", "--spec", str(path), "--stage", "3,2")
    assert code == 0
    assert "involutive-lower: u >= 6" in out
    assert "hlp: u >= 3" in out
    assert "v0-based: u >= 1" in out
    assert out.splitlines()[-1] == "maximum: u >= 6"

    code, out, _ = run(capsys, "bounds", "--spec", str(path), "--stage", "3,2", "--json")
    data = parse_json(out)
    assert data["maximum"] == 6
    names = [e["name"] for e in data["entries"]]
    assert "involutive-lower" in names and "hlp" in names


def test_bounds_unknot_companion(capsys, tmp_path):
    # the (2,3)-cable of the unknot is T(2,3), whose unknotting number is 1
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"base": {"type": "custom", "v_lower": 0, "v_upper": 0,
                                         "v_seq": [0], "lspace": True}, "stages": []}))
    code, out, _ = run(capsys, "bounds", "--spec", str(path), "--stage", "2,3")
    assert code == 0
    assert "hlp: n/a (not applicable: needs a nontrivial companion" in out
    assert out.splitlines()[-1] == "maximum: u >= 1"
    # without v_seq no bound applies at even p: insufficient data, not a guess
    path.write_text(json.dumps({"base": {"type": "custom", "v_lower": 0, "v_upper": 0}, "stages": []}))
    code, _, err = run(capsys, "bounds", "--spec", str(path), "--stage", "2,3")
    assert code == 2
    assert "no applicable bounds" in err


def test_bounds_g4_parity_flag(capsys, trefoil_spec):
    code, out, _ = run(capsys, "bounds", "--spec", trefoil_spec, "--stage", "3,2", "--g4-parity", "odd")
    assert code == 0
    assert "involutive-lower-parity" in out
    code, _, err = run(capsys, "bounds", "--spec", trefoil_spec, "--stage", "3,2", "--g4-parity", "flat")
    assert code == 1


def test_bounds_bad_stage_syntax(capsys, trefoil_spec):
    code, _, err = run(capsys, "bounds", "--spec", trefoil_spec, "--stage", "3:2")
    assert code == 1
    assert "comma-separated" in err


def test_surgery_d_vector(capsys, trefoil_spec):
    code, out, _ = run(capsys, "surgery", "d", "--spec", trefoil_spec, "--pq", "3,2")
    assert code == 0
    assert out.splitlines() == ["[0] d = -11/6", "[1] d = -11/6", "[2] d = -1/2"]


def test_surgery_d_vector_text_lines(capsys, trefoil_spec):
    # the text lines are rendered from the same strings as the JSON list
    argv = ["surgery", "d", "--spec", trefoil_spec, "--pq", "53,4"]
    want = niwu_d(53, 4, (1, 0))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [f"[{s}] d = {v}" for s, v in enumerate(want)]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert parse_json(out)["d"] == [str(v) for v in want]


def test_surgery_d_involutive(capsys, trefoil_spec):
    code, out, _ = run(capsys, "surgery", "d", "--spec", trefoil_spec, "--pq", "1,1", "--involutive")
    assert code == 0
    assert out.strip() == "[0] d_lower = -2, d_upper = -2"


def test_surgery_d_requires_vseq(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"base": {"type": "custom", "v_lower": 1, "v_upper": 0}, "stages": []}))
    code, _, err = run(capsys, "surgery", "d", "--spec", str(path), "--pq", "3,2")
    assert code == 2
    assert "v_seq" in err
    code, _, err = run(capsys, "surgery", "d", "--spec", str(path), "--pq", "3,2", "--involutive")
    assert code == 2
    assert "v_seq" in err


def test_complex_d_fixture(capsys, tmp_path):
    path = tmp_path / "f8.json"
    dump_complex(figure_eight_complex(), str(path))
    code, out, _ = run(capsys, "complex", "d", str(path))
    assert code == 0
    assert out.splitlines() == ["d       = 0", "d_lower = -2", "d_upper = 0"]
    code, out, _ = run(capsys, "complex", "d", str(path), "--json")
    data = parse_json(out)
    assert (data["d"], data["d_lower"], data["d_upper"]) == ("0", "-2", "0")


def test_complex_validate_fixture(capsys, tmp_path):
    path = tmp_path / "f8.json"
    dump_complex(figure_eight_complex(), str(path))
    code, out, _ = run(capsys, "complex", "validate", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "valid"


def test_complex_rejects_broken_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "generators": [{"name": "a", "grading": "0"}, {"name": "b", "grading": "1"}],
                "differential": {"b": [{"gen": "a", "upow": 1}]},
                "iota": {"a": [{"gen": "a", "upow": 0}], "b": [{"gen": "b", "upow": 0}]},
            }
        )
    )
    code, _, err = run(capsys, "complex", "d", str(path))
    assert code == 2
    assert "degree" in err

    code, out, _ = run(capsys, "complex", "validate", str(path))
    assert code == 2
    assert "FAIL: differential-degree" in out
    assert out.splitlines()[-1] == "invalid"

    path.write_text("{not json")
    code, _, err = run(capsys, "complex", "d", str(path))
    assert code == 2


def test_complex_with_a_non_string_generator_is_a_data_error(capsys, tmp_path):
    # a list in a term is unhashable, so it once escaped as a TypeError
    # (exit 3); a non-string name was once turned into a string
    path = tmp_path / "bad.json"
    for gen in (["a"], {"a": 1}, 1, None):
        for name, term in ((gen, "a"), ("a", gen)):
            path.write_text(json.dumps({"generators": [{"name": name, "grading": "0"}],
                                        "iota": {"a": [{"gen": term, "upow": 0}]}}))
            for sub in ("d", "validate"):
                code, _, err = run(capsys, "complex", sub, str(path))
                assert code == 2, (name, term, sub)
                assert "bad generator" in err and "Traceback" not in err


def test_complex_past_the_generator_limit_is_refused_before_any_reduction(capsys, tmp_path, monkeypatch):
    path = tmp_path / "big.json"
    dump_complex(figure_eight_complex(), str(path))  # 3 generators
    monkeypatch.setattr(iota, "MAX_GENERATORS", 2)
    monkeypatch.setattr(iota, "_columns", None)  # no columns, so no complex, may be built
    for sub in ("d", "validate"):
        code, out, err = run(capsys, "complex", sub, str(path))
        assert code == 2 and out == ""
        assert err.strip() == "error: 3 generators exceed the complex-file limit of 2"
    monkeypatch.undo()
    monkeypatch.setattr(iota, "MAX_GENERATORS", 3)
    assert len(iota.load_complex(str(path)).complex.generators) == 3


def test_numbers_too_long_to_read_or_write_are_data_errors(capsys, tmp_path):
    # json.load refuses an integer of more than 4300 digits with a plain
    # ValueError, and a grading of 1e5000 loads but cannot be written back
    # by str: each once escaped as an internal error (exit 3) with a traceback
    long = "9" * 5000
    spec = tmp_path / "spec.json"
    spec.write_text('{"base": {"type": "custom", "v_lower": %s, "v_upper": 0}, "stages": []}' % long)
    cx = tmp_path / "cx.json"
    cx.write_text('{"generators": [{"name": "x", "grading": "0"}], "iota": {"x": [{"gen": "x", "upow": %s}]}}'
                  % long)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"generators": [{"name": "x", "grading": "1e5000"}],
                                "iota": {"x": [{"gen": "x", "upow": 0}]}}))
    cases = [(("cable", "v0", "--spec", str(spec)), "not valid JSON"),
             (("complex", "d", str(cx)), "not valid JSON"), (("complex", "validate", str(cx)), "not valid JSON"),
             (("complex", "d", str(huge)), "bad generator entry")]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err and "Traceback" not in err, argv


def test_verify_identity13_cli(capsys):
    code, out, _ = run(capsys, "verify", "identity13", "--max", "15")
    assert code == 0
    assert out.startswith("verify identity13: ok (17 checked")


def test_verify_engine_cli_json(capsys):
    code, out, _ = run(capsys, "verify", "engine", "--n", "4", "--seed", "2", "--json")
    assert code == 0
    data = parse_json(out)
    assert data["ok"] is True
    assert data["name"] == "engine"
    assert any("seed 2" in note for note in data["notes"])


def test_optimized_interpreter_gives_the_same_payloads(capsys, tmp_path):
    # internal checks must survive python -O, which strips assert statements
    path = tmp_path / "f8.json"
    dump_complex(figure_eight_complex(), str(path))
    # d c = U b with iota(c) = c + a: d_upper = 2 lies above d = 0
    upper = tmp_path / "dual_model.json"
    upper.write_text(json.dumps({
        "generators": [{"name": "a", "grading": "0"}, {"name": "b", "grading": "1"},
                       {"name": "c", "grading": "0"}],
        "differential": {"c": [{"gen": "b", "upow": 1}]},
        "iota": {"a": [{"gen": "a", "upow": 0}], "b": [{"gen": "b", "upow": 0}],
                 "c": [{"gen": "c", "upow": 0}, {"gen": "a", "upow": 0}]},
    }))
    src = str(Path(cablecalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    payloads = []
    for argv in (["verify", "engine", "--n", "4", "--json"], ["complex", "d", str(path), "--json"],
                 ["complex", "d", str(upper), "--json"]):
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-O", "-m", "cablecalc.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert code == 0
        payloads.append(parse_json(out))
    assert (payloads[2]["d"], payloads[2]["d_lower"], payloads[2]["d_upper"]) == ("0", "0", "2")


def test_verify_rejects_bad_max(capsys):
    code, _, err = run(capsys, "verify", "identity13", "--max", "2")
    assert code == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "torus", "vs", "2", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "V(T(2,3)) = [1, 0]"


def test_spec_that_is_not_utf8_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"base": "\xe9"}')
    code, _, err = run(capsys, "cable", "v0", "--spec", str(path))
    assert code == 2
    assert "not valid JSON" in err
    assert run(capsys, "complex", "d", str(path))[0] == 2


def test_library_bug_exits_internal(capsys, monkeypatch):
    # a ValueError raised inside the library is a bug, not bad input
    def broken(p, q):
        raise ValueError("broken invariant")

    monkeypatch.setattr("cablecalc.cli._lens_halves", broken)
    code, out, err = run(capsys, "lens", "d", "3", "5")
    assert code == 3
    assert out == ""
    assert "ValueError: broken invariant" in err


def test_memory_error_is_a_data_error(capsys, monkeypatch):
    # an input too large for available memory is refused, not a bug
    def exhausted(p, q):
        raise MemoryError

    monkeypatch.setattr("cablecalc.cli._lens_halves", exhausted)
    code, out, err = run(capsys, "lens", "d", "3", "5")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: input too large for available memory"


def test_a_genus_too_large_to_index_is_a_data_error(capsys, tmp_path):
    # 2g past sys.maxsize: bytearray(2 * g) raised OverflowError, an internal
    # error (exit 3) with a traceback; the pattern's torus_vs of a cable
    # stage makes the same array
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": {"type": "custom", "v_lower": 1, "v_upper": 0},
                                "stages": [[3, 100000000000000000000001]]}))
    cases = [("torus", "vs", "10000000019", "10000000033"), ("cable", "v0", "--spec", str(spec)),
             ("bounds", "--spec", str(spec), "--stage", "3,5"),
             ("surgery", "d", "--spec", str(spec), "--pq", "5,1", "--involutive")]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "is too large" in err and "Traceback" not in err, argv


def test_an_answer_past_the_digit_limit_is_a_data_error(capsys, tmp_path, monkeypatch):
    # a v_lower of 4300 nines is accepted, and the stage [3, 2] makes it
    # 10^4300; L(P, 3) with P = 10^3000 + 1 parses, and its d-invariant's
    # numerator passes the limit.  str of either raised ValueError, an
    # internal error (exit 3) with a traceback
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": {"type": "custom", "v_lower": int("9" * 4300), "v_upper": 0},
                                "stages": [[3, 2]]}))
    cases = [("cable", "v0", "--spec", str(spec)), ("bounds", "--spec", str(spec), "--stage", "3,5"),
             ("surgery", "d", "--spec", str(spec), "--pq", "5,1", "--involutive"),
             ("lens", "d", "1" + "0" * 2999 + "1", "3", "--spinc", "0")]
    for argv in cases:
        for mode in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *mode)
            assert code == 2 and out == "", (argv, mode)
            assert err.count("\n") == 1 and err.startswith("error: ") and "digit limit" in err, (argv, mode)
            assert f"({sys.get_int_max_str_digits()} digits)" in err and "Traceback" not in err, (argv, mode)
    # any other ValueError is still a bug
    monkeypatch.setattr(cli, "torus_vs", lambda p, q: int("seven"))
    code, out, err = run(capsys, "torus", "vs", "2", "3")
    assert code == 3 and out == "" and "Traceback" in err and "ValueError" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "lens", "d", "3", "5", "--frobnicate")
    assert code == 1
    assert "error" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "lens")[0] == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_label_vector_over_limit_is_refused_before_allocating(capsys, trefoil_spec):
    for argv in (["lens", "d", "100000007", "2"],
                 ["surgery", "d", "--spec", trefoil_spec, "--pq", "100000007,1"]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert out == ""
        assert f"p = 100000007 exceeds the label-vector limit of {MAX_VECTOR_LABELS}" in err
        assert peak < 2**20, (argv, peak)


def test_json_payload_is_written_without_holding_its_text(capsys, tmp_path):
    # 100000 labels make 1.6 MB of JSON text, and json.dumps held a list of
    # 200000 pieces besides; _emit writes the pieces as they are made, with
    # the same bytes on stdout (which capsys keeps whole)
    payload = {"schema": "test", "d": [f"-{i}/4" for i in range(100000)]}
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit(argparse.Namespace(json=True, out=str(path)), iter(()), payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak
    assert path.read_text(encoding="utf-8") == expected
    cli._emit(argparse.Namespace(json=True, out=None), iter(()), payload)
    assert capsys.readouterr().out == expected


def test_single_label_past_the_vector_limit(capsys):
    code, out, _ = run(capsys, "lens", "d", "1000003", "2", "--spinc", "5")
    assert code == 0
    assert out.strip() == f"d(L(1000003,2), [5]) = {lens_d(1000003, 2, 5)}"


def _call(capsys, argv, out_path):
    """Exit code, stdout, stderr and --out bytes (None when not written)."""
    if out_path.exists():
        out_path.unlink()
    code = main(argv)
    captured = capsys.readouterr()
    written = out_path.read_bytes() if out_path.exists() else None
    return code, captured.out, captured.err, written


def test_reused_parser_matches_a_fresh_parser(capsys, monkeypatch, tmp_path, trefoil_spec):
    # flags of one call must not leak into the next through the shared parser
    out = str(tmp_path / "out")
    first = ["lens", "d", "3", "5", "--spinc", "2"]
    bounds = ["bounds", "--spec", trefoil_spec, "--stage", "3,2"]
    surgery = ["surgery", "d", "--spec", trefoil_spec, "--pq", "3,2"]
    sequence = [
        first,
        ["lens", "d", "3", "5"],
        ["lens", "d", "3", "5", "--json", "--out", out],
        bounds + ["--g4-parity", "odd"],
        bounds,
        bounds + ["--json", "--out", out],
        surgery + ["--involutive"],
        surgery,
        surgery + ["--json", "--out", out],
        ["lens", "d", "3", "5", "--frobnicate"],
        ["--help"],
        first,
    ]
    reused = [_call(capsys, argv, tmp_path / "out") for argv in sequence]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_call(capsys, argv, tmp_path / "out") for argv in sequence]
    assert reused == fresh
    assert [r[0] for r in reused] == [0] * 9 + [1, 0, 0]
    assert len(reused[1][1].splitlines()) == 3
    assert parse_json(reused[2][3])["d"] == ["1/6", "1/6", "-1/2"]
    assert "involutive-lower-parity" in reused[3][1]
    assert "involutive-lower-parity" not in reused[4][1]
    assert reused[7][1].splitlines() == ["[0] d = -11/6", "[1] d = -11/6", "[2] d = -1/2"]
    assert parse_json(reused[8][3])["involutive"] is False
    assert reused[-1] == reused[0]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser()
    per_tree = len(built)
    built.clear()
    cli._parser.cache_clear()
    for _ in range(5):
        assert main(["lens", "d", "3", "5", "--spinc", "2"]) == 0
        assert main(["torus", "vs", "2", "3", "--json"]) == 0
        assert main(["lens", "d", "3", "5", "--frobnicate"]) == 1
    capsys.readouterr()
    assert per_tree > 1
    assert len(built) == per_tree
