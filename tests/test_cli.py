"""Command-line interface: grammar, subcommands, exit codes, JSON stability."""

import json

import pytest

from cxrns import cli, sweeps
from cxrns.core import GaussianPair, IntModulus, PowerOfTwo, f_set
from cxrns.reporting import VerifyReport, dumps_report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- set grammar -----------------------------------------------------------------

def test_parse_set_grammar():
    assert cli.parse_set("31,32,63") == (IntModulus(31), PowerOfTwo(5), IntModulus(63))
    assert cli.parse_set("7,9,16,g3") == (IntModulus(7), IntModulus(9),
                                          PowerOfTwo(4), GaussianPair(3))
    assert cli.parse_set("2^7,15") == (PowerOfTwo(7), IntModulus(15))
    assert cli.parse_set("f:n=2") == (PowerOfTwo(2), IntModulus(3),
                                      IntModulus(5), GaussianPair(2))
    assert cli.parse_set("f:n=3,p=2") == (PowerOfTwo(5), IntModulus(7),
                                          IntModulus(9), GaussianPair(3))


def test_paper_32_bit_set_by_name(capsys):
    # f:n=5,p=7 names the paper's 32-bit set, 4096,31,33,g5.
    assert cli.parse_set("f:n=5,p=7") == cli.parse_set("4096,31,33,g5") == f_set(5, 7)
    code, out, _ = run_cli(capsys, "convert", "--set", "f:n=5,p=7", "--forward", "4000000000")
    assert code == 0
    assert "[2048, 2, 7, 25]" in out


def test_parse_set_errors():
    for bad in ("", "12", "gx", "f:p=1", "f:n=1", "2^0", "15,,16", "f:n=2,n=3",
                "f:n=5,p=7,p=0"):
        with pytest.raises(ValueError):
            cli.parse_set(bad)


# --- convert ----------------------------------------------------------------------

def test_convert_forward_example(capsys):
    code, out, _ = run_cli(capsys, "convert", "--set", "f:n=2", "--forward", "100")
    assert code == 0
    assert "[0, 1, 0, 15]" in out


def test_convert_reverse_example(capsys):
    code, out, _ = run_cli(capsys, "convert", "--set", "f:n=2", "--reverse", "0,1,0,15")
    assert code == 0
    assert out.strip() == "100"


def test_convert_forward_zero(capsys):
    code, out, _ = run_cli(capsys, "convert", "--set", "f:n=2", "--forward", "0")
    assert code == 0
    assert "[0, 0, 0, 0]" in out


def test_convert_round_trips_through_cli(capsys):
    code, out, _ = run_cli(capsys, "convert", "--set", "7,9,16,g3", "--forward", "54321",
                           "--json")
    assert code == 0
    residues = json.loads(out)["residues"]
    code, out, _ = run_cli(capsys, "convert", "--set", "7,9,16,g3",
                           "--reverse", ",".join(str(r) for r in residues))
    assert code == 0
    assert out.strip() == "54321"


def test_convert_range_violation_names_channel(capsys):
    code, _, err = run_cli(capsys, "convert", "--set", "f:n=2", "--reverse", "0,9,0,15")
    assert code == 2
    assert "channel 1" in err and "3" in err


def test_convert_rejects_value_beyond_range(capsys):
    code, _, err = run_cli(capsys, "convert", "--set", "f:n=2", "--forward", "1020")
    assert code == 2
    assert "dynamic range" in err


def test_convert_rejects_non_coprime_set(capsys):
    code, _, err = run_cli(capsys, "convert", "--set", "15,64,g3", "--forward", "5")
    assert code == 2
    assert "factor 5" in err


# --- op ---------------------------------------------------------------------------

def test_op_mul_example(capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "3", "5", "--n", "2")
    assert code == 0
    assert "value:  15" in out and "oracle: 15" in out and "match" in out


def test_op_add_zero_identity(capsys):
    code, out, _ = run_cli(capsys, "op", "add", "0", "7", "--n", "2")
    assert code == 0
    assert "value:  7" in out


def test_op_mul_wraparound(capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "16", "16", "--n", "2")
    assert code == 0
    assert "value:  1" in out


def test_op_trace_shows_stages(capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "16", "16", "--n", "2", "--trace")
    assert code == 0
    for label in ("lut partial products", "(4;2) compressors", "carry-save adders"):
        assert label in out


def test_op_json_cross_checks(capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "123", "456", "--n", "5", "--json",
                           "--trace")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["value"] == doc["oracle"] == (123 * 456) % 1025
    assert set(doc["result"]) == {"r", "borrow", "i", "carry"}
    assert "partials" in doc["trace"]


def test_op_trace_json_document_is_pinned(capsys):
    # 16 = 2^2n at n=2 routes to xr = xi = 3, which sets the partial-product
    # carry c; 16 * 16 wraps to 1 modulo 17.
    code, out, _ = run_cli(capsys, "op", "mul", "16", "16", "--n", "2", "--trace", "--json")
    assert code == 0
    want = {
        "op": "mul", "n": 2, "x": 16, "y": 16,
        "result": {"r": 2, "borrow": 0, "i": 3, "carry": 1},
        "value": 1, "oracle": 1, "match": True,
        "trace": {
            "partials": {"c": 1, "h_rr": 0, "l_rr": 0, "h_ri": 3, "l_ri": 0,
                         "h_ir": 3, "l_ir": 0, "h_ii": 2, "l_ii": 1},
            "real_stage": {"u": 2, "v": 0, "c_out": 0, "v_out": 0},
            "imag_stage": {"u": 1, "v": 0, "c_out": 0, "v_out": 0},
            "real_rows": [2, 3],
            "imag_rows": [3, 0],
        },
    }
    assert out == dumps_report(want) + "\n"  # key order and layout included


def test_op_trace_on_the_zero_path_says_there_is_none(capsys):
    # A zero flag gates the product to canonical zero before any stage runs.
    code, out, _ = run_cli(capsys, "op", "mul", "0", "5", "--n", "2", "--trace")
    assert code == 0
    assert out.splitlines()[-1] == "  no trace: a zero operand bypasses the multiplier pipeline"
    code, out, _ = run_cli(capsys, "op", "mul", "0", "5", "--n", "2", "--trace", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"] is None and doc["value"] == doc["oracle"] == 0


def test_op_trace_rejected_for_add(capsys):
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "op", "add", "1", "2", "--n", "2", "--trace", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--trace" in err


def test_op_rejects_out_of_range_operand(capsys):
    code, _, err = run_cli(capsys, "op", "mul", "18", "1", "--n", "2")
    assert code == 2
    assert "outside" in err


# --- verify -----------------------------------------------------------------------

def test_verify_multiplier_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "multiplier", "--n", "3")
    assert code == 0
    assert "cases=4225" in out and "failures=0" in out


def test_verify_roundtrip_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "roundtrip", "--n", "2")
    assert code == 0
    assert "cases=1020" in out


def test_verify_random_mode_reports_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "adder", "--n", "5", "--random",
                           "--samples", "2000", "--seed", "77", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 77
    assert doc["cases"] == 2000
    assert doc["failures"] == 0
    assert doc["mode"] == "random"


def test_verify_json_schema_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "multiplier", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["unit", "n", "mode", "cases", "failures", "backend", "wall_time_s"]
    assert doc["backend"] == ("compiled" if sweeps.compiled_available() else "pure")
    # parsing and re-emitting is byte-identical
    assert dumps_report(doc) == out.strip()


def test_verify_json_names_p(capsys):
    # A p = 2 sweep covers another case space than p = 0, so its report says so.
    code, out, _ = run_cli(capsys, "verify", "roundtrip", "--n", "3", "--p", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 2
    assert (doc["cases"], doc["failures"]) == (((1 << 12) - 1) << 5, 0)


def test_verify_text_line_names_p(capsys):
    # The text line names p too, where it is not 0; a p = 0 line keeps its shape.
    code, out, _ = run_cli(capsys, "verify", "roundtrip", "--n", "3", "--p", "2")
    assert code == 0
    assert out.startswith(f"verify roundtrip n=3 p=2 exhaustive: cases={((1 << 12) - 1) << 5} ")
    code, out, _ = run_cli(capsys, "verify", "roundtrip", "--n", "3")
    assert code == 0
    assert out.startswith("verify roundtrip n=3 exhaustive: cases=32760 ")


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerifyReport(unit="adder", n=2, p=0, mode="exhaustive", cases=10, failures=1,
                           backend="pure", counterexample={"x": 1}, wall_time_s=0.0)
    monkeypatch.setattr(cli.sweeps, "run_verify", lambda *a, **kw: failing)
    code, out, _ = run_cli(capsys, "verify", "adder", "--n", "2")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_verify_workers_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "multiplier", "--n", "2",
                           "--workers", "2")
    assert code == 0
    assert "failures=0" in out


@pytest.mark.parametrize("unit,gate", [("forward", 12), ("roundtrip", 10),
                                       ("checkpoint", 30)])
def test_verify_names_the_backend_that_ran(capsys, unit, gate):
    # Past its kernel's width gate a unit sweeps in pure Python.
    inside = "[compiled]" if sweeps.compiled_available() else "[pure]"
    for n, label in ((gate, inside), (gate + 1, "[pure]")):
        code, out, _ = run_cli(capsys, "verify", unit, "--n", str(n), "--random",
                               "--samples", "200")
        assert code == 0
        assert label in out


@pytest.mark.skipif(not sweeps.compiled_available(), reason="no C compiler")
def test_verify_names_pure_for_a_spec_its_kernel_declines(monkeypatch, capsys):
    # The kernel decides, not the width: y one past the values the compiled
    # multiplier computes exactly makes it decline, so the sweep runs pure
    # (and finds the planted faults of y past 2^2n).
    spec = sweeps.UNITS["multiplier"]

    def build(params):
        (x, y), case = spec.build(params)
        return (x, y._replace(span=(1 << 2 * params.n + 1) + 1)), case

    monkeypatch.setitem(sweeps.UNITS, "multiplier", spec._replace(build=build))
    code, out, _ = run_cli(capsys, "verify", "multiplier", "--n", "3")
    assert code == 1
    assert "[pure] FAIL" in out


def test_only_verify_loads_the_kernels(monkeypatch, capsys):
    # Loading may mean building the whole library, tens of seconds on a cold
    # cache: commands that run no sweep must not pay for it.
    def refuse(*args):
        raise AssertionError("the kernels were loaded")

    monkeypatch.setattr(sweeps, "_C", sweeps._UNLOADED)
    monkeypatch.setattr(sweeps, "_load_kernels", refuse)
    for argv in (["dr", "31,32,63"], ["convert", "--set", "f:n=5", "--forward", "29999999"],
                 ["op", "mul", "7", "9", "--n", "3", "--trace"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    loads = []
    monkeypatch.setattr(sweeps, "_load_kernels", lambda: loads.append(1))
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "multiplier", "--n", "2")
        assert code == 0 and "[pure] ok" in out
    assert loads == [1]


@pytest.mark.parametrize("unit,cases", [("csa", 1024), ("checkpoint", 256)])
def test_verify_accepts_every_sweep_unit(capsys, unit, cases):
    code, out, _ = run_cli(capsys, "verify", unit, "--n", "2")
    assert code == 0
    assert f"cases={cases}" in out and "failures=0" in out


@pytest.mark.parametrize("argv", [
    ["verify", "adder", "--n", "2", "--exhaustive"],
    ["verify", "multiplier", "--n", "2", "--trace"],
    ["dr", "7,9,16", "--workers", "5"],
    ["dr", "7,9,16", "--trace"],
    ["dr", "7,9,16", "--seed", "3"],
    ["convert", "--set", "f:n=2", "--forward", "1", "--workers", "2"],
    ["op", "mul", "3", "5", "--n", "2", "--seed", "3"],
])
def test_options_belong_to_their_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--samples", "-5"], "samples"),
    (["--samples", "0"], "samples"),
    (["--seed", "-1"], "seed"),
    (["--seed", str(1 << 64)], "seed"),
    (["--workers", "0"], "workers"),
    (["--samples", str((1 << 64) + 5)], "samples"),  # wraps to 5 in a uint64
])
def test_verify_rejects_vacuous_or_out_of_range_sweeps(capsys, flags, message):
    code, out, err = run_cli(capsys, "verify", "adder", "--n", "2", "--random", "--json",
                             *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("unit", ["adder", "multiplier", "forward"])
def test_verify_p_rejected_unless_the_unit_reads_it(capsys, unit):
    for extra in ([], ["--random", "--samples", "10"]):
        code, out, err = run_cli(capsys, "verify", unit, "--n", "2", "--p", "2", "--json",
                                 *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "p" in err
    code, out, _ = run_cli(capsys, "verify", "roundtrip", "--n", "2", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out)["cases"] == 16 * 3 * 5 * 17


# --- dr ---------------------------------------------------------------------------

def test_dr_examples(capsys):
    code, out, _ = run_cli(capsys, "dr", "31,32,63")
    assert code == 0
    assert "62,496" in out
    code, out, _ = run_cli(capsys, "dr", "7,9,16,g3")
    assert "65,520" in out
    code, out, _ = run_cli(capsys, "dr", "15,128,g4")
    assert "493,440" in out


def test_dr_json_fields(capsys):
    code, out, _ = run_cli(capsys, "dr", "15,31,128,g6", "--json")
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["dynamic_range"] == 243_853_440
    assert docs[0]["bit_coverage"] == 27
    assert docs[0]["max_channel_width"] == 7
    assert docs[0]["coprime"] is True
    stages = [s["stage"] for s in docs[0]["stage_levels"]]
    assert "(4;2) compressors" in stages and "carry-save adders" in stages
    deltas = {s["stage"]: s["delta_g"] for s in docs[0]["stage_levels"]}
    assert deltas["(4;2) compressors"] == 6
    assert deltas["carry-save adders"] == 2


def test_dr_surfaces_coprimality_violation(capsys):
    code, out, _ = run_cli(capsys, "dr", "15,64,g3")
    assert code == 0  # report is still produced, with the violation called out
    assert "62,400" in out
    assert "factor 5" in out


def test_dr_comparison_table(capsys):
    code, out, _ = run_cli(capsys, "dr", "31,32,63", "7,9,16,g3", "15,64,g3")
    assert code == 0
    assert out.count("\n") >= 5
    for dr in ("62,496", "65,520", "62,400"):
        assert dr in out


def test_dr_bad_grammar_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dr", "12,foo")
    assert code == 2
    assert "error" in err


def test_big_numbers_emitted_as_strings():
    report = cli.dr_report("g27")
    doc = json.loads(report.to_json())
    assert isinstance(doc["dynamic_range"], str)
    assert int(doc["dynamic_range"]) == (1 << 54) + 1
    # and resist double conversion
    assert dumps_report(doc) == report.to_json()
