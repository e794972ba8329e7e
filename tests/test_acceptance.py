"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All correctness criteria demand zero failures; the
dynamic-range criterion demands exact integer matches (tolerance 0).
"""

import pytest

from cxrns import cli, forward, reverse, sweeps
from cxrns.core import f_set, moduli_set_build

SEED = 20260809
RANDOM_CASES = 1_000_000


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_adder_correctness():
    reports = [sweeps.run_verify("adder", n) for n in (2, 3)]
    reports += [sweeps.run_verify("adder", n, mode="random",
                                  samples=RANDOM_CASES, seed=SEED)
                for n in (4, 5)]
    assert reports[0].cases == 17 * 64
    assert reports[1].cases == 65 * 256
    assert all(r.cases >= RANDOM_CASES for r in reports[2:])
    failures = sum(r.failures for r in reports)
    detail = "; ".join(f"n={r.n} {r.mode} cases={r.cases}" for r in reports)
    _line("adder-correctness", failures == 0, detail + f"; failures={failures}")


def test_multiplier_correctness():
    reports = [sweeps.run_verify("multiplier", n) for n in (2, 3, 4, 5)]
    expected_cases = [((1 << (2 * n)) + 1) ** 2 for n in (2, 3, 4, 5)]
    assert [r.cases for r in reports] == expected_cases
    assert reports[-1].cases == 1_050_625
    failures = sum(r.failures for r in reports)
    detail = "; ".join(f"n={r.n} cases={r.cases}" for r in reports)
    _line("multiplier-correctness", failures == 0, detail + f"; failures={failures}")


def test_product_checkpoint():
    # pre-reduction (R, I) identity on the same widths, all nonzero pairs
    reports = [sweeps.run_verify("checkpoint", n) for n in (2, 3, 4, 5)]
    assert [r.cases for r in reports] == [(1 << (2 * n)) ** 2 for n in (2, 3, 4, 5)]
    failures = sum(r.failures for r in reports)
    detail = "; ".join(f"n={r.n} cases={r.cases}" for r in reports)
    _line("product-checkpoint", failures == 0, detail + f"; failures={failures}")


def test_forward_ncrt_round_trip():
    r2 = sweeps.run_verify("roundtrip", 2)
    r3 = sweeps.run_verify("roundtrip", 3)
    assert r2.cases == 1020
    assert r3.cases == 32_760
    assert moduli_set_build(f_set(5)).dynamic_range == (1 << 5) * ((1 << 20) - 1)
    r5 = sweeps.run_verify("roundtrip", 5, mode="random",
                           samples=RANDOM_CASES, seed=SEED)
    assert r5.cases >= RANDOM_CASES
    failures = r2.failures + r3.failures + r5.failures
    detail = (f"n=2 exhaustive M={r2.cases}; n=3 exhaustive M={r3.cases}; "
              f"n=5 random cases={r5.cases}")
    _line("forward-ncrt-round-trip", failures == 0, detail + f"; failures={failures}")


def test_wide_input_converter():
    f2 = sweeps.run_verify("forward", 2)
    f3 = sweeps.run_verify("forward", 3)
    assert f2.cases == 1020 and f3.cases == 32_760
    csa = sweeps.run_verify("csa", 2)
    assert csa.cases == 1 << 10
    failures = f2.failures + f3.failures + csa.failures
    detail = (f"forward n=2 cases={f2.cases}; forward n=3 cases={f3.cases}; "
              f"csa n=2 cases={csa.cases}")
    _line("wide-input-converter", failures == 0, detail + f"; failures={failures}")


DR_TABLE = [
    # replacement-study sets; non-co-prime ones still carry their table product
    ("31,32,63", 62_496, True),
    ("7,9,16,g3", 65_520, True),
    ("15,64,g3", 62_400, False),
    ("63,64,65", 262_080, True),
    ("7,9,16,g4", 259_056, True),
    ("15,128,g4", 493_440, True),
    ("8,63,127", 64_008, True),
    ("15,128,g3", 124_800, False),
    ("3,5,7,11,13,16,17,19,23", 1_784_742_960, True),
    ("63,65,128,g6", 2_147_483_520, True),
    ("15,31,1024,g6", 1_950_827_520, True),
    ("32,31,33,29,35", 33_227_040, True),
    ("31,32,33,g5", 33_554_400, True),
    ("15,31,128,g5", 61_008_000, False),
    ("512,511,513", 134_217_216, True),
    ("31,32,33,g6", 134_119_392, True),
    ("15,31,128,g6", 243_853_440, True),
    ("31,128,511", 2_027_648, True),
    ("15,17,32,g4", 2_097_120, True),
    ("15,31,32,g4", 3_824_160, True),
    ("4096,31,33,g5", 4_294_963_200, True),  # the paper's 32-bit set: 2^32 - 2^12
]


def test_dynamic_range_reproduction():
    mismatches = []
    for text, expected, coprime in DR_TABLE:
        report = cli.dr_report(text)
        if report.dynamic_range != expected or report.coprime != coprime:
            mismatches.append((text, report.dynamic_range, expected))
    _line("dynamic-range-reproduction", not mismatches,
          f"{len(DR_TABLE)} sets, exact match, tolerance 0"
          + (f"; mismatches={mismatches}" if mismatches else ""))


def test_paper_32_bit_moduli_set(capsys):
    # The abstract's n = 5 set with a 12-bit power-of-two channel,
    # {2^12, 31, 33, 2^5 -+ j}, covers 2^32 - 2^12 values: 2^12 short of 2^32.
    mset = moduli_set_build(cli.parse_set("4096,31,33,g5"))
    plan = reverse.ncrt_plan(mset)
    assert mset.dynamic_range == (1 << 32) - (1 << 12)
    values = [0, 1 << 31, 4_000_000_000, mset.dynamic_range - 1]
    back = [reverse.ncrt_reverse(forward.forward_std(z, mset), plan) for z in values]
    assert cli.main(["convert", "--set", "4096,31,33,g5", "--forward", "4000000000"]) == 0
    out = capsys.readouterr().out
    _line("paper-32-bit-set", back == values and "-> [2048, 2, 7, 25]" in out,
          f"range {mset.dynamic_range:,}; round trips of {values}; convert printed {out.strip()!r}")


def test_synthesis_metrics_excluded():
    # Delay/area/power/PDP need an FPGA toolchain and are out of scope; the
    # reports carry only value-domain data plus descriptive stage depths.
    report = cli.dr_report("f:n=5")
    fields = set(report.to_dict())
    assert not fields & {"delay", "area", "power", "pdp"}
    assert fields == {"set", "channels", "dynamic_range", "bit_coverage",
                      "max_channel_width", "coprime", "stage_levels"}
    _line("synthesis-metrics-excluded", True,
          "delay/area/power/PDP not modeled; property sweeps substitute")


@pytest.mark.parametrize("n", [2, 3])
def test_pure_backend_passes_key_criteria(n):
    # the fallback path must satisfy the same contracts as the compiled one
    mul_report = sweeps.run_verify("multiplier", n, force_pure=True)
    add_report = sweeps.run_verify("adder", n, force_pure=True)
    assert mul_report.failures == 0 and add_report.failures == 0
