#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced, never 0 and with its unscaled host
time alongside; that the output checkers flag a wrong expected value or a
flipped field (the corruption is fed to the checker; the program is not
patched); and that the same seed gives the same digest twice.  Exit code 0
when all checks hold.
"""

from __future__ import annotations

import dataclasses
import sys

import run

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def tiny_random(sweeps):
    return tuple(dataclasses.replace(s, samples=50) for s in sweeps)


def check_metric_names(bench) -> None:
    # Names embed the sweeps' widths, so the exhaustive sweeps keep theirs.
    sizes = dataclasses.replace(bench.FULL, random=tiny_random(bench.RANDOM), pool_dots=4,
                                batch_dots=2, setup_repeats=1, micro_s=0.001)
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            check_record(run.measure(workload, 1, 0, trace, sizes), workload, trace)


def check_record(record: dict, workload: str, trace: bool) -> None:
    result = record["result"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(emitted == run.declared_metrics(trace),
           f"{workload} trace={int(trace)}: metrics and units match BENCHMARK.json")
    zeros = [k for k, m in result["metrics"].items() if m["value"] == 0]
    expect(not zeros, f"{workload} trace={int(trace)}: no metric is 0 {zeros}")
    timed = {k for k, m in result["metrics"].items()
             if m["unit"] in ("s", "ms", "us", "1/s", "Mcase/s")}
    expect(timed <= set(record["host"]),
           f"{workload} trace={int(trace)}: every timing also given as host time")
    if trace:
        expect(bool(record["spans"]) and all(span["calls"] > 0 for span in record["spans"].values()),
               f"{workload} trace=1: {len(record['spans'])} span names recorded")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} trace={int(trace)}: correct, {result['attempted']} attempted")
    named = {"failed_frac"}
    if not trace:
        named |= {"setup_s", "peak_rss_mb"} | ({"verify_mcase_s"} if workload != "mac-dot"
                                                else {"mac_per_s", "dot_us_p50", "dot_us_p99"})
    expect(named <= set(record["summary"]), f"{workload} trace={int(trace)}: summary names")


def check_sweep_checker(bench) -> None:
    from cxrns import sweeps

    for s, seed in ((bench.Sweep("multiplier", 2, "exhaustive"), 0),
                    (bench.Sweep("adder", 3, "random", 40), 9)):
        report = sweeps.run_verify(s.unit, s.n, mode=s.mode, samples=s.samples, seed=seed).to_dict()
        expect(not bench.check_report(s, seed, report), f"{s.name}: true report passes")
        corruptions = {
            "one case short": {"cases": report["cases"] - 1},
            "a failure": {"failures": 1},
            "a counterexample": {"counterexample": {"x": 1}},
            "another unit": {"unit": "compressor"},
            "another width": {"n": s.n + 1},
        }
        if s.mode == "random":
            corruptions["another seed"] = {"seed": seed + 1}
        for what, change in corruptions.items():
            bad = {**report, **change}
            flagged = bool(bench.check_report(s, seed, bad)) and bench.report_failures(s, bad) > 0
            expect(flagged, f"{s.name}: report with {what} is flagged")
        wrong = dataclasses.replace(s, samples=s.samples + 1) if s.mode == "random" else \
            bench.Sweep(s.unit, s.n + 1, s.mode)
        expect(bool(bench.check_report(wrong, seed, report)),
               f"{s.name}: a wrong expected case count is flagged")


def check_mac_checker(bench) -> None:
    def flip_mul_borrow(name, fn):
        def flipped(*args):
            out = fn(*args)
            return dataclasses.replace(out, borrow=out.borrow ^ 1)
        return flipped if name == "alu.mul" else fn

    def same_value_other_form(name, fn):
        """mul results re-expressed as (r + 1, borrow 1): same value, other fields."""
        def other(*args):
            out = fn(*args)
            if out.borrow == 0 and out.r + 1 < (1 << bench.MAC_N):
                return dataclasses.replace(out, r=out.r + 1, borrow=1)
            return out
        return other if name == "alu.mul" else fn

    mac = bench.MacSet.build()
    pool = bench.mac_pool(5, 4, mac.dr)
    a, b = pool[0]
    got = bench.dot(mac, mac.lib, a, b)
    expect(got == bench.expected_dot(a, b, mac.dr), "mac-dot: true dot product passes")
    expect(got != bench.expected_dot(*pool[1], mac.dr), "mac-dot: a wrong expected value is flagged")
    flipped = bench.dot(mac, bench.bind(flip_mul_borrow), a, b)
    expect(flipped != bench.expected_dot(a, b, mac.dr), "mac-dot: a flipped borrow field is flagged")
    values_hold = all(bench.dot(mac, bench.bind(same_value_other_form), x, y)
                      == bench.expected_dot(x, y, mac.dr) for x, y in pool)
    expect(values_hold and bench.mac_digest(mac, pool, same_value_other_form)
           != bench.mac_digest(mac, pool),
           "mac-dot: a value-preserving change of field form keeps results, changes digest")
    g = (1 << (2 * bench.MAC_N)) + 1
    special = [x % g in (0, g - 1) for x in pool[0][0] + pool[0][1]]
    expect(sum(special) == len(special) // 8, "mac-dot: 1/8 of operands are == 0 or == 2^2n")


def check_digests(bench) -> None:
    sizes = bench.Sizes(exhaustive=tuple(bench.Sweep(s.unit, 2, s.mode) for s in bench.EXHAUSTIVE),
                        random=tiny_random(bench.RANDOM), pool_dots=4, batch_dots=2)
    for workload in bench.WORKLOADS:
        digests = [bench.run(bench.setup(workload), seed, 0, sizes).digest for seed in (3, 3, 4)]
        expect(digests[0] == digests[1], f"{workload}: same seed, same digest")
        if workload != "sweep-exhaustive":
            expect(digests[0] != digests[2], f"{workload}: another seed, another digest")


def main() -> int:
    run.check_tree()
    sys.path.insert(0, str(run.SRC))
    import bench

    check_sweep_checker(bench)
    check_mac_checker(bench)
    check_digests(bench)
    check_metric_names(bench)
    print(f"{len(failures)} failed" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
