"""In-process A/B of two builds of the compiled sweep kernels.

Builds ``src/cxrns/_kernels.c`` at a git revision (the base, by default
HEAD) and from the working tree (the change), each as ``cxrns.sweeps``
builds it for its first sweep (same compiler, flags and export checks),
loads both libraries into this one process and times the benchmark's ten
sweeps (``perfbench/bench.py``'s EXHAUSTIVE and RANDOM plans) and six sweeps
no workload runs (NARROW), each with its own case count, on each.  Every
round times each sweep once on each library, the best of three calls,
alternating which library goes first.  One process and alternation keep
host drift and code placement of the Python side out of the comparison;
code placement inside each library stays in it, as it does for users.

It appends one record to ``BENCH_kernels.json`` (or ``--out``): per sweep
the cases per call, each side's median rate and quartiles in Mcase/s, the
ratio of the medians, the rounds the change won, and whether both sides
returned the same (failures, first failing index) on every call.

    python tools/kernel_ab.py                      # HEAD against the working tree
    python tools/kernel_ab.py --base HEAD~1 --rounds 15
    python tools/kernel_ab.py --base-lib a.so --change-lib b.so --rounds 1 --cases 1000

``--base-lib`` and ``--change-lib`` load libraries built elsewhere (say,
without ``-march=native``) instead of building.  Exits 1 when any call's
(failures, first) differs between the two sides, and with a one-line
message when a library does not load or lacks an export.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cxrns import sweeps  # noqa: E402
from cxrns.core import Params  # noqa: E402
from cxrns.oracle import case_count  # noqa: E402
from bench import EXHAUSTIVE, RANDOM, Sweep, sweep_seeds  # noqa: E402
from run import cpu_model  # noqa: E402

RANDOM_CASES = 2_000_000  # per call of a benchmark sweep, unless --cases says otherwise
CALLS = 3  # a timed sample is the best of this many calls
SEED = 1  # the random sweeps take the benchmark's seeds for --seed 1
# Sweeps that no benchmark workload runs, each with its cases per call (unless
# --cases says otherwise).  Random: below n = 8 the draws by the dynamic range
# 2^(n+p) (2^4n - 1) make more than two Mersenne chunks, and at n = 31 csa's
# check sum takes all 64 bits of mod_m's widest folded remainder.  Exhaustive:
# multiplier n = 7, all its cases, is the widest arm whose loop runs on 32-bit
# lanes, and n = 8, over its first 2^26 cases, the first on 64-bit lanes.
NARROW = (Sweep("roundtrip", 5, "random", RANDOM_CASES),
          Sweep("roundtrip", 7, "random", RANDOM_CASES),
          Sweep("forward", 5, "random", RANDOM_CASES), Sweep("csa", 31, "random", RANDOM_CASES),
          Sweep("multiplier", 7, "exhaustive", ((1 << 14) + 1) ** 2),
          Sweep("multiplier", 8, "exhaustive", 1 << 26))


def build(rev: str | None, cache: Path):
    """The kernels built from _kernels.c at git revision `rev` (None: the
    working tree) into `cache`, the way cxrns.sweeps builds its own."""
    if rev is None:
        source = sweeps._KERNELS_C
    else:
        text = subprocess.run(["git", "show", f"{rev}:src/cxrns/_kernels.c"], cwd=ROOT,
                              capture_output=True, check=True).stdout
        source = str(cache / "_kernels.c")
        Path(source).write_bytes(text)
    kernels = sweeps._load_kernels(str(cache), source)
    if kernels is None:
        raise SystemExit(f"building {source} failed")
    return kernels


def describe(kernels, rev: str | None) -> dict:
    path = Path(kernels._name)
    commit = None
    if rev is not None:
        commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    return {"rev": rev, "commit": commit, "library": path.name,
            "bytes": path.stat().st_size,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def sweep_call(kernels, unit: str, n: int, mode: str, seed: int, cases: int | None):
    """(call, cases): call() runs the sweep's first `cases` cases (its whole
    space, or RANDOM_CASES draws, when None) on `kernels` and returns
    (failures, first failing index)."""
    params = Params(n)
    fields, _ = sweeps.UNITS[unit].build(params)
    total = case_count(fields, mode, cases or RANDOM_CASES, seed)
    cases = min(cases or total, total)
    run = sweeps._kernel_run(kernels, unit, params, fields, mode, seed)
    if run is None:
        raise SystemExit(f"{kernels._name} declines {unit} n={n}")
    return functools.partial(run, 0, cases), cases


def timed(call, cases: int) -> tuple[float, tuple[int, int]]:
    """(best rate in Mcase/s over CALLS calls, the last call's result)."""
    best = float("inf")
    for _ in range(CALLS):
        start = perf_counter()
        result = call()
        best = min(best, perf_counter() - start)
    return cases / best / 1e6, result


def quartiles(rates: list[float]) -> dict:
    if len(rates) < 2:
        return {"median": rates[0], "q1": rates[0], "q3": rates[0]}
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(base, change, rounds: int, cases: int | None) -> dict:
    """Per-sweep rates of both libraries over `rounds` alternating rounds, each
    call `cases` cases long (None: each sweep's own count)."""
    seeds = dict(zip(RANDOM + NARROW, sweep_seeds(SEED, len(RANDOM + NARROW))))
    calls = {s.name: [sweep_call(lib, s.unit, s.n, s.mode, seeds.get(s, 0),
                                 cases or (s.samples if s in NARROW else None))
                      for lib in (base, change)] for s in EXHAUSTIVE + RANDOM + NARROW}
    rates = {name: ([], []) for name in calls}
    same = {name: True for name in calls}
    results = {}
    for r in range(rounds):
        for name, sides in calls.items():
            got = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                call, count = sides[side]
                rate, got[side] = timed(call, count)
                rates[name][side].append(rate)
            same[name] &= got[0] == got[1]
            results[name] = got[0]
    out = {}
    for name, (base_rates, change_rates) in rates.items():
        b, c = quartiles(base_rates), quartiles(change_rates)
        out[name] = {"cases": calls[name][0][1], "base_mcase_s": b, "change_mcase_s": c,
                     "ratio": c["median"] / b["median"],
                     "wins": sum(y > x for x, y in zip(base_rates, change_rates)),
                     "same_result": same[name], "result": list(results[name])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base build")
    parser.add_argument("--base-lib", help="load this library as the base instead of building")
    parser.add_argument("--change-lib", help="load this library as the change instead")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--cases", type=int, default=None,
                        help="cases per call (default: an exhaustive sweep's whole space, "
                             f"{RANDOM_CASES:,} random draws, a NARROW sweep's own count)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.cases is not None and args.cases < 1):
        parser.error("--rounds and --cases must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for name, rev, lib in (("base", args.base, args.base_lib),
                               ("change", None, args.change_lib)):
            if lib:
                try:
                    kernels, rev = sweeps._open(os.path.abspath(lib)), None
                except (OSError, AttributeError) as err:  # one line, no traceback
                    raise SystemExit(str(err))
            else:
                cache = Path(tmp) / name
                cache.mkdir()
                kernels = build(rev, cache)
            sides.append((kernels, describe(kernels, rev)))
        sweeps_out = compare(sides[0][0], sides[1][0], args.rounds, args.cases)
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "base": sides[0][1], "change": sides[1][1],
        "cpu": cpu_model(),
        "python": platform.python_version(), "rounds": args.rounds, "seed": SEED,
        "calls_per_sample": CALLS, "sweeps": sweeps_out,
    }
    out = Path(args.out)
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(record)
    out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"{'sweep':36} {'base':>8} {'change':>8} {'ratio':>6} {'wins':>5}  same")
    for name, s in sweeps_out.items():
        print(f"{name:36} {s['base_mcase_s']['median']:8.1f} {s['change_mcase_s']['median']:8.1f} "
              f"{s['ratio']:6.2f} {s['wins']:2}/{args.rounds:<2}  {s['same_result']}")
    return 0 if all(s["same_result"] for s in sweeps_out.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
