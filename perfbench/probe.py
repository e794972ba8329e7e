"""Per-layer probe of the traced run: the same for every workload.

It times each sweep of the benchmark once (and once more on the pure
backend when the compiled one is in use), the process-pool layer, the
CLI's own overhead around a sweep, and the library calls as µs per call.
Stage microtimings are for attribution only; no end-to-end metric rests
on them.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from time import perf_counter

from cxrns import alu, cli, forward, reverse, sweeps
from cxrns.core import Params, dim1_encode, f_set, moduli_set_build

from hostclock import HostClock
from bench import (
    MAC_N,
    SIGN,
    Outcome,
    Sizes,
    Sweep,
    expected_cases,
    splitmix64,
    sweep_seeds,
    tally,
)

# Units `cxrns verify` accepts, swept at the smallest width.
CLI_UNITS = ("adder", "multiplier", "forward", "roundtrip", "compressor", "normalize")
CLI_REPEATS = 3
MICRO_INPUTS = 64
MICRO_REPEATS = 3
STAGE_WIDTHS = (5, 16)


def _verify(out: Outcome, s: Sweep, seed: int, force_pure: bool = False,
            workers: int = 1) -> tuple[float, float]:
    """Run one checked sweep; returns its wall time in seconds, scaled and host."""
    clock = HostClock()
    t0 = perf_counter()
    report = sweeps.run_verify(s.unit, s.n, mode=s.mode, samples=s.samples,
                               seed=seed, workers=workers, force_pure=force_pure)
    t1 = perf_counter()
    tally(out, s, seed if s.mode == "random" else 0, report.to_dict())
    return clock.scale(t0, t1)


def probe_sweeps(sizes: Sizes, seed: int, out: Outcome) -> tuple[dict, dict, dict]:
    metrics: dict = {}
    host: dict = {}
    extras: dict = {}
    plan = sizes.exhaustive + sizes.random
    compiled = sweeps.backend_name() == "compiled"
    times = {}
    for s, sseed in zip(plan, sweep_seeds(seed, len(plan))):
        dt, dt_host = times[s] = _verify(out, s, sseed)
        metrics[f"{s.name}.mcase_s"] = (expected_cases(s) / dt / 1e6, "Mcase/s")
        host[f"{s.name}.mcase_s"] = expected_cases(s) / dt_host / 1e6
        if compiled:
            dt_pure, _ = _verify(out, s, sseed, force_pure=True)
            extras[f"{s.name}.pure_mcase_s"] = (expected_cases(s) / dt_pure / 1e6, "Mcase/s")
            extras[f"{s.name}.compiled_over_pure"] = (dt_pure / dt, "ratio")
    pooled = sizes.exhaustive[0]
    name = f"{pooled.name}.workers2_speedup"
    dt2, dt2_host = _verify(out, pooled, 0, workers=2)
    metrics[name] = (times[pooled][0] / dt2, "ratio")
    host[name] = times[pooled][1] / dt2_host
    return metrics, host, extras


def probe_cli(out: Outcome) -> tuple[float, float]:
    """Median ms that `cxrns verify --json` spends outside the sweep itself:
    scaled and host."""
    clock = HostClock()
    overheads, overheads_host = [], []
    for _ in range(CLI_REPEATS):
        for unit in CLI_UNITS:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", unit, "--n", "2", "--json"])
            t1 = perf_counter()
            wall, wall_host = clock.scale(t0, t1)
            scale = wall / wall_host
            try:
                report = json.loads(buf.getvalue())
            except ValueError:
                report = {}
            s = Sweep(unit, 2, "exhaustive")
            failed = out.failed
            tally(out, s, 0, report)
            if code:
                out.problems.append(f"cli verify {unit}: exit code {code}")
                out.failed += 1
            if out.failed == failed:
                overheads.append((wall - report["wall_time_s"] * scale) * 1e3)
                overheads_host.append((wall_host - report["wall_time_s"]) * 1e3)
    if not overheads:
        return 0.0, 0.0
    return statistics.median(overheads), statistics.median(overheads_host)


def per_call_us(fn, calls: list[tuple], budget_s: float) -> tuple[float, float]:
    """Median over repeats of µs per call, scaled and host, each repeat
    looping for `budget_s`."""
    fn(*calls[0])
    clock = HostClock()
    results, results_host = [], []
    for _ in range(MICRO_REPEATS):
        done = 0
        t0 = perf_counter()
        while True:
            for args in calls:
                fn(*args)
            done += len(calls)
            t1 = perf_counter()
            if t1 - t0 >= budget_s:
                break
        dt, dt_host = clock.scale(t0, t1)
        results.append(dt / done * 1e6)
        results_host.append(dt_host / done * 1e6)
    return statistics.median(results), statistics.median(results_host)


def _operands(params: Params, seed: int, salt: int) -> list:
    """Nonzero fresh operands drawn from the seed."""
    top = 1 << (2 * params.n)
    return [forward.to_channel_operand(
                dim1_encode(1 + splitmix64(seed, salt * MICRO_INPUTS + k) % top, params),
                SIGN, params)
            for k in range(MICRO_INPUTS)]


def micro_calls(seed: int) -> dict[str, tuple]:
    """name -> (function, argument tuples) for every µs/call metric."""
    params = Params(MAC_N)
    mset = moduli_set_build(f_set(MAC_N))
    plan = reverse.ncrt_plan(mset)
    draws = [splitmix64(seed, 1000 + k) % mset.dynamic_range for k in range(MICRO_INPUTS)]
    xs, ys = _operands(params, seed, 1), _operands(params, seed, 2)
    prods = [alu.mul(x, y, params) for x, y in zip(xs, ys)]
    table = {
        "forward.forward_std": (forward.forward_std, [(z, mset) for z in draws]),
        "forward.forward_22n1": (forward.forward_22n1, [(z, params) for z in draws]),
        "forward.to_channel_operand": (forward.to_channel_operand, [
            (forward.forward_22n1(z, params), SIGN, params) for z in draws]),
        "alu.mul": (alu.mul, [(x, y, params) for x, y in zip(xs, ys)]),
        "alu.add_fresh": (alu.add_fresh, [(x, p, params) for x, p in zip(xs, prods)]),
        "reverse.normalize": (reverse.normalize, [(p, params) for p in prods]),
        "reverse.channel_to_dim1": (reverse.channel_to_dim1, [(p, params) for p in prods]),
        "reverse.ncrt_reverse": (reverse.ncrt_reverse, [
            (forward.forward_std(z, mset), plan) for z in draws]),
        "reverse.ncrt_plan": (reverse.ncrt_plan, [(mset,)]),
    }
    for n in STAGE_WIDTHS:
        p = Params(n)
        xs, ys = _operands(p, seed, 10 + n), _operands(p, seed, 50 + n)
        words = [splitmix64(seed, 2000 + k) for k in range(MICRO_INPUTS)]
        table[f"forward.csa_mod_22n1.n{n}"] = (forward.csa_mod_22n1, [
            (w >> (5 * n) & p.mask, w & p.wide_mask, (w >> (2 * n)) & p.wide_mask, p)
            for w in (v | v << 64 for v in words)])
        table[f"alu.lut_partials.n{n}"] = (alu.lut_partials, [
            (x, y, p) for x, y in zip(xs, ys)])
        table[f"alu.compress42.n{n}"] = (alu.compress42, [
            (w & p.mask, (w >> n) & p.mask, (w >> 2 * n) & p.mask, (w >> 3 * n) & p.mask,
             [(w >> 62) & 1, w >> 63], p) for w in words])
        table[f"alu.mul_trace.n{n}"] = (alu.mul_trace, [(x, y, p) for x, y in zip(xs, ys)])
    return table


def probe(sizes: Sizes, seed: int) -> tuple[dict, dict, dict, Outcome]:
    """Per-layer metrics (name -> (value, unit)), their host values before
    rescaling, extras, and the probe's checks."""
    out = Outcome()
    metrics, host, extras = probe_sweeps(sizes, seed, out)
    cli_ms, host["cli.verify.overhead_ms"] = probe_cli(out)
    metrics["cli.verify.overhead_ms"] = (cli_ms, "ms")
    for name, (fn, calls) in micro_calls(seed).items():
        us, host[f"{name}.us"] = per_call_us(fn, calls, sizes.micro_s)
        metrics[f"{name}.us"] = (us, "us")
    return metrics, host, extras, out
