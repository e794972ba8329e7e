"""Workloads of the cxrns benchmark: inputs, timed loops, output checks, digests.

Every workload is a closed loop: one caller in one process, each call
issued after the previous one returned, sweeps with workers=1.  All
numbers are host time; the model has no cycle count.  Each is reported
both as measured and rescaled by hostclock.  Correctness is checked
against plain Python-int arithmetic by the benchmark itself, never by
asking the program whether it passed.

* sweep-exhaustive -- `sweeps.run_verify` over full operand spaces: the
  kernel inner loops and the flat-index decode, no PRNG, no dataclasses.
* sweep-random -- seeded random-mode sweeps at wide n: the same kernels
  reached through the splitmix64 draw path; csa and normalize go through
  the public dataclass API.
* mac-dot -- 16-tap dot products over f_set(16) built from public library
  calls: forward conversion, mul -> normalize -> add_fresh on the
  Gaussian pair, Python-int arithmetic on the integer channels, then
  channel_to_dim1 and ncrt_reverse.  No sweep kernel runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from cxrns import alu, forward, reverse, sweeps
from cxrns.core import (
    ChannelSign,
    Params,
    canonical_zero,
    dim1_value,
    f_set,
    moduli_set_build,
)
from hostclock import HostClock

WORKLOADS = ("sweep-exhaustive", "sweep-random", "mac-dot")

# --- seeded inputs: counter-based splitmix64 (Steele, Lea & Flood, OOPSLA 2014)

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, counter: int) -> int:
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# --- sweeps ------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    unit: str
    n: int
    mode: str
    samples: int = 0

    @property
    def name(self) -> str:
        return f"sweeps.{self.unit}.n{self.n}.{self.mode}"


def expected_cases(s: Sweep) -> int:
    """Size of a sweep's case space, from the operand ranges alone."""
    if s.mode == "random":
        return s.samples
    values = (1 << (2 * s.n)) + 1  # flagged residues 0 .. 2^2n
    word = 1 << s.n
    if s.unit == "multiplier":  # x, y
        return values * values
    if s.unit == "adder":  # fresh x; accumulated r, i, borrow, carry
        return values * word * word * 2 * 2
    if s.unit == "compressor":  # four words, two carry-ins
        return word ** 4 * 2 * 2
    if s.unit == "normalize":  # r, i, borrow, carry
        return word * word * 2 * 2
    if s.unit in ("forward", "roundtrip"):  # [0, 2^n * (2^4n - 1)), p = 0
        return word * (word ** 4 - 1)
    raise ValueError(f"no closed form for {s.name}")


def check_report(s: Sweep, seed: int, report: dict) -> list[str]:
    """Problems with one sweep report; empty when it proves what it claims."""
    want = {"unit": s.unit, "n": s.n, "mode": s.mode,
            "cases": expected_cases(s), "failures": 0}
    if s.mode == "random":
        want["seed"] = seed
    problems = [f"{s.name}: {key}={report.get(key)!r}, expected {value!r}"
                for key, value in want.items() if report.get(key) != value]
    if report.get("counterexample") is not None:
        problems.append(f"{s.name}: counterexample {report['counterexample']!r}")
    return problems


def report_failures(s: Sweep, report: dict) -> int:
    """Cases to count as failed for a report that failed its check."""
    failures = report.get("failures")
    cases = report.get("cases")
    if not isinstance(failures, int) or not isinstance(cases, int):
        return expected_cases(s)
    return max(1, failures + abs(cases - expected_cases(s)))


def tally(out: "Outcome", s: Sweep, seed: int, report: dict) -> None:
    """Check one sweep report and count its cases into `out`."""
    problems = check_report(s, seed, report)
    out.attempted += expected_cases(s)
    if problems:
        out.failed += report_failures(s, report)
        out.problems += problems


def canonical(report: dict) -> dict:
    """A report without its wall time: what must repeat bit for bit."""
    return {k: v for k, v in report.items() if k != "wall_time_s"}


EXHAUSTIVE = (Sweep("multiplier", 5, "exhaustive"),
              Sweep("adder", 4, "exhaustive"),
              Sweep("compressor", 4, "exhaustive"))
RANDOM_SAMPLES = 20_000
RANDOM = tuple(Sweep(unit, n, "random", RANDOM_SAMPLES) for unit, n in (
    ("multiplier", 16), ("adder", 16), ("compressor", 16), ("forward", 12),
    ("roundtrip", 10), ("csa", 12), ("normalize", 16)))


# --- mac-dot -----------------------------------------------------------------

MAC_N = 16
TAPS = 16
SIGN = ChannelSign.MINUS

# Library calls timed by mac-dot, by span name.
LIBRARY = {
    "forward.forward_std": forward.forward_std,
    "forward.forward_22n1": forward.forward_22n1,
    "forward.to_channel_operand": forward.to_channel_operand,
    "alu.mul": alu.mul,
    "reverse.normalize": reverse.normalize,
    "alu.add_fresh": alu.add_fresh,
    "reverse.channel_to_dim1": reverse.channel_to_dim1,
    "reverse.ncrt_reverse": reverse.ncrt_reverse,
}


def bind(wrap=None) -> SimpleNamespace:
    """The library calls of one dot product, each optionally wrapped."""
    return SimpleNamespace(**{name.split(".")[1]: wrap(name, fn) if wrap else fn
                              for name, fn in LIBRARY.items()})


def digest_wrap(h):
    """A `bind` wrapper feeding every channel-form output into hash `h`."""
    def wrap(name, fn):
        if name in ("alu.mul", "alu.add_fresh"):
            def fields(*args):
                out = fn(*args)
                h.update(f"{name[4]}{out.r},{out.borrow},{out.i},{out.carry};".encode())
                return out
            return fields
        if name == "reverse.normalize":
            def operand(*args):
                out = fn(*args)
                h.update(f"n{out.xr},{out.xi},{out.zflag};".encode())
                return out
            return operand
        return fn
    return wrap


@dataclass
class MacSet:
    params: Params
    mset: object
    plan: object
    dr: int
    zero: object
    lib: SimpleNamespace

    @classmethod
    def build(cls) -> "MacSet":
        params = Params(MAC_N)
        mset = moduli_set_build(f_set(MAC_N))
        return cls(params, mset, reverse.ncrt_plan(mset), mset.dynamic_range,
                   canonical_zero(SIGN), bind())


def dot(mac: MacSet, lib, a, b) -> int:
    """One TAPS-tap dot product in the residue domain, back to binary."""
    params, mset = mac.params, mac.mset
    m0, m1, m2, _ = mac.plan.moduli
    s0 = s1 = s2 = 0
    acc = mac.zero
    for x, y in zip(a, b):
        rx = lib.forward_std(x, mset)
        ry = lib.forward_std(y, mset)
        s0 = (s0 + rx[0] * ry[0]) % m0
        s1 = (s1 + rx[1] * ry[1]) % m1
        s2 = (s2 + rx[2] * ry[2]) % m2
        xo = lib.to_channel_operand(lib.forward_22n1(x, params), SIGN, params)
        yo = lib.to_channel_operand(lib.forward_22n1(y, params), SIGN, params)
        acc = lib.add_fresh(lib.normalize(lib.mul(xo, yo, params), params), acc, params)
    g = dim1_value(lib.channel_to_dim1(acc, params))
    return lib.ncrt_reverse([s0, s1, s2, g], mac.plan)


def mac_operand(seed: int, j: int, dr: int) -> int:
    """Operand j: uniform in [0, DR); every 8th is == 0 or == 2^2n mod 2^2n+1."""
    w = splitmix64(seed, 2 * j) | (splitmix64(seed, 2 * j + 1) << 64)
    if j % 8 != 7:
        return w % dr
    g = (1 << (2 * MAC_N)) + 1
    return (w >> 1) % (dr // g) * g + (w & 1) * (g - 1)


def mac_pool(seed: int, dots: int, dr: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pool = []
    for d in range(dots):
        ops = [mac_operand(seed, 2 * TAPS * d + k, dr) for k in range(2 * TAPS)]
        pool.append((tuple(ops[:TAPS]), tuple(ops[TAPS:])))
    return pool


def expected_dot(a, b, dr: int) -> int:
    return sum(x * y for x, y in zip(a, b)) % dr


# --- set-up ------------------------------------------------------------------

@dataclass
class Context:
    workload: str
    mac: MacSet | None = None
    problems: list[str] = field(default_factory=list)


def setup(workload: str) -> Context:
    """Constants plus one warm-up call into each public entry the workload times."""
    sweeps.backend_name()
    ctx = Context(workload)
    if workload == "mac-dot":
        ctx.mac = MacSet.build()
        a, b = tuple(range(TAPS)), tuple(range(TAPS, 2 * TAPS))
        if dot(ctx.mac, ctx.mac.lib, a, b) != expected_dot(a, b, ctx.mac.dr):
            ctx.problems.append("mac-dot: warm-up dot product is wrong")
        return ctx
    for s in (EXHAUSTIVE if workload == "sweep-exhaustive" else RANDOM):
        warm = Sweep(s.unit, 2, "exhaustive") if s.mode == "exhaustive" else \
            Sweep(s.unit, s.n, "random", 1)
        report = sweeps.run_verify(warm.unit, warm.n, mode=warm.mode,
                                   samples=warm.samples, seed=0, workers=1)
        ctx.problems += check_report(warm, 0, report.to_dict())
    return ctx


# --- timed loops ---------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    exhaustive: tuple[Sweep, ...] = EXHAUSTIVE
    random: tuple[Sweep, ...] = RANDOM
    pool_dots: int = 256
    batch_dots: int = 64
    setup_repeats: int = 21
    micro_s: float = 0.03


FULL = Sizes()


class Sample:
    """A uniform sample of a stream of values, in fixed memory.

    When full, every second value is dropped and from then on only every
    second one is taken.  A run that completes more requests thus keeps no
    more of their latencies, and peak_rss_mb does not grow with speed.
    """

    def __init__(self, size: int = 1 << 15) -> None:
        self._values = array("d", bytes(8 * size))  # all pages touched now
        self._kept = 0
        self._stride = 1
        self.seen = 0

    def add(self, value: float) -> None:
        if self.seen % self._stride == 0:
            if self._kept == len(self._values):
                half = self._values[::2]
                self._values[:len(half)] = half
                self._kept = len(half)
                self._stride *= 2
            self._values[self._kept] = value
            self._kept += 1
        self.seen += 1

    def values(self) -> array:
        return self._values[:self._kept]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Per round of sweeps, or per batch of dot products: work done (cases
    # or taps), host seconds, HostClock-scaled seconds, traced or not.
    # Arrays keep the benchmark's own share of peak_rss_mb small.
    work: array = field(default_factory=lambda: array("q"))
    host_s: array = field(default_factory=lambda: array("d"))
    scaled_s: array = field(default_factory=lambda: array("d"))
    traced: array = field(default_factory=lambda: array("b"))
    # Per request: a round of sweeps, or one dot product.
    request_host_s: Sample = field(default_factory=Sample)
    request_scaled_s: Sample = field(default_factory=Sample)
    digest: str = ""
    host_speed: array = field(default_factory=lambda: array("d"))  # HostClock factors

    @property
    def rounds(self) -> int:
        return len(self.work)

    def round_done(self, work: int, host_s: float, scaled_s: float, traced: bool) -> None:
        self.work.append(work)
        self.host_s.append(host_s)
        self.scaled_s.append(scaled_s)
        self.traced.append(traced)

    def overhead_sides(self, seconds: array) -> tuple[list[float], list[float]]:
        """`seconds` of traced and of untraced rounds, round 0 left out."""
        sides: tuple[list[float], list[float]] = ([], [])
        for r, (dt, traced) in enumerate(zip(seconds, self.traced)):
            if r:
                sides[0 if traced else 1].append(dt)
        return sides


# A traced run leaves round 0, the first after set-up, out of the overhead
# comparison and traces every odd round, so traced and untraced rounds
# interleave and host drift hits both alike; it runs until each side has
# at least two rounds.
TRACED_MIN_ROUNDS = 5


def min_rounds(tracer) -> int:
    return 1 if tracer is None else TRACED_MIN_ROUNDS


def traced_round(tracer, rounds: int) -> bool:
    return tracer is not None and rounds % 2 == 1


def another_round(out: Outcome, tracer, start: float, last_round_s: float,
                  seconds: float) -> bool:
    """Whether to run one more round: the minimum is not met yet, or a round
    as long as the last one still ends within `seconds` of `start`."""
    return (out.rounds < min_rounds(tracer)
            or perf_counter() - start + last_round_s <= seconds)


def sweep_seeds(seed: int, count: int) -> list[int]:
    return [splitmix64(seed, i) for i in range(count)]


# A sweep call lasts up to seconds, longer than the host keeps one speed,
# so the clock also samples the reference during it.
SAMPLE_PERIOD_S = 0.05


def run_sweeps(plan: tuple[Sweep, ...], seed: int, seconds: float, tracer=None) -> Outcome:
    """Repeat one round of sweeps until `seconds` have passed.

    Every round runs the same cases, so every round must return the same
    reports; the digest covers the first round.  One request is one round,
    the same fixed work each time.
    """
    out = Outcome()
    seeds = sweep_seeds(seed, len(plan))
    clock = HostClock()
    with clock.sampling(SAMPLE_PERIOD_S):
        _sweep_rounds(out, plan, seeds, seconds, tracer, clock)
    out.host_speed = clock.factors
    return out


def _sweep_rounds(out: Outcome, plan, seeds, seconds: float, tracer, clock: HostClock) -> None:
    traced_verify = {s.name: tracer.wrap(s.name, sweeps.run_verify)
                     for s in plan} if tracer is not None else {}
    round_cases = sum(expected_cases(s) for s in plan)
    first = None
    start = perf_counter()
    last_round_s = 0.0
    while another_round(out, tracer, start, last_round_s, seconds):
        round_start = perf_counter()
        traced = traced_round(tracer, out.rounds)
        host = scaled = 0.0
        reports = []
        for k, (s, sseed) in enumerate(zip(plan, seeds)):
            verify = traced_verify[s.name] if traced else sweeps.run_verify
            if traced:
                tracer.begin("bench.sweep", out.rounds * len(plan) + k)
            t0 = perf_counter()
            report = verify(s.unit, s.n, mode=s.mode, samples=s.samples, seed=sseed, workers=1)
            t1 = perf_counter()
            d = report.to_dict()
            tally(out, s, sseed if s.mode == "random" else 0, d)
            reports.append(canonical(d))
            if traced:
                tracer.finish()
            dt, dt_host = clock.scale(t0, t1)
            host += dt_host
            scaled += dt
        if first is None:
            first = reports
        elif reports != first:
            out.problems.append(f"round {out.rounds}: reports differ from round 0")
            out.failed += 1
        out.request_host_s.add(host)
        out.request_scaled_s.add(scaled)
        out.round_done(round_cases, host, scaled, traced)
        last_round_s = perf_counter() - round_start
    out.digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()


def run_mac(mac: MacSet, pool, seconds: float, batch: int, tracer=None) -> Outcome:
    """Dot products over the pool, batch by batch, until `seconds` have passed."""
    out = Outcome()
    lib_traced = bind(tracer.wrap) if tracer is not None else None
    dr = mac.dr
    i = 0
    clock = HostClock()
    start = perf_counter()
    last_round_s = 0.0
    while another_round(out, tracer, start, last_round_s, seconds):
        traced = traced_round(tracer, out.rounds)
        lib = lib_traced if traced else mac.lib
        latencies = []
        t_batch = perf_counter()
        for _ in range(batch):
            a, b = pool[i % len(pool)]
            if traced:
                tracer.begin("bench.dot", i)
            t0 = perf_counter_ns()
            got = dot(mac, lib, a, b)
            t1 = perf_counter_ns()
            want = expected_dot(a, b, dr)
            if traced:
                tracer.finish()
            latencies.append(t1 - t0)
            out.attempted += 1
            if got != want:
                out.failed += 1
                if len(out.problems) < 10:
                    out.problems.append(f"mac-dot: dot {i % len(pool)} gave {got}, expected {want}")
            i += 1
        t_end = perf_counter()
        scaled, host = clock.scale(t_batch, t_end)
        f = clock.factors[-1]
        for ns in latencies:
            out.request_host_s.add(ns / 1e9)
            out.request_scaled_s.add(ns / 1e9 * f)
        out.round_done(batch * TAPS, host, scaled, traced)
        last_round_s = perf_counter() - t_batch
    out.digest = mac_digest(mac, pool)
    out.host_speed = clock.factors
    return out


def mac_digest(mac: MacSet, pool, inner=None) -> str:
    """Hash every channel-form output and result of one pass over the pool.

    `inner`, a `bind` wrapper, is applied before hashing; the self-test
    uses it to feed altered outputs through the same digest.
    """
    h = hashlib.sha256()
    record = digest_wrap(h)
    lib = bind(lambda name, fn: record(name, inner(name, fn) if inner else fn))
    for a, b in pool:
        h.update(f"={dot(mac, lib, a, b)};".encode())
    return h.hexdigest()


def run(ctx: Context, seed: int, seconds: float, sizes: Sizes = FULL, tracer=None) -> Outcome:
    if ctx.workload == "mac-dot":
        pool = mac_pool(seed, sizes.pool_dots, ctx.mac.dr)
        out = run_mac(ctx.mac, pool, seconds, sizes.batch_dots, tracer)
    else:
        plan = sizes.exhaustive if ctx.workload == "sweep-exhaustive" else sizes.random
        out = run_sweeps(plan, seed, seconds, tracer)
    out.problems = ctx.problems + out.problems
    out.failed += len(ctx.problems)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]

