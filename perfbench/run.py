#!/usr/bin/env python3
"""cxrns benchmark: verify-sweep throughput, a residue-domain MAC pipeline,
and per-layer traced timings.

Run from the root of a cxrns source tree:

    python3 perfbench/run.py --workload mac-dot --seed 1 --seconds 10 --trace 0

Workloads: sweep-exhaustive, sweep-random, mac-dot (see bench.py).  The
tree is first built by its own setup.py (`build_ext --inplace`), so
whatever kernels that build produces are what gets measured.  With
--trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from a traced run plus the per-layer probe.  Earlier
lines give provenance, the bit-exact digest, the metrics under the names
workload users know, every timing as measured before host-speed
rescaling, and for a traced run the calls and self share of each span.
The full record, and the spans of a traced run, are written under
.bench_out/.  Exit code 0 means every output was
checked and correct, 1 that some check failed, 2 that the tree could not
be built or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BUILD_TEMP = ROOT / ".bench_build" / "setup-temp"
WORKLOADS = ("sweep-exhaustive", "sweep-random", "mac-dot")
CHILD_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 800


class TreeError(Exception):
    """The source tree is missing or does not build."""


def check_tree() -> None:
    for path in (ROOT / "BENCHMARK.json", ROOT / "setup.py", SRC / "cxrns" / "__init__.py"):
        if not path.is_file():
            raise TreeError(f"{path.relative_to(ROOT)} not found; run from a cxrns source tree")


def build() -> None:
    """Build the tree the way its own setup.py does, in place."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(BUILD_TEMP)],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode:
        raise TreeError(f"setup.py build_ext failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")


def setup_here(workload: str) -> tuple[float, float]:
    """Seconds from before `import cxrns` to ready in this interpreter: scaled, host."""
    from hostclock import HostClock

    clock = HostClock()
    t0 = perf_counter()
    import bench  # imports cxrns

    ctx = bench.setup(workload)
    t1 = perf_counter()
    if ctx.problems:
        raise TreeError("; ".join(ctx.problems))
    return clock.scale(t0, t1)


def setup_seconds(workload: str, repeats: int) -> tuple[list[float], list[float]]:
    """Scaled and host set-up times of `repeats` fresh interpreters, one after another."""
    scaled, host = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            raise TreeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        s, h = proc.stdout.split()[-2:]
        scaled.append(float(s))
        host.append(float(h))
    return scaled, host


# --- provenance --------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the tree's own .git, read from its files; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of the sources and build files the measurement ran."""
    h = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(p for p in SRC.rglob("*")
                    if p.is_file() and p.suffix in (".py", ".pyx", ".pxd", ".c", ".h"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import cxrns
    from cxrns import sweeps

    return {
        "backend": sweeps.backend_name(),
        "compiled_available": sweeps.compiled_available(),
        "cxrns_version": cxrns.__version__,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# --- measurement ---------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def span_metrics(tracer, out) -> tuple[dict, dict, dict]:
    """Per-layer metrics of the workload's traced rounds, their host values,
    and calls and self share per span name.

    Which spans occur depends on the workload, so they go to the record;
    the metrics are the ones every workload has.
    """
    per_name, root_ns = tracer.self_times()
    spans = {name: {"calls": calls, "self_frac": self_ns / root_ns}
             for name, (calls, self_ns) in sorted(per_name.items())}
    glue_ns = sum(per_name.get(name, (0, 0))[1] for name in ("bench.sweep", "bench.dot"))
    program_calls = sum(calls for name, (calls, _) in per_name.items()
                        if not name.startswith("bench."))

    def overhead(seconds):
        traced, untraced = out.overhead_sides(seconds)
        return statistics.median(traced) / statistics.median(untraced) - 1

    metrics = {
        "trace.calls": (program_calls, "count"),
        "bench.glue.self_frac": (glue_ns / root_ns, "fraction"),
        "trace_overhead_frac": (overhead(out.scaled_s), "fraction"),
    }
    return metrics, {"trace_overhead_frac": overhead(out.host_s)}, spans


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the record written under .bench_out/."""
    import bench
    from spans import Tracer

    sizes = sizes or bench.FULL
    median = statistics.median
    ctx = bench.setup(workload)
    setup_scaled, setup_host = ([], []) if trace else setup_seconds(workload, sizes.setup_repeats)
    tracer = Tracer() if trace else None
    out = bench.run(ctx, seed, seconds, sizes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    requests_s, requests_host_s = out.request_scaled_s.values(), out.request_host_s.values()
    samples = {"rounds" if workload != "mac-dot" else "batches": out.rounds,
               "requests": out.request_scaled_s.seen, "requests_sampled": len(requests_s),
               "setup_repeats": len(setup_scaled)}
    extras, spans = {}, {}
    if trace:
        import probe

        metrics, host, spans = span_metrics(tracer, out)
        layer, layer_host, extras, checked = probe.probe(sizes, seed)
        metrics.update(layer)
        host.update(layer_host)
        out.attempted += checked.attempted
        out.failed += checked.failed
        out.problems += checked.problems
        summary = {}
    else:
        def rates(seconds):
            return [work / dt for work, dt in zip(out.work, seconds)]

        metrics = {
            "setup_s": (median(setup_scaled), "s"),
            "ops_per_s": (median(rates(out.scaled_s)), "1/s"),
            "request_ms_p50": (median(requests_s) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        host = {
            "setup_s": median(setup_host),
            "ops_per_s": median(rates(out.host_s)),
            "request_ms_p50": median(requests_host_s) * 1e3,
        }
        if workload == "mac-dot":
            summary = {"mac_per_s": metrics["ops_per_s"],
                       "dot_us_p50": (metrics["request_ms_p50"][0] * 1e3, "us"),
                       "dot_us_p99": (bench.percentile(requests_s, 99) * 1e6, "us")}
            host.update(mac_per_s=host["ops_per_s"], dot_us_p50=host["request_ms_p50"] * 1e3,
                        dot_us_p99=bench.percentile(requests_host_s, 99) * 1e6)
        else:
            summary = {"verify_mcase_s": (metrics["ops_per_s"][0] / 1e6, "Mcase/s")}
            host["verify_mcase_s"] = host["ops_per_s"] / 1e6
        summary.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"])

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared_metrics(trace):
        out.problems.append(f"metrics differ from BENCHMARK.json: {sorted(produced)}")
        out.failed += 1
    for name, (value, _) in metrics.items():
        if not math.isfinite(value) or value == 0:
            out.problems.append(f"{name} is {value}")
            out.failed += 1
    summary["failed_frac"] = (out.failed / out.attempted, "fraction")
    summary["host_time_scale"] = (median(out.host_speed), "ratio")
    units = {name: unit for name, (_, unit) in {**metrics, **summary}.items()}

    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "digest": out.digest,
        "summary": {name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        "host": {name: {"value": v, "unit": units[name]} for name, v in host.items()},
        "samples": samples,
        "setup_s_each": setup_scaled,
        "setup_host_s_each": setup_host,
        "spans": spans,
        "extras": {name: {"value": v, "unit": u} for name, (v, u) in extras.items()},
        "problems": out.problems,
        "result": result,
        "tracer": tracer,
    }


def emit(record: dict) -> None:
    """Write the record (and spans) under .bench_out/, print it, result last."""
    tracer = record.pop("tracer")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}.seed{record['provenance']['seed']}.trace{record['trace']}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.csv.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"digest {record['workload']} seed={record['provenance']['seed']} {record['digest']}")
    print("samples " + json.dumps(record["samples"]))
    for section in ("summary", "host", "extras"):
        for name, m in record[section].items():
            print(f"{section} {name} = {m['value']!r} {m['unit']}")
    for name, span in record["spans"].items():
        print(f"span {name} calls={span['calls']} self_frac={span['self_frac']!r}")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        check_tree()
        sys.path.insert(0, str(SRC))
        if args.setup_only:
            print(*setup_here(args.workload))
            return 0
        build()
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (TreeError, subprocess.SubprocessError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
