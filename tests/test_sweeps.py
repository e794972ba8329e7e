"""Sweep drivers: backend parity, deterministic ordering, worker partitioning."""

import ctypes
import dataclasses
import itertools
import math
import multiprocessing
import operator
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from pathlib import Path

import pytest

from cxrns import alu, oracle, sweeps
from cxrns.core import ComplexChannelResidue, Params, RangeExceeded, operand_value
from cxrns.reporting import VerifyReport

needs_compiled = pytest.mark.skipif(
    not sweeps.compiled_available(), reason="no C compiler to build _kernels.c"
)

BACKENDS = [pytest.param(True, id="pure"),
            pytest.param(False, id="compiled", marks=needs_compiled)]


@pytest.mark.parametrize("force_pure", BACKENDS)
@pytest.mark.parametrize("unit,n,cases", [
    ("adder", 2, 17 * 64),
    ("multiplier", 2, 17 * 17),
    ("multiplier", 3, 65 * 65),
    ("checkpoint", 2, 256),
    ("forward", 2, 1020),
    ("roundtrip", 2, 1020),
    ("compressor", 2, 1024),
    ("csa", 2, 1024),
    ("normalize", 4, 1024),
])
def test_exhaustive_sweeps_pass(unit, n, cases, force_pure):
    report = sweeps.run_verify(unit, n, force_pure=force_pure)
    assert report.cases == cases
    assert report.failures == 0
    assert report.counterexample is None
    assert report.seed is None  # exhaustive reports carry no seed


@pytest.mark.parametrize("force_pure", BACKENDS)
@pytest.mark.parametrize("unit", ["adder", "multiplier", "checkpoint", "forward", "roundtrip",
                                  "compressor", "csa", "normalize"])
def test_random_sweeps_pass(unit, force_pure):
    report = sweeps.run_verify(unit, 5, mode="random", samples=3000, seed=11,
                               force_pure=force_pure)
    assert report.cases == 3000
    assert report.failures == 0
    assert report.seed == 11


def _fields4(export, *args):
    """Call a compiled add_fields/mul_fields and return its four output fields."""
    out = (ctypes.c_uint64 * 4)()
    export(*args, out)
    return tuple(out)


@needs_compiled
def test_prng_stream_identical_across_backends():
    for seed in (0, 1, 0xDEADBEEF):
        for counter in list(range(40)) + [10**6, 2**60]:
            assert sweeps._kernels().draw(seed, counter) == oracle._draw(seed, counter)


@needs_compiled
def test_scalar_kernels_match_python_dataflow():
    import random

    from cxrns.alu import _add_fields, _mul_fields

    compiled = sweeps._kernels()
    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randint(2, 31)
        mask = (1 << n) - 1
        xr, xi, yr, yi = (rng.randint(0, mask) for _ in range(4))
        yb, yc, xz = rng.randint(0, 1), rng.randint(0, 1), 0
        assert _fields4(compiled.add_fields, n, xr, xi, xz, yr, yb, yi, yc) == \
            _add_fields(n, xr, xi, xz, yr, yb, yi, yc)
        assert _fields4(compiled.mul_fields, n, xr, xi, yr, yi) == _mul_fields(n, xr, xi, yr, yi)


def test_compiler_on_path_builds_the_kernels():
    # A compiler that is present must give the compiled backend: a
    # _kernels.c that fails to build fails here instead of falling back.
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) on PATH")
    assert sweeps.compiled_available()
    assert sweeps.backend_name() == "compiled"


def _copy_library_as_compiler(monkeypatch):
    """Make a build copy the library this session already loaded instead of
    compiling _kernels.c again: a full build takes seconds."""
    def compile_(cmd, **kwargs):
        shutil.copyfile(sweeps._kernels()._name, cmd[cmd.index("-o") + 1])
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(sweeps.subprocess, "run", compile_)
    return compile_


@needs_compiled
def test_kernels_build_into_an_empty_cache(monkeypatch, tmp_path):
    _copy_library_as_compiler(monkeypatch)
    cache = tmp_path / "__pycache__"
    kernels = sweeps._load_kernels(str(cache))
    assert kernels is not None
    built = [p.name for p in cache.iterdir()]  # no temporary left behind
    assert len(built) == 1
    assert built[0].startswith("_kernels.") and built[0].endswith(".so")
    assert kernels.draw(7, 3) == oracle._draw(7, 3)
    assert sweeps._load_kernels(str(cache)) is not None  # reloads from the cache
    assert [p.name for p in cache.iterdir()] == built


@needs_compiled
def test_build_removes_libraries_of_earlier_sources(monkeypatch, tmp_path):
    _copy_library_as_compiler(monkeypatch)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / f"_kernels.{'0' * 64}.so"
    building = cache / f"{stale.name}.99999.tmp"  # another process's build in flight
    stale.write_bytes(b"")
    building.write_bytes(b"")
    kernels = sweeps._load_kernels(str(cache))
    assert kernels is not None
    assert kernels.draw(7, 3) == oracle._draw(7, 3)
    assert not stale.exists() and building.exists()
    assert len(list(cache.glob("_kernels.*.so"))) == 1


@needs_compiled
def test_each_cpu_gets_its_own_library(monkeypatch, tmp_path):
    # The build targets the host CPU, so a cache shared by two machines holds
    # one library per CPU; a rebuild removes only the libraries of earlier
    # sources, whatever CPU they were built for.
    _copy_library_as_compiler(monkeypatch)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / f"_kernels.{'0' * 64}.{'1' * 16}.so"
    stale.write_bytes(b"")
    built = []
    for cpu in ("fpu sse2 avx2", "fpu sse2 avx512f"):
        monkeypatch.setattr(sweeps, "_cpu_features", lambda cpu=cpu: cpu)
        kernels = sweeps._load_kernels(str(cache))
        assert kernels is not None and kernels.draw(7, 3) == oracle._draw(7, 3)
        built.append(kernels._name)
        assert not stale.exists()
    assert built[0] != built[1]
    assert sorted(str(p) for p in cache.iterdir()) == sorted(built)
    assert len({Path(name).name.split(".")[1] for name in built}) == 1  # one source hash


@needs_compiled
def test_compiler_that_rejects_march_native_builds_once_more(monkeypatch, tmp_path):
    copy = _copy_library_as_compiler(monkeypatch)
    calls = []

    def compile_(cmd, **kwargs):
        calls.append(cmd)
        if "-march=native" in cmd:
            return subprocess.CompletedProcess(cmd, 1, "", "error: unknown target CPU 'native'")
        return copy(cmd, **kwargs)

    monkeypatch.setattr(sweeps.subprocess, "run", compile_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the retry that builds says nothing
        kernels = sweeps._load_kernels(str(tmp_path / "__pycache__"))
    assert kernels is not None and kernels.draw(7, 3) == oracle._draw(7, 3)
    assert len(calls) == 2
    assert [c for c in calls[0] if c != "-march=native"] == calls[1]


@needs_compiled
def test_no_cpu_feature_list_builds_the_portable_library(monkeypatch, tmp_path):
    # Machine and processor names do not name the ISA (every Intel Mac says
    # x86_64 i386), so without a feature list the build targets no CPU.
    copy = _copy_library_as_compiler(monkeypatch)
    calls = []

    def compile_(cmd, **kwargs):
        calls.append(cmd)
        return copy(cmd, **kwargs)

    monkeypatch.setattr(sweeps.subprocess, "run", compile_)
    monkeypatch.setattr(sweeps, "_cpu_features", lambda: None)
    kernels = sweeps._load_kernels(str(tmp_path / "__pycache__"))
    assert kernels is not None and kernels.draw(7, 3) == oracle._draw(7, 3)
    assert len(calls) == 1 and "-march=native" not in calls[0]
    assert Path(kernels._name).name.endswith(".generic.so")


def test_no_compiler_means_pure_backend(monkeypatch, tmp_path):
    monkeypatch.setattr(sweeps.shutil, "which", lambda name: None)
    kernels = sweeps._load_kernels(str(tmp_path / "__pycache__"))
    assert kernels is None
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(sweeps, "_C", kernels)
    assert not sweeps.compiled_available()
    assert sweeps.backend_name() == "pure"
    report = sweeps.run_verify("multiplier", 3)
    assert (report.cases, report.failures, report.backend) == (65 * 65, 0, "pure")
    report = sweeps.run_verify("adder", 5, mode="random", samples=500, seed=1)
    assert (report.cases, report.failures) == (500, 0)


def test_concurrent_first_sweeps_load_the_kernels_once(monkeypatch):
    # Two builds in one process would write the same temporary library.
    kernels, loads = object(), []

    def load():
        loads.append(1)
        time.sleep(0.01)  # a window for the other threads
        return kernels

    monkeypatch.setattr(sweeps, "_C", sweeps._UNLOADED)
    monkeypatch.setattr(sweeps, "_load_kernels", load)
    got = []
    threads = [threading.Thread(target=lambda: got.append(sweeps._kernels())) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert loads == [1] and got == [kernels] * 8


def test_failed_compile_warns_with_compiler_output(tmp_path):
    if not sweeps.compiled_available():
        pytest.skip("no C compiler")
    broken = tmp_path / "_kernels.c"
    broken.write_text("int sweep_adder(void) { return missing_name; }\n")
    with pytest.warns(RuntimeWarning, match="missing_name"):
        assert sweeps._load_kernels(str(tmp_path / "__pycache__"), str(broken)) is None
    assert list((tmp_path / "__pycache__").iterdir()) == []


@needs_compiled
def test_missing_export_warns_and_means_pure_backend(tmp_path):
    # The compiler builds a few lines that define every export but one.
    source = tmp_path / "_kernels.c"
    source.write_text("".join(f"int {name}(void) {{ return 0; }}\n"
                              for name in sweeps._SIGNATURES if name != "sweep_normalize"))
    with pytest.warns(RuntimeWarning, match="has no export sweep_normalize,"):
        assert sweeps._load_kernels(str(tmp_path / "__pycache__"), str(source)) is None


def test_unwritable_cache_means_pure_backend(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a cache directory cannot be made under a file
    assert sweeps._load_kernels(str(blocker / "__pycache__")) is None


def _backend(unit, n, p=0):
    """The backend that ran a one-case random sweep of `unit` at width n."""
    return sweeps.run_verify(unit, n, p=p, mode="random", samples=1).backend


@needs_compiled
def test_compiled_support_gates(monkeypatch):
    # The loaded kernels answer: a width past a kernel's gate runs pure.
    for unit in ("csa", "normalize"):
        assert _backend(unit, 2) == "compiled"
        assert _backend(unit, 31) == "compiled"
    assert _backend("forward", 12) == "compiled"
    assert _backend("forward", 13) == "pure"
    assert _backend("roundtrip", 10) == "compiled"
    assert _backend("roundtrip", 11) == "pure"
    assert _backend("multiplier", 31) == "compiled"
    assert _backend("checkpoint", 30) == "compiled"
    assert _backend("checkpoint", 31) == "pure"
    assert _backend("roundtrip", 10, 10) == "compiled"
    assert sweeps.backend_name() == "compiled"
    monkeypatch.setattr(sweeps, "_C", None)
    assert _backend("multiplier", 2) == sweeps.backend_name() == "pure"


class _FakeKernels:
    """Stands in for the compiled library: each sweep_<unit> export records
    its call, runs no case, reports none failing and returns `status`."""

    def __init__(self, status=0):
        self.status, self.calls = status, []

    def __getattr__(self, name):
        if not name.startswith("sweep_"):
            raise AttributeError(name)

        def export(n, args, nf, span, base, slot, random, seed, lo, hi, out):
            self.calls.append({"unit": name[6:], "spans": list(span[:nf]), "random": random,
                               "seed": seed, "lo": lo, "hi": hi})
            out[0], out[1] = 0, -1
            return self.status

        return export

    def probes(self):
        return [call for call in self.calls if call["lo"] == call["hi"] == 0]


def test_kernel_verdict_is_asked_once_per_spec(monkeypatch):
    # run_verify asks a kernel for its verdict with an empty range once per
    # (library, unit, params, fields, mode), and passes each sweep's own seed.
    fake = _FakeKernels()
    monkeypatch.setattr(sweeps, "_C", fake)
    for seed in (1, 2, 3):
        assert sweeps.run_verify("adder", 4, mode="random", samples=10, seed=seed).backend \
            == "compiled"
    assert len(fake.probes()) == 1
    assert [(c["seed"], c["lo"], c["hi"]) for c in fake.calls if c["hi"]] == [
        (1, 0, 10), (2, 0, 10), (3, 0, 10)]
    assert sweeps.run_verify("adder", 2).backend == "compiled"  # another width and mode
    assert len(fake.probes()) == 2 and fake.probes()[-1]["random"] is False
    # A swapped library gets its own verdict, here a decline: the sweeps run pure.
    declining = _FakeKernels(status=1)
    monkeypatch.setattr(sweeps, "_C", declining)
    for seed in (1, 2):
        assert sweeps.run_verify("adder", 4, mode="random", samples=10, seed=seed).backend \
            == "pure"
    assert len(declining.calls) == 1
    # So does a widened UNITS entry, whose spans the kernel sees.
    monkeypatch.setattr(sweeps, "_C", fake)
    monkeypatch.setitem(sweeps.UNITS, "adder",
                        _widened(sweeps.UNITS["adder"], {"carry": lambda n: 4}))
    for seed in (1, 2):
        sweeps.run_verify("adder", 4, mode="random", samples=10, seed=seed)
    assert len(fake.probes()) == 3
    assert fake.probes()[-1]["spans"] == [257, 16, 16, 4, 2]


def test_every_unit_has_a_kernel():
    # A unit without a compiled kernel would leave its sweeps in pure Python.
    with open(sweeps._KERNELS_C) as f:
        source = f.read()
    for unit in sweeps.UNITS:
        assert f"SWEEP({unit}," in source, unit
        if sweeps.compiled_available():
            assert getattr(sweeps._kernels(), f"sweep_{unit}").argtypes, unit


with open(sweeps._KERNELS_C) as _f:
    _SOURCE = _f.read()
# SWEEP(unit, fits, bits): one line per unit, in UNITS order.
_SWEEP_LINES = re.findall(r"^SWEEP\((\w+), (\w+), (\w+)\)", _SOURCE, re.M)
# The widest n at which each kernel runs (its gate, at p = 0), as the CLI,
# README and CI cite them; the kernels' fits predicates must agree.
_TOP = {"adder": 31, "multiplier": 31, "checkpoint": 30, "forward": 12, "roundtrip": 10,
        "compressor": 31, "csa": 31, "normalize": 31}


def _exhaustive_cases(unit, n, p=0):
    fields, _ = sweeps.UNITS[unit].build(Params(n, p))
    return math.prod(f.span for f in fields)


# The widest n at which each kernel runs exhaustive sweeps: below 2^63 cases.
_XTOP = {unit: max(n for n in range(2, top + 1) if _exhaustive_cases(unit, n) <= sys.maxsize)
         for unit, top in _TOP.items()}


def _dynamic_range(n, p):
    """2^(n+p) (2^4n - 1), the dynamic range of f_set(n, p)."""
    return ((1 << 4 * n) - 1) << n + p


def test_sweep_lines_declare_the_spec_shape():
    # A SWEEP(unit, fits, bits) line names the predicate that says where its
    # kernel is exact and the unit's bound, the widest value its case
    # function forms at width n; the exhaustive bound comes from the unit's
    # table.  Width arms where fits fails are dead code, and so are
    # exhaustive loops of arms whose case space is too large to sweep.
    # (Which widths and fields a kernel runs: the tests below.)
    assert [unit for unit, _, _ in _SWEEP_LINES] == list(sweeps.UNITS)
    for unit, fits, bits in _SWEEP_LINES:
        assert re.search(rf"^(#define {fits}\(|static int {fits}\()", _SOURCE, re.M), unit
        assert re.search(rf"^#define {bits}\(n\) ", _SOURCE, re.M), unit
    arms = re.findall(r"ARM\((\d+), __VA_ARGS__\)", _SOURCE)
    assert [int(k) for k in arms] == list(range(2, max(_TOP.values()) + 1))


def _one_field_off(fields):
    """Every spec one change away from `fields`: a span one smaller or one
    larger, a base one larger, or two fields' slots swapped."""
    for k, f in enumerate(fields):
        for change in (dict(span=f.span - 1), dict(span=f.span + 1), dict(base=f.base + 1)):
            yield fields[:k] + (f._replace(**change),) + fields[k + 1:]
    for j, k in itertools.combinations(range(len(fields)), 2):
        swapped = list(fields)
        swapped[j], swapped[k] = fields[j]._replace(slot=fields[k].slot), \
            fields[k]._replace(slot=fields[j].slot)
        yield tuple(swapped)


@needs_compiled
def test_kernel_runs_only_the_built_in_spec():
    # Each kernel checks a spec's spans, bases and slots against its unit's
    # table at the entry: one field off the built-in spec, it declines.  So
    # it does for an exponent p its SWEEP line's fits refuses, which only a
    # direct call can pass: p = 1 to a unit that reads none, p = -1.
    kernels = sweeps._kernels()
    for unit, spec in sweeps.UNITS.items():
        for n in (2, 5, _TOP[unit]):
            for p in (0, n) if spec.reads_p else (0,):
                params = Params(n, p)
                fields, _ = spec.build(params)
                call = sweeps._kernel_call(kernels, unit, params, fields, True)
                assert call is not None, (unit, n, p)
                kernel, args = call
                bad_p = (sweeps._I64 * 5)(-1 if spec.reads_p else 1)
                assert kernel(n, bad_p, *args[2:], 0, 0, 0, (sweeps._I64 * 2)()) == 1, (unit, n)
                for other in _one_field_off(fields):
                    for mode in ("exhaustive", "random"):
                        assert sweeps._kernel_run(kernels, unit, params, other, mode, 0) is None, \
                            (unit, n, p, other, mode)


_BLOCK = int(re.search(r"^#define BLOCK (\d+)", _SOURCE, re.M).group(1))
_PURE_EXHAUSTIVE_CASES = 300_000  # the widest exhaustive sweep a parity test runs pure


def _kernel_status(unit, n, p=0, mode="random"):
    """What sweep_<unit> returns, asked with an empty case range, for the
    unit's spec at width n: 0 when it runs the spec, 1 when it declines it."""
    params = Params(n, p)
    fields, _ = sweeps.UNITS[unit].build(params)
    run = sweeps._kernel_run(sweeps._kernels(), unit, params, fields, mode, 0)
    return 1 if run is None else 0


def _same_but_backend(reports, verdict):
    """Checks that the reports, minus wall time and backend, are equal, and that
    the first ran pure and the others on the backend the kernel's `verdict`
    names (0: it runs the spec, 1: it declines it)."""
    backends = [report.pop("backend") for report in reports]
    assert backends == ["pure"] + ["pure" if verdict else "compiled"] * (len(reports) - 1)
    for report in reports:
        report.pop("wall_time_s")
    assert all(report == reports[0] for report in reports)


def _pure_and_compiled(unit, n, status=0, **kw):
    """The pure report of one sweep, minus wall time and backend, checked equal
    to the one without force_pure, after checking that the kernel returns
    `status` for the spec: 0 when it runs it, 1 when the sweep runs pure."""
    assert _kernel_status(unit, n, kw.get("p", 0)) == status, (unit, n, kw)
    reports = [sweeps.run_verify(unit, n, force_pure=force_pure, **kw).to_dict()
               for force_pure in (True, False)]
    _same_but_backend(reports, status)
    return reports[0]


def _exhaustive_chunks_match_pure(unit, n, p=0, starts=None):
    """Failures in chunks of 1,000 cases of an exhaustive sweep, at its start,
    middle and end (or at `starts`), each checked equal to the pure engine's
    (failures, first index); 0 when the sweep has too many cases to index."""
    params = Params(n, p)
    fields, case = sweeps.UNITS[unit].build(params)
    total = math.prod(f.span for f in fields)
    if total > sys.maxsize:
        return 0
    run = sweeps._kernel_run(sweeps._kernels(), unit, params, fields, "exhaustive", 0)
    assert run is not None, (unit, n, p)
    failures = 0
    for lo in starts or sorted({0, total // 2, max(0, total - 1000)}):
        # Each case decoded on its own: oracle.sweep would step to lo one case at a time.
        bad = [idx for idx in range(lo, min(total, lo + 1000))
               if operator.ne(*case(*oracle._case_at(fields, "exhaustive", 0, idx)))]
        assert run(lo, min(total, lo + 1000)) == (len(bad), bad[0] if bad else -1), (unit, n, lo)
        failures += len(bad)
    return failures


@needs_compiled
@pytest.mark.parametrize("unit", list(_TOP))
def test_every_width_arm_matches_pure_reports(unit):
    # Each width 2..gate runs its own compiled case loop, with n a constant;
    # its exhaustive loop, below 2^63 cases, runs in vectorised blocks.
    for n in range(2, _TOP[unit] + 1):
        for p in (0, n) if sweeps.UNITS[unit].reads_p else (0,):
            report = _pure_and_compiled(unit, n, p=p, mode="random", samples=300, seed=3)
            assert report["failures"] == 0, (unit, n, p)
            if _exhaustive_cases(unit, n, p) <= _PURE_EXHAUSTIVE_CASES:
                assert _pure_and_compiled(unit, n, p=p)["failures"] == 0, (unit, n, p)
            assert _exhaustive_chunks_match_pure(unit, n, p) == 0, (unit, n, p)


def _widened(spec, spans):
    """The unit `spec` with the span of each field named in `spans` set to spans[name](n)."""
    def build(params):
        fields, case = spec.build(params)
        return tuple(f._replace(span=spans[f.name](params.n)) if f.name in spans else f
                     for f in fields), case

    return spec._replace(build=build)


def _based(spec):
    """The unit `spec` with every base set to 1 and every span one smaller: no
    largest value grows, but the spec is another than the unit's own."""
    def build(params):
        fields, case = spec.build(params)
        return tuple(f._replace(base=1, span=f.span - 1) for f in fields), case

    return spec._replace(build=build)


def _widen(**spans):
    """The change _widened makes, as a function of the unit's spec."""
    return lambda spec: _widened(spec, spans)


_STATE = {"i": lambda n: 1 << n, "r": lambda n: 1 << n,  # every state field at n bits
          "carry": lambda n: 1 << n, "borrow": lambda n: 1 << n}
# Specs other than each unit's built-in one, in groups of one test each:
# fields widened or narrowed, fields one value past the bits the unit's
# case computes exactly, the adder's x far past them, and every base 1.
# Each row says whether the pure engine finds failures in it at some width;
# in the rows that plant faults it does.
_FOREIGN = {
    "widened": {
        "adder": [(_widen(carry=lambda n: 4), True),
                  (_widen(x=lambda n: (1 << 2 * n + 1) - 1), False),
                  (_widen(x=lambda n: 1 << 2 * n + 1, **_STATE), True)],
        "multiplier": [(_widen(y=lambda n: (1 << 2 * n + 1) - 1), True),
                       (_widen(x=lambda n: 1 << 2 * n + 1, y=lambda n: 1 << 2 * n + 1), True)],
        "checkpoint": [(_widen(x=lambda n: (1 << 2 * n + 1) - 1,
                               y=lambda n: (1 << 2 * n + 1) - 1), True)],
        "csa": [(_widen(z2=lambda n: 1 << n + 1), False),
                (_widen(z2=lambda n: 1 << 2 * n, z1=lambda n: 1 << 2 * n + 1,
                        z0=lambda n: 1 << 2 * n + 1), True)],
        # _STATE at n = 30: four spans of 2^30, whose product wraps to 0 in 64 bits.
        "normalize": [(_widen(borrow=lambda n: 4), True), (_widen(**_STATE), True)],
    },
    "past the bits": {
        "adder": [(_widen(x=lambda n: (1 << 2 * n + 1) + 1), False)],
        "multiplier": [(_widen(y=lambda n: (1 << 2 * n + 1) + 1), True)],
        "checkpoint": [(_widen(y=lambda n: 1 << 2 * n + 1), True)],
        "csa": [(_widen(z1=lambda n: (1 << 2 * n + 1) + 1,
                        z0=lambda n: (1 << 2 * n + 1) + 1), True)],
        "normalize": [(_widen(i=lambda n: 1 << n + 2), False)],
    },
    # borrow past m: the compiled case's uint64 arithmetic wrapped it, and
    # run compiled gave 300, 300 and 67 failures at n = 2, 5, 8.
    "far past": {"adder": [(_widen(x=lambda n: (1 << 33) + 1), False)]},
    "based": {unit: [(_based, False)] for unit in sweeps.UNITS},
}


def _foreign_rows_run_pure(monkeypatch, group, unit):
    # A kernel runs only its unit's built-in spec.  At every width up to its
    # gate it declines each row of _FOREIGN[group][unit] in both modes, and
    # the sweep gives the forced-pure run's report.
    real = sweeps.UNITS[unit]
    for change, faults in _FOREIGN[group][unit]:
        monkeypatch.setitem(sweeps.UNITS, unit, change(real))
        failures = 0
        for n in range(2, _TOP[unit] + 1):
            assert _kernel_status(unit, n, mode="exhaustive") == 1, (unit, n)
            failures += _pure_and_compiled(unit, n, status=1, mode="random", samples=300,
                                           seed=3)["failures"]
        assert (failures > 0) == faults, (unit, failures)


@needs_compiled
@pytest.mark.parametrize("unit", list(_FOREIGN["widened"]))
def test_widened_specs_match_pure_reports(monkeypatch, unit):
    _foreign_rows_run_pure(monkeypatch, "widened", unit)


@needs_compiled
@pytest.mark.parametrize("unit", list(_FOREIGN["past the bits"]))
def test_specs_past_the_kernel_bits_run_pure(monkeypatch, unit):
    _foreign_rows_run_pure(monkeypatch, "past the bits", unit)


@needs_compiled
def test_adder_x_far_past_2_to_the_2n_runs_pure(monkeypatch):
    _foreign_rows_run_pure(monkeypatch, "far past", "adder")


@needs_compiled
@pytest.mark.parametrize("unit", list(_FOREIGN["based"]))
def test_specs_of_another_shape_run_pure(monkeypatch, unit):
    _foreign_rows_run_pure(monkeypatch, "based", unit)


@needs_compiled
@pytest.mark.parametrize("unit", [unit for unit, top in _TOP.items() if top < 31])
def test_widths_past_top_are_declined(unit):
    # A SWEEP line's fits is the kernel's only width bound: one past the
    # gate, the kernel declines its unit's own spec, and the sweep runs pure.
    top = _TOP[unit]
    assert _kernel_status(unit, top) == 0
    assert _kernel_status(unit, top + 1) == 1
    assert _backend(unit, top + 1) == "pure"


@needs_compiled
def test_forward_inputs_past_wide_range_raise_on_both_backends(monkeypatch):
    # forward_22n1 rejects a z at or past wide_range.  The kernel declines a
    # spec that reaches it, as any but its own, so the last of these
    # wide_range + 1 cases raises on either backend.
    monkeypatch.setitem(sweeps.UNITS, "forward", _widened(
        sweeps.UNITS["forward"], {"z": lambda n: Params(n).wide_range + 1}))
    for n in range(2, _TOP["forward"] + 1):
        assert _kernel_status("forward", n) == 1, n
    for force_pure in (True, False):
        with pytest.raises(RangeExceeded, match="outside"):
            sweeps.run_verify("forward", 3, force_pure=force_pure)


@needs_compiled
def test_spans_past_64_bits_run_pure(monkeypatch):
    # ctypes wraps a span past 2^64 - 1 into a uint64 without an error, so
    # such a spec never reaches the kernel: wrapped, these spans gave 0
    # failures where the pure engine finds all but a few of the cases bad.
    def span(n):
        return 64 * ((1 << 2 * n) + 1) + 1

    monkeypatch.setitem(sweeps.UNITS, "multiplier",
                        _widened(sweeps.UNITS["multiplier"], {"x": span, "y": span}))
    for n, failures in [(29, 2997), (30, 2998), (31, 2999)]:
        assert span(n) >= 1 << 64
        report = _pure_and_compiled("multiplier", n, status=1, mode="random",
                                    samples=3000, seed=5)
        assert report["failures"] == failures, n


@needs_compiled
def test_kernel_declines_exhaustive_sweeps_past_2_to_the_63():
    # An exhaustive case loop indexes fewer than 2^63 cases; past that its
    # spans' product wraps (to 0 for adder n = 31 and for the normalize spec
    # below) and divides by it.  The kernel declines every built-in spec
    # past 2^63 - 1 cases at a width it runs, and normalize at n = 30 with
    # four fields of span 2^30, another spec than its own.
    kernels = sweeps._kernels()
    for unit, top in _TOP.items():
        for n in range(_XTOP[unit] + 1, top + 1):
            params = Params(n)
            fields, _ = sweeps.UNITS[unit].build(params)
            assert math.prod(f.span for f in fields) > sys.maxsize, (unit, n)
            assert sweeps._kernel_run(kernels, unit, params, fields, "exhaustive", 0) is None, \
                (unit, n)
    params = Params(30)
    fields = tuple(f._replace(span=1 << 30) for f in sweeps.UNITS["normalize"].build(params)[0])
    assert math.prod(f.span for f in fields) == 1 << 120
    assert sweeps._kernel_run(kernels, "normalize", params, fields, "exhaustive", 0) is None


@needs_compiled
def test_direct_call_of_a_wrapping_exhaustive_spec_returns_1():
    # The kernel's own entry check keeps such a spec from its loop, whatever
    # calls it: sweep_normalize called through ctypes with the normalize spec
    # above over cases 0..1000 returns 1.  A library that ran the spec died of
    # SIGFPE (exit 136), so the call runs in a child process.
    src = str(Path(sweeps.__file__).parents[1])
    code = f"""import sys
sys.path.insert(0, {src!r})
from cxrns import sweeps
column = sweeps._U64 * 4
out = (sweeps._I64 * 2)()
print(sweeps._kernels().sweep_normalize(30, (sweeps._I64 * 5)(), 4, column(*[1 << 30] * 4),
                                        column(), column(2, 0, 3, 1), 0, 0, 0, 1000, out))"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "1"), done.stderr


@needs_compiled
def test_every_built_in_spec_runs_compiled_up_to_top():
    # Every spec run_verify accepts (roundtrip at p = 0..n) runs compiled
    # exactly where n is at most its gate, in both modes.
    kernels = sweeps._kernels()
    for unit, spec in sweeps.UNITS.items():
        for n in range(2, 32):
            for p in range(n + 1) if spec.reads_p else (0,):
                params = Params(n, p)
                fields, _ = spec.build(params)
                for mode in ("exhaustive", "random"):
                    try:
                        oracle.case_count(fields, mode, 1, 0)
                    except ValueError:  # too many cases to sweep exhaustively
                        continue
                    run = sweeps._kernel_run(kernels, unit, params, fields, mode, 0)
                    assert (run is not None) == (n <= _TOP[unit]), (unit, n, p, mode)


@needs_compiled
def test_folded_remainders_reach_their_second_subtraction():
    # A blocked loop reduces a forward z past 32 bits (n >= 7) as z0 - z1 + z2 + m,
    # z = z2 2^4n + z1 2^2n + z0, which reaches 2m only where z1 = 0 and z0 + z2
    # passes 2^2n: some of the 1,000 cases below z = (2^n - 1) 2^4n + 2^2n.
    for n in range(7, _XTOP["forward"] + 1):
        start = (((1 << n) - 1) << 4 * n) + (1 << 2 * n) - 1000
        assert _exhaustive_chunks_match_pure("forward", n, starts=[start]) == 0, n


def _planted(values):
    """Whether the fault planted in every case function fails the case of
    these field values: splitmix64 chained over them is 0 mod 1009."""
    h = oracle._GOLDEN
    for v in values:
        h = oracle._mix64(h ^ v)
    return h % 1009 == 0


# In the lane section, compiled at each lane width, as the case functions are.
_PLANTED_C = """INLINE int L(planted)(const WORD *v, int nf)
{
    uint64_t h = GOLDEN;
    for (int f = 0; f < nf; f++)
        h = mix64(h ^ v[f]);
    return h % 1009 == 0;
}

"""


def _planted_in_c(source):
    """_kernels.c whose every <unit>_bad, at each lane width, also fails
    where _planted holds."""
    source = source.replace("/* --- case functions", _PLANTED_C + "/* --- case functions", 1)
    for unit, spec in sweeps.UNITS.items():
        arity = len(spec.build(Params(2))[0])
        source, count = re.subn(rf"(INLINE int L\({unit}_bad\)\(.*?\n    return )(.*?);\n}}",
                                rf"\1(\2) | L(planted)(v, {arity});\n}}", source, flags=re.S)
        assert count == 1, unit
    assert source.count("INLINE int L(planted)(const WORD *v, int nf)") == 1
    return source


_LANE_BITS = (32, 64)


def test_planted_fault_reaches_every_lane_instantiation(tmp_path):
    # The preprocessed planted source: every <unit>_bad_<bits> of both lane
    # widths returns its verdict or'ed with planted_<bits>, and nothing else
    # calls it.
    source = tmp_path / "_kernels.c"
    source.write_text(_planted_in_c(_SOURCE))
    text = subprocess.run([*_compiler(), "-std=c99", "-E", "-P", str(source)],
                          capture_output=True, text=True, check=True).stdout
    for bits in _LANE_BITS:
        assert len(re.findall(rf"\bplanted_{bits}\(v, \d\)", text)) == len(sweeps.UNITS)
        for unit, spec in sweeps.UNITS.items():
            arity = len(spec.build(Params(2))[0])
            body = re.search(rf"int {unit}_bad_{bits}\(.*?\n}}", text, re.S)
            assert body and f"| planted_{bits}(v, {arity});" in body.group(0), (unit, bits)


def _planted_in_pure(spec):
    """The unit `spec` whose pure case also fails where _planted holds."""
    def build(params):
        fields, case = spec.build(params)

        def planted(*values):
            got, want = case(*values)
            return (None, want) if _planted(values) else (got, want)
        return fields, planted

    return spec._replace(build=build)


def _compiler():
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) on PATH")
    return cc


_MARCH = {"native": ["-march=native"], "portable": []}


@pytest.fixture(scope="module")
def planted_builds(tmp_path_factory):
    """build(name): the kernels of _planted_in_c built at -O0 with the flags
    _MARCH[name], once per module.  On an AVX2 host the native build runs
    random sweeps in blocks, which fold their draws, and the portable one
    one case at a time, which divides.  Exhaustive sweeps run the same
    block loop in both."""
    built = {}

    def build(name):
        if name not in built:
            tmp = tmp_path_factory.mktemp(f"planted-{name}")
            source, lib = tmp / "_kernels.c", tmp / "_kernels.so"
            source.write_text(_planted_in_c(Path(sweeps._KERNELS_C).read_text()))
            done = subprocess.run([*_compiler(), "-O0", "-std=c99", *_MARCH[name], "-shared",
                                   "-fPIC", "-o", str(lib), str(source)],
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            built[name] = sweeps._open(str(lib))
        return built[name]

    return build


def _use_planted(monkeypatch, planted_builds, name):
    """Makes the planted build `name` the sweeps' library and plants the
    same fault in every unit's pure case."""
    monkeypatch.setattr(sweeps, "_C", planted_builds(name))
    for unit, spec in list(sweeps.UNITS.items()):
        monkeypatch.setitem(sweeps.UNITS, unit, _planted_in_pure(spec))


@pytest.fixture(params=list(_MARCH))
def planted_kernels(request, monkeypatch, planted_builds):
    """The native, then the portable planted build, in use (_use_planted)."""
    _use_planted(monkeypatch, planted_builds, request.param)


def _blocks_match_pure(monkeypatch, mode, samples=0, seed=0):
    """Checks the planted multiplier fault at n = 4: its first failure lies
    past the first block, and compiled chunks that put it at either edge of
    a block, or start and end mid-block, count like the pure engine; so do
    reports at workers 1 and 2."""
    unit, n = "multiplier", 4
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 8)  # keep both chunks
    params = Params(n)
    fields, case = sweeps.UNITS[unit].build(params)
    run = sweeps._kernel_run(sweeps._kernels(), unit, params, fields, mode, seed)
    assert run is not None
    total = oracle.case_count(fields, mode, samples, seed)
    first = run(0, total)[1]
    assert first >= _BLOCK
    # The first failure as the last case of a chunk's first block, the first of
    # its second block and the chunk's own last case; then chunks that start
    # and end mid-block.
    for lo, hi in [(first - _BLOCK + 1, first + _BLOCK), (first - _BLOCK, first + _BLOCK),
                   (first - 300, first + 1), (first - 100, total - 77), (77, first - 100)]:
        assert run(lo, hi) == oracle.sweep(fields, case, mode, seed, lo, hi), (lo, hi)
    reports = [sweeps.run_verify(unit, n, mode=mode, samples=samples, seed=seed,
                                 workers=workers, force_pure=force_pure).to_dict()
               for force_pure, workers in [(True, 1), (False, 1), (False, 2)]]
    _same_but_backend(reports, 0)
    assert reports[0]["failures"] > 0


# The planted multiplier fault in the blocked exhaustive loop of each build,
# over 257^2 cases.
def test_blocks_find_the_first_failure_like_pure(monkeypatch, planted_kernels):
    _blocks_match_pure(monkeypatch, "exhaustive")


# The same in random mode, where blocks run from each chunk's start, over
# 20,000 draws.  (A random sweep runs in blocks only where the library
# targets AVX2; elsewhere this checks the scalar loop.)
def test_random_blocks_find_the_first_failure_like_pure(monkeypatch, planted_builds):
    _use_planted(monkeypatch, planted_builds, "native")
    _blocks_match_pure(monkeypatch, "random", samples=20_000, seed=0)


# The random check above, run by the one-case-at-a-time loop of the portable build.
def test_portable_random_loop_finds_the_first_failure_like_pure(monkeypatch, planted_builds):
    _use_planted(monkeypatch, planted_builds, "portable")
    _blocks_match_pure(monkeypatch, "random", samples=20_000, seed=0)


_PARITY = [(unit, n, 0, mode) for unit in ("csa", "normalize")
           for n, mode in [(2, "exhaustive"), (3, "exhaustive"), (5, "random"),
                           (12, "random"), (16, "random"), (31, "random")]]
_PARITY += [("checkpoint", n, 0, mode)
            for n, mode in [(2, "exhaustive"), (3, "exhaustive"), (5, "random"),
                            (30, "random")]]
_PARITY += [("roundtrip", 3, 3, "exhaustive"), ("roundtrip", 10, 10, "random")]


@needs_compiled
@pytest.mark.parametrize("unit,n,p,mode", _PARITY, ids=[
    f"{n}-{mode}-{unit}" + (f"-p{p}" if p else "") for unit, n, p, mode in _PARITY])
def test_csa_and_normalize_kernels_match_pure_reports(unit, n, p, mode):
    # Also checkpoint, and roundtrip at p = n, the widest extension.
    reports = [sweeps.run_verify(unit, n, p=p, mode=mode, samples=3000, seed=7,
                                 force_pure=force_pure).to_dict()
               for force_pure in (True, False)]
    _same_but_backend(reports, _kernel_status(unit, n, p))
    assert reports[0]["failures"] == 0


def test_split_is_contiguous_and_complete():
    for total in (0, 1, 7, 1000):
        for workers in (1, 2, 3, 16):
            chunks = sweeps._split(total, workers)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == total
            for (lo_a, hi_a), (lo_b, hi_b) in zip(chunks, chunks[1:]):
                assert hi_a == lo_b
            assert sum(hi - lo for lo, hi in chunks) == total


def test_large_widths_stay_exact():
    # 64-bit edges of the compiled path and bignum path must agree with math
    for n in (15, 31):
        report = sweeps.run_verify("multiplier", n, mode="random", samples=2000, seed=5)
        assert report.failures == 0
        report = sweeps.run_verify("adder", n, mode="random", samples=2000, seed=5)
        assert report.failures == 0
    for force_pure in (True, False):  # 62-bit words; sums past 2^63
        for unit in ("csa", "normalize"):
            report = sweeps.run_verify(unit, 31, mode="random", samples=2000, seed=5,
                                       force_pure=force_pure)
            assert report.failures == 0
    # pure bignum forward beyond the compiled gate
    report = sweeps.run_verify("forward", 13, mode="random", samples=300, seed=5)
    assert report.failures == 0


@pytest.mark.parametrize("n", [4, 5])
def test_forward_random_million_cases(n):
    report = sweeps.run_verify("forward", n, mode="random",
                               samples=1_000_000, seed=31)
    assert report.cases == 1_000_000
    assert report.failures == 0


@pytest.mark.parametrize("n", [4, 5])
def test_roundtrip_random_million_cases(n):
    report = sweeps.run_verify("roundtrip", n, mode="random",
                               samples=1_000_000, seed=31)
    assert report.cases == 1_000_000
    assert report.failures == 0


def test_roundtrip_with_extension_exponent():
    for force_pure in (True, False) if sweeps.compiled_available() else (True,):
        report = sweeps.run_verify("roundtrip", 3, p=2, mode="random",
                                   samples=2000, seed=13, force_pure=force_pure)
        assert report.failures == 0
        assert report.cases == 2000


def test_workers_match_single_worker_results():
    solo = sweeps.run_verify("multiplier", 3, workers=1)
    multi = sweeps.run_verify("multiplier", 3, workers=3)
    assert (solo.cases, solo.failures) == (multi.cases, multi.failures) == (4225, 0)

    solo = sweeps.run_verify("compressor", 4, mode="random", samples=5000, seed=2, workers=1)
    multi = sweeps.run_verify("compressor", 4, mode="random", samples=5000, seed=2, workers=4)
    assert (solo.cases, solo.failures) == (multi.cases, multi.failures) == (5000, 0)


_ADDER = sweeps.UNITS["adder"]


def _adder_with_planted_faults(params):
    """The adder spec with a fault planted on every case index = 3 mod 7."""
    fields, case = _ADDER.build(params)

    def faulty(*values):
        idx = 0
        for f, v in zip(fields, values):
            idx = idx * f.span + v - f.base
        got, want = case(*values)
        return (got + 1 if idx % 7 == 3 else got), want

    return fields, faulty


def test_counterexample_ordering_deterministic_across_workers(monkeypatch):
    monkeypatch.setitem(sweeps.UNITS, "adder", _ADDER._replace(build=_adder_with_planted_faults))
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 8)  # keep all five chunks
    reports = [
        sweeps.run_verify("adder", 2, workers=w, force_pure=True)
        for w in (1, 2, 5)
    ]
    expected_failures = len([i for i in range(1088) if i % 7 == 3])
    for report in reports:
        assert report.failures == expected_failures
        # lowest failing index is 3: x=0, state bits b=1, c=1, r=0, i=0
        assert report.counterexample["x"] == 0
        assert report.counterexample["borrow"] == 1
        assert report.counterexample["carry"] == 1
        assert report.counterexample["r"] == 0
        assert report.counterexample["i"] == 0
    assert reports[0].counterexample == reports[1].counterexample == reports[2].counterexample


def _planted_n(unit):
    """The narrowest width at which `unit` has 4,000 exhaustive cases or more."""
    return min(n for n in range(2, 32) if _exhaustive_cases(unit, n) >= 4000)


def _planted_reports(monkeypatch, unit, mode):
    """Checks that both backends report the planted fault of `unit` alike at
    workers 1, 2 and 5, exhaustively at _planted_n or over 10,000 random
    cases at n = 5, with the planted build in use (_use_planted)."""
    n = _planted_n(unit) if mode == "exhaustive" else 5
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 8)  # keep all five chunks
    assert _kernel_status(unit, n) == 0  # the kernel runs the unit's own spec
    reports = [sweeps.run_verify(unit, n, mode=mode, samples=10_000, seed=7,
                                 workers=workers, force_pure=force_pure).to_dict()
               for force_pure in (True, False) for workers in (1, 2, 5)]
    assert [report.pop("backend") for report in reports] == ["pure"] * 3 + ["compiled"] * 3
    for report in reports:
        report.pop("wall_time_s")
    assert all(report == reports[0] for report in reports), unit
    assert reports[0]["failures"] > 0, unit


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_planted_fault_reported_identically_by_both_backends(monkeypatch, planted_builds, mode):
    # The fault planted in every case function of the native build: both
    # backends find the same faults at the same first case, for every unit
    # but csa and normalize, which the test below checks one at a time.
    _use_planted(monkeypatch, planted_builds, "native")
    for unit in sweeps.UNITS:
        if unit not in ("csa", "normalize"):
            _planted_reports(monkeypatch, unit, mode)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("unit", ["csa", "normalize"])
def test_planted_fault_in_csa_and_normalize_reported_identically(monkeypatch, planted_builds,
                                                                 unit, mode):
    _use_planted(monkeypatch, planted_builds, "native")
    _planted_reports(monkeypatch, unit, mode)


# The random check above, run by the one-case-at-a-time loop of the portable build.
@pytest.mark.parametrize("unit", list(sweeps.UNITS))
def test_portable_random_loop_reports_planted_faults_like_pure(monkeypatch, planted_builds, unit):
    _use_planted(monkeypatch, planted_builds, "portable")
    _planted_reports(monkeypatch, unit, "random")


# The widest n at which each unit's exhaustive loop runs on 32-bit lanes (0:
# at none), as _kernels.c's header and README state them: its bound, the
# widest value its case function forms, fits 32 bits, and the spans of its
# decode counter multiply to at most 2^32.
_LANES_32_TOP = {"adder": 7, "multiplier": 7, "checkpoint": 7, "forward": 6, "roundtrip": 0,
                 "compressor": 7, "csa": 6, "normalize": 15}
_LANE_ARMS = [(unit, n) for unit, top in _LANES_32_TOP.items()
              for n in ((top, top + 1) if top else (2,))]


def _planted_chunks_match_pure(unit, n, size=2000):
    """Checks that the planted build in use reports (failures, first failing
    index) like the planted pure case in chunks of `size` exhaustive cases,
    at the start, the middle and the end of the space and where the first
    field first steps, and returns their failures."""
    params = Params(n)
    fields, case = sweeps.UNITS[unit].build(params)
    total = math.prod(f.span for f in fields)
    step = math.prod(f.span for f in fields[1:])
    run = sweeps._kernel_run(sweeps._kernels(), unit, params, fields, "exhaustive", 0)
    assert run is not None, (unit, n)
    failures = 0
    for lo in sorted({0, max(0, step - size // 2), total // 2, max(0, total - size)}):
        hi = min(total, lo + size)
        bad = [idx for idx in range(lo, hi)
               if operator.ne(*case(*oracle._case_at(fields, "exhaustive", 0, idx)))]
        assert run(lo, hi) == (len(bad), bad[0] if bad else -1), (unit, n, lo)
        failures += len(bad)
    return failures


@pytest.mark.parametrize("name", list(_MARCH))
def test_planted_faults_at_both_lane_widths_match_pure(monkeypatch, planted_builds, name):
    # Each unit's widest exhaustive arm on 32-bit lanes and its first on
    # 64-bit ones (roundtrip, which runs none on 32-bit lanes: n = 2), in the
    # native and the portable planted build: the same faults at the same
    # first case as the pure engine.
    _use_planted(monkeypatch, planted_builds, name)
    for unit, n in _LANE_ARMS:
        assert _planted_chunks_match_pure(unit, n) > 0, (unit, n)


@pytest.fixture(scope="module")
def portable_kernels(tmp_path_factory):
    """The kernels built without -march, at -O0 to build fast, where the
    target has no AVX2 (x86-64's default target has none): a second,
    unvectorised build of the block loop's folds."""
    flags = [*_compiler(), "-O0", "-std=c99", sweeps._KERNELS_C]
    macros = subprocess.run([*flags, "-dM", "-E"], capture_output=True, text=True, check=True)
    if "#define RANDOM_BLOCKS 0" not in macros.stdout:
        pytest.skip("the compiler's default target has AVX2")
    lib = tmp_path_factory.mktemp("portable") / "_kernels.so"
    subprocess.run([*flags, "-shared", "-fPIC", "-o", str(lib)], capture_output=True, check=True)
    return sweeps._open(str(lib))


def _z_window(base, span):
    """The roundtrip unit with z over [base, base + span): a shifted or
    narrowed span, another shape than the unit's own."""
    spec = sweeps.UNITS["roundtrip"]

    def build(params):
        (z,), case = spec.build(params)
        return (z._replace(base=base, span=span),), case

    return spec._replace(build=build)


@pytest.fixture(params=["native", "portable"])
def roundtrip_kernels(request, monkeypatch):
    """The loaded kernels, then the portable build, as the sweeps' library."""
    if request.param == "portable":
        kernels = request.getfixturevalue("portable_kernels")
    elif sweeps.compiled_available():
        kernels = sweeps._kernels()
    else:
        pytest.skip("no C compiler to build _kernels.c")
    monkeypatch.setattr(sweeps, "_C", kernels)
    return kernels


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 5, 8, 10) for p in (0, n)])
def test_roundtrip_folds_match_pure_at_their_edges(monkeypatch, roundtrip_kernels, n, p):
    # The block loop reduces z and the New-CRT sum by folds modulo the tail
    # 2^4n - 1, whose compare-subtract decides where they are 0 or -1 (mod the
    # tail): for z at multiples of the tail and one below them, and for the
    # sum where z < 2^(n+p); z = DR - 1 is the largest input.  Chunks of the
    # unit's own spec run them in the width arm of n.  The kernel declines
    # windows of z around them, which run pure.
    tail, dynamic_range = (1 << 4 * n) - 1, _dynamic_range(n, p)
    edges = [0, tail, 2 * tail, dynamic_range - tail, dynamic_range]
    starts = sorted({max(0, min(edge - 500, dynamic_range - 1000)) for edge in edges})
    assert _exhaustive_chunks_match_pure("roundtrip", n, p, starts=starts) == 0
    for edge in edges:
        base = max(0, min(edge - 300, dynamic_range - 600))
        monkeypatch.setitem(sweeps.UNITS, "roundtrip",
                            _z_window(base, min(600, dynamic_range - base)))
        assert _pure_and_compiled("roundtrip", n, status=1, p=p)["failures"] == 0, edge
        assert _pure_and_compiled("roundtrip", n, status=1, p=p, mode="random", samples=1000,
                                  seed=3)["failures"] == 0, edge
    # forward_std rejects a z from DR on, so the kernel declines a window past
    # it and both backends raise the same error.
    monkeypatch.setitem(sweeps.UNITS, "roundtrip", _z_window(dynamic_range - 300, 600))
    assert _kernel_status("roundtrip", n, p) == 1
    for force_pure in (True, False):
        with pytest.raises(RangeExceeded, match=f"input {dynamic_range} outside"):
            sweeps.run_verify("roundtrip", n, p=p, force_pure=force_pure)


# Every width arm of the units whose span is the dynamic range, which the
# block loop folds and the scalar loop divides.
_DRAWN = [("forward", n, 0) for n in range(2, 13)]
_DRAWN += [("roundtrip", n, p) for n in range(2, 11) for p in (0, n)]


def test_random_draws_match_pure_at_every_width(planted_kernels):
    # A sweep that reports 0 failures binds no draw: two builds that draw
    # other cases agree on it.  The planted fault fails about one case in
    # 1,009, keyed by the case's field values, so the failure count and the
    # first failing case of each report follow the exact stream of z values.
    for unit, n, p in _DRAWN:
        reports = [sweeps.run_verify(unit, n, p=p, mode="random", samples=10_000, seed=7,
                                     force_pure=force_pure).to_dict()
                   for force_pure in (True, False)]
        assert [report.pop("backend") for report in reports] == ["pure", "compiled"]
        for report in reports:
            report.pop("wall_time_s")
        assert reports[1] == reports[0], (unit, n, p)
        assert reports[0]["failures"] > 0, (unit, n, p)


@needs_compiled
@pytest.mark.parametrize("p", range(5))
def test_roundtrip_exhaustive_n4_reports_match_pure(p):
    # Every z of the dynamic range runs through the folds of the n = 4 width
    # arm.  A z comes back from the New CRT only when all four residues are
    # right, so the pure report has 0 failures over DR cases; the compiled
    # one must equal it.  The pure sweep itself (2.7 us a case) runs only at
    # p = 0, 1,048,560 cases; at every p, chunks at the start, middle and end
    # match the pure engine case by case.
    reports = [sweeps.run_verify("roundtrip", 4, p=p).to_dict()]
    if p == 0:
        reports.insert(0, sweeps.run_verify("roundtrip", 4, force_pure=True).to_dict())
        _same_but_backend(reports, 0)
    else:
        assert reports[0].pop("backend") == "compiled"
        reports[0].pop("wall_time_s")
    assert reports[0] == {"unit": "roundtrip", "n": 4, **({"p": p} if p else {}),
                          "mode": "exhaustive", "cases": _dynamic_range(4, p), "failures": 0}
    assert _exhaustive_chunks_match_pure("roundtrip", 4, p) == 0


@needs_compiled
def test_roundtrip_kernel_declines_a_p_past_its_sum_bound():
    # roundtrip_fits keeps the unsigned New-CRT sum below 2^64, which bounds p
    # by itself: at n = 10 up to p = 12, where 100,000 random cases run
    # exact; at p = 13 the kernel declines its own spec, whose dynamic range
    # is still below 2^63, and the sweep gives the forced-pure run's report.
    assert _dynamic_range(10, 13) < 1 << 63
    report = sweeps.run_verify("roundtrip", 10, p=12, mode="random", samples=100_000, seed=5)
    assert (report.backend, report.failures) == ("compiled", 0)
    report = _pure_and_compiled("roundtrip", 10, status=1, p=13, mode="random", samples=2000,
                                seed=5)
    assert report["failures"] == 0


@needs_compiled
def test_paper_32_bit_set_runs_compiled():
    # f_set(5, 7), the paper's 32-bit set {2^12, 31, 33, 2^5 -+ j}: a p past
    # n that the roundtrip kernel runs, with the pure engine's report.
    report = _pure_and_compiled("roundtrip", 5, p=7, mode="random", samples=3000, seed=7)
    assert report["failures"] == 0 and report["cases"] == 3000


# Decoded cases pinned from the hand-written decoders the spec table replaced:
# any change to a field's order, span or random-counter slot changes them.
GOLDEN_RANDOM = {  # (unit, n, p): first three cases at seed 7, fields in spec order
    ("adder", 5, 0): [(587, 2, 28, 0, 1), (285, 11, 9, 0, 0), (677, 21, 7, 1, 0)],
    ("multiplier", 5, 0): [(587, 529), (285, 250), (677, 766)],
    ("checkpoint", 5, 0): [(472, 541), (866, 874), (688, 712)],
    ("forward", 5, 0): [(28581687,), (24801185,), (25496527,)],
    ("forward", 13, 0): [(21300162737582116311,), (25113805461432346465,),
                         (12091930423938242223,)],
    ("roundtrip", 5, 0): [(28581687,), (24801185,), (25496527,)],
    ("roundtrip", 3, 2): [(42807,), (34145,), (93007,)],
    ("compressor", 5, 0): [(23, 28, 2, 11, 0, 1), (1, 9, 11, 12, 0, 0), (15, 7, 21, 24, 1, 1)],
    ("csa", 5, 0): [(23, 540, 514), (1, 873, 747), (15, 711, 565)],
    ("normalize", 5, 0): [(2, 23, 1, 0), (11, 1, 0, 1), (21, 15, 0, 1)],
}
GOLDEN_FIELDS = {  # most significant first
    "adder": "x i r carry borrow",
    "multiplier": "x y",
    "checkpoint": "x y",
    "forward": "z",
    "roundtrip": "z",
    "compressor": "a b c d t_in v_in",
    "csa": "z2 z1 z0",
    "normalize": "i r carry borrow",
}
GOLDEN_EXHAUSTIVE = {  # unit: cases 1, 2, 37 and the last one at n=2
    "adder": [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 2, 1, 0, 1), (16, 3, 3, 1, 1)],
    "multiplier": [(0, 1), (0, 2), (2, 3), (16, 16)],
    "checkpoint": [(1, 2), (1, 3), (3, 6), (16, 16)],
    "forward": [(1,), (2,), (37,), (1019,)],
    "roundtrip": [(1,), (2,), (37,), (1019,)],
    "compressor": [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (0, 0, 2, 1, 0, 1),
                   (3, 3, 3, 3, 1, 1)],
    "csa": [(0, 0, 1), (0, 0, 2), (0, 2, 5), (3, 15, 15)],
    "normalize": [(0, 0, 0, 1), (0, 0, 1, 0), (2, 1, 0, 1), (3, 3, 1, 1)],
}


@pytest.mark.parametrize("unit,n,p", list(GOLDEN_RANDOM))
def test_random_decode_is_pinned(unit, n, p):
    fields, _ = sweeps.UNITS[unit].build(Params(n, p))
    want = GOLDEN_RANDOM[unit, n, p]
    assert list(oracle._cases(fields, "random", 7, 0, 3)) == want
    assert list(oracle._cases(fields, "random", 7, 1, 3)) == want[1:]
    assert [tuple(oracle._case_at(fields, "random", 7, idx)) for idx in range(3)] == want


_RECORDED = {  # unit: the public op its pure sweep calls, and the case its operands encode
    "adder": ("add_fresh", lambda x, y, p: (operand_value(x, p), y.i, y.r, y.carry, y.borrow)),
    "multiplier": ("mul", lambda x, y, p: (operand_value(x, p), operand_value(y, p))),
}


@pytest.mark.parametrize("unit", list(_RECORDED))
def test_pure_sweep_calls_the_public_op(monkeypatch, unit):
    name, encoded = _RECORDED[unit]
    real = getattr(alu, name)
    seen = []

    def op(x, y, params):
        seen.append(encoded(x, y, params))
        return real(x, y, params)

    monkeypatch.setattr(alu, name, op)
    assert sweeps.run_verify(unit, 5, mode="random", samples=3, seed=7, force_pure=True).ok
    assert seen == GOLDEN_RANDOM[unit, 5, 0]


def _u_plus_one(real):
    """`real` with one added to the u word of the compressor output it returns."""
    def faulty(*args):
        out = real(*args)
        return dataclasses.replace(out, u=out.u + 1)

    return faulty


def _r_plus_one(real):
    """`real` with one added to the r field of the residue it returns."""
    def faulty(*args):
        res = real(*args)
        return ComplexChannelResidue(res.r + 1, res.borrow, res.i, res.carry, res.sign)

    return faulty


@pytest.mark.parametrize("unit,name,fault,failures,first", [
    # Every sum is off by one; the first case is the all-zero one.
    pytest.param("adder", "add_fresh", _r_plus_one, 17 * 64,
                 {"x": 0, "i": 0, "r": 0, "carry": 0, "borrow": 0}, id="add_fresh"),
    # Only the zero-flag gate is wrong: the 17 + 17 - 1 pairs with a zero operand.
    pytest.param("multiplier", "canonical_zero", _r_plus_one, 33, {"x": 0, "y": 0},
                 id="canonical_zero"),
    # Every compression is off by one; the first case is the all-zero one.
    pytest.param("compressor", "compress42", _u_plus_one, 4 ** 5,
                 {"a": 0, "b": 0, "c": 0, "d": 0, "t_in": 0, "v_in": 0}, id="compressor"),
])
def test_pure_sweep_reports_a_fault_in_the_public_op(monkeypatch, unit, name, fault,
                                                     failures, first):
    monkeypatch.setattr(alu, name, fault(getattr(alu, name)))
    report = sweeps.run_verify(unit, 2, force_pure=True)
    assert report.failures == failures
    assert report.counterexample == {**first, "got": 1, "want": 0}


@pytest.mark.parametrize("unit", list(GOLDEN_EXHAUSTIVE))
def test_exhaustive_decode_is_pinned(unit):
    fields, _ = sweeps.UNITS[unit].build(Params(2))
    assert [f.name for f in fields] == GOLDEN_FIELDS[unit].split()
    total = oracle.case_count(fields, "exhaustive", 0, 0)
    for idx, want in zip((1, 2, 37, total - 1), GOLDEN_EXHAUSTIVE[unit]):
        assert list(oracle._cases(fields, "exhaustive", 0, idx, idx + 1)) == [want]
        assert tuple(oracle._case_at(fields, "exhaustive", 0, idx)) == want


def test_run_verify_validates_arguments():
    with pytest.raises(ValueError):
        sweeps.run_verify("divider", 2)
    with pytest.raises(ValueError):
        sweeps.run_verify("adder", 2, mode="fuzzy")
    with pytest.raises(ValueError):
        sweeps.run_verify("adder", 1)
    # A sweep of no cases, or of a count the kernels' int64 index wraps, would pass vacuously.
    for samples in (0, -5, 1 << 63, (1 << 64) + 5):
        for force_pure in (False, True):
            with pytest.raises(ValueError, match="samples"):
                sweeps.run_verify("adder", 2, mode="random", samples=samples,
                                  force_pure=force_pure)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            sweeps.run_verify("adder", 2, mode="random", samples=10, seed=seed)
    assert sweeps.run_verify("adder", 2, mode="random", samples=10, seed=(1 << 64) - 1).ok
    with pytest.raises(ValueError, match="workers"):
        sweeps.run_verify("adder", 2, workers=0)
    with pytest.raises(ValueError, match="random mode"):
        sweeps.run_verify("multiplier", 31)  # about 2^124 cases


@pytest.mark.parametrize("unit", [u for u in sweeps.UNITS if u != "roundtrip"])
def test_p_rejected_by_units_that_ignore_it(unit):
    # A p the unit does not read would sweep the p = 0 space under another name.
    for mode in ("exhaustive", "random"):
        with pytest.raises(ValueError, match="do not read p"):
            sweeps.run_verify(unit, 2, p=2, mode=mode, samples=10)
    assert sweeps.run_verify(unit, 2, p=0).ok


def test_workers_clamped_to_cpu_count(monkeypatch):
    pools = []

    class InlinePool:
        """Records the pool size and runs each chunk in this thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 3)
    report = sweeps.run_verify("multiplier", 2, workers=64)
    assert pools == [3]
    assert (report.cases, report.failures) == (289, 0)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: None)  # count unknown
    assert sweeps.run_verify("multiplier", 2, workers=64).ok
    assert pools == [3]


@pytest.mark.parametrize("force_pure", BACKENDS)
@pytest.mark.parametrize("unit,n,kw", [
    ("multiplier", 3, {}),
    ("adder", 5, {"mode": "random", "samples": 5000, "seed": 7}),
    ("roundtrip", 2, {"p": 2}),
])
def test_workers_start_no_process(monkeypatch, force_pure, unit, n, kw):
    # Chunks run on threads: a sweep forks or spawns nothing, so it needs no
    # picklable case function and runs the same under every start method.
    def refuse(self):
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 8)  # keep all five chunks
    reports = [sweeps.run_verify(unit, n, workers=workers, force_pure=force_pure,
                                 **kw).to_dict()
               for workers in (1, 2, 5)]
    for report in reports:
        report.pop("wall_time_s")
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["failures"] == 0


def test_report_shape():
    report = sweeps.run_verify("adder", 2)
    assert isinstance(report, VerifyReport)
    d = report.to_dict()
    assert list(d) == ["unit", "n", "mode", "cases", "failures", "backend", "wall_time_s"]
    report = sweeps.run_verify("adder", 4, mode="random", samples=100, seed=1)
    assert list(report.to_dict()) == ["unit", "n", "mode", "cases", "failures", "backend",
                                      "seed", "wall_time_s"]
    report = sweeps.run_verify("roundtrip", 3, p=2, mode="random", samples=100, seed=1)
    assert list(report.to_dict()) == ["unit", "n", "p", "mode", "cases", "failures",
                                      "backend", "seed", "wall_time_s"]
    assert report.p == 2 and report.to_dict()["p"] == 2
