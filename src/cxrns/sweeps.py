"""Verification sweep drivers.

A sweep runs one unit over an exhaustive index space or a seeded random
stream, counts mismatches against plain modular arithmetic, and reports
the lowest failing case.  Hot sweeps dispatch to the compiled kernels of
``_kernels.c`` when a C compiler built them and the unit's kernel accepts
the sweep (see ``_kernel_run``); everything else runs on the pure-Python case
engine of ``oracle``.

Each unit is one entry of ``UNITS``: its input fields and a case function
that runs the device under test.  The case space, both decoders, the pure
loop and the counterexample record all derive from that entry.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

from . import alu, forward, reverse
from .core import (
    ComplexChannelResidue,
    FreshOperand,
    ModuliSet,
    Params,
    channel_value,
    dim1_value,
    f_set,
    moduli_set_build,
    operand_value,
)
from .oracle import Field, case_count, report, sweep
from .reporting import VerifyReport


def compiled_available() -> bool:
    return _kernels() is not None


def backend_name() -> str:
    """"compiled" when the kernels loaded, else "pure".  Which backend ran a
    sweep is its report's ``backend``."""
    return "pure" if _kernels() is None else "compiled"


# --- unit specs -----------------------------------------------------------------

class Unit(NamedTuple):
    """A verify unit.

    ``build(params)`` returns the unit's fields, most significant first,
    and a case function taking their values and returning (got, want):
    got from the device under test, want from plain modular arithmetic.
    The ``sweep_<unit>`` export of ``_kernels.c`` runs exactly these
    fields through its own case function.  Its ``<unit>_spec`` table, the
    kernel's one copy of them (per field a span kind, base and slot), both
    checks a call's fields and is what its case loop is compiled from; it
    declines (see ``_kernel_run``) a width or p its ``fits`` predicate
    refuses and any other fields, and such a sweep runs on the pure engine.
    ``kernel_args(n, p)`` gives the kernel's extra arguments.
    Only a unit with ``reads_p`` accepts an extension exponent p != 0.
    """

    build: Callable
    kernel_args: Callable = lambda n, p: ()
    reads_p: bool = False


@functools.lru_cache(maxsize=None)
def _roundtrip_plan(n: int, p: int) -> tuple[ModuliSet, reverse.NcrtPlan]:
    """The roundtrip unit's moduli set and its NCRT plan, built once per (n, p)."""
    mset = moduli_set_build(f_set(n, p))
    return mset, reverse.ncrt_plan(mset)


def _operand(n: int, v: int) -> FreshOperand:
    """The fresh operand of value v on the 2^n - j channel.

    Pure field routing, unvalidated: a planted value past 2^2n still
    reaches the op under test and shows up as a mismatch.
    """
    if v == 0:
        return FreshOperand(0, 0, 1)
    v -= 1
    return FreshOperand(v & ((1 << n) - 1), v >> n, 0)


def _adder(params: Params):
    n, m = params.n, params.modulus
    size = 1 << n
    add = alu.add_fresh

    def case(x, i, r, carry, borrow):
        y = ComplexChannelResidue(r, borrow, i, carry)
        return (channel_value(add(_operand(n, x), y, params), params),
                (x + r - borrow + ((i + carry) << n)) % m)

    # A fresh operand x plus every accumulator state (i, r, carry, borrow).
    return (Field("x", m, 0), Field("i", size, 2), Field("r", size, 1),
            Field("carry", 2, 4), Field("borrow", 2, 3)), case


def _multiplier(params: Params):
    n, m = params.n, params.modulus
    mul = alu.mul

    def case(x, y):
        return channel_value(mul(_operand(n, x), _operand(n, y), params), params), x * y % m

    return (Field("x", m, 0), Field("y", m, 1)), case


def _checkpoint(params: Params):
    n, m = params.n, params.modulus
    top = m - 1

    def case(x, y):
        r_sum, i_sum = alu.intermediate_ri(_operand(n, x), _operand(n, y), params)
        return (r_sum + (i_sum << n)) % m, x * y % m

    # Nonzero operand pairs only.
    return (Field("x", top, 0, 1), Field("y", top, 1, 1)), case


def _forward(params: Params):
    m = params.modulus

    def case(z):
        return dim1_value(forward.forward_22n1(z, params)), z % m

    return (Field("z", params.wide_range, 0),), case


def _roundtrip(params: Params):
    mset, plan = _roundtrip_plan(params.n, params.p)

    def case(z):
        return reverse.ncrt_reverse(forward.forward_std(z, mset), plan), z

    return (Field("z", mset.dynamic_range, 0),), case


def _roundtrip_kernel_args(n: int, p: int) -> tuple[int, ...]:
    """p, the New-CRT coefficients mu and -2^(n+p) sum(mu) mod the tail
    product, the offset that keeps the kernel's New-CRT sum unsigned."""
    plan = _roundtrip_plan(n, p)[1]
    return (p, *plan.mu, -(sum(plan.mu) << n + p) % plan.tail_product)


def _compressor(params: Params):
    n = params.n
    size = 1 << n
    compress42 = alu.compress42

    def case(a, b, c, d, t_in, v_in):
        out = compress42(a, b, c, d, (t_in, v_in), params)
        return out.u + out.v + ((out.c_out + out.v_out) << n), a + b + c + d + t_in + v_in

    return (Field("a", size, 0), Field("b", size, 1), Field("c", size, 2),
            Field("d", size, 3), Field("t_in", 2, 4), Field("v_in", 2, 5)), case


def _csa(params: Params):
    m, wmask = params.modulus, params.wide_mask

    def case(z2, z1, z0):
        pair = forward.csa_mod_22n1(z2, z1, z0, params)
        return (pair.u + pair.v) % m, (z2 + (z1 ^ wmask) + z0 + 1) % m

    return (Field("z2", 1 << params.n, 0), Field("z1", wmask + 1, 1),
            Field("z0", wmask + 1, 2)), case


def _normalize(params: Params):
    n, m = params.n, params.modulus
    size = 1 << n

    def case(i, r, carry, borrow):
        s = ComplexChannelResidue(r, borrow, i, carry)
        return (operand_value(reverse.normalize(s, params), params),
                (r - borrow + ((i + carry) << n)) % m)

    return (Field("i", size, 2), Field("r", size, 0), Field("carry", 2, 3),
            Field("borrow", 2, 1)), case


UNITS = {
    "adder": Unit(_adder),
    "multiplier": Unit(_multiplier),
    "checkpoint": Unit(_checkpoint),
    "forward": Unit(_forward),
    "roundtrip": Unit(_roundtrip, kernel_args=_roundtrip_kernel_args, reads_p=True),
    "compressor": Unit(_compressor),
    # Nearly redundant: forward runs the same CSA stage on 2^5n - 2^n of these 2^5n
    # triples and checks the final residue.  Kept: the sweep-random benchmark runs it.
    "csa": Unit(_csa),
    "normalize": Unit(_normalize),
}


# --- compiled kernels -------------------------------------------------------------

_KERNELS_C = os.path.join(os.path.dirname(__file__), "_kernels.c")
_U64, _I64, _INT = ctypes.c_uint64, ctypes.c_int64, ctypes.c_int
_P_U64, _P_I64 = ctypes.POINTER(_U64), ctypes.POINTER(_I64)
_SIGNATURES = {  # name: (restype, argtypes)
    "draw": (_U64, (_U64, _U64)),
    "add_fields": (None, (_INT, *[_U64] * 7, _P_U64)),
    "mul_fields": (None, (_INT, *[_U64] * 4, _P_U64)),
    **{f"sweep_{unit}": (_INT, (_INT, _P_I64, _INT, _P_U64, _P_U64, _P_U64,
                                _INT, _U64, _U64, _U64, _P_I64))
       for unit in UNITS},
}


def _cpu_features() -> str | None:
    """The host CPU's feature list: the flags line of /proc/cpuinfo (Features
    on ARM), or None where there is none to read (macOS, BSD, a locked-down
    /proc)."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip() or None
    except OSError:
        pass
    return None


def _load_kernels(cache: str = os.path.join(os.path.dirname(__file__), "__pycache__"),
                  source: str = _KERNELS_C):
    """The compiled kernels, built from the C file `source` into `cache` on
    first use.

    Where the host CPU's feature list can be read, the build targets that
    CPU (``-march=native``; a compiler that rejects the flag builds once
    more without it) and the library is named by the source's hash and by a
    hash of the feature list, so a cache shared between two machines never
    runs one CPU's instructions on the other.  Elsewhere the build is the
    compiler's portable one, named ``generic``.  The library is written
    under a temporary name first, so concurrent first loads are safe.  A
    build removes the libraries of earlier sources from `cache`.  Returns
    None (pure Python) without a C compiler, when the build fails, when the
    library lacks an export of ``_SIGNATURES`` or when the cache cannot be
    written or loaded.
    """
    with open(source, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    features = _cpu_features()
    cpu = "generic" if features is None else hashlib.sha256(features.encode()).hexdigest()[:16]
    lib = os.path.join(cache, f"_kernels.{digest}.{cpu}.so")
    tmp = f"{lib}.{os.getpid()}.tmp"
    try:
        if not os.path.exists(lib):
            import sysconfig  # only a build needs it

            cc = (sysconfig.get_config_var("CC") or "cc").split()
            if shutil.which(cc[0]) is None:
                return None
            os.makedirs(cache, exist_ok=True)
            for march in (["-march=native"], []) if features else ([],):
                build = subprocess.run([*cc, "-O3", "-std=c99", *march, "-shared", "-fPIC",
                                        source, "-o", tmp], capture_output=True, text=True)
                if not build.returncode:
                    break
            else:
                warnings.warn(f"compiling {source} failed, sweeps run in pure "
                              f"Python:\n{build.stderr}", RuntimeWarning)
                return None
            os.replace(tmp, lib)
            for name in os.listdir(cache):  # libraries built from earlier sources
                stale = os.path.join(cache, name)
                if (name.startswith("_kernels.") and name.endswith(".so")
                        and not name.startswith(f"_kernels.{digest}.")):
                    try:
                        os.unlink(stale)
                    except OSError:  # gone already, or not ours to remove: keep loading
                        pass
        return _open(lib)
    except OSError:
        return None
    except AttributeError as missing:
        warnings.warn(f"{missing}, sweeps run in pure Python", RuntimeWarning)
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(lib: str):
    """The library at path `lib` with every export of ``_SIGNATURES`` typed.
    Raises OSError when it does not load, AttributeError when it lacks an
    export."""
    kernels = ctypes.CDLL(lib)
    for name, (restype, argtypes) in _SIGNATURES.items():
        if not hasattr(kernels, name):
            raise AttributeError(f"{lib} has no export {name}")
        export = getattr(kernels, name)
        export.restype, export.argtypes = restype, argtypes
    return kernels


_C = _UNLOADED = object()  # the loaded kernels, or None for pure Python; see _kernels
_LOADING = threading.Lock()


def _kernels():
    """The compiled kernels, or None: loaded (and built, on a cold cache) by the
    first call, not on import, so commands that run no sweep build nothing."""
    global _C
    with _LOADING:
        if _C is _UNLOADED:
            _C = _load_kernels()
    return _C


# --- chunk runners ---------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _kernel_call(kernels, unit: str, params: Params, fields: tuple[Field, ...],
                 random: bool) -> tuple[Callable, tuple] | None:
    """(kernel, args): the export ``sweep_<unit>`` of `kernels` and the typed
    arguments of a call before its seed, or None when the kernel declines
    the sweep.  Built, and the kernel asked, once per spec."""
    if any(max(f.span, f.base + f.span - 1) >= 1 << 64 for f in fields):
        return None
    kernel = getattr(kernels, f"sweep_{unit}")
    column = _U64 * len(fields)
    args = (params.n, (_I64 * 5)(*UNITS[unit].kernel_args(params.n, params.p)),
            len(fields), column(*(f.span for f in fields)),
            column(*(f.base for f in fields)), column(*(f.slot for f in fields)), random)
    return None if kernel(*args, 0, 0, 0, (_I64 * 2)()) else (kernel, args)


def _kernel_run(kernels, unit: str, params: Params, fields: tuple[Field, ...], mode: str,
                seed: int) -> Callable | None:
    """run(lo, hi), which runs cases [lo, hi) of the sweep on the export
    ``sweep_<unit>`` of `kernels`, or None when the kernel declines the sweep.

    The kernel alone decides: asked with an empty range, once per spec
    (``_kernel_call``), it runs exactly its unit's built-in spec where its
    SWEEP line's ``fits(n, p)`` holds (exhaustive sweeps only below 2^63
    cases, a bound derived from its ``<unit>_spec`` table), and declines
    (returns 1) any other.  A span or a largest value past 2^64 - 1, which ctypes would
    wrap silently, never reaches it.  A kernel call releases the GIL, so
    runs of disjoint ranges run in parallel threads.
    """
    call = _kernel_call(kernels, unit, params, fields, mode == "random")
    if call is None:
        return None
    kernel, args = call

    def run(lo: int, hi: int) -> tuple[int, int]:
        out = (_I64 * 2)()
        kernel(*args, seed, lo, hi, out)
        return out[0], out[1]

    return run


def _split(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total)) if total else 1
    step, extra = divmod(total, workers)
    out = []
    lo = 0
    for w in range(workers):
        hi = lo + step + (1 if w < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def run_verify(unit: str, n: int, *, p: int = 0, mode: str = "exhaustive",
               samples: int = 1_000_000, seed: int = 0, workers: int = 1,
               force_pure: bool = False) -> VerifyReport:
    """Sweep one unit and build its report.

    `workers` is capped at the CPU count; the chunks of a multi-worker sweep
    run on threads, which split only compiled sweeps (pure chunks hold the GIL).
    """
    if unit not in UNITS:
        raise ValueError(f"unknown unit {unit!r}; expected one of {tuple(UNITS)}")
    params = Params(n, p)  # validate bounds
    if p and not UNITS[unit].reads_p:
        raise ValueError(f"{unit} sweeps do not read p, got p={p}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    fields, case = UNITS[unit].build(params)
    total = case_count(fields, mode, samples, seed)
    kernels = None if force_pure else _kernels()
    start = time.perf_counter()
    # The kernel's verdict, asked once: it runs the sweep, or the pure engine does.
    run = None if kernels is None else _kernel_run(kernels, unit, params, fields, mode, seed)
    backend = "pure" if run is None else "compiled"
    if run is None:
        run = functools.partial(sweep, fields, case, mode, seed)
    # os.cpu_count() costs a few µs, a tenth of a short sweep's fixed cost.
    chunks = _split(total, min(workers, os.cpu_count() or 1) if workers > 1 else 1)
    if len(chunks) == 1:
        results = [run(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(run, *zip(*chunks)))
    return report(unit, n, p, mode, seed, backend, fields, case, total, results, start)
