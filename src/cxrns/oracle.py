"""The case engine every sweep runs on, in plain arbitrary-precision Python.

A sweep is a tuple of input ``Field``s and a case function returning
(got, want).  Case ordering is part of the contract: exhaustive sweeps walk
a single flat index over the fields, random sweeps draw each field from a
counter-based splitmix64 stream (Steele, Lea & Flood, OOPSLA 2014) that
the compiled kernels mirror, so results are identical across backends and
across any contiguous partitioning into worker chunks.  The decoders turn
a case range, or one case index, back into field values; ``sweep`` counts
the failing cases of a range and ``report`` merges the chunk counts and
records the lowest failing case as the counterexample.

The module imports no dataflow module: a unit under test reaches it only
inside the case function a sweep is handed, so the engine cannot inherit
a dataflow bug.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import compress, count, islice, product, repeat, starmap
from operator import add, mod, ne
from typing import Callable, NamedTuple

from .reporting import VerifyReport


# --- counter-based PRNG (mirrors the compiled splitmix64 exactly) ------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SLOTS = 8  # counter slots per random case: case idx draws from idx*8 + slot


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _draw(seed: int, counter: int) -> int:
    return _mix64(seed + (counter + 1) * _GOLDEN)


def _draw_range(seed: int, counter: int, span: int) -> int:
    """Draw in [0, span); wide spans consume consecutive counter slots."""
    nd = (span.bit_length() + 63) // 64
    acc = 0
    for t in range(nd):
        acc |= _draw(seed, counter + t) << (64 * t)
    return acc % span


# --- case engine ------------------------------------------------------------------

class Field(NamedTuple):
    """One input of a case, taking the values base .. base + span - 1.

    A random case idx draws it from counter idx*8 + slot.
    """

    name: str
    span: int
    slot: int
    base: int = 0


def case_count(fields: tuple[Field, ...], mode: str, samples: int, seed: int) -> int:
    """Number of cases a sweep over `fields` runs.

    Raises ValueError for a mode, seed or sample count that names no case
    stream, and for a sweep too large to index: the kernels take case
    indices as 64-bit words and return the first failing one as an int64.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if mode == "random":
        if not 1 <= samples <= sys.maxsize:  # none, or a wrapped count, passes vacuously
            raise ValueError(f"random sweeps need samples in [1, 2^63), got {samples}")
        return samples
    total = math.prod(f.span for f in fields)
    if total > sys.maxsize:
        raise ValueError(f"{total} cases are too many to sweep exhaustively; "
                         "use random mode")
    return total


def _draws(seed: int, f: Field, lo: int, hi: int):
    """Values of field `f` for random cases [lo, hi), in case order."""
    first = lo * _SLOTS + f.slot
    if f.span.bit_length() > 64:  # wide draw, see _draw_range
        values = map(_draw_range, repeat(seed), range(first, hi * _SLOTS + f.slot, _SLOTS),
                     repeat(f.span))
    else:  # one _draw per case, as C-level iterator stages
        step = _SLOTS * _GOLDEN
        start = seed + (first + 1) * _GOLDEN
        keys = range(start, start + (hi - lo) * step, step)
        values = map(mod, map(_mix64, keys), repeat(f.span))
    return map(add, values, repeat(f.base)) if f.base else values


def _cases(fields: tuple[Field, ...], mode: str, seed: int, lo: int, hi: int):
    """Field-value tuples of cases [lo, hi); exhaustive order is the flat index."""
    if mode == "exhaustive":
        every = product(*(range(f.base, f.base + f.span) for f in fields))
        # Skipping to lo costs ~10 ns a case, far below a case's own cost.
        return islice(every, lo, hi)
    return zip(*(_draws(seed, f, lo, hi) for f in fields))


def _case_at(fields: tuple[Field, ...], mode: str, seed: int, idx: int) -> list[int]:
    """Field values of the single case `idx`, as `_cases` yields them."""
    if mode == "random":
        return [f.base + _draw_range(seed, idx * _SLOTS + f.slot, f.span) for f in fields]
    values = []
    for f in reversed(fields):
        idx, digit = divmod(idx, f.span)
        values.append(f.base + digit)
    return values[::-1]


def sweep(fields: tuple[Field, ...], case: Callable, mode: str, seed: int,
          lo: int, hi: int) -> tuple[int, int]:
    """Run cases [lo, hi); returns (failures, first failing index or -1)."""
    results = starmap(case, _cases(fields, mode, seed, lo, hi))
    bad = compress(count(lo), starmap(ne, results))  # indices where got != want
    first = next(bad, -1)
    return (first >= 0) + sum(1 for _ in bad), first


def report(unit: str, n: int, p: int, mode: str, seed: int, backend: str,
           fields: tuple[Field, ...], case: Callable, cases: int,
           results: list[tuple[int, int]], start: float) -> VerifyReport:
    """Merge the (failures, first) results of a sweep's chunks, run on
    `backend`, into its report.

    The counterexample is the lowest failing case: its verbatim inputs, in
    field order, plus got/want values.
    """
    bad = [first for _, first in results if first >= 0]
    counterexample = None
    if bad:
        values = _case_at(fields, mode, seed, min(bad))
        counterexample = {f.name: v for f, v in zip(fields, values)}
        counterexample["got"], counterexample["want"] = case(*values)
    return VerifyReport(
        unit=unit,
        n=n,
        p=p,
        mode=mode,
        cases=cases,
        failures=sum(failures for failures, _ in results),
        backend=backend,
        counterexample=counterexample,
        seed=seed if mode == "random" else None,
        wall_time_s=time.perf_counter() - start,
    )
