"""Command-line front end: conversion, channel-op simulation, verification
sweeps, and moduli-set dynamic-range reports.

Set grammar: a comma-separated list of channels — plain integers (powers of
two become truncation channels, odd integers become generic channels),
"2^k" for explicit powers of two, and "g<n>" for the conjugate pair
2^n -+ j.  The shorthand "f:n=N[,p=P]" expands to the adaptive set
{2^(n+p), 2^n-1, 2^n+1, g<n>}.

Exit codes: 0 on success, 1 when a verification sweep (or an op
cross-check) fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional, Sequence

from . import alu, forward, reverse, sweeps
from .core import (
    ChannelSign,
    Descriptor,
    GaussianPair,
    IntModulus,
    Params,
    PowerOfTwo,
    RangeExceeded,
    RnsError,
    channel_value,
    coprimality_violations,
    dim1_encode,
    moduli_set_build,
    f_set,
    residue_from_value,
)
from .reporting import MULTIPLIER_STAGES, DrReport, dumps_report


class SetSyntaxError(ValueError):
    """Moduli-set text did not parse."""


def parse_set(text: str) -> tuple[Descriptor, ...]:
    """Parse the channel grammar into descriptors (order preserved)."""
    text = text.strip()
    if text.startswith("f:"):
        values = {}
        for piece in text[2:].split(","):
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in ("n", "p"):
                raise SetSyntaxError(f"unknown f-set parameter {key!r} in {text!r}")
            if key in values:
                raise SetSyntaxError(f"f-set parameter {key!r} given twice in {text!r}")
            values[key] = int(value)
        if "n" not in values:
            raise SetSyntaxError(f"f-set needs n=<width>: {text!r}")
        try:
            return f_set(values["n"], values.get("p", 0))
        except ValueError as exc:
            raise SetSyntaxError(str(exc)) from exc
    out: list[Descriptor] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise SetSyntaxError(f"empty channel in {text!r}")
        try:
            if item.startswith("g"):
                out.append(GaussianPair(int(item[1:])))
            elif item.startswith("2^"):
                out.append(PowerOfTwo(int(item[2:])))
            else:
                value = int(item)
                if value >= 2 and value & (value - 1) == 0:
                    out.append(PowerOfTwo(value.bit_length() - 1))
                else:
                    out.append(IntModulus(value))
        except ValueError as exc:
            raise SetSyntaxError(f"bad channel {item!r}: {exc}") from exc
    if not out:
        raise SetSyntaxError("empty moduli set")
    return tuple(out)


def dr_report(text: str) -> DrReport:
    """Dynamic-range report for one set; co-primality surfaced, not fatal."""
    descriptors = parse_set(text)
    violations = coprimality_violations(descriptors)
    has_gaussian = any(isinstance(d, GaussianPair) for d in descriptors)
    return DrReport(
        set_text=text.strip(),
        channels=tuple(str(d) for d in descriptors),
        dynamic_range=math.prod(d.modulus for d in descriptors),
        max_channel_width=max(d.width for d in descriptors),
        coprime=not violations,
        violation=str(violations[0]) if violations else None,
        stage_levels=MULTIPLIER_STAGES if has_gaussian else (),
    )


# --- subcommands ---------------------------------------------------------------

def _cmd_convert(args) -> int:
    mset = moduli_set_build(parse_set(args.set))
    if args.forward is not None:
        residues = forward.forward_std(args.forward, mset)
        if args.json:
            print(dumps_report({"set": args.set, "direction": "forward",
                                "value": args.forward, "residues": residues}))
        else:
            pairs = ", ".join(f"{d}={r}" for d, r in zip(mset.channels, residues))
            print(f"{args.forward} -> [{', '.join(str(r) for r in residues)}]  ({pairs})")
        return 0
    residues = [int(x) for x in args.reverse.split(",")]
    plan = reverse.ncrt_plan(mset)
    try:
        value = reverse.ncrt_reverse(residues, plan)
    except RangeExceeded as exc:
        raise RangeExceeded(
            str(exc) + f" (channels: {', '.join(str(d) for d in mset.channels)})"
        ) from exc
    if args.json:
        print(dumps_report({"set": args.set, "direction": "reverse",
                            "residues": residues, "value": value}))
    else:
        print(value)
    return 0


def _trace_lines(trace: alu.MulTrace, n: int) -> list[str]:
    pp = trace.partials

    def w(v: int) -> str:
        return format(v, f"0{n}b")

    real, imag = trace.real_stage, trace.imag_stage
    lines = [
        "lut partial products:",
        f"  (1+xr)(1+yr) = c:{pp.c} h_rr:{w(pp.h_rr)} l_rr:{w(pp.l_rr)}",
        f"  (1+xr)*yi    = h_ri:{w(pp.h_ri)} l_ri:{w(pp.l_ri)}",
        f"  xi*(1+yr)    = h_ir:{w(pp.h_ir)} l_ir:{w(pp.l_ir)}",
        f"  xi*yi        = h_ii:{w(pp.h_ii)} l_ii:{w(pp.l_ii)}",
        "(4;2) compressors:",
        f"  real: u:{w(real.u)} v:{w(real.v)} c_out:{real.c_out} v_out:{real.v_out}",
        f"  imag: u:{w(imag.u)} v:{w(imag.v)} c_out:{imag.c_out} v_out:{imag.v_out}",
        "carry-save adders:",
        f"  real rows -> w:{w(trace.real_rows[0])} z:{w(trace.real_rows[1])} (+1 pending)",
        f"  imag rows -> w:{w(trace.imag_rows[0])} z:{w(trace.imag_rows[1])} (const {2**n - 2} folded)",
    ]
    return lines


def _cmd_op(args) -> int:
    if args.trace and args.op != "mul":
        raise ValueError(f"--trace is only available for mul, not {args.op}")
    params = Params(args.n)
    top = 1 << (2 * params.n)
    for name, v in (("x", args.x), ("y", args.y)):
        if not 0 <= v <= top:
            raise RangeExceeded(f"operand {name}={v} outside [0, {top}]")
    sign = ChannelSign.MINUS
    x = forward.to_channel_operand(dim1_encode(args.x, params), sign, params)
    trace = None
    if args.op == "add":
        y = residue_from_value(args.y, params, sign)
        res = alu.add_fresh(x, y, params)
        want = (args.x + args.y) % params.modulus
    else:
        yf = forward.to_channel_operand(dim1_encode(args.y, params), sign, params)
        res, trace = alu.mul_trace(x, yf, params)
        want = (args.x * args.y) % params.modulus
    got = channel_value(res, params)
    match = got == want
    if args.json:
        doc = {"op": args.op, "n": args.n, "x": args.x, "y": args.y,
               "result": {"r": res.r, "borrow": res.borrow, "i": res.i,
                          "carry": res.carry},
               "value": got, "oracle": want, "match": match}
        if args.trace:  # null when a zero operand bypassed the pipeline
            doc["trace"] = None if trace is None else dataclasses.asdict(trace)
        print(dumps_report(doc))
    else:
        print(f"{args.op} {args.x} {args.y}  (n={args.n})")
        print(f"  fields: r={res.r} borrow={res.borrow} i={res.i} carry={res.carry}")
        print(f"  value:  {got}   oracle: {want}   {'match' if match else 'MISMATCH'}")
        if args.trace and trace is None:
            print("  no trace: a zero operand bypasses the multiplier pipeline")
        elif args.trace:
            for line in _trace_lines(trace, params.n):
                print("  " + line)
    return 0 if match else 1


def _cmd_verify(args) -> int:
    mode = "random" if args.random else "exhaustive"
    report = sweeps.run_verify(
        args.unit, args.n, p=args.p, mode=mode, samples=args.samples,
        seed=args.seed, workers=args.workers,
    )
    if args.json:
        print(report.to_json())
    else:
        status = "ok" if report.ok else "FAIL"
        ext = f" p={report.p}" if report.p else ""
        print(f"verify {report.unit} n={report.n}{ext} {report.mode}: "
              f"cases={report.cases} failures={report.failures} "
              f"({report.wall_time_s:.3f}s) [{report.backend}] {status}")
        if report.counterexample:
            print(f"  first counterexample: {report.counterexample}")
    return 0 if report.ok else 1


def _cmd_dr(args) -> int:
    reports = [dr_report(text) for text in args.sets]
    if args.json:
        print(dumps_report([r.to_dict() for r in reports]))
        return 0
    header = f"{'set':<28} {'DR':>16} {'bits':>5} {'maxw':>5}  coprime"
    print(header)
    print("-" * len(header))
    for r in reports:
        note = "yes" if r.coprime else f"NO ({r.violation})"
        print(f"{r.set_text:<28} {r.dynamic_range:>16,} {r.bit_coverage:>5} "
              f"{r.max_channel_width:>5}  {note}")
    gaussian = [r for r in reports if r.stage_levels]
    if gaussian:
        print("\ngaussian-channel multiplier stages:")
        for stage in gaussian[0].stage_levels:
            dg = f"{stage['delta_g']}dG" if stage["delta_g"] else "-"
            print(f"  {stage['stage']:<24} {dg}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    parser = argparse.ArgumentParser(
        prog="cxrns",
        description="Complex-residue channel arithmetic: convert, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", parents=[common],
                               help="forward/reverse residue conversion")
    p_convert.add_argument("--set", required=True, help="moduli set, e.g. f:n=2 or 7,9,16,g3")
    group = p_convert.add_mutually_exclusive_group(required=True)
    group.add_argument("--forward", type=int, metavar="Z",
                       help="integer to convert to residues")
    group.add_argument("--reverse", metavar="R1,R2,...",
                       help="comma-separated residues to recombine")
    p_convert.set_defaults(func=_cmd_convert)

    p_op = sub.add_parser("op", parents=[common],
                          help="simulate one channel add/mul with oracle cross-check")
    p_op.add_argument("op", choices=("add", "mul"))
    p_op.add_argument("x", type=int)
    p_op.add_argument("y", type=int)
    p_op.add_argument("--n", type=int, required=True, help="channel width")
    p_op.add_argument("--trace", action="store_true", help="dump per-stage words (mul only)")
    p_op.set_defaults(func=_cmd_op)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="exhaustive/randomized unit verification")
    p_verify.add_argument("unit", choices=tuple(sweeps.UNITS))
    p_verify.add_argument("--n", type=int, required=True, help="channel width")
    p_verify.add_argument("--p", type=int, default=0,
                          help="power-of-two extension of the roundtrip set "
                               "(other units reject p != 0)")
    p_verify.add_argument("--random", action="store_true",
                          help="seeded random cases instead of the exhaustive space")
    p_verify.add_argument("--samples", type=int, default=1_000_000,
                          help="cases in random mode")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="worker threads (at most the CPU count)")
    p_verify.set_defaults(func=_cmd_verify)

    p_dr = sub.add_parser("dr", parents=[common],
                          help="dynamic-range report for one or more moduli sets")
    p_dr.add_argument("sets", nargs="+", help="set strings (see convert --set)")
    p_dr.set_defaults(func=_cmd_dr)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RnsError) as exc:  # SetSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
