"""Word-level dataflow models of the conjugate-channel adder and multiplier.

The units mirror the hardware stage structure — lookup-table partial
products, (4;2) compressors, carry-save rows, final n-bit adders — at word
granularity, so every carry bit that the hardware would wire somewhere is
an explicit field here.  Cross-coupling rule for carry-outs: a real
carry-out weighs 2^n == -+j and lands on the imaginary part as a stored
carry; an imaginary carry-out weighs -+j * 2^n == -1 and lands on the real
part as a stored borrow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import ComplexChannelResidue, FreshOperand, Params, canonical_zero


def _add_fields(n: int, xr: int, xi: int, xz: int,
                yr: int, yb: int, yi: int, yc: int) -> tuple[int, int, int, int]:
    """Adder dataflow on raw fields; returns (r, borrow, i, carry)."""
    mask = (1 << n) - 1
    xnz = xz ^ 1
    sr = xr + yr + ((yb ^ 1) & xnz)
    si = xi + yi + (yc & xnz)
    cn = sr >> n        # real carry-out
    cpn = si >> n       # imaginary carry-out
    # Zero operand forces cn = cpn = 0, so OR merges without aliasing.
    return sr & mask, cpn | (yb & xz), si & mask, cn | (yc & xz)


def add_fresh(x: FreshOperand, y: ComplexChannelResidue, params: Params) -> ComplexChannelResidue:
    """Add a fresh operand into an accumulated channel residue.

    Result value is (value(x) + value(y)) mod (2^2n + 1); the two n-bit
    sums never propagate a carry into each other — the carry-outs become
    the stored borrow/carry of the result.
    """
    if x.sign is not y.sign:
        raise ValueError("operands must live on the same conjugate channel")
    fields = _add_fields(params.n, x.xr, x.xi, x.zflag, y.r, y.borrow, y.i, y.carry)
    return ComplexChannelResidue(*fields, x.sign)


@dataclass(frozen=True)
class PartialProducts:
    """The four multiplier partial products in high/low halves.

    (1 + xr)(1 + yr) = 2^2n*c + 2^n*h_rr + l_rr
    (1 + xr) * yi    = 2^n*h_ri + l_ri
    xi * (1 + yr)    = 2^n*h_ir + l_ir
    xi * yi          = 2^n*h_ii + l_ii
    """

    c: int
    h_rr: int
    l_rr: int
    h_ri: int
    l_ri: int
    h_ir: int
    l_ir: int
    h_ii: int
    l_ii: int


def lut_partials(x: FreshOperand, y: FreshOperand, params: Params) -> PartialProducts:
    """Partial products of the nonzero multiplier path (zero path bypasses)."""
    if x.zflag or y.zflag:
        raise ValueError("partial products are only defined on the nonzero path")
    return _mul_fields(params.n, x.xr, x.xi, y.xr, y.xi, trace=True)[1].partials


@dataclass(frozen=True)
class CompressorOutput:
    """(4;2) compression result: u + v + 2^n*(c_out + v_out) preserves the sum."""

    u: int
    v: int
    c_out: int
    v_out: int


def _compress42(n: int, a: int, b: int, c: int, d: int,
                t_in: int, v_in: int) -> tuple[int, int, int, int]:
    """Word-parallel (4;2) compressor built from two full-adder ranks.

    t_in enters the first rank's LSB column; v_in occupies the free LSB of
    the shifted second-rank carry word.
    """
    mask = (1 << n) - 1
    p = a ^ b ^ c
    t = (((a & b) | (a & c) | (b & c)) << 1) | t_in
    u = (p ^ d ^ t) & mask
    vw = ((((p & d) | (p & t) | (d & t)) & mask) << 1) | v_in
    return u, vw & mask, t >> n, vw >> n


def compress42(a: int, b: int, c: int, d: int, carry_ins: Sequence[int],
               params: Params) -> CompressorOutput:
    """Compress four n-bit words plus up to two carry-in bits."""
    if len(carry_ins) > 2:
        raise ValueError("a (4;2) compressor accepts at most two carry-in bits")
    t_in, v_in = (*carry_ins, 0, 0)[:2]
    if t_in not in (0, 1) or v_in not in (0, 1):
        raise ValueError("carry-ins must be single bits")
    mask = params.mask
    if not (0 <= a <= mask and 0 <= b <= mask and 0 <= c <= mask and 0 <= d <= mask):
        raise ValueError("operand words must fit n bits")
    return CompressorOutput(*_compress42(params.n, a, b, c, d, t_in, v_in))


@dataclass(frozen=True)
class MulTrace:
    """Stage-by-stage intermediates of one multiplication."""

    partials: PartialProducts
    real_stage: CompressorOutput
    imag_stage: CompressorOutput
    real_rows: tuple[int, int]  # final adder operands (w, z), +1 implied
    imag_rows: tuple[int, int]


def _mul_fields(n: int, xr: int, xi: int, yr: int, yi: int, trace: bool = False):
    """Multiplier dataflow on raw nonzero-path fields; returns (r, borrow, i, carry).

    With ``trace`` the result is ((r, borrow, i, carry), MulTrace).
    """
    mask = (1 << n) - 1

    p1 = (1 + xr) * (1 + yr)
    p2 = (1 + xr) * yi
    p3 = xi * (1 + yr)
    p4 = xi * yi
    c = p1 >> (2 * n)
    h_rr = (p1 >> n) & mask
    l_rr = p1 & mask

    # Real column stack: l_rr + ~l_ii + ~h_ri + ~h_ir + ~c.
    u, vh, cn, vn = _compress42(
        n, l_rr, (p4 & mask) ^ mask, (p2 >> n) ^ mask, (p3 >> n) ^ mask, c ^ 1, 0
    )
    # Imaginary column stack: h_rr + l_ri + l_ir + ~h_ii, absorbing the real
    # stage's carry-outs (each weighs 2^n == -+j).
    u2, vh2, cn2, vn2 = _compress42(
        n, h_rr, p2 & mask, p3 & mask, (p4 >> n) ^ mask, cn, vn
    )

    # Carry-save rows.  The imaginary stage's carry-outs re-cross to the real
    # side complemented (weight 2^2n == -1); the constant 2^n - 2 keeps the
    # imaginary row non-negative.
    b1 = vh | (vn2 ^ 1)
    d1 = cn2 ^ 1
    w = u ^ b1 ^ d1
    carry = ((u & b1) | (u & d1) | (b1 & d1)) << 1
    const = mask ^ 1  # 2^n - 2
    w2 = u2 ^ vh2 ^ const
    carry2 = ((u2 & vh2) | (u2 & const) | (vh2 & const)) << 1
    # Each carry word's LSB slot is free; it hosts the bit crossing over
    # from the opposite side (complemented when the weight flips sign).
    z = (carry & mask) | ((carry2 >> n) ^ 1)
    z2 = (carry2 & mask) | (carry >> n)

    # Final n-bit adders; the real one carries the pending +1.  Real
    # carry-out becomes the stored carry, imaginary carry-out the borrow.
    sr = w + z + 1
    si = w2 + z2
    fields = sr & mask, si >> n, si & mask, sr >> n
    if not trace:
        return fields
    partials = PartialProducts(c, h_rr, l_rr, p2 >> n, p2 & mask, p3 >> n, p3 & mask,
                               p4 >> n, p4 & mask)
    return fields, MulTrace(partials, CompressorOutput(u, vh, cn, vn),
                            CompressorOutput(u2, vh2, cn2, vn2), (w, z), (w2, z2))


def mul(x: FreshOperand, y: FreshOperand, params: Params) -> ComplexChannelResidue:
    """Multiply two fresh operands on one conjugate channel.

    Result value is (value(x) * value(y)) mod (2^2n + 1).  Either zero flag
    gates the whole pipeline off to the canonical zero.
    """
    if x.sign is not y.sign:
        raise ValueError("operands must live on the same conjugate channel")
    if x.zflag or y.zflag:
        return canonical_zero(x.sign)
    fields = _mul_fields(params.n, x.xr, x.xi, y.xr, y.xi)
    return ComplexChannelResidue(*fields, x.sign)


def mul_trace(x: FreshOperand, y: FreshOperand, params: Params) -> tuple[ComplexChannelResidue, Optional[MulTrace]]:
    """Multiply and expose per-stage intermediates (None on the zero path)."""
    if x.sign is not y.sign:
        raise ValueError("operands must live on the same conjugate channel")
    if x.zflag or y.zflag:
        return canonical_zero(x.sign), None
    fields, trace = _mul_fields(params.n, x.xr, x.xi, y.xr, y.xi, trace=True)
    return ComplexChannelResidue(*fields, x.sign), trace


def intermediate_ri(x: FreshOperand, y: FreshOperand, params: Params) -> tuple[int, int]:
    """Pre-reduction word sums (R, I) of the product derivation.

    Checkpoint between the partial-product identities and the compressor
    schedule: (R + 2^n * I) mod (2^2n + 1) equals the true modular product.
    I may be slightly negative; both are plain integers.
    """
    pp = lut_partials(x, y, params)
    mask = params.mask
    r = pp.l_rr + (pp.l_ii ^ mask) + (pp.h_ri ^ mask) + (pp.h_ir ^ mask) + (pp.c ^ 1) + 3
    i = pp.h_rr + pp.l_ri + pp.l_ir + (pp.h_ii ^ mask) - 2
    return r, i
