"""Forward conversion: wide binary input to channel residues.

The wide path reduces a 5n-bit input modulo 2^2n + 1 with a carry-save
stage whose position-2n carry is folded end-around as a complemented LSB
(2^2n == -1 lets a subtraction ride along as complement-plus-one), then a
single conditional wrap.  The resulting (2n+1)-bit word *is* the flagged
encoding: reinterpreting its top bit as the zero flag absorbs the final
+1 adjustment with no arithmetic.

Splitting a flagged residue into the complex channel operand is pure
field routing, also free of arithmetic.

The per-channel residues of a whole moduli set (forward_std) are plain
remainders z mod m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ChannelSign,
    Dim1Residue,
    FreshOperand,
    ModuliSet,
    Params,
    RangeExceeded,
)


def split_input(z: int, params: Params) -> tuple[int, int, int]:
    """Split a 5n-bit input into (Z2, Z1, Z0) of widths n, 2n, 2n."""
    if not 0 <= z < params.wide_range:
        raise RangeExceeded(f"input {z} outside [0, {params.wide_range})")
    n2 = 2 * params.n
    wmask = params.wide_mask
    return z >> (4 * params.n), (z >> n2) & wmask, z & wmask


@dataclass(frozen=True)
class CsaPair:
    """Carry-save pair with the end-around-inverted bit already folded in.

    Satisfies (u + v) mod (2^2n + 1) = (z2 + ~z1 + z0 + 1) mod (2^2n + 1),
    the complement taken over 2n bits.
    """

    u: int
    v: int


def _csa(z2: int, z1: int, z0: int, params: Params) -> tuple[int, int]:
    """The carry-save stage of csa_mod_22n1 on plain ints; returns (u, v)."""
    wmask = params.wide_mask
    z1bar = z1 ^ wmask
    u = z2 ^ z1bar ^ z0
    carry = ((z2 & z1bar) | (z2 & z0) | (z1bar & z0)) << 1
    top = carry >> (2 * params.n)
    # carry-out weighs 2^2n == -1: fold as complemented LSB, one unit of the
    # pending +1 absorbed.  The carry word's LSB slot is free by construction.
    return u, (carry & wmask) | (top ^ 1)


def csa_mod_22n1(z2: int, z1: int, z0: int, params: Params) -> CsaPair:
    """One modulo-(2^2n + 1) carry-save stage over (z2, ~z1, z0)."""
    return CsaPair(*_csa(z2, z1, z0, params))


def forward_22n1(z: int, params: Params) -> Dim1Residue:
    """Reduce a wide input modulo 2^2n + 1 into the flagged encoding."""
    u, v = _csa(*split_input(z, params), params)
    t = u + v
    if t >= params.modulus:
        t -= params.modulus
    # t in [0, 2^2n]; its top bit doubles as the zero flag.
    return Dim1Residue(t & params.wide_mask, t >> (2 * params.n))


def to_channel_operand(r: Dim1Residue, sign: ChannelSign, params: Params) -> FreshOperand:
    """Route a flagged residue into (xr, xi, zflag); no arithmetic involved."""
    return FreshOperand(r.bits & params.mask, r.bits >> params.n, r.zflag, sign)


def forward_std(z: int, mset: ModuliSet) -> list[int]:
    """Residues of z on every channel of the set, in channel order.

    Each is the plain remainder z mod m over the set's moduli.  A Gaussian
    pair contributes one integer residue in [0, 2^2n]; its flagged/operand
    views come from dim1_encode and to_channel_operand.
    """
    if not 0 <= z < mset.dynamic_range:
        raise RangeExceeded(
            f"input {z} outside the dynamic range [0, {mset.dynamic_range}) of {mset}"
        )
    return [z % m for m in mset.moduli]
