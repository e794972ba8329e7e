"""Reverse conversion: channel residues back to binary.

The conjugate-pair channel collapses to the flagged modulo-(2^2n + 1) form
through one sparse modular addition (a wide word plus two injected bits),
and a whole residue vector collapses to binary through the New CRT: one
weighted difference sum reduced modulo the tail product, then a single
multiply-accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ComplexChannelResidue,
    Dim1Residue,
    FreshOperand,
    ModuliSet,
    NotInvertible,
    Params,
    RangeExceeded,
    dim1_encode,
)
from .forward import to_channel_operand


def channel_to_dim1(s: ComplexChannelResidue, params: Params) -> Dim1Residue:
    """Collapse a stored-borrow/carry residue to the flagged encoding.

    Sparse adder form: the main operand is the (2n+1)-bit word
    2^2n + 2^n*i + r; the sparse one holds only NOT(borrow) at position 0
    and carry at position n.  The leading 2^2n == -1 absorbs the borrow.
    """
    n = params.n
    main = (1 << (2 * n)) + (s.i << n) + s.r
    sparse = (s.carry << n) | (s.borrow ^ 1)
    return dim1_encode((main + sparse) % params.modulus, params)


def normalize(s: ComplexChannelResidue, params: Params) -> FreshOperand:
    """Re-encode an accumulated residue as a fresh operand of equal value.

    This is what lets a product or sum feed the multiplier again.
    """
    return to_channel_operand(channel_to_dim1(s, params), s.sign, params)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m in [1, m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {m} "
                            f"(gcd = {math.gcd(a, m)})") from None


@dataclass(frozen=True)
class NcrtPlan:
    """Precomputed New-CRT combination constants for one moduli set.

    mu[i] = (prod of moduli[1..i]) * inverse(prod of moduli[0..i]) taken
    modulo the remaining tail product; tail_product is the product of all
    moduli after the first.
    """

    moduli: tuple[int, ...]
    mu: tuple[int, ...]
    tail_product: int


def ncrt_plan(mset: ModuliSet) -> NcrtPlan:
    """Build the combination plan; channel order is used as given.

    A Gaussian pair contributes its joint integer modulus 2^2n + 1 (its
    residue reaches the plan through channel_to_dim1).
    """
    moduli = mset.moduli
    k = len(moduli)
    mu = []
    for i in range(1, k):
        lead = math.prod(moduli[1:i], start=1)
        head = math.prod(moduli[:i], start=1)
        tail = math.prod(moduli[i:], start=1)
        mu.append(lead * mod_inverse(head, tail))
    tail_product = math.prod(moduli[1:], start=1)
    return NcrtPlan(moduli, tuple(mu), tail_product)


def ncrt_reverse(residues: Sequence[int], plan: NcrtPlan) -> int:
    """Recombine residues into the unique X in [0, M) they represent."""
    if len(residues) != len(plan.moduli):
        raise ValueError(
            f"expected {len(plan.moduli)} residues, got {len(residues)}"
        )
    for idx, (x, m) in enumerate(zip(residues, plan.moduli)):
        if not 0 <= x < m:
            raise RangeExceeded(
                f"residue {x} out of range [0, {m}) on channel {idx}"
            )
    acc = 0
    for i, mu_i in enumerate(plan.mu):
        acc += mu_i * (residues[i + 1] - residues[i])
    return residues[0] + plan.moduli[0] * (acc % plan.tail_product)
