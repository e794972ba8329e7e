"""Residue encodings, channel parameters, and the moduli-set model.

The composite channel modulus is 2^2n + 1, factored over the Gaussian
integers into the conjugate pair 2^n - j and 2^n + j (j^2 = -1).  Both
conjugate channels carry the same integer information because
j == 2^n (mod 2^n - j) and j == -2^n (mod 2^n + j); all word-level
dataflow is therefore sign-independent and the sign merely labels the
algebraic interpretation.

Two encodings are used throughout:

* ``Dim1Residue`` -- a value X in [0, 2^2n] held as a 2n-bit word plus a
  zero flag, with X = bits + (1 - zflag).  The flag set means "value 0"
  and forces bits = 0.
* ``ComplexChannelResidue`` -- the accumulated stored-borrow /
  stored-carry channel form.  Its integer value is
  (r - borrow + 2^n * (i + carry)) mod (2^2n + 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union


class RnsError(Exception):
    """Base class for all library errors."""


class CoprimalityViolation(RnsError):
    """Two channel moduli share a common factor."""

    def __init__(self, a: "Descriptor", b: "Descriptor", gcd: int):
        self.pair = (a, b)
        self.gcd = gcd
        super().__init__(f"moduli {a} and {b} share the factor {gcd}")


class NotInvertible(RnsError):
    """Requested modular inverse does not exist."""


class RangeExceeded(RnsError):
    """Input value is outside the representable range."""


@dataclass(frozen=True)
class Params:
    """Channel parameterization: n-bit channel width, power-of-two extension p.

    The full adaptive moduli set is {2^(n+p), 2^n - 1, 2^n + 1, 2^n -+ j};
    p = 0 gives the plain four-modulus form.  n is capped at 31 so every
    internal channel sum fits a 64-bit accumulator; only dynamic ranges
    use arbitrary precision.  p is any integer from 0: ``f_set``,
    ``forward_std``, ``ncrt_plan`` and ``ncrt_reverse`` are exact for every
    p, and the roundtrip sweep kernel declines the p its New-CRT sum does
    not fit, which then runs on the pure engine.  The paper's 32-bit set is
    ``f_set(5, 7)``.  The word constants below are computed on first use
    and then kept; fields, equality, hash and repr are (n, p).
    """

    n: int
    p: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 31:
            raise ValueError(f"channel width n must be in [2, 31], got {self.n}")
        if self.p < 0:
            raise ValueError(f"extension exponent p must be >= 0, got {self.p}")

    @cached_property
    def mask(self) -> int:
        """n-bit word mask 2^n - 1."""
        return (1 << self.n) - 1

    @cached_property
    def wide_mask(self) -> int:
        """2n-bit word mask 2^2n - 1."""
        return (1 << (2 * self.n)) - 1

    @cached_property
    def modulus(self) -> int:
        """Composite channel modulus 2^2n + 1."""
        return (1 << (2 * self.n)) + 1

    @cached_property
    def wide_range(self) -> int:
        """Bound of the 5n-bit wide inputs: 2^n * (2^4n - 1)."""
        return (1 << self.n) * ((1 << (4 * self.n)) - 1)


class ChannelSign(enum.Enum):
    """Which conjugate modulus a residue lives under."""

    MINUS = "2^n-j"
    PLUS = "2^n+j"


# The residue types below are frozen dataclasses with a hand-written
# __init__: it runs the type's field checks, if it has any, and stores the
# fields straight into the instance __dict__.  The __init__ a frozen
# dataclass generates goes through object.__setattr__ per field and costs
# about three times as much.  Equality, hashing, repr, immutability,
# dataclasses.replace and pickling stay the dataclass's own.

@dataclass(frozen=True, init=False)
class Dim1Residue:
    """Flag-encoded modulo-(2^2n + 1) residue: value = bits + (1 - zflag)."""

    bits: int
    zflag: int

    def __init__(self, bits: int, zflag: int) -> None:
        if zflag not in (0, 1):
            raise ValueError("zflag must be a single bit")
        if zflag and bits:
            raise ValueError("zflag set requires bits == 0")
        if bits < 0:
            raise ValueError("bits must be non-negative")
        fields = self.__dict__
        fields["bits"] = bits
        fields["zflag"] = zflag


def dim1_encode(x: int, params: Params) -> Dim1Residue:
    """Encode x in [0, 2^2n] into the flagged form."""
    if not 0 <= x <= (1 << (2 * params.n)):
        raise RangeExceeded(f"value {x} outside [0, 2^{2 * params.n}]")
    if x == 0:
        return Dim1Residue(0, 1)
    return Dim1Residue(x - 1, 0)


def dim1_value(r: Dim1Residue) -> int:
    """Decode the flagged form; inverse of dim1_encode."""
    return r.bits + (1 - r.zflag)


@dataclass(frozen=True, init=False)
class ComplexChannelResidue:
    """Stored-borrow (real) / stored-carry (imaginary) channel residue.

    r and i are n-bit magnitudes; borrow and carry are the deferred
    end-around bits that cross between the parts (a real carry-out weighs
    -+j, an imaginary one weighs -1, hence the asymmetric names).
    """

    r: int
    borrow: int
    i: int
    carry: int
    sign: ChannelSign = ChannelSign.MINUS

    def __init__(self, r: int, borrow: int, i: int, carry: int,
                 sign: ChannelSign = ChannelSign.MINUS) -> None:
        fields = self.__dict__
        fields["r"] = r
        fields["borrow"] = borrow
        fields["i"] = i
        fields["carry"] = carry
        fields["sign"] = sign


def canonical_zero(sign: ChannelSign = ChannelSign.MINUS) -> ComplexChannelResidue:
    """The all-zero-fields representation of value 0."""
    return ComplexChannelResidue(0, 0, 0, 0, sign)


def channel_value(res: ComplexChannelResidue, params: Params) -> int:
    """Integer value of a channel residue: (r - borrow + 2^n*(i + carry)) mod 2^2n+1.

    Independent of the sign field: both conjugate channels map onto the
    same integer ring.
    """
    return (res.r - res.borrow + ((res.i + res.carry) << params.n)) % params.modulus


def residue_from_value(v: int, params: Params, sign: ChannelSign = ChannelSign.MINUS) -> ComplexChannelResidue:
    """Build a channel residue whose value is v, for seeding accumulators."""
    if not 0 <= v <= (1 << (2 * params.n)):
        raise RangeExceeded(f"value {v} outside [0, 2^{2 * params.n}]")
    if v <= params.wide_mask:
        return ComplexChannelResidue(v & params.mask, 0, v >> params.n, 0, sign)
    return ComplexChannelResidue(0, 0, params.mask, 1, sign)


@dataclass(frozen=True, init=False)
class FreshOperand:
    """Channel operand straight out of the forward converter.

    Value is xr + (1 - zflag) + 2^n * xi; under the conjugate moduli this
    reads (xr + NOT zflag) -+ j*xi.  zflag set means value 0 and forces
    xr = xi = 0.
    """

    xr: int
    xi: int
    zflag: int
    sign: ChannelSign = ChannelSign.MINUS

    def __init__(self, xr: int, xi: int, zflag: int,
                 sign: ChannelSign = ChannelSign.MINUS) -> None:
        if zflag not in (0, 1):
            raise ValueError("zflag must be a single bit")
        if zflag and (xr or xi):
            raise ValueError("zflag set requires xr == xi == 0")
        fields = self.__dict__
        fields["xr"] = xr
        fields["xi"] = xi
        fields["zflag"] = zflag
        fields["sign"] = sign


def operand_value(x: FreshOperand, params: Params) -> int:
    """Integer value of a fresh operand."""
    return (x.xr + (1 - x.zflag) + (x.xi << params.n)) % params.modulus


# --- moduli-set descriptors -------------------------------------------------

@dataclass(frozen=True)
class PowerOfTwo:
    """Channel modulus 2^k; residues are plain truncation."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("power-of-two exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return 1 << self.k

    @property
    def width(self) -> int:
        return self.k

    def __str__(self) -> str:
        return f"2^{self.k}"


@dataclass(frozen=True)
class IntModulus:
    """Plain odd integer channel modulus (covers 2^t -+ 1 and friends)."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError(f"integer channel modulus must be odd and >= 3, got {self.m}")

    @property
    def modulus(self) -> int:
        return self.m

    @property
    def width(self) -> int:
        return self.m.bit_length()

    def __str__(self) -> str:
        return str(self.m)


@dataclass(frozen=True)
class GaussianPair:
    """Conjugate channel pair 2^n -+ j, jointly worth the integer modulus 2^2n + 1.

    Datapath width is n + 1 bits per part (n-bit magnitude plus the
    stored borrow/carry bit).
    """

    n: int

    def __post_init__(self) -> None:
        Params(self.n)  # reuse the width bounds

    @property
    def modulus(self) -> int:
        return (1 << (2 * self.n)) + 1

    @property
    def width(self) -> int:
        return self.n + 1

    def __str__(self) -> str:
        return f"g{self.n}"


Descriptor = Union[PowerOfTwo, IntModulus, GaussianPair]


@dataclass(frozen=True)
class ModuliSet:
    """Ordered, pairwise co-prime channels with their combined dynamic range."""

    channels: tuple[Descriptor, ...]
    dynamic_range: int

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        """The channel moduli in channel order; a Gaussian pair counts 2^2n + 1."""
        return tuple(c.modulus for c in self.channels)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.channels) + "}"


def coprimality_violations(descriptors: tuple[Descriptor, ...] | list[Descriptor]) -> list[CoprimalityViolation]:
    """All pairwise common-factor violations among the channel moduli."""
    out = []
    for a_idx in range(len(descriptors)):
        for b_idx in range(a_idx + 1, len(descriptors)):
            a, b = descriptors[a_idx], descriptors[b_idx]
            g = math.gcd(a.modulus, b.modulus)
            if g != 1:
                out.append(CoprimalityViolation(a, b, g))
    return out


def moduli_set_build(descriptors) -> ModuliSet:
    """Validate pairwise co-primality and compute the dynamic range."""
    channels = tuple(descriptors)
    if not channels:
        raise ValueError("moduli set must not be empty")
    violations = coprimality_violations(channels)
    if violations:
        raise violations[0]
    dr = math.prod(c.modulus for c in channels)
    return ModuliSet(channels, dr)


def f_set(n: int, p: int = 0) -> tuple[Descriptor, ...]:
    """Descriptors of the adaptive set {2^(n+p), 2^n - 1, 2^n + 1, 2^n -+ j}.

    The power-of-two channel comes first so the reverse converter's final
    step stays a Mersenne-form modular addition.
    """
    params = Params(n, p)
    return (
        PowerOfTwo(params.n + params.p),
        IntModulus((1 << n) - 1),
        IntModulus((1 << n) + 1),
        GaussianPair(n),
    )
