"""Bit-exact modulo-(2^2n + 1) arithmetic over two conjugate complex-residue channels."""

from .core import (
    ChannelSign,
    ComplexChannelResidue,
    CoprimalityViolation,
    Dim1Residue,
    FreshOperand,
    GaussianPair,
    IntModulus,
    ModuliSet,
    NotInvertible,
    Params,
    PowerOfTwo,
    RangeExceeded,
    RnsError,
    canonical_zero,
    channel_value,
    dim1_encode,
    dim1_value,
    f_set,
    moduli_set_build,
    operand_value,
    residue_from_value,
)
from .forward import (
    CsaPair,
    csa_mod_22n1,
    forward_22n1,
    forward_std,
    split_input,
    to_channel_operand,
)
from .alu import (
    CompressorOutput,
    MulTrace,
    PartialProducts,
    add_fresh,
    compress42,
    intermediate_ri,
    lut_partials,
    mul,
    mul_trace,
)
from .reverse import (
    NcrtPlan,
    channel_to_dim1,
    mod_inverse,
    ncrt_plan,
    ncrt_reverse,
    normalize,
)
from .reporting import DrReport, VerifyReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
