"""Residue encodings, value maps, and the moduli-set model."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cxrns
from cxrns.core import (
    ChannelSign,
    ComplexChannelResidue,
    CoprimalityViolation,
    Dim1Residue,
    FreshOperand,
    GaussianPair,
    IntModulus,
    ModuliSet,
    Params,
    PowerOfTwo,
    RangeExceeded,
    canonical_zero,
    channel_value,
    dim1_encode,
    dim1_value,
    f_set,
    moduli_set_build,
    operand_value,
    residue_from_value,
)
from cxrns.alu import mul_trace
from cxrns.forward import to_channel_operand


def test_params_bounds():
    Params(2)
    Params(31, 31)
    with pytest.raises(ValueError):
        Params(1)
    with pytest.raises(ValueError):
        Params(32)
    with pytest.raises(ValueError):
        Params(4, -1)
    Params(4, 5)  # p has no upper bound: f_set(5, 7) is the paper's 32-bit set
    Params(5, 7)


def test_dim1_encode_examples():
    p = Params(2)
    assert dim1_encode(0, p) == Dim1Residue(0, 1)
    assert dim1_encode(5, p) == Dim1Residue(4, 0)
    assert dim1_encode(16, p) == Dim1Residue(15, 0)


def test_dim1_value_examples():
    assert dim1_value(Dim1Residue(0, 1)) == 0
    assert dim1_value(Dim1Residue(13, 0)) == 14
    assert dim1_value(Dim1Residue(15, 0)) == 16


def test_dim1_encode_rejects_out_of_range():
    p = Params(2)
    with pytest.raises(RangeExceeded):
        dim1_encode(17, p)
    with pytest.raises(RangeExceeded):
        dim1_encode(-1, p)


def test_dim1_flag_forces_zero_bits():
    with pytest.raises(ValueError):
        Dim1Residue(3, 1)


def test_dim1_bijection_exhaustive():
    for n in range(2, 6):
        p = Params(n)
        seen = set()
        for x in range((1 << (2 * n)) + 1):
            r = dim1_encode(x, p)
            assert dim1_value(r) == x
            seen.add((r.bits, r.zflag))
        assert len(seen) == (1 << (2 * n)) + 1


@given(st.integers(min_value=2, max_value=31), st.data())
def test_dim1_bijection_random(n, data):
    p = Params(n)
    x = data.draw(st.integers(min_value=0, max_value=1 << (2 * n)))
    assert dim1_value(dim1_encode(x, p)) == x


def test_channel_value_examples():
    p = Params(2)
    assert channel_value(ComplexChannelResidue(3, 0, 1, 0), p) == 7
    assert channel_value(ComplexChannelResidue(0, 1, 3, 1), p) == 15
    assert channel_value(canonical_zero(), p) == 0


def test_channel_value_conjugate_invariant():
    p = Params(3)
    for r in range(8):
        for i in range(8):
            for b in (0, 1):
                for c in (0, 1):
                    minus = ComplexChannelResidue(r, b, i, c, ChannelSign.MINUS)
                    plus = ComplexChannelResidue(r, b, i, c, ChannelSign.PLUS)
                    assert channel_value(minus, p) == channel_value(plus, p)


def test_residue_from_value_round_trips():
    for n in (2, 3, 5):
        p = Params(n)
        for v in range((1 << (2 * n)) + 1):
            assert channel_value(residue_from_value(v, p), p) == v
    with pytest.raises(RangeExceeded):
        residue_from_value(18, Params(2))


def test_fresh_operand_zero_flag_rules():
    FreshOperand(0, 0, 1)
    with pytest.raises(ValueError):
        FreshOperand(1, 0, 1)
    p = Params(2)
    assert operand_value(FreshOperand(0, 0, 1), p) == 0
    assert operand_value(FreshOperand(3, 3, 0), p) == 16


def test_moduli_set_build_examples():
    assert moduli_set_build([IntModulus(31), PowerOfTwo(5), IntModulus(63)]).dynamic_range == 62_496
    assert moduli_set_build(
        [IntModulus(7), IntModulus(9), PowerOfTwo(4), GaussianPair(3)]
    ).dynamic_range == 65_520
    assert moduli_set_build(
        [IntModulus(15), IntModulus(31), PowerOfTwo(7), GaussianPair(6)]
    ).dynamic_range == 243_853_440


def test_moduli_set_build_rejects_shared_factor():
    with pytest.raises(CoprimalityViolation) as err:
        moduli_set_build([IntModulus(3), IntModulus(9)])
    assert err.value.gcd == 3
    # 2^(2*3)+1 = 65 shares the factor 5 with 15
    with pytest.raises(CoprimalityViolation) as err:
        moduli_set_build([IntModulus(15), PowerOfTwo(6), GaussianPair(3)])
    assert err.value.gcd == 5
    assert "g3" in str(err.value)


def test_moduli_set_rejects_empty():
    with pytest.raises(ValueError):
        moduli_set_build([])


def test_gaussian_pair_contributes_norm():
    for n in range(2, 11):
        mset = moduli_set_build([GaussianPair(n)])
        assert mset.dynamic_range == (1 << (2 * n)) + 1


def test_descriptor_validation():
    with pytest.raises(ValueError):
        IntModulus(12)  # even, not a power of two
    with pytest.raises(ValueError):
        IntModulus(1)
    with pytest.raises(ValueError):
        PowerOfTwo(0)
    with pytest.raises(ValueError):
        GaussianPair(1)


def test_descriptor_widths():
    assert PowerOfTwo(7).width == 7
    assert IntModulus(63).width == 6
    assert GaussianPair(5).width == 6  # n-bit magnitude plus stored borrow/carry


def test_f_set_shape():
    descs = f_set(3)
    assert [d.modulus for d in descs] == [8, 7, 9, 65]
    descs = f_set(5, 3)
    assert [d.modulus for d in descs] == [256, 31, 33, 1025]
    assert moduli_set_build(f_set(2)).dynamic_range == 1020
    assert moduli_set_build(f_set(5)).dynamic_range == (1 << 5) * ((1 << 20) - 1)


# --- the public-type contract of the residue types ---------------------------------

RESIDUES = [
    (Dim1Residue, (13, 0), {"bits": 13, "zflag": 0}),
    (FreshOperand, (3, 1, 0), {"xr": 3, "xi": 1, "zflag": 0}),
    (FreshOperand, (3, 1, 0, ChannelSign.PLUS),
     {"xr": 3, "xi": 1, "zflag": 0, "sign": ChannelSign.PLUS}),
    (ComplexChannelResidue, (3, 1, 2, 0), {"r": 3, "borrow": 1, "i": 2, "carry": 0}),
    (ComplexChannelResidue, (3, 1, 2, 0, ChannelSign.PLUS),
     {"r": 3, "borrow": 1, "i": 2, "carry": 0, "sign": ChannelSign.PLUS}),
]
RESIDUE_IDS = ["dim1", "fresh", "fresh-plus", "channel", "channel-plus"]


@pytest.mark.parametrize("cls, args, kwargs", RESIDUES, ids=RESIDUE_IDS)
def test_residue_positional_equals_keyword(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a}
    record = dataclasses.asdict(a)
    assert record == dataclasses.asdict(b)
    assert list(record) == [f.name for f in dataclasses.fields(cls)]
    assert all(record[name] == value for name, value in kwargs.items())


def test_residue_reprs_and_default_sign():
    assert repr(Dim1Residue(13, 0)) == "Dim1Residue(bits=13, zflag=0)"
    assert repr(FreshOperand(3, 1, 0)) == (
        "FreshOperand(xr=3, xi=1, zflag=0, sign=<ChannelSign.MINUS: '2^n-j'>)")
    assert repr(ComplexChannelResidue(3, 1, 2, 0, ChannelSign.PLUS)) == (
        "ComplexChannelResidue(r=3, borrow=1, i=2, carry=0, sign=<ChannelSign.PLUS: '2^n+j'>)")
    assert FreshOperand(3, 1, 0).sign is ChannelSign.MINUS
    assert ComplexChannelResidue(3, 1, 2, 0).sign is ChannelSign.MINUS
    assert [f.name for f in dataclasses.fields(ComplexChannelResidue)] == [
        "r", "borrow", "i", "carry", "sign"]


@pytest.mark.parametrize("cls, args, kwargs", RESIDUES, ids=RESIDUE_IDS)
def test_residue_is_immutable(cls, args, kwargs):
    x = cls(*args)
    for name in kwargs:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    assert x == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs", RESIDUES, ids=RESIDUE_IDS)
def test_residue_pickle_and_copy_round_trip(cls, args, kwargs):
    x = cls(*args)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x) and type(y) is cls
        assert dataclasses.asdict(y) == dataclasses.asdict(x)


def test_residue_replace_rebuilds_and_revalidates():
    assert dataclasses.replace(Dim1Residue(13, 0), bits=5) == Dim1Residue(5, 0)
    assert dataclasses.replace(FreshOperand(3, 1, 0), sign=ChannelSign.PLUS) == (
        FreshOperand(3, 1, 0, ChannelSign.PLUS))
    assert dataclasses.replace(ComplexChannelResidue(3, 1, 2, 0), carry=1) == (
        ComplexChannelResidue(3, 1, 2, 1))
    with pytest.raises(ValueError, match="^zflag set requires bits == 0$"):
        dataclasses.replace(Dim1Residue(13, 0), zflag=1)
    with pytest.raises(ValueError, match=r"^zflag set requires xr == xi == 0$"):
        dataclasses.replace(FreshOperand(0, 1, 0), zflag=1)
    with pytest.raises(ValueError, match="^zflag must be a single bit$"):
        dataclasses.replace(FreshOperand(0, 0, 1), zflag=2)


@pytest.mark.parametrize("build, message", [
    (lambda: Dim1Residue(0, 2), "zflag must be a single bit"),
    (lambda: Dim1Residue(0, -1), "zflag must be a single bit"),
    (lambda: Dim1Residue(3, 1), "zflag set requires bits == 0"),
    (lambda: Dim1Residue(-1, 0), "bits must be non-negative"),
    (lambda: Dim1Residue(bits=-1, zflag=0), "bits must be non-negative"),
    (lambda: FreshOperand(0, 0, 2), "zflag must be a single bit"),
    (lambda: FreshOperand(1, 0, 1), "zflag set requires xr == xi == 0"),
    (lambda: FreshOperand(0, 1, 1), "zflag set requires xr == xi == 0"),
    (lambda: FreshOperand(xr=0, xi=1, zflag=1, sign=ChannelSign.PLUS),
     "zflag set requires xr == xi == 0"),
])
def test_residue_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_params_compares_hashes_and_prints_as_n_p():
    p = Params(16, 3)
    assert (p.mask, p.wide_mask, p.modulus) == ((1 << 16) - 1, (1 << 32) - 1, (1 << 32) + 1)
    fresh = Params(16, 3)
    assert p == fresh and hash(p) == hash(fresh) == hash(Params(n=16, p=3))
    assert p != Params(16) and Params(16) == Params(16, 0)
    assert repr(p) == str(p) == "Params(n=16, p=3)"
    assert [f.name for f in dataclasses.fields(Params)] == ["n", "p"]
    assert dataclasses.asdict(p) == {"n": 16, "p": 3}
    assert dataclasses.replace(p, n=5) == Params(5, 3)
    assert pickle.loads(pickle.dumps(p)) == p and copy.deepcopy(p) == p
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 5
    with pytest.raises(ValueError, match=r"^extension exponent p must be >= 0, got -1$"):
        dataclasses.replace(p, p=-1)


def test_moduli_set_moduli_follow_channel_order():
    mset = moduli_set_build(f_set(5, 3))
    assert mset.moduli == (256, 31, 33, 1025)
    assert [f.name for f in dataclasses.fields(ModuliSet)] == ["channels", "dynamic_range"]
    assert mset == moduli_set_build(f_set(5, 3))


def test_mul_trace_stays_asdict_able():
    p = Params(4)
    x = to_channel_operand(dim1_encode(200, p), ChannelSign.MINUS, p)
    y = to_channel_operand(dim1_encode(77, p), ChannelSign.MINUS, p)
    prod, trace = mul_trace(x, y, p)
    assert channel_value(prod, p) == 200 * 77 % p.modulus
    record = dataclasses.asdict(trace)
    assert set(record) == {"partials", "real_stage", "imag_stage", "real_rows", "imag_rows"}
    assert record["partials"] == dataclasses.asdict(trace.partials)
    assert dataclasses.asdict(prod) == {"r": prod.r, "borrow": prod.borrow, "i": prod.i,
                                        "carry": prod.carry, "sign": ChannelSign.MINUS}


def test_public_api_is_pinned():
    # Adding or removing a public name must show up as a reviewed diff here.
    assert cxrns.__all__ == [
        "ChannelSign", "ComplexChannelResidue", "CompressorOutput", "CoprimalityViolation",
        "CsaPair", "Dim1Residue", "DrReport", "FreshOperand", "GaussianPair",
        "IntModulus", "ModuliSet", "MulTrace", "NcrtPlan", "NotInvertible", "Params",
        "PartialProducts", "PowerOfTwo", "RangeExceeded", "RnsError", "VerifyReport",
        "add_fresh", "alu", "canonical_zero", "channel_to_dim1", "channel_value",
        "compress42", "core", "csa_mod_22n1", "dim1_encode", "dim1_value",
        "f_set", "forward", "forward_22n1", "forward_std",
        "intermediate_ri", "lut_partials", "mod_inverse", "moduli_set_build", "mul",
        "mul_trace", "ncrt_plan", "ncrt_reverse", "normalize", "operand_value",
        "reporting", "residue_from_value", "reverse", "split_input",
        "to_channel_operand",
    ]
