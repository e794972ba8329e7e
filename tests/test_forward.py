"""Forward converters: wide-input reduction, operand routing, per-channel residues."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrns.core import (
    ChannelSign,
    Dim1Residue,
    GaussianPair,
    IntModulus,
    Params,
    PowerOfTwo,
    RangeExceeded,
    dim1_encode,
    dim1_value,
    f_set,
    moduli_set_build,
    operand_value,
)
from cxrns.forward import (
    csa_mod_22n1,
    forward_22n1,
    forward_std,
    split_input,
    to_channel_operand,
)


P2 = Params(2)


def test_split_input_examples():
    assert split_input(1000, P2) == (3, 14, 8)
    assert split_input(0, P2) == (0, 0, 0)
    assert split_input(16, P2) == (0, 1, 0)


def test_split_input_reassembles():
    for n in (2, 3):
        p = Params(n)
        for z in range(0, p.wide_range, 37):
            z2, z1, z0 = split_input(z, p)
            assert z == (z2 << (4 * n)) + (z1 << (2 * n)) + z0
            assert z2 < (1 << n) and z1 <= p.wide_mask and z0 <= p.wide_mask


def test_split_input_rejects_out_of_range():
    with pytest.raises(RangeExceeded):
        split_input(P2.wide_range, P2)
    with pytest.raises(RangeExceeded):
        split_input(-1, P2)


def test_csa_examples():
    pair = csa_mod_22n1(0, 0, 0, P2)
    assert pair.u + pair.v == 16  # 0 + ~0 + 0 + 1 over 4 bits
    pair = csa_mod_22n1(3, 14, 8, P2)
    assert (pair.u + pair.v) % 17 == 13  # 3 + ~14 + 8 + 1 = 13


def test_csa_invariant_exhaustive_n2():
    p = Params(2)
    count = 0
    for z2 in range(4):
        for z1 in range(16):
            for z0 in range(16):
                pair = csa_mod_22n1(z2, z1, z0, p)
                assert (pair.u + pair.v) % 17 == (z2 + (z1 ^ 15) + z0 + 1) % 17
                assert 0 <= pair.u <= p.wide_mask and 0 <= pair.v <= p.wide_mask
                count += 1
    assert count == 1 << 10


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_csa_invariant_random(n, data):
    p = Params(n)
    z2 = data.draw(st.integers(0, (1 << n) - 1))
    z1 = data.draw(st.integers(0, p.wide_mask))
    z0 = data.draw(st.integers(0, p.wide_mask))
    pair = csa_mod_22n1(z2, z1, z0, p)
    assert (pair.u + pair.v) % p.modulus == (z2 + (z1 ^ p.wide_mask) + z0 + 1) % p.modulus


def test_forward_22n1_examples():
    assert forward_22n1(1000, P2) == Dim1Residue(13, 0)
    assert dim1_value(forward_22n1(1000, P2)) == 14
    assert forward_22n1(0, P2) == Dim1Residue(0, 1)
    assert forward_22n1(1019, P2) == Dim1Residue(15, 0)


def test_forward_22n1_exhaustive_small_widths():
    for n in (2, 3):
        p = Params(n)
        for z in range(p.wide_range):
            assert dim1_value(forward_22n1(z, p)) == z % p.modulus


def test_to_channel_operand_examples():
    x = to_channel_operand(Dim1Residue(4, 0), ChannelSign.MINUS, P2)
    assert (x.xr, x.xi, x.zflag) == (0, 1, 0)
    assert operand_value(x, P2) == 5
    # 5 ≡ 1 + j (mod 4 − j)
    assert (x.xr + (1 - x.zflag), x.xi) == (1, 1)

    z = to_channel_operand(Dim1Residue(0, 1), ChannelSign.PLUS, P2)
    assert (z.xr, z.xi, z.zflag) == (0, 0, 1)
    assert operand_value(z, P2) == 0

    top = to_channel_operand(Dim1Residue(15, 0), ChannelSign.MINUS, P2)
    assert (top.xr, top.xi) == (3, 3)
    assert operand_value(top, P2) == 16


def test_operand_view_is_value_identity_exhaustive():
    for n in range(2, 6):
        p = Params(n)
        for sign in ChannelSign:
            for x in range((1 << (2 * n)) + 1):
                op = to_channel_operand(dim1_encode(x, p), sign, p)
                assert operand_value(op, p) == x


def test_forward_std_examples():
    mset = moduli_set_build([PowerOfTwo(2), IntModulus(3), IntModulus(5), GaussianPair(2)])
    assert forward_std(100, mset) == [0, 1, 0, 15]
    assert forward_std(0, mset) == [0, 0, 0, 0]
    assert forward_std(mset.dynamic_range - 1, mset) == [3, 2, 4, 16]


def test_forward_std_range_check():
    mset = moduli_set_build([PowerOfTwo(2), IntModulus(3), IntModulus(5), GaussianPair(2)])
    with pytest.raises(RangeExceeded):
        forward_std(mset.dynamic_range, mset)
    with pytest.raises(RangeExceeded):
        forward_std(-1, mset)


@pytest.mark.parametrize("n", range(2, 32))
def test_forward_std_is_the_plain_remainder_over_f_sets(n):
    rng = random.Random(n)
    for p in (0, n):
        mset = moduli_set_build(f_set(n, p))
        moduli = [c.modulus for c in mset.channels]
        dr = mset.dynamic_range
        for z in (0, 1, dr - 1, *(rng.randrange(dr) for _ in range(20))):
            assert forward_std(z, mset) == [z % m for m in moduli]


@pytest.mark.parametrize("n", [2, 5, 16, 31])
def test_forward_range_errors_keep_their_messages(n):
    mset = moduli_set_build(f_set(n))
    dr = mset.dynamic_range
    for z in (dr, -1):
        with pytest.raises(RangeExceeded) as err:
            forward_std(z, mset)
        assert str(err.value) == f"input {z} outside the dynamic range [0, {dr}) of {mset}"
    p = Params(n)
    wide = p.wide_range
    assert wide == dr  # f_set(n, 0) covers exactly the 5n-bit inputs forward_22n1 takes
    for z in (wide, -1):
        with pytest.raises(RangeExceeded) as err:
            forward_22n1(z, p)
        assert str(err.value) == f"input {z} outside [0, {wide})"


def test_forward_22n1_and_csa_mod_22n1_at_wide_widths():
    rng = random.Random(22)
    for n in (16, 31):
        p = Params(n)
        for z in (0, 1, p.wide_range - 1, *(rng.randrange(p.wide_range) for _ in range(50))):
            assert dim1_value(forward_22n1(z, p)) == z % p.modulus
            pair = csa_mod_22n1(*split_input(z, p), p)  # z2 + ~z1 + z0 + 1 == z - 1
            assert (pair.u + pair.v) % p.modulus == (z - 1) % p.modulus
