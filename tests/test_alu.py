"""Channel adder and multiplier dataflow, stage by stage and end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrns.alu import (
    add_fresh,
    compress42,
    intermediate_ri,
    lut_partials,
    mul,
    mul_trace,
)
from cxrns.core import (
    ChannelSign,
    ComplexChannelResidue,
    FreshOperand,
    Params,
    canonical_zero,
    channel_value,
    dim1_encode,
)
from cxrns.forward import to_channel_operand


P2 = Params(2)


def fresh(v, params, sign=ChannelSign.MINUS):
    return to_channel_operand(dim1_encode(v, params), sign, params)


def all_states(n, sign=ChannelSign.MINUS):
    for i in range(1 << n):
        for r in range(1 << n):
            for b in (0, 1):
                for c in (0, 1):
                    yield ComplexChannelResidue(r, b, i, c, sign)


# --- adder --------------------------------------------------------------------

def test_add_fresh_examples():
    res = add_fresh(fresh(5, P2), ComplexChannelResidue(3, 0, 1, 0), P2)
    assert (res.r, res.borrow, res.i, res.carry) == (0, 0, 2, 1)
    assert channel_value(res, P2) == 12

    res = add_fresh(fresh(16, P2), ComplexChannelResidue(0, 0, 3, 1), P2)
    assert (res.r, res.borrow, res.i, res.carry) == (0, 1, 3, 1)
    assert channel_value(res, P2) == 15


def test_add_zero_operand_is_field_identity():
    zero = fresh(0, P2)
    assert zero.zflag == 1
    for y in all_states(2):
        res = add_fresh(zero, y, P2)
        assert (res.r, res.borrow, res.i, res.carry) == (y.r, y.borrow, y.i, y.carry)


def test_add_exhaustive_small_widths():
    for n in (2, 3):
        p = Params(n)
        for x_val in range(p.modulus):
            x = fresh(x_val, p)
            for y in all_states(n):
                got = channel_value(add_fresh(x, y, p), p)
                assert got == (x_val + channel_value(y, p)) % p.modulus


def test_add_rejects_mixed_signs():
    with pytest.raises(ValueError):
        add_fresh(fresh(1, P2, ChannelSign.PLUS), canonical_zero(ChannelSign.MINUS), P2)


def test_add_conjugate_coherence():
    # identical fields in, identical fields out, whichever channel is labeled
    p = Params(3)
    for x_val in (0, 1, 37, 64):
        for y in list(all_states(3))[::7]:
            res_m = add_fresh(fresh(x_val, p, ChannelSign.MINUS),
                              ComplexChannelResidue(y.r, y.borrow, y.i, y.carry, ChannelSign.MINUS), p)
            res_p = add_fresh(fresh(x_val, p, ChannelSign.PLUS),
                              ComplexChannelResidue(y.r, y.borrow, y.i, y.carry, ChannelSign.PLUS), p)
            assert (res_m.r, res_m.borrow, res_m.i, res_m.carry) == \
                (res_p.r, res_p.borrow, res_p.i, res_p.carry)


# --- partial products ----------------------------------------------------------

def test_lut_partials_examples():
    pp = lut_partials(fresh(1, P2), fresh(1, P2), P2)  # xr=xi=yr=yi=0
    assert (pp.c, pp.h_rr, pp.l_rr) == (0, 0, 1)
    assert (pp.h_ri, pp.l_ri, pp.h_ir, pp.l_ir, pp.h_ii, pp.l_ii) == (0,) * 6

    pp = lut_partials(FreshOperand(3, 0, 0), FreshOperand(3, 0, 0), P2)
    assert (pp.c, pp.h_rr, pp.l_rr) == (1, 0, 0)  # (1+3)(1+3) = 16

    pp = lut_partials(FreshOperand(0, 3, 0), FreshOperand(0, 3, 0), P2)
    assert (pp.h_ii, pp.l_ii) == (2, 1)  # 3*3 = 9


def test_lut_partials_invariants_exhaustive_n2():
    for xr in range(4):
        for xi in range(4):
            for yr in range(4):
                for yi in range(4):
                    pp = lut_partials(FreshOperand(xr, xi, 0), FreshOperand(yr, yi, 0), P2)
                    assert (1 + xr) * (1 + yr) == (pp.c << 4) + (pp.h_rr << 2) + pp.l_rr
                    assert (1 + xr) * yi == (pp.h_ri << 2) + pp.l_ri
                    assert xi * (1 + yr) == (pp.h_ir << 2) + pp.l_ir
                    assert xi * yi == (pp.h_ii << 2) + pp.l_ii


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=31), st.data())
def test_lut_partials_invariants_random(n, data):
    p = Params(n)
    word = st.integers(0, p.mask)
    xr, xi, yr, yi = (data.draw(word) for _ in range(4))
    pp = lut_partials(FreshOperand(xr, xi, 0), FreshOperand(yr, yi, 0), p)
    assert (1 + xr) * (1 + yr) == (pp.c << (2 * n)) + (pp.h_rr << n) + pp.l_rr
    assert (1 + xr) * yi == (pp.h_ri << n) + pp.l_ri
    assert xi * (1 + yr) == (pp.h_ir << n) + pp.l_ir
    assert xi * yi == (pp.h_ii << n) + pp.l_ii
    assert pp.c in (0, 1)
    assert max(pp.h_rr, pp.l_rr, pp.h_ri, pp.l_ri, pp.h_ir, pp.l_ir, pp.h_ii, pp.l_ii) <= p.mask


def test_lut_partials_rejects_zero_path():
    with pytest.raises(ValueError):
        lut_partials(fresh(0, P2), fresh(1, P2), P2)


# --- compressor -----------------------------------------------------------------

def test_compress42_examples():
    out = compress42(0, 0, 0, 0, [1], P2)
    assert out.u + out.v + 4 * (out.c_out + out.v_out) == 1
    assert out.v & 1 == 0  # single carry-in keeps the injected LSB free

    out = compress42(3, 3, 3, 3, [1, 1], P2)
    assert out.u + out.v + 4 * (out.c_out + out.v_out) == 14


def test_compress42_value_preservation_exhaustive_n2():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    for t0 in (0, 1):
                        for v0 in (0, 1):
                            out = compress42(a, b, c, d, [t0, v0], P2)
                            assert out.u + out.v + 4 * (out.c_out + out.v_out) \
                                == a + b + c + d + t0 + v0
                            assert out.u <= 3 and out.v <= 3


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=31), st.data())
def test_compress42_value_preservation_random(n, data):
    p = Params(n)
    word = st.integers(0, p.mask)
    a, b, c, d = (data.draw(word) for _ in range(4))
    bits = data.draw(st.lists(st.integers(0, 1), max_size=2))
    out = compress42(a, b, c, d, bits, p)
    assert out.u + out.v + ((out.c_out + out.v_out) << n) == a + b + c + d + sum(bits)


def test_compress42_input_validation():
    with pytest.raises(ValueError):
        compress42(0, 0, 0, 0, [1, 1, 1], P2)
    with pytest.raises(ValueError):
        compress42(4, 0, 0, 0, [], P2)
    with pytest.raises(ValueError):
        compress42(0, 0, 0, 0, [2], P2)


# --- multiplier -----------------------------------------------------------------

def test_mul_examples():
    res = mul(fresh(3, P2), fresh(5, P2), P2)
    assert channel_value(res, P2) == 15

    res = mul(fresh(0, P2), fresh(13, P2), P2)
    assert res == canonical_zero()

    res = mul(fresh(16, P2), fresh(16, P2), P2)
    assert channel_value(res, P2) == 1  # 256 mod 17


def test_mul_exhaustive_small_widths():
    for n in (2, 3):
        p = Params(n)
        operands = [fresh(v, p) for v in range(p.modulus)]
        for x_val, x in enumerate(operands):
            for y_val, y in enumerate(operands):
                assert channel_value(mul(x, y, p), p) == (x_val * y_val) % p.modulus


def test_mul_zero_absorption():
    for n in (2, 3):
        p = Params(n)
        zero = fresh(0, p)
        for v in range(p.modulus):
            assert mul(fresh(v, p), zero, p) == canonical_zero()
            assert mul(zero, fresh(v, p), p) == canonical_zero()


def test_mul_rejects_mixed_signs():
    with pytest.raises(ValueError):
        mul(fresh(1, P2, ChannelSign.PLUS), fresh(1, P2, ChannelSign.MINUS), P2)


def test_mul_conjugate_coherence():
    p = Params(3)
    for x_val in range(0, 65, 3):
        for y_val in range(0, 65, 7):
            res_m = mul(fresh(x_val, p, ChannelSign.MINUS), fresh(y_val, p, ChannelSign.MINUS), p)
            res_p = mul(fresh(x_val, p, ChannelSign.PLUS), fresh(y_val, p, ChannelSign.PLUS), p)
            assert (res_m.r, res_m.borrow, res_m.i, res_m.carry) == \
                (res_p.r, res_p.borrow, res_p.i, res_p.carry)


def test_mul_trace_stages_are_consistent():
    p = Params(3)
    x, y = fresh(23, p), fresh(41, p)
    res, trace = mul_trace(x, y, p)
    assert channel_value(res, p) == (23 * 41) % p.modulus
    pp = trace.partials
    mask = p.mask
    # the real compressor stage really compressed the real column stack
    real_in = pp.l_rr + (pp.l_ii ^ mask) + (pp.h_ri ^ mask) + (pp.h_ir ^ mask) + (pp.c ^ 1)
    real = trace.real_stage
    assert real.u + real.v + ((real.c_out + real.v_out) << p.n) == real_in
    imag_in = pp.h_rr + pp.l_ri + pp.l_ir + (pp.h_ii ^ mask) + real.c_out + real.v_out
    imag = trace.imag_stage
    assert imag.u + imag.v + ((imag.c_out + imag.v_out) << p.n) == imag_in
    # zero path has no stages
    res, trace = mul_trace(fresh(0, p), y, p)
    assert trace is None and res == canonical_zero()


# --- pre-reduction checkpoint ----------------------------------------------------

def test_intermediate_ri_examples():
    r, i = intermediate_ri(fresh(1, P2), fresh(1, P2), P2)
    assert (r + (i << 2)) % 17 == 1

    r, i = intermediate_ri(fresh(3, P2), fresh(5, P2), P2)
    assert (r + (i << 2)) % 17 == 15


def test_intermediate_ri_exhaustive_n2():
    p = Params(2)
    for x_val in range(1, 17):
        for y_val in range(1, 17):
            r, i = intermediate_ri(fresh(x_val, p), fresh(y_val, p), p)
            assert (r + (i << 2)) % 17 == (x_val * y_val) % 17
