"""Reference-arithmetic oracle: trusted first, everything else checks against it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrns import oracle
from cxrns.core import ChannelSign, ComplexChannelResidue, GaussianInt, Params
from cxrns.oracle import check_unit, gaussian_mod, gaussian_value, ref_mod
from cxrns.alu import add_fresh, mul


def test_ref_mod_examples():
    assert ref_mod(1000, 17) == 14
    assert ref_mod(0, 17) == 0
    assert ref_mod(62_496, 62_496) == 0


def test_ref_mod_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ref_mod(5, 1)
    with pytest.raises(ValueError):
        ref_mod(-1, 7)


@given(st.integers(min_value=0, max_value=(1 << 63) - 1),
       st.integers(min_value=2, max_value=(1 << 62)))
def test_ref_mod_matches_native_remainder(z, m):
    assert ref_mod(z, m) == z % m


def test_gaussian_mod_examples():
    assert gaussian_mod(5, 2, ChannelSign.MINUS) == GaussianInt(1, 1)
    assert gaussian_mod(0, 4, ChannelSign.MINUS) == GaussianInt(0, 0)
    assert gaussian_mod(0, 4, ChannelSign.PLUS) == GaussianInt(0, 0)
    assert gaussian_mod(17, 2, ChannelSign.MINUS) == GaussianInt(0, 0)


def test_gaussian_mod_exact_division():
    # x - residue must be divisible by the modulus in the Gaussian integers.
    for n in (2, 3):
        for sign in ChannelSign:
            modulus = GaussianInt(1 << n, -1 if sign is ChannelSign.MINUS else 1)
            norm = modulus.norm()
            for x in range(norm + 5):
                q = GaussianInt(x, 0) - gaussian_mod(x, n, sign)
                prod = q * modulus.conj()
                assert prod.re % norm == 0 and prod.im % norm == 0, (n, sign, x)


def test_ring_isomorphism_exhaustive_small_widths():
    # Mapping j onto +-2^n recovers x mod (2^2n + 1), for every x in range.
    for n in range(2, 6):
        m = (1 << (2 * n)) + 1
        for sign in ChannelSign:
            for x in range(m):
                assert gaussian_value(gaussian_mod(x, n, sign), n, sign) == x % m


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=24),
       st.integers(min_value=0, max_value=1 << 96),
       st.sampled_from(list(ChannelSign)))
def test_ring_isomorphism_random(n, x, sign):
    m = (1 << (2 * n)) + 1
    assert gaussian_value(gaussian_mod(x, n, sign), n, sign) == x % m


def test_check_unit_adder_exhaustive_case_count():
    report = check_unit("adder", add_fresh, Params(2))
    assert report.cases == 17 * 64  # every fresh operand x every accumulator state
    assert report.failures == 0
    assert report.counterexample is None


def test_check_unit_multiplier_exhaustive_case_count():
    report = check_unit("multiplier", mul, Params(3))
    assert report.cases == 65 * 65
    assert report.failures == 0


def test_check_unit_random_is_seeded():
    a = check_unit("multiplier", mul, Params(5), mode="random", samples=500, seed=9)
    b = check_unit("multiplier", mul, Params(5), mode="random", samples=500, seed=9)
    assert a.failures == b.failures == 0
    assert a.cases == b.cases == 500
    assert a.seed == 9


def test_check_unit_flags_injected_fault():
    def faulty_add(x, y, params):
        res = add_fresh(x, y, params)
        return ComplexChannelResidue((res.r + 1) & params.mask, res.borrow,
                                     res.i, res.carry, res.sign)

    report = check_unit("adder", faulty_add, Params(2))
    assert report.failures > 0
    assert report.counterexample is not None
    assert {"x", "r", "borrow", "i", "carry", "got", "want"} <= set(report.counterexample)
    # never raises; reports data instead
    assert report.cases == 17 * 64


def test_check_unit_rejects_unknown_unit():
    with pytest.raises(ValueError):
        check_unit("divider", mul, Params(2))


def test_check_unit_rejects_what_run_verify_rejects():
    for samples in (0, -5, 1 << 63, (1 << 64) + 5):  # none, or a count an int64 index wraps
        with pytest.raises(ValueError, match="samples"):
            check_unit("multiplier", mul, Params(2), mode="random", samples=samples)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            check_unit("multiplier", mul, Params(2), mode="random", samples=10, seed=seed)
    with pytest.raises(ValueError, match="mode"):
        check_unit("adder", add_fresh, Params(2), mode="fuzzy")
    with pytest.raises(ValueError, match="random mode"):
        check_unit("multiplier", mul, Params(31))  # about 2^124 cases


def test_oracle_imports_no_dataflow():
    # The checking path must not inherit a dataflow bug: units under test
    # reach the oracle only as the ops passed into check_unit.
    local = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            local |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("cxrns"):
            local.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            local |= {a.name.partition(".")[2] for a in node.names
                      if a.name.startswith("cxrns.")}
    assert local == {"core", "reporting"}


def test_importing_the_package_loads_no_kernels():
    src = str(Path(oracle.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cxrns; "
            "print(sorted({'cxrns.sweeps', 'ctypes'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"
