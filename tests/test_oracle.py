"""Reference-arithmetic oracle: trusted first, everything else checks against it."""

import ast
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cxrns import oracle
from cxrns.core import ChannelSign, GaussianInt
from cxrns.oracle import gaussian_mod, gaussian_value


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


def test_oracle_imports_no_dataflow():
    # The checking path must not inherit a dataflow bug: units under test
    # reach the oracle only inside the case functions sweeps hand to it.
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
