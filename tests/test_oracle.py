"""The case engine's isolation, and the ring isomorphism the channel model rests on."""

import ast
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cxrns import oracle


# The channel pair 2^n - j, 2^n + j carries x mod (2^2n + 1) because
# Z[j]/(2^n -+ j) is isomorphic to Z/(2^2n + 1).  The helpers below check
# that fact by exact Gaussian division on (re, im) int pairs; `sign` is the
# imaginary part of the modulus 2^n + sign*j: -1 for 2^n - j, +1 for 2^n + j.

def _round_nearest_ties_to_zero(a, b):
    """Nearest integer to a/b (b > 0); exact halves round toward zero."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q < 0))


def gaussian_mod(x, n, sign):
    """Residue (re, im) of x modulo 2^n + sign*j, by a rounded Gaussian quotient."""
    norm = (1 << (2 * n)) + 1  # (2^n + sign*j) * (2^n - sign*j)
    qr = _round_nearest_ties_to_zero(x << n, norm)  # x * conj(modulus) / norm
    qi = _round_nearest_ties_to_zero(-sign * x, norm)
    return x - (qr << n) + qi * sign, -(qr * sign + (qi << n))  # x - q * modulus


def gaussian_value(g, n, sign):
    """Map j onto -sign * 2^n and reduce: the integer a Gaussian residue stands for."""
    re, im = g
    return (re - sign * (im << n)) % ((1 << (2 * n)) + 1)


def test_gaussian_mod_examples():
    assert gaussian_mod(5, 2, -1) == (1, 1)
    assert gaussian_mod(0, 4, -1) == (0, 0)
    assert gaussian_mod(0, 4, 1) == (0, 0)
    assert gaussian_mod(17, 2, -1) == (0, 0)


def test_gaussian_mod_exact_division():
    # x - residue must be divisible by the modulus in the Gaussian integers.
    for n in (2, 3):
        for sign in (-1, 1):
            norm = (1 << (2 * n)) + 1
            for x in range(norm + 5):
                re, im = gaussian_mod(x, n, sign)
                a, b = x - re, -im  # x - residue
                prod = ((a << n) + b * sign, (b << n) - a * sign)  # times 2^n - sign*j
                assert prod[0] % norm == 0 and prod[1] % norm == 0, (n, sign, x)


def test_ring_isomorphism_exhaustive_small_widths():
    # Mapping j onto +-2^n recovers x mod (2^2n + 1), for every x in range.
    for n in range(2, 6):
        m = (1 << (2 * n)) + 1
        for sign in (-1, 1):
            for x in range(m):
                assert gaussian_value(gaussian_mod(x, n, sign), n, sign) == x % m


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=31),  # every width Params accepts
       st.integers(min_value=0, max_value=1 << 96),
       st.sampled_from([-1, 1]))
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
    assert local == {"reporting"}


def test_importing_the_package_loads_no_kernels():
    src = str(Path(oracle.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cxrns; "
            "print(sorted({'cxrns.sweeps', 'ctypes'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"
