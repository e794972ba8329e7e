"""tools/kernel_ab.py: the in-process A/B harness of two kernel libraries."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cxrns import sweeps

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_ab.py"


@pytest.mark.skipif(not sweeps.compiled_available(), reason="no C compiler to build _kernels.c")
def test_kernel_ab_appends_one_record_per_run(tmp_path):
    # The loaded library on both sides, so nothing compiles: one round of
    # 1,000 cases of each of its sweeps (the benchmark's ten and the six of
    # NARROW), twice, appends two records whose sides agree on every call.
    out = tmp_path / "BENCH_kernels.json"
    lib = sweeps._kernels()._name
    for runs in (1, 2):
        done = subprocess.run([sys.executable, str(TOOL), "--base-lib", lib, "--change-lib", lib,
                               "--rounds", "1", "--cases", "1000", "--out", str(out)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        records = json.loads(out.read_text())
        assert len(records) == runs
    record = records[-1]
    assert record["base"]["sha256"] == record["change"]["sha256"]
    assert len(record["sweeps"]) == 16
    for name, sweep in record["sweeps"].items():
        assert sweep["cases"] == 1000, name
        assert sweep["same_result"] and sweep["result"] == [0, -1], name
        assert sweep["wins"] in (0, 1) and sweep["ratio"] > 0, name


@pytest.mark.skipif(not sweeps.compiled_available(), reason="no C compiler to build _kernels.c")
def test_kernel_ab_names_a_missing_export_in_one_line(tmp_path):
    # A library built from a few lines that define every export but one,
    # which the loader keeps in its cache and declines.
    source = tmp_path / "_kernels.c"
    source.write_text("".join(f"int {name}(void) {{ return 0; }}\n"
                              for name in sweeps._SIGNATURES if name != "sweep_normalize"))
    with pytest.warns(RuntimeWarning, match="has no export sweep_normalize,"):
        assert sweeps._load_kernels(str(tmp_path / "cache"), str(source)) is None
    [lib] = (tmp_path / "cache").glob("*.so")
    out = tmp_path / "BENCH_kernels.json"
    done = subprocess.run([sys.executable, str(TOOL), "--base-lib", str(lib),
                           "--change-lib", sweeps._kernels()._name, "--rounds", "1",
                           "--cases", "1000", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert done.stderr == f"{lib} has no export sweep_normalize\n"  # one line, no traceback
    assert not out.exists()
