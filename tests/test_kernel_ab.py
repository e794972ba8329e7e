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
    # 1,000 cases of each benchmark sweep, twice, appends two records whose
    # sides agree on every call.
    out = tmp_path / "BENCH_kernels.json"
    lib = sweeps._C._name
    for runs in (1, 2):
        done = subprocess.run([sys.executable, str(TOOL), "--base-lib", lib, "--change-lib", lib,
                               "--rounds", "1", "--cases", "1000", "--out", str(out)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        records = json.loads(out.read_text())
        assert len(records) == runs
    record = records[-1]
    assert record["base"]["sha256"] == record["change"]["sha256"]
    assert len(record["sweeps"]) == 10
    for name, sweep in record["sweeps"].items():
        assert sweep["cases"] == 1000, name
        assert sweep["same_result"] and sweep["result"] == [0, -1], name
        assert sweep["wins"] in (0, 1) and sweep["ratio"] > 0, name
