"""The benchmark counts an op whose output fails its check as a failed op
(`pass_ratio`).  Here the first ops of each workload in `perfbench/workloads.py`
run through the benchmark's own prepare, run and check, so that a change
that makes the benchmark fail ops fails here too."""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import workloads   # the standard library only, until a Runner is made
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_ops_pass_the_benchmark_check(name, tmp_path):
    runner = workloads.Runner(name, tmp_path)
    for op in workloads.generate(name, 0)[:max(workloads.block_size(name), 4)]:
        args = runner.prepare(op)
        assert runner.check(op, args, runner.run(args)) is None, op
