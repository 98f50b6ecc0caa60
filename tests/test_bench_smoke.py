"""The benchmark's op streams still run against this checkout.

`perfbench/run.py` draws its inputs from the package (`corpus`,
`quotients`, `textio`, the CLI), so moving or renaming a name it uses
breaks the benchmark, not only a test.  This test builds round 0 of every
workload at seed 1, runs each op once and requires its oracle to accept
the output.  It runs in a subprocess, since `run.load_program` purges
`modalfib` from `sys.modules`, and with -B, so that it writes no file.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMOKE = """\
import run, bench_workloads
mods = run.load_program()
for workload in bench_workloads.WORKLOADS:
    ops = bench_workloads.Stream(mods, workload, 1).round(0)
    bad = [(op.label, op.check(op.run(mods))) for op in ops]
    bad = [b for b in bad if b[1] is not None]
    print(workload, len(ops), bad)
"""


def test_round_zero_of_every_workload_passes_its_oracles():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "perfbench"), str(ROOT / "src"),
                      os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-B", "-c", SMOKE], cwd=ROOT,
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "graph-maps 312 []", "table-suites 100 []", "covers-automata 200 []"]
