"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at smoke size, untraced and
traced, and asserts that

- the last line is the result object with exactly the declared metric
  names and units, and every metric (plus ``failed_frac``) is also
  printed by name with its unit;
- a traced run writes its spans out, with every column filled;
- the fixed-work and verdict gate accepts the clean repetitions and
  rejects a forged dirty verdict and a forged short count, for which
  the run would exit 1.

Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

from run import OUT_DIR, summarize
from spans import COLUMNS, read_spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    with open(os.path.join(
        OUT_DIR, f"result-{workload}-seed1-trace{trace}.json"
    ), encoding="utf-8") as fh:
        reps = json.load(fh)["reps"]
    return lines[:-1], result, reps


def _check_printed(declared, kind, lines, result, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {got} != declared {want}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (label, name)
    text = "\n".join(lines)
    for name, unit in list(want.items()) + [("failed_frac", "ratio")]:
        assert f"  {name} = " in text and f" {unit}" in text, (label, name)
        line = next(l for l in lines if l.startswith(f"  {name} = "))
        assert line.split()[3] == unit, (label, line)


def _forge_dirty(workload, rep):
    rep = copy.deepcopy(rep)
    if workload.kind == "check":
        rep["rows"][0]["verdict"] = "FAIL"
        rep["rows"][0]["violations"] = 1
    else:
        rep["record"]["audit_ok"] = False
    return rep


def _forge_short(workload, rep):
    rep = copy.deepcopy(rep)
    if workload.kind == "check":
        rep["rows"][-1]["explored"] -= 1
    else:
        rep["record"]["ops_completed"] -= 1
    return rep


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for spec in declared["workloads"]:
        name = spec["name"]
        workload = WORKLOADS[name]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines, result, reps = _run(name, trace)
            label = f"{name} trace={trace}"
            _check_printed(declared, kind, lines, result, label)
            if trace:
                header, threads = read_spans(
                    os.path.join(OUT_DIR, f"spans-{name}.spans")
                )
                assert header["columns"] == list(COLUMNS), label
                assert sum(len(t["id"]) for t in threads) > 0, label
            clean, problems = summarize(name, reps, bool(trace), declared)
            assert clean["correct"] and not problems, (label, problems)
            for forge in (_forge_dirty, _forge_short):
                forged = [forge(workload, reps[0])] + reps[1:]
                bad, problems = summarize(name, forged, bool(trace), declared)
                assert not bad["correct"] and problems, (label, forge.__name__)
                assert bad["failed"] > 0 and not bad["metrics"], (
                    label, forge.__name__
                )
            print(f"ok  {label}: {len(reps)} repetitions, "
                  f"{len(result['metrics'])} metrics, forged runs rejected")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
