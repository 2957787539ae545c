"""The CLI runs the spec it prints.

``repro sweep``, ``check`` and ``stress`` turn their flags into work
only through :func:`repro.campaign.spec_from_cli` and run the result
through the campaign executors; ``repro fuzz`` feeds the synthesized
section to its batch engine.  These tests pin that from four sides:

- ``--smoke`` refuses, on every subcommand, flags it would override;
- ``--print-spec`` carries every flag that shapes the work, and exits 2
  naming the flag when a campaign cannot express it;
- the argvs the benchmark (``perfbench/workloads.py``) and CI run reach
  ``run_stress`` / ``repro.mc.explore`` with the arguments they always
  had;
- ``repro X ...`` and ``repro campaign run`` on its printed spec run
  the same seeds to the same per-point verdicts.
"""

import inspect
import json
import os
import re
import sys

import pytest

from repro.__main__ import main

try:
    import tomllib  # noqa: F401

    HAS_TOMLLIB = True
except ImportError:  # Python < 3.11
    HAS_TOMLLIB = False

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_main(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def parse_table(text):
    """Rows of the first ``render_table`` table in ``text``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("---"):
            header = re.split(r"\s{2,}", lines[i - 1].strip())
            rows = []
            for row in lines[i + 1:]:
                cells = re.split(r"\s{2,}", row.strip())
                if len(cells) != len(header):
                    break
                rows.append(dict(zip(header, cells)))
            return rows
    return []


# -- --smoke -----------------------------------------------------------------


class TestSmokeRefusesOverriddenFlags:
    @pytest.mark.parametrize("argv,flags", [
        (["check", "--smoke", "--compare", "--workers", "4"],
         ["--compare", "--workers"]),
        (["check", "--smoke", "--out", "mc.jsonl"], ["--out"]),
        (["stress", "--smoke", "--ops", "1000"], ["--ops"]),
        (["stress", "--smoke", "--no-validate"], ["--validate"]),
        (["stress", "--smoke", "--readers", "2"], ["--readers"]),
        (["sweep", "--smoke", "--seeds", "64"], ["--seeds"]),
        (["sweep", "--smoke", "--readers", "4"], ["--readers"]),
        (["fuzz", "--smoke", "--batch", "8"], ["--batch"]),
    ], ids=["check-compare-workers", "check-out", "stress-ops",
            "stress-validate", "stress-readers", "sweep-seeds",
            "sweep-readers", "fuzz-batch"])
    def test_exits_2_naming_the_flags(self, argv, flags, capsys):
        assert run_main(argv) == 2
        err = capsys.readouterr().err
        for flag in flags:
            assert flag in err

    def test_stress_smoke_keeps_runtime_and_faults(self, capsys):
        # CI smokes the process runtime with --smoke --runtime process.
        assert run_main([
            "stress", "--smoke", "--runtime", "process",
            "--faults", "delay", "--print-spec",
        ]) == 0
        text = capsys.readouterr().out
        for line in ('runtime = "process"', "ops = 8", "threads = 4",
                     "validate = true", 'faults = "delay"', "seeds = [0]"):
            assert line in text

    def test_sweep_smoke_keeps_out(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.jsonl")
        assert run_main(["sweep", "--smoke", "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 2


# -- --print-spec ------------------------------------------------------------


class TestPrintSpec:
    @pytest.mark.parametrize("argv,flag", [
        (["stress", "--duration", "5", "--print-spec"], "--duration"),
        (["stress", "--duration", "5", "--no-validate", "--print-spec"],
         "--duration"),
        (["fuzz", "--target", "alg1-w1-r1", "--time-budget", "5",
          "--print-spec"], "--time-budget"),
        # One violation stops every target of the command; a campaign
        # point stops only its own.
        (["fuzz", "--target", "buggy-counter", "alg1-w1-r1",
          "--print-spec"], "--keep-going"),
        (["fuzz", "--print-spec"], "--keep-going"),
    ])
    def test_inexpressible_flag_exits_2(self, argv, flag, capsys):
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    def test_duration_with_ops_prints(self, capsys):
        assert run_main([
            "stress", "--duration", "5", "--ops", "3", "--print-spec",
        ]) == 0
        assert "ops = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,line", [
        ("--no-validate", "validate = false"),
        ("--validate", "validate = true"),
    ])
    def test_stress_validate_is_carried(self, flag, line, capsys):
        assert run_main(["stress", "--ops", "4", flag, "--print-spec"]) == 0
        assert line in capsys.readouterr().out

    def test_stress_default_validation_stays_implicit(self, capsys):
        assert run_main(["stress", "--ops", "4", "--print-spec"]) == 0
        assert "validate" not in capsys.readouterr().out

    def test_fuzz_keep_going_is_carried(self, capsys):
        argv = ["fuzz", "--target", "alg1-w1-r1", "--print-spec"]
        assert run_main(argv) == 0
        assert "stop_on_violation" not in capsys.readouterr().out
        assert run_main(argv + ["--keep-going"]) == 0
        assert "stop_on_violation = false" in capsys.readouterr().out

    def test_check_compare_adds_a_baseline_section(self, capsys):
        assert run_main([
            "check", "--scenario", "alg1-w1-r1", "--compare",
            "--print-spec",
        ]) == 0
        text = capsys.readouterr().out
        assert 'name = "baseline"' in text
        assert "reduce = false" in text and "fingerprints = false" in text

    def test_unknown_scenario_is_not_printed(self, capsys):
        assert run_main(["check", "--scenario", "wat", "--print-spec"]) == 2
        captured = capsys.readouterr()
        assert "wat" in captured.err and captured.out == ""


# -- argv -> entry-point arguments -------------------------------------------


def _perfbench_workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _resolved_stress_call(args, kwargs):
    """A ``run_stress`` call as the run sees it: every parameter bound
    (defaults applied), the role split resolved and ``validate=None``
    resolved by run_stress's own rule."""
    from repro.rt.stress import run_stress, split_threads

    bound = inspect.signature(run_stress).bind(*args, **kwargs)
    bound.apply_defaults()
    call = dict(bound.arguments)
    call["roles"] = split_threads(
        call.pop("threads"), call.pop("readers"), call.pop("writers"),
        call.pop("auditors"),
    )
    if call["validate"] is None:
        call["validate"] = call["ops"] is not None or call["online"]
    return call


#: The keywords ``repro stress`` passed to run_stress before it ran
#: its synthesized spec (the defaults of its flags).
_STRESS_CLI_CALL = dict(
    threads=8, readers=None, writers=None, auditors=None, ops=25,
    duration=None, seed=0, validate=None, runtime="thread", faults=None,
    fault_rate=100, online=False, event_log=None, stream_window=None,
    record_latency=True,
)


def _stress_cases(tmp):
    workloads = _perfbench_workloads()
    paths = workloads.Paths(
        record=os.path.join(tmp, "record.jsonl"),
        event_log=os.path.join(tmp, "events.jsonl"),
    )
    log = os.path.join(tmp, "chaos.jsonl")
    cases = [
        ("perfbench thread-audit",
         workloads.WORKLOADS["thread-audit"].argv(7, 4000, paths),
         dict(readers=1, writers=1, auditors=1, online=True, seed=7,
              ops=4000)),
        ("perfbench process-chaos",
         workloads.WORKLOADS["process-chaos"].argv(3, 1000, paths),
         dict(runtime="process", readers=1, writers=1, auditors=1,
              online=True, event_log=paths.event_log,
              faults="delay,partition", fault_rate=50, seed=3, ops=1000)),
        ("ci thread smoke", ["stress", "--smoke"],
         dict(threads=4, ops=8, validate=True)),
        ("ci thread acceptance",
         ["stress", "--object", "register", "--threads", "8"], {}),
        ("ci process smoke", ["stress", "--smoke", "--runtime", "process"],
         dict(threads=4, ops=8, validate=True, runtime="process")),
        ("ci process acceptance",
         ["stress", "--object", "register", "--runtime", "process",
          "--threads", "8"],
         dict(runtime="process")),
        ("ci serve online",
         ["stress", "--object", "max", "--threads", "4", "--ops", "100",
          "--online", "--event-log", log],
         dict(threads=4, ops=100, online=True, event_log=log)),
        ("duration only", ["stress", "--duration", "0.5", "--no-latency"],
         dict(ops=None, duration=0.5, record_latency=False)),
        ("watchdog off", ["stress", "--ops", "3", "--join-watchdog", "0"],
         dict(ops=3, join_watchdog=None)),
    ]
    for runtime in ("thread", "process"):
        cases.append((
            f"ci chaos online {runtime}",
            ["stress", "--object", "register", "--runtime", runtime,
             "--threads", "4", "--ops", "50", "--faults",
             "delay,partition", "--fault-rate", "200", "--online",
             "--event-log", log],
            dict(runtime=runtime, threads=4, ops=50,
                 faults="delay,partition", fault_rate=200, online=True,
                 event_log=log),
        ))
        cases.append((
            f"ci chaos batch {runtime}",
            ["stress", "--object", "register", "--runtime", runtime,
             "--threads", "4", "--ops", "50", "--faults",
             "crash,partition,omit,recover", "--fault-rate", "200"],
            dict(runtime=runtime, threads=4, ops=50,
                 faults="crash,partition,omit,recover", fault_rate=200),
        ))
    return cases


class TestEntryPointArguments:
    def test_stress_argvs_reach_run_stress_unchanged(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.rt
        from repro.rt.stress import StressReport

        calls = []

        def fake_run_stress(*args, **kwargs):
            calls.append(_resolved_stress_call(args, kwargs))
            return StressReport(
                object=calls[-1]["object"], readers=1, writers=1,
                auditors=1, seed=0, ops_budget=1, duration=None,
            )

        monkeypatch.setattr(repro.rt, "run_stress", fake_run_stress)
        for name, argv, changes in _stress_cases(str(tmp_path)):
            calls.clear()
            assert main(argv) == 0, name
            expected = dict(_STRESS_CLI_CALL, object="register")
            object_flag = argv.index("--object") if "--object" in argv else -1
            if object_flag >= 0:
                expected["object"] = argv[object_flag + 1]
            expected.update(changes)
            assert calls == [_resolved_stress_call((), expected)], name
        capsys.readouterr()

    @pytest.mark.parametrize("argv,expected", [
        (["check"], "e13"),
        (["check", "--smoke"], [("alg1-w1-r1", True)]),
        (["check", "--scenario", "alg1-w1-r1", "alg1-w2", "--compare"],
         [("alg1-w1-r1", False), ("alg1-w1-r1", True),
          ("alg1-w2", False), ("alg1-w2", True)]),
    ], ids=["perfbench-e13", "ci-smoke", "compare"])
    def test_check_argvs_reach_explore_unchanged(
        self, argv, expected, monkeypatch, capsys
    ):
        import repro.mc
        import repro.mc.scenarios
        from repro.mc import ExplorationReport
        from repro.mc.scenarios import E13_SUITE

        if expected == "e13":
            argv = _perfbench_workloads().WORKLOADS["check-e13"].argv(
                0, None, None
            )
            expected = [(key, True) for _, key in E13_SUITE]
        built, calls = [], []
        get_scenario = repro.mc.scenarios.get_scenario

        def recording_get_scenario(name):
            built.append(name)
            return get_scenario(name)

        def fake_explore(factory, check, **kwargs):
            calls.append(kwargs)
            return ExplorationReport(executions=1, distinct_states=1)

        monkeypatch.setattr(
            repro.mc.scenarios, "get_scenario", recording_get_scenario
        )
        monkeypatch.setattr(repro.mc, "explore", fake_explore)
        assert main(argv) == 0
        assert built == [name for name, _ in expected]
        assert calls == [
            dict(max_executions=300_000, max_depth=200, reduce=reduce,
                 fingerprints=reduce)
            for _, reduce in expected
        ]
        capsys.readouterr()

    def test_check_workers_reach_explore_parallel_unchanged(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.mc.parallel
        from repro.mc import ExplorationReport

        calls = []

        def fake_explore_parallel(scenario, **kwargs):
            calls.append((scenario, kwargs))
            return ExplorationReport(executions=1, distinct_states=1)

        monkeypatch.setattr(
            repro.mc.parallel, "explore_parallel", fake_explore_parallel
        )
        out = str(tmp_path / "mc.jsonl")
        assert main([
            "check", "--scenario", "alg1-w1-r1", "alg1-w2", "--workers",
            "0", "--out", out, "--frontier-depth", "4", "--no-resume",
            "--no-fingerprints",
        ]) == 0
        common = dict(
            workers=None, frontier_depth=4, max_executions=300_000,
            max_depth=200, reduce=True, fingerprints=False, resume=False,
        )
        assert calls == [
            ("alg1-w1-r1", dict(common, checkpoint=out + ".alg1-w1-r1")),
            ("alg1-w2", dict(common, checkpoint=out + ".alg1-w2")),
        ]
        capsys.readouterr()


# -- the CLI equals its printed spec ------------------------------------------


def _campaign_records(argv, tmp_path, capsys):
    """Run ``repro campaign run`` on ``argv --print-spec``; return the
    records of its one section (or of the section named like argv[0])."""
    assert main(argv + ["--print-spec"]) == 0
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(capsys.readouterr().out)
    base = str(tmp_path / "campaign")
    main(["campaign", "run", str(spec_path), "--out", base,
          "--workers", "1"])
    capsys.readouterr()
    with open(f"{base}.{argv[0]}.jsonl") as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib is 3.11+")
class TestCliEqualsPrintedSpec:
    def test_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--seeds", "2", "--readers", "1", "2",
                "--writers", "1", "--workers", "1"]
        out = str(tmp_path / "cli.jsonl")
        assert main(argv + ["--out", out]) == 0
        capsys.readouterr()
        with open(out) as handle:
            cli = [json.loads(line) for line in handle]
        campaign = _campaign_records(argv, tmp_path, capsys)
        assert len(cli) == 4
        assert [r["seed"] for r in cli] == [r["seed"] for r in campaign]
        assert [r["payload"] for r in cli] == [
            r["payload"] for r in campaign
        ]

    def test_check(self, tmp_path, capsys):
        argv = ["check", "--scenario", "alg1-w1-r1", "buggy-counter",
                "--max-executions", "20"]
        assert main(argv) == 1
        rows = parse_table(capsys.readouterr().out)
        campaign = _campaign_records(argv, tmp_path, capsys)
        assert [
            (row["scenario"], int(row["explored"]), row["verdict"])
            for row in rows
        ] == [
            (r["payload"]["scenario"], r["payload"]["executions"],
             r["payload"]["verdict"])
            for r in campaign
        ] == [("alg1-w1-r1", 16, "PASS"), ("buggy-counter", 21, "FAIL")]

    @pytest.mark.parametrize("extra", [[], ["--no-validate"]],
                             ids=["validated", "unvalidated"])
    def test_stress(self, extra, tmp_path, capsys):
        from repro.campaign.executors import EXIT_CODES

        argv = ["stress", "--threads", "3", "--ops", "6", "--seed", "4"]
        out = str(tmp_path / "stress.jsonl")
        code = main(argv + extra + ["--no-latency", "--out", out])
        capsys.readouterr()
        with open(out) as handle:
            cli = json.loads(handle.read())
        (point,) = _campaign_records(argv + extra, tmp_path, capsys)
        payload = point["payload"]
        assert point["seed"] == cli["seed"] == 4
        assert code == EXIT_CODES[payload["verdict"]] == 0
        for key in ("validated", "lin_status", "audit_ok", "ops_budget",
                    "readers", "writers", "auditors"):
            assert payload[key] == cli[key], key
        assert cli["validated"] == (not extra)

    def test_fuzz(self, tmp_path, capsys):
        argv = ["fuzz", "--target", "alg1-w1-r1", "buggy-counter",
                "--schedules", "16", "--batch", "8", "--seed", "3",
                "--keep-going", "--no-shrink"]
        assert main(argv) == 1
        rows = parse_table(capsys.readouterr().out)
        campaign = _campaign_records(argv, tmp_path, capsys)
        assert {r["seed"] for r in campaign} == {3}
        assert [
            (row["target"], int(row["schedules"]), int(row["violations"]),
             row["verdict"])
            for row in rows
        ] == [
            (r["payload"]["target"], r["payload"]["schedules"],
             r["payload"]["violations"], r["payload"]["verdict"])
            for r in campaign
        ]
        assert [row["verdict"] for row in rows] == ["PASS", "FAIL"]
