"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run.load_program()
sys.path.insert(0, os.path.join(run.ROOT, "tests"))

from ecometab import ledger as ecoledger  # noqa: E402
from ecometab.cli import ReportConfig, run_report  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    return tmp_path


def _parse(path):
    with open(path, encoding="utf-8", newline="") as stream:
        return ecoledger.parse_ledger(stream)


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_base_rows_are_the_test_helpers_ledger(seed):
    from helpers import random_ledger

    expected = random_ledger(seed)
    rows = inputs.base_rows(seed)
    assert [r["year"] for r in rows] == list(expected.years)
    for row, record in zip(rows, expected.records):
        assert all(row[name] == record.item(name) for name in inputs.MONEY_ITEMS)


@pytest.mark.parametrize("kind", inputs.KINDS)
def test_ledger_file_parses_to_the_generated_values(tmp_path, kind):
    rows = inputs.ledger_rows(42, 19, kind)
    path = tmp_path / "ledger.csv"
    inputs.write_files({path: inputs.ledger_text(rows)})
    with open(path, encoding="utf-8") as stream:
        currencies = [line.split(",")[1] for line in stream.readlines()[1:]]
    assert currencies == ["ITL" if r["year"] < 2002 else "EUR" for r in rows]

    ledger = _parse(path)
    assert ledger.years == tuple(r["year"] for r in rows)
    for row, record in zip(rows, ledger.records):
        for name in inputs.MONEY_ITEMS:
            if row[name] is None:
                assert record.item(name) is None
            else:
                assert math.isclose(record.item(name), row[name], rel_tol=1e-15)
    findings = {f.kind for f in ecoledger.validate_ledger(ledger)}
    assert ("year_gap" in findings) == (kind == "gap")
    assert ("personnel_decomposition_mismatch" in findings) == (kind == "mismatch")


def test_paper_batch_windows_span_df_5_to_17(tmp_path):
    cases, files = inputs.paper_batch_cases(3, str(tmp_path), pool=64)
    assert {len(c.years) - 2 for c in cases} <= set(range(5, 18))
    assert {c.alpha for c in cases} == set(inputs.ALPHAS)
    assert len({c.path for c in cases}) == 64
    assert set(files) == {c.path for c in cases}


def test_item_calls_per_full_window_eur_report(tmp_path):
    from helpers import random_ledger, write_ledger_file

    path = write_ledger_file(tmp_path / "eur.csv", random_ledger(5))
    tracer = spans.Tracer()
    with tracer.installed():
        run_report(ReportConfig(input_path=path))
    assert tracer.counts[spans.ITEM_COUNTER] == 931
    totals = spans.totals(tracer.spans)
    assert totals["ledger.extract_series"][0] == 12
    assert totals["stats.p_value_t"][0] == 52


def test_tracer_rebinds_every_import_and_restores_them():
    from ecometab import cli, metabolism, stats

    originals = (stats.p_value_t, cli.p_value_t, metabolism.t_critical,
                 ecoledger.FiscalRecord.item)
    with spans.Tracer().installed():
        assert cli.p_value_t is stats.p_value_t is not originals[0]
        assert metabolism.t_critical is stats.t_critical is not originals[2]
        assert ecoledger.FiscalRecord.item is not originals[3]
    assert (stats.p_value_t, cli.p_value_t, metabolism.t_critical,
            ecoledger.FiscalRecord.item) == originals


def test_self_time_subtracts_child_spans():
    recorded = [["outer", 0, 100, -1, 0], ["inner", 10, 40, 0, 0], ["inner", 50, 60, 0, 0]]
    totals = spans.totals(recorded)
    assert totals["outer"] == (1, 100, 60)
    assert totals["inner"] == (2, 40, 40)


def test_corrupted_json_counts_every_op_as_failed(work, monkeypatch):
    workload = run.WORKLOADS["paper_batch"]()
    workload.setup(1, str(work))
    real = run.cli.report_to_json

    def skewed(report):
        payload = json.loads(real(report))
        payload["growth"]["total_cost"]["cumulative"] *= 1 + 1e-9
        return json.dumps(payload)

    for corrupt in (lambda report: real(report)[:-3], skewed):
        monkeypatch.setattr(run.cli, "report_to_json", corrupt)
        phase = run.measure(workload, 0.05)
        assert phase.ops > 0
        assert phase.failed == phase.ops


def test_exception_in_an_op_counts_as_failed(work, monkeypatch):
    workload = run.WORKLOADS["stress_ledger"]()
    workload.cases, files = inputs.full_window_cases(1, str(work), 19, "x")
    inputs.write_files(files)

    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(run.cli, "run_report", broken)
    phase = run.measure(workload, 0.01)
    assert phase.failed == phase.ops > 0
    assert "RuntimeError: boom" in phase.reasons[0]


def test_cli_output_must_match_the_in_process_renderer(tmp_path):
    case = inputs.full_window_cases(1, str(tmp_path), 19, "cli")[0][0]
    assert case.output_format == "text"
    good = b"Ledger: x\nCross-checks\n"
    assert checks.check_cli((0, good, b""), good, case) is None
    assert checks.check_cli((0, b"Ledger: y", b""), good, case) is not None
    assert checks.check_cli((1, good, b""), good, case) is not None
    assert checks.check_cli((0, good, b"warning"), good, case) is not None


def test_cli_output_is_checked_in_every_format(work):
    workload = run.WORKLOADS["paper_cli"]()
    workload.setup(1, str(work))
    for case in workload.cases[:3]:
        expected = workload.expected[case]
        assert checks.check_cli((0, expected, b""), expected, case) is None
        # Output that the renderer itself got wrong fails, whatever the format.
        broken = expected[: len(expected) // 2]
        assert checks.check_cli((0, broken, b""), broken, case) is not None


def test_child_peak_rss_is_each_childs_own():
    touch = "b = bytearray(48 << 20); b[::4096] = b'x' * len(b[::4096])"
    big = run.run_child([*run.PYTHON, "-c", touch])
    small = run.run_child([*run.PYTHON, "-c", "print('ok')"])
    assert big[0] == small[0] == 0 and small[1] == b"ok\n"
    assert big[3] >= 48 << 10 > small[3]


def test_latencies_are_kept_for_one_block_only(work):
    workload = run.WORKLOADS["paper_batch"]()
    workload.setup(1, str(work))
    phase = run.measure(workload, 0.6)
    assert phase.block_ops == 256
    assert phase.ops == len(phase.blocks) * 256 + len(phase.block_ns)
    assert len(phase.block_ns) < phase.block_ops


def test_short_runs_report_exactly_the_declared_metrics(work):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        declared = json.load(stream)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)

    _, result = run.run("paper_batch", 1, 0.05, 0)
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = [run.run("paper_batch", 2, 0.05, 1)[1] for _ in range(2)]
    assert all(r["correct"] for r in traced)
    assert set(traced[0]["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        if unit == "count":
            assert traced[0]["metrics"][name] == traced[1]["metrics"][name]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, check=False,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == b""
