"""ecometab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports ecometab from
``src/`` (never an installed copy) and fails without printing a result when
``src/ecometab`` is absent. It writes only under ``.perfbench/``.

Every workload is a closed loop: one client on one thread sends the next op
when the previous one has completed. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` first probes interpreter start-up and import in cold
processes, then runs the same loop untraced for half the time and traced
for the other half, and reports the per-layer metrics. The last line of
stdout is the result; the line before it is the full record (environment,
sample counts, failure reasons).
"""

import argparse
import json
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 9
WARMUP_OPS = 4
PROBE_REPEATS = 11
STRESS_ROWS = 2000
BLOCK_MIN_OPS = 100

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "interpreter.startup_ms_p50": "ms",
    "import.ecometab_ms_p50": "ms",
    "import.ecometab_cli_cum_ms": "ms",
    "ledger.parse_ledger.us_per_row": "us",
    "ledger.extract_series.calls_per_op": "count",
    "ledger.extract_series.self_ms_per_op": "ms",
    "ledger.FiscalRecord.item.calls_per_op": "count",
    "ledger.validate_ledger.ms_per_op": "ms",
    "stats.t_critical.us_per_call": "us",
    "stats.p_value_t.calls_per_op": "count",
    "stats.betainc.calls_per_op": "count",
    "stats.betainc.us_per_call": "us",
    "stats.ols_fit.self_ms_per_op": "ms",
    "stats.descriptives.ms_per_op": "ms",
    "metabolism.trend_fit.self_ms_per_op": "ms",
    "metabolism.allometric_fit.self_ms_per_op": "ms",
    "metabolism.metabolism_index.self_ms_per_op": "ms",
    "metabolism.arithmetic_growth.self_ms_per_op": "ms",
    "metabolism.crossover_years.self_ms_per_op": "ms",
    "metabolism.mean_cost_profile.self_ms_per_op": "ms",
    "cli.run_report.self_ms_per_op": "ms",
    "cli.report_to_json.ms_per_op": "ms",
    "cli.render_report_text.ms_per_op": "ms",
    "cli.report_to_csv.ms_per_op": "ms",
    "cli.main.in_process_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Times cli.main in a fresh process, after the import, on the argv given.
MAIN_PROBE = (
    "import contextlib, io, sys, time\n"
    "from ecometab import cli\n"
    "start = time.perf_counter_ns()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print((time.perf_counter_ns() - start) / 1e6, code)\n"
)

# Cold processes run without site start-up (-S). Site hooks of the host, such
# as a .pth file importing certifi, cost ~20 ms and most of the tail of a
# cold run; they are environment cost, not ecometab's, and ecometab needs
# nothing from site-packages: src/ comes in through PYTHONPATH.
PYTHON = (sys.executable, "-S")

cli = None  # ecometab.cli, imported from src/ by load_program()


def load_program():
    """Import ecometab from this checkout's ``src/``; exit with an error if absent."""
    global cli
    if not os.path.isfile(os.path.join(SRC, "ecometab", "__init__.py")):
        sys.exit(f"perfbench: no ecometab sources under {SRC}")
    sys.path.insert(0, SRC)
    from ecometab import cli as module

    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ecometab was imported from {module.__file__}, not {SRC}")
    cli = module


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def report_argv(case):
    return ["report", "--input", case.path,
            "--from", str(case.period[0]), "--to", str(case.period[1]),
            "--alpha", repr(case.alpha), "--format", case.output_format]


def in_process_report(case):
    return cli.run_report(cli.ReportConfig(
        input_path=Path(case.path), period=case.period, alpha=case.alpha))


def run_child(command):
    """Run ``command`` to its end: (exit code, stdout, stderr, peak RSS in KiB).

    The peak RSS is the child's own, from ``wait4``, so no other process the
    benchmark starts (such as the environment probe) counts in it.
    """
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), cwd=ROOT) as child:
        chunks = {child.stdout: [], child.stderr: []}
        with selectors.DefaultSelector() as selector:
            for stream in chunks:
                selector.register(stream, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, b"".join(chunks[child.stdout]),
            b"".join(chunks[child.stderr]), usage.ru_maxrss)


# ---------------------------------------------------------------------------
# Workloads. Each has ``cases`` (cycled by the loop), ``setup``, ``op``
# (the timed part), ``check`` (untimed; a reason string on failure),
# ``collect`` (untimed; gathers what a traced op recorded elsewhere) and
# ``peak_rss_mb``.


class InProcessReport:
    """run_report on a pre-written ledger, then all three renderers."""

    def __init__(self, make_cases):
        self.make_cases = make_cases
        self.cases = []

    def setup(self, seed, directory):
        """Build the case pool under ``directory`` and warm up.

        Returns (set-up seconds, file-writing seconds). Writing the ledger
        files is timed apart and left out of the set-up time: it is the
        benchmark's own disk traffic, which no change to ecometab moves, and
        on a shared disk it drifts with everything else written there.
        """
        clock = time.perf_counter_ns
        start = clock()
        self.cases, files = self.make_cases(seed, directory)
        generated = clock()
        inputs.write_files(files)
        written = clock()
        self.warm_up()
        return (generated - start + clock() - written) / 1e9, (written - generated) / 1e9

    def warm_up(self):
        for case in self.cases[:WARMUP_OPS]:
            self.op(case, None)

    def peak_rss_mb(self):
        """The benchmark's own peak RSS: the ops run in this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def main_argv(self):
        return report_argv(self.cases[0])

    def op(self, case, tracer):
        report = in_process_report(case)
        return (cli.report_to_json(report), cli.render_report_text(report),
                cli.report_to_csv(report))

    def check(self, case, outputs):
        return checks.check_report_outputs(outputs, case)

    def collect(self, tracer, op):
        pass


class ColdCli(InProcessReport):
    """A cold ``python -S -m ecometab report`` subprocess per op."""

    def __init__(self):
        super().__init__(lambda seed, d: inputs.full_window_cases(seed, d, 19, "cli"))
        self.expected = {}
        self.spans_path = None
        self.peak_rss_kib = 0

    def setup(self, seed, directory):
        self.spans_path = os.path.join(directory, "child-spans.json")
        return super().setup(seed, directory)

    def warm_up(self):
        render = {"text": cli.render_report_text, "json": cli.report_to_json,
                  "csv": cli.report_to_csv}
        self.expected = {
            case: render[case.output_format](in_process_report(case)).encode()
            for case in self.cases
        }
        for case in self.cases[:2]:
            self.op(case, None)

    def op(self, case, tracer):
        if tracer is None:
            command = [*PYTHON, "-m", "ecometab", *report_argv(case)]
        else:
            command = [*PYTHON, os.path.join(HERE, "child.py"), self.spans_path,
                       *report_argv(case)]
        returncode, stdout, stderr, peak_rss_kib = run_child(command)
        self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_kib)
        return returncode, stdout, stderr

    def peak_rss_mb(self):
        """The largest peak RSS of any report child."""
        return self.peak_rss_kib / 1024

    def check(self, case, result):
        return checks.check_cli(result, self.expected[case], case)

    def collect(self, tracer, op):
        with open(self.spans_path, encoding="utf-8") as stream:
            child = json.load(stream)
        os.remove(self.spans_path)
        spans.merge(tracer.spans, child["spans"], op)
        for name, count in child["counts"].items():
            tracer.counts[name] += count


WORKLOADS = {
    "paper_cli": ColdCli,
    "paper_batch": lambda: InProcessReport(inputs.paper_batch_cases),
    "stress_ledger": lambda: InProcessReport(
        lambda seed, d: inputs.full_window_cases(seed, d, STRESS_ROWS, "stress")),
}


# ---------------------------------------------------------------------------
# Measurement


def block_summary(latencies_ns):
    """(ops/s, p50 ms, p90 ms, samples beyond the p90) of one block of ops."""
    p90 = statistics.quantiles(latencies_ns, n=100)[89] / 1e6
    return (len(latencies_ns) / (sum(latencies_ns) / 1e9), statistics.median(latencies_ns) / 1e6,
            p90, sum(1 for t in latencies_ns if t / 1e6 > p90))


@dataclass
class Phase:
    """One measured phase: op counts and a summary of each block of ops.

    A block holds ``block_ops`` ops. Latencies are kept only for the block
    in progress, so the benchmark's memory does not grow with the number
    of ops it runs. The end-to-end metrics are medians over the blocks: a
    burst of load from other tenants moves only the blocks it overlaps.
    """

    block_ops: int
    block_ns: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    ops: int = 0
    busy_ns: int = 0
    rows: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, elapsed_ns):
        self.ops += 1
        self.busy_ns += elapsed_ns
        self.block_ns.append(elapsed_ns)
        if len(self.block_ns) == self.block_ops:
            self.blocks.append(block_summary(self.block_ns))
            self.block_ns = []

    @property
    def ops_per_s(self):
        return self.ops / (self.busy_ns / 1e9)

    def summaries(self):
        """Every full block; a phase shorter than one block counts as one."""
        return self.blocks or [block_summary(self.block_ns)]


def measure(workload, seconds, tracer=None):
    """Run ops until they have taken ``seconds`` in total.

    Only the op is timed; its check runs between ops. A block holds at
    least ``BLOCK_MIN_OPS`` ops, so ten samples lie beyond its p90, and at
    least one whole pass through the case pool. A traced phase ends on a
    whole cycle through the pool, so its per-op counts repeat exactly from
    run to run.
    """
    cases = workload.cases
    phase = Phase(max(BLOCK_MIN_OPS, len(cases)))
    k = 0
    while phase.busy_ns < seconds * 1e9 or (tracer is not None and k % len(cases)):
        case = cases[k % len(cases)]
        if tracer is not None:
            tracer.op = k
        start = time.perf_counter_ns()
        try:
            output = workload.op(case, tracer)
        except Exception as exc:  # a failing op is counted, not fatal
            output = exc
        phase.add(time.perf_counter_ns() - start)
        phase.rows += case.rows
        if isinstance(output, Exception):
            reason = f"{type(output).__name__}: {output}"
        else:
            reason = workload.check(case, output)
        if tracer is not None and reason is None:
            workload.collect(tracer, k)
        if reason is not None:
            phase.failed += 1
            if len(phase.reasons) < 5:
                phase.reasons.append(f"op {k}: {reason}")
        k += 1
    return phase


def wall_ms(command):
    start = time.perf_counter_ns()
    done = subprocess.run(command, capture_output=True, env=child_env(), cwd=ROOT,
                          check=False)
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if done.returncode != 0:
        raise RuntimeError(f"{command[1:]} failed: {done.stderr.decode(errors='replace')}")
    return elapsed, done


def importtime_cum_ms():
    _, done = wall_ms([*PYTHON, "-X", "importtime", "-c", "import ecometab"])
    for line in done.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "ecometab.cli":
            return int(parts[1]) / 1e3
    raise RuntimeError("-X importtime printed no line for ecometab.cli")


def main_in_process_ms(argv):
    _, done = wall_ms([*PYTHON, "-c", MAIN_PROBE, *argv])
    ms, code = done.stdout.decode().split()
    if code != "0":
        raise RuntimeError(f"cli.main{argv} returned {code}")
    return float(ms)


def probe(workload):
    """Cold-process reference times, the same for every workload but main."""
    median = statistics.median
    repeats = range(PROBE_REPEATS)
    return {
        "interpreter.startup_ms_p50":
            median(wall_ms([*PYTHON, "-c", "pass"])[0] for _ in repeats),
        "import.ecometab_ms_p50":
            median(wall_ms([*PYTHON, "-c", "import ecometab"])[0] for _ in repeats),
        "import.ecometab_cli_cum_ms": median(importtime_cum_ms() for _ in repeats),
        "cli.main.in_process_ms":
            median(main_in_process_ms(workload.main_argv()) for _ in repeats),
    }


def end_to_end_metrics(phase, setup_s, workload):
    median = statistics.median
    blocks = phase.summaries()
    return {
        "ops_per_s": median(b[0] for b in blocks),
        "op_ms_p50": median(b[1] for b in blocks),
        "op_ms_p90": median(b[2] for b in blocks),
        "setup_s": median(setup_s),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def layer_metrics(tracer, phase, plain, probed):
    totals = spans.totals(tracer.spans)
    ops = phase.ops

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def ms_per_op(name, own=False):
        return totals.get(name, (0, 0, 0))[2 if own else 1] / ops / 1e6

    def us_per_call(name):
        n, inclusive, _ = totals.get(name, (0, 0, 0))
        return inclusive / n / 1e3 if n else 0.0

    metrics = {
        **{k: v for k, v in probed.items() if k != "cli.main.in_process_ms"},
        "ledger.parse_ledger.us_per_row":
            totals.get("ledger.parse_ledger", (0, 0, 0))[1] / phase.rows / 1e3,
        "ledger.extract_series.calls_per_op": calls("ledger.extract_series") / ops,
        "ledger.extract_series.self_ms_per_op": ms_per_op("ledger.extract_series", own=True),
        "ledger.FiscalRecord.item.calls_per_op": tracer.counts[spans.ITEM_COUNTER] / ops,
        "ledger.validate_ledger.ms_per_op": ms_per_op("ledger.validate_ledger"),
        "stats.t_critical.us_per_call": us_per_call("stats.t_critical"),
        "stats.p_value_t.calls_per_op": calls("stats.p_value_t") / ops,
        "stats.betainc.calls_per_op": calls("stats.betainc") / ops,
        "stats.betainc.us_per_call": us_per_call("stats.betainc"),
        "stats.ols_fit.self_ms_per_op": ms_per_op("stats.ols_fit", own=True),
        "stats.descriptives.ms_per_op": ms_per_op("stats.descriptives"),
    }
    for name in ("trend_fit", "allometric_fit", "metabolism_index", "arithmetic_growth",
                 "crossover_years", "mean_cost_profile"):
        metrics[f"metabolism.{name}.self_ms_per_op"] = ms_per_op(f"metabolism.{name}", own=True)
    metrics["cli.run_report.self_ms_per_op"] = ms_per_op("cli.run_report", own=True)
    for name in ("report_to_json", "render_report_text", "report_to_csv"):
        metrics[f"cli.{name}.ms_per_op"] = ms_per_op(f"cli.{name}")
    metrics["cli.main.in_process_ms"] = probed["cli.main.in_process_ms"]
    metrics["trace.overhead_ratio"] = phase.ops_per_s / plain.ops_per_s
    return metrics


# ---------------------------------------------------------------------------
# Environment record


def git_sha():
    """The checkout's commit; None outside a git clone or without git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, check=False,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def fs_type(path):
    """Filesystem type of the mount holding ``path``, from mountinfo."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def environment(work_dir):
    _, done = wall_ms([sys.executable, "-c", "import sys; print('certifi' in sys.modules)"])
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "work_dir_fs": fs_type(work_dir),
        "site_startup_imports_certifi": done.stdout.decode().strip() == "True",
        "notes": [
            "No machine setting was touched: no CPU pinning, no cache dropping, "
            "no sync. Other tenants share the CPUs and the disk.",
            "Cold processes run with -S: what the interpreter's site start-up "
            "imports (for example a .pth hook importing certifi) is environment "
            "cost, not ecometab's, and stays out of paper_cli and of "
            "interpreter.startup_ms_p50, against which paper_cli is read.",
        ],
    }


# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace):
    workload = WORKLOADS[name]()
    base = os.path.join(WORK, name)
    shutil.rmtree(base, ignore_errors=True)
    setup_s, write_s = [], []
    for i in range(1 if trace else SETUP_REPEATS):
        directory = os.path.join(base, f"setup{i}")
        os.makedirs(directory)
        timed, writing = workload.setup(seed, directory)
        setup_s.append(timed)
        write_s.append(writing)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(base), "setup_s_samples": setup_s,
              "write_files_s_samples": write_s}
    if trace:
        probed = probe(workload)
        plain = measure(workload, seconds / 2)
        tracer = spans.Tracer()
        with tracer.installed():
            phase = measure(workload, seconds / 2, tracer)
        metrics = layer_metrics(tracer, phase, plain, probed)
        units = PER_LAYER
        spans_file = os.path.join(base, f"spans-seed{seed}.json")
        with open(spans_file, "w", encoding="utf-8") as stream:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, stream)
        record["spans_file"] = os.path.relpath(spans_file, ROOT)
        phases = (plain, phase)
    else:
        phase = measure(workload, seconds)
        metrics = end_to_end_metrics(phase, setup_s, workload)
        units = END_TO_END
        phases = (phase,)
        record["blocks"] = len(phase.summaries())
        record["min_samples_beyond_block_p90"] = min(b[3] for b in phase.summaries())
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [r for p in phases for r in p.reasons],
        "op_samples": phase.ops,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
