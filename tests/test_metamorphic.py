"""Metamorphic relations at the command line, run in-process.

The order of a ledger's data rows and the blank lines between them carry
no meaning: the parser sorts records by year and skips rows whose cells are
all empty. So every command, in every format, must print the same bytes
and exit with the same code on a shuffled copy with blank lines inserted,
and ``figures`` must write the same files.

Rows outside the analysis window feed only the validation section, which
covers the whole file, and the record count in the text report's header.
Adding them changes nothing else that any command prints or writes; it also
takes the window from the ledger itself to a filtered copy.

Multiplying every money cell by 2**k changes only the exponents of the
levels, so every float that a command prints in JSON is bit-equal or
exactly 2**k times the original; only the allometric fit, which works on
logs, moves within a bound. And the share of one item in another moves
over the window as their growths do: M(last)/M(first) = (1 + g_num)/(1 + g_den).
"""

import contextlib
import csv
import io
import json
import math
import random
import re
import tempfile
from itertools import permutations
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ecometab.cli import main
from ecometab.ledger import MONEY_ITEMS, NONNEGATIVE_ITEMS, LedgerSeries
from helpers import VARIANT_KINDS, lira_text, variant_ledger

COMMANDS = ("report", "trend", "metabolism", "growth", "allometric", "crossover", "validate")
FORMATS = ("text", "json", "csv")
# Lines the parser skips: no cell holds anything but whitespace.
BLANK_LINES = ("", " ", "\t", ",,", " , ")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs(directory: Path, options, items):
    """Every command's (exit code, stdout, stderr) on ``directory``'s ledger, and the figures."""
    path = str(directory / "ledger.csv")
    runs = {
        (command, output_format): _run([
            command, "--input", path, "--format", output_format, *options,
            *(items if command in ("trend", "growth") else []),
        ])
        for command in COMMANDS for output_format in FORMATS
    }
    out_dir = directory / "figs"
    out_dir.mkdir()
    code, out, err = _run(["figures", "--input", path, "--out-dir", str(out_dir), *options])
    runs["figures"] = code, out.replace(str(directory), "<dir>"), err
    runs["figure files"] = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
    return runs


# A fixed profile: the same examples on every run, about two seconds in all. A
# failing example is reported as drawn: shrinking one can take minutes.
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(VARIANT_KINDS),
    shuffle_seed=st.integers(0, 2**32 - 1),
    blanks=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(BLANK_LINES)), max_size=6),
    options=st.sampled_from([
        [],
        ["--from", "2000", "--to", "2010"],
        ["--from", "1990", "--to", "1993"],
        ["--numerator", "services", "--denominator", "total_cost", "--alpha", "0.2"],
    ]),
    items=st.lists(st.sampled_from(MONEY_ITEMS), max_size=3),
)
def test_row_order_and_blank_lines_change_no_output(seed, kind, shuffle_seed, blanks,
                                                    options, items):
    text = lira_text(variant_ledger(seed, kind, n_years=24, first_year=1992))
    header, *rows = text.splitlines()
    random.Random(shuffle_seed).shuffle(rows)
    for at, line in blanks:
        rows.insert(at % (len(rows) + 1), line)
    shuffled = "\n".join([header, *rows]) + "\n"
    items = [flag for item in items for flag in ("--item", item)]
    with tempfile.TemporaryDirectory() as tmp:
        original, changed = Path(tmp, "original"), Path(tmp, "changed")
        for directory, content in ((original, text), (changed, shuffled)):
            directory.mkdir()
            (directory / "ledger.csv").write_text(content, encoding="utf-8")
        assert _outputs(original, options, items) == _outputs(changed, options, items)


def _outside_the_validation(runs):
    """The outputs with the validation section and the text header's record count cut out."""
    runs = dict(runs)
    for output_format in FORMATS:
        del runs[("validate", output_format)]
    cuts = {
        "json": lambda out: out.partition('\n  "validation": ')[0],
        "csv": lambda out: re.sub(r"(?m)^validation,.*\n", "", out),
        "text": lambda out: re.sub(r"^(Ledger: .* \()\d+ records", r"\1N records",
                                   re.sub(r"\nValidation findings\n(  .*\n)*", "", out)),
    }
    for output_format, cut in cuts.items():
        code, out, err = runs[("report", output_format)]
        runs[("report", output_format)] = code, cut(out), err
    return runs


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(VARIANT_KINDS),
    window=st.lists(st.integers(1992, 2015), min_size=2, max_size=2, unique=True).map(sorted),
    outside=st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    options=st.sampled_from([
        [],
        ["--numerator", "services", "--denominator", "total_cost", "--alpha", "0.2"],
    ]),
    items=st.lists(st.sampled_from(MONEY_ITEMS), max_size=3),
)
def test_rows_outside_the_window_change_only_the_validation(seed, kind, window, outside,
                                                          options, items):
    ledger = variant_ledger(seed, kind, n_years=30, first_year=1989)
    start, end = window
    inside = [r for r in ledger.records if start <= r.year <= end]
    # The years 1989-1991 and 2016-2018 lie outside every window drawn.
    others = [r for r in ledger.records if not 1992 <= r.year <= 2015]
    wider = sorted(inside + [others[i] for i in outside if i < len(others)],
                   key=lambda r: r.year)
    options = ["--from", str(start), "--to", str(end), *options]
    items = [flag for item in items for flag in ("--item", item)]
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, records in (("window", inside), ("wider", wider)):
            directory = Path(tmp, name)
            directory.mkdir()
            text = lira_text(LedgerSeries(ledger.organization, tuple(records)))
            (directory / "ledger.csv").write_text(text, encoding="utf-8")
            runs.append(_outside_the_validation(_outputs(directory, options, items)))
        assert runs[0] == runs[1]


def _json_runs(text, argvs):
    """The JSON each argv prints on a ledger file of ``text``; every run must succeed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "ledger.csv")
        path.write_text(text, encoding="utf-8")
        runs = []
        for argv in argvs:
            code, out, err = _run([*argv, "--input", str(path), "--format", "json"])
            assert (code, err) == (0, ""), (argv, err)
            runs.append(json.loads(out))
        return runs


def _scaled_text(text, k):
    """The ledger file with every money cell multiplied by 2**k, which is exact."""
    header, *rows = csv.reader(io.StringIO(text))
    money = [at for at, name in enumerate(header) if name in MONEY_ITEMS]
    for row in rows:
        for at in money:
            row[at] = row[at] and repr(math.ldexp(float(row[at]), k))
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows([header, *rows])
    return stream.getvalue()


_FLOAT_TEXT = re.compile(r"(-?(?:\d+\.\d*(?:e[-+]\d+)?|\d+e[-+]\d+))")
# The allometric fit's worst relative changes over 1,000 scaled reports were
# 2.2e-14, 1.7e-14, 4.0e-14, 4.7e-14 and 2.6e-13, in the order below; its log
# prefactor and that one's standard error shift by about k*ln(2) and are not
# compared.
ALLOMETRIC_RTOL = {"exponent": 1e-13, "se_exponent": 1e-13, "r_squared": 1e-13,
                   "f_statistic": 2e-13, "p_exponent": 1e-12}


def _assert_same_or_scaled(original, scaled, k):
    """Each float of ``scaled`` is bit-equal to, or exactly 2**k times, its original."""
    if isinstance(original, dict):
        assert original.keys() == scaled.keys()
        for key, value in original.items():
            _assert_same_or_scaled(value, scaled[key], k)
    elif isinstance(original, list):
        assert len(original) == len(scaled)
        for value, scaled_value in zip(original, scaled):
            _assert_same_or_scaled(value, scaled_value, k)
    elif isinstance(original, float):
        assert type(scaled) is float
        assert scaled.hex() in (original.hex(), math.ldexp(original, k).hex())
    elif isinstance(original, str):  # a validation message holds float reprs
        parts, scaled_parts = _FLOAT_TEXT.split(original), _FLOAT_TEXT.split(scaled)
        assert parts[::2] == scaled_parts[::2]
        _assert_same_or_scaled(list(map(float, parts[1::2])),
                               list(map(float, scaled_parts[1::2])), k)
    else:
        assert original == scaled


def _assert_allometric_close(original, scaled):
    """The fits' compared fields within their bounds, cut out of both; the others left."""
    for name, rtol in ALLOMETRIC_RTOL.items():
        value, scaled_value = original.pop(name), scaled.pop(name)
        assert abs(scaled_value - value) <= rtol * abs(value), name
    for name in ("log_prefactor", "se_log_prefactor"):
        del original[name], scaled[name]


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(VARIANT_KINDS),
    k=st.integers(-60, 60).filter(bool),
)
def test_power_of_two_scaling_scales_levels_exactly(seed, kind, k):
    text = lira_text(variant_ledger(seed, kind))
    argvs = [[command] for command in COMMANDS]
    for original, scaled in zip(_json_runs(text, argvs), _json_runs(_scaled_text(text, k), argvs)):
        if "allometric" in original:
            _assert_allometric_close(original["allometric"], scaled["allometric"])
        _assert_same_or_scaled(original, scaled, k)


# The worst error measured over 12,480 pairs of items was 4 ulps.
SHARE_RATIO_ULPS = 8


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(VARIANT_KINDS))
def test_share_ratio_over_the_window_is_the_growth_ratio(seed, kind):
    ledger = variant_ledger(seed, kind)
    items = [name for name in NONNEGATIVE_ITEMS if None not in ledger.columns[name]]
    pairs = list(permutations(items, 2))
    growth, *metabolism = _json_runs(lira_text(ledger), [
        ["growth", *(flag for item in items for flag in ("--item", item))],
        *(["metabolism", "--numerator", num, "--denominator", den] for num, den in pairs),
    ])
    for (num, den), run in zip(pairs, metabolism):
        points = run["metabolism"]["points"]
        ratio = points[-1]["share_percent"] / points[0]["share_percent"]
        expected = ((1.0 + growth["growth"][num]["cumulative"])
                    / (1.0 + growth["growth"][den]["cumulative"]))
        assert abs(ratio - expected) <= SHARE_RATIO_ULPS * math.ulp(expected), (num, den)
