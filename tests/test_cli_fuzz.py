"""Fuzzing the command line in-process.

Every run must return 0, or return 1 with exactly one stderr line starting
``error: ``. Only ``-h``/``--help`` (also as ``-hh`` or an abbreviation such
as ``--he``) may end in ``SystemExit(0)``. Arguments mix the real commands
and flags with garbage values (newlines and empty strings included), and
``--input`` names a seeded ledger, one with values near the ends of the
float range, a generated garbage file, a directory or a missing path. A
successful JSON run holds no ``NaN``.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecometab.cli import FIGURE_IDS, main
from ecometab.ledger import COLUMNS, MONEY_ITEMS
from helpers import ledger_of, lira_text, variant_ledger

COMMANDS = ("report", "trend", "metabolism", "growth", "allometric", "crossover",
            "figures", "validate")
# Odds are set with ``sampled_from``, which Hypothesis draws near uniformly;
# its small bounded integers lean hard towards 0.
# Junk: a list heavy in line breaks, or random text one time in six.
_junk = st.sampled_from(["", "\n", "a\nb", "a\rb", "-", None]).flatmap(
    lambda v: st.text(max_size=6) if v is None else st.just(v)
)


def _one_in(n):
    return st.sampled_from([True] + [False] * (n - 1))


VALUES = {
    "--from": st.integers(1985, 2005).map(str),
    "--to": st.integers(2000, 2020).map(str),
    "--alpha": st.sampled_from(["0.05", "0.01", "0.2"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--numerator": st.sampled_from(MONEY_ITEMS),
    "--denominator": st.sampled_from(MONEY_ITEMS),
    "--delimiter": st.sampled_from([",", ",", ";"]),
    "--item": st.sampled_from(MONEY_ITEMS),
    "--figure": st.sampled_from(FIGURE_IDS),
}
OWN_FLAGS = {"--item": ("trend", "growth"), "--figure": ("figures",)}


def _extreme_ledger():
    """A 1992-2015 ledger whose values reach from 1e-300 to 1.7e306.

    A 1992 total_cost of 1e-300 makes its growth from 1992 overflow. 1997
    is scaled by 1e291 but for its services of 1e-290, and 2015 by 1e-309,
    so every share there is ordinary while 1 + the growth of total_revenue
    rounds to 0 and the 1997 share of services underflows. In 2005 revenue
    is 1 and the shares of surplus_or_loss and other_costs are -1.7e308 and
    1.7e308; in 2006 the surplus is ten times revenue.
    """
    records = list(variant_ledger(5, "plain", n_years=24, first_year=1992).records)

    def scaled(r, c):
        return dataclasses.replace(
            r, **{k: getattr(r, k) * c for k in MONEY_ITEMS if getattr(r, k) is not None})

    records[0] = dataclasses.replace(records[0], total_cost=1e-300)
    records[5] = dataclasses.replace(scaled(records[5], 1e291), services=1e-290)
    records[13] = dataclasses.replace(
        records[13], total_revenue=1.0, surplus_or_loss=-1.7e306, other_costs=1.7e306)
    records[14] = dataclasses.replace(
        records[14], surplus_or_loss=10 * records[14].total_revenue)
    records[-1] = scaled(records[-1], 1e-309)
    return ledger_of(records, "extreme")


def _no_nan(constant):
    # An exact fit's F statistic is Infinity by design; NaN never is.
    assert constant != "NaN"
    return float(constant)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for seed, kind in ((3, "plain"), (4, "gap")):
        ledger = variant_ledger(seed, kind, n_years=24, first_year=1992)
        (root / f"{kind}.csv").write_text(lira_text(ledger), encoding="utf-8")
    (root / "extreme.csv").write_text(lira_text(_extreme_ledger(), euro_from=1992),
                                      encoding="utf-8")
    (root / "folder").mkdir()
    (root / "out").mkdir()
    (root / "taken").write_text("a file where a directory is expected")
    return root


@st.composite
def _garbage(draw):
    """Real column names, usually with a junk one, then rows of junk cells."""
    header = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=6, unique=True))
    if not draw(_one_in(4)):
        header.insert(draw(st.integers(0, len(header))), draw(_junk))
    rows = draw(st.lists(st.lists(_junk, max_size=6), max_size=3))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


@contextlib.contextmanager
def _inside(directory):
    # ``figures`` without ``--out-dir`` writes to the working directory.
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_run_exits_0_or_prints_one_error_line(workdir, data):
    # A well-formed command line, then usually one flag value swapped for
    # junk: one bad value at a time reaches deeper than many.
    command = data.draw(st.sampled_from(COMMANDS + ("summary",)), label="command")
    argv = [command]
    source = data.draw(st.sampled_from(["plain.csv", "plain.csv", "gap.csv", "gap.csv",
                                        "extreme.csv", "extreme.csv", "garbage.csv",
                                        "garbage.csv", "garbage.csv", "folder", "missing.csv",
                                        None]), label="--input")
    if source == "garbage.csv":
        (workdir / source).write_text(data.draw(_garbage()), encoding="utf-8")
    if source is not None:
        argv += ["--input", str(workdir / source)]
    for flag, values in VALUES.items():
        owners = OWN_FLAGS.get(flag, COMMANDS)
        if data.draw(_one_in(2 if command in owners else 20), label=f"has {flag}"):
            argv += [flag, data.draw(values, label=flag)]
    if data.draw(_one_in(2 if command == "figures" else 20), label="has --out-dir"):
        out_dir = data.draw(st.sampled_from(["out", "new", "taken"]), label="--out-dir")
        argv += ["--out-dir", str(workdir / out_dir)]
    if len(argv) > 1 and not data.draw(_one_in(3), label="keep"):
        value_at = 2 * data.draw(st.integers(1, (len(argv) - 1) // 2), label="value")
        argv[value_at] = data.draw(_junk, label="junk")
    if data.draw(_one_in(20), label="has tail"):
        argv.append(data.draw(st.sampled_from(["-h", "--help", "--from"]) | _junk, label="tail"))

    stdout, stderr = io.StringIO(), io.StringIO()
    with _inside(workdir), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            asks_for_help = any(a.startswith("-h") or (len(a) > 2 and "--help".startswith(a))
                                for a in argv)
            assert exc.code == 0 and asks_for_help, (argv, exc.code)
            return
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
        if stdout.getvalue().startswith("{"):
            json.loads(stdout.getvalue(), parse_constant=_no_nan)
    else:
        assert code == 1, argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert stderr.getvalue().endswith("\n")
