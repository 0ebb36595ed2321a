"""The output grid: seeded command lines, each run in-process through ``cli.main``.

Every case is one argument list, run in a scratch directory that holds the
ledger files under ``ledgers/`` and, for ``figures``, an out dir set up
afresh before each run. A case's SHA-256 covers its exit code, stdout,
stderr and what its out dir holds afterwards (names, file bytes, symlink
targets). ``tests/golden/grid.sha256`` holds one ``<digest>  <case>`` line
per case, the case written as its arguments, so a change of output names
the cases it touches.

The cases: every command and format on the four ``variant_ledger`` kinds,
a ``;``-delimited copy, a power-law ledger, one with a zero personnel cost
and a 2-row one, each over the default window and windows inside,
straddling and outside the data, with ``figures`` selections; a second
alpha and other item flags; a 300-row ledger with many crossings and
findings; and the failure paths: faulty files, bad flags, bad delimiters
and out dirs that refuse the figures. Appended since: an out dir with
trailing slashes, the allometric CSV at the ends of alpha's range, a
near-exact ledger whose F statistics pass 1e15, a 2000-row ledger over
its whole span, and four ledgers for the fit branches no other reaches: a
degenerate trend, an exact-fit trend, an exponent below one and a crossing
at a touch point.

Check the file: ``PYTHONPATH=src python tests/grid.py``; the check runs on
whichever ``ecometab`` is importable, an installed copy without
``PYTHONPATH``, and its last line names that copy. After a change of output
made on purpose, rewrite it: ``PYTHONPATH=src python tests/grid.py --write``.
A new case goes at the end of ``cases()``, so no older line of the file
changes.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import ecometab
from ecometab.cli import main
from helpers import (
    ledger_of,
    lira_text,
    power_law_ledger,
    random_ledger,
    record,
    variant_ledger,
    write_ledger_file,
)

GOLDEN = Path(__file__).parent / "golden" / "grid.sha256"

SECTION_COMMANDS = ("report", "trend", "metabolism", "growth", "allometric", "crossover",
                    "validate")
FORMATS = ("text", "json", "csv")
INSIDE = ("--from", "2000", "--to", "2010")
STRADDLING = ("--from", "1990", "--to", "2005")
OUTSIDE = ("--from", "2050", "--to", "2060")
SELECTIONS = ((), ("fig1",), ("fig4",), ("fig2", "fig3"), ("figA1", "figA2", "figA3"),
              ("fig1", "fig1"))
# The ledgers of the main product, each with the flags its every run takes.
LEDGERS = (("plain", ()), ("blank", ()), ("gap", ()), ("mismatch", ()),
           ("semicolon", ("--delimiter", ";")), ("power", ()), ("zero", ()), ("two", ()))
FAULTY = ("empty", "header_only", "duplicate_year", "bad_currency", "negative",
          "malformed_number", "missing_column", "wide_row", "not_utf8", "tiny_revenue",
          "missing")
BAD_DELIMITERS = (";;", "", "\t\t", '"', "\n", "\r", "\0", ";")


def _write_ledgers(folder: Path) -> None:
    """The grid's ledger files, good and faulty, in ``folder``."""
    folder.mkdir()
    for kind in ("plain", "blank", "gap", "mismatch"):  # with lire before 2002
        (folder / f"{kind}.csv").write_text(lira_text(variant_ledger(7, kind)))
    (folder / "semicolon.csv").write_text(lira_text(variant_ledger(7, "plain")).replace(",", ";"))
    write_ledger_file(folder / "power.csv", power_law_ledger())
    write_ledger_file(folder / "zero.csv", ledger_of(
        replace(r, cost_of_personnel=0.0, salary=0.0, social_security_taxes=0.0,
                severance_pay=0.0, personnel_other_costs=0.0) if r.year == 2005 else r
        for r in random_ledger(21)))
    write_ledger_file(folder / "two.csv", random_ledger(21, n_years=2))
    # 1716-2015 with nine years dropped and nine salaries raised by 2%.
    records = list(random_ledger(11, n_years=300, first_year=1716))
    for i in range(290, 0, -33):
        records[i] = replace(records[i], salary=records[i].salary * 1.02)
        del records[i - 3]
    write_ledger_file(folder / "long.csv", ledger_of(records))
    # Revenue a line in the year and personnel a power of revenue, each to 1e-12.
    near_exact = []
    for i in range(19):
        revenue = 200.0 * (1 + 0.08 * i) * (1 + 1e-12 * (-1) ** i)
        personnel = 0.02 * revenue**1.61 * (1 + 1e-12 * (-1) ** (i // 2))
        near_exact.append(record(1997 + i, revenue=revenue, personnel=personnel,
                                 total_cost=personnel + 0.4 * revenue,
                                 other_costs=0.4 * revenue))
    write_ledger_file(folder / "near_exact.csv", ledger_of(near_exact))
    write_ledger_file(folder / "stress.csv",
                      variant_ledger(3, "mismatch", n_years=2000, first_year=1))
    for name, ledger in _fit_branch_ledgers().items():
        write_ledger_file(folder / f"{name}.csv", ledger)
    write_ledger_file(folder / "tiny_revenue.csv", ledger_of(
        replace(r, total_revenue=1e-300) if r.year == 1997 else r for r in random_ledger(21)))
    text = lira_text(random_ledger(21))
    lines = text.splitlines(keepends=True)
    faulty = {
        "empty": "",
        "header_only": lines[0],
        "duplicate_year": "".join([lines[0], lines[1], *lines[1:]]),
        "bad_currency": text.replace("\n2003,EUR,", "\n2003,USD,"),
        "negative": text.replace("\n2004,EUR,", "\n2004,EUR,-"),
        "malformed_number": text.replace("\n2005,EUR,", "\n2005,EUR,12x"),
        "missing_column": "".join(line.rsplit(",", 2)[0] + "\n" for line in lines),
        "wide_row": text.replace("\n2006,EUR,", "\n2006,EUR,1,"),
        "unordered": "".join([lines[0], *reversed(lines[1:])]),
        "bom": "﻿" + text,
    }
    for name, content in faulty.items():
        (folder / f"{name}.csv").write_text(content, encoding="utf-8")
    (folder / "not_utf8.csv").write_bytes(text.encode() + b"2016,EUR,\xff\n")


def _fit_branch_ledgers() -> dict:
    """1997-2015 ledgers, each for a branch of the fits no other grid ledger reaches.

    Their amounts are whole numbers or products of float multiplications,
    so no ledger depends on the platform's ``pow``.
    """
    levels = [(2000.0 + 100 * i + 10 * (i * i % 7), 800.0 + 30 * i + 4 * (i * 5 % 11),
               300.0 + 9 * (i * 3 % 13)) for i in range(19)]
    # A constant total cost, whose mean is exact: a degenerate trend.
    ledgers = {"constant_cost": [(r, p, 1000.0, o) for r, p, o in levels]}
    # Revenue a line in the year: an exact-fit trend.
    ledgers["linear_revenue"] = [(1000.0 + 50 * i, p, p + o, o)
                                 for i, (_, p, o) in enumerate(levels)]
    # Personnel growing by 2% a year against revenue's 8%: exponent about 0.26.
    revenue, personnel, slow = 1000.0, 400.0, []
    for _, _, other in levels:
        slow.append((revenue, personnel, personnel + other, other))
        revenue, personnel = revenue * 1.08, personnel * 1.02
    ledgers["slow_personnel"] = slow
    # Other costs equal to personnel in 2006, below it before and above it after.
    ledgers["touch"] = [(r, p, p + p + 60 * (i - 9), p + 60 * (i - 9))
                        for i, (r, p, _) in enumerate(levels)]
    return {name: ledger_of(record(1997 + i, revenue=revenue, personnel=personnel,
                                   total_cost=total_cost, other_costs=other)
                            for i, (revenue, personnel, total_cost, other) in enumerate(rows))
            for name, rows in ledgers.items()}


def _set_up_out_dir(name: str) -> None:
    """``figures``' out dir ``name``, as it is before each run."""
    shutil.rmtree(name, ignore_errors=True)
    if name == "afile":  # not a directory
        Path(name).write_text("occupied\n")
    elif name != "missing_dir":
        os.mkdir(name)
    if name in ("stale", "restore"):  # an older figure, replaced or put back
        Path(name, "fig1.csv").write_text("OLD\n")
    if name in ("blocked", "restore"):  # a directory that blocks the fig3 rename
        os.mkdir(Path(name, "fig3.csv"))
    if name == "restore":
        os.symlink("elsewhere.csv", Path(name, "fig2.csv"))


def _section_runs(ledger: str, flags: tuple, windows):
    for window in windows:
        for command in SECTION_COMMANDS:
            for output_format in FORMATS:
                yield [command, "--input", f"ledgers/{ledger}.csv", *flags, *window,
                       "--format", output_format]


def _figure_run(ledger: str, flags: tuple, window=(), selection=(), out_dir="out"):
    figures = [arg for figure in selection for arg in ("--figure", figure)]
    return ["figures", "--input", f"ledgers/{ledger}.csv", *flags, *window, *figures,
            "--out-dir", out_dir]


def cases():
    """Each case's arguments, in the golden file's order."""
    for ledger, flags in LEDGERS:
        yield from _section_runs(ledger, flags, [(), INSIDE, STRADDLING, OUTSIDE])
        for window in ((), INSIDE):
            for selection in SELECTIONS:
                yield _figure_run(ledger, flags, window, selection)
        yield _figure_run(ledger, flags, OUTSIDE)
        for command in ("report", "allometric"):
            for output_format in FORMATS:
                yield [command, "--input", f"ledgers/{ledger}.csv", *flags, "--alpha", "0.01",
                       "--format", output_format]
        for output_format in FORMATS:
            yield ["report", "--input", f"ledgers/{ledger}.csv", *flags, "--numerator",
                   "services", "--denominator", "total_cost", "--format", output_format]
            for command in ("trend", "growth"):
                yield [command, "--input", f"ledgers/{ledger}.csv", *flags, "--item", "services",
                       "--item", "total_cost", "--format", output_format]
    whole = ("--from", "1716", "--to", "2015")
    yield from _section_runs("long", (), [(), whole])
    yield _figure_run("long", (), whole)
    for ledger in ("unordered", "bom"):
        yield from _section_runs(ledger, (), [()])
    for ledger in FAULTY:
        for command in ("report", "validate", "metabolism"):
            yield [command, "--input", f"ledgers/{ledger}.csv"]
        yield _figure_run(ledger, ())
    plain = ("--input", "ledgers/plain.csv")
    for delimiter in BAD_DELIMITERS:
        yield ["report", *plain, "--delimiter", delimiter]
    for delimiter in (";;", ""):
        yield ["trend", *plain, "--delimiter", delimiter, "--format", "json"]
        yield _figure_run("plain", ("--delimiter", delimiter))
    yield []
    yield ["report"]
    yield ["report", "--input", "ledgers"]
    for flags in (("--from", "2010", "--to", "2000"), ("--from", "x"), ("--alpha", "0"),
                  ("--alpha", "1.5"), ("--alpha", "nan"), ("--alpha", "5e-324"),
                  ("--alpha", "0.999999"), ("--numerator", "nonsense"),
                  ("--denominator", "salary"), ("--figure", "fig1"), ("--item", "services")):
        yield ["report", *plain, *flags]
    for out_dir in ("missing_dir", "afile", "blocked", "stale"):
        yield _figure_run("plain", (), out_dir=out_dir)
    yield _figure_run("plain", (), selection=("fig1", "fig2", "fig3"), out_dir="restore")
    yield _figure_run("plain", (), selection=("fig1",), out_dir="stale")
    yield _figure_run("plain", (), out_dir="out//")
    for alpha in ("5e-324", "0.999999"):
        yield ["allometric", *plain, "--alpha", alpha, "--format", "csv"]
    for output_format in FORMATS:
        yield ["report", "--input", "ledgers/near_exact.csv", "--format", output_format]
    stress = ("--input", "ledgers/stress.csv", "--from", "1", "--to", "2000")
    for output_format in FORMATS:
        yield ["report", *stress, "--format", output_format]
    yield ["metabolism", *stress, "--format", "json"]
    yield ["crossover", *stress, "--format", "csv"]
    for ledger in _fit_branch_ledgers():
        for output_format in FORMATS:
            yield ["report", "--input", f"ledgers/{ledger}.csv", "--format", output_format]
        for command in ("trend", "allometric", "crossover"):
            yield [command, "--input", f"ledgers/{ledger}.csv", "--format", "text"]


def _tree(path: str) -> list:
    """What is at ``path``: each entry's relative name, kind and content, in name order."""
    entries = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(dirs + files):
            full = os.path.join(root, name)
            relative = os.path.relpath(full, path)
            if os.path.islink(full):
                entries.append([relative, "link", os.readlink(full)])
            elif os.path.isdir(full):
                entries.append([relative, "dir"])
            else:
                entries.append([relative, "file", Path(full).read_bytes().hex()])
    if os.path.isfile(path):
        entries.append([".", "file", Path(path).read_bytes().hex()])
    return entries


def run_case(argv: list[str]) -> str:
    """The SHA-256 of one run's exit code, stdout, stderr and out dir, in the working directory."""
    out_dir = argv[argv.index("--out-dir") + 1] if "--out-dir" in argv else None
    if out_dir:
        _set_up_out_dir(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    state = [code, stdout.getvalue(), stderr.getvalue(), _tree(out_dir) if out_dir else None]
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def case_name(argv: list[str]) -> str:
    """The arguments as one shell-quoted line, each unprintable character escaped."""
    return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in shlex.join(argv))


def digests(workdir) -> dict[str, str]:
    """Every case's digest by name, run in the empty directory ``workdir``."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        _write_ledgers(Path("ledgers"))
        result = {}
        for argv in cases():
            name = case_name(argv)
            assert name not in result, f"grid case {name!r} twice"
            result[name] = run_case(argv)
        return result
    finally:
        os.chdir(here)


def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("  ", 1)[::-1] for line in lines)


def changed_cases(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """The cases of either side whose digest differs or is missing on the other, in order."""
    return [name for name in {**expected, **actual} if actual.get(name) != expected.get(name)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        actual = digests(workdir)
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("".join(f"{d}  {name}\n" for name, d in actual.items()),
                          encoding="utf-8")
        print(f"wrote {len(actual)} cases to {GOLDEN}")
    else:
        changed = changed_cases(actual, read_golden())
        print("\n".join(changed)
              or f"all {len(actual)} cases of {ecometab.__file__} as in {GOLDEN}")
        sys.exit(bool(changed))
