"""Seeded ledger files and the per-workload case pools built on them.

The base draw reproduces ``tests/helpers.random_ledger`` exactly (same
formula, same order of ``random()`` calls), so a benchmark ledger and a test
ledger with the same seed hold the same numbers. On top of it the files
carry what the paper's CNR data has and the tests' ledgers do not:

* years before 2002 written in Italian lire (amounts x 1936.27), later
  years in euros, so every parse runs the currency normalisation;
* variant ledgers: one optional item left blank in one year (the
  ``omitted`` path of the mean cost profile), one year dropped (a
  ``year_gap`` finding), and one salary off by 1% (a
  ``personnel_decomposition_mismatch`` finding).

No variant makes any analysis fail: the blank item is one that no analysis
requires, and every window keeps at least 7 rows.
"""

import csv
import io
import os
import random
from dataclasses import dataclass

LIRE_PER_EURO = 1936.27
EURO_FROM_YEAR = 2002
LAST_YEAR = 2015

# The input file format, copied rather than imported so that the checks take
# no expectation from the program.
COLUMNS = (
    "year",
    "currency",
    "total_revenue",
    "cost_of_personnel",
    "salary",
    "social_security_taxes",
    "severance_pay",
    "personnel_other_costs",
    "materials_and_products",
    "services",
    "leased_assets_third_parties",
    "other_costs",
    "total_cost",
    "surplus_or_loss",
)
MONEY_ITEMS = COLUMNS[2:]

# The item left blank by the "blank" variant: optional, and needed by no
# analysis.
BLANK_ITEM = "materials_and_products"

KINDS = ("plain", "blank", "gap", "mismatch")
ALPHAS = (0.01, 0.05, 0.10)
FORMATS = ("text", "json", "csv")


def base_rows(seed, n_years=19, first_year=1997):
    """Rows of ``tests/helpers.random_ledger(seed, n_years, first_year)``."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_years):
        revenue = 1e9 * (1.0 + 0.05 * i) * (0.8 + 0.4 * rng.random())
        personnel = revenue * (0.35 + 0.3 * rng.random())
        salary = personnel * 0.7
        taxes = personnel * 0.2
        severance = personnel * 0.06
        personnel_other = personnel - salary - taxes - severance
        materials = revenue * (0.05 + 0.05 * rng.random())
        services = revenue * (0.1 + 0.1 * rng.random())
        leased = revenue * (0.01 + 0.02 * rng.random())
        other = revenue * (0.2 + 0.2 * rng.random())
        total = personnel + materials + services + leased + other
        rows.append({
            "year": first_year + i,
            "total_revenue": revenue,
            "cost_of_personnel": personnel,
            "total_cost": total,
            "salary": salary,
            "social_security_taxes": taxes,
            "severance_pay": severance,
            "personnel_other_costs": personnel_other,
            "materials_and_products": materials,
            "services": services,
            "leased_assets_third_parties": leased,
            "other_costs": other,
            "surplus_or_loss": revenue - total,
        })
    return rows


def ledger_rows(seed, n_years, kind):
    """A ledger of ``n_years`` years ending in 2015, with one variant applied."""
    rows = base_rows(seed, n_years, LAST_YEAR - n_years + 1)
    middle = random.Random(f"variant:{seed}").randrange(1, n_years - 1)
    if kind == "blank":
        rows[middle][BLANK_ITEM] = None
    elif kind == "gap":
        del rows[middle]
    elif kind == "mismatch":
        rows[middle]["salary"] *= 1.01
    elif kind != "plain":
        raise ValueError(f"unknown ledger kind {kind!r}")
    return rows


def ledger_text(rows):
    """Rows in the input file format: lire before 2002, euros after."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        lire = row["year"] < EURO_FROM_YEAR
        cells = [str(row["year"]), "ITL" if lire else "EUR"]
        for name in MONEY_ITEMS:
            value = row[name]
            if value is None:
                cells.append("")
            else:
                cells.append(repr(value * LIRE_PER_EURO if lire else value))
        writer.writerow(cells)
    return stream.getvalue()


def write_files(files):
    """Write each ``{path: text}`` entry to its file."""
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)


@dataclass(frozen=True)
class Case:
    """One op's input: a ledger file plus the report options applied to it.

    ``rows`` counts the file's data rows; ``years`` are its years inside
    ``period``.
    """

    path: str
    rows: int
    period: tuple[int, int]
    alpha: float
    output_format: str
    years: tuple[int, ...]


def _case(path, rows, period, alpha, output_format):
    years = tuple(r["year"] for r in rows if period[0] <= r["year"] <= period[1])
    return Case(path, len(rows), period, alpha, output_format, years)


def paper_batch_cases(seed, directory, pool=256):
    """19-row ledgers, one per case, with a random window (df 5-17) and alpha.

    Five in eight ledgers are plain; the others are one of each variant.
    Returns the cases and the ledger files to write, ``{path: text}``.
    """
    rng = random.Random(f"paper_batch:{seed}")
    kinds = ("plain",) * 5 + KINDS[1:]
    cases = []
    files = {}
    for k in range(pool):
        kind = kinds[k % len(kinds)]
        rows = ledger_rows(seed * 100_000 + k, 19, kind)
        path = os.path.join(directory, f"batch{k:03d}.csv")
        files[path] = ledger_text(rows)
        n = rng.randint(7, len(rows))
        first = rng.randint(0, len(rows) - n)
        period = (rows[first]["year"], rows[first + n - 1]["year"])
        cases.append(_case(path, rows, period, rng.choice(ALPHAS), "json"))
    return cases, files


def full_window_cases(seed, directory, n_years, prefix):
    """One ledger of each kind, each analysed over all of its rows.

    Over a cycle of 12 cases each ledger meets every format once, and the
    alpha changes after every 4 cases. Returns the cases and the ledger
    files to write, ``{path: text}``.
    """
    files = {}
    ledgers = []
    for k, kind in enumerate(KINDS):
        rows = ledger_rows(seed * 100_000 + k, n_years, kind)
        files[os.path.join(directory, f"{prefix}{k}.csv")] = ledger_text(rows)
        ledgers.append(rows)
    paths = list(files)
    cases = []
    for k in range(len(KINDS) * len(FORMATS)):
        rows = ledgers[k % len(KINDS)]
        period = (rows[0]["year"], rows[-1]["year"])
        cases.append(_case(paths[k % len(KINDS)], rows, period,
                           ALPHAS[k // len(KINDS)], FORMATS[k % len(FORMATS)]))
    return cases, files
