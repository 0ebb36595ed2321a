"""Shared builders for synthetic ledgers and ledger files."""

import csv
import io
import random
from dataclasses import replace

from ecometab.ledger import (
    COLUMNS,
    LIRE_PER_EURO,
    MONEY_ITEMS,
    Currency,
    FiscalRecord,
    LedgerSeries,
)

VARIANT_KINDS = ("plain", "blank", "gap", "mismatch")


def record(year, revenue, personnel, total_cost, currency=Currency.EUR, **extras):
    return FiscalRecord(
        year=year,
        currency=currency,
        total_revenue=revenue,
        cost_of_personnel=personnel,
        total_cost=total_cost,
        **extras,
    )


def ledger_of(records, organization="test"):
    return LedgerSeries(organization, tuple(records))


def random_ledger(seed, n_years=19, first_year=1997, currency=Currency.EUR):
    """Fully-populated ledger with positive, loosely trending items."""
    rng = random.Random(seed)
    records = []
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
        records.append(
            FiscalRecord(
                year=first_year + i,
                currency=currency,
                total_revenue=revenue,
                cost_of_personnel=personnel,
                total_cost=total,
                salary=salary,
                social_security_taxes=taxes,
                severance_pay=severance,
                personnel_other_costs=personnel_other,
                materials_and_products=materials,
                services=services,
                leased_assets_third_parties=leased,
                other_costs=other,
                surplus_or_loss=revenue - total,
            )
        )
    return LedgerSeries("random", tuple(records))


def power_law_ledger(prefactor=3.5, exponent=1.61, n_years=19, first_year=1997):
    """Noiseless personnel = prefactor * revenue ** exponent, varied revenue."""
    rng = random.Random(20240229)
    records = []
    for i in range(n_years):
        revenue = 200.0 * (1.0 + 0.08 * i) * (0.9 + 0.2 * rng.random())
        personnel = prefactor * revenue**exponent
        records.append(
            record(
                first_year + i,
                revenue=revenue,
                personnel=personnel,
                total_cost=personnel + 0.4 * revenue,
                other_costs=0.4 * revenue,
            )
        )
    return LedgerSeries("power-law", tuple(records))


def csv_text(rows, header=COLUMNS, delimiter=","):
    """Build file content from dict rows; missing keys become blank cells."""
    lines = [delimiter.join(header)]
    for row in rows:
        lines.append(delimiter.join(str(row.get(name, "")) for name in header))
    return "\n".join(lines) + "\n"


def full_row(year, currency, revenue, personnel, total_cost, other_costs,
             salary=None, taxes=None, severance=None, personnel_other=None,
             materials=None, services=None, leased=None, surplus=None):
    row = {
        "year": year,
        "currency": currency,
        "total_revenue": revenue,
        "cost_of_personnel": personnel,
        "total_cost": total_cost,
        "other_costs": other_costs,
    }
    optional = {
        "salary": salary,
        "social_security_taxes": taxes,
        "severance_pay": severance,
        "personnel_other_costs": personnel_other,
        "materials_and_products": materials,
        "services": services,
        "leased_assets_third_parties": leased,
        "surplus_or_loss": surplus,
    }
    row.update({k: v for k, v in optional.items() if v is not None})
    return row


def write_ledger_file(path, ledger):
    """Serialize a LedgerSeries to a file in the canonical input format."""
    from ecometab.ledger import write_ledger

    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_ledger(ledger, stream)
    return path


def variant_ledger(seed, kind, n_years=19, first_year=1997):
    """``random_ledger`` with one defect in a middle year, chosen by ``kind``.

    ``blank`` leaves ``materials_and_products`` unreported (the mean cost
    profile omits it), ``gap`` drops the year (a ``year_gap`` finding) and
    ``mismatch`` raises the salary by 1% (a decomposition finding).
    """
    records = list(random_ledger(seed, n_years, first_year).records)
    middle = random.Random(f"variant:{seed}").randrange(1, n_years - 1)
    if kind == "blank":
        records[middle] = replace(records[middle], materials_and_products=None)
    elif kind == "gap":
        del records[middle]
    elif kind == "mismatch":
        records[middle] = replace(records[middle], salary=records[middle].salary * 1.01)
    elif kind != "plain":
        raise ValueError(f"unknown ledger kind {kind!r}")
    return LedgerSeries(f"{kind}{seed}", tuple(records))


def lira_text(ledger, euro_from=2002):
    """A euro ledger in the input format, with years before ``euro_from`` in lire."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for rec in ledger.records:
        lire = rec.year < euro_from
        row = [str(rec.year), "ITL" if lire else "EUR"]
        for name in MONEY_ITEMS:
            value = getattr(rec, name)
            if value is not None and lire:
                value *= LIRE_PER_EURO
            row.append("" if value is None else repr(value))
        writer.writerow(row)
    return stream.getvalue()
