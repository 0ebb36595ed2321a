"""Differential test of ``validate_ledger`` against the record-at-a-time oracle.

``validate_ledger`` checks a ledger one column at a time and walks the
records only when a check finds something; ``oracles.row_validate_ledger``
checks it record by record. On ledgers with negative items, unreported
personnel components, personnel costs off their components' sum by about
the 1e-6 tolerance, and gaps between years, the two must return the same
findings in the same order.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ecometab.ledger import (
    MONEY_ITEMS,
    NONNEGATIVE_ITEMS,
    PERSONNEL_COMPONENTS,
    Currency,
    FiscalRecord,
    LedgerSeries,
    validate_ledger,
)
from oracles import row_validate_ledger

OTHER_ITEMS = tuple(name for name in MONEY_ITEMS
                    if name not in (*PERSONNEL_COMPONENTS, "cost_of_personnel"))
# Relative changes of cost_of_personnel against its components' sum, around
# the 1e-6 tolerance.
OFFSETS = (0.0, 5e-7, 9.99e-7, 1e-6, 1.001e-6, 2e-6, -9.99e-7, -1e-6, -1.001e-6, 1e-3)
NEGATIVES = (-5e-324, -1e-300, -0.0, -1.5, -1e12)


@st.composite
def ledgers(draw):
    years = sorted(draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=12, unique=True)))
    records = []
    for year in years:
        values = {name: draw(st.floats(0.0, 1e12)) for name in PERSONNEL_COMPONENTS}
        total = sum(values.values())
        values["cost_of_personnel"] = total * (1.0 + draw(st.sampled_from(OFFSETS)))
        values.update((name, draw(st.floats(-1e12 if name == "surplus_or_loss" else 0.0, 1e12)))
                      for name in OTHER_ITEMS)
        for name in draw(st.lists(st.sampled_from(NONNEGATIVE_ITEMS), max_size=3, unique=True)):
            values[name] = draw(st.sampled_from(NEGATIVES))
        for name in draw(st.lists(st.sampled_from(PERSONNEL_COMPONENTS), max_size=2, unique=True)):
            values[name] = None
        records.append(FiscalRecord(year=year, currency=Currency.EUR, **values))
    return LedgerSeries("org", tuple(records))


# A fixed profile, so that every run checks the same ledgers (about two seconds).
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(ledger=ledgers())
def test_column_validation_matches_the_record_walk(ledger):
    assert validate_ledger(ledger) == row_validate_ledger(ledger)
