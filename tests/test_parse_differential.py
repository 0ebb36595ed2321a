"""Differential test of ``parse_ledger`` against the row-at-a-time oracle.

``parse_ledger`` checks a file one column at a time and walks its rows only
when a column check fails; ``oracles.row_parse_ledger`` checks it row by row,
in each row's check order. On near-valid lira/euro ledgers with up to three
planted faults, the two must return the same records bit for bit, or raise a
``ParseError`` with the same text: the first fault in file order.
"""

import io

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ecometab.errors import ParseError
from ecometab.ledger import COLUMNS, NONNEGATIVE_ITEMS, REQUIRED_COLUMNS, parse_ledger
from oracles import row_parse_ledger

OPTIONAL_COLUMNS = tuple(name for name in COLUMNS if name not in REQUIRED_COLUMNS)
MALFORMED_NUMBERS = ("1.2.3", "abc", "1e", "１２", "1_000", "nan", "inf", "-inf",
                     "NaN", "٣", "0x10", "--1", "1,5")
BAD_YEARS = ("19x7", "１９９７", "1_997", "0", "10000", "-5", "1997.0",
             "+2001", "2e3")
UNKNOWN_CODES = ("USD", "eur", "EURO", "IT L")
BLANK_LINES = ("", " ", ",,", " , ,", "\t")
FAULT_KINDS = ("blank_required", "malformed_number", "negative", "bad_year", "duplicate_year",
               "unknown_currency", "wrong_width", "blank_rows", "bom", "undecodable")


def _amount(draw, name):
    if name in NONNEGATIVE_ITEMS:
        value = draw(st.floats(min_value=0.0, max_value=1e15))
    else:
        value = draw(st.floats(min_value=-1e15, max_value=1e15))
    return repr(value)


@st.composite
def ledger_files(draw):
    """A ledger file's bytes with up to three planted faults."""
    optional = draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))
    header = draw(st.permutations([*REQUIRED_COLUMNS, *optional]))
    years = draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=8, unique=True))
    rows = []
    for year in years:
        row = []
        for name in header:
            if name == "year":
                row.append(str(year))
            elif name == "currency":
                row.append(draw(st.sampled_from(("EUR", "ITL", " EUR", "ITL "))))
            elif name not in REQUIRED_COLUMNS and draw(st.integers(0, 5)) == 0:
                row.append(draw(st.sampled_from(("", "  "))))
            else:
                row.append(_amount(draw, name))
        rows.append(row)

    lines_before = {}  # row index -> lines inserted before that row
    widened = {}  # row index -> True for one cell more, False for one fewer
    bom = undecodable = False
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if kind == "blank_required":
            row[header.index(draw(st.sampled_from(REQUIRED_COLUMNS)))] = ""
        elif kind == "malformed_number":
            money = [at for at, name in enumerate(header) if name not in ("year", "currency")]
            row[draw(st.sampled_from(money))] = draw(st.sampled_from(MALFORMED_NUMBERS))
        elif kind == "negative":
            money = [at for at, name in enumerate(header) if name in NONNEGATIVE_ITEMS]
            tiny = draw(st.sampled_from(("-5e-324", "-1e-320", "-0.0", "-1.5", "-0")))
            row[draw(st.sampled_from(money))] = tiny
        elif kind == "bad_year":
            row[header.index("year")] = draw(st.sampled_from(BAD_YEARS))
        elif kind == "duplicate_year":
            row[header.index("year")] = rows[draw(st.integers(0, len(rows) - 1))][
                header.index("year")]
        elif kind == "unknown_currency":
            row[header.index("currency")] = draw(st.sampled_from(UNKNOWN_CODES))
        elif kind == "wrong_width":
            widened[i] = draw(st.booleans())
        elif kind == "blank_rows":
            lines_before.setdefault(i, []).append(draw(st.sampled_from(BLANK_LINES)))
        elif kind == "bom":
            bom = True
        else:
            # Past the decoder's first block, so the rows before it are read first.
            lines_before.setdefault(i, []).append(" " * 9000)
            undecodable = True

    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines += lines_before.get(i, [])
        if i in widened:
            row = [*row, "1.0"] if widened[i] else row[:-1]
        lines.append(",".join(row))
    data = ("\ufeff" if bom else "") + "\n".join(lines) + "\n"
    raw = data.encode("utf-8")
    if undecodable:
        at = raw.index(b" " * 9000) + 9000
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def _outcome(parse, raw):
    stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    try:
        ledger = parse(stream, organization="org")
    except ParseError as exc:
        return "error", str(exc)
    # A record's repr holds each float's repr, which tells -0.0 from 0.0.
    return "ledger", ledger.organization, [repr(record) for record in ledger.records]


# A fixed profile, so that every run tries the same files.
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(raw=ledger_files())
def test_column_parser_matches_the_row_parser(raw):
    assert _outcome(parse_ledger, raw) == _outcome(row_parse_ledger, raw)
