"""The ``--format text`` stdout of every text command, pinned byte for byte.

``tests/golden/<command>.txt`` holds what each command printed for one
seeded ledger (lira years before 2002, one personnel-decomposition mismatch,
four share crossovers in the window) over the sub-window 1995-2012. JSON
and CSV are held to an independent reference in ``test_serialization.py``;
these files do the same for the text tables, so a refactor of the
renderers cannot move a space or a rounding unnoticed.
"""

from pathlib import Path

import pytest

from ecometab.cli import main
from helpers import lira_text, variant_ledger

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("report", "trend", "growth", "metabolism", "allometric", "crossover", "validate")


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    # The file name is the organization printed in the report header.
    path = tmp_path_factory.mktemp("golden") / "mismatch15.csv"
    ledger = variant_ledger(15, "mismatch", n_years=24, first_year=1992)
    path.write_text(lira_text(ledger), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", COMMANDS)
def test_text_output_matches_the_golden_file(command, ledger_path, capsys):
    code = main([command, "--input", str(ledger_path), "--from", "1995", "--to", "2012"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{command}.txt").read_bytes()
