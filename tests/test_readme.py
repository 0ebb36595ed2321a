"""The README's "Library" example runs as written.

This pins the documented public API: ``LedgerSeries.window``, then
``trend_fit``, ``metabolism_index``, ``extract_series``,
``arithmetic_growth`` and ``allometric_fit`` on the window, and
``run_report`` on a ``ReportConfig`` given the file name as a ``str``.
"""

import re
from pathlib import Path

from helpers import random_ledger, write_ledger_file

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            re.DOTALL | re.MULTILINE)
    write_ledger_file(tmp_path / "ledger.csv", random_ledger(seed=21))  # 1997-2015
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["fit"].n == 19
    assert [p.year for p in namespace["shares"]] == list(range(1997, 2016))
    assert namespace["growth"].t_years == 18
    exponent, classification = capsys.readouterr().out.split()
    assert float(exponent) == namespace["power"].exponent
    assert classification == namespace["power"].classification.value
    assert namespace["report"].ledger.organization == "ledger"
    assert namespace["report"].trend_table["total_revenue"] == namespace["fit"]
