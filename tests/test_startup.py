"""What a cold start imports: ecometab itself, and nothing its report does not run.

Each check runs in a fresh ``python -I -S`` process, so that neither the test
run nor site customization has imported anything first; ``-B`` keeps it from
writing bytecode next to the sources.
"""

import os
import subprocess
import sys

import pytest

import ecometab
from helpers import random_ledger, write_ledger_file

# The standard-library modules ecometab's sources import at module level.
DIRECT_DEPENDENCIES = (
    "argparse", "collections.abc", "csv", "dataclasses", "enum", "functools", "io",
    "itertools", "math", "os",
)

PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
for name in {dependencies!r}:
    __import__(name)
before = set(sys.modules)
import ecometab
print(*sorted(set(sys.modules) - before))
from ecometab import cli
for output_format in ("text", "csv"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--input", sys.argv[2], "--format", output_format]) == 0
print(*sorted({{"json", "pathlib", "typing"}} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """The modules ``import ecometab`` adds, and those of interest loaded after two reports."""
    ledger = write_ledger_file(tmp_path_factory.mktemp("startup") / "ledger.csv",
                               random_ledger(seed=21))
    package_parent = os.path.dirname(os.path.dirname(ecometab.__file__))
    code = PROBE.format(dependencies=DIRECT_DEPENDENCIES)
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, package_parent, str(ledger)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    added, loaded = result.stdout.split("\n")[:2]
    return added.split(), loaded.split()


def test_import_adds_only_ecometab_to_its_dependencies(probed):
    added, _ = probed
    assert [name for name in added
            if name != "__future__" and name.split(".")[0] != "ecometab"] == []


def test_text_and_csv_reports_import_neither_json_nor_pathlib(probed):
    _, loaded = probed
    assert loaded == []
