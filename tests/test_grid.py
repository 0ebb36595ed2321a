"""Every output grid case (``tests/grid.py``) hashes as in ``tests/golden/grid.sha256``."""

import pytest

import grid

PLAIN, SEMICOLON = "ledgers/plain.csv", "ledgers/semicolon.csv --delimiter ';'"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return grid.digests(tmp_path_factory.mktemp("grid"))


def test_grid_digests_match_the_golden_file(digests):
    changed = grid.changed_cases(digests, grid.read_golden())
    assert not changed, "grid cases changed or missing:\n" + "\n".join(changed)


def test_semicolon_copy_prints_as_its_comma_twin(digests):
    """A ``;``-delimited copy of ``plain.csv`` gives the comma file's bytes in every case
    but the text reports, whose header names the file stem."""
    twins = {name: name.replace(SEMICOLON, PLAIN) for name in digests if SEMICOLON in name}
    differ = [name for name, twin in twins.items() if digests[name] != digests[twin]]
    assert twins
    assert all(name.startswith("report ") and name.endswith("--format text") for name in differ)
