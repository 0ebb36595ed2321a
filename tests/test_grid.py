"""Every output grid case (``tests/grid.py``) hashes as in ``tests/golden/grid.sha256``."""

import grid


def test_grid_digests_match_the_golden_file(tmp_path):
    changed = grid.changed_cases(grid.digests(tmp_path), grid.read_golden())
    assert not changed, "grid cases changed or missing:\n" + "\n".join(changed)
