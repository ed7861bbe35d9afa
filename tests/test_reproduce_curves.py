"""The curve tables of ``reproduce`` against a pinned copy.

``data/curve_tables.json`` holds the fig2a, fig2b, fig2c and fig7-pcr
theory tables as the pointwise PCR solve (one truncated model and one
edge search per ``theta``) produced them.  Every row and every label must
stay, and each number may move by at most 1e-12 relative.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ridgelab import reproduce_table

PINNED = json.loads((Path(__file__).parent / "data" / "curve_tables.json").read_text())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_table_matches_the_pinned_copy(key: str) -> None:
    columns, rows = reproduce_table(key)
    assert columns == PINNED[key]["columns"]
    assert len(rows) == len(PINNED[key]["rows"])
    for row, pinned in zip(rows, PINNED[key]["rows"]):
        assert len(row) == len(pinned)
        for column, got, want in zip(columns, row, pinned):
            if isinstance(want, str):
                assert got == want, (key, column, row, pinned)
            else:
                assert abs(got - want) <= 1e-12 * abs(want), (key, column, row, pinned)
