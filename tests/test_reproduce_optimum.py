"""The optimizer tables of ``reproduce`` against a pinned copy.

``data/optimum_tables.json`` holds the fig4-left, fig5-left, fig5-right,
fig6-left and fig6-right tables as the capped ``lam``-grid search produced
them.  The search in ``m`` must keep every row and every label, and move
each number by at most 1e-10 relative.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ridgelab import reproduce_table

PINNED = json.loads((Path(__file__).parent / "data" / "optimum_tables.json").read_text())


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
                assert abs(got - want) <= 1e-10 * abs(want), (key, column, row, pinned)
