"""Plain-text table rendering for experiment reports.

Every experiment command prints its results as an aligned ASCII table with
the same rows/series the paper reports; this module is the single formatter
so all reports look alike.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Iterable, List, Sequence

__all__ = ["Table", "format_float"]


def format_float(x: Any, digits: int = 3) -> str:
    """Format numbers compactly; pass non-numbers through ``str``.

    The exact-type fast paths skip the isinstance chain for the three types
    that make up virtually every table cell (str passthrough, int, float);
    subclasses (bool, numpy scalars) take the general path below and format
    exactly as before.
    """
    tx = type(x)
    if tx is str:
        return x
    if tx is int:
        return str(x)
    if tx is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return str(x)
        if isinstance(x, int):
            return str(x)
    if x != x:  # NaN
        return "nan"
    ax = abs(x)
    if ax != 0 and (ax >= 10 ** (digits + 3) or ax < 10 ** (-digits)):
        return f"{x:.{digits}e}"
    return f"{x:.{digits}f}".rstrip("0").rstrip(".") or "0"


class Table:
    """Aligned ASCII table with a title, header and typed rows.

    Examples
    --------
    >>> t = Table("demo", ["level", "stale %"])
    >>> t.add_row(["ONE", 61.0])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, header: Sequence[str]):
        self.title = str(title)
        self.header = [str(h) for h in header]
        self.rows: List[List[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        """Append one row; cells are formatted immediately."""
        cells = [format_float(c) for c in row]
        if len(cells) != len(self.header):
            raise ValueError(
                f"row has {len(cells)} cells, header has {len(self.header)}"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Return the full table as a string (title, rule, header, rows)."""
        widths = [len(h) for h in self.header]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [self.title, rule, line(self.header), rule]
        out.extend(line(r) for r in self.rows)
        out.append(rule)
        return "\n".join(out)

    def to_csv(self) -> str:
        """Return the table as CSV text (header + rows, no title line).

        Cells were already formatted by :func:`format_float` on ``add_row``,
        so the CSV is byte-stable for identical inputs -- the sweep runner
        relies on that for its determinism guarantee.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buf.getvalue()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
