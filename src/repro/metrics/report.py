"""Plain-text table/series rendering for the experiment harness.

The benchmarks print the same rows the paper's tables and figures report;
these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    title: Optional[str] = None,
    fmt: str = "{:.0f}",
) -> str:
    """Render one-figure data as a table: one x column, one column per line."""
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(x_values)} x values"
            )
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        row = [x]
        for name in series:
            row.append(fmt.format(series[name][i]))
        rows.append(row)
    return format_table(headers, rows, title=title)


def percent_reduction(baseline: float, value: float) -> float:
    """The paper's 'reduction compared to MC' percentage."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (1.0 - value / baseline)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: Optional[str] = None,
    fmt: str = "{:.0f}",
) -> str:
    """A quick horizontal bar chart for terminal output."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max(values, default=0.0)
    label_w = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * (int(round(width * value / peak)) if peak > 0 else 0)
        lines.append(f"{label.ljust(label_w)} | {bar} {fmt.format(value)}")
    return "\n".join(lines)
