"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN: an undefined ratio, not a number
            return "n/a"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def format_bars(
    values: Mapping[str, float],
    title: str = "",
    width: int = 48,
    unit: str = "",
) -> str:
    """Render a labelled horizontal ASCII bar chart.

    Bars are scaled to the largest value; each row shows the label,
    the bar and the numeric value — a terminal stand-in for the
    paper's grouped bar figures.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        return "\n".join(lines + ["(no data)"])
    label_width = max(len(str(k)) for k in values)
    peak = _peak(values.values())
    for label, value in values.items():
        lines.append(
            f"{str(label).ljust(label_width)} |{_bar(value, peak, width)}| "
            f"{_fmt(value)}{unit}"
        )
    return "\n".join(lines)


def _peak(values) -> float:
    """Bar scale: the largest finite value (NaN cells carry no bar)."""
    finite = [v for v in values if v == v]
    return (max(finite) if finite else 1.0) or 1.0


def _bar(value: float, peak: float, width: int) -> str:
    if value != value:  # NaN: no bar; the value column reads n/a
        return "".ljust(width)
    return ("#" * max(1 if value > 0 else 0, round(width * value / peak))).ljust(width)


def format_grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 40,
) -> str:
    """Render ``{group: {series: value}}`` as grouped ASCII bars, one
    block per group (the shape of Figs. 11/12)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = _peak(v for row in groups.values() for v in row.values())
    for group, row in groups.items():
        lines.append(f"{group}:")
        label_width = max((len(str(k)) for k in row), default=0)
        for label, value in row.items():
            lines.append(
                f"  {str(label).ljust(label_width)} |{_bar(value, peak, width)}| {_fmt(value)}"
            )
    return "\n".join(lines)
