"""Plain-text rendering of tables and figures.

Everything the paper plots is reproduced as terminal-friendly text:
horizontal bar charts for PDFs and sparkline-style strip charts for
per-cycle series (tables are aligned by
:func:`repro.core.report.format_table`).  The benchmark harness prints these so that
a run's output can be eyeballed against the paper's figures directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_BLOCKS = " ▁▂▃▄▅▆▇█"


def bar_chart(pdf: Mapping[object, float], width: int = 40,
              title: str = "") -> str:
    """Horizontal bars for a PDF (one line per bucket)."""
    lines = [title] if title else []
    peak = max(pdf.values(), default=0.0)
    for bucket in sorted(pdf, key=str):
        share = pdf[bucket]
        bar = "#" * (round(share / peak * width) if peak else 0)
        lines.append(f"{str(bucket):>12}  {share:6.3f}  {bar}")
    return "\n".join(lines)


def sparkline(values: Sequence[float],
              maximum: Optional[float] = None) -> str:
    """One-line strip chart of a series (unicode block characters)."""
    if not values:
        return ""
    peak = maximum if maximum is not None else max(values)
    if peak <= 0:
        return _BLOCKS[0] * len(values)
    scale = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[min(scale, round(max(0.0, value) / peak * scale))]
        for value in values
    )


def series_chart(series: Mapping[str, Sequence[float]],
                 cycles: Sequence[int], title: str = "",
                 shared_scale: bool = False) -> str:
    """Multi-series strip chart with a cycle axis.

    With ``shared_scale`` every series is normalized against the global
    maximum (needed when the lines are comparable counts); otherwise each
    series auto-scales (right for shares of different magnitudes).
    """
    lines = [title] if title else []
    label_width = max((len(name) for name in series), default=0)
    peak = None
    if shared_scale:
        peak = max((max(values, default=0.0)
                    for values in series.values()), default=0.0)
    for name, values in series.items():
        chart = sparkline(list(values), maximum=peak)
        peak_text = f"max={max(values, default=0):.3g}"
        lines.append(f"{name.ljust(label_width)}  |{chart}|  {peak_text}")
    if cycles:
        axis = f"cycles {cycles[0]}..{cycles[-1]}"
        lines.append(" " * label_width + f"  {axis}")
    return "\n".join(lines)


def stacked_shares(share_series: Mapping[str, Sequence[float]],
                   cycles: Sequence[int], title: str = "") -> str:
    """The paper's stacked-PDF view: per cycle, the dominant class.

    A full stacked area chart does not render in monospace; instead each
    cycle column shows the first letter of the class holding the largest
    share, which makes regime changes (e.g. AT&T's Mono-FEC to Multi-FEC
    transition) visible at a glance.
    """
    lines = [title] if title else []
    names = list(share_series)
    columns = []
    for index in range(len(cycles)):
        best_name = ""
        best_share = -1.0
        for name in names:
            share = share_series[name][index]
            if share > best_share:
                best_share = share
                best_name = name
        columns.append(best_name[0].upper() if best_share > 0 else ".")
    lines.append("".join(columns))
    lines.append(f"cycles {cycles[0]}..{cycles[-1]}  "
                 f"(letter = dominant class, '.' = no tunnels)")
    legend = ", ".join(f"{name[0].upper()}={name}" for name in names)
    lines.append(legend)
    return "\n".join(lines)
