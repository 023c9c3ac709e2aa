"""Plain-text and Markdown reporting of experiment results.

The paper presents its results as log-scale plots; a text harness cannot
draw them, so the report writer prints, for each x-axis value, one row
per algorithm with the two metrics of every figure (average node
accesses and CPU seconds).  The Markdown writer produces the same tables
for ``python -m repro.bench ... --markdown`` (README, *Reproducing the
paper's experiments*).
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentResult


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 0.01 or abs(value) >= 100000):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(result: ExperimentResult, metrics=("node_accesses", "cpu_time")) -> str:
    """Render one experiment as an aligned plain-text table."""
    headers = [result.x_label, "algorithm", *metrics, "notes"]
    rows = []
    for row in result.rows:
        rows.append(
            [
                _format_value(row["x"]),
                row["algorithm"],
                *[_format_value(row.get(metric, "")) for metric in metrics],
                row.get("notes", "") or "",
            ]
        )
    widths = [max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h)) for i, h in enumerate(headers)]
    lines = [
        f"{result.name}: {result.description} [scale={result.scale}]",
        "  " + "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  " + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  " + "  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def results_to_markdown(result: ExperimentResult, metrics=("node_accesses", "cpu_time")) -> str:
    """Render one experiment as a GitHub-flavoured Markdown table."""
    headers = [result.x_label, "algorithm", *metrics, "notes"]
    lines = [
        f"### {result.name} — {result.description} (scale: {result.scale})",
        "",
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in result.rows:
        cells = [
            _format_value(row["x"]),
            row["algorithm"],
            *[_format_value(row.get(metric, "")) for metric in metrics],
            row.get("notes", "") or "",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
