"""Plain-text renderings of the paper's figures.

* :func:`render_som_map` — the workload-distribution maps of Figures
  3, 5 and 7: a character grid with one symbol per workload, shared
  cells (the figures' "darker cells") marked, and a legend.
* :func:`render_dendrogram` — the clustering trees of Figures 4, 6
  and 8 as an indented outline with merge distances.
* :func:`render_hit_map` — per-cell occupancy counts.

Everything returns a string; callers decide whether to print.
"""

from __future__ import annotations

import string
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.dendrogram import Dendrogram
from repro.exceptions import ReproError

__all__ = [
    "render_som_map",
    "render_dendrogram",
    "render_dendrogram_vertical",
    "render_hit_map",
    "render_u_matrix",
]

_SYMBOLS = string.ascii_uppercase + string.ascii_lowercase + string.digits


def render_som_map(
    positions: Mapping[str, tuple[int, int]],
    rows: int,
    columns: int,
    *,
    title: str = "",
) -> str:
    """Character-grid view of workload positions on the SOM lattice.

    Each workload gets a letter; cells holding several workloads show
    ``*`` (the "particularly similar" dark cells) and the legend lists
    every occupant.  Row 0 is printed at the top; dimension labels
    match the paper's "Dimension 1" (columns) and "Dimension 2"
    (rows).
    """
    if rows < 1 or columns < 1:
        raise ReproError(f"render_som_map: bad grid {rows}x{columns}")
    labels = sorted(positions)
    if len(labels) > len(_SYMBOLS):
        raise ReproError(
            f"render_som_map: too many workloads ({len(labels)}) to symbolize"
        )
    symbol_of = {label: _SYMBOLS[i] for i, label in enumerate(labels)}

    cells: dict[tuple[int, int], list[str]] = {}
    for label in labels:
        row, col = positions[label]
        if not (0 <= row < rows and 0 <= col < columns):
            raise ReproError(
                f"render_som_map: {label!r} at ({row}, {col}) is outside the "
                f"{rows}x{columns} grid"
            )
        cells.setdefault((row, col), []).append(label)

    lines: list[str] = []
    if title:
        lines.append(title)
    header = "    " + " ".join(f"{col:2d}" for col in range(columns))
    lines.append(header)
    lines.append("   +" + "---" * columns)
    for row in range(rows):
        rendered = []
        for col in range(columns):
            occupants = cells.get((row, col), [])
            if not occupants:
                rendered.append(" .")
            elif len(occupants) == 1:
                rendered.append(" " + symbol_of[occupants[0]])
            else:
                rendered.append(" *")
        lines.append(f"{row:2d} |" + " ".join(rendered))
    lines.append("")
    lines.append("legend (rows = Dimension 2, columns = Dimension 1):")
    for label in labels:
        row, col = positions[label]
        crowd = cells[(row, col)]
        marker = " (shared cell)" if len(crowd) > 1 else ""
        lines.append(f"  {symbol_of[label]}  {label} @ ({row}, {col}){marker}")
    return "\n".join(lines)


def render_hit_map(hits: Sequence[Sequence[int]] | np.ndarray) -> str:
    """Occupancy counts per cell, '.' for empty cells."""
    matrix = np.asarray(hits)
    if matrix.ndim != 2:
        raise ReproError(f"render_hit_map: expected a 2-D count grid, got {matrix.shape}")
    lines = []
    for row in matrix:
        lines.append(
            " ".join("." if count == 0 else str(int(count)) for count in row)
        )
    return "\n".join(lines)


def render_dendrogram(dendrogram: Dendrogram, *, precision: int = 2) -> str:
    """Indented-outline rendering of a merge tree.

    Internal nodes print their merging distance; leaves print their
    label.  Reading the outline top-down at increasing indent matches
    reading the paper's dendrograms at decreasing merging distance.
    """
    count = dendrogram.num_leaves
    if count == 1:
        return dendrogram.labels[0]

    lines: list[str] = []
    # Depth-first with an explicit stack: a chained tree is as deep as
    # it has leaves.
    pending = [(count + len(dendrogram.merges) - 1, "", "`--")]
    while pending:
        cluster_id, prefix, connector = pending.pop()
        if cluster_id < count:
            lines.append(f"{prefix}{connector} {dendrogram.labels[cluster_id]}")
            continue
        merge = dendrogram.merges[cluster_id - count]
        lines.append(
            f"{prefix}{connector} [d={merge.distance:.{precision}f}]"
        )
        child_prefix = prefix + ("   " if connector == "`--" else "|  ")
        pending.append((merge.second, child_prefix, "`--"))
        pending.append((merge.first, child_prefix, "|--"))
    return "\n".join(lines)


_SHADES = " .:-=+*#%@"


def render_u_matrix(values: Sequence[Sequence[float]] | np.ndarray) -> str:
    """Shade a U-matrix with ASCII intensity levels.

    Darker characters mark units far from their lattice neighbors —
    cluster boundaries; light regions are dense cluster interiors.
    A constant matrix renders entirely light.
    """
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ReproError(
            f"render_u_matrix: expected a non-empty 2-D matrix, got {matrix.shape}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ReproError("render_u_matrix: matrix contains NaN or inf")
    low = float(matrix.min())
    spread = float(matrix.max()) - low
    lines = []
    for row in matrix:
        if spread == 0.0:
            shades = [_SHADES[0]] * len(row)
        else:
            shades = [
                _SHADES[
                    min(
                        len(_SHADES) - 1,
                        int((value - low) / spread * (len(_SHADES) - 1)),
                    )
                ]
                for value in row
            ]
        lines.append(" ".join(shades))
    return "\n".join(lines)


def render_dendrogram_vertical(
    dendrogram: Dendrogram, *, height: int = 16
) -> str:
    """Paper-orientation dendrogram: leaves on the x-axis, merging
    distance on the y-axis (Figures 4, 6 and 8).

    Each leaf gets a column and a symbol (legend below); every merge
    draws a horizontal bar at a row proportional to its merging
    distance, connecting the two clusters' stems.  ``height`` is the
    number of canvas rows above the leaf row.
    """
    if height < 2:
        raise ReproError(f"render_dendrogram_vertical: height must be >= 2, got {height}")
    count = dendrogram.num_leaves
    if count > len(_SYMBOLS):
        raise ReproError(
            f"render_dendrogram_vertical: too many leaves ({count}) to symbolize"
        )
    order = dendrogram.leaf_order()
    if count == 1:
        return f"A\n\nlegend:\n  A  {order[0]}"

    column_width = 3
    width = count * column_width
    column_of_label = {label: index for index, label in enumerate(order)}
    x_of_leaf = {
        leaf_id: column_of_label[label] * column_width + 1
        for leaf_id, label in enumerate(dendrogram.labels)
    }

    max_distance = max(merge.distance for merge in dendrogram.merges)
    if max_distance == 0.0:
        max_distance = 1.0
    bottom = height - 1

    def row_of(distance: float) -> int:
        return bottom - int(round(distance / max_distance * (bottom - 0)))

    canvas = [[" "] * width for _ in range(height)]
    # Cluster state: stem x position and the row its stem currently
    # reaches up to (leaves start at the bottom row).
    stem_x: dict[int, int] = dict(x_of_leaf)
    stem_top: dict[int, int] = {leaf: bottom for leaf in range(count)}

    for step, merge in enumerate(dendrogram.merges):
        target = row_of(merge.distance)
        # Bars may not overlap the children's existing tops; nudge up.
        target = min(target, stem_top[merge.first] - 1, stem_top[merge.second] - 1)
        target = max(target, 0)
        left_x = min(stem_x[merge.first], stem_x[merge.second])
        right_x = max(stem_x[merge.first], stem_x[merge.second])
        for child in (merge.first, merge.second):
            for row in range(target + 1, stem_top[child]):
                if canvas[row][stem_x[child]] == " ":
                    canvas[row][stem_x[child]] = "|"
        for x in range(left_x, right_x + 1):
            canvas[target][x] = "_" if canvas[target][x] == " " else canvas[target][x]
        canvas[target][left_x] = "+"
        canvas[target][right_x] = "+"
        new_id = count + step
        stem_x[new_id] = (left_x + right_x) // 2
        stem_top[new_id] = target

    lines = ["".join(row).rstrip() for row in canvas]
    leaf_row = [" "] * width
    for label, column in column_of_label.items():
        leaf_row[column * column_width + 1] = _SYMBOLS[column]
    lines.append("".join(leaf_row).rstrip())
    lines.append("")
    lines.append(f"y-axis: merging distance 0 (bottom) .. {max_distance:.2f} (top)")
    lines.append("legend:")
    for column, label in enumerate(order):
        lines.append(f"  {_SYMBOLS[column]}  {label}")
    return "\n".join(lines)
