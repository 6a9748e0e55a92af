"""ASCII and SVG pictures of 2- and 3-axis supports.

Two-axis supports draw as a single grid with the first axis running top to
bottom and the second left to right (the Nakayama triangle then reads as a
lower-triangular staircase).  Three-axis supports draw as one grid per
value of the third axis, stacked, with the first axis left to right and the
second top to bottom, matching the customary slice pictures of the
slot-insertion modules.
"""

from __future__ import annotations

import numpy as np

from .supports import Support

FILLED = "#"
EMPTY = "."

CELL = 18  # svg cell edge in px
GAP = 26  # svg gap between slices


def _axis_label(support: Support) -> str:
    return " x ".join(
        f"{ax.length}(op)" if ax.polarity == "op" else str(ax.length)
        for ax in support.shape.axes
    )


def _grids(support: Support) -> tuple[str, list[tuple[str | None, np.ndarray]]]:
    """The caption and the (label, grid) pictures of a support; a grid is a
    boolean matrix indexed [row, column]."""
    k = support.shape.arity
    if k == 2:
        return "axis 1 top to bottom, axis 2 left to right", [(None, support.mask)]
    if k == 3:
        l3 = support.shape.lengths[2]
        slices = [(f"slice {v}/{l3}", support.mask[:, :, v - 1].T) for v in range(1, l3 + 1)]
        return "axis 1 left to right, axis 2 top to bottom, one slice per axis-3 value", slices
    raise ValueError(f"can only render 2- or 3-axis supports, got {k} axes")


def render_ascii(support: Support) -> str:
    caption, grids = _grids(support)
    lines = [f"axes: {_axis_label(support)}; {caption}"]
    for label, grid in grids:
        if label is not None:
            lines.append(label)
        lines += [" ".join(FILLED if cell else EMPTY for cell in row) for row in grid.tolist()]
    return "\n".join(lines) + "\n"


def render_svg(support: Support) -> str:
    grids = _grids(support)[1]
    rows, cols = grids[0][1].shape
    width = cols * CELL + 2 * CELL
    slice_h = rows * CELL + GAP
    height = len(grids) * slice_h + CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<desc>support on {_axis_label(support)}</desc>',
    ]
    y0 = CELL
    for label, grid in grids:
        if label is not None:
            parts.append(f'<text x="{CELL}" y="{y0 - 4}" font-size="12">{label}</text>')
        parts.append(
            f'<rect x="{CELL}" y="{y0}" width="{cols * CELL}" height="{rows * CELL}" '
            f'fill="none" stroke="#999"/>'
        )
        for cx, cy in (np.argwhere(grid.T) + 1).tolist():
            x = CELL + (cx - 1) * CELL
            y = y0 + (cy - 1) * CELL
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="#36648b" stroke="#fff"/>'
            )
        y0 += slice_h
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
