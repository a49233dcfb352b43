"""Hand-rolled SVG emission for evaluation plots.

One panel per category: the ROC polyline, the three SOC points (strong,
product, weak, connected in that order), and dashed F1 isometric curves
at fixed levels.  No plotting library is used; the output is a plain SVG
string, deterministic for fixed input.  A polyline's pixels are computed for
all its points in one NumPy pass and written with one ``%`` format; the text
is that of one ``f"{x0 + f*200:.2f},{y0 + (1 - t)*200:.2f}"`` per point.
"""

from __future__ import annotations

import numpy as np

from .metrics import f1_isometric

F1_LEVELS = (0.9, 0.8, 0.7, 0.6)

_PANEL = 200
_MARGIN = 46
_COLUMNS = 4


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


class _Panel:
    def __init__(self, x0: int, y0: int):
        self.x0 = x0
        self.y0 = y0

    def px(self, fpr: float) -> float:
        return self.x0 + fpr * _PANEL

    def py(self, tpr: float) -> float:
        return self.y0 + (1.0 - tpr) * _PANEL

    def polyline(self, fprs, tprs, style: str) -> str:
        """One polyline: every point's pixels in one NumPy pass, in ``px`` and
        ``py``'s operation order, and its text in one ``%`` format."""
        xy = np.empty((len(fprs), 2))
        xy[:, 0] = self.x0 + np.asarray(fprs, dtype=np.float64) * _PANEL
        xy[:, 1] = self.y0 + (1.0 - np.asarray(tprs, dtype=np.float64)) * _PANEL
        points = " ".join(("%.2f,%.2f",) * len(xy)) % tuple(xy.ravel().tolist())
        return f'<polyline fill="none" {style} points="{points}"/>'


def _isometric_path(panel: _Panel, level: float) -> str:
    fpr = np.linspace(0.0, 1.0, 101)
    tpr = f1_isometric(level, fpr)
    keep = tpr <= 1.0
    if not np.any(keep):
        return ""
    return panel.polyline(
        fpr[keep], tpr[keep],
        'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,3"',
    )


def evaluation_svg(roc: dict, soc: dict, title: str = "") -> str:
    """Render ROC curves and SOC points into one SVG document.

    Parameters
    ----------
    roc : mapping from category name to (threshold, fpr, tpr) rows, an (m, 3)
        array (``RocCurve.points``) or a list.
    soc : mapping from category name to (fpr, tpr) rows in strong, product,
        weak order, a (3, 2) array (``soc_points``) or a list.  Categories
        appear if present in either map.
    """
    names = sorted(set(roc) | set(soc))
    columns = min(_COLUMNS, max(1, len(names)))
    rows = -(-len(names) // columns) if names else 1
    width = columns * (_PANEL + _MARGIN) + _MARGIN
    height = rows * (_PANEL + _MARGIN) + _MARGIN + (24 if title else 0)
    top = _MARGIN + (24 if title else 0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    for index, name in enumerate(names):
        panel = _Panel(
            _MARGIN + (index % columns) * (_PANEL + _MARGIN),
            top + (index // columns) * (_PANEL + _MARGIN),
        )
        parts.append(
            f'<rect x="{panel.x0}" y="{panel.y0}" width="{_PANEL}" height="{_PANEL}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
        parts.append(panel.polyline(
            (0.0, 1.0), (0.0, 1.0), 'stroke="#dddddd" stroke-width="1"'
        ))
        for level in F1_LEVELS:
            path = _isometric_path(panel, level)
            if path:
                parts.append(path)
        if name in roc:
            table = np.asarray(roc[name], dtype=np.float64).reshape(-1, 3)
            table = table[np.argsort(table[:, 1], kind="stable")]  # ascending FPR
            parts.append(panel.polyline(
                table[:, 1], table[:, 2], 'stroke="#c62828" stroke-width="1.5"',
            ))
        if name in soc:
            triple = soc[name]
            parts.append(panel.polyline(
                [p[0] for p in triple], [p[1] for p in triple],
                'stroke="#1565c0" stroke-width="1.5"',
            ))
            for fpr, tpr in triple:
                parts.append(
                    f'<circle cx="{panel.px(fpr):.2f}" cy="{panel.py(tpr):.2f}" '
                    'r="3" fill="#1565c0"/>'
                )
        parts.append(
            f'<text x="{panel.x0 + _PANEL / 2:.0f}" y="{panel.y0 - 6}" '
            f'text-anchor="middle">{name}</text>'
        )
        for tick in (0.0, 0.5, 1.0):
            parts.append(
                f'<text x="{panel.px(tick):.0f}" y="{panel.y0 + _PANEL + 14}" '
                f'text-anchor="middle">{_fmt(tick)}</text>'
            )
            parts.append(
                f'<text x="{panel.x0 - 6}" y="{panel.py(tick) + 4:.0f}" '
                f'text-anchor="end">{_fmt(tick)}</text>'
            )
        parts.append(
            f'<text x="{panel.x0 + _PANEL / 2:.0f}" y="{panel.y0 + _PANEL + 30}" '
            'text-anchor="middle">false positive rate</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
