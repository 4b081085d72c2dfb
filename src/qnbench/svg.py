"""Minimal standalone SVG line charts.

The benchmark must render without any third-party graphics stack, so
charts are plain polylines with axes, ticks, and a legend, emitted as a
single self-contained SVG string.  Output is deterministic: no timestamps,
no randomness.
"""

import math
import re

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 28, 52

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]

# The characters XML 1.0 cannot encode, dropped from all outside text.
NOT_XML = str.maketrans(
    dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF])
)
# Entity references for the text nodes, whose contents come from flags and CSVs.
TEXT_ESCAPES = {**NOT_XML, **str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})}


def _transform(values, log_scale, axis_name, row_numbers):
    if not log_scale:
        return list(values)
    out = []
    for v, row in zip(values, row_numbers):
        if v <= 0.0:
            raise ValueError(
                f"row {row}: non-positive value {v!r} on log-scaled {axis_name} axis"
            )
        out.append(math.log10(v))
    return out


def _ticks(lo, hi, log_scale):
    if log_scale:
        first, last = math.floor(lo), math.ceil(hi)
        decades = range(first, last + 1)
        return [(d, f"1e{d:d}") for d in decades if lo - 1e-9 <= d <= hi + 1e-9] or [
            (lo, f"{10 ** lo:.3g}"), (hi, f"{10 ** hi:.3g}")
        ]
    if hi == lo:
        return [(lo, f"{lo:.6g}")]
    ticks = []
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        ticks.append((v, f"{v:.6g}"))
    return ticks


def line_chart(
    series,
    x_label: str,
    y_label: str,
    log_x: bool = False,
    log_y: bool = False,
    title: str | None = None,
    source_comment: str | None = None,
) -> str:
    """Render named series as one SVG document.

    ``series`` maps a legend label to a list of (x, y, row_number) points;
    row numbers feed error messages for log-axis domain violations.  Text is
    escaped, characters XML 1.0 cannot encode are dropped, and each run of
    dashes in ``source_comment`` shrinks to one.
    """
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("nothing to plot")
    coords = {}
    for name, pts in series.items():
        rows = [r for _, _, r in pts]
        xs = _transform([p[0] for p in pts], log_x, "x", rows)
        ys = _transform([p[1] for p in pts], log_y, "y", rows)
        coords[name] = (xs, ys)

    all_x = [v for xs, _ in coords.values() for v in xs]
    all_y = [v for _, ys in coords.values() for v in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if source_comment is not None:
        safe = re.sub("-+", "-", source_comment.translate(NOT_XML))
        parts.append(f"<!-- source: {safe} -->")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title.translate(TEXT_ESCAPES)}</text>'
        )

    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for v, label in _ticks(x_lo, x_hi, log_x):
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for v, label in _ticks(y_lo, y_hi, log_y):
        y = py(v)
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" '
                     f'x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{x_label.translate(TEXT_ESCAPES)}</text>"
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">'
        f"{y_label.translate(TEXT_ESCAPES)}</text>"
    )

    for i, (name, (xs, ys)) in enumerate(coords.items()):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = MARGIN_TOP + 14 + 16 * i
        lx = MARGIN_LEFT + plot_w - 160
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name.translate(TEXT_ESCAPES)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
