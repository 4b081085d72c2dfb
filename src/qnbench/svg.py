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
# Entity references that ``_text`` applies to every text node, whose contents
# come from flags and CSVs.
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


def _span(values):
    """The axis range of ``values``: their extremes, or a single value
    widened by 0.5 each way, or by 2**-40 of itself where 0.5 is lost to
    rounding (magnitudes from about 2**52), so the range always has a width."""
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if lo == hi:
        lo, hi = lo - abs(lo) * 2**-40, hi + abs(hi) * 2**-40
    return lo, hi


def _ticks(lo, hi, log_scale):
    if log_scale:
        first, last = math.floor(lo), math.ceil(hi)
        decades = range(first, last + 1)
        return [(d, f"1e{d:d}") for d in decades if lo - 1e-9 <= d <= hi + 1e-9] or [
            (lo, f"{10 ** lo:.3g}"), (hi, f"{10 ** hi:.3g}")
        ]
    # the fewest significant digits, from 6, at which the labels differ
    # wherever the ticks do; 17 tells any two doubles apart
    steps = [lo + (hi - lo) * i / 4 for i in range(5)]
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in steps]
        if len(set(labels)) >= len(set(steps)):
            break
    return list(zip(steps, labels))


def _line(x1, y1, x2, y2, stroke="black", extra=""):
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>'


def _text(x, y, body, size, anchor="middle", extra=""):
    """A text element; ``body`` is outside text, escaped here.  No
    ``anchor`` leaves the attribute out."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body.translate(TEXT_ESCAPES)}</text>')


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
    x_lo, x_hi = _span([v for xs, _ in coords.values() for v in xs])
    y_lo, y_hi = _span([v for _, ys in coords.values() for v in ys])

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
        parts.append(_text(f"{WIDTH / 2:.1f}", 18, title, 14))

    axis_y = MARGIN_TOP + plot_h
    parts.append(_line(MARGIN_LEFT, axis_y, MARGIN_LEFT + plot_w, axis_y))
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, axis_y))
    for v, label in _ticks(x_lo, x_hi, log_x):
        x = f"{px(v):.2f}"
        parts.append(_line(x, axis_y, x, axis_y + 5))
        parts.append(_text(x, axis_y + 18, label, 11))
    for v, label in _ticks(y_lo, y_hi, log_y):
        y = py(v)
        parts.append(_line(MARGIN_LEFT - 5, f"{y:.2f}", MARGIN_LEFT, f"{y:.2f}"))
        parts.append(_text(MARGIN_LEFT - 8, f"{y + 4:.2f}", label, 11, anchor="end"))
    parts.append(_text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 12, x_label, 12))
    mid = f"{MARGIN_TOP + plot_h / 2:.1f}"
    parts.append(_text(16, mid, y_label, 12, extra=f' transform="rotate(-90 16 {mid})"'))

    for i, (name, (xs, ys)) in enumerate(coords.items()):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = MARGIN_TOP + 14 + 16 * i
        lx = MARGIN_LEFT + plot_w - 160
        parts.append(
            _line(lx, ly - 4, lx + 22, ly - 4, stroke=color, extra=' stroke-width="1.5"')
        )
        parts.append(_text(lx + 28, ly, name, 11, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
