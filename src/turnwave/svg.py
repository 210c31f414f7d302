"""Deterministic SVG plots of interface snapshots and scalar time series.

Output contains no timestamps or environment-dependent content: the same
input bytes always produce the same SVG bytes.  Curve plots can highlight
the parameter intervals where the stability function is negative.
"""

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN = 48


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (np.asarray(values) - lo) * (out_hi - out_lo) / span


def _polyline(xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{pts}"/>')


def _document(body, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<title>{title}</title>\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        + "\n".join(body) + "\n</svg>\n")


def render_curve(alpha, z1, z2, negative_intervals=(), title: str = "interface") -> str:
    """SVG of the interface (z1, z2); portions of the curve whose
    parameter lies in a negative-sign interval are overdrawn in red."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    x_lo, x_hi = float(z1.min()), float(z1.max())
    y_lo, y_hi = float(z2.min()), float(z2.max())
    pad = 0.05 * max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    xs = _scale(z1, x_lo - pad, x_hi + pad, MARGIN, WIDTH - MARGIN)
    ys = _scale(z2, y_lo - pad, y_hi + pad, HEIGHT - MARGIN, MARGIN)
    body = [_polyline(xs, ys, "#1f4e8c")]
    period = 2.0 * np.pi
    for (a_lo, a_hi) in negative_intervals:
        if a_hi < a_lo:
            a_hi += period
        wrapped = np.where(alpha < a_lo - 1e-12, alpha + period, alpha)
        mask = (wrapped >= a_lo - 1e-12) & (wrapped <= a_hi + 1e-12)
        if mask.sum() >= 2:
            body.append(_polyline(xs[mask], ys[mask], "#c1272d", 3.0))
    return _document(body, title)


def render_series(t, values, label: str) -> str:
    """SVG line plot of a scalar diagnostic against time, with a zero line."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    v = values[finite]
    if v.size == 0:
        v = np.array([0.0])
    lo, hi = float(min(v.min(), 0.0)), float(max(v.max(), 0.0))
    pad = 0.05 * max(hi - lo, 1e-9)
    xs = _scale(t, float(t.min()), float(t.max()), MARGIN, WIDTH - MARGIN)
    ys = _scale(values, lo - pad, hi + pad, HEIGHT - MARGIN, MARGIN)
    zero_y = float(_scale([0.0], lo - pad, hi + pad, HEIGHT - MARGIN, MARGIN)[0])
    body = [
        f'<line x1="{MARGIN}" y1="{_fmt(zero_y)}" x2="{WIDTH - MARGIN}" '
        f'y2="{_fmt(zero_y)}" stroke="#999999" stroke-width="0.8"/>',
        _polyline(xs[finite], ys[finite], "#1f4e8c"),
        f'<text x="{MARGIN}" y="{MARGIN - 16}" font-family="monospace" '
        f'font-size="14">{label}</text>',
    ]
    return _document(body, label)
