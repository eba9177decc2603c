"""Static SVG figures, emitted by hand.

Three figure kinds: a 2-d embedding scatter with prototype markers and
drift arrows, accuracy-vs-task curves, and a confusion heatmap. Plain
string assembly, no drawing dependency; output is valid XML and
bit-stable for a given input.
"""

from __future__ import annotations

import math

PALETTE = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
    "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0",
]


def _color(i: int) -> str:
    return PALETTE[i % len(PALETTE)]


def _f(v: float) -> str:
    return f"{v:.2f}"


def _doc(width, height, body: list) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _text(x, y, s, size=12, anchor="start", fill="#222", extra=""):
    # xml.sax.saxutils.escape, whose import loads urllib.request, http.client and ssl
    s = s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return (f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}"{extra}>{s}</text>')


def _star_points(cx, cy, r_out=8.0, r_in=3.4) -> str:
    pts = []
    for i in range(10):
        r = r_out if i % 2 == 0 else r_in
        a = math.pi * (-0.5 + i * 0.2)
        pts.append(f"{_f(cx + r * math.cos(a))},{_f(cy + r * math.sin(a))}")
    return " ".join(pts)


def _triangle_points(cx, cy, r=6.5) -> str:
    pts = []
    for i in range(3):
        a = math.pi * (-0.5 + i * 2.0 / 3.0)
        pts.append(f"{_f(cx + r * math.cos(a))},{_f(cy + r * math.sin(a))}")
    return " ".join(pts)


# ---------------------------------------------------------------- embedding


def embedding_transform(payload: dict, size: int = 560, pad: float = 46.0):
    """Affine data-to-pixel map for the embedding figure.

    Returns (sx, ox, sy, oy) with px = sx*x + ox and py = sy*y + oy;
    the y factor is negative so data y grows upward. One shared scale
    for both axes keeps the geometry undistorted.
    """
    xs, ys = [], []
    for p in payload["points"]:
        xs.append(p[0]); ys.append(p[1])
    for key in ("prototypes", "true_means"):
        for v in payload.get(key, {}).values():
            xs.append(v[0]); ys.append(v[1])
    for c, comp in payload.get("compensation", {}).items():
        proto = payload["prototypes"][c]
        xs.append(proto[0] - comp[0]); ys.append(proto[1] - comp[1])
    if not xs:
        raise ValueError("empty embedding payload")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    s = (size - 2 * pad) / span
    ox = pad + ((size - 2 * pad) - s * (x1 - x0)) / 2 - s * x0
    oy = size - pad - ((size - 2 * pad) - s * (y1 - y0)) / 2 + s * y0
    return s, ox, -s, oy


def embedding_figure(payload: dict, title: str = "") -> str:
    """Task-1 test points with prototype state.

    Legend semantics: small dots are test samples, a circle is the
    prototype as saved when its class was learned, a triangle is its
    drift-corrected position, a star is the current true class mean.
    A dotted arrow joins saved to corrected wherever a correction has
    been applied.
    """
    size = 560
    legend_w = 190
    sx, ox, sy, oy = embedding_transform(payload, size=size)

    def X(v): return sx * v + ox
    def Y(v): return sy * v + oy

    protos = {int(c): v for c, v in payload["prototypes"].items()}
    comp = {int(c): v for c, v in payload.get("compensation", {}).items()}
    means = {int(c): v for c, v in payload.get("true_means", {}).items()}
    labels = [int(c) for c in payload["labels"]]
    class_order = sorted(set(labels) | set(protos))
    hue = {c: _color(i) for i, c in enumerate(class_order)}

    body = [
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 1 L 9 5 L 0 9 z" fill="#444"/></marker></defs>',
        f'<rect x="0" y="0" width="{size + legend_w}" height="{size}" fill="white"/>',
        f'<rect x="1" y="1" width="{size - 2}" height="{size - 2}" '
        'fill="none" stroke="#ccc"/>',
    ]
    if title:
        body.append(_text(size / 2, 24, title, size=15, anchor="middle"))

    for p, lab in zip(payload["points"], labels):
        body.append(f'<circle cx="{_f(X(p[0]))}" cy="{_f(Y(p[1]))}" r="2.5" '
                    f'fill="{hue[lab]}" fill-opacity="0.45"/>')

    # dotted drift arrows: saved position -> corrected position
    for c in sorted(comp):
        dx, dy = comp[c]
        if dx == 0.0 and dy == 0.0:
            continue
        px, py = protos[c]
        x1, y1 = X(px - dx), Y(py - dy)
        x2, y2 = X(px), Y(py)
        body.append(f'<line data-class="{c}" x1="{_f(x1)}" y1="{_f(y1)}" '
                    f'x2="{_f(x2)}" y2="{_f(y2)}" stroke="#444" '
                    'stroke-width="1.4" stroke-dasharray="5 4" '
                    'marker-end="url(#arrow)"/>')

    for c in sorted(protos):
        px, py = protos[c]
        dx, dy = comp.get(c, (0.0, 0.0))
        body.append(f'<circle data-class="{c}" data-role="saved" '
                    f'cx="{_f(X(px - dx))}" cy="{_f(Y(py - dy))}" r="6" '
                    f'fill="white" stroke="{hue[c]}" stroke-width="2"/>')
        if dx != 0.0 or dy != 0.0:
            body.append(f'<polygon data-class="{c}" data-role="corrected" '
                        f'points="{_triangle_points(X(px), Y(py))}" '
                        f'fill="{hue[c]}" stroke="#222" stroke-width="1"/>')

    for c in sorted(means):
        mx, my = means[c]
        body.append(f'<polygon data-class="{c}" data-role="true-mean" '
                    f'points="{_star_points(X(mx), Y(my))}" '
                    f'fill="{hue[c]}" stroke="#222" stroke-width="0.9"/>')

    lx = size + 16
    body.append(_text(lx, 40, "legend", size=13))
    body.append(f'<circle cx="{lx + 8}" cy="58" r="2.5" fill="#666"/>')
    body.append(_text(lx + 22, 62, "test samples", size=11))
    body.append(f'<circle cx="{lx + 8}" cy="80" r="6" fill="white" '
                'stroke="#666" stroke-width="2"/>')
    body.append(_text(lx + 22, 84, "saved prototype", size=11))
    body.append(f'<polygon points="{_triangle_points(lx + 8, 102)}" '
                'fill="#666" stroke="#222" stroke-width="1"/>')
    body.append(_text(lx + 22, 106, "corrected prototype", size=11))
    body.append(f'<polygon points="{_star_points(lx + 8, 124)}" '
                'fill="#666" stroke="#222" stroke-width="0.9"/>')
    body.append(_text(lx + 22, 128, "true class mean", size=11))
    body.append(f'<line x1="{lx}" y1="146" x2="{lx + 16}" y2="146" '
                'stroke="#444" stroke-width="1.4" stroke-dasharray="5 4"/>')
    body.append(_text(lx + 22, 150, "applied drift", size=11))
    return _doc(size + legend_w, size, body)


# ------------------------------------------------------------------ curves


def curves_figure(series: list, title: str = "",
                  ylabel: str = "average incremental accuracy") -> str:
    """Line chart of A_k against tasks trained.

    ``series`` is a list of (label, [(k, value), ...]) pairs, one per
    method; values are plotted on a fixed [0, 1] axis.
    """
    if not series:
        raise ValueError("no series to plot")
    width, height = 680, 420
    left, right, top, bottom = 64, 170, 40, 48
    pw, ph = width - left - right, height - top - bottom
    ks = sorted({k for _, pts in series for k, _ in pts})
    kmin, kmax = ks[0], ks[-1]
    kspan = max(kmax - kmin, 1)

    def X(k): return left + pw * (k - kmin) / kspan
    def Y(v): return top + ph * (1.0 - v)

    body = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    if title:
        body.append(_text(left + pw / 2, 24, title, size=15, anchor="middle"))

    for i in range(6):
        v = i / 5
        y = Y(v)
        body.append(f'<line x1="{left}" y1="{_f(y)}" x2="{left + pw}" '
                    f'y2="{_f(y)}" stroke="#e5e5e5"/>')
        body.append(_text(left - 8, y + 4, f"{v:.1f}", size=11, anchor="end"))
    for k in ks:
        x = X(k)
        body.append(f'<line x1="{_f(x)}" y1="{top + ph}" x2="{_f(x)}" '
                    f'y2="{top + ph + 5}" stroke="#888"/>')
        body.append(_text(x, top + ph + 20, str(k), size=11, anchor="middle"))
    body.append(f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
                'fill="none" stroke="#888"/>')
    body.append(_text(left + pw / 2, height - 10, "tasks trained", size=12,
                      anchor="middle"))
    body.append(_text(16, top + ph / 2, ylabel, size=12, anchor="middle",
                      extra=f' transform="rotate(-90 16 {top + ph / 2})"'))

    for i, (label, pts) in enumerate(series):
        color = _color(i)
        pts = sorted(pts)
        coords = " ".join(f"{_f(X(k))},{_f(Y(v))}" for k, v in pts)
        if len(pts) > 1:
            body.append(f'<polyline points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="2"/>')
        for k, v in pts:
            body.append(f'<circle cx="{_f(X(k))}" cy="{_f(Y(v))}" r="3.5" '
                        f'fill="{color}"/>')
        ly = top + 14 + 20 * i
        lx = left + pw + 18
        body.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                    f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        body.append(_text(lx + 24, ly, label, size=11))
    return _doc(width, height, body)


# --------------------------------------------------------------- confusion


def confusion_figure(classes: list, counts, title: str = "") -> str:
    """Row-normalized heatmap; counts[i][j] = true class i predicted j."""
    n = len(classes)
    if n == 0:
        raise ValueError("empty confusion matrix")
    counts = [[int(c) for c in row] for row in counts]
    cell = max(18, min(44, 440 // n))
    left, top = 70, 70
    width = left + n * cell + 30
    height = top + n * cell + 30

    body = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    if title:
        body.append(_text(left + n * cell / 2, 24, title, size=14, anchor="middle"))
    body.append(_text(left + n * cell / 2, 44, "predicted", size=11, anchor="middle"))
    body.append(_text(18, top + n * cell / 2, "true", size=11, anchor="middle",
                      extra=f' transform="rotate(-90 18 {top + n * cell / 2})"'))

    for i, ci in enumerate(classes):
        row_total = sum(counts[i]) or 1
        body.append(_text(left - 6, top + i * cell + cell / 2 + 4, str(ci),
                          size=10, anchor="end"))
        body.append(_text(left + i * cell + cell / 2, top - 6, str(classes[i]),
                          size=10, anchor="middle"))
        for j in range(n):
            share = counts[i][j] / row_total
            # white -> blue ramp on the row share
            r = round(255 - share * (255 - 33))
            g = round(255 - share * (255 - 102))
            b = round(255 - share * (255 - 172))
            x, y = left + j * cell, top + i * cell
            body.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                        f'fill="rgb({r},{g},{b})" stroke="#ddd"/>')
            if counts[i][j] and cell >= 18:
                tcol = "#fff" if share > 0.55 else "#333"
                body.append(_text(x + cell / 2, y + cell / 2 + 4,
                                  str(counts[i][j]), size=9, anchor="middle",
                                  fill=tcol))
    return _doc(width, height, body)
