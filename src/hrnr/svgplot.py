"""Static SVG rendering of region estimates.

Edge style encodes the pointwise boundary classification: stretches whose
midpoint sample is a member are drawn solid, excluded stretches dashed,
unresolved ones dotted.
"""

from __future__ import annotations

from .core import RegionEstimate
from .geometry import Verdict

_SIZE = 480  # width and height of every rendering, in pixels

_EDGE_STYLE = {
    Verdict.IN: 'stroke="#1f6f43" stroke-width="{w}"',
    Verdict.OUT: 'stroke="#b03030" stroke-width="{w}" stroke-dasharray="{d1} {d2}"',
    Verdict.UNCERTAIN: 'stroke="#888888" stroke-width="{w}" stroke-dasharray="{d2} {d2}"',
}


def region_svg(est: RegionEstimate) -> str:
    verts = est.polygon.vertices
    pts = [z for z, _ in est.boundary_report] or list(verts) or [0j]
    xs = [p.real for p in pts] + [v.real for v in verts]
    ys = [p.imag for p in pts] + [v.imag for v in verts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    pad = 0.1 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    span += 2 * pad
    scale = _SIZE / span

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return _SIZE - (y - y0) * scale

    w = max(1.5, _SIZE / 320)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    if len(verts) >= 3:
        path = " ".join(f"{sx(v.real):.3f},{sy(v.imag):.3f}" for v in verts)
        out.append(f'<polygon points="{path}" fill="#1f6f43" fill-opacity="0.08" stroke="none"/>')

    mids = est.boundary_report[len(verts) :]  # one per edge, in edge order
    for (a, b), (_, v) in zip(est.polygon.edges(), mids, strict=True):
        style = _EDGE_STYLE[v].format(w=w, d1=3 * w, d2=1.5 * w)
        out.append(
            f'<line x1="{sx(a.real):.3f}" y1="{sy(a.imag):.3f}" '
            f'x2="{sx(b.real):.3f}" y2="{sy(b.imag):.3f}" {style}/>'
        )
    for z, v in est.boundary_report:
        colour = {"in": "#1f6f43", "out": "#b03030", "uncertain": "#888888"}[v.value]
        out.append(
            f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" r="{w * 1.2:.2f}" '
            f'fill="{colour}"/>'
        )
    out.append("</svg>")
    return "\n".join(out)


def write_region_svg(est: RegionEstimate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(region_svg(est))
