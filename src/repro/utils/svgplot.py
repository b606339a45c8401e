"""Dependency-free SVG line charts for the regenerated figures.

The benchmark harness runs headless with no plotting stack, yet the
paper's artefacts are *figures*.  This small renderer produces clean SVG
line charts (axes, 1–2–5 ticks, grid, legend) from pure
string assembly, so ``bench_reports/fig2.svg`` etc. can be opened in any
browser.  It is deliberately minimal — polylines only, no markers beyond
small circles — but fully tested (the output parses as XML and the
geometry lands inside the axes box).
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.errors import ReproError

__all__ = ["LinePlot"]

# colour-blind-safe categorical palette (Okabe–Ito)
_PALETTE = [
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#000000",
]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """~*target* ticks on a 1–2–5 progression covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


class LinePlot:
    """A single-axes line chart assembled into an SVG string."""

    def __init__(
        self,
        title: str = "",
        xlabel: str = "",
        ylabel: str = "",
        width: int = 640,
        height: int = 400,
    ) -> None:
        if width < 100 or height < 80:
            raise ReproError(f"canvas {width}×{height} too small to draw axes")
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.width = width
        self.height = height
        self._series: list[tuple[str, list[float], list[float], str, bool]] = []

    # ------------------------------------------------------------------
    def add_series(
        self,
        name: str,
        xs,
        ys,
        color: str | None = None,
        dashed: bool = False,
    ) -> None:
        """Add one polyline; colours cycle through a fixed palette."""
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ReproError(f"series {name!r}: {len(xs)} x vs {len(ys)} y values")
        if not xs:
            raise ReproError(f"series {name!r} is empty")
        color = color or _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append((name, xs, ys, color, dashed))

    def render(self) -> str:
        """Assemble the SVG document."""
        if not self._series:
            raise ReproError("plot has no series")
        margin_l, margin_r, margin_t, margin_b = 62, 16, 34, 46
        plot_w = self.width - margin_l - margin_r
        plot_h = self.height - margin_t - margin_b

        all_x = [x for _, xs, _, _, _ in self._series for x in xs]
        all_y = [y for _, _, ys, _, _ in self._series for y in ys]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        y_pad = 0.05 * (y_hi - y_lo)
        y_lo -= y_pad
        y_hi += y_pad

        def px(x: float) -> float:
            return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'font-family="sans-serif" font-size="11">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{self.width / 2}" y="20" text-anchor="middle" '
                f'font-size="14">{_escape(self.title)}</text>'
            )

        # ticks + grid
        x_ticks = _nice_ticks(x_lo, x_hi)
        y_ticks = _nice_ticks(y_lo, y_hi)
        for t in x_ticks:
            xpix = px(t)
            parts.append(
                f'<line x1="{xpix:.1f}" y1="{margin_t}" x2="{xpix:.1f}" '
                f'y2="{margin_t + plot_h}" stroke="#ddd"/>'
            )
            parts.append(
                f'<text x="{xpix:.1f}" y="{margin_t + plot_h + 16}" '
                f'text-anchor="middle">{_fmt(t)}</text>'
            )
        for t in y_ticks:
            ypix = py(t)
            parts.append(
                f'<line x1="{margin_l}" y1="{ypix:.1f}" x2="{margin_l + plot_w}" '
                f'y2="{ypix:.1f}" stroke="#ddd"/>'
            )
            parts.append(
                f'<text x="{margin_l - 6}" y="{ypix + 4:.1f}" '
                f'text-anchor="end">{_fmt(t)}</text>'
            )
        # axes box
        parts.append(
            f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#333"/>'
        )
        if self.xlabel:
            parts.append(
                f'<text x="{margin_l + plot_w / 2}" y="{self.height - 8}" '
                f'text-anchor="middle">{_escape(self.xlabel)}</text>'
            )
        if self.ylabel:
            cy = margin_t + plot_h / 2
            parts.append(
                f'<text x="14" y="{cy}" text-anchor="middle" '
                f'transform="rotate(-90 14 {cy})">{_escape(self.ylabel)}</text>'
            )

        # series
        for name, xs, ys, color, dashed in self._series:
            pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash}/>'
            )
        # legend
        for i, (name, _, _, color, dashed) in enumerate(self._series):
            ly = margin_t + 10 + 16 * i
            lx = margin_l + 10
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.8"{dash}/>'
            )
            parts.append(
                f'<text x="{lx + 28}" y="{ly + 4}">{_escape(name)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path: "str | Path") -> None:
        """Render and write to *path*."""
        Path(path).write_text(self.render(), encoding="utf-8")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
