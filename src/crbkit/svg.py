"""Minimal deterministic SVG 1.1 line/scatter plots.

Hand-rolled on purpose: output is byte-identical across runs (no timestamps
or generated ids) and each curve's data is embedded as an XML comment so a
plot is self-describing without the CSV next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SvgPlot"]

_WIDTH, _HEIGHT = 640.0, 440.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 16.0, 24.0, 46.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_values(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(lo_e, hi_e + 1)
                if lo / 1.001 <= 10.0 ** e <= hi * 1.001]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        exp = math.floor(math.log10(abs(v)))
        mant = v / 10.0 ** exp
        if abs(mant - 1.0) < 1e-9:
            return f"1e{exp}"
        return f"{mant:g}e{exp}"
    return f"{v:g}"


@dataclass
class SvgPlot:
    """Accumulates curves/points and renders a standalone SVG document."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    ylog: bool = False
    _items: list = field(default_factory=list)

    def add_line(self, x, y, label: str = "", color: str = "#1f77b4",
                 dash: str = ""):
        self._items.append(("line", np.asarray(x, float), np.asarray(y, float),
                            label, color, dash, 1.6))

    def add_points(self, x, y, label: str = "", color: str = "#d62728"):
        self._items.append(("points", np.asarray(x, float),
                            np.asarray(y, float), label, color, "", 2.4))

    def add_hline(self, y: float, label: str = ""):
        self._items.append(("hline", None, float(y), label, "#555555", "4,3",
                            1.0))

    def add_vline(self, x: float, label: str = "", color: str = "#555555"):
        self._items.append(("vline", float(x), None, label, color, "4,3", 1.0))

    # -- rendering ----------------------------------------------------------

    def _drawable(self, x, y):
        """Mask of the finite points, positive where the y axis is log."""
        ok = np.isfinite(x) & np.isfinite(y)
        return ok & (y > 0) if self.ylog else ok

    def _bounds(self):
        xs, ys = [], []
        for kind, x, y, *_ in self._items:
            if kind in ("line", "points"):
                ok = self._drawable(x, y)
                xs.append(x[ok])
                ys.append(y[ok])
        x_all = np.concatenate(xs) if xs else np.array([0.0, 1.0])
        y_all = np.concatenate(ys) if ys else np.array([0.0, 1.0])
        if x_all.size == 0:
            x_all = np.array([0.1, 1.0])
        if y_all.size == 0:
            y_all = np.array([0.1, 1.0])

        def pad(lo, hi, log):
            if log:
                f = (hi / lo) ** 0.05 if hi > lo else 2.0
                return lo / f, hi * f
            span = hi - lo or max(abs(hi), 1.0)
            return lo - 0.05 * span, hi + 0.05 * span

        return (*pad(x_all.min(), x_all.max(), False),
                *pad(y_all.min(), y_all.max(), self.ylog))

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
        py0, py1 = _HEIGHT - _MARGIN_B, _MARGIN_T

        def sx(v):
            return px0 + (v - x0) / (x1 - x0) * (px1 - px0)

        def sy(v):
            if self.ylog:
                v = math.log10(v)
                a, b = math.log10(y0), math.log10(y1)
            else:
                a, b = y0, y1
            return py0 + (v - a) / (b - a) * (py1 - py0)

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
            f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
            f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
            'fill="white"/>',
            f'<rect x="{px0}" y="{py1}" width="{px1 - px0:.2f}" '
            f'height="{py0 - py1:.2f}" fill="none" stroke="#333" '
            'stroke-width="1"/>',
        ]
        if self.title:
            out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="16" '
                       'text-anchor="middle" font-size="13" '
                       f'font-family="sans-serif">{self.title}</text>')
        for t in _tick_values(x0, x1, False):
            px = sx(t)
            out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(py0)}" x2="{_fmt(px)}" '
                       f'y2="{_fmt(py0 + 4)}" stroke="#333"/>')
            out.append(f'<text x="{_fmt(px)}" y="{_fmt(py0 + 16)}" '
                       'text-anchor="middle" font-size="10" '
                       f'font-family="sans-serif">{_tick_label(t)}</text>')
        for t in _tick_values(y0, y1, self.ylog):
            py = sy(t)
            out.append(f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(py)}" '
                       f'x2="{_fmt(px0)}" y2="{_fmt(py)}" stroke="#333"/>')
            out.append(f'<text x="{_fmt(px0 - 6)}" y="{_fmt(py + 3)}" '
                       'text-anchor="end" font-size="10" '
                       f'font-family="sans-serif">{_tick_label(t)}</text>')
        if self.xlabel:
            out.append(f'<text x="{(px0 + px1) / 2:.1f}" '
                       f'y="{_HEIGHT - 10:.1f}" text-anchor="middle" '
                       'font-size="11" font-family="sans-serif">'
                       f'{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="14" y="{(py0 + py1) / 2:.1f}" '
                       'text-anchor="middle" font-size="11" '
                       'font-family="sans-serif" transform="rotate(-90 14 '
                       f'{(py0 + py1) / 2:.1f})">{self.ylabel}</text>')

        legend_y = py1 + 12
        for kind, x, y, label, color, dash, w in self._items:
            if kind == "line":
                ok = self._drawable(x, y)
                data = ",".join(f"({a:g};{b:g})" for a, b in zip(x, y))
                out.append(f"<!-- data {label or 'line'}: "
                           f"{data.replace('--', '~~')} -->")
                pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}"
                               for a, b in zip(x[ok], y[ok]))
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}" stroke-width="{w:g}"{dash_attr}/>')
            elif kind == "points":
                ok = self._drawable(x, y)
                data = ",".join(f"({a:g};{b:g})" for a, b in zip(x, y))
                out.append(f"<!-- data {label or 'points'}: "
                           f"{data.replace('--', '~~')} -->")
                for a, b in zip(x[ok], y[ok]):
                    out.append(f'<circle cx="{_fmt(sx(a))}" cy="{_fmt(sy(b))}" '
                               f'r="{w:g}" fill="{color}" fill-opacity="0.65"/>')
            elif kind == "hline":
                if (self.ylog and y <= 0) or not (y0 <= y <= y1):
                    continue
                out.append(f'<line x1="{_fmt(px0)}" y1="{_fmt(sy(y))}" '
                           f'x2="{_fmt(px1)}" y2="{_fmt(sy(y))}" '
                           f'stroke="{color}" stroke-dasharray="{dash}"/>')
            elif kind == "vline":
                if not x0 <= x <= x1:
                    continue
                out.append(f'<line x1="{_fmt(sx(x))}" y1="{_fmt(py0)}" '
                           f'x2="{_fmt(sx(x))}" y2="{_fmt(py1)}" '
                           f'stroke="{color}" stroke-dasharray="{dash}"/>')
            if label and kind in ("line", "points"):
                swatch = (f'<line x1="{px1 - 150:.1f}" y1="{legend_y:.1f}" '
                          f'x2="{px1 - 132:.1f}" y2="{legend_y:.1f}" '
                          f'stroke="{color}" stroke-width="2"/>')
                if kind == "points":
                    swatch = (f'<circle cx="{px1 - 141:.1f}" '
                              f'cy="{legend_y:.1f}" r="3" fill="{color}"/>')
                out.append(swatch)
                out.append(f'<text x="{px1 - 128:.1f}" y="{legend_y + 3:.1f}" '
                           'font-size="10" font-family="sans-serif">'
                           f'{label}</text>')
                legend_y += 13
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
