"""Minimal deterministic SVG output for trajectory pictures.

World coordinates (x, y) in the window [x0, x1] x [y0, y1] map to pixels by
px = (x - x0) * s and py = (y1 - y) * s with s = WIDTH / (x1 - x0), so y
points up in world space and down in pixel space. All numbers are printed
with three decimals, which keeps output byte-stable across runs.
"""

from __future__ import annotations

WIDTH = 640
_STYLE = """
  polyline { fill: none; }
  .traj { stroke: #777777; stroke-width: 1; }
  .short { stroke: #cc2222; stroke-width: 2.5; }
  .bg { stroke: #bbccdd; stroke-width: 0.6; }
  .level { stroke: #2255bb; stroke-width: 1.5; }
  .zero { fill: #000000; }
  .pole { stroke: #000000; stroke-width: 1.5; }
"""


class SvgCanvas:
    def __init__(self, window):
        self.x0, self.y0, self.x1, self.y1 = (float(v) for v in window)
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate window")
        self.scale = WIDTH / (self.x1 - self.x0)
        self.height = max(1, round((self.y1 - self.y0) * self.scale))
        self._body: list[str] = []

    def _xy(self, z: complex) -> tuple[float, float]:
        return ((z.real - self.x0) * self.scale, (self.y1 - z.imag) * self.scale)

    def polyline(self, points, cls: str):
        if len(points) < 2:
            return
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(self._xy, points))
        self._body.append(f'<polyline class="{cls}" points="{coords}"/>')

    def dot(self, z: complex, cls: str, r: float = 3.0):
        x, y = self._xy(z)
        self._body.append(f'<circle class="{cls}" cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}"/>')

    def cross(self, z: complex, cls: str, r: float = 4.0):
        x, y = self._xy(z)
        self._body.append(
            f'<line class="{cls}" x1="{x - r:.3f}" y1="{y - r:.3f}"'
            f' x2="{x + r:.3f}" y2="{y + r:.3f}"/>')
        self._body.append(
            f'<line class="{cls}" x1="{x - r:.3f}" y1="{y + r:.3f}"'
            f' x2="{x + r:.3f}" y2="{y - r:.3f}"/>')

    def text(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<!-- window ({self.x0:g}, {self.y0:g}) .. ({self.x1:g}, {self.y1:g});'
            f' px = (x - {self.x0:g}) * {self.scale:.6g},'
            f' py = ({self.y1:g} - y) * {self.scale:.6g} -->\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
            f' width="{WIDTH}" height="{self.height}"'
            f' viewBox="0 0 {WIDTH} {self.height}">\n'
            f'<style>{_STYLE}</style>\n'
        )
        return head + "\n".join(self._body) + "\n</svg>\n"
