"""SvgCanvas.polyline against the per-point form it replaced, kept here as
the reference: each point mapped by _xy and formatted on its own."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsphere.svg import SvgCanvas


def polyline_per_point(canvas, points, cls):
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(canvas._xy, points))
    return f'<polyline class="{cls}" points="{coords}"/>'


_log_size = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def _windows_and_points(draw):
    """A window of random place and size, and points inside it, on its edges,
    with -0.0 parts or outside it."""
    x0, y0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    x1, y1 = x0 + draw(_log_size), y0 + draw(_log_size)
    part = st.floats(-1.0, 2.0)
    xs = st.one_of(st.sampled_from([x0, x1, 0.0, -0.0]), part.map(lambda t: x0 + t * (x1 - x0)))
    ys = st.one_of(st.sampled_from([y0, y1, 0.0, -0.0]), part.map(lambda t: y0 + t * (y1 - y0)))
    points = draw(st.lists(st.builds(complex, xs, ys), min_size=2, max_size=30))
    return (x0, y0, x1, y1), points


@settings(max_examples=500, deadline=None)
@given(_windows_and_points())
def test_polyline_text_is_the_per_point_text(case):
    window, points = case
    canvas = SvgCanvas(window)
    for pts in (points, np.asarray(points)):
        canvas.polyline(pts, "traj")
        assert canvas._body[-1] == polyline_per_point(canvas, points, "traj")


def test_polyline_keeps_negative_zeros_and_edges():
    # x = -0.0 against x0 = 0.0 maps to -0.0 and prints "-0.000", as per point
    canvas = SvgCanvas((0.0, -1.0, 2.0, 0.0))
    points = [complex(-0.0, 0.0), complex(2.0, -1.0), complex(1.0, -0.0), complex(0.0, math.pi)]
    canvas.polyline(points, "bg")
    assert canvas._body[-1] == polyline_per_point(canvas, points, "bg")
    assert 'points="-0.000,0.000 640.000,320.000 ' in canvas._body[-1]


def test_polyline_of_fewer_than_two_points_draws_nothing():
    canvas = SvgCanvas((0.0, 0.0, 1.0, 1.0))
    canvas.polyline([], "traj")
    canvas.polyline(np.asarray([0.5 + 0.5j]), "traj")
    assert canvas._body == []
