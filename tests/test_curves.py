import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegrf import curves
from wavegrf.curves import (ChordBounds, CurveSpec, circle, diameter, distance,
                            normalize_to_unit_diameter, paper_boundary)


def test_circle_xy():
    c = circle(1.0)
    assert c.xy(0.0) == pytest.approx([1.0, 0.0])
    assert c.xy(np.pi) == pytest.approx([-1.0, 0.0])
    # 2 pi periodic in phi
    assert c.xy(2 * np.pi + 0.25) == pytest.approx(c.xy(0.25))
    # the one-term series gives the closed-form points and arc-length weight
    # bit for bit, before and after normalization
    t = np.linspace(0.0, 1.0, 10007)
    phi = 2.0 * np.pi * t
    for r in (1.0, 2.0, 3.0, 0.37):
        for c in (circle(r), normalize_to_unit_diameter(circle(r))):
            assert c == CurveSpec(cos_coeffs=(r,), scale=c.scale)
            rs = c.scale * r
            xy = np.stack([rs * np.cos(phi), rs * np.sin(phi)], axis=-1)
            w = np.full_like(t, 2.0 * np.pi * rs)
            assert np.array_equal(c.xy_t(t), xy) and np.array_equal(c.weight_t(t), w)
            assert all(np.array_equal(a, b) for a, b in zip(c.xy_weight_t(t), (xy, w)))


def test_boundary_radius_and_point_at_zero():
    b = paper_boundary()
    # direct evaluation of the finite Fourier series at phi = 0
    assert b.radius_at(0.0) == pytest.approx(49.9612, abs=1e-12)
    assert b.xy(0.0)[0] == pytest.approx(49.9612, abs=1e-12)
    assert b.xy(0.0)[1] == pytest.approx(0.0, abs=1e-12)


def test_boundary_weight_at_zero():
    b = paper_boundary()
    # g'(0) = (1/100) sum k a_{-k}, cross-checked by central differences
    gp = sum(k * c for k, c in zip(range(1, 6), (1.4, 1.1, 0.14, 0.56, 2.2))) / 100.0
    assert b.radius_and_deriv(0.0)[1] == pytest.approx(gp, abs=1e-14)
    h = 1e-6
    fd = (b.radius_at(h) - b.radius_at(-h)) / (2 * h)
    assert b.radius_and_deriv(0.0)[1] == pytest.approx(fd, abs=1e-7)
    assert b.speed(0.0) == pytest.approx(np.hypot(49.9612, gp), rel=1e-12)


def test_circle_weights():
    assert circle(1.0).speed(0.3) == pytest.approx(1.0)
    assert circle(2.0).speed(1.1) == pytest.approx(2.0)


def test_distances_trivial():
    c = circle(1.0)
    assert distance(c, 0.0, np.pi) == pytest.approx(2.0)
    assert distance(c, 0.7, 0.7) == 0.0
    assert distance(c, 0.0, np.pi / 2) == pytest.approx(np.sqrt(2.0))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi),
                 st.floats(0, 2 * np.pi)))
def test_distance_is_a_metric_on_samples(phis):
    b = paper_boundary()
    p1, p2, p3 = phis
    d12 = float(distance(b, p1, p2))
    d21 = float(distance(b, p2, p1))
    d13 = float(distance(b, p1, p3))
    d23 = float(distance(b, p2, p3))
    assert abs(d12 - d21) <= 1e-12
    assert d13 <= d12 + d23 + 1e-12


def test_normalize_circle():
    nc = normalize_to_unit_diameter(circle(3.0))
    assert nc.scale == pytest.approx(1.0 / 6.0, rel=1e-10)
    # idempotence up to tolerance
    nc2 = normalize_to_unit_diameter(nc)
    assert nc2.scale == pytest.approx(nc.scale, rel=1e-9)


def test_normalize_boundary_unit_diameter():
    nb = normalize_to_unit_diameter(paper_boundary())
    phi = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    pts = nb.xy(phi)
    dmax = 0.0
    for s in range(0, 1024, 128):
        d = np.linalg.norm(pts[s:s + 128, None, :] - pts[None, :, :], axis=-1)
        dmax = max(dmax, float(d.max()))
    assert 0.999 <= dmax <= 1.0 + 1e-12


def test_weight_positive_on_grid():
    b = paper_boundary()
    phi = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    assert np.min(b.speed(phi)) > 0


def test_degenerate_curve_rejected():
    with pytest.raises(ValueError):
        CurveSpec(cos_coeffs=(-1.0,))
    with pytest.raises(ValueError):
        CurveSpec(cos_coeffs=(0.1, 0.0, 0.0, 0.0, 0.0, 20.0),
                  sin_coeffs=(0.0,) * 5)


def test_chord_bounds_bracket():
    b = normalize_to_unit_diameter(paper_boundary())
    cb = ChordBounds(b)
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 1, (200, 2))
    chord = np.linalg.norm(b.xy_t(t[:, 0]) - b.xy_t(t[:, 1]), axis=-1)
    dt = np.abs(t[:, 0] - t[:, 1])
    dt = np.minimum(dt, 1 - dt)
    assert np.all(chord >= cb.c_lo * dt - 1e-12)
    assert np.all(chord <= cb.c_hi * dt + 1e-12)


def test_config_roundtrip():
    b = replace(paper_boundary(), scale=0.5)
    again = curves.from_config(curves.to_config(b))
    assert again == b
    assert curves.from_config("paper-boundary") == paper_boundary()
    assert curves.to_config(paper_boundary())["kind"] == "fourier"
    assert (curves.from_config({"kind": "circle", "radius": 2}) == circle(2.0)
            == CurveSpec(cos_coeffs=(2.0,)))
    assert curves.from_config("unit-circle") == curves.from_config({}) == circle(1.0)
    # a circle is written in the Fourier form and reads back as the same curve
    c = replace(circle(2.0), scale=0.25)
    assert curves.to_config(c) == {"kind": "fourier", "cos_coeffs": [2.0],
                                   "sin_coeffs": [], "scale": 0.25}
    assert curves.from_config(curves.to_config(c)) == c
    for bad in ("no-such-preset", 3, {"kind": "ellipse"}, {"kind": "fourier"},
                {"kind": "fourier", "radius": 2}, {"kind": "circle", "cos_coeffs": [2]},
                {"kind": "fourier", "cos_coeffs": [50, 1, 2], "sin_coeffs": [1]},
                {"kind": "fourier", "cos_coeffs": [50, "x"], "sin_coeffs": [1]},
                {"kind": "fourier", "cos_coeffs": 50, "sin_coeffs": []},
                {"radius": "2"}, {"radius": float("nan")}, {"radious": 2},
                {"radius": True}, {"radius": 2, "scale": True},
                {"kind": "fourier", "cos_coeffs": [50, True], "sin_coeffs": [1.0]}):
        with pytest.raises(ValueError):
            curves.from_config(bad)


def _full_grid_diameter(curve, grid=4096, rtol=1e-10):
    """Brute-force reference: norms over the full grid, same refinement."""
    phi = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    pts = curve.xy(phi)
    best = 0.0
    for s in range(0, grid, 512):
        d = np.linalg.norm(pts[s:s + 512, None, :] - pts[None, :, :], axis=-1)
        i, j = divmod(int(np.argmax(d)), grid)
        if d[i, j] > best:
            best, bi, bj = d[i, j], s + i, j
    h = 2 * np.pi / grid
    p1, p2 = phi[bi], phi[bj]
    for _ in range(4):
        p1 = curves._golden_max(lambda a: float(distance(curve, a, p2)), p1 - h, p1 + h,
                                tol=rtol * 2 * np.pi)
        p2 = curves._golden_max(lambda b: float(distance(curve, p1, b)), p2 - h, p2 + h,
                                tol=rtol * 2 * np.pi)
    return float(distance(curve, p1, p2))


def test_diameter_matches_full_grid_search():
    b = paper_boundary()
    assert diameter(b) == _full_grid_diameter(b)
    other = CurveSpec(cos_coeffs=(10.0, 3.0, -2.0, 1.0, 0.0, 0.5),
                      sin_coeffs=(1.0, 2.0, 0.0, -1.0, 0.0))
    for c in (circle(1.0), circle(3.0), other):
        ref = _full_grid_diameter(c)
        assert abs(diameter(c) - ref) <= 4 * np.spacing(ref)


def _dense_grid_pair(x, y):
    """The former library scan: squared distances over the upper triangle
    j >= i in row blocks; the first exact maximum in row order wins."""
    grid, best, bi, bj = len(x), 0.0, 0, 0
    for s in range(0, grid, 512):
        d2 = (x[s:s + 512, None] - x[None, s:]) ** 2 + (y[s:s + 512, None] - y[None, s:]) ** 2
        i, j = divmod(int(np.argmax(d2)), grid - s)
        if d2[i, j] > best:
            best, bi, bj = float(d2[i, j]), s + i, s + j
    return bi, bj, best


def _peanut(a2):
    """r = 1 + (a2 / 100) cos 2 phi: a hull with fewer vertices than grid points."""
    return CurveSpec(cos_coeffs=(1, 0, a2, 0, 0, 0), sin_coeffs=(0,) * 5)


#: curve -> diameter as the dense-scan implementation returned it (circles: exact ties)
DIAMETERS = [
    (paper_boundary(), 100.05220521130454),
    (circle(1.0), 1.9999999999999998),
    (circle(3.0), 6.0),
    (CurveSpec(cos_coeffs=(10.0, 3.0, -2.0, 1.0, 0.0, 0.5),
               sin_coeffs=(1.0, 2.0, 0.0, -1.0, 0.0)), 20.07656931297109),
    (_peanut(40), 2.7999999999999994),
    (_peanut(85), 3.7),
    (_peanut(90), 3.8000000000000003),
]


@pytest.mark.parametrize("curve,expected", DIAMETERS)
def test_hull_search_matches_dense_grid_scan(curve, expected):
    x, y = curve.xy(np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)).T
    assert curves._farthest_grid_pair(x, y) == _dense_grid_pair(x, y)
    assert diameter(curve) == expected


def _iterated_hull(x, y):
    """The former library hull: vectorized passes dropping each vertex not
    turning strictly left, until none is dropped."""
    k = np.arange(len(x))
    while True:
        p, n = np.roll(k, 1), np.roll(k, -1)
        left = (x[k] - x[p]) * (y[n] - y[k]) - (y[k] - y[p]) * (x[n] - x[k]) > 0
        if left.all():
            return k
        k = k[left]


@pytest.mark.parametrize("curve", [c for c, _ in DIAMETERS]
                         + [_peanut(a) for a in (60, 95, 99)])
def test_hull_takes_one_pass_and_matches_iterated_passes(curve, monkeypatch):
    """One vectorized pass, then one scan: the peanut r = 1 + 0.9 cos 2 phi
    took 526 passes of the iterated hull."""
    passes = []
    turns = curves._left_turns
    monkeypatch.setattr(curves, "_left_turns", lambda *a: passes.append(1) or turns(*a))
    x, y = curve.xy(np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)).T
    assert np.array_equal(curves._hull(x, y), _iterated_hull(x, y))
    assert len(passes) == 1


def test_import_does_not_load_scipy_spatial():
    """A library hull (scipy.spatial) would add about 0.2 s to every CLI start,
    which the benchmark's set-up timer does not see."""
    src = str(Path(curves.__file__).resolve().parents[1])
    code = "import sys, wavegrf; print(sorted(m for m in sys.modules if 'scipy.spatial' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_caches_bounded_and_normalization_memoized():
    from wavegrf import pipeline
    assert normalize_to_unit_diameter.cache_info().maxsize == 32
    assert pipeline._single_scale.cache_info().maxsize is not None
    c = circle(2.5)
    first = normalize_to_unit_diameter(c)
    hits = normalize_to_unit_diameter.cache_info().hits
    assert normalize_to_unit_diameter(circle(2.5)) is first
    assert normalize_to_unit_diameter.cache_info().hits == hits + 1
    # coefficient lists are stored as tuples, so such a spec is a cache key too
    listed = CurveSpec(cos_coeffs=list(paper_boundary().cos_coeffs),
                       sin_coeffs=list(paper_boundary().sin_coeffs))
    assert listed == paper_boundary()
    assert normalize_to_unit_diameter(listed) is normalize_to_unit_diameter(paper_boundary())
