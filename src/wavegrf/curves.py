"""Closed parametrized curves in the plane.

Every curve is star-shaped with a radius given by a finite Fourier series

    g(phi) = a0 + (1/100) * sum_{k=1..n} (a_{-k} sin(k phi) + a_k cos(k phi));

a circle is the one-term series g = a0.

The test boundary used throughout the experiments ships as the preset
``paper_boundary()``.  All geometry (evaluation, arc-length weight, chordal
distance) is exact up to rounding; derivatives of g are analytic, not
numerical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
#: equispaced parameter points of the positivity check, the diameter search
#: and the chord bounds
GRID = 4096

#: radius Fourier coefficients of the experiment boundary, index -5..5
BOUNDARY_COEFFS = {
    -5: 2.2, -4: 0.56, -3: 0.14, -2: 1.1, -1: 1.4,
    0: 50.0,
    1: -0.57, 2: -1.5, 3: -1.2, 4: -1.5, 5: 0.89,
}


@dataclass(frozen=True)
class CurveSpec:
    """A closed star-shaped curve, radius ``g`` a finite Fourier series.

    A circle of radius r is the one-term series ``cos_coeffs=(r,)``.
    ``scale`` is a global rescaling of the ambient coordinates.
    """

    cos_coeffs: tuple              # (a0, a1, ..., an)
    sin_coeffs: tuple = ()         # (a_{-1}, ..., a_{-n})
    scale: float = 1.0

    def __post_init__(self):
        # tuples keep the spec hashable (it keys the normalization cache)
        object.__setattr__(self, "cos_coeffs", tuple(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(self.sin_coeffs))
        vals = (self.scale, *self.cos_coeffs, *self.sin_coeffs)
        v = np.array(vals)                 # a json true or false is no number here
        if v.dtype.kind not in "iuf" or bool in map(type, vals) or not np.isfinite(v).all():
            raise ValueError("curve scale and coefficients must be finite numbers")
        if not 0 < len(self.cos_coeffs) == len(self.sin_coeffs) + 1:
            raise ValueError("a curve needs cos_coeffs (a0, ..., an) and n sin_coeffs")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        g = self.radius_at(np.linspace(0.0, TWO_PI, GRID, endpoint=False))
        if np.min(g) <= 0:
            raise ValueError("radius function must stay positive")

    # -- radius and derivatives ---------------------------------------------
    def radius_at(self, phi):
        phi = np.asarray(phi, dtype=float)
        a = self.cos_coeffs
        b = self.sin_coeffs
        g = np.full_like(phi, a[0])
        for k in range(1, len(a)):
            g = g + 0.01 * (b[k - 1] * np.sin(k * phi) + a[k] * np.cos(k * phi))
        return g

    def radius_and_deriv(self, phi):
        """``(g(phi), g'(phi))``, each sin(k phi), cos(k phi) once."""
        phi = np.asarray(phi, dtype=float)
        a, b = self.cos_coeffs, self.sin_coeffs
        g, dg = np.full_like(phi, a[0]), np.zeros_like(phi)
        for k in range(1, len(a)):
            s, c = np.sin(k * phi), np.cos(k * phi)
            g = g + 0.01 * (b[k - 1] * s + a[k] * c)
            dg = dg + 0.01 * k * (b[k - 1] * c - a[k] * s)
        return g, dg

    # -- geometry -------------------------------------------------------------
    def xy(self, phi):
        """Ambient coordinates, shape (..., 2), scale applied."""
        phi = np.asarray(phi, dtype=float)
        g = self.scale * self.radius_at(phi)
        return np.stack([g * np.cos(phi), g * np.sin(phi)], axis=-1)

    def speed(self, phi):
        """|d gamma / d phi| (arc-length density in the scaled ambient space)."""
        g, dg = self.radius_and_deriv(phi)
        return self.scale * np.sqrt(g * g + dg * dg)

    # t-domain helpers (t in [0,1), phi = 2 pi t) used by Galerkin assembly
    def xy_t(self, t):
        return self.xy(TWO_PI * np.asarray(t, dtype=float))

    def weight_t(self, t):
        return TWO_PI * self.speed(TWO_PI * np.asarray(t, dtype=float))

    def xy_weight_t(self, t):
        """``(xy_t(t), weight_t(t))`` from one fused radius and derivative evaluation."""
        phi = TWO_PI * np.asarray(t, dtype=float)
        g, dg = self.radius_and_deriv(phi)
        return ((self.scale * g)[..., None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1),
                TWO_PI * (self.scale * np.sqrt(g * g + dg * dg)))


def distance(curve: CurveSpec, phi1, phi2):
    """Chordal (ambient Euclidean) distance between curve points."""
    d = curve.xy(phi1) - curve.xy(phi2)
    return np.sqrt(np.sum(d * d, axis=-1))


def _golden_max(f, lo, hi, tol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _left_turns(x, y, k) -> np.ndarray:
    """Whether the closed polygon ``k`` turns strictly left at each vertex."""
    p, n = np.roll(k, 1), np.roll(k, -1)
    return (x[k] - x[p]) * (y[n] - y[k]) - (y[k] - y[p]) * (x[n] - x[k]) > 0


def _hull(x, y) -> np.ndarray:
    """Ascending indices of the hull vertices of star-shaped points in angular
    order, none collinear with its neighbours.

    One pass drops each vertex not turning strictly left, a hull vertex never;
    on a convex curve that is all.  Otherwise one scan of the survivors from
    the rightmost one (a hull vertex) pops every vertex that stops turning
    left (Graham's scan around an interior point), with the same arithmetic.
    """
    k = np.arange(len(x))
    left = _left_turns(x, y, k)
    if left.all():
        return k
    k = k[left]
    xs, ys = x[k].tolist(), y[k].tolist()
    s = int(np.lexsort((y[k], x[k]))[-1])
    st = [s]
    for v in [*range(s + 1, len(k)), *range(s + 1)]:
        while len(st) > 1 and ((xs[st[-1]] - xs[st[-2]]) * (ys[v] - ys[st[-1]])
                               - (ys[st[-1]] - ys[st[-2]]) * (xs[v] - xs[st[-1]])) <= 0:
            st.pop()
        st.append(v)
    return k[np.sort(st[:-1])]


def _farthest_grid_pair(x, y) -> tuple[int, int, float]:
    """The pair ``i <= j`` of largest ``(x_i - x_j)**2 + (y_i - y_j)**2``,
    lexicographically first among exact ties; see ``diameter``."""
    k = _hull(x, y)
    # vertex m supports the outward normals th[m-1]..th[m] of its two edges
    th = np.unwrap(np.arctan2(x[k] - x[np.roll(k, -1)], y[np.roll(k, -1)] - y[k]))
    ext = np.concatenate([th, th + TWO_PI])
    lo = np.searchsorted(ext, np.append(th[-1] - TWO_PI, th[:-1]) + np.pi) - 1
    cnt = np.searchsorted(ext, th + np.pi, side="right") + 2 - lo
    a = k[np.repeat(np.arange(len(k)), cnt)]
    b = k[(np.repeat(lo + cnt - np.cumsum(cnt), cnt) + np.arange(cnt.sum())) % len(k)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    d2 = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
    tie = np.flatnonzero(d2 == d2.max())
    t = tie[np.lexsort((j[tie], i[tie]))[0]]
    return int(i[t]), int(j[t]), float(d2[t])


def diameter(curve: CurveSpec) -> float:
    """Max chordal distance: the farthest pair of ``GRID`` equispaced points,
    refined by coordinate-wise golden-section search to 1e-10 relative.

    That pair is antipodal on the hull (Shamos).  Star-shaped curve points come
    in angular order, so one vectorized pass and, unless the curve is convex,
    one scan of the survivors give the hull (``_hull``); each hull vertex meets
    the cyclic range of vertices whose normal cones hold the opposite of its
    own, with one of margin per side: about 4 pairs per vertex.  O(GRID)
    memory and work.  Exact ties keep the first ``i <= j`` in lexicographic
    order, as a row-order upper-triangle scan does.
    """
    phi = np.linspace(0.0, TWO_PI, GRID, endpoint=False)
    bi, bj, best = _farthest_grid_pair(*curve.xy(phi).T)
    if best <= 0.0:
        raise ValueError("degenerate curve: zero diameter")
    h, p = TWO_PI / GRID, [phi[bi], phi[bj]]
    for _ in range(4):
        for e in (0, 1):         # move end e; the other end's point is fixed
            q = curve.xy(p[1 - e])
            p[e] = _golden_max(lambda a: float(np.sqrt(np.sum((curve.xy(a) - q) ** 2))),
                               p[e] - h, p[e] + h, tol=1e-10 * TWO_PI)
    return float(distance(curve, *p))


@lru_cache(maxsize=32)
def normalize_to_unit_diameter(curve: CurveSpec) -> CurveSpec:
    """Rescale so that the chordal diameter equals 1 (memoized per curve)."""
    d = diameter(curve)
    return replace(curve, scale=curve.scale / d)


def circle(radius: float) -> CurveSpec:
    return CurveSpec(cos_coeffs=(radius,))


def paper_boundary() -> CurveSpec:
    """The analytic test boundary preset used by the experiment suite."""
    a = tuple(BOUNDARY_COEFFS[k] for k in range(0, 6))
    b = tuple(BOUNDARY_COEFFS[-k] for k in range(1, 6))
    return CurveSpec(cos_coeffs=a, sin_coeffs=b)


CURVE_PRESETS = {
    "paper-boundary": paper_boundary,
    "unit-circle": lambda: circle(1.0),
}


def from_config(obj) -> CurveSpec:
    """Build a curve from a preset name or a config mapping, either
    ``{"kind": "fourier", "cos_coeffs": [...], "sin_coeffs": [...], "scale": s}``
    or ``{"kind": "circle", "radius": r, "scale": s}``; the kind defaults to
    circle, radius and scale to 1."""
    if isinstance(obj, str):
        try:
            return CURVE_PRESETS[obj]()
        except KeyError:
            raise ValueError(f"unknown curve preset {obj!r}") from None
    try:
        fields = {**obj}
        kind = fields.pop("kind", "circle")
        if kind == "circle":
            fields = _circle_fields(**fields)
        elif kind != "fourier":
            raise ValueError(f"unknown curve kind {kind!r}")
        return CurveSpec(**fields)
    except TypeError as e:          # not a mapping, unknown field, no sequence
        raise ValueError(f"bad curve {obj!r}: {e}") from None


def _circle_fields(radius=1.0, scale=1.0) -> dict:
    return {"cos_coeffs": (radius,), "scale": scale}


def to_config(curve: CurveSpec) -> dict:
    return {"kind": "fourier", "cos_coeffs": list(curve.cos_coeffs),
            "sin_coeffs": list(curve.sin_coeffs), "scale": curve.scale}


class ChordBounds:
    """Two-sided comparison of chordal distance with parameter distance.

    For star-shaped curves, ``c_lo * dt <= chord <= c_hi * dt`` where ``dt``
    is the circular parameter distance in [0, 1/2].  Used to prune distance
    computations in pattern construction.
    """

    def __init__(self, curve: CurveSpec):
        phi = np.linspace(0.0, TWO_PI, GRID, endpoint=False)
        r = curve.scale * curve.radius_at(phi)
        # chord >= 2 r_min sin(pi dt) >= 4 r_min dt on dt in [0, 1/2]
        self.c_lo = 4.0 * float(np.min(r)) * 0.999999
        self.c_hi = float(np.max(curve.weight_t(phi / TWO_PI))) * 1.000001
