"""Planar geometry for 3D detection boxes: poses, ego transforms, rotated-rectangle IoU."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .rules import Rule, check, finite

TWO_PI = 2.0 * math.pi

# BEV footprints below this area (m^2) are rejected as degenerate.
MIN_BEV_AREA = 1e-6


def normalize_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi].

    Values already in range are returned unchanged, so normalization is
    idempotent down to the last bit. NaN and infinity are rejected.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = angle % TWO_PI
    if wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """normalize_angle over an array: a new array, equal to it element for element.

    np.remainder rounds exactly like Python's float %, so the wrapped values
    carry the same bits. Raises ValueError when any angle is not finite.
    """
    angles = np.asarray(angles, dtype=float)
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    out = angles.copy()
    wrap = ~((angles > -math.pi) & (angles <= math.pi))
    if wrap.any():
        wrapped = np.remainder(angles[wrap], TWO_PI)
        wrapped[wrapped > math.pi] -= TWO_PI
        out[wrap] = wrapped
    return out


#: A planar centre's rule: x and y finite.
_CENTRE_RULES = (finite("x"), finite("y"))


def clamp_columns(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """min(high, max(low, v)) elementwise, picking what Python's min and max pick.

    Signed zeros come out as they would, and NaN becomes low.
    """
    values = np.where(values > low, values, low)
    return np.where(values < high, values, high)


@dataclass(frozen=True)
class Pose:
    """Planar object pose: position in meters, heading wrapped to (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        check(_CENTRE_RULES, self)
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class EgoPose:
    """Planar sensor pose in the global frame at one timestamp."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        check(_CENTRE_RULES, self)
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @classmethod
    def identity(cls) -> "EgoPose":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Box3D:
    """7-DoF detection box: center (x, y, z), size (w, l, h), yaw about +z.

    Length runs along the heading axis and width across it. Every field must
    be finite, sizes strictly positive and the BEV footprint at least
    MIN_BEV_AREA (`rules`).
    """

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float

    #: The value rules of a box, in the order they are checked; yaw's is normalize_angle's.
    rules: ClassVar[tuple[Rule, ...]] = (
        *map(finite, ("x", "y", "z", "w", "l", "h")),
        Rule(lambda b: (b.w > 0.0) & (b.l > 0.0) & (b.h > 0.0), lambda b: "box dimensions must be strictly positive"),
        Rule(lambda b: b.w * b.l >= MIN_BEV_AREA, lambda b: f"degenerate BEV footprint: w*l = {b.w * b.l!r}"),
        Rule(lambda b: abs(b.yaw) < math.inf, lambda b: f"angle must be finite, got {b.yaw!r}"),
    )

    def __post_init__(self) -> None:
        check(self.rules, self)
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @property
    def bev_pose(self) -> Pose:
        return Pose(self.x, self.y, self.yaw)

    def with_bev_pose(self, pose: Pose) -> "Box3D":
        return replace(self, x=pose.x, y=pose.y, yaw=pose.heading)

    @classmethod
    def from_array(cls, values) -> "Box3D":
        x, y, z, w, l, h, yaw = (float(v) for v in values)
        return cls(x, y, z, w, l, h, yaw)

    def to_array(self) -> list[float]:
        return [self.x, self.y, self.z, self.w, self.l, self.h, self.yaw]


def _corners(box: Box3D) -> tuple[tuple[float, float], ...]:
    """BEV footprint corners as plain tuples, counter-clockwise; the first two bound the +heading face,
    with extents l along the heading axis and w across it."""
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    hl = 0.5 * box.l
    hw = 0.5 * box.w
    cl, sl = c * hl, s * hl
    cw, sw = c * hw, s * hw
    x, y = box.x, box.y
    return (
        (x + cl + sw, y + sl - cw),
        (x + cl - sw, y + sl + cw),
        (x - cl - sw, y - sl + cw),
        (x - cl + sw, y - sl - cw),
    )


def _polygon_area(points) -> float:
    """Absolute shoelace area of a simple polygon given as (x, y) pairs."""
    area = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return 0.5 * abs(area)


def _clip_convex(subject, clipper):
    """Sutherland-Hodgman clip of a convex polygon by a CCW convex polygon."""
    output = list(subject)
    cx1, cy1 = clipper[-1]
    for cx2, cy2 in clipper:
        if not output:
            break
        ex = cx2 - cx1
        ey = cy2 - cy1
        points = output
        output = []
        sx, sy = points[-1]
        fs = ex * (sy - cy1) - ey * (sx - cx1)
        for px, py in points:
            fp = ex * (py - cy1) - ey * (px - cx1)
            if (fp >= 0.0) != (fs >= 0.0):
                t = fs / (fs - fp)
                output.append((sx + t * (px - sx), sy + t * (py - sy)))
            if fp >= 0.0:
                output.append((px, py))
            sx, sy, fs = px, py, fp
        cx1, cy1 = cx2, cy2
    return output


def _iou_from_corners(corners_a, area_a, corners_b, area_b) -> float:
    clipped = _clip_convex(corners_a, corners_b)
    if len(clipped) < 3:
        return 0.0
    inter = _polygon_area(clipped)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    iou = inter / union
    if iou < 0.0:
        return 0.0
    return 1.0 if iou > 1.0 else iou


def corner_columns(x, y, w, l, yaw) -> tuple[np.ndarray, np.ndarray]:
    """_corners of n boxes given as columns: corner x and corner y, shape (n, 4) each.

    Every corner is computed by the same float operations in the same order
    as _corners, so the bits agree.
    """
    c = np.cos(yaw)
    s = np.sin(yaw)
    hl = 0.5 * l
    hw = 0.5 * w
    cl, sl = c * hl, s * hl
    cw, sw = c * hw, s * hw
    front_x, back_x = x + cl, x - cl
    front_y, back_y = y + sl, y - sl
    xs = np.stack([front_x + sw, front_x - sw, back_x - sw, back_x + sw], axis=1)
    ys = np.stack([front_y - cw, front_y + cw, back_y + cw, back_y - cw], axis=1)
    return xs, ys


def _clip_edge(px, py, poly, count, cx1, cy1, cx2, cy2):
    """One clipper edge of _clip_convex over many polygons at once.

    The polygons are one flat vertex list: vertex v belongs to polygon
    poly[v], and each polygon's count vertices are consecutive. Vertex v emits
    the crossing of the edge line between its predecessor (cyclically) and
    itself when their sides differ, then itself when inside, exactly as the
    scalar loop appends them.
    """
    n_poly = len(count)
    first = np.cumsum(count) - count
    filled = count > 0
    prev = np.arange(len(px)) - 1
    prev[first[filled]] = (first + count - 1)[filled]
    ex = (cx2 - cx1)[poly]
    ey = (cy2 - cy1)[poly]
    f = ex * (py - cy1[poly]) - ey * (px - cx1[poly])
    fs = f[prev]
    sx = px[prev]
    sy = py[prev]
    inside = f >= 0.0
    cross = inside != (fs >= 0.0)
    # crossings are read only where the sides differ; elsewhere t may be 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = fs / (fs - f)
        ix = sx + t * (px - sx)
        iy = sy + t * (py - sy)
    emit = np.stack([cross, inside], axis=1).ravel()
    new_count = np.bincount(poly, weights=cross.astype(np.int64) + inside, minlength=n_poly)
    new_count = new_count.astype(np.int64)
    new_poly = np.repeat(np.arange(n_poly), new_count)
    new_x = np.stack([ix, px], axis=1).ravel()[emit]
    new_y = np.stack([iy, py], axis=1).ravel()[emit]
    return new_x, new_y, new_poly, new_count


def clipped_iou(ax, ay, area_a, bx, by, area_b) -> np.ndarray:
    """_iou_from_corners over P pairs at once, bit for bit.

    ax, ay are the (P, 4) counter-clockwise corners of each subject, clipped
    by the clipper corners bx, by; area_a and area_b are the footprint areas.
    Clipped polygons keep every vertex the scalar loop would emit, so rounding
    that makes one emit extra vertices is reproduced as well.
    """
    n_pairs = len(ax)
    px, py = ax.ravel(), ay.ravel()
    poly = np.repeat(np.arange(n_pairs), 4)
    count = np.full(n_pairs, 4)
    cx1, cy1 = bx[:, 3], by[:, 3]
    for edge in range(4):
        cx2, cy2 = bx[:, edge], by[:, edge]
        px, py, poly, count = _clip_edge(px, py, poly, count, cx1, cy1, cx2, cy2)
        cx1, cy1 = cx2, cy2
    # shoelace over (vertex, next vertex cyclically); bincount adds each
    # polygon's terms from zero in vertex order, like _polygon_area
    first = np.cumsum(count) - count
    filled = count > 0
    nxt = np.arange(len(px)) + 1
    nxt[(first + count - 1)[filled]] = first[filled]
    area = np.bincount(poly, weights=px * py[nxt] - px[nxt] * py, minlength=n_pairs)
    inter = 0.5 * np.abs(area)
    union = area_a + area_b - inter
    solid = (count >= 3) & (union > 0.0)
    iou = np.zeros(n_pairs)
    iou[solid] = inter[solid] / union[solid]
    return np.where(iou > 1.0, 1.0, iou)


# Slack of the intersection bound per squared metre of coordinate magnitude
# M (the pair's largest coordinates plus circumradii): clipping absolute
# coordinates rounds the area by about 20 * 2.2e-16 * M**2, so the bound
# stays above every clipped area.
_BOUND_SLACK = 1e-12


class Footprints(NamedTuple):
    """The columns of n BEV footprints that iou_can_reach reads.

    cos and sin are each heading's, half_l and half_w half its length and
    width, area its w * l and magnitude its largest coordinate plus its
    circumradius.
    """

    x: np.ndarray
    y: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    half_l: np.ndarray
    half_w: np.ndarray
    area: np.ndarray
    magnitude: np.ndarray

    @classmethod
    def of(cls, boxes: np.ndarray, radius: np.ndarray) -> "Footprints":
        """The footprints of boxes given as rows (x, y, z, w, l, h, yaw), radius their circumradii."""
        x, y, w, l, yaw = boxes[:, 0], boxes[:, 1], boxes[:, 3], boxes[:, 4], boxes[:, 6]
        return cls(x, y, np.cos(yaw), np.sin(yaw), 0.5 * l, 0.5 * w, w * l, np.maximum(np.abs(x), np.abs(y)) + radius)

    def take(self, rows: np.ndarray) -> "Footprints":
        return Footprints(*(column[rows] for column in self))


def _shadow_overlap(a: Footprints, b: Footprints) -> np.ndarray:
    """Area of the overlap of footprint a[k] with b[k]'s shadow on a[k]'s axes, per k."""
    dx = b.x - a.x
    dy = b.y - a.y
    cos_d = np.abs(a.cos * b.cos + a.sin * b.sin)
    sin_d = np.abs(a.cos * b.sin - a.sin * b.cos)
    along = dx * a.cos + dy * a.sin
    across = dy * a.cos - dx * a.sin
    reach_along = b.half_l * cos_d + b.half_w * sin_d
    reach_across = b.half_l * sin_d + b.half_w * cos_d
    ov_along = np.minimum(a.half_l, along + reach_along) - np.maximum(-a.half_l, along - reach_along)
    ov_across = np.minimum(a.half_w, across + reach_across) - np.maximum(-a.half_w, across - reach_across)
    return np.maximum(ov_along, 0.0) * np.maximum(ov_across, 0.0)


def iou_can_reach(a: Footprints, b: Footprints, floor: float) -> np.ndarray:
    """False for the pairs (a[k], b[k]) whose IoU provably stays below floor.

    The IoU is bev_iou's in either argument order, or clipped_iou's. The
    intersection lies inside both footprints, so its area is at most the
    overlap of either with the other's shadow on its axes; IoU >= floor
    needs intersection >= floor * (A_a + A_b) / (1 + floor). The bound is
    symmetric in a and b, bit for bit, and a pair whose bound is NaN (far-field
    overflow) is kept. At a floor of 0 (or -0.0) every pair is kept: the bound
    is never negative, and 0 * inf is NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.minimum(_shadow_overlap(a, b), _shadow_overlap(b, a))
        reach = a.magnitude + b.magnitude
        return ~((bound + _BOUND_SLACK * reach * reach) * (1.0 + floor) < floor * (a.area + b.area))


def circumradius(box: Box3D) -> float:
    """Radius of the circle through the BEV footprint's corners."""
    return 0.5 * math.hypot(box.w, box.l)


def circumradius_columns(w: np.ndarray, l: np.ndarray) -> np.ndarray:
    """circumradius over columns of widths and lengths, with its bits.

    It takes math.hypot over lists, because np.hypot can differ from it in
    the last bit.
    """
    return 0.5 * np.array(list(map(math.hypot, w.tolist(), l.tolist())), dtype=float)


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU of two boxes' BEV footprints, in [0, 1].

    Intersection is computed by clipping a's footprint by b's, so the result
    is symmetric in its arguments only up to rounding: bev_iou(a, b) and
    bev_iou(b, a) may differ in the last bits. Callers that need
    reproducible outputs fix the order: evaluation passes the ground truth
    first, weighted NMS the seed. Raises ValueError on a degenerate footprint.
    """
    area_a = a.w * a.l
    area_b = b.w * b.l
    if area_a < MIN_BEV_AREA or area_b < MIN_BEV_AREA:
        raise ValueError("degenerate box in IoU")
    # identical footprints clip to themselves exactly
    if a.x == b.x and a.y == b.y and a.w == b.w and a.l == b.l and a.yaw == b.yaw:
        return 1.0
    dx = b.x - a.x
    dy = b.y - a.y
    reach = circumradius(a) + circumradius(b)
    # footprints cannot overlap past the circumradius sum
    if dx * dx + dy * dy >= reach * reach:
        return 0.0
    return _iou_from_corners(_corners(a), area_a, _corners(b), area_b)


# Cells per axis are capped so that cell keys fit in int64 and the rounding
# of a cell index stays far below the cell slack.
_MAX_GRID_CELLS = 1 << 20
_CELL_SLACK = 1.0 + 1e-6


def _no_pairs() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


# Neighbour cells (dx, dy) that a point probes besides its own cell: one of
# each pair of opposite offsets, so each pair of cells meets once.
_HALF_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))


def candidate_pairs(ax, ay, ar, bx=None, by=None, br=None) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) whose circles overlap: dx*dx + dy*dy < (ar[i] + br[j])**2.

    dx = bx[j] - ax[i] and dy = by[j] - ay[i]; the test is exactly the one
    bev_iou uses to skip pairs, so every pair of boxes with IoU > 0 is among
    the results when ar and br are the circumradii. It is symmetric bit for
    bit, because negation and addition are exact. Returns two int64 arrays:

    - self-join (b left out): each unordered pair {i, j} once, as i < j, in
      no set order. The points are binned into a uniform grid whose cell is
      at least twice the largest radius; each point probes the later points
      of its own cell and 4 of its 8 neighbouring cells, one offset at a
      time, so temporaries stay the size of one offset's candidates.
    - cross join (b given): the self-join of a's points followed by b's,
      keeping the pairs that join an a point to a b point, sorted by (i, j).
      Passing the same points as a and b gives the ordered self-join, with
      (j, i) and every (i, i) of positive radius.
    """
    ax, ay, ar = (np.asarray(v, dtype=float) for v in (ax, ay, ar))
    if bx is not None:
        na, nb = len(ax), len(bx)
        if na == 0 or nb == 0:
            return _no_pairs()
        i, j = candidate_pairs(*(np.concatenate([a, np.asarray(b, dtype=float)])
                                 for a, b in ((ax, bx), (ay, by), (ar, br))))
        cross = (i < na) & (j >= na)
        return np.divmod(np.sort(i[cross] * nb + (j[cross] - na)), nb)
    n = len(ax)
    if n < 2:
        return _no_pairs()
    x0, y0 = ax.min(), ay.min()
    span = max(ax.max() - x0, ay.max() - y0)
    cell = max(float(ar.max() + ar.max()) * _CELL_SLACK, span / _MAX_GRID_CELLS)
    if cell <= 0.0:
        # zero radii and one shared point: no pair passes the strict test
        return _no_pairs()
    # one empty row and column pad each side, so neighbour keys never wrap
    cx = np.floor((ax - x0) / cell).astype(np.int64) + 1
    cy = np.floor((ay - y0) / cell).astype(np.int64) + 1
    rows = int(cy.max()) + 2
    key = cx * rows + cy
    order = np.argsort(key, kind="stable")
    # searchsorted runs several times faster on sorted queries
    key = key[order]

    def probe(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Passing pairs (i, j) where the point at sorted position k meets the
        points at sorted positions lo[k] to hi[k] - 1."""
        counts = hi - lo
        i = np.repeat(order, counts)
        # position inside each point's run of candidates, added to its run start
        j = order[np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        # dx*dx + dy*dy < reach*reach, computed in place to hold fewer temporaries
        dist2 = ax[j] - ax[i]
        dist2 *= dist2
        dy = ay[j] - ay[i]
        dy *= dy
        dist2 += dy
        reach = ar[i] + ar[j]
        reach *= reach
        keep = dist2 < reach
        return i[keep], j[keep]

    # the own cell: each point meets only the points after it in sorted order
    found = [probe(np.arange(1, n + 1), np.searchsorted(key, key, side="right"))]
    for ox, oy in _HALF_OFFSETS:
        target = key + (ox * rows + oy)
        found.append(probe(np.searchsorted(key, target, side="left"), np.searchsorted(key, target, side="right")))
    i, j = (np.concatenate(side) for side in zip(*found))
    return np.minimum(i, j), np.maximum(i, j)


# The IoU bound and the clip each run over this many pairs at a time, which
# bounds the temporaries of one pass while each pass stays full.
_PAIR_CHUNK = 2048


def reachable_pairs(boxes, label, floor: float, other=None, other_label=None) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of same-label boxes, given as rows (x, y, z, w, l, h, yaw), whose BEV IoU can reach floor.

    The candidate_pairs of the centres and circumradii that share a label and
    that iou_can_reach keeps, so every same-label pair with IoU >= floor (> 0
    at floor 0). Without other, the self-join of boxes: each unordered pair
    once, as i < j, in no set order. With it, the cross join, sorted by (i, j).
    """
    radius = circumradius_columns(boxes[:, 3], boxes[:, 4])
    if other is None:
        other, other_label, other_radius = boxes, label, radius
        i, j = candidate_pairs(boxes[:, 0], boxes[:, 1], radius)
    else:
        other_radius = circumradius_columns(other[:, 3], other[:, 4])
        i, j = candidate_pairs(boxes[:, 0], boxes[:, 1], radius, other[:, 0], other[:, 1], other_radius)
    same = label[i] == other_label[j]
    i, j = i[same], j[same]
    keep = np.empty(len(i), dtype=bool)
    # far-field boxes may overflow here; iou_can_reach keeps their pairs
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = Footprints.of(boxes, radius), Footprints.of(other, other_radius)
        for start in range(0, len(i), _PAIR_CHUNK):
            chunk = slice(start, start + _PAIR_CHUNK)
            keep[chunk] = iou_can_reach(a.take(i[chunk]), b.take(j[chunk]), floor)
    return i[keep], j[keep]


def pair_ious(boxes: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """BEV IoU of boxes i[k] and j[k] (rows x, y, z, w, l, h, yaw): clipped_iou of i's footprint clipped by j's.

    Identical footprints (x, y, w, l, yaw) have IoU 1, so on a pair whose
    circumcircles overlap the IoU is bev_iou(box i, box j) to the bit.
    """
    footprint = boxes[:, [0, 1, 3, 4, 6]]
    iou = np.empty(len(i))
    # far-field boxes may overflow here
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, w, l, yaw = footprint.T
        area = w * l
        corner_x, corner_y = corner_columns(x, y, w, l, yaw)
        for start in range(0, len(i), _PAIR_CHUNK):
            chunk = slice(start, start + _PAIR_CHUNK)
            a, b = i[chunk], j[chunk]
            iou[chunk] = clipped_iou(corner_x[a], corner_y[a], area[a], corner_x[b], corner_y[b], area[b])
            iou[chunk][(footprint[a] == footprint[b]).all(axis=1)] = 1.0
    return iou


def transform_box(box: Box3D, src: EgoPose, dst: EgoPose) -> Box3D:
    """Re-express a box given in `src` ego coordinates in `dst` ego coordinates.

    Composes the src -> global -> dst planar rigid transforms. z and size are
    carried unchanged; yaw shifts by the rotation difference and is rewrapped.
    One row of transform_columns, with its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, yaw = transform_columns(np.array([box.x]), np.array([box.y]), np.array([box.yaw]), src, dst)
    return replace(box, x=float(x[0]), y=float(y[0]), yaw=float(yaw[0]))


def transform_columns(x, y, yaw, src: EgoPose, dst: EgoPose):
    """Boxes given in `src` ego coordinates re-expressed in `dst`, as columns of centres and yaws.

    Returns new (x, y, yaw) arrays; ValueError when a result is not finite.
    """
    if src == dst:
        return x, y, yaw
    cs = math.cos(src.yaw)
    ss = math.sin(src.yaw)
    gx = src.x + cs * x - ss * y
    gy = src.y + ss * x + cs * y
    cd = math.cos(dst.yaw)
    sd = math.sin(dst.yaw)
    rx = gx - dst.x
    ry = gy - dst.y
    out_x = cd * rx + sd * ry
    out_y = -sd * rx + cd * ry
    if not (np.isfinite(out_x).all() and np.isfinite(out_y).all()):
        raise ValueError("transformed box centre is not finite")
    return out_x, out_y, normalize_angles(yaw + src.yaw - dst.yaw)
