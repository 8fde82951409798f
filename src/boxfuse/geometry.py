"""Planar geometry for 3D detection boxes: poses, ego transforms, rotated-rectangle IoU."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def clamp_columns(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """min(high, max(low, v)) elementwise, picking what Python's min and max pick.

    Signed zeros come out as they would, and NaN becomes low.
    """
    values = np.where(values > low, values, low)
    return np.where(values < high, values, high)


def require_number(name: str, value) -> float:
    """A JSON number as a float; ValueError for anything else, booleans and strings included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Pose:
    """Planar object pose: position in meters, heading wrapped to (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class EgoPose:
    """Planar sensor pose in the global frame at one timestamp."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @classmethod
    def identity(cls) -> "EgoPose":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Box3D:
    """7-DoF detection box: center (x, y, z), size (w, l, h), yaw about +z.

    Length runs along the heading axis and width across it. Sizes must be
    strictly positive and the BEV footprint at least MIN_BEV_AREA.
    """

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "w", "l", "h"):
            _require_finite(name, getattr(self, name))
        if self.w <= 0.0 or self.l <= 0.0 or self.h <= 0.0:
            raise ValueError("box dimensions must be strictly positive")
        if self.w * self.l < MIN_BEV_AREA:
            raise ValueError(f"degenerate BEV footprint: w*l = {self.w * self.l!r}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @property
    def bev_area(self) -> float:
        return self.w * self.l

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
    """BEV footprint corners as plain tuples, counter-clockwise."""
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


def bev_corners(box: Box3D) -> np.ndarray:
    """Counter-clockwise corners of the BEV footprint, shape (4, 2).

    The first two corners bound the +heading face; extents are l along the
    heading axis and w across it.
    """
    return np.array(_corners(box), dtype=float)


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


def candidate_pairs(ax, ay, ar, bx, by, br) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) whose circles overlap: dx*dx + dy*dy < (ar[i] + br[j])**2.

    dx = bx[j] - ax[i] and dy = by[j] - ay[i]; the test is exactly the one
    bev_iou uses to skip pairs, so every pair of boxes with IoU > 0 is among
    the results when ar and br are the circumradii. The b side is binned into
    a uniform grid whose cell is at least the largest radius sum, and each a
    point probes its 3x3 neighbouring cells, one offset at a time, so
    temporaries stay the size of one offset's candidates. Returns two int64
    arrays sorted by (i, j); a self-join (a is b) includes every (i, i) of
    positive radius.
    """
    ax, ay, ar = (np.asarray(v, dtype=float) for v in (ax, ay, ar))
    bx, by, br = (np.asarray(v, dtype=float) for v in (bx, by, br))
    na, nb = len(ax), len(bx)
    if na == 0 or nb == 0:
        return _no_pairs()
    x0 = min(ax.min(), bx.min())
    y0 = min(ay.min(), by.min())
    span = max(ax.max(), bx.max()) - x0, max(ay.max(), by.max()) - y0
    cell = max(float(ar.max() + br.max()) * _CELL_SLACK, max(span) / _MAX_GRID_CELLS)
    if cell <= 0.0:
        # zero radii and one shared point: no pair passes the strict test
        return _no_pairs()
    # one empty row and column pad each side, so neighbour keys never wrap
    acx = np.floor((ax - x0) / cell).astype(np.int64) + 1
    acy = np.floor((ay - y0) / cell).astype(np.int64) + 1
    bcx = np.floor((bx - x0) / cell).astype(np.int64) + 1
    bcy = np.floor((by - y0) / cell).astype(np.int64) + 1
    rows = int(max(acy.max(), bcy.max())) + 2
    akey = acx * rows + acy
    bkey = bcx * rows + bcy
    border = np.argsort(bkey, kind="stable")
    bkey = bkey[border]
    # searchsorted runs several times faster on sorted queries
    aorder = np.argsort(akey, kind="stable")
    akey = akey[aorder]

    def probe(target: np.ndarray) -> np.ndarray:
        """Passing pairs of one neighbour offset, as keys i * nb + j."""
        lo = np.searchsorted(bkey, target, side="left")
        counts = np.searchsorted(bkey, target, side="right") - lo
        i = np.repeat(aorder, counts)
        # position inside each a point's run of candidates, added to its run start
        j = border[np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        # dx*dx + dy*dy < reach*reach, computed in place to hold fewer temporaries
        dist2 = bx[j] - ax[i]
        dist2 *= dist2
        dy = by[j] - ay[i]
        dy *= dy
        dist2 += dy
        reach = ar[i] + br[j]
        reach *= reach
        keep = dist2 < reach
        return i[keep] * nb + j[keep]

    keys = np.concatenate([probe(akey + (ox * rows + oy)) for ox in (-1, 0, 1) for oy in (-1, 0, 1)])
    keys.sort()
    return np.divmod(keys, nb)


def transform_box(box: Box3D, src: EgoPose, dst: EgoPose) -> Box3D:
    """Re-express a box given in `src` ego coordinates in `dst` ego coordinates.

    Composes the src -> global -> dst planar rigid transforms. z and size are
    carried unchanged; yaw shifts by the rotation difference and is rewrapped.
    """
    if src == dst:
        return box
    cs = math.cos(src.yaw)
    ss = math.sin(src.yaw)
    gx = src.x + cs * box.x - ss * box.y
    gy = src.y + ss * box.x + cs * box.y
    cd = math.cos(dst.yaw)
    sd = math.sin(dst.yaw)
    rx = gx - dst.x
    ry = gy - dst.y
    return replace(
        box,
        x=cd * rx + sd * ry,
        y=-sd * rx + cd * ry,
        yaw=normalize_angle(box.yaw + src.yaw - dst.yaw),
    )


def transform_columns(x, y, yaw, src: EgoPose, dst: EgoPose):
    """transform_box over columns of box centres and yaws, bit for bit.

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
