"""Vehicle motion models: closed-form pose forwarding, inverse estimation, RK4 oracle.

Three models are supported: constant planar velocity, unicycle (signed speed
plus yaw rate), and kinematic bicycle (signed speed, slip angle, rear-axle
arm). The turning closed forms share one helper in chord form,

    position += speed * t * sinc(dphi / 2) * unit(mean direction),

which is algebraically identical to the usual speed/rate arc expressions but
stays finite and smooth through zero turn rate, so no straight-motion branch
is needed.

Each model is a frozen dataclass subclass of `MotionParams`, which holds the
rules the models share; a model restates only what differs. By default a
model turns (`turns`), its fields must be finite, fusion merges a cluster by
a weighted mean per column and a change of ego frame keeps the parameters.
Each model states its `name`, the JSON key of each field (`json_keys`, read
by the columnar frame reader and writer, the only JSON form), construction
from speed, heading and a signed turn radius (`from_motion`; positive turns
left, None is straight) and its ODE (`rates`: from the fields, as floats with
`math` or as columns with numpy, the time derivatives of x, y and heading as
a function of heading, which the RK4 oracles integrate). The other rules are
static methods over columns, with parameters as (n, k) rows in field order
(`param_rows`): `invalid_columns` flags the rows that the class's own checks
reject; `forward_columns`, `inverse_columns`, `speed_radius_columns` and
`in_ego_columns` (rotation into an ego frame, which turns only the cv
velocity) are the model's forward, inverse, speed and turn radius, and frame
change; `noisy_columns` is detector noise on the parameters; and
`merge_columns` is the fusion merge (the bicycle averages slip wrap-aware
around the cluster seed's). The per-pose `forward` is a one-row call of
`forward_columns`, and the pose-pair inverses `inverse_cv` and
`inverse_unicycle` are one-row calls of their vectorized `inverse_columns`;
the bicycle's fits each distinct pose pair once, keyed by the bits of its
eight inputs (x0, y0, h0, x1, y1, h1, dt, arm), and copies the fit to the
pair's repeats. Each fit goes through the module function `inverse_bicycle`,
looked up at call time, so a wrapper bound at that name sees every distinct
fit. `estimate_param_columns` estimates the pose pairs of many tracks at
once. `MODELS` maps each name to its class; the rest of the package consults
only that table.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import ClassVar, Sequence

import numpy as np

from .geometry import (
    Box3D,
    EgoPose,
    Pose,
    _require_finite,
    clamp_columns,
    normalize_angle,
    normalize_angles,
)

HALF_PI = 0.5 * math.pi

_set_field = object.__setattr__

# turn rates (or slip sines) below this count as straight motion
_ZERO_RATE = 1e-9

_HALF_TURN = "heading change of pi is ambiguous for the unicycle inverse"
_NEEDS_ARM = "bicycle estimation needs a positive rear_axle"


# Per-pose formulas of the bicycle fit, which evaluates one pose pair at a
# time, several times per Gauss-Newton iteration: a one-row forward_columns
# costs about ten times these float expressions. _sinc, _dsinc and
# _forward_bicycle_raw serve it; _bicycle_seeds writes out the unicycle
# inverse of the pair for one of its seeds. Of a fit's time, about a quarter
# is the LAPACK solve of its 2x2 normal equations and about a fifth the BLAS
# products and small residual arrays; the rest is the Python float arithmetic
# and calls around them. Fitting all distinct pairs at once as columns (ROADMAP
# item 3) would remove most of that, but the benchmark counts fits by calls of
# inverse_bicycle, so it waits until fits are counted from FitReports (item 1a).


def _sinc(z: float) -> float:
    """sin(z)/z, finite at zero."""
    if abs(z) < 1e-2:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def _dsinc(z: float) -> float:
    """Derivative of sin(z)/z; the series avoids cancellation near zero."""
    if abs(z) < 1e-2:
        z2 = z * z
        return z * (-1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0)
    return (math.cos(z) - math.sin(z) / z) / z


def _forward_bicycle_raw(x, y, heading, speed, slip, rear_axle, t):
    dphi = speed * math.sin(slip) / rear_axle * t
    half = 0.5 * dphi
    chord = speed * t * _sinc(half)
    mean = heading + slip + half
    return x + chord * math.cos(mean), y + chord * math.sin(mean), heading + dphi


def _sinc_columns(z: np.ndarray) -> np.ndarray:
    """_sinc over an array, with the same branch at |z| = 1e-2 and the same bits."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-2
    z2 = z[small] * z[small]
    out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    big = z[~small]
    out[~small] = np.sin(big) / big
    return out


def _unchecked_pose(x: float, y: float, heading: float) -> Pose:
    """Pose(x, y, heading) without its checks, for pose pairs known finite with headings in (-pi, pi]."""
    pose = object.__new__(Pose)
    _set_field(pose, "x", x)
    _set_field(pose, "y", y)
    _set_field(pose, "heading", heading)
    return pose


def _at_pair(exc: Exception, pair: int) -> Exception:
    """exc, marked with the position of the pose pair whose fit raised it."""
    exc.pair = pair
    return exc


def _require_gaps(dt: np.ndarray) -> None:
    if (dt == 0.0).any():
        raise ValueError("zero time gap")


def _chord_forward(x, y, heading, speed, direction, dphi, t: float):
    """The turning forward in chord form: turn by dphi, move speed * t * sinc(dphi/2) along direction + dphi/2."""
    half = 0.5 * dphi
    chord = speed * t * _sinc_columns(half)
    mean = direction + half
    return x + chord * np.cos(mean), y + chord * np.sin(mean), heading + dphi


class MotionParams:
    """Base of the motion models, holding the rules they share; a model overrides what differs."""

    name: ClassVar[str]
    turns: ClassVar[bool] = True
    json_keys: ClassVar[dict[str, str]]

    def __post_init__(self) -> None:
        for field in self.json_keys:
            value = getattr(self, field)
            if not math.isfinite(value):  # tested inline: a call per field slows construction by a fifth
                _require_finite(field, value)

    @staticmethod
    def invalid_columns(params: np.ndarray) -> np.ndarray:
        return ~np.isfinite(params).all(axis=1)

    @staticmethod
    def merge_columns(params: np.ndarray, seeds: np.ndarray, cluster: np.ndarray, wavg) -> np.ndarray:
        """The fusion merge, for parameters without angles: a weighted mean per column.

        params holds the member rows and cluster[k] the cluster of row k, seeds
        the clusters' seed rows; wavg turns per-member values into per-cluster
        weighted means.
        """
        return np.stack([wavg(column) for column in params.T], axis=1)

    @staticmethod
    def in_ego_columns(params: np.ndarray, ego: EgoPose) -> np.ndarray:
        return params


@dataclass(frozen=True)
class ConstantVelocity(MotionParams):
    """Planar constant-velocity motion (m/s); heading is carried unchanged.

    The forward takes any t, negative too; the inverse is the finite-difference
    velocity of a pose pair."""

    name: ClassVar[str] = "cv"
    turns: ClassVar[bool] = False
    json_keys: ClassVar[dict[str, str]] = {"vx": "vx", "vy": "vy"}

    vx: float
    vy: float

    @classmethod
    def from_motion(cls, speed: float, heading: float, radius: float | None, rear_axle: float):
        if radius is not None:
            raise ValueError("constant-velocity trajectories cannot turn")
        return cls(speed * math.cos(heading), speed * math.sin(heading))

    @staticmethod
    def speed_radius_columns(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # math.hypot over lists: np.hypot may differ in the last bit
        speed = np.array(list(map(math.hypot, params[:, 0].tolist(), params[:, 1].tolist())), dtype=float)
        return speed, np.full(len(params), math.inf)

    @staticmethod
    def forward_columns(x, y, heading, params: np.ndarray, t: float):
        return x + params[:, 0] * t, y + params[:, 1] * t, heading

    @staticmethod
    def inverse_columns(x0, y0, h0, x1, y1, h1, dt, rear_axle=None) -> np.ndarray:
        _require_gaps(dt)
        return np.stack([(x1 - x0) / dt, (y1 - y0) / dt], axis=1)

    @staticmethod
    def noisy_columns(params: np.ndarray, n1, n2, sigma_speed: float, sigma_turn: float) -> np.ndarray:
        return np.stack([params[:, 0] + n1 * sigma_speed, params[:, 1] + n2 * sigma_speed], axis=1)

    @staticmethod
    def rates(vx, vy, lib=np):
        return lambda phi: (vx, vy, 0.0)

    @staticmethod
    def in_ego_columns(params: np.ndarray, ego: EgoPose) -> np.ndarray:
        if ego.yaw == 0.0:
            return params
        c = math.cos(ego.yaw)
        s = math.sin(ego.yaw)
        vx, vy = params[:, 0], params[:, 1]
        return np.stack([c * vx + s * vy, -s * vx + c * vy], axis=1)


@dataclass(frozen=True)
class Unicycle(MotionParams):
    """Single-axle motion: signed speed along the heading (m/s), yaw rate (rad/s).

    The forward turns the heading by yaw_rate * t and moves along the chord of
    the circular arc (straight along the heading at zero yaw rate). The inverse
    takes the wrapped heading change over t as yaw rate and the chord velocity
    along the initial heading, times dphi/sin(dphi), as speed: exact on any
    pair the forward gives with |heading change| < pi."""

    name: ClassVar[str] = "unicycle"
    json_keys: ClassVar[dict[str, str]] = {"speed": "v", "yaw_rate": "omega"}

    speed: float
    yaw_rate: float

    @classmethod
    def from_motion(cls, speed: float, heading: float, radius: float | None, rear_axle: float):
        return cls(speed, 0.0 if radius is None else speed / radius)

    @staticmethod
    def speed_radius_columns(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        speed = np.abs(params[:, 0])
        rate = np.abs(params[:, 1])
        with np.errstate(all="ignore"):
            return speed, np.where(rate < _ZERO_RATE, math.inf, speed / rate)

    @staticmethod
    def forward_columns(x, y, heading, params: np.ndarray, t: float):
        return _chord_forward(x, y, heading, params[:, 0], heading, params[:, 1] * t, t)

    @staticmethod
    def inverse_columns(x0, y0, h0, x1, y1, h1, dt, rear_axle=None) -> np.ndarray:
        _require_gaps(dt)
        dphi = normalize_angles(h1 - h0)
        # a half turn either way wraps to +pi; there the chord says nothing about speed
        half = dphi == math.pi
        if half.any():
            raise _at_pair(ValueError(_HALF_TURN), int(np.argmax(half)))
        vx = (x1 - x0) / dt
        vy = (y1 - y0) / dt
        along = vx * np.cos(h0) + vy * np.sin(h0)
        return np.stack([along / _sinc_columns(dphi), dphi / dt], axis=1)

    @staticmethod
    def noisy_columns(params: np.ndarray, n1, n2, sigma_speed: float, sigma_turn: float) -> np.ndarray:
        return np.stack([params[:, 0] + n1 * sigma_speed, params[:, 1] + n2 * sigma_turn], axis=1)

    @staticmethod
    def rates(speed, yaw_rate, lib=np):
        return lambda phi: (speed * lib.cos(phi), speed * lib.sin(phi), yaw_rate)


@dataclass(frozen=True)
class Bicycle(MotionParams):
    """Two-axle motion: signed speed (m/s), slip angle between velocity and
    heading (rad, within [-pi/2, pi/2]), center-to-rear-axle distance (m).

    In the forward, velocity leads the heading by the slip angle and the
    heading turns at speed * sin(slip) / rear_axle; zero slip reduces to
    straight motion. The inverse is a Gauss-Newton fit (`inverse_bicycle`)."""

    name: ClassVar[str] = "bicycle"
    json_keys: ClassVar[dict[str, str]] = {"speed": "v", "slip": "beta", "rear_axle": "l_r"}

    speed: float
    slip: float
    rear_axle: float

    def __post_init__(self) -> None:
        # written out, not super(): the fit builds one per distinct pose pair
        _require_finite("speed", self.speed)
        _require_finite("slip", self.slip)
        _require_finite("rear_axle", self.rear_axle)
        if not -HALF_PI <= self.slip <= HALF_PI:
            raise ValueError(f"slip must lie in [-pi/2, pi/2], got {self.slip!r}")
        if self.rear_axle <= 0.0:
            raise ValueError("rear_axle must be positive")

    @classmethod
    def from_motion(cls, speed: float, heading: float, radius: float | None, rear_axle: float):
        if radius is None:
            return cls(speed, 0.0, rear_axle)
        ratio = rear_axle / abs(radius)
        if ratio >= 1.0:
            raise ValueError(f"turn radius {abs(radius)} must exceed the rear axle arm {rear_axle}")
        return cls(speed, math.copysign(1.0, radius) * math.asin(ratio), rear_axle)

    @staticmethod
    def inverse_columns(x0, y0, h0, x1, y1, h1, dt, rear_axle=None) -> np.ndarray:
        """One Gauss-Newton fit per distinct pose pair; rear_axle is one arm or one per pair.

        Pairs are keyed by the bits of their eight inputs (x0, y0, h0, x1, y1,
        h1, dt, arm), so -0.0 and 0.0, equal as values but able to fit to
        different bits, stay apart. Each key's first row is fitted, in row
        order, and its fit is copied to the key's other rows; a failing fit
        is raised with `pair` set to that first row, which is the first
        failing row."""
        n = len(dt)
        if n == 0:
            return np.empty((0, 3))
        if rear_axle is None or not (np.asarray(rear_axle) > 0.0).all():
            raise ValueError(_NEEDS_ARM)
        inputs = np.stack([x0, y0, h0, x1, y1, h1, dt, np.broadcast_to(rear_axle, (n,))], axis=1, dtype=float)
        _, first, key = np.unique(inputs.view(np.dtype((np.void, 64))).ravel(), return_index=True,
                                  return_inverse=True)
        order = np.argsort(first)
        headings = inputs[:, [2, 5]]
        # Pose's checks would pass every pair unchanged: skip them, else let them raise as they do
        pose = _unchecked_pose if (np.isfinite(inputs[:, :6]).all() and (headings > -math.pi).all()
                                   and (headings <= math.pi).all()) else Pose
        # C doubles, not float objects: the fits of a large scene would raise the process's peak memory
        fits = array("d")
        for row in first[order].tolist():
            a, b, c, d, e, f, t, arm = inputs[row].tolist()
            try:
                # looked up at call time, so a wrapper bound at the module name sees every distinct fit
                fit = inverse_bicycle(pose(a, b, c), pose(d, e, f), t, arm)[0]
            except (ValueError, FitDivergence) as exc:
                raise _at_pair(exc, row)
            fits.extend((fit.speed, fit.slip, fit.rear_axle))
        out = np.empty((len(first), 3))
        out[order] = np.frombuffer(fits).reshape(-1, 3)
        return out[key]

    @staticmethod
    def speed_radius_columns(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # math.sin over a list, as the per-pose rule took it: np.sin may differ in the last bit
        s = np.abs(np.array(list(map(math.sin, params[:, 1].tolist())), dtype=float))
        with np.errstate(all="ignore"):
            return np.abs(params[:, 0]), np.where(s < _ZERO_RATE, math.inf, params[:, 2] / s)

    @staticmethod
    def noisy_columns(params: np.ndarray, n1, n2, sigma_speed: float, sigma_turn: float) -> np.ndarray:
        slip = clamp_columns(params[:, 1] + n2 * sigma_turn, -HALF_PI, HALF_PI)
        return np.stack([params[:, 0] + n1 * sigma_speed, slip, params[:, 2]], axis=1)

    @staticmethod
    def rates(speed, slip, rear_axle, lib=np):
        rate = speed * lib.sin(slip) / rear_axle
        return lambda phi: (speed * lib.cos(phi + slip), speed * lib.sin(phi + slip), rate)

    @staticmethod
    def invalid_columns(params: np.ndarray) -> np.ndarray:
        slip, rear_axle = params[:, 1], params[:, 2]
        return MotionParams.invalid_columns(params) | ~((slip >= -HALF_PI) & (slip <= HALF_PI)) | ~(rear_axle > 0.0)

    @staticmethod
    def forward_columns(x, y, heading, params: np.ndarray, t: float):
        speed, slip, rear_axle = params.T
        return _chord_forward(x, y, heading, speed, heading + slip, speed * np.sin(slip) / rear_axle * t, t)

    @staticmethod
    def merge_columns(params: np.ndarray, seeds: np.ndarray, cluster: np.ndarray, wavg) -> np.ndarray:
        ref = seeds[:, 1]
        slip = clamp_columns(ref + wavg(normalize_angles(params[:, 1] - ref[cluster])), -HALF_PI, HALF_PI)
        return np.stack([wavg(params[:, 0]), slip, wavg(params[:, 2])], axis=1)


#: Every motion model by name; the only table the rest of the package consults.
MODELS: dict[str, type[MotionParams]] = {c.name: c for c in (ConstantVelocity, Unicycle, Bicycle)}
MODEL_NAMES = tuple(MODELS)


def model_class(name: str) -> type[MotionParams]:
    """The parameter class registered under `name`; ValueError when there is none."""
    cls = MODELS.get(name)
    if cls is None:
        raise ValueError(f"unknown motion model {name!r}")
    return cls


def param_rows(model: type[MotionParams], motions: Sequence[MotionParams]) -> np.ndarray:
    """Parameters of `model` instances as an (n, k) array, columns in field order."""
    values = attrgetter(*model.json_keys)
    return np.array([values(m) for m in motions], dtype=float).reshape(len(motions), len(model.json_keys))


def default_rear_axle(length):
    """The bicycle's rear-axle arm when none is given: a quarter of the body length.

    The center of mass sits roughly midway along a wheelbase of half the body
    length. `length` is a float or an array.
    """
    return length / 4.0


def model_name(params: MotionParams) -> str:
    """Short tag for a parameter variant: "cv", "unicycle" or "bicycle"."""
    if not isinstance(params, MotionParams):
        raise TypeError(f"unknown motion parameters {type(params).__name__}")
    return params.name


def forward(pose: Pose, params: MotionParams, t: float) -> Pose:
    """Advance a pose t seconds with the closed-form forward model of `params`.

    One row of the model's forward_columns, with their bits; code that
    forwards many poses calls forward_columns itself.
    """
    kind = model_class(model_name(params))  # TypeError for anything but a model's parameters
    # overflow is caught by Pose's finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, heading = kind.forward_columns(np.array([pose.x]), np.array([pose.y]), np.array([pose.heading]),
                                             param_rows(kind, [params]), t)
    return Pose(float(x[0]), float(y[0]), float(heading[0]))


def forward_box(box: Box3D, params: MotionParams, t: float) -> Box3D:
    """Advance a box's planar pose (x, y, yaw); z and size are carried unchanged."""
    if t == 0.0:
        return box
    return box.with_bev_pose(forward(box.bev_pose, params, t))


def _inverse_row(kind: type[MotionParams], p0: Pose, pt: Pose, t: float) -> MotionParams:
    """One pose pair through kind.inverse_columns, built as `kind`, whose checks reject what is not finite."""
    columns = (np.array([v], dtype=float) for v in (p0.x, p0.y, p0.heading, pt.x, pt.y, pt.heading, t))
    with np.errstate(over="ignore", invalid="ignore"):
        row = kind.inverse_columns(*columns)
    return kind(*row[0].tolist())


def inverse_cv(p0: Pose, pt: Pose, t: float) -> ConstantVelocity:
    """Finite-difference velocity estimate from a pose pair over gap t: one row of its inverse_columns."""
    return _inverse_row(ConstantVelocity, p0, pt, t)


def inverse_unicycle(p0: Pose, pt: Pose, t: float) -> Unicycle:
    """Closed-form unicycle estimate from a pose pair over gap t: one row of its inverse_columns."""
    return _inverse_row(Unicycle, p0, pt, t)


@dataclass(frozen=True)
class FitReport:
    """Gauss-Newton summary: update count, final loss 0.5*r.r, convergence flag."""

    iterations: int
    loss: float
    converged: bool


class FitDivergence(RuntimeError):
    """Raised when Gauss-Newton exhausts its iteration budget.

    Carries the best iterate seen (`best`) and its report (`report`).
    """

    def __init__(self, message: str, best: "Bicycle", report: FitReport) -> None:
        super().__init__(message)
        self.best = best
        self.report = report


class TrackFitError(ValueError):
    """A track with fewer than two poses or times that do not increase; `track` is its position."""

    def __init__(self, message: str, track: int) -> None:
        super().__init__(message)
        self.track = track


def _bicycle_residual(p0: Pose, pt: Pose, t, speed, slip, rear_axle) -> np.ndarray:
    px, py, pheading = _forward_bicycle_raw(p0.x, p0.y, p0.heading, speed, slip, rear_axle, t)
    # heading residual is wrap-aware so the fit survives the +-pi seam
    return np.array([pt.x - px, pt.y - py, normalize_angle(pt.heading - pheading)])


def _bicycle_seeds(p0: Pose, pt: Pose, t: float, rear_axle: float) -> list[tuple[float, float]]:
    """Candidate (speed, slip) starts for the bicycle fit.

    The chord between the poses determines slip and speed exactly once the
    heading-change winding is fixed: slip = chord direction - heading -
    dphi/2 and speed = |chord| / (t * sinc(dphi/2)). Only windings whose slip
    lands inside [-pi/2, pi/2] are kept; wrong windings leave a large rate
    residual and lose the loss ranking, and windings beyond +-1 are excluded
    outright (they encode extra full turns between the samples, which a single
    pose pair cannot distinguish from the minimal motion). A unicycle-projected
    seed backs up the near-degenerate cases.
    """
    seeds: list[tuple[float, float]] = []
    dx = pt.x - p0.x
    dy = pt.y - p0.y
    chord = math.hypot(dx, dy)
    wrapped = normalize_angle(pt.heading - p0.heading)
    if chord > 1e-12:
        direction = math.atan2(dy, dx)
        for k in (-1, 0, 1):
            dphi = wrapped + 2.0 * math.pi * k
            slip = normalize_angle(direction - p0.heading - 0.5 * dphi)
            if abs(slip) > HALF_PI:
                continue
            denom = t * _sinc(0.5 * dphi)
            if denom == 0.0:
                continue
            seeds.append((chord / denom, slip))
    else:
        seeds.append((0.0, 0.0))
    # the unicycle inverse of the pair, written out; Unicycle raises its check's error when it overflows
    speed = (dx / t * math.cos(p0.heading) + dy / t * math.sin(p0.heading)) / _sinc(wrapped)
    rate = wrapped / t
    if not (math.isfinite(speed) and math.isfinite(rate)):
        Unicycle(speed, rate)
    if abs(speed) > 0.1:
        seeds.append((speed, math.asin(min(1.0, max(-1.0, rate * rear_axle / speed)))))
    else:
        seeds.append((speed, 0.0))
    return seeds


def _bicycle_jacobian(p0: Pose, t, speed, slip, rear_axle) -> np.ndarray:
    """Jacobian of the pose residual with respect to (speed, slip).

    Derivatives of the chord-form forward model; finite for every slip value,
    including zero.
    """
    sb = math.sin(slip)
    cb = math.cos(slip)
    dphi = speed * sb / rear_axle * t
    half = 0.5 * dphi
    s = _sinc(half)
    ds = _dsinc(half)
    mean = p0.heading + slip + half
    cm = math.cos(mean)
    sm = math.sin(mean)
    chord = speed * t * s
    ddphi_dv = sb * t / rear_axle
    ddphi_db = speed * cb * t / rear_axle
    dchord_dv = t * s + speed * t * ds * 0.5 * ddphi_dv
    dchord_db = speed * t * ds * 0.5 * ddphi_db
    dmean_dv = 0.5 * ddphi_dv
    dmean_db = 1.0 + 0.5 * ddphi_db
    dx_dv = dchord_dv * cm - chord * sm * dmean_dv
    dx_db = dchord_db * cm - chord * sm * dmean_db
    dy_dv = dchord_dv * sm + chord * cm * dmean_dv
    dy_db = dchord_db * sm + chord * cm * dmean_db
    # residual = target - prediction, hence the sign flip
    return np.array([[-dx_dv, -dx_db], [-dy_dv, -dy_db], [-ddphi_dv, -ddphi_db]])


def _ill_conditioned(normal: np.ndarray) -> bool:
    """`not np.isfinite(normal).all() or np.linalg.cond(normal) > 1e12`, without
    the SVD when the trace and determinant settle it.

    normal = [[a, b], [b2, c]] is the positive semi-definite J^T J. With T = a + c
    and D = a*c - b*b2, its condition number lies in [T^2 / (4 D), T^2 / D]: D >
    1e-10 T^2 proves it below 1e10, and D <= 1e-14 T^2 proves it above 2.5e13
    (a zero slip column, as a standstill gives, makes D = 0). Both margins
    dwarf the rounding of D, about 1e-16 T^2. The bounds are used only while T^2
    lies in (1e-280, inf), so neither threshold underflows, and D is finite,
    which then holds only when every entry is; anything else takes the
    expression itself.
    """
    (a, b), (b2, c) = normal.tolist()
    trace2 = (a + c) * (a + c)
    det = a * c - b * b2
    if 1e-280 < trace2 < math.inf and math.isfinite(det):
        if det > 1e-10 * trace2:
            return False
        if det <= 1e-14 * trace2:
            return True
    return not np.isfinite(normal).all() or np.linalg.cond(normal) > 1e12


def _abs_speed(scored: tuple) -> float:
    """The key of a scored seed (loss, speed, slip, residual): its absolute speed."""
    return abs(scored[1])


def inverse_bicycle(
    p0: Pose,
    pt: Pose,
    t: float,
    rear_axle: float,
    init: Bicycle | None = None,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> tuple[Bicycle, FitReport]:
    """Estimate bicycle (speed, slip) from a pose pair by Gauss-Newton.

    rear_axle is held fixed; only speed and slip are optimized. Unless `init`
    is given, the solve starts from the lowest-loss candidate among the direct
    chord inversions and a unicycle-projected estimate. Each update solves the
    2x2 normal equations (damped when ill-conditioned), clamps slip to
    [-pi/2, pi/2], and halves the step while it increases the loss. Iteration
    stops once the loss improvement drops below `tol`; exceeding `max_iter`
    raises FitDivergence carrying the best iterate.

    Ill-conditioned means not finite or of condition number above 1e12. For
    the 2x2 normal matrix with trace T and determinant D the condition number
    lies between T^2 / (4 D) and T^2 / D, so D > 1e-10 T^2 settles "no" and D <=
    1e-14 T^2 settles "yes" without an SVD (`_ill_conditioned`); only the
    matrices between the two bounds, or not finite, take np.linalg.cond.
    """
    if t == 0.0:
        raise ValueError("zero time gap")
    if not rear_axle > 0.0:
        raise ValueError("rear_axle must be positive")
    if init is not None:
        seeds = [(init.speed, init.slip)]
    else:
        seeds = _bicycle_seeds(p0, pt, t, rear_axle)
    scored = []
    for cand_speed, cand_slip in seeds:
        cand_slip = min(HALF_PI, max(-HALF_PI, cand_slip))
        cand_r = _bicycle_residual(p0, pt, t, cand_speed, cand_slip, rear_axle)
        scored.append((0.5 * float(cand_r @ cand_r), cand_speed, cand_slip, cand_r))
    # among near-tied losses prefer the slowest motion: a pose pair cannot
    # tell the minimal interpretation from one with extra winding
    min_loss = min([s[0] for s in scored])
    cutoff = min_loss + 1e-9 + 1e-6 * min_loss
    loss, speed, slip, r = min([s for s in scored if s[0] <= cutoff], key=_abs_speed)
    best_speed, best_slip, best_loss = speed, slip, loss
    for iteration in range(1, max_iter + 1):
        jac = _bicycle_jacobian(p0, t, speed, slip, rear_axle)
        normal = jac.T @ jac
        grad = jac.T @ r
        if _ill_conditioned(normal):
            normal = normal + 1e-6 * max(float(np.trace(normal)), 1e-6) * np.eye(2)
        try:
            step = np.linalg.solve(normal, grad)
        except np.linalg.LinAlgError:
            normal = normal + 1e-6 * max(float(np.trace(normal)), 1e-6) * np.eye(2)
            step = np.linalg.solve(normal, grad)
        step_speed, step_slip = step.tolist()
        prev_loss = loss
        scale = 1.0
        while True:
            cand_speed = speed - scale * step_speed
            cand_slip = min(HALF_PI, max(-HALF_PI, slip - scale * step_slip))
            cand_r = _bicycle_residual(p0, pt, t, cand_speed, cand_slip, rear_axle)
            cand_loss = 0.5 * float(cand_r @ cand_r)
            if cand_loss <= prev_loss:
                break
            if scale < 1e-6:
                # no step length improves: stay put and let the loop terminate
                cand_speed, cand_slip, cand_r, cand_loss = speed, slip, r, loss
                break
            scale *= 0.5
        speed, slip, r, loss = cand_speed, cand_slip, cand_r, cand_loss
        if loss < best_loss:
            best_speed, best_slip, best_loss = speed, slip, loss
        if prev_loss - loss < tol:
            return Bicycle(speed, slip, rear_axle), FitReport(iteration, loss, True)
    raise FitDivergence(
        f"no convergence after {max_iter} iterations (loss {best_loss:.3e})",
        Bicycle(best_speed, best_slip, rear_axle),
        FitReport(max_iter, best_loss, False),
    )


def estimate_param_columns(times, x, y, heading, counts, model: str, rear_axle=None) -> np.ndarray:
    """Per-row motion parameters of tracks held as consecutive runs of rows.

    Track k is the next counts[k] rows, in time order, with headings wrapped
    to (-pi, pi]. The bicycle fit relies on that rule: when every x and y is
    finite and every heading lies in (-pi, pi], it builds each pair's Poses
    without their checks; otherwise it builds them checked, so a value that
    is not finite raises Pose's ValueError and a heading outside the range
    is wrapped first, and fits to the bits of its wrapped value. (The cv and
    unicycle inverses take headings as given.) Interior rows use their
    straddling pair (i-1, i+1), the
    endpoints their single adjacent pair; the bicycle inverse fits each
    distinct input once (see Bicycle.inverse_columns), so the rows of a
    stationary run, both rows of a two-pose track and repeats across tracks
    share one fit.
    `model` names the inverse (a key of MODELS); the bicycle inverse also
    needs the fixed rear_axle arm, given once or per track, which the other
    models ignore. Returns an (n, k) array in the model's field order.

    A track needs at least two poses and strictly increasing times, else
    TrackFitError names its position in counts. The tracks before the first
    one that fails are fitted first, so their fit errors come first, as when
    tracks are estimated one after another. A fitted row that its class
    rejects (a velocity that overflows on a tiny time gap) raises the class's
    ValueError. A fit error keeps its type and carries the position of its
    track in counts as `track`, as TrackFitError does.
    """
    kind = model_class(model)
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    track = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    bad = counts < 2
    bad[track[1:][(times[1:] <= times[:-1]) & (track[1:] == track[:-1])]] = True
    failed = int(np.argmax(bad)) if bad.any() else None
    rows = np.arange(len(times) if failed is None else first[failed])
    track = track[rows]
    a = rows - (rows > first[track])
    b = rows + (rows < first[track] + counts[track] - 1)
    arm = rear_axle
    if arm is not None:
        arm = np.broadcast_to(np.asarray(arm, dtype=float), counts.shape)[track]
    x, y, heading = (np.asarray(v, dtype=float) for v in (x, y, heading))
    try:
        # an overflowing fit is caught by the row check below
        with np.errstate(over="ignore", invalid="ignore"):
            params = kind.inverse_columns(x[a], y[a], heading[a], x[b], y[b], heading[b], times[b] - times[a], arm)
        bad = kind.invalid_columns(params)
        if bad.any():
            pair = int(np.argmax(bad))
            try:
                kind(*params[pair].tolist())
            except ValueError as exc:
                raise _at_pair(exc, pair) from None
    except (ValueError, FitDivergence) as exc:
        if hasattr(exc, "pair"):
            exc.track = int(track[exc.pair])
        raise
    if failed is not None:
        reason = "need at least two poses" if counts[failed] < 2 else "timestamps must strictly increase"
        raise TrackFitError(reason, failed)
    return params


def estimate_params_from_track(
    times: Sequence[float],
    poses: Sequence[Pose],
    model: str,
    rear_axle: float | None = None,
) -> list[MotionParams]:
    """Per-pose motion parameters estimated from one time-ordered track.

    The one-track case of estimate_param_columns: interior poses use the
    straddling pair (i-1, i+1), the endpoints their single adjacent pair.
    """
    if len(times) != len(poses):
        raise ValueError("times and poses must have equal length")
    columns = ([p.x for p in poses], [p.y for p in poses], [p.heading for p in poses])
    params = estimate_param_columns(times, *columns, [len(poses)], model, rear_axle)
    return [model_class(model)(*row) for row in params.tolist()]


def _rk4(deriv, x, y, phi, h, n: int):
    """n classical RK4 steps of length h of (x, y, heading)' = deriv(heading), on floats or columns."""
    sixth = h / 6.0
    for _ in range(n):
        d1x, d1y, d1p = deriv(phi)
        d2x, d2y, d2p = deriv(phi + 0.5 * h * d1p)
        d3x, d3y, d3p = deriv(phi + 0.5 * h * d2p)
        d4x, d4y, d4p = deriv(phi + h * d3p)
        x = x + sixth * (d1x + 2.0 * (d2x + d3x) + d4x)
        y = y + sixth * (d1y + 2.0 * (d2y + d3y) + d4y)
        phi = phi + sixth * (d1p + 2.0 * (d2p + d3p) + d4p)
    return x, y, phi


def numeric_forward_batch(
    poses: np.ndarray,
    model: str,
    params: np.ndarray,
    t: np.ndarray,
    step: float = 1e-4,
) -> np.ndarray:
    """RK4 integration of the model ODE over N independent draws; the oracle for the closed forms.

    poses is (N, 3) rows of (x, y, heading) and params (N, k) rows in the
    field order of the model named `model`, whose `rates` give the ODE. Every
    draw is integrated with the same number of sub-steps, sized so no draw's
    exceeds `step` (backwards for negative t). Returns an (N, 3) array;
    headings are not normalized.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    poses = np.asarray(poses, dtype=float)
    t = np.asarray(t, dtype=float)
    n = max(1, int(np.ceil(np.max(np.abs(t)) / step))) if t.size else 1
    deriv = model_class(model).rates(*np.asarray(params, dtype=float).T)
    return np.stack(_rk4(deriv, *poses.T, t / n, n), axis=1)


def numeric_forward(pose: Pose, params: MotionParams, t: float, step: float = 1e-4) -> Pose:
    """numeric_forward_batch for one pose, with the heading wrapped.

    Integrates in n = ceil(|t|/step) sub-steps with the same rates and RK4
    steps, evaluated on floats through `math`, which one-row arrays would
    make about 25 times slower.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    model_name(params)  # TypeError for anything but a model's parameters
    n = max(1, math.ceil(abs(t) / step))
    deriv = params.rates(*(getattr(params, field) for field in params.json_keys), math)
    return Pose(*_rk4(deriv, pose.x, pose.y, pose.heading, t / n, n))
