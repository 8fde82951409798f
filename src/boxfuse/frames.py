"""The frame data model: Detection, Frame and DetectionColumns, the numpy columns of a frame's detections.

The value rules of a box, a motion model and a detection are tables (`rules`)
that the row constructors check on one row and DetectionColumns over whole
columns. Columns build a row's Detection, Box3D and motion objects only when
the row is read, with the checking constructors. io parses JSON straight into
columns and writes them back, and fusion, synth and evaluation pass only columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .geometry import Box3D, EgoPose, normalize_angles
from .motion import MODELS, MotionParams, param_rows
from .rules import Rule, check, column_view, failures, field_types, first_failure, fits_float, type_fault


@dataclass(frozen=True)
class Detection:
    """One detected box with score, class label, motion parameters and fusion bookkeeping.

    weight is the decayed voting confidence, assigned when the detection
    enters a fusion run; frame_lag counts frame intervals behind the fusion
    target (bookkeeping only: a forwarded box has n_current 0 whatever its
    lag). On fused outputs n_fused counts merged member boxes and n_current the
    current-frame members among them, from 0 to n_fused; n_current == 0 means
    history only. frame_lag, track_id, n_fused and n_current are Python
    ints, never bools or numpy integers; track_id may be None, and an
    n_current of None becomes 1 exactly when frame_lag is 0. label is a
    non-empty str. The type rules (`_type_fault`) come before the value rules.
    """

    box: Box3D
    score: float
    label: str
    motion: MotionParams
    weight: float | None = None
    frame_lag: int = 0
    track_id: int | None = None
    n_fused: int = 1
    n_current: int | None = None

    #: The value rules of a detection, in the order they are checked; a weight of None is unassigned.
    rules: ClassVar[tuple[Rule, ...]] = (
        Rule(lambda d: (d.score >= 0.0) & (d.score <= 1.0), lambda d: f"score must lie in [0, 1], got {d.score!r}"),
        Rule(lambda d: d.weight is None or (d.weight >= 0.0) & (d.weight <= 1.0),
             lambda d: f"weight must lie in [0, 1], got {d.weight!r}"),
        Rule(lambda d: d.frame_lag >= 0, lambda d: "frame_lag must be non-negative"),
        Rule(lambda d: d.label != "", lambda d: "empty class label"),
        Rule(lambda d: d.n_fused >= 1, lambda d: "n_fused must be at least 1"),
        Rule(lambda d: (d.n_current >= 0) & (d.n_current <= d.n_fused),
             lambda d: f"n_current must lie in [0, n_fused], got {d.n_current!r} with n_fused {d.n_fused!r}"),
    )

    def __post_init__(self) -> None:
        for name in _TYPED_FIELDS:
            fault = _type_fault(name, getattr(self, name))
            if fault is not None:
                raise ValueError(fault)
        if self.n_current is None:
            object.__setattr__(self, "n_current", 1 if self.frame_lag == 0 else 0)
        check(self.rules, self)

    @property
    def history_only(self) -> bool:
        return self.n_current == 0


#: The fields of Detection with a type rule, in the order they are checked.
_TYPED_FIELDS = ("frame_lag", "track_id", "n_fused", "n_current", "label")


def _type_fault(name: str, value) -> str | None:
    """The message of Detection field `name`'s type rule for value, None when it passes; it reads only the type.

    A label is any str, whose value rule rejects the empty one; an integer field takes its annotation."""
    if name == "label":
        return None if type(value) is str else f"label must be a string, got {value!r}"
    return None if type(value) is int else type_fault(name, value, field_types(Detection)[name])


@dataclass(frozen=True)
class Frame:
    """Timestamped detection set with the recording sensor's global pose.

    The timestamp is a number the frame writer writes and its reader reads: a
    float (numpy's float64 too) or an int, not a bool, finite and within float
    range. The detections are always DetectionColumns: detections given as a
    list of Detection become columns equal to that list.
    """

    timestamp: float
    ego: EgoPose
    detections: DetectionColumns = ()

    def __post_init__(self) -> None:
        timestamp = self.timestamp
        if type(timestamp) is bool or not isinstance(timestamp, (int, float)):
            raise ValueError(f"timestamp must be a number, got {timestamp!r}")
        if type(timestamp) is int and not fits_float(timestamp):
            raise ValueError(f"timestamp must fit in a float, got {timestamp!r}")
        if not abs(timestamp) < math.inf:
            raise ValueError(f"non-finite timestamp {timestamp!r}")
        object.__setattr__(self, "detections", DetectionColumns.of(self.detections))


def track_index(frames: Iterable[Frame]) -> tuple[list, np.ndarray]:
    """The track ids in order of first appearance, and each row's position among them, frame by frame.

    ValueError names the frame and the detection of the first row without a track_id.
    """
    index: dict = {}
    track: list[int] = []
    for fi, frame in enumerate(frames):
        ids = frame.detections.track_id.tolist()
        if None in ids:
            raise ValueError(f"missing track_id on frame {fi}, detection {ids.index(None)}")
        track += [index.setdefault(tid, len(index)) for tid in ids]
    return list(index), np.array(track, dtype=np.int64)


# A row's motion model is stored as its index in motion.MODELS.
MODEL_CLASSES = tuple(MODELS.values())
MODEL_CODES = {name: code for code, name in enumerate(MODELS)}
#: Each model's number of fields, by code; the parameter columns of DetectionColumns make room for the most.
MODEL_WIDTHS = np.array([len(model.json_keys) for model in MODEL_CLASSES])
PARAM_WIDTH = int(MODEL_WIDTHS.max())

_BOX_FIELDS = ("x", "y", "z", "w", "l", "h", "yaw")
_box_fields = attrgetter(*_BOX_FIELDS)
_set_field = object.__setattr__


def _unchecked_box(x, y, z, w, l, h, yaw) -> Box3D:
    """Box3D(x, y, z, w, l, h, yaw) without its checks, for box_objects."""
    box = object.__new__(Box3D)
    _set_field(box, "x", x)
    _set_field(box, "y", y)
    _set_field(box, "z", z)
    _set_field(box, "w", w)
    _set_field(box, "l", l)
    _set_field(box, "h", h)
    _set_field(box, "yaw", yaw)
    return box


@dataclass(frozen=True, eq=False)
class DetectionColumns(Sequence[Detection]):
    """Detections held as read-only numpy columns; a row becomes a Detection only when read.

    boxes is (n, 7): x, y, z, w, l, h, yaw. model is each row's motion model
    as a code of MODEL_CODES and params that model's fields in order, zero
    padded to PARAM_WIDTH columns, so one frame may mix models. weight is
    NaN where it is unassigned (None); label and track_id are object arrays
    of str and of int or None. The sequence compares equal to any sequence of
    equal Detections, and to columns whose rows would be equal, which it
    tells from the columns (a NaN weight equals a NaN weight, -0.0 equals 0.0).

    Every row is a valid Detection. The constructor checks the rules of Box3D,
    the motion models and Detection over whole columns, wraps yaws to (-pi, pi]
    and raises ValueError naming the first row that fails with the message of
    its first failing rule, in the order its row is built: box, motion, then
    detection. A NaN weight is unassigned, where a row rejects it, and the
    integer columns must have an integer dtype. Columns derived from checked
    ones (selections, concatenations, forwarded boxes, new scores in [0, 1])
    are made by `_derived` without a new check, and rows are read with one,
    except by `box_objects`.
    """

    boxes: np.ndarray
    score: np.ndarray
    label: np.ndarray
    model: np.ndarray
    params: np.ndarray
    weight: np.ndarray
    frame_lag: np.ndarray
    track_id: np.ndarray
    n_fused: np.ndarray
    n_current: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.score)
        if self.boxes.shape != (n, 7) or self.params.shape != (n, PARAM_WIDTH) or any(
            getattr(self, name).shape != (n,) for name in _COLUMNS if name not in ("boxes", "params")
        ):
            raise ValueError("detection columns must have one row per detection")
        if not ((self.model >= 0) & (self.model < len(MODEL_CLASSES))).all():
            raise ValueError(f"motion model codes must lie in [0, {len(MODEL_CLASSES)})")
        faults = failures(Box3D.rules, column_view(_BOX_FIELDS, self.boxes))
        for code in np.flatnonzero(np.bincount(self.model, minlength=len(MODEL_CLASSES))).tolist():
            kind, uses = MODEL_CLASSES[code], self.model == code
            faults += [(fails & uses, message, columns)
                       for fails, message, columns in failures(kind.rules, column_view(kind.json_keys, self.params))]
        typed = SimpleNamespace(**{name: getattr(self, name) for name in _TYPED_FIELDS})
        # a NaN weight is unassigned, as None is in a row, which the weight rule passes
        values = SimpleNamespace(**vars(typed), score=self.score,
                                 weight=np.where(np.isnan(self.weight), 0.0, self.weight))
        for name in _TYPED_FIELDS:
            fails = _type_faults(name, getattr(typed, name))
            if fails is not None:
                faults.append((fails, lambda row, name=name: _type_fault(name, getattr(row, name)), typed))
                # the value rules read 1 where the type is wrong: the type rule comes first, and 1 passes them
                setattr(values, name, np.where(fails, 1, getattr(typed, name)))
        failed = first_failure(faults + failures(Detection.rules, values))
        if failed is not None:
            raise ValueError(f"detection {failed[0]}: {failed[1]}")
        for name in ("frame_lag", "n_fused", "n_current"):
            if getattr(self, name).dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer column, got dtype {getattr(self, name).dtype}")
        boxes = self.boxes
        yaw = boxes[:, 6]
        if not ((yaw > -math.pi) & (yaw <= math.pi)).all():
            boxes = boxes.copy()
            boxes[:, 6] = normalize_angles(yaw)
            object.__setattr__(self, "boxes", boxes)
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False

    @classmethod
    def _derived(cls, *columns: np.ndarray) -> DetectionColumns:
        """Columns derived from checked ones; they are not checked again."""
        cols = object.__new__(cls)
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(cols, name, column)
        return cols

    def _with(self, **columns: np.ndarray) -> DetectionColumns:
        return self._derived(*(columns.get(name, getattr(self, name)) for name in _COLUMNS))

    @classmethod
    def of(cls, detections: Iterable[Detection]) -> DetectionColumns:
        """Columns of detections as they are; columns themselves are returned unchanged."""
        if isinstance(detections, DetectionColumns):
            return detections
        dets = list(detections)
        n = len(dets)
        model = np.array([MODEL_CODES[d.motion.name] for d in dets], dtype=np.int64)
        params = np.zeros((n, PARAM_WIDTH))
        for kind, rows in model_groups(model):
            params[rows, : len(kind.json_keys)] = param_rows(kind, [dets[k].motion for k in rows.tolist()])
        # the Detections made their own checks
        return cls._derived(
            np.array([_box_fields(d.box) for d in dets], dtype=float).reshape(n, 7),
            np.array([d.score for d in dets], dtype=float),
            object_array([d.label for d in dets]),
            model,
            params,
            np.array([math.nan if d.weight is None else d.weight for d in dets], dtype=float),
            np.array([d.frame_lag for d in dets], dtype=np.int64),
            object_array([d.track_id for d in dets]),
            np.array([d.n_fused for d in dets], dtype=np.int64),
            np.array([d.n_current for d in dets], dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence[DetectionColumns]) -> DetectionColumns:
        """The rows of every part, in order."""
        return cls._derived(*(np.concatenate([getattr(part, name) for part in parts]) for name in _COLUMNS))

    def take(self, index) -> DetectionColumns:
        """The rows selected by an index array or boolean mask."""
        return self._derived(*(getattr(self, name)[index] for name in _COLUMNS))

    def entering(self, boxes: np.ndarray, weight: np.ndarray, frame_lag: int, n_current: int) -> DetectionColumns:
        """These detections entering a fusion run as single boxes, with new boxes and weights.

        boxes must be valid (finite centres, wrapped yaws) and weights in [0, 1].
        """
        n = len(self)
        return self._with(boxes=boxes, weight=weight, frame_lag=np.full(n, frame_lag, dtype=np.int64),
                          n_fused=np.ones(n, dtype=np.int64), n_current=np.full(n, n_current, dtype=np.int64))

    def groups(self) -> list[tuple[type[MotionParams], np.ndarray]]:
        """(model class, int64 row indices) of each motion model among the rows, by code."""
        return model_groups(self.model)

    def params_of(self, kind: type[MotionParams], rows) -> np.ndarray:
        """The parameters of the given rows, which all use model `kind`, in its field order."""
        return self.params[rows, : len(kind.json_keys)]

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self.rows([range(len(self))[index]])[0]

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        if not isinstance(other, DetectionColumns):
            return len(self) == len(other) and self.rows() == list(other)
        if len(self) != len(other) or not all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=name == "weight")
            for name in _COLUMNS if name != "params"
        ):
            return False
        # the parameter columns beyond a row's model width are padding
        padding = np.arange(PARAM_WIDTH) >= MODEL_WIDTHS[self.model][:, None]
        return bool(((self.params == other.params) | padding).all())

    __hash__ = None

    def box_objects(self) -> list[Box3D]:
        """The Box3D of every row, in order, built without Box3D's checks.

        Evaluation builds one per box for its scalar bev_iou, about 32k per
        turning-200 eval, which calls it on the 24k pairs (of 40.6k
        candidates) that the IoU bound keeps; checked boxes add 5-10 % to
        eval time, and the columns passed the same checks when they were
        made. Fields are set one by one, as Box3D's __init__ does: a filled
        __dict__ builds faster but slows bev_iou's attribute reads more. Once
        evaluation clips columns (ROADMAP.md item 2), nothing needs it.
        """
        return list(map(_unchecked_box, *self.boxes.T.tolist()))

    def rows(self, index=None) -> list[Detection]:
        """The Detections of the given rows (all rows by default), in that order.

        The checking constructors build each row's box, then its motion.
        """
        cols = self if index is None else self.take(np.asarray(index, dtype=np.int64))
        boxes = [Box3D(*values) for values in cols.boxes.tolist()]
        motions = np.empty(len(cols), dtype=object)
        for kind, rows in cols.groups():
            motions[rows] = [kind(*values) for values in cols.params_of(kind, rows).tolist()]
        weight = [None if w != w else w for w in cols.weight.tolist()]
        return list(map(Detection, boxes, cols.score.tolist(), cols.label.tolist(), motions, weight,
                        *(getattr(cols, name).tolist() for name in ("frame_lag", "track_id", "n_fused", "n_current"))))


_COLUMNS = tuple(f.name for f in fields(DetectionColumns))


def _type_faults(name: str, column: np.ndarray) -> np.ndarray | None:
    """The mask of the rows whose value fails the type rule of Detection field `name`; None when no row does.

    The rule reads only the type, and a column of another dtype than object
    reads as one type, so one value of each type settles it.
    """
    values = column.tolist() if column.dtype.kind == "O" else column[:1].tolist()
    failing = {kind for kind in set(map(type, values))
               if _type_fault(name, next(value for value in values if type(value) is kind)) is not None}
    if not failing:
        return None
    return np.array([type(value) in failing for value in column.tolist()], dtype=bool)


def model_groups(model: np.ndarray) -> list[tuple[type[MotionParams], np.ndarray]]:
    """(model class, int64 row indices) of each motion model in a column of model codes, by code."""
    codes = np.flatnonzero(np.bincount(model, minlength=len(MODEL_CLASSES))).tolist()
    return [(MODEL_CLASSES[code], np.flatnonzero(model == code)) for code in codes]


def object_array(values: list) -> np.ndarray:
    """A one-dimensional object array holding the given values."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out
