"""Frame interchange: JSON Lines with full round-trip float precision.

One frame per line:

    {"timestamp": <s>, "ego": {"x":, "y":, "yaw":},
     "detections": [{"box": [x,y,z,w,l,h,yaw], "score":, "class":,
                     "motion": {"model": "cv"|"unicycle"|"bicycle", ...}}]}

Each class in motion.MODELS keys its own parameters (`json_keys`): cv
{vx, vy}, unicycle {v, omega}, bicycle {v, beta, l_r}; one frame may mix
models. Optional per-detection keys (track_id, weight, frame_lag, n_fused,
n_current) are written only when they carry information, so
parse(serialize(frame)) reproduces the frame exactly. A file may start with
one {"meta": {...}} provenance line, which readers skip. Keys are sorted and
floats use the shortest round-trip form, making output byte-stable for
identical inputs.

A frame's detections are always fusion.DetectionColumns: they are parsed
straight into columns and written back from them, with no per-detection
objects, and detections given to a Frame as a list of Detection become
columns, so their numbers are written as floats. dumps_frame writes a
frame line from the columns with one %-format per row pattern (the motion
model and the optional keys written); frame_to_obj is the frame as a dict,
and dumps_line(frame_to_obj(frame)) gives the same bytes. The reader
checks every JSON type (a number is an int or float, never a string or
boolean; integer fields take integral values only; the class is a string)
and every value a Detection would check, and names the line and detection
of the first fault, in row order whatever each row's motion model.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .fusion import MODEL_CODES, PARAM_WIDTH, Detection, DetectionColumns, Frame, object_array
from .geometry import EgoPose
from .motion import MODEL_NAMES, MODELS


class FrameFormatError(ValueError):
    """Malformed frame record; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _motion_objs(cols: DetectionColumns) -> list[dict]:
    """Each row's motion as its JSON object, filled one parameter column at a time."""
    objs = [{"model": MODEL_NAMES[code]} for code in cols.model.tolist()]
    for kind, rows in cols.groups():
        picked = [objs[k] for k in rows.tolist()]
        for key, values in zip(kind.json_keys.values(), cols.params_of(kind, rows).T.tolist()):
            for obj, value in zip(picked, values):
                obj[key] = value
    return objs


def _detection_obj(box, score, label, motion, weight, frame_lag, track_id, n_fused, n_current) -> dict:
    """One detection's JSON object; an optional key is written only when it carries information.

    That is a track id or weight that is set, a lag other than 0, more than
    one fused box, and an n_current other than the one an absent key means
    (1 exactly when frame_lag is 0).
    """
    obj = {"box": box, "score": score, "class": label, "motion": motion}
    if track_id is not None:
        obj["track_id"] = track_id
    if weight is not None:
        obj["weight"] = weight
    if frame_lag != 0:
        obj["frame_lag"] = frame_lag
    if n_fused != 1:
        obj["n_fused"] = n_fused
    if n_current != (1 if frame_lag == 0 else 0):
        obj["n_current"] = n_current
    return obj


def _detection_objs(dets: DetectionColumns) -> list[dict]:
    return list(map(
        _detection_obj,
        dets.boxes.tolist(),
        dets.score.tolist(),
        dets.label.tolist(),
        _motion_objs(dets),
        [None if w != w else w for w in dets.weight.tolist()],
        dets.frame_lag.tolist(),
        dets.track_id.tolist(),
        dets.n_fused.tolist(),
        dets.n_current.tolist(),
    ))


def detection_to_obj(det: Detection) -> dict:
    return _detection_objs(DetectionColumns.of([det]))[0]


def frame_to_obj(frame: Frame) -> dict:
    return {
        "timestamp": frame.timestamp,
        "ego": {"x": frame.ego.x, "y": frame.ego.y, "yaw": frame.ego.yaw},
        "detections": _detection_objs(frame.detections),
    }


# A row's pattern is its model code times 32 plus one bit per optional key it
# writes, frame_lag the highest and weight the lowest.
_OPTIONAL_KEYS = ("frame_lag", "n_current", "n_fused", "track_id", "weight")


def _object_format(fields: dict[str, str]) -> str:
    return "{%s}" % ",".join(f'"{key}":{fields[key]}' for key in sorted(fields))


@functools.cache
def _row_format(pattern: int) -> tuple[str, list[str], list[int]]:
    """The %-format of a detection object of one pattern, the fields it takes in order, and the
    parameter columns of its model in sorted key order."""
    name = MODEL_NAMES[pattern >> 5]
    keys = list(MODELS[name].json_keys.values())
    motion = dict.fromkeys(keys, "%r") | {"model": json.dumps(name)}
    fields = {"box": "[%s]" % ",".join(["%r"] * 7), "class": "%s", "motion": _object_format(motion), "score": "%r"}
    fields |= {key: "%r" for bit, key in enumerate(reversed(_OPTIONAL_KEYS)) if pattern >> bit & 1}
    return _object_format(fields), sorted(fields), sorted(range(len(keys)), key=keys.__getitem__)


def dumps_frame(frame: Frame) -> str:
    """dumps_line(frame_to_obj(frame)) byte for byte, formatted from the columns without per-row dicts.

    Rows that write the same keys share one %-format. Floats go through %r,
    the float.__repr__ that json writes, and each distinct class is quoted
    once by dumps_line. A frame holding a non-finite float or a track id
    that is not an int goes through dumps_line(frame_to_obj(frame)), so it
    raises the ValueError json raises.
    """
    dets = frame.detections
    ids = dets.track_id.tolist()
    if not (np.isfinite(dets.boxes).all() and np.isfinite(dets.score).all() and np.isfinite(dets.params).all()
            and not np.isinf(dets.weight).any() and set(map(type, ids)) <= {int, type(None)}):
        return dumps_line(frame_to_obj(frame))
    current = dets.frame_lag == 0
    pattern = (dets.model << 5 | ~current << 4 | (dets.n_current != current) << 3 | (dets.n_fused != 1) << 2
               | np.not_equal(dets.track_id, None) << 1 | ~np.isnan(dets.weight))
    quoted = {label: dumps_line(label) for label in set(dets.label.tolist())}
    order = np.argsort(pattern, kind="stable")
    codes, starts = np.unique(pattern[order], return_index=True)
    texts = []
    for code, rows in zip(codes.tolist(), np.split(order, starts[1:])):
        fmt, fields, motion = _row_format(code)
        columns = []
        for field in fields:
            if field == "box":
                columns += dets.boxes[rows].T.tolist()
            elif field == "class":
                columns.append(list(map(quoted.__getitem__, dets.label[rows].tolist())))
            elif field == "motion":
                columns += dets.params[rows][:, motion].T.tolist()
            else:
                columns.append(getattr(dets, field)[rows].tolist())
        texts += map(fmt.__mod__, zip(*columns))
    if len(codes) > 1:
        # back from pattern order to row order
        texts = object_array(texts)
        texts[order] = texts.copy()
        texts = texts.tolist()
    tail = dumps_line({"ego": {"x": frame.ego.x, "y": frame.ego.y, "yaw": frame.ego.yaw},
                       "timestamp": frame.timestamp})
    return '{"detections":[%s],%s' % (",".join(texts), tail[1:])


# The reader checks JSON types itself: numpy would turn "0.5" and true into numbers.


def _is_number(value) -> bool:
    return type(value) is float or type(value) is int


def _is_integer(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _is_string(value) -> bool:
    return type(value) is str


def _is_object(value) -> bool:
    return type(value) is dict


_EXPECTED = {_is_number: "a number", _is_integer: "an integer", _is_string: "a string", _is_object: "a JSON object"}


def _require(values: list, accept, what: str, width: int = 1, rows=None) -> None:
    """ValueError naming the detection of the first value that `accept` rejects.

    Every `width` consecutive values belong to one detection, the k-th group
    to detection rows[k] (to detection k when rows is None).
    """
    if all(map(accept, values)):
        return
    k = next(k for k, value in enumerate(values) if not accept(value))
    row = k // width if rows is None else rows[k // width]
    raise ValueError(f"detection {row}: {what} must be {_EXPECTED[accept]}, got {values[k]!r}")


def _floats(values: list, what: str, width: int = 1, rows=None) -> np.ndarray:
    if not set(map(type, values)) <= {float, int}:
        _require(values, _is_number, what, width, rows)
    return np.array(values, dtype=float)


def _optional(objs: list[dict], key: str, accept) -> list | None:
    """Values of an optional key, None where it is absent or null; None when it is absent everywhere."""
    values = list(map(dict.get, objs, repeat(key)))
    if values.count(None) == len(values):
        return None
    present = [k for k, value in enumerate(values) if value is not None]
    _require([values[k] for k in present], accept, key, rows=present)
    return values


def _integers(objs: list[dict], key: str, default: int) -> np.ndarray:
    values = _optional(objs, key, _is_integer)
    if values is None:
        return np.full(len(objs), default, dtype=np.int64)
    return np.array([default if value is None else value for value in values], dtype=np.int64)


# Each model's parameter values in field order (a tuple, as every model has two or more) and their number.
_MOTION_VALUES = [itemgetter(*kind.json_keys.values()) for kind in MODELS.values()]
_MOTION_WIDTHS = np.array([len(kind.json_keys) for kind in MODELS.values()])


def detections_from_objs(objs: list) -> DetectionColumns:
    """The detections of a frame record as columns, after every check a Detection makes.

    Every value must have its JSON type: numbers for the box, score, weight
    and motion fields, a string class, integers for track_id, frame_lag,
    n_fused and n_current. ValueError names the first offending detection;
    KeyError names a missing key.
    """
    if type(objs) is not list:
        raise ValueError(f"detections must be a list, got {objs!r}")
    _require(objs, _is_object, "record")
    n = len(objs)
    boxes = list(map(itemgetter("box"), objs))
    if not all(type(box) is list and len(box) == 7 for box in boxes):
        row = next(k for k, box in enumerate(boxes) if type(box) is not list or len(box) != 7)
        raise ValueError(f"detection {row}: box must be a list of 7 numbers, got {boxes[row]!r}")
    labels = list(map(itemgetter("class"), objs))
    _require(labels, _is_string, "class")
    motions = list(map(itemgetter("motion"), objs))
    _require(motions, _is_object, "motion")
    names = list(map(dict.get, motions, repeat("model")))
    codes = list(map(MODEL_CODES.get, names))
    if None in codes:
        row = codes.index(None)
        raise ValueError(f"detection {row}: unknown motion model {names[row]!r}")
    model = np.array(codes, dtype=np.int64)
    width = _MOTION_WIDTHS[model]
    values = chain.from_iterable(_MOTION_VALUES[code](motion) for code, motion in zip(codes, motions))
    params = np.zeros((n, PARAM_WIDTH))
    # row by row, the first `width` columns of each, which is the order of the values
    params[np.arange(PARAM_WIDTH) < width[:, None]] = _floats(list(values), "motion value",
                                                               rows=np.repeat(np.arange(n), width))
    weight = _optional(objs, "weight", _is_number) or [None] * n
    track_id = _optional(objs, "track_id", _is_integer) or [None] * n
    frame_lag = _integers(objs, "frame_lag", 0)
    # an absent n_current means 1 exactly when frame_lag is 0
    n_current = _optional(objs, "n_current", _is_integer)
    current = frame_lag == 0
    if n_current is not None:
        current = [now if value is None else value for value, now in zip(n_current, current.tolist())]
    return DetectionColumns(
        _floats(list(chain.from_iterable(boxes)), "box value", 7).reshape(n, 7),
        _floats(list(map(itemgetter("score"), objs)), "score"),
        object_array(labels),
        model,
        params,
        np.array([math.nan if w is None else w for w in weight], dtype=float),
        frame_lag,
        object_array([None if t is None else int(t) for t in track_id]),
        _integers(objs, "n_fused", 1),
        np.array(current, dtype=np.int64),
    )


def detection_from_obj(obj: dict) -> Detection:
    return detections_from_objs([obj])[0]


def _number(name: str, value) -> float:
    """A JSON number as a float; ValueError for anything else, booleans and strings included."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def frame_from_obj(obj: dict) -> Frame:
    timestamp = _number("timestamp", obj["timestamp"])
    if not math.isfinite(timestamp):
        raise ValueError(f"non-finite timestamp {timestamp!r}")
    ego = obj["ego"]
    return Frame(
        timestamp,
        EgoPose(*(_number(f"ego {key}", ego[key]) for key in ("x", "y", "yaw"))),
        detections_from_objs(obj["detections"]),
    )


def dumps_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _loads_line(text: str, line_no: int) -> dict:
    def reject_constant(name: str):
        raise FrameFormatError(f"non-finite number {name}", line_no)

    try:
        obj = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON: {exc.msg}", line_no) from exc
    if not isinstance(obj, dict):
        raise FrameFormatError("record is not a JSON object", line_no)
    return obj


def write_frames(path, frames: Sequence[Frame] | Iterator[Frame], meta: dict | None = None) -> None:
    """Write frames as JSON Lines; an optional meta dict becomes the header line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if meta is not None:
            fh.write(dumps_line({"meta": meta}) + "\n")
        for frame in frames:
            fh.write(dumps_frame(frame) + "\n")


def read_meta(path) -> dict | None:
    """Return the meta header of a frame file, or None when absent."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.strip():
        return None
    obj = _loads_line(first, 1)
    return obj.get("meta")


def _is_meta(obj: dict) -> bool:
    """Whether the object on a file's first line is its meta header rather than a frame."""
    return "meta" in obj and "timestamp" not in obj


def iter_frames(path) -> Iterator[Frame]:
    """Stream frames from a JSON Lines file, skipping a leading meta line.

    Raises FrameFormatError with the offending line number on malformed input.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            obj = _loads_line(text, line_no)
            if line_no == 1 and _is_meta(obj):
                continue
            try:
                frame = frame_from_obj(obj)
            except KeyError as exc:
                raise FrameFormatError(f"missing key {exc.args[0]!r}", line_no) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise FrameFormatError(str(exc), line_no) from exc
            yield frame


def frame_line(path, index: int) -> int | None:
    """1-based line of the frame that iter_frames yields at 0-based index; None past the end."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line_no for line_no, line in enumerate(fh, start=1)
                 if line.strip() and not (line_no == 1 and _is_meta(_loads_line(line, 1))))
        return next(islice(lines, index, None), None)


def read_frames(path) -> list[Frame]:
    """Eagerly load every frame of a JSON Lines file."""
    return list(iter_frames(path))
