"""Frame interchange: JSON Lines with full round-trip float precision.

One frame per line:

    {"timestamp": <s>, "ego": {"x":, "y":, "yaw":},
     "detections": [{"box": [x,y,z,w,l,h,yaw], "score":, "class":,
                     "motion": {"model": "cv"|"unicycle"|"bicycle", ...}}]}

Each class in motion.MODELS keys its own parameters (`json_keys`): cv
{vx, vy}, unicycle {v, omega}, bicycle {v, beta, l_r}; one frame may mix
models. The optional per-detection keys (frame_lag, n_current, n_fused,
track_id, weight) follow one rule, `_absent`: a key left out means lag 0,
n_current 1 exactly when the lag is 0, n_fused 1, and no track id or
weight. Both writers leave out exactly the keys at those values and the
reader fills them in, so parse(serialize(frame)) reproduces the frame
exactly. A file may start with one {"meta": {...}} provenance line, which
readers skip. Keys are sorted and floats use the shortest round-trip form,
making output byte-stable for identical inputs.

The reader parses straight into a frame's frames.DetectionColumns and the
writers write from them, with no per-detection objects, so the numbers of
Detections given to a Frame are written as floats. dumps_frame writes a
frame line from the columns with one %-format per row pattern (the motion
model and the optional keys written) and raises json's own ValueError for a
value that is not finite; frame_to_obj is the frame as a dict, and
dumps_line(frame_to_obj(frame)) gives the same bytes.

Every number the reader takes, in a detection, a timestamp or the ego pose,
goes through one conversion, json_column: its JSON type first (a number is
an int or float, never a string or boolean; integer fields take integral
values only), then its range (float range; int64 for the integer fields but
track_id). The CLI checks the numbers of --config and --spec files with
the config type rule instead (rules.require_type). The reader also checks
that the class is a string and every value a Detection would check, and
names the line and detection of the first fault, in row order whatever
each row's motion model.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, compress, islice, repeat
from operator import is_not, itemgetter
from typing import Iterator, Sequence

import numpy as np

from .frames import MODEL_CODES, MODEL_WIDTHS, PARAM_WIDTH, DetectionColumns, Frame, object_array
from .geometry import EgoPose
from .motion import MODEL_NAMES, MODELS
from .rules import fits_float


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


def _absent(frame_lag: np.ndarray) -> dict[str, np.ndarray]:
    """Per optional detection key, what a row of the given lag means by leaving it out.

    The one rule for these keys: the writers leave a key out of exactly the
    rows at this value, and the reader puts it where a key is absent or null.
    """
    n = len(frame_lag)
    return {
        "frame_lag": np.zeros(n, dtype=np.int64),
        "n_current": (frame_lag == 0).astype(np.int64),
        "n_fused": np.ones(n, dtype=np.int64),
        "track_id": np.full(n, None, dtype=object),
        "weight": np.full(n, math.nan),
    }


# A row's pattern is its model code times 32 plus one bit per optional key it
# writes, frame_lag the highest and weight the lowest.
_OPTIONAL_KEYS = tuple(_absent(np.zeros(0, dtype=np.int64)))


def _written(dets: DetectionColumns) -> dict[str, np.ndarray]:
    """Per optional key, the mask of the rows that write it: those whose value is not what its absence means."""
    columns = {key: getattr(dets, key) for key in _OPTIONAL_KEYS}
    # value == value is False only for a NaN weight, an unassigned one, which its absence means
    return {key: (columns[key] != absent) & (columns[key] == columns[key])
            for key, absent in _absent(dets.frame_lag).items()}


def frame_to_obj(frame: Frame) -> dict:
    dets = frame.detections
    objs = [{"box": box, "score": score, "class": label, "motion": motion} for box, score, label, motion
            in zip(dets.boxes.tolist(), dets.score.tolist(), dets.label.tolist(), _motion_objs(dets))]
    for key, written in _written(dets).items():
        rows = np.flatnonzero(written)
        for k, value in zip(rows.tolist(), getattr(dets, key)[rows].tolist()):
            objs[k][key] = value
    return {"timestamp": frame.timestamp, "ego": {"x": frame.ego.x, "y": frame.ego.y, "yaw": frame.ego.yaw},
            "detections": objs}


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


def _first_non_finite(dets: DetectionColumns) -> float | None:
    """The first value written for dets that is not finite, in the order json writes them; None when none is.

    json writes a row's keys sorted: its box, then its motion fields, its
    score and its weight (a NaN weight is unassigned and not written).
    """
    written = np.arange(PARAM_WIDTH) < MODEL_WIDTHS[dets.model][:, None]
    bad = (~np.isfinite(dets.boxes).all(axis=1) | ~(np.isfinite(dets.params) | ~written).all(axis=1)
           | ~np.isfinite(dets.score) | np.isinf(dets.weight))
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    motion = dict(zip(MODELS[MODEL_NAMES[dets.model[row]]].json_keys.values(), dets.params[row].tolist()))
    weight = float(dets.weight[row])
    values = [*dets.boxes[row].tolist(), *(motion[key] for key in sorted(motion)), float(dets.score[row]),
              *([] if math.isnan(weight) else [weight])]
    return next(value for value in values if not math.isfinite(value))


def dumps_frame(frame: Frame) -> str:
    """dumps_line(frame_to_obj(frame)) byte for byte, formatted from the columns without per-row dicts.

    Rows that write the same keys share one %-format. Floats go through %r,
    the float.__repr__ that json writes, and each distinct class is quoted
    once by dumps_line. A frame that writes a non-finite float raises the
    ValueError json raises for the first one it would meet.
    """
    dets = frame.detections
    if not (np.isfinite(dets.boxes).all() and np.isfinite(dets.score).all() and np.isfinite(dets.params).all()
            and not np.isinf(dets.weight).any()):
        value = _first_non_finite(dets)
        if value is not None:
            dumps_line(value)  # raises json's ValueError for that value
    pattern = dets.model
    for written in _written(dets).values():
        pattern = pattern << 1 | written
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


def is_number(value) -> bool:
    return type(value) is float or type(value) is int


def _is_integer(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _is_string(value) -> bool:
    return type(value) is str


def _is_object(value) -> bool:
    return type(value) is dict


def _fits_int64(value) -> bool:
    return -2**63 <= value < 2**63


_EXPECTED = {is_number: "be a number", _is_integer: "be an integer", _is_string: "be a string",
             _is_object: "be a JSON object", _fits_int64: "fit in int64", fits_float: "fit in a float"}
# the types each predicate accepts every value of; a range check accepts no type outright
_ACCEPTED_TYPES = {is_number: {float, int}, _is_integer: {int}, _is_string: {str}, _is_object: {dict},
                   _fits_int64: set(), fits_float: set()}


def _require(values: list, accept, name) -> None:
    """ValueError naming, as name(k), the first value k that `accept` rejects.

    One set of the types present settles most columns; only a column holding
    another type is searched value by value.
    """
    if set(map(type, values)) <= _ACCEPTED_TYPES[accept]:
        return
    for k, value in enumerate(values):
        if not accept(value):
            raise ValueError(f"{name(k)} must {_EXPECTED[accept]}, got {value!r}")


def _detection_key(key: str, rows=None, width: int = 1):
    """The name of value k as `key` of detection rows[k // width], of detection k // width when rows is None."""
    return lambda k: f"detection {k // width if rows is None else rows[k // width]}: {key}"


# The JSON number rule, per column dtype: the JSON type check, then the range check where there is one.
_NUMBER_RULES = {np.dtype(float): (is_number, fits_float), np.dtype(np.int64): (_is_integer, _fits_int64),
                 np.dtype(object): (_is_integer,)}


def json_column(values: list, name, dtype=float) -> np.ndarray:
    """JSON numbers as a column of dtype: float, np.int64, or object for integers of any size.

    The one rule for a number the program reads: a float is any JSON number
    (never a string or boolean) within float range, an integer an integral
    number, within int64 for an int64 column. ValueError names, as name(k),
    the first value k that fails a check, the type check first.
    """
    accept_type, *accept_range = _NUMBER_RULES[np.dtype(dtype)]
    _require(values, accept_type, name)
    if not accept_range:
        return object_array(list(map(int, values)))
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        _require(values, accept_range[0], name)
        raise


def _optional(objs: list[dict], key: str, absent: np.ndarray) -> np.ndarray:
    """An optional key's column, of absent's dtype: its checked values where present and not null, absent elsewhere."""
    values = list(map(dict.get, objs, repeat(key)))
    missing = values.count(None)
    if missing == len(values):
        return absent
    if not missing:
        return json_column(values, _detection_key(key), absent.dtype)
    present = list(map(is_not, values, repeat(None)))
    rows = list(compress(range(len(values)), present))
    column = absent.copy()
    column[rows] = json_column(list(compress(values, present)), _detection_key(key, rows), absent.dtype)
    return column


# Each model's parameter values in field order: a tuple, as every model has two or more.
_MOTION_VALUES = [itemgetter(*kind.json_keys.values()) for kind in MODELS.values()]


def detections_from_objs(objs: list) -> DetectionColumns:
    """The detections of a frame record as columns, after every check a Detection makes.

    Every value must have its JSON type: numbers for the box, score, weight
    and motion fields, a string class, integers for track_id, frame_lag,
    n_fused and n_current. ValueError names the first offending detection;
    KeyError names a missing key.
    """
    if type(objs) is not list:
        raise ValueError(f"detections must be a list, got {objs!r}")
    _require(objs, _is_object, _detection_key("record"))
    n = len(objs)
    boxes = list(map(itemgetter("box"), objs))
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {7}):
        row = next(k for k, box in enumerate(boxes) if type(box) is not list or len(box) != 7)
        raise ValueError(f"detection {row}: box must be a list of 7 numbers, got {boxes[row]!r}")
    labels = list(map(itemgetter("class"), objs))
    _require(labels, _is_string, _detection_key("class"))
    motions = list(map(itemgetter("motion"), objs))
    _require(motions, _is_object, _detection_key("motion"))
    names = list(map(dict.get, motions, repeat("model")))
    codes = list(map(MODEL_CODES.get, names))
    if None in codes:
        row = codes.index(None)
        raise ValueError(f"detection {row}: unknown motion model {names[row]!r}")
    model = np.array(codes, dtype=np.int64)
    width = MODEL_WIDTHS[model]
    if len(set(codes)) == 1:
        values = chain.from_iterable(map(_MOTION_VALUES[codes[0]], motions))
    else:
        values = chain.from_iterable(_MOTION_VALUES[code](motion) for code, motion in zip(codes, motions))
    params = np.zeros((n, PARAM_WIDTH))
    # row by row, the first `width` columns of each, which is the order of the values
    params[np.arange(PARAM_WIDTH) < width[:, None]] = json_column(
        list(values), _detection_key("motion value", np.repeat(np.arange(n), width)))
    absent = _absent(np.zeros(n, dtype=np.int64))
    weight = _optional(objs, "weight", absent["weight"])
    track_id = _optional(objs, "track_id", absent["track_id"])
    frame_lag = _optional(objs, "frame_lag", absent["frame_lag"])
    # n_current's absent value depends on the lags read
    absent = _absent(frame_lag)
    n_current = _optional(objs, "n_current", absent["n_current"])
    return DetectionColumns(
        json_column(list(chain.from_iterable(boxes)), _detection_key("box value", width=7)).reshape(n, 7),
        json_column(list(map(itemgetter("score"), objs)), _detection_key("score")),
        object_array(labels),
        model,
        params,
        weight,
        frame_lag,
        track_id,
        _optional(objs, "n_fused", absent["n_fused"]),
        n_current,
    )


_EGO = itemgetter("x", "y", "yaw")
_FRAME_NUMBERS = ("timestamp", "ego x", "ego y", "ego yaw")


def frame_from_obj(obj: dict) -> Frame:
    timestamp, *ego = json_column([obj["timestamp"], *_EGO(obj["ego"])], _FRAME_NUMBERS.__getitem__).tolist()
    return Frame(timestamp, EgoPose(*ego), detections_from_objs(obj["detections"]))


def dumps_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _loads_line(text: str, line_no: int) -> dict:
    def reject_constant(name: str):
        raise ValueError(f"non-finite number {name}")

    try:
        obj = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON: {exc.msg}", line_no) from exc
    except ValueError as exc:  # a non-finite constant, or an integer literal longer than int() takes
        raise FrameFormatError(str(exc), line_no) from exc
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
