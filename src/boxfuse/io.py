"""Frame interchange: JSON Lines with full round-trip float precision.

One frame per line:

    {"timestamp": <s>, "ego": {"x":, "y":, "yaw":},
     "detections": [{"box": [x,y,z,w,l,h,yaw], "score":, "class":,
                     "motion": {"model": "cv"|"unicycle"|"bicycle", ...}}]}

Each class in motion.MODELS keys its own parameters: cv {vx, vy}, unicycle
{v, omega}, bicycle {v, beta, l_r}. Optional per-detection keys (track_id,
weight, frame_lag, n_fused, n_current) are written only when they carry
information, so parse(serialize(frame)) reproduces the frame exactly. A file may start
with one {"meta": {...}} provenance line, which readers skip. Keys are
sorted and floats use the shortest round-trip form, making output byte-stable
for identical inputs.
"""

from __future__ import annotations

import json
import math
from typing import Iterator, Sequence

from .fusion import Detection, Frame
from .geometry import Box3D, EgoPose
from .motion import params_from_obj


class FrameFormatError(ValueError):
    """Malformed frame record; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def detection_to_obj(det: Detection) -> dict:
    obj: dict = {
        "box": det.box.to_array(),
        "score": det.score,
        "class": det.label,
        "motion": det.motion.to_obj(),
    }
    if det.track_id is not None:
        obj["track_id"] = det.track_id
    if det.weight is not None:
        obj["weight"] = det.weight
    if det.frame_lag != 0:
        obj["frame_lag"] = det.frame_lag
    if det.n_fused != 1:
        obj["n_fused"] = det.n_fused
    if det.n_current != (1 if det.frame_lag == 0 else 0):
        obj["n_current"] = det.n_current
    return obj


def detection_from_obj(obj: dict) -> Detection:
    box = obj["box"]
    if len(box) != 7:
        raise ValueError(f"box must have 7 values, got {len(box)}")
    frame_lag = int(obj.get("frame_lag", 0))
    n_current = obj.get("n_current")
    return Detection(
        box=Box3D.from_array(box),
        score=float(obj["score"]),
        label=str(obj["class"]),
        motion=params_from_obj(obj["motion"]),
        weight=None if obj.get("weight") is None else float(obj["weight"]),
        frame_lag=frame_lag,
        track_id=None if obj.get("track_id") is None else int(obj["track_id"]),
        n_fused=int(obj.get("n_fused", 1)),
        n_current=None if n_current is None else int(n_current),
    )


def frame_to_obj(frame: Frame) -> dict:
    return {
        "timestamp": frame.timestamp,
        "ego": {"x": frame.ego.x, "y": frame.ego.y, "yaw": frame.ego.yaw},
        "detections": [detection_to_obj(d) for d in frame.detections],
    }


def frame_from_obj(obj: dict) -> Frame:
    ego = obj["ego"]
    timestamp = float(obj["timestamp"])
    if not math.isfinite(timestamp):
        raise ValueError(f"non-finite timestamp {timestamp!r}")
    return Frame(
        timestamp,
        EgoPose(float(ego["x"]), float(ego["y"]), float(ego["yaw"])),
        [detection_from_obj(d) for d in obj["detections"]],
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
            fh.write(dumps_line(frame_to_obj(frame)) + "\n")


def read_meta(path) -> dict | None:
    """Return the meta header of a frame file, or None when absent."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.strip():
        return None
    obj = _loads_line(first, 1)
    return obj.get("meta")


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
            if line_no == 1 and "meta" in obj and "timestamp" not in obj:
                continue
            try:
                yield frame_from_obj(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise FrameFormatError(str(exc), line_no) from exc


def read_frames(path) -> list[Frame]:
    """Eagerly load every frame of a JSON Lines file."""
    return list(iter_frames(path))
