"""Per-layer tracing for the benchmark, installed from outside the program.

Each traced function is replaced, for the duration of a run, by a wrapper
bound at the name its caller looks up (``boxfuse.fusion.forward_frame`` as
``fuse_frames`` calls it, ``boxfuse.evaluation.bev_iou`` as matching calls
it, ``boxfuse.cli.read_frames`` as the commands call it). A wrapper records a
span: calls, inclusive time and self time (inclusive minus the spans it
directly contains), keyed by the benchmark phase that was active. Optional
observers count the work a call did from its arguments and result. Spans are
kept in memory; the run turns them into per-layer metrics at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    """In-memory span and counter store with a span stack for self time."""

    def __init__(self) -> None:
        # (phase, span name) -> [calls, inclusive ns, self ns]
        self.spans: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: Counter = Counter()
        self.phase = "none"
        # per streaming frame: span name or counter -> value, while a frame is open
        self.frame: Counter | None = None
        # raw frames forwarded at least once: timestamp -> detection count
        self.history_frames: dict[float, int] = {}
        self._children: list[int] = []

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n
        if self.frame is not None:
            self.frame[name] += n

    def call(self, name: str, fn, args=(), kwargs=None):
        self._children.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            took = perf_counter_ns() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += took
            span = self.spans[(self.phase, name)]
            span[0] += 1
            span[1] += took
            span[2] += took - children
            if self.frame is not None:
                self.frame[name] += took
                self.frame["self:" + name] += took - children

    def calls(self, name: str, phase: str) -> int:
        return self.spans[(phase, name)][0]

    def total_ms(self, name: str, phase: str) -> float:
        return self.spans[(phase, name)][1] / 1e6

    def self_ms(self, name: str, phase: str) -> float:
        return self.spans[(phase, name)][2] / 1e6


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Time each step of a generator function as one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            try:
                item = tracer.call(name, next, (items,))
            except StopIteration:
                return
            yield item

    return wrapper


# --- observers: count the work a call did ---------------------------------


def _observe_forward(tracer: Tracer, args, result) -> None:
    frame = args[0]
    tracer.count("forwarded_boxes", len(result))
    # a stream's timestamps are unique, so they identify its raw frames
    tracer.history_frames[frame.timestamp] = len(frame.detections)


def _observe_nms(tracer: Tracer, args, result) -> None:
    tracer.count("dense_boxes", len(args[0]))
    tracer.count("nms_outputs", len(result))
    tracer.count("merged_outputs", sum(1 for d in result if d.n_fused > 1))


def _observe_score(tracer: Tracer, args, result) -> None:
    tracer.count("scored_outputs", len(result))


def _observe_fuse(tracer: Tracer, args, result) -> None:
    tracer.count("fused_outputs", len(result.detections))
    tracer.count("history_only_kept", sum(1 for d in result.detections if d.n_current == 0))


def _observe_iou(tracer: Tracer, args, result) -> None:
    if result > 0.0:
        tracer.count("bev_iou_useful")


def _observe_inverse_bicycle(tracer: Tracer, args, result) -> None:
    tracer.count("inverse_bicycle_iterations", result[1].iterations)


#: (module, attribute, span name, observer). The attribute is the name the
#: calling code looks up, so the wrapper sees exactly its calls.
TRACE_POINTS = (
    # io
    ("boxfuse.io", "iter_frames", "io.iter_frames", None),
    ("boxfuse.cli", "iter_frames", "io.iter_frames", None),
    ("boxfuse.io", "frame_to_obj", "io.frame_to_obj", None),
    ("boxfuse.cli", "frame_to_obj", "io.frame_to_obj", None),
    ("boxfuse.io", "dumps_line", "io.dumps_line", None),
    ("boxfuse.cli", "dumps_line", "io.dumps_line", None),
    ("boxfuse.cli", "read_frames", "io.read_frames", None),
    ("boxfuse.cli", "write_frames", "io.write_frames", None),
    # fusion
    ("boxfuse.fusion", "fuse_frames", "fusion.fuse_frames", _observe_fuse),
    ("boxfuse.cli", "fuse_frames", "fusion.fuse_frames", _observe_fuse),
    ("boxfuse.fusion", "forward_frame", "fusion.forward_frame", _observe_forward),
    ("boxfuse.fusion", "weighted_nms", "fusion.weighted_nms", _observe_nms),
    ("boxfuse.fusion", "apply_score_strategy", "fusion.apply_score_strategy", _observe_score),
    # geometry
    ("boxfuse.evaluation", "bev_iou", "geometry.bev_iou", _observe_iou),
    ("boxfuse.cli", "transform_box", "geometry.transform_box", None),
    # evaluation
    ("boxfuse.cli", "evaluate_enhancement", "evaluation.evaluate_enhancement", None),
    ("boxfuse.evaluation", "match_frame", "evaluation.match_frame", None),
    ("boxfuse.evaluation", "filter_detections_to_subset", "evaluation.filter_detections_to_subset", None),
    ("boxfuse.evaluation", "average_precision", "evaluation.average_precision", None),
    ("boxfuse.evaluation", "split_motion_state", "evaluation.split_motion_state", None),
    # motion
    ("boxfuse.cli", "estimate_params_from_track", "motion.estimate_params_from_track", None),
    ("boxfuse.synth", "estimate_params_from_track", "motion.estimate_params_from_track", None),
    ("boxfuse.motion", "inverse_bicycle", "motion.inverse_bicycle", _observe_inverse_bicycle),
    # synth
    ("boxfuse.cli", "generate_mixed_scene", "synth.generate_mixed_scene", None),
    ("boxfuse.cli", "corrupt", "synth.corrupt", None),
    ("boxfuse.cli", "_motion_in_ego", "synth.motion_in_ego", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Bind a wrapper at every trace point; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, observe in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if inspect.isgeneratorfunction(original):
                wrapper = _wrap_generator(tracer, name, original)
            else:
                wrapper = _wrap(tracer, name, original, observe)
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
