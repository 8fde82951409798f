"""Command-line entry points: fuse, synth, inverse, eval, traj-compare.

Every option can also come from an environment variable with the BOXFUSE_
prefix mirroring the flag name (e.g. BOXFUSE_DECAY for --decay); explicit
flags win over the environment, which wins over --config file values, which
win over the --preset. Exit codes: 0 success, 1 usage error, 2 data error.
All commands are deterministic given their inputs, flags and seed; output
files carry a meta header echoing the resolved configuration, and the fuse
and inverse headers also name the package version and the SHA-256 of the
input file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .evaluation import evaluate_enhancement
from .fusion import (
    MODEL_CODES,
    PARAM_WIDTH,
    PRESETS,
    DetectionColumns,
    Frame,
    FusionConfig,
    fuse_frames,
    sliding_windows,
)
from .geometry import EgoPose, Pose, normalize_angle, transform_box, transform_columns
from .io import FrameFormatError, dumps_line, frame_to_obj, iter_frames, read_frames, write_frames
from .motion import MODEL_NAMES, estimate_param_columns, estimate_params_from_track, forward, model_class
from .synth import PRNG_NAME, CorruptionSpec, TrajectorySpec, _motion_in_ego, corrupt, generate_mixed_scene

# transform_box and _motion_in_ego are no longer called here, but the
# benchmark's per-layer tracing binds them in this module (bench/tracing.py).

TOOL = "boxfuse"
ENV_PREFIX = "BOXFUSE_"

_ENV_KEYS = {
    "n_history": "FRAMES",
    "weight_decay": "DECAY",
    "iou_low": "IOU_LOW",
    "iou_high": "IOU_HIGH",
    "frame_interval": "INTERVAL",
    "score_strategy": "STRATEGY",
    "score_decay_factor": "SCORE_DECAY",
    "history_score_floor": "HISTORY_FLOOR",
    "rear_axle": "L_R",
}

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _opt(args: argparse.Namespace, dest: str, cast=str, default=None):
    """Flag value if given, else the mirroring BOXFUSE_* environment variable, else `default`."""
    value = getattr(args, dest, None)
    if value is not None:
        return value
    name = ENV_PREFIX + _ENV_KEYS.get(dest, dest.upper())
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r}: {exc}") from None


def _required(args: argparse.Namespace, dest: str) -> str:
    value = _opt(args, dest)
    if value is None:
        raise ValueError(f"missing required option --{dest.replace('_', '-')}")
    return value


def _fusion_config(args: argparse.Namespace) -> FusionConfig:
    preset = _opt(args, "preset")
    if preset is not None and preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    base = PRESETS[preset] if preset else FusionConfig()
    values = dataclasses.asdict(base)
    config_path = _opt(args, "config")
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(values)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        values.update(file_values)
    for dest in values:
        # an environment value is cast to the type of the preset's field
        values[dest] = _opt(args, dest, type(getattr(base, dest)), values[dest])
    return FusionConfig(**values)


def _config_meta(cfg: FusionConfig) -> dict:
    return dataclasses.asdict(cfg)


def _add_fusion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help=f"named configuration: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--config", help="JSON file with fusion settings (flags override)")
    parser.add_argument("--frames", "-n", dest="n_history", type=int, help="history frames to fuse")
    parser.add_argument("--decay", dest="weight_decay", type=float, help="per-interval confidence decay")
    parser.add_argument("--iou-low", dest="iou_low", type=float, help="suppression IoU threshold")
    parser.add_argument("--iou-high", dest="iou_high", type=float, help="merge IoU threshold")
    parser.add_argument("--interval", dest="frame_interval", type=float, help="frame interval in seconds")
    parser.add_argument("--strategy", dest="score_strategy", choices=("decay", "divide"),
                        help="history-only score strategy")
    parser.add_argument("--score-decay", dest="score_decay_factor", type=float,
                        help="divide-strategy score factor")
    parser.add_argument("--history-floor", dest="history_score_floor", type=float,
                        help="drop history-only boxes scoring below this")


@contextlib.contextmanager
def _replacing(path: str):
    """Write a sibling temporary file that replaces `path` only when the block succeeds.

    On failure the temporary file is removed and `path` keeps its earlier
    content. A path that exists but is not a regular file (a pipe,
    /dev/null) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            yield out
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    out = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes: names an input by its content, so reruns stay byte-identical."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cmd_fuse(args: argparse.Namespace) -> int:
    cfg = _fusion_config(args)
    input_path = _required(args, "input")
    output_path = _required(args, "output")
    meta = {"tool": TOOL, "version": __version__, "format": 1, "command": "fuse",
            "input_sha256": _sha256(input_path), "config": _config_meta(cfg)}
    latencies: list[float] = []
    with _replacing(output_path) as out:
        out.write(dumps_line({"meta": meta}) + "\n")
        for window in sliding_windows(iter_frames(input_path), cfg.n_history + 1):
            start = time.perf_counter()
            fused = fuse_frames(window, cfg)
            latencies.append((time.perf_counter() - start) * 1000.0)
            out.write(dumps_line(frame_to_obj(fused)) + "\n")
    if latencies:
        arr = np.array(latencies)
        print(
            f"fuse latency: frames={len(arr)} mean={arr.mean():.3f}ms "
            f"median={float(np.median(arr)):.3f}ms p99={float(np.percentile(arr, 99)):.3f}ms",
            file=sys.stderr,
        )
    else:
        print("fuse latency: frames=0", file=sys.stderr)
    return 0


def _reattach_params(frames: Sequence[Frame], model: str, rear_axle: float | None) -> list[Frame]:
    """Replace every detection's motion parameters using the track inverse models.

    Rows are grouped by track_id in order of first appearance, each track's
    poses taken in the world frame in frame order. The bicycle arm is
    rear_axle, or else a quarter of the track's upper median box length. The
    parameters are fitted with estimate_param_columns and rotated into each
    frame's ego frame; every other column is kept.
    """
    if not frames:
        return []
    columns = [DetectionColumns.of(frame.detections) for frame in frames]
    index: dict[int, int] = {}
    track_of: list[int] = []
    for fi, cols in enumerate(columns):
        ids = cols.track_id.tolist()
        if None in ids:
            raise ValueError(f"missing track_id on frame {fi}, detection {ids.index(None)}")
        track_of += [index.setdefault(tid, len(index)) for tid in ids]
    track = np.array(track_of, dtype=np.int64)
    identity = EgoPose.identity()
    world = np.concatenate([
        np.stack(transform_columns(cols.boxes[:, 0], cols.boxes[:, 1], cols.boxes[:, 6], frame.ego, identity),
                 axis=1)
        for frame, cols in zip(frames, columns)
    ])
    times = np.repeat([frame.timestamp for frame in frames], [len(cols) for cols in columns]).astype(float)
    counts = np.bincount(track, minlength=len(index))
    arm = rear_axle
    if arm is None:
        length = np.concatenate([cols.boxes[:, 4] for cols in columns])
        by_length = np.lexsort((length, track))
        arm = length[by_length[np.cumsum(counts) - counts + counts // 2]] / 4.0
    kind = model_class(model)
    width = len(kind.json_keys)
    # rows track by track, each track in frame order
    order = np.argsort(track, kind="stable")
    x, y, yaw = world[order].T
    params = np.zeros((len(track), PARAM_WIDTH))
    params[order, :width] = estimate_param_columns(times[order], x, y, yaw, counts, model, rear_axle=arm)
    out = []
    start = 0
    for frame, cols in zip(frames, columns):
        rows = params[start : start + len(cols)]
        start += len(cols)
        rows[:, :width] = kind.in_ego_columns(rows[:, :width], frame.ego)
        out.append(Frame(frame.timestamp, frame.ego, DetectionColumns(
            cols.boxes, cols.score, cols.label, np.full(len(cols), MODEL_CODES[model], dtype=np.int64), rows,
            cols.weight, cols.frame_lag, cols.track_id, cols.n_fused, cols.n_current)))
    return out


def _allocate_counts(total: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of `total` across fractions."""
    weight = sum(fractions)
    if weight <= 0:
        raise ValueError("fractions must sum to a positive value")
    exact = [total * f / weight for f in fractions]
    counts = [int(math.floor(e)) for e in exact]
    order = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in range(total - sum(counts)):
        counts[order[i % len(order)]] += 1
    assert sum(counts) == total and min(counts) >= 0, counts
    return counts


def _synth_groups(args: argparse.Namespace) -> list[tuple[TrajectorySpec, int]]:
    total = _opt(args, "vehicles", int, 50)
    if total < 1:
        raise ValueError(f"--vehicles must be at least 1, got {total}")
    fracs = []
    for dest, default in (("stationary_frac", 0.63), ("straight_frac", 0.31), ("turning_frac", 0.05)):
        frac = _opt(args, dest, float, default)
        if not 0.0 <= frac < math.inf:
            raise ValueError(f"--{dest.replace('_', '-')} must be a finite fraction >= 0, got {frac!r}")
        fracs.append(frac)
    counts = _allocate_counts(total, fracs)
    common = dict(
        duration=_opt(args, "duration", float, 2.0),
        frame_interval=_opt(args, "frame_interval", float, 0.1),
        origin_span=_opt(args, "span", float, 120.0),
    )
    speed = (_opt(args, "speed_min", float, 6.0), _opt(args, "speed_max", float, 14.0))
    radius = (_opt(args, "radius_min", float, 10.0), _opt(args, "radius_max", float, 24.0))
    rear_axle = _opt(args, "rear_axle", float)
    turning = TrajectorySpec(
        model="bicycle", speed_range=speed, radius_range=radius, rear_axle=rear_axle, **common
    )
    groups = [
        (TrajectorySpec(model="cv", speed_range=(0.0, 0.0), **common), counts[0]),
        (TrajectorySpec(model="cv", speed_range=speed, **common), counts[1]),
        (turning, counts[2]),
    ]
    return [(spec, count) for spec, count in groups if count > 0]


def _corruption_spec(args: argparse.Namespace) -> CorruptionSpec:
    return CorruptionSpec(
        sigma_xy=_opt(args, "sigma_xy", float, 0.0),
        sigma_yaw=_opt(args, "sigma_yaw", float, 0.0),
        sigma_speed=_opt(args, "sigma_speed", float, 0.0),
        sigma_turn=_opt(args, "sigma_turn", float, 0.0),
        drop_prob=_opt(args, "drop_prob", float, 0.0),
        burst_frames=_opt(args, "burst_frames", int, 0),
        burst_vehicle_frac=_opt(args, "burst_frac", float, 0.0),
        score_mean=_opt(args, "score_mean", float, 0.85),
        score_sigma=_opt(args, "score_sigma", float, 0.05),
    )


def _known_keys(obj, allowed, where: str) -> dict:
    """obj, when it is a JSON object holding only allowed keys; ValueError naming `where` otherwise."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
    return obj


def _spec_from_obj(cls, obj, where: str):
    """A TrajectorySpec or CorruptionSpec from its --spec object; ValueError names `where` and the key."""
    values = _known_keys(obj, {f.name for f in dataclasses.fields(cls)}, where)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _spec_scene(raw) -> tuple[list[tuple[TrajectorySpec, int]], CorruptionSpec]:
    """The vehicle groups and the corruption of a --spec file, checked key by key.

    The file is {"groups": [{"spec": {...}, "count": n}, ...], "corruption": {...}}
    with "corruption" optional; count is a JSON integer >= 0.
    """
    _known_keys(raw, ("groups", "corruption"), "--spec")
    if type(raw.get("groups")) is not list:
        raise ValueError(f"--spec: key 'groups' must be a list, got {raw.get('groups')!r}")
    groups = []
    for i, group in enumerate(raw["groups"]):
        where = f"--spec group {i}"
        count = _known_keys(group, ("spec", "count"), where).get("count")
        if type(count) is not int or count < 0:
            raise ValueError(f"{where}: key 'count' must be a JSON integer >= 0, got {count!r}")
        groups.append((_spec_from_obj(TrajectorySpec, group.get("spec"), f"{where}: key 'spec'"), count))
    return groups, _spec_from_obj(CorruptionSpec, raw.get("corruption", {}), "--spec: key 'corruption'")


def _cmd_synth(args: argparse.Namespace) -> int:
    seed = _opt(args, "seed", int, 0)
    model = _opt(args, "model", default="cv")
    spec_path = _opt(args, "spec")
    if spec_path:
        with open(spec_path, "r", encoding="utf-8") as fh:
            groups, cspec = _spec_scene(json.load(fh))
    else:
        groups = _synth_groups(args)
        cspec = _corruption_spec(args)
    gt_path = _required(args, "output_gt")
    det_path = _required(args, "output_det")
    gt = generate_mixed_scene(groups, seed)
    base = _reattach_params(gt, model, _opt(args, "rear_axle", float))
    det = corrupt(base, cspec, seed)
    meta_common = {
        "tool": TOOL,
        "format": 1,
        "seed": seed,
        "prng": PRNG_NAME,
        "groups": [{"spec": dataclasses.asdict(spec), "count": count} for spec, count in groups],
    }
    write_frames(gt_path, gt, meta={**meta_common, "command": "synth-gt"})
    write_frames(
        det_path,
        det,
        meta={
            **meta_common,
            "command": "synth-det",
            "model": model,
            "corruption": dataclasses.asdict(cspec),
        },
    )
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    model = _opt(args, "model", default="cv")
    input_path = _required(args, "input")
    out = _reattach_params(list(iter_frames(input_path)), model, _opt(args, "rear_axle", float))
    meta = {"tool": TOOL, "version": __version__, "format": 1, "command": "inverse",
            "input_sha256": _sha256(input_path), "model": model}
    write_frames(_required(args, "output"), out, meta=meta)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gt = read_frames(_required(args, "gt"))
    raw = read_frames(_required(args, "raw"))
    fused = read_frames(_required(args, "fused"))
    threshold = _opt(args, "iou", float, 0.5)
    report = evaluate_enhancement(gt, raw, fused, threshold)
    print(report.to_text())
    output = _opt(args, "output")
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("subset,metric,raw,fused,delta\n")
            for subset, metric, raw_v, fused_v, delta in report.csv_rows():
                fh.write(f"{subset},{metric},{raw_v!r},{fused_v!r},{delta!r}\n")
    return 0


def _cmd_traj_compare(args: argparse.Namespace) -> int:
    models = [m.strip() for m in _opt(args, "models", default=",".join(MODEL_NAMES)).split(",")]
    models = [m for m in models if m]
    gen_class = model_class(_opt(args, "gen_model", default="bicycle"))
    speed = _opt(args, "speed", float, 10.0)
    radius = _opt(args, "radius", float, 20.0)
    interval = _opt(args, "frame_interval", float, 0.1)
    rear_axle = _opt(args, "rear_axle", float, 4.7 / 4.0)
    horizon = _opt(args, "horizon", float, 0.4)
    duration = _opt(args, "duration", float, 0.0)
    if interval <= 0.0:
        raise ValueError(f"--interval must be positive, got {interval!r}")
    if rear_axle <= 0.0:
        raise ValueError(f"--l-r must be positive, got {rear_axle!r}")
    steps = max(1, int(round(horizon / interval)))
    n_frames = max(int(round(duration / interval)) + 1, 2 * steps + 3)
    gen = gen_class.from_motion(speed, 0.0, radius if radius != 0 else None, rear_axle)
    times = [i * interval for i in range(n_frames)]
    poses = [forward(Pose(0.0, 0.0, 0.0), gen, t) for t in times]
    center = n_frames // 2
    rows = ["model,horizon_s,position_error_m,heading_error_rad"]
    for model in models:
        estimates = estimate_params_from_track(
            times[center - 1 : center + 2], poses[center - 1 : center + 2], model, rear_axle=rear_axle
        )
        params = estimates[1]
        for s in range(1, steps + 1):
            predicted = forward(poses[center], params, s * interval)
            truth = poses[center + s]
            pos_err = math.hypot(predicted.x - truth.x, predicted.y - truth.y)
            head_err = abs(normalize_angle(predicted.heading - truth.heading))
            rows.append(f"{model},{s * interval!r},{pos_err!r},{head_err!r}")
    text = "\n".join(rows) + "\n"
    output = _opt(args, "output")
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description="Temporal fusion of 3D detection boxes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fuse = sub.add_parser("fuse", help="fuse a frame stream with its history")
    fuse.add_argument("--input", help="input frame JSONL")
    fuse.add_argument("--output", help="output frame JSONL")
    _add_fusion_flags(fuse)
    fuse.set_defaults(func=_cmd_fuse)

    synth = sub.add_parser("synth", help="generate a synthetic scene (GT + corrupted detections)")
    synth.add_argument("--output-gt", dest="output_gt", help="ground-truth JSONL path")
    synth.add_argument("--output-det", dest="output_det", help="corrupted detection JSONL path")
    synth.add_argument("--spec", help="JSON scene spec file (overrides the scene flags)")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--vehicles", type=int)
    synth.add_argument("--duration", type=float)
    synth.add_argument("--interval", dest="frame_interval", type=float)
    synth.add_argument("--span", type=float)
    synth.add_argument("--stationary-frac", dest="stationary_frac", type=float)
    synth.add_argument("--straight-frac", dest="straight_frac", type=float)
    synth.add_argument("--turning-frac", dest="turning_frac", type=float)
    synth.add_argument("--speed-min", dest="speed_min", type=float)
    synth.add_argument("--speed-max", dest="speed_max", type=float)
    synth.add_argument("--radius-min", dest="radius_min", type=float)
    synth.add_argument("--radius-max", dest="radius_max", type=float)
    synth.add_argument("--model", choices=MODEL_NAMES,
                       help="motion parameters attached to the detection stream")
    synth.add_argument("--l-r", dest="rear_axle", type=float)
    synth.add_argument("--sigma-xy", dest="sigma_xy", type=float)
    synth.add_argument("--sigma-yaw", dest="sigma_yaw", type=float)
    synth.add_argument("--sigma-speed", dest="sigma_speed", type=float)
    synth.add_argument("--sigma-turn", dest="sigma_turn", type=float)
    synth.add_argument("--drop-prob", dest="drop_prob", type=float)
    synth.add_argument("--burst-frames", dest="burst_frames", type=int)
    synth.add_argument("--burst-frac", dest="burst_frac", type=float)
    synth.add_argument("--score-mean", dest="score_mean", type=float)
    synth.add_argument("--score-sigma", dest="score_sigma", type=float)
    synth.set_defaults(func=_cmd_synth)

    inverse = sub.add_parser("inverse", help="re-estimate motion parameters from tracks")
    inverse.add_argument("--input")
    inverse.add_argument("--output")
    inverse.add_argument("--model", choices=MODEL_NAMES)
    inverse.add_argument("--l-r", dest="rear_axle", type=float)
    inverse.set_defaults(func=_cmd_inverse)

    evaluate = sub.add_parser("eval", help="compare raw and fused detections against ground truth")
    evaluate.add_argument("--gt")
    evaluate.add_argument("--raw")
    evaluate.add_argument("--fused")
    evaluate.add_argument("--iou", type=float)
    evaluate.add_argument("--output", help="CSV output path")
    evaluate.set_defaults(func=_cmd_eval)

    traj = sub.add_parser("traj-compare", help="per-model forward-prediction error on one trajectory")
    traj.add_argument("--models", help=f"comma-separated list (default {','.join(MODEL_NAMES)})")
    traj.add_argument("--gen-model", dest="gen_model", choices=MODEL_NAMES)
    traj.add_argument("--speed", type=float)
    traj.add_argument("--radius", type=float,
                      help="signed turn radius in meters (positive turns left, negative right); 0 for straight")
    traj.add_argument("--l-r", dest="rear_axle", type=float)
    traj.add_argument("--interval", dest="frame_interval", type=float)
    traj.add_argument("--duration", type=float)
    traj.add_argument("--horizon", type=float)
    traj.add_argument("--output", help="CSV output path ('-' for stdout)")
    traj.set_defaults(func=_cmd_traj_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FrameFormatError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2


def script_main() -> None:
    sys.exit(main())
