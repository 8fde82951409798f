"""Command-line entry points: fuse, synth, inverse, eval, traj-compare.

Every option of every command is one row of `OPTIONS`: its flags, its
destination where that differs from the flag name, and its type, default,
choices and help. `_opt` resolves an option in one order: the flag, then the
environment variable BOXFUSE_ plus the flag name (BOXFUSE_DECAY for --decay,
BOXFUSE_L_R for --l-r), then the --config file (fuse only), then the
--preset or the table default. An environment value is cast with the flag's
type and checked against its choices. A --config or --spec value, arrays read
as tuples, is checked against its field's annotation by the rule the config
dataclasses run (rules.require_type), and a config value keeps its JSON form.
Exit codes: 0 success, 1 usage error, 2 data error. All commands are
deterministic given their inputs, flags and seed; output files carry a meta
header echoing the resolved configuration, and the fuse and inverse headers
also name the package version and the SHA-256 of the input file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import time
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .evaluation import evaluate_enhancement
from .frames import Frame
from .fusion import PRESETS, SCORE_STRATEGIES, FusionConfig, fuse_frames, sliding_windows
from .geometry import Pose, normalize_angle, transform_box
from .io import (
    FrameFormatError,
    dumps_frame,
    dumps_line,
    frame_line,
    frame_to_obj,
    iter_frames,
    json_column,
    read_frames,
    write_frames,
)
from .motion import MODEL_NAMES, default_rear_axle, estimate_params_from_track, forward, model_class
from .synth import (
    PRNG_NAME,
    CorruptionSpec,
    TrajectorySpec,
    _motion_in_ego,
    corrupt,
    generate_mixed_scene,
    reattach_params,
    reattach_scene_params,
)
from .rules import field_types, require_type

# transform_box, _motion_in_ego and frame_to_obj are no longer called here, but
# the benchmark's per-layer tracing binds them in this module (bench/tracing.py).

TOOL = "boxfuse"
ENV_PREFIX = "BOXFUSE_"


@dataclasses.dataclass(frozen=True)
class _Option:
    """One row of OPTIONS: space-separated flags, the long one first.

    dest defaults to the long flag's name, and a required option without a
    value is a data error rather than a usage error, since the environment
    may supply it.
    """

    flags: str
    type: type = str
    default: object = None
    help: str | None = None
    dest: str | None = None
    choices: tuple | None = None
    required: bool = False

    def __post_init__(self) -> None:
        if self.dest is None:
            object.__setattr__(self, "dest", self.name)

    @property
    def name(self) -> str:
        """The long flag's name: --l-r gives l_r, so its variable is BOXFUSE_L_R."""
        return self.flags.split()[0][2:].replace("-", "_")

    @property
    def env(self) -> str:
        return ENV_PREFIX + self.name.upper()


OPTIONS: dict[str, tuple[_Option, ...]] = {
    "fuse": (
        _Option("--input", help="input frame JSONL", required=True),
        _Option("--output", help="output frame JSONL", required=True),
        _Option("--preset", help=f"named configuration: {', '.join(sorted(PRESETS))}"),
        _Option("--config", help="JSON file with fusion settings (flags override)"),
        _Option("--frames -n", int, FusionConfig.n_history, "history frames to fuse", dest="n_history"),
        _Option("--decay", float, FusionConfig.weight_decay, "per-interval confidence decay", dest="weight_decay"),
        _Option("--iou-low", float, FusionConfig.iou_low, "suppression IoU threshold"),
        _Option("--iou-high", float, FusionConfig.iou_high, "merge IoU threshold"),
        _Option("--interval", float, FusionConfig.frame_interval, "frame interval in seconds", dest="frame_interval"),
        _Option("--strategy", str, FusionConfig.score_strategy, "history-only score strategy",
                dest="score_strategy", choices=SCORE_STRATEGIES),
        _Option("--score-decay", float, FusionConfig.score_decay_factor, "divide-strategy score factor",
                dest="score_decay_factor"),
        _Option("--history-floor", float, FusionConfig.history_score_floor,
                "drop history-only boxes scoring below this", dest="history_score_floor"),
    ),
    "synth": (
        _Option("--output-gt", help="ground-truth JSONL path", required=True),
        _Option("--output-det", help="corrupted detection JSONL path", required=True),
        _Option("--spec", help="JSON scene spec file (overrides the scene flags)"),
        _Option("--seed", int, 0),
        _Option("--vehicles", int, 50),
        _Option("--duration", float, 2.0),
        _Option("--interval", float, 0.1, dest="frame_interval"),
        _Option("--span", float, 120.0),
        _Option("--stationary-frac", float, 0.63),
        _Option("--straight-frac", float, 0.31),
        _Option("--turning-frac", float, 0.05),
        _Option("--speed-min", float, 6.0),
        _Option("--speed-max", float, 14.0),
        _Option("--radius-min", float, 10.0),
        _Option("--radius-max", float, 24.0),
        _Option("--model", str, "cv", "motion parameters attached to the detection stream", choices=MODEL_NAMES),
        _Option("--l-r", float, dest="rear_axle"),
        # the corruption flags: each destination is a CorruptionSpec field, defaulting to its default
        _Option("--sigma-xy", float, CorruptionSpec.sigma_xy),
        _Option("--sigma-yaw", float, CorruptionSpec.sigma_yaw),
        _Option("--sigma-speed", float, CorruptionSpec.sigma_speed),
        _Option("--sigma-turn", float, CorruptionSpec.sigma_turn),
        _Option("--drop-prob", float, CorruptionSpec.drop_prob),
        _Option("--burst-frames", int, CorruptionSpec.burst_frames),
        _Option("--burst-frac", float, CorruptionSpec.burst_vehicle_frac, dest="burst_vehicle_frac"),
        _Option("--score-mean", float, CorruptionSpec.score_mean),
        _Option("--score-sigma", float, CorruptionSpec.score_sigma),
    ),
    "inverse": (
        _Option("--input", required=True),
        _Option("--output", required=True),
        _Option("--model", str, "cv", choices=MODEL_NAMES),
        _Option("--l-r", float, dest="rear_axle"),
    ),
    "eval": (
        _Option("--gt", required=True),
        _Option("--raw", required=True),
        _Option("--fused", required=True),
        _Option("--iou", float, 0.5),
        _Option("--output", help="CSV output path"),
    ),
    "traj-compare": (
        _Option("--models", str, ",".join(MODEL_NAMES), "comma-separated list"),
        _Option("--gen-model", str, "bicycle", choices=MODEL_NAMES),
        _Option("--speed", float, 10.0),
        _Option("--radius", float, None, "signed turn radius in meters (positive turns left, negative right); "
                "0 for straight; default 20 for a generator that turns, 0 for cv"),
        _Option("--l-r", float, default_rear_axle(TrajectorySpec.box_size[1]), dest="rear_axle"),
        _Option("--interval", float, 0.1, dest="frame_interval"),
        _Option("--duration", float, 0.0),
        _Option("--horizon", float, 0.4),
        _Option("--output", help="CSV output path ('-' for stdout)"),
    ),
}
_ROWS = {command: {row.dest: row for row in rows} for command, rows in OPTIONS.items()}
#: synth's TrajectorySpec fields (and its n_frames) whose flags have other
#: destinations; every other field of a config dataclass that an option sets
#: is its destination
_SPEC_DESTS = {"origin_span": ("span",), "speed_range": ("speed_min", "speed_max"),
               "radius_range": ("radius_min", "radius_max"), "n_frames": ("duration", "frame_interval")}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _opt(args: argparse.Namespace, dest: str, *fallbacks: dict):
    """The command's option `dest`: its flag, else its BOXFUSE_ variable, else
    the first fallback mapping that holds dest, else the table default.

    A variable's value is cast with the flag's type and checked against its
    choices; ValueError names the variable, or the option of a required one
    that has no value.
    """
    row = _ROWS[args.command][dest]
    value = getattr(args, dest)
    name = row.env
    if value is None and name in os.environ:
        raw = os.environ[name]
        try:
            value = row.type(raw)
        except ValueError as exc:
            raise ValueError(f"environment variable {name}={raw!r}: {exc}") from None
        if row.choices and value not in row.choices:
            raise ValueError(f"environment variable {name}={raw!r}: choose from {', '.join(row.choices)}")
    if value is None:
        value = next((values[dest] for values in fallbacks if dest in values), row.default)
    if value is None and row.required:
        raise _option_error(args, (dest,), f"{dest} is required")
    return value


def _option_error(args: argparse.Namespace, dests, message, config=()) -> ValueError:
    """The one form of a rejected option value: "<flag> (<VARIABLE>): message", naming
    the options of `dests` that a flag or variable gave (all of them when none was),
    then each of dests among the --config keys `config`, joined by "or"."""
    rows = [_ROWS[args.command][dest] for dest in dests]
    rows = [row for row in rows if getattr(args, row.dest) is not None or row.env in os.environ] or rows
    named = [f"{row.flags.split()[0]} ({row.env})" for row in rows]
    named += [f"--config key {dest!r}" for dest in dests if dest in config]
    return ValueError(f"{' or '.join(named)}: {message}")


def _checked(args: argparse.Namespace, dest: str, accept, requirement: str):
    """The option `dest`, or a ValueError naming it unless it is unset (None)
    or accept(value); a check that only the CLI makes, written so that NaN fails it."""
    value = _opt(args, dest)
    if value is not None and not accept(value):
        raise _option_error(args, (dest,), f"{dest} must be {requirement}, got {value!r}")
    return value


def _settings(args: argparse.Namespace, cls, values: dict, config=()):
    """cls(**values), a config dataclass that the command's options set (FusionConfig,
    TrajectorySpec, CorruptionSpec). Its checks' messages begin with the field at
    fault, so a ValueError names the options, and the --config key in `config`, that set it."""
    try:
        return cls(**values)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        dests = [dest for dest in _SPEC_DESTS.get(field, (field,)) if dest in _ROWS[args.command]]
        if not dests:
            raise
        raise _option_error(args, dests, exc, config) from None


def _positive(value) -> bool:
    return 0.0 < value < math.inf


def _fusion_config(args: argparse.Namespace) -> FusionConfig:
    preset = _checked(args, "preset", PRESETS.__contains__, f"one of {', '.join(sorted(PRESETS))}")
    base = dataclasses.asdict(PRESETS[preset]) if preset else {}
    config_path = _opt(args, "config")
    file_values = _json_fields(FusionConfig, _json_file(config_path, "--config"), "--config") if config_path else {}
    return _settings(args, FusionConfig, {key: _opt(args, key, file_values, base) for key in field_types(FusionConfig)},
                     file_values)


@contextlib.contextmanager
def _replacing(path: str):
    """Write a sibling temporary file that replaces `path` only when the block succeeds.

    The temporary file is created under a name no file holds yet, so a
    leftover of a killed run cannot block it. On failure the temporary file is
    removed and `path` keeps its earlier content. A path that exists but is
    not a regular file (a pipe, /dev/null) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            yield out
        return
    for attempt in itertools.count():
        tmp = f"{path}.{os.getpid()}.{attempt}.tmp"
        with contextlib.suppress(FileExistsError):
            out = open(tmp, "x", encoding="utf-8", newline="\n")
            break
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
    input_path = _opt(args, "input")
    output_path = _opt(args, "output")
    meta = {"tool": TOOL, "version": __version__, "format": 1, "command": "fuse",
            "input_sha256": _sha256(input_path), "config": dataclasses.asdict(cfg)}
    latencies: list[float] = []
    try:
        with _replacing(output_path) as out:
            out.write(dumps_line({"meta": meta}) + "\n")
            for window in sliding_windows(iter_frames(input_path), cfg.n_history + 1):
                start = time.perf_counter()
                fused = fuse_frames(window, cfg)
                latencies.append((time.perf_counter() - start) * 1000.0)
                out.write(dumps_frame(fused) + "\n")
    except FrameFormatError:
        raise
    except ValueError as exc:
        # a frame the reader accepted failed the stream checks or fusion; it is frame len(latencies)
        raise FrameFormatError(str(exc), frame_line(input_path, len(latencies))) from exc
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


def _allocate_counts(total: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of `total` across fractions, which sum to a positive value."""
    weight = sum(fractions)
    exact = [total * f / weight for f in fractions]
    counts = [int(math.floor(e)) for e in exact]
    order = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in range(total - sum(counts)):
        counts[order[i % len(order)]] += 1
    assert sum(counts) == total and min(counts) >= 0, counts
    return counts


def _synth_groups(args: argparse.Namespace, rear_axle: float | None) -> list[tuple[TrajectorySpec, int]]:
    total = _checked(args, "vehicles", lambda n: n >= 1, "at least 1")
    try:
        json_column([total], lambda k: "vehicles")  # the allocation takes the count as a float
    except ValueError as exc:
        raise _option_error(args, ("vehicles",), exc) from None
    mix = ("stationary_frac", "straight_frac", "turning_frac")
    fracs = [_checked(args, dest, lambda f: 0.0 <= f < math.inf, "finite and non-negative") for dest in mix]
    if not sum(fracs) > 0.0:
        raise _option_error(args, mix, "the vehicle mix fractions must sum to a positive value")
    common = dict(duration=_opt(args, "duration"), frame_interval=_opt(args, "frame_interval"),
                  origin_span=_opt(args, "span"))
    speed = (_opt(args, "speed_min"), _opt(args, "speed_max"))
    radius = (_opt(args, "radius_min"), _opt(args, "radius_max"))
    # stationary, straight and turning vehicles, in the order of the mix
    shapes = (dict(model="cv", speed_range=(0.0, 0.0)), dict(model="cv", speed_range=speed),
              dict(model="bicycle", speed_range=speed, radius_range=radius, rear_axle=rear_axle))
    specs = [_settings(args, TrajectorySpec, {**shape, **common}) for shape in shapes]
    return [(spec, count) for spec, count in zip(specs, _allocate_counts(total, fracs)) if count > 0]


def _known_keys(obj, allowed, where: str) -> dict:
    """obj, when it is a JSON object holding only allowed keys; ValueError naming `where` otherwise."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
    return obj


@contextlib.contextmanager
def _naming(flag: str):
    """Prefix `flag` to a ValueError raised in the block: the file that flag named is malformed."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _json_file(path: str, flag: str):
    """The JSON value of the file at `path`, which `flag` named; ValueError names the flag when it is malformed."""
    with open(path, "r", encoding="utf-8") as fh, _naming(flag):
        return json.load(fh)


def _tuples(value):
    """A JSON value with every array, at any depth, as a tuple, the form of a config dataclass's tuple fields."""
    return tuple(map(_tuples, value)) if type(value) is list else value


def _json_fields(cls, obj, where: str) -> dict:
    """The fields of the dataclass cls that the JSON object obj sets, arrays as tuples, each checked by
    the type rule that cls's constructor runs; ValueError names `where` and the key."""
    types = field_types(cls)
    values = {key: _tuples(value) for key, value in _known_keys(obj, types, where).items()}
    for key, value in values.items():
        require_type(f"{where}: key {key!r}", value, types[key])
    return values


def _spec_from_obj(cls, obj, where: str):
    """A TrajectorySpec or CorruptionSpec from its --spec object; ValueError names `where`, and the key."""
    values = _json_fields(cls, obj, where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _spec_scene(raw) -> tuple[list[tuple[TrajectorySpec, int]], CorruptionSpec]:
    """The vehicle groups and the corruption of a --spec file, checked key by key.

    The file is {"groups": [{"spec": {...}, "count": n}, ...], "corruption": {...}}
    with "corruption" optional; count is a JSON integer >= 0.
    """
    _known_keys(raw, ("groups", "corruption"), "--spec")
    if type(raw.get("groups")) is not list:
        raise ValueError(f"--spec: key 'groups' must be a list, got {raw.get('groups')!r}")
    if not raw["groups"]:
        raise ValueError("--spec: no vehicle groups")
    groups = []
    for i, group in enumerate(raw["groups"]):
        where = f"--spec group {i}"
        count = _known_keys(group, ("spec", "count"), where).get("count")
        if type(count) is not int or count < 0:
            raise ValueError(f"{where}: key 'count' must be a JSON integer >= 0, got {count!r}")
        json_column([count], lambda k: f"{where}: key 'count'")  # the scene lays vehicles out with float counts
        groups.append((_spec_from_obj(TrajectorySpec, group.get("spec"), f"{where}: key 'spec'"), count))
    return groups, _spec_from_obj(CorruptionSpec, raw.get("corruption", {}), "--spec: key 'corruption'")


def _cmd_synth(args: argparse.Namespace) -> int:
    """Write a scene's ground truth and its corrupted detections, which carry the `--model` fit of their tracks."""
    seed = _checked(args, "seed", lambda n: n >= 0, "non-negative")
    rear_axle = _checked(args, "rear_axle", _positive, "positive and finite")
    model = _opt(args, "model")
    spec_path = _opt(args, "spec")
    if spec_path:
        groups, cspec = _spec_scene(_json_file(spec_path, "--spec"))
    else:
        groups = _synth_groups(args, rear_axle)
        cspec = _settings(args, CorruptionSpec, {name: _opt(args, name) for name in field_types(CorruptionSpec)
                                                 if name in _ROWS["synth"]})
    gt_path = _opt(args, "output_gt")
    det_path = _opt(args, "output_det")
    gt = generate_mixed_scene(groups, seed)
    det = corrupt(reattach_scene_params(gt, groups, model, rear_axle), cspec, seed)
    meta = {"tool": TOOL, "format": 1, "seed": seed, "prng": PRNG_NAME,
            "groups": [{"spec": dataclasses.asdict(spec), "count": count} for spec, count in groups]}
    write_frames(gt_path, gt, meta={**meta, "command": "synth-gt"})
    write_frames(det_path, det, meta={**meta, "command": "synth-det", "model": model,
                                      "corruption": dataclasses.asdict(cspec)})
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    model = _opt(args, "model")
    rear_axle = _checked(args, "rear_axle", _positive, "positive and finite")
    input_path = _opt(args, "input")
    out = reattach_params(read_frames(input_path), model, rear_axle)
    meta = {"tool": TOOL, "version": __version__, "format": 1, "command": "inverse",
            "input_sha256": _sha256(input_path), "model": model}
    write_frames(_opt(args, "output"), out, meta=meta)
    return 0


def _frames_of(path: str, flag: str) -> Iterator[Frame]:
    """iter_frames of the file at `path`, which `flag` named; ValueError names the flag when it is malformed."""
    with _naming(flag):
        yield from iter_frames(path)


def _cmd_eval(args: argparse.Namespace) -> int:
    threshold = _checked(args, "iou", lambda iou: iou >= 0.0, "non-negative")
    _checked(args, "iou", lambda iou: iou < 1.0, "below 1")
    gt_path = _opt(args, "gt")
    with _naming("--gt"):
        gt = read_frames(gt_path)
    # evaluation reads raw and fused one frame at a time
    raw, fused = (_frames_of(_opt(args, dest), f"--{dest}") for dest in ("raw", "fused"))
    report = evaluate_enhancement(gt, raw, fused, threshold)
    print(report.to_text())
    output = _opt(args, "output")
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("subset,metric,raw,fused,delta\n")
            for subset, metric, raw_v, fused_v, delta in report.csv_rows():
                fh.write(f"{subset},{metric},{raw_v!r},{fused_v!r},{delta!r}\n")
    return 0


def _intervals(args: argparse.Namespace, dest: str, span: float, interval: float) -> int:
    """round(span / interval), or a ValueError naming the option `dest` and --interval when it overflows."""
    ratio = span / interval
    if not ratio < math.inf:
        raise _option_error(args, (dest, "frame_interval"), f"{dest} / frame_interval overflows, got {span!r} / "
                            f"{interval!r}")
    return int(round(ratio))


def _cmd_traj_compare(args: argparse.Namespace) -> int:
    listed = _opt(args, "models")
    models = [m for m in map(str.strip, listed.split(",")) if m]
    if not models or not set(models) <= set(MODEL_NAMES):
        raise _option_error(args, ("models",), f"models must list motion models from {', '.join(MODEL_NAMES)}, "
                            f"got {listed!r}")
    gen_class = model_class(_opt(args, "gen_model"))
    speed = _checked(args, "speed", math.isfinite, "finite")
    radius = _checked(args, "radius", math.isfinite, "finite")
    interval = _checked(args, "frame_interval", _positive, "positive and finite")
    rear_axle = _checked(args, "rear_axle", _positive, "positive and finite")
    horizon = _checked(args, "horizon", _positive, "positive and finite")
    duration = _checked(args, "duration", lambda d: 0.0 <= d < math.inf, "finite and non-negative")
    if radius is None:
        radius = 20.0 if gen_class.turns else 0.0
    steps = max(1, _intervals(args, "horizon", horizon, interval))
    n_frames = max(_intervals(args, "duration", duration, interval) + 1, 2 * steps + 3)
    try:
        gen = gen_class.from_motion(speed, 0.0, radius if radius != 0 else None, rear_axle)
    except ValueError as exc:
        # cv cannot turn, and a bicycle's turn radius must exceed its arm
        raise _option_error(args, ("radius",), exc) from None
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
    commands = {
        "fuse": (_cmd_fuse, "fuse a frame stream with its history"),
        "synth": (_cmd_synth, "generate a synthetic scene (GT + corrupted detections)"),
        "inverse": (_cmd_inverse, "re-estimate motion parameters from tracks"),
        "eval": (_cmd_eval, "compare raw and fused detections against ground truth"),
        "traj-compare": (_cmd_traj_compare, "per-model forward-prediction error on one trajectory"),
    }
    for command, (func, help_text) in commands.items():
        command_parser = sub.add_parser(command, help=help_text)
        for row in OPTIONS[command]:
            command_parser.add_argument(*row.flags.split(), dest=row.dest, type=row.type, choices=row.choices,
                                        help=row.help)
        command_parser.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2


def script_main() -> None:
    sys.exit(main())
