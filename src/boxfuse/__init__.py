"""Temporal fusion of 3D detection boxes with vehicle motion models.

The library forwards history detection frames to the current timestamp with
per-box motion parameters (constant velocity, unicycle or kinematic bicycle),
merges the dense overlapped set by weighted NMS with confidence decay, and
ships the synthetic-scene and evaluation tooling needed to measure the
enhancement end to end.
"""

from .evaluation import (
    APResult,
    EnhancementReport,
    MatchResult,
    PRCurvePoint,
    SubsetMetrics,
    average_precision,
    evaluate_enhancement,
    filter_detections_to_subset,
    gt_subset,
    match_frame,
    split_motion_state,
    strict_turning_tracks,
)
from .frames import Detection, Frame
from .fusion import (
    FusionConfig,
    PRESETS,
    apply_score_strategy,
    decayed_weight,
    forward_frame,
    fuse_frames,
    fuse_sequence,
    sliding_windows,
    weighted_nms,
)
from .geometry import (
    Box3D,
    EgoPose,
    Pose,
    bev_corners,
    bev_iou,
    normalize_angle,
    transform_box,
)
from .io import (
    FrameFormatError,
    iter_frames,
    read_frames,
    read_meta,
    write_frames,
)
from .motion import (
    Bicycle,
    ConstantVelocity,
    FitDivergence,
    FitReport,
    MotionParams,
    Unicycle,
    estimate_params_from_track,
    forward,
    forward_bicycle,
    forward_box,
    forward_cv,
    forward_unicycle,
    inverse_bicycle,
    inverse_cv,
    inverse_unicycle,
    model_name,
    numeric_forward,
    numeric_forward_batch,
)
from .synth import (
    CorruptionSpec,
    TrajectorySpec,
    corrupt,
    generate_ground_truth,
    generate_mixed_scene,
    reattach_params,
)

__version__ = "0.1.0"
