"""Lossless geometric-context coding and RD-optimal approximation of
depth-image object contours, with view-consistent image augmentation."""

from .aec import AecParams, BitstreamError, decode, edge_probabilities, encode, estimate_rate, fit_line
from .approx import (
    ApproxConfig,
    RdCost,
    approximate_contour,
    approximate_segment,
    merge_segments,
)
from .augment import (
    ChangeMask,
    StereoResult,
    approximate_stereo,
    augment_color,
    augment_depth,
    synthesize_view,
    warp_view,
)
from .config import PipelineConfig, load_config, parse_config
from .contour import (
    Contour,
    Segment,
    detect_contours,
    format_contours,
    parse_contours,
    segment_endpoint,
    split_segments,
    to_relative,
)
from .image_io import (
    ColorImage,
    DepthImage,
    ImageFormatError,
    SceneSpec,
    load_color,
    load_depth,
    make_synthetic_scene,
    parse_scene_spec,
    render_scene_view,
    save_color,
    save_depth,
)
from .swim import (
    SwimConfig,
    best_match,
    block_distortion,
    haar_row,
    laplace_fit,
    laplace_ks,
    row_distortion,
    swim_score,
)

__version__ = "0.1.0"
