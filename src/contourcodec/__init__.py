"""Lossless geometric-context coding and RD-optimal approximation of
depth-image object contours, with view-consistent image augmentation."""

from .aec import AecParams, BitstreamError, decode, encode, estimate_rate
from .approx import ApproxConfig, approximate_contour
from .augment import approximate_stereo, synthesize_view
from .contour import detect_contours
from .image_io import SceneSpec, make_synthetic_scene
from .swim import SwimConfig, row_distortion, swim_score

__version__ = "0.1.0"
