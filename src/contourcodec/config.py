"""Flat key=value configuration for the batch pipeline.

File keys follow the knob names used throughout: kappa, omega, K (context
length), W (match half-window), N (block size), L (histogram bins), D0
(distortion normalizer, "auto" = block count), rho (inter-view penalty),
threshold (edge detection), disparity_scale, alphas, lambdas, seed, merge
(1/0, true/false, yes/no or on/off, in any case).  Lines are ``key = value``;
'#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aec import AecParams
from .approx import ApproxConfig
from .image_io import checked, parse_key_values
from .swim import SwimConfig


@dataclass(frozen=True)
class PipelineConfig:
    kappa: float = 2.0
    omega: float = 1.0
    context: int = 3
    window: int = 10
    block: int = 16
    bins: int = 10
    norm: float | None = None
    rho: float = 1e6
    threshold: int = 30
    disparity_scale: float = 1.0
    alphas: tuple = (0.25, 0.5, 0.75)
    lambdas: tuple = (0.0, 0.5, 2.0, 8.0)
    seed: int = 0
    merge: bool = True

    def __post_init__(self):
        for lam in (0.0, *self.lambdas):
            self.approx_config(lam)  # AecParams, SwimConfig and ApproxConfig check their fields
        if not self.lambdas:
            raise ValueError("lambdas must not be empty")
        if not self.alphas or not all(0 < a < 1 for a in self.alphas):
            raise ValueError("alphas must be a non-empty list of values in (0, 1)")
        if not 0 < self.disparity_scale < math.inf:
            raise ValueError("disparity_scale must be finite and > 0")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    def aec_params(self) -> AecParams:
        return AecParams(context_len=self.context, kappa=self.kappa, omega=self.omega)

    def swim_config(self) -> SwimConfig:
        return SwimConfig(block=self.block, window=self.window, bins=self.bins, norm=self.norm)

    def approx_config(self, lagrange: float = 0.0) -> ApproxConfig:
        return ApproxConfig(
            lagrange=lagrange,
            interview_weight=self.rho,
            merge=self.merge,
            aec=self.aec_params(),
            swim=self.swim_config(),
        )


def _norm(text: str) -> float | None:
    return None if text.lower() in ("auto", "none") else float(text)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


_FLAGS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError(f"expected one of {', '.join(_FLAGS)}")
    return _FLAGS[text.lower()]


# file key: (PipelineConfig field, converter of the value text)
_KEYS = {
    "kappa": ("kappa", float),
    "omega": ("omega", float),
    "K": ("context", int),
    "W": ("window", int),
    "N": ("block", int),
    "L": ("bins", int),
    "D0": ("norm", _norm),
    "rho": ("rho", float),
    "threshold": ("threshold", int),
    "disparity_scale": ("disparity_scale", float),
    "alphas": ("alphas", _floats),
    "lambdas": ("lambdas", _floats),
    "seed": ("seed", int),
    "merge": ("merge", _flag),
}


def parse_config(text: str) -> PipelineConfig:
    values = parse_key_values(text, "config", {key: checked(PipelineConfig, field, convert) for key, (field, convert) in _KEYS.items()})
    return PipelineConfig(**{_KEYS[key][0]: value for key, value in values.items()})


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
