"""Flat run configuration shared by the CLI and the evaluation driver.

One record mirrors every tunable knob across the modules. It loads from a
JSON file, accepts flag overrides on top (flags win), and `validate()`
re-checks every field against the owning module's constructor before any
work starts. The JSON key for the L2 strength is "lambda"; the Python
field is lambda_ to dodge the keyword.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .ann import Activation, TrainConfig, Trainer
from .features import DEFAULT_BINS, DEFAULT_BLOCK_GRID, FeatureKind
from .svm import KernelKind, KernelSpec
from .synth import (DEFAULT_DIMS, DEFAULT_NOISE_SIGMA, DEFAULT_SEPARATION,
                    SynthConfig)

_JSON_TO_FIELD = {"lambda": "lambda_"}
_FIELD_TO_JSON = {"lambda_": "lambda"}


@dataclass(frozen=True)
class RunConfig:
    # synthetic cohort
    n_ad: int = 210
    n_hc: int = 90
    dims: tuple[int, int, int] = DEFAULT_DIMS
    separation: float = DEFAULT_SEPARATION
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    # feature extraction (PCA pipelines; the voxel baseline ignores these)
    feature_kind: str = "grayscale"
    block_grid: tuple[int, int, int] = DEFAULT_BLOCK_GRID
    bins: int = DEFAULT_BINS
    # pca
    pca_threshold: float = 0.95
    pca_prescale: bool = False
    # svm
    kernel: str = "gaussian"
    kernel_scale: float = 2.8
    C: float = 1.0
    svm_tol: float = 1e-3
    # ann
    hidden: int = 100
    activation: str = "tansig"
    trainer: str = "lm"
    max_iters: int = 1000
    lambda_: float = 0.0
    lr: float = 0.01
    momentum: float = 0.9
    goal_sse: float = 1e-6
    patience: int = 6
    # cross-validation
    folds: int = 5
    val_fraction: float = 0.10
    # global
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "block_grid", tuple(int(v) for v in self.block_grid))
        for name in ("feature_kind", "kernel", "activation", "trainer"):
            object.__setattr__(self, name, str(getattr(self, name)).strip().lower())

    # --- factories reusing each module's own validation ---

    def synth_config(self) -> SynthConfig:
        return SynthConfig(n_ad=self.n_ad, n_hc=self.n_hc, dims=self.dims,
                           seed=self.seed, separation=self.separation,
                           noise_sigma=self.noise_sigma)

    def feature_kind_enum(self) -> FeatureKind:
        try:
            return FeatureKind(self.feature_kind.upper())
        except ValueError:
            raise ValueError(
                f"feature_kind must be 'grayscale' or 'vaf', got {self.feature_kind!r}"
            ) from None

    def kernel_spec(self) -> KernelSpec:
        try:
            kind = KernelKind(self.kernel.upper())
        except ValueError:
            raise ValueError(
                f"kernel must be 'linear' or 'gaussian', got {self.kernel!r}"
            ) from None
        return KernelSpec(kind=kind, scale=self.kernel_scale)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        try:
            activation = Activation(self.activation.upper())
        except ValueError:
            raise ValueError(
                f"activation must be 'tansig' or 'relu', got {self.activation!r}"
            ) from None
        try:
            trainer = Trainer(self.trainer.upper())
        except ValueError:
            raise ValueError(
                f"trainer must be 'lm' or 'gdm', got {self.trainer!r}"
            ) from None
        return TrainConfig(hidden=self.hidden, activation=activation,
                           trainer=trainer, max_iters=self.max_iters,
                           goal_sse=self.goal_sse, lr=self.lr,
                           momentum=self.momentum, lambda_=self.lambda_,
                           patience=self.patience,
                           seed=self.seed if seed is None else int(seed))

    def validate(self) -> "RunConfig":
        """Run every owning module's precondition checks up front."""
        self.synth_config()
        self.feature_kind_enum()
        self.kernel_spec()
        self.train_config()
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not 0.0 < self.pca_threshold <= 1.0:
            raise ValueError("pca_threshold must lie in (0, 1]")
        if not self.C > 0:
            raise ValueError("C must be > 0")
        if not self.svm_tol > 0:
            raise ValueError("svm_tol must be > 0")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        return self

    # --- serialization / merging ---

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[_FIELD_TO_JSON.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_sources(cls, config_path=None, overrides: dict | None = None) -> "RunConfig":
        """defaults <- JSON file <- overrides; unknown keys are errors."""
        known = {f.name for f in dataclasses.fields(cls)}
        merged: dict = {}
        if config_path is not None:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"config file {config_path} must hold a JSON object")
            for key, value in loaded.items():
                field = _JSON_TO_FIELD.get(key, key)
                if field not in known:
                    raise ValueError(f"unknown config key {key!r} in {config_path}")
                merged[field] = value
        for key, value in (overrides or {}).items():
            field = _JSON_TO_FIELD.get(key, key)
            if field not in known:
                raise ValueError(f"unknown config override {key!r}")
            if value is not None:
                merged[field] = value
        return cls(**merged)
