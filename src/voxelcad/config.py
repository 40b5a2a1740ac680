"""Flat run configuration shared by the CLI and the evaluation driver.

One record mirrors every tunable knob across the modules. It loads from a
JSON file, accepts flag overrides on top (flags win), and `validate()`
re-checks every field against the owning module's constructor before any
work starts. Values from either source must first have the field's
declared JSON type: an integer (not a bool), a number, a string, or a
list of three integers. The JSON key for the L2 strength is "lambda";
the Python field is lambda_ to dodge the keyword.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .ann import Activation, TrainConfig, Trainer
from .features import DEFAULT_BINS, DEFAULT_BLOCK_GRID, FeatureKind, check_recipe
from .svm import KernelKind, KernelSpec
from .synth import (DEFAULT_DIMS, DEFAULT_NOISE_SIGMA, DEFAULT_SEPARATION,
                    SynthConfig)

_JSON_TO_FIELD = {"lambda": "lambda_"}
_FIELD_TO_JSON = {"lambda_": "lambda"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# declared field type -> (test, what the error message asks for)
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, int, int]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_int, v)),
        "a list of three integers"),
}


@dataclass(frozen=True)
class RunConfig:
    # synthetic cohort
    n_ad: int = SynthConfig.n_ad
    n_hc: int = SynthConfig.n_hc
    dims: tuple[int, int, int] = DEFAULT_DIMS
    separation: float = DEFAULT_SEPARATION
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    # feature extraction (PCA pipelines; the voxel baseline ignores these)
    feature_kind: str = "grayscale"
    block_grid: tuple[int, int, int] = DEFAULT_BLOCK_GRID
    bins: int = DEFAULT_BINS
    # pca
    pca_threshold: float = 0.95
    # svm
    kernel: str = "gaussian"
    kernel_scale: float = KernelSpec.scale
    C: float = 1.0
    svm_tol: float = 1e-3
    # ann
    hidden: int = TrainConfig.hidden
    activation: str = "tansig"
    trainer: str = "lm"
    max_iters: int = TrainConfig.max_iters
    lambda_: float = TrainConfig.lambda_
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    goal_sse: float = TrainConfig.goal_sse
    patience: int = TrainConfig.patience
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
        """Run every owning module's precondition checks up front, after
        refusing a non-finite number in any float field."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        self.synth_config()
        self.feature_kind_enum()
        self.kernel_spec()
        self.train_config()
        check_recipe(self.block_grid, self.bins)
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
        """defaults <- JSON file <- overrides; unknown keys, values of the
        wrong JSON type and non-finite numbers are errors that name the key."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        merged: dict = {}

        def take(key, value, label):
            field = _JSON_TO_FIELD.get(key, key)
            if field not in types:
                raise ValueError(f"unknown {label}")
            test, want = _TYPE_CHECKS[types[field]]
            if not test(value):
                raise ValueError(f"{label} must be {want}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value!r}")
            merged[field] = value

        if config_path is not None:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"config file {config_path} must hold a JSON object")
            for key, value in loaded.items():
                take(key, value, f"config key {key!r} in {config_path}")
        for key, value in (overrides or {}).items():
            if value is not None:
                take(key, value, f"config override {key!r}")
        return cls(**merged)
