import dataclasses
import json

import pytest

from voxelcad.ann import Activation, Trainer
from voxelcad.config import RunConfig
from voxelcad.features import FeatureKind
from voxelcad.svm import KernelKind


def test_defaults_match_module_constants():
    cfg = RunConfig()
    assert (cfg.n_ad, cfg.n_hc) == (210, 90)
    assert cfg.dims == (34, 47, 39)
    assert cfg.separation == 6.0
    assert cfg.feature_kind == "grayscale"
    assert cfg.block_grid == (4, 4, 4) and cfg.bins == 32
    assert cfg.pca_threshold == 0.95
    assert (cfg.kernel, cfg.kernel_scale, cfg.C) == ("gaussian", 2.8, 1.0)
    assert (cfg.hidden, cfg.activation, cfg.trainer) == (100, "tansig", "lm")
    assert (cfg.folds, cfg.val_fraction, cfg.seed) == (5, 0.10, 0)
    assert cfg.validate() is cfg


def test_post_init_normalizes_fields():
    cfg = RunConfig(dims=[10.0, 11, 12], kernel=" GAUSSIAN ",
                    activation="TanSig", block_grid=(2, 2, 2))
    assert cfg.dims == (10, 11, 12)
    assert all(isinstance(v, int) for v in cfg.dims)
    assert cfg.kernel == "gaussian"
    assert cfg.activation == "tansig"


def test_factories_reuse_module_enums():
    cfg = RunConfig(n_ad=4, n_hc=3, dims=(5, 5, 5), seed=7,
                    kernel="linear", activation="relu", trainer="gdm",
                    hidden=2, max_iters=9)
    sc = cfg.synth_config()
    assert (sc.n_ad, sc.n_hc, sc.seed) == (4, 3, 7)
    assert cfg.feature_kind_enum() is FeatureKind.GRAYSCALE
    assert cfg.kernel_spec().kind is KernelKind.LINEAR
    tc = cfg.train_config()
    assert tc.activation is Activation.RELU
    assert tc.trainer is Trainer.GDM
    assert (tc.hidden, tc.max_iters, tc.seed) == (2, 9, 7)
    assert cfg.train_config(seed=123).seed == 123


def test_factory_error_messages():
    with pytest.raises(ValueError, match="feature_kind"):
        RunConfig(feature_kind="wavelet").feature_kind_enum()
    with pytest.raises(ValueError, match="kernel"):
        RunConfig(kernel="poly").kernel_spec()
    with pytest.raises(ValueError, match="activation"):
        RunConfig(activation="sigmoid").train_config()
    with pytest.raises(ValueError, match="trainer"):
        RunConfig(trainer="adam").train_config()


@pytest.mark.parametrize("bad", [
    dict(n_ad=0),
    dict(noise_sigma=0.0),
    dict(bins=0),
    dict(pca_threshold=0.0),
    dict(pca_threshold=1.5),
    dict(kernel_scale=-1.0),
    dict(C=0.0),
    dict(svm_tol=0.0),
    dict(hidden=0),
    dict(lambda_=-0.5),
    dict(folds=1),
    dict(val_fraction=1.0),
])
def test_validate_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad).validate()


_FLOAT_FIELDS = ["separation", "noise_sigma", "pca_threshold", "kernel_scale", "C",
                 "svm_tol", "lambda_", "lr", "momentum", "goal_sse", "val_fraction"]


def test_the_non_finite_cases_cover_every_float_field():
    assert _FLOAT_FIELDS == [f.name for f in dataclasses.fields(RunConfig)
                             if f.type == "float"]


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_validate_refuses_non_finite_numbers(name):
    # as a RunConfig built in Python, not through from_sources, carries them
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            RunConfig(**{name: value}).validate()


def test_to_dict_uses_json_names():
    d = RunConfig(lambda_=0.25).to_dict()
    assert d["lambda"] == 0.25
    assert "lambda_" not in d
    assert d["dims"] == [34, 47, 39]
    assert d["block_grid"] == [4, 4, 4]
    assert RunConfig.from_sources(overrides=d) == RunConfig(lambda_=0.25)


def test_from_sources_precedence(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_ad": 30, "hidden": 8, "lambda": 0.1}))
    cfg = RunConfig.from_sources(path)
    assert (cfg.n_ad, cfg.hidden, cfg.lambda_) == (30, 8, 0.1)
    # flags win over the file; None means "flag not given"
    cfg = RunConfig.from_sources(path, {"hidden": 16, "n_hc": None})
    assert (cfg.n_ad, cfg.hidden, cfg.n_hc) == (30, 16, 90)


def test_from_sources_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_add": 30}))
    with pytest.raises(ValueError, match="unknown config key 'n_add'"):
        RunConfig.from_sources(path)
    with pytest.raises(ValueError, match="unknown config override"):
        RunConfig.from_sources(None, {"spam": 1})
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        RunConfig.from_sources(path)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["kernel_scale", "C", "lambda"])
def test_from_sources_refuses_non_finite_numbers(key, value, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))   # Infinity, -Infinity or NaN
    with pytest.raises(ValueError, match=f"config key '{key}' in .* must be finite"):
        RunConfig.from_sources(path)
    with pytest.raises(ValueError, match=f"config override '{key}' must be finite"):
        RunConfig.from_sources(None, {key: value})


def test_from_sources_checks_json_types(tmp_path):
    path = tmp_path / "run.json"
    # an integer is a valid number; a list is a valid triple
    path.write_text(json.dumps({"C": 2, "kernel_scale": 3.5, "dims": [6, 5, 4],
                                "feature_kind": "vaf", "lambda": 0}))
    cfg = RunConfig.from_sources(path)
    assert (cfg.C, cfg.dims, cfg.feature_kind, cfg.lambda_) == (2, (6, 5, 4), "vaf", 0)
    path.write_text(json.dumps({"lambda": "0.1"}))
    with pytest.raises(ValueError, match="config key 'lambda' .* must be a number"):
        RunConfig.from_sources(path)
    with pytest.raises(ValueError, match="config override 'hidden' must be an integer"):
        RunConfig.from_sources(None, {"hidden": 2.5})
