"""Deterministic synthetic cohorts of labeled volumes.

Every subject's voxels are Gaussian noise around a 0.5 baseline; AD subjects
additionally have a central ellipsoidal region (about 10% of the voxels)
whose mean is shifted down by separation * noise_sigma, mimicking localized
atrophy. Intensities are clamped to [0, 1] afterwards, which truncates the
Gaussian tails slightly; keep the shifted mean a few sigma inside the range
when the exact class-mean difference matters.

Per-subject RNG streams are derived as SeedSequence(seed, spawn_key=(index,))
over the numpy PCG64 generator, so output is a pure function of the config
regardless of generation order or concurrency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import labels
from .manifest import write_manifest
from .volume import Modality, Volume, save_volume

DEFAULT_DIMS = (34, 47, 39)
DEFAULT_SEPARATION = 6.0
DEFAULT_NOISE_SIGMA = 0.1

_BASE_INTENSITY = 0.5
_ELLIPSOID_VOXEL_FRACTION = 0.10


@dataclass(frozen=True)
class SynthConfig:
    n_ad: int = 210
    n_hc: int = 90
    dims: tuple[int, int, int] = DEFAULT_DIMS
    seed: int = 0
    separation: float = DEFAULT_SEPARATION
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self):
        if self.n_ad < 1 or self.n_hc < 1:
            raise ValueError("n_ad and n_hc must both be >= 1")
        if min(self.dims) < 1:
            raise ValueError(f"dims must all be >= 1, got {self.dims}")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@functools.lru_cache(maxsize=4)
def ellipsoid_mask(dims: tuple[int, int, int]) -> np.ndarray:
    """Boolean (nx, ny, nz) mask of the shifted region: a grid-centered
    ellipsoid whose semi-axes are the same fraction of each half-extent,
    sized so the enclosed volume is ~10% of the voxels.

    Cached per dims and read-only: every AD subject of a cohort shares it.
    """
    nx, ny, nz = dims
    # (pi/6) * r^3 = fraction, with semi-axis r * dim/2 per axis
    r = (6.0 * _ELLIPSOID_VOXEL_FRACTION / np.pi) ** (1.0 / 3.0)
    x = np.arange(nx)[:, None, None] - (nx - 1) / 2.0
    y = np.arange(ny)[None, :, None] - (ny - 1) / 2.0
    z = np.arange(nz)[None, None, :] - (nz - 1) / 2.0
    ax, ay, az = (r * nx / 2.0, r * ny / 2.0, r * nz / 2.0)
    mask = (x / ax) ** 2 + (y / ay) ** 2 + (z / az) ** 2 <= 1.0
    mask.flags.writeable = False
    return mask


def make_subject(cfg: SynthConfig, index: int) -> Volume:
    """Generate subject `index` (0..n_ad-1 are AD, the rest HC).

    A pure function of (cfg, index): the RNG stream is keyed on both.
    """
    if not 0 <= index < cfg.n_ad + cfg.n_hc:
        raise ValueError(f"subject index {index} out of range")
    is_ad = index < cfg.n_ad
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
    nx, ny, nz = cfg.dims
    vox = rng.normal(_BASE_INTENSITY, cfg.noise_sigma, size=(nx, ny, nz))
    if is_ad:
        vox[ellipsoid_mask(tuple(cfg.dims))] -= cfg.separation * cfg.noise_sigma
    np.clip(vox, 0.0, 1.0, out=vox)
    subject_id, _ = subject_name(cfg, index)
    # x-fastest flat order matches the RVOL payload convention; converting
    # straight to the stored float32 skips a float64 copy of the volume
    flat = np.ascontiguousarray(vox.transpose(2, 1, 0), dtype="<f4").ravel()
    return Volume(dims=cfg.dims, voxels=flat, modality=Modality.SYNTH,
                  subject_id=subject_id)


def subject_name(cfg: SynthConfig, index: int) -> tuple[str, str]:
    """(subject_id, label) for subject `index`."""
    if index < cfg.n_ad:
        return f"ad{index:04d}", labels.AD
    return f"hc{index - cfg.n_ad:04d}", labels.HC


def generate_dataset(cfg: SynthConfig, out_dir) -> Path:
    """Write all volumes plus manifest.csv into out_dir; returns the
    manifest path. Identical configs produce byte-identical trees."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for index in range(cfg.n_ad + cfg.n_hc):
        subject_id, label = subject_name(cfg, index)
        filename = f"{subject_id}.rvol"
        save_volume(make_subject(cfg, index), out_dir / filename)
        rows.append((subject_id, label, filename, Modality.SYNTH))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, rows)
    return manifest_path
