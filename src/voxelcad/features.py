"""Feature extraction: grayscale statistics and voxels-as-features.

The six grayscale statistics of a sample are mean, variance, skewness,
kurtosis, energy and entropy, computed with these conventions:

  * population (biased) central moments, so single-voxel blocks are defined;
  * skewness m3/m2^1.5 and kurtosis m4/m2^2, both 0 when the variance is 0
    (kurtosis is non-excess, a Gaussian scores ~3);
  * energy/entropy from a histogram over [min, max] with `bins` equal-width
    bins (one bin when min == max), p_k = count_k / N, energy = sum p_k^2,
    entropy = -sum_{p_k>0} p_k log2 p_k.

block_features partitions the volume into an axis-aligned grid of boxes
(remainder voxels go to the last box along each axis) and concatenates the
six statistics per box, boxes ordered x-fastest like the voxels themselves.

It computes all boxes of one z-band of boxes at once; a band is a
contiguous run of the x-fastest voxel array. The band's voxels are grouped
by box with one gather, then per-box sums (mean and the central moments
m2, m3, m4), minima and maxima come from ufunc.reduceat over the box
segments, and every box's histogram from one np.bincount. Bin indices
follow np.histogram's uniform-bin rule exactly, so the counts equal those
of np.histogram(box, bins, range=(min, max)). Working per band keeps the
float64 temporaries to a fraction of the volume.

Where the voxels go depends only on the volume dims and the block grid,
so that is computed once per geometry and cached (a few geometries at a
time): per band, the permutation into the flat voxel array, the box sizes
and the segment starts, all stored read-only. The permutation is the
stable argsort of each voxel's box id, which keeps every box's voxels in
their x-fastest order. A volume then only gathers its voxels through it:
the reductions see the same values in the same order as a per-volume
sort would give them, so the features are bit-identical to it.
"""

from __future__ import annotations

import csv
import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .labels import VALID_LABELS
from .manifest import read_manifest
from .pca import feature_rows
from .volume import Volume, load_volume

STAT_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")
DEFAULT_BINS = 32
DEFAULT_BLOCK_GRID = (4, 4, 4)
_FINITE_CHECK_CELLS = 1 << 16   # cells per row chunk of the finite check


class FeatureKind(enum.Enum):
    GRAYSCALE = "GRAYSCALE"
    VAF = "VAF"


@dataclass(frozen=True)
class FeatureMatrix:
    """n samples x m features with labels, in manifest order.

    values are float32 for voxels as features (the volumes' own type;
    float32 -> float64 is exact, and every reader of the rows upcasts one
    reused column block at a time, pca.column_blocks) and float64 for
    anything else, grayscale statistics included.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    subject_ids: tuple[str, ...]
    feature_kind: FeatureKind
    block_grid: tuple[int, int, int] | None = None

    def __post_init__(self):
        values = feature_rows(self.values)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        # in row chunks, so no n x m bool array is made
        step = max(1, _FINITE_CHECK_CELLS // max(values.shape[1], 1))
        for a in range(0, values.shape[0], step):
            if not np.isfinite(values[a:a + step]).all():
                raise ValueError("feature values must all be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        n = values.shape[0]
        if len(self.labels) != n or len(self.subject_ids) != n:
            raise ValueError("labels/subject_ids length must equal the row count")
        for label in self.labels:
            if label not in VALID_LABELS:
                raise ValueError(f"unknown label {label!r}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def _axis_sizes(n: int, blocks: int) -> np.ndarray:
    """Box lengths along one axis; the last box absorbs the remainder."""
    sizes = np.full(blocks, n // blocks)
    sizes[-1] += n % blocks
    return sizes


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_recipe(block_grid, bins) -> tuple[tuple[int, int, int], int]:
    """The grayscale recipe as ints; a ValueError names the bad field."""
    if not (isinstance(block_grid, (tuple, list)) and len(block_grid) == 3
            and all(_is_int(b) and b >= 1 for b in block_grid)):
        raise ValueError(f"'block_grid' must be three integers >= 1, got {block_grid!r}")
    if not (_is_int(bins) and bins >= 1):
        raise ValueError(f"'bins' must be an integer >= 1, got {bins!r}")
    return tuple(int(b) for b in block_grid), int(bins)


def _box_counts(x: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                bins: int) -> np.ndarray:
    """Histogram of each box over its own [lo, hi], one row per box.

    x holds the boxes one after another, n[i] values each. A value's bin
    follows np.histogram's uniform-bin rule exactly: edges from
    linspace(lo, hi, bins + 1), an index from the scaled offset, corrected
    by one against the edges, and a closed last bin. A constant box gets a
    wider dummy range, so all its values land in bin 0 and no row of edges
    has a zero step (linspace then takes the same rounding route per row).
    """
    hi = np.where(hi > lo, hi, lo + np.abs(lo) + 1.0)
    edges = np.linspace(lo, hi, bins + 1, axis=1)
    f = x - np.repeat(lo, n)
    f /= np.repeat(hi - lo, n)
    f *= bins
    k = f.astype(np.intp)
    np.minimum(k, bins - 1, out=k)      # the maximum itself goes in the last bin
    k += np.repeat(np.arange(0, edges.size, bins + 1), n)   # index into flat edges
    edges[:, -1] = np.inf               # closed last bin: nothing moves up past it
    edges = edges.ravel()
    k -= x < edges[k]
    k += x >= edges[k + 1]
    return np.bincount(k, minlength=edges.size).reshape(lo.size, bins + 1)[:, :-1]


class _BandPlan(NamedTuple):
    """What the geometry fixes about one z-band of boxes."""

    perm: np.ndarray     # flat voxel indices of the band, grouped by box
    n: np.ndarray        # voxels per box
    starts: np.ndarray   # offset of each box's segment in perm


@functools.lru_cache(maxsize=8)
def _extraction_plan(dims: tuple[int, int, int],
                     block_grid: tuple[int, int, int]) -> tuple[_BandPlan, ...]:
    """One _BandPlan per z-band of boxes, for volumes of these dims.

    Nothing in it depends on voxel values or on the bin count, so a process
    that alternates a few bundles or grids keeps one plan for each.
    """
    nx, ny, nz = dims
    bx, by, bz = block_grid
    xs, ys, zs = _axis_sizes(nx, bx), _axis_sizes(ny, by), _axis_sizes(nz, bz)
    # group a band's voxels by box: a stable sort of each voxel's box id
    # keeps every box's voxels contiguous and in x-fastest order (the
    # narrowest id type lets numpy use its radix sort)
    box_map = np.repeat(np.arange(by), ys)[:, None] * bx + np.repeat(np.arange(bx), xs)
    box_map = box_map.astype(np.min_scalar_type(by * bx - 1)).ravel()
    plans = []
    for z0, depth in zip(np.cumsum(zs) - zs, zs):
        box_ids = np.broadcast_to(box_map, (depth, box_map.size)).ravel()
        perm = np.argsort(box_ids, kind="stable") + z0 * ny * nx
        n = np.outer(ys, xs).ravel() * depth
        starts = np.cumsum(n) - n
        for a in (perm, n, starts):
            a.flags.writeable = False
        plans.append(_BandPlan(perm, n, starts))
    return tuple(plans)


def _band_features(flat: np.ndarray, plan: _BandPlan, bins: int) -> np.ndarray:
    """Six statistics per box of one z-band, rows x-fastest."""
    n, starts = plan.n, plan.starts
    x = flat[plan.perm].astype(np.float64)

    lo, hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
    p = _box_counts(x, n, lo, hi, bins) / n[:, None]
    energy = np.sum(p * p, axis=1)
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    entropy = -np.sum(p * logp, axis=1)

    mean = np.add.reduceat(x, starts) / n
    d = x - np.repeat(mean, n)
    d2 = d * d
    m2 = np.add.reduceat(d2, starts) / n
    m3 = np.add.reduceat(d2 * d, starts) / n
    m4 = np.add.reduceat(d2 * d2, starts) / n
    spread = m2 > 0.0
    safe = np.where(spread, m2, 1.0)
    skewness = np.where(spread, m3 / safe**1.5, 0.0)
    kurtosis = np.where(spread, m4 / (safe * safe), 0.0)
    return np.column_stack([mean, m2, skewness, kurtosis, energy, entropy])


def block_features(v: Volume, block_grid: tuple[int, int, int] = DEFAULT_BLOCK_GRID,
                   bins: int = DEFAULT_BINS) -> np.ndarray:
    """Concatenated grayscale statistics over a bx*by*bz box partition."""
    (bx, by, bz), bins = check_recipe(block_grid, bins)
    nx, ny, nz = v.dims
    if bx > nx or by > ny or bz > nz:
        raise ValueError(f"block grid {block_grid} exceeds volume dims {v.dims}")
    plan = _extraction_plan(v.dims, (bx, by, bz))
    return np.concatenate([_band_features(v.voxels, band, bins) for band in plan]).ravel()


def vaf_features(v: Volume) -> np.ndarray:
    """Raw voxels-as-features baseline: the volume's own read-only float32
    voxels, equal in value to flatten(v) (float32 -> float64 is exact)."""
    return v.voxels


def build_feature_matrix(manifest_path, kind: FeatureKind,
                         block_grid: tuple[int, int, int] = DEFAULT_BLOCK_GRID,
                         bins: int = DEFAULT_BINS) -> FeatureMatrix:
    """Extract one feature row per manifest row, preserving manifest order.

    All referenced volumes must share the same dims. The matrix takes the
    rows' own type: float32 for VAF, float64 for grayscale statistics.
    """
    rows = read_manifest(manifest_path)
    values = None
    dims = None
    labels = []
    subject_ids = []
    for i, row in enumerate(rows):
        vol = load_volume(row.path, subject_id=row.subject_id)
        if dims is None:
            dims = vol.dims
        elif vol.dims != dims:
            raise ValueError(
                f"{row.path}: dims {vol.dims} differ from first volume's {dims}"
            )
        if kind is FeatureKind.VAF:
            feats = vaf_features(vol)
        else:
            feats = block_features(vol, block_grid, bins)
        if values is None:
            values = np.empty((len(rows), feats.size), dtype=feats.dtype)
        values[i] = feats
        labels.append(row.label)
        subject_ids.append(row.subject_id)
    return FeatureMatrix(
        values=values,
        labels=tuple(labels),
        subject_ids=tuple(subject_ids),
        feature_kind=kind,
        block_grid=tuple(block_grid) if kind is FeatureKind.GRAYSCALE else None,
    )


def save_feature_matrix(fm: FeatureMatrix, path) -> None:
    """Persist as CSV (subject_id,label,f0..f{m-1}), 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "label"] + [f"f{j}" for j in range(fm.n_features)])
        for i in range(fm.n_samples):
            row = [fm.subject_ids[i], fm.labels[i]]
            # Python floats format faster than numpy scalars, to the same text
            row.extend(format(x, ".17g") for x in fm.values[i].tolist())
            writer.writerow(row)
