import csv
import dataclasses

import numpy as np
import pytest

import oracles
from voxelcad import features
from voxelcad.features import (FeatureKind, FeatureMatrix, block_features,
                               build_feature_matrix,
                               save_feature_matrix, vaf_features)
from voxelcad.manifest import read_manifest, write_manifest
from voxelcad.synth import SynthConfig, make_subject
from voxelcad.volume import Modality, Volume, flatten, load_volume, save_volume


def _one_box(values, bins: int) -> np.ndarray:
    """block_features of a (n, 1, 1) volume as a single box."""
    values = np.asarray(values, dtype=np.float64)
    return block_features(Volume(dims=(values.size, 1, 1), voxels=values), (1, 1, 1), bins)


def test_constant_input_conventions():
    for c in (0.0, 0.75, -3.0):
        got = _one_box([c, c, c, c], bins=8)
        assert np.array_equal(got, [c, 0, 0, 0, 1, 0])


def test_two_point_sample_hand_values():
    # m2 = 0.25, m3 = 0, m4 = 0.0625, p = (0.5, 0.5)
    got = _one_box([0.0, 1.0], bins=2)
    assert np.allclose(got, [0.5, 0.25, 0.0, 1.0, 0.5, 1.0], atol=1e-15)


def test_symmetric_sample_has_zero_skewness():
    assert _one_box([-1.0, 0.0, 1.0], bins=4)[2] == 0.0
    assert _one_box([2.0, 4.0], bins=4)[2] == 0.0


def test_gaussian_kurtosis_is_near_three(rng):
    x = rng.normal(size=200_000)
    kurt = _one_box(x, bins=32)[3]
    assert abs(kurt - 3.0) < 0.1


def test_input_validation():
    v = Volume(dims=(2, 2, 2), voxels=np.arange(8.0))
    for bins in (0, -1, 1.5, "3", None, True, [4]):
        with pytest.raises(ValueError, match="'bins' must be an integer >= 1"):
            block_features(v, (1, 1, 1), bins)


def test_affine_equivariance(rng):
    # dyadic values, so x and a*x + b are both exact in float32 voxels
    x = rng.integers(0, 1024, 500) / 1024.0
    a, b = 2.5, -1.25
    base = _one_box(x, bins=16)
    mapped = _one_box(a * x + b, bins=16)
    assert abs(mapped[0] - (a * base[0] + b)) < 1e-10      # mean is affine
    assert abs(mapped[1] - a * a * base[1]) < 1e-10        # variance scales
    assert abs(mapped[2] - base[2]) < 1e-10                # skewness invariant
    assert abs(mapped[3] - base[3]) < 1e-10                # kurtosis invariant
    assert abs(mapped[4] - base[4]) < 1e-10                # bins rescale with data
    assert abs(mapped[5] - base[5]) < 1e-10


def test_energy_entropy_ranges(rng):
    for bins in (1, 2, 32):
        for _ in range(20):
            x = rng.random(rng.integers(1, 200))
            _, _, _, _, energy, entropy = _one_box(x, bins=bins)
            assert 0.0 < energy <= 1.0
            assert -1e-12 <= entropy <= np.log2(bins) + 1e-12


def test_single_block_grid_equals_global(rng):
    v = Volume(dims=(4, 5, 3), voxels=rng.random(60))
    got = block_features(v, (1, 1, 1), bins=16)
    want = oracles.grayscale_features(flatten(v), bins=16)
    # same voxel multiset, different summation order between the two routes
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_two_singleton_blocks():
    v = Volume(dims=(2, 1, 1), voxels=[0.25, 0.75])
    got = block_features(v, (2, 1, 1), bins=1)
    a, b = np.float32(0.25), np.float32(0.75)
    assert np.allclose(got, [a, 0, 0, 0, 1, 0, b, 0, 0, 0, 1, 0], atol=0)


def _edge_volume(dims, rng) -> Volume:
    """Float32 voxels on the dyadic grid k/8: with bins 2, 4 or 8 over a box
    spanning [0, 1] many sit exactly on an interior edge or on the maximum."""
    vox = rng.integers(0, 9, int(np.prod(dims))) / 8.0
    vox[:2] = (0.0, 1.0)
    return Volume(dims=dims, voxels=vox)


def _clipped_synth(dims) -> Volume:
    # strong noise and separation: voxels clipped to 0 and to 1, as synth
    # makes them, and boxes that are constant at 0
    cfg = SynthConfig(n_ad=1, n_hc=1, dims=dims, seed=5, separation=12.0, noise_sigma=0.3)
    return make_subject(cfg, 0)


_ORACLE_CASES = [
    # (volume, block grid, bins)
    (lambda rng: make_subject(SynthConfig(n_ad=1, n_hc=1, seed=1), 0), (4, 4, 4), 32),
    (lambda rng: _clipped_synth((34, 47, 39)), (8, 8, 8), 32),
    (lambda rng: _clipped_synth((17, 12, 10)), (5, 3, 4), 7),
    (lambda rng: Volume(dims=(7, 6, 5), voxels=rng.random(210)), (3, 2, 2), 4),
    (lambda rng: Volume(dims=(18, 17, 3), voxels=rng.random(918)), (17, 16, 1), 6),
    (lambda rng: Volume(dims=(5, 5, 5), voxels=rng.random(125)), (5, 5, 5), 3),
    (lambda rng: Volume(dims=(9, 4, 11), voxels=rng.normal(size=396)), (2, 4, 3), 1),
    (lambda rng: Volume(dims=(13, 7, 3), voxels=rng.random(273) ** 4), (4, 3, 3), 64),
    (lambda rng: Volume(dims=(6, 6, 6), voxels=np.repeat([0.3, -2.0], 108)), (2, 3, 2), 5),
    (lambda rng: _edge_volume((8, 8, 4), rng), (1, 1, 1), 8),
    (lambda rng: _edge_volume((8, 8, 4), rng), (2, 2, 1), 4),
    (lambda rng: _edge_volume((9, 3, 5), rng), (2, 1, 2), 2),
    (lambda rng: Volume(dims=(4, 1, 2), voxels=_CORRECTED_DOWN + _CORRECTED_UP), (1, 1, 2), 100),
]


@pytest.mark.parametrize("case", range(len(_ORACLE_CASES)))
def test_block_features_match_the_per_box_oracle(case, rng):
    make, grid, bins = _ORACLE_CASES[case]
    v = make(rng)
    got = block_features(v, grid, bins).reshape(-1, 6)
    want = oracles.block_features(v, grid, bins).reshape(-1, 6)
    assert np.array_equal(got[:, 4], want[:, 4])            # energy bit-equal
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # bit for bit the banded extraction that finished each band on its own
    assert np.array_equal(got.ravel(), oracles.banded_block_features(v, grid, bins))
    # the histograms themselves, box by box, against np.histogram
    arr = oracles.as_array(v)
    boxes = [arr[s].ravel(order="F").astype(np.float64)
             for s in oracles.box_slices(v.dims, grid)]
    x = np.concatenate(boxes)
    n = np.array([b.size for b in boxes])
    lo = np.array([b.min() for b in boxes])
    hi = np.array([b.max() for b in boxes])
    counts = features._box_counts(x, n, lo, hi, bins)
    assert np.array_equal(counts, [oracles.box_counts(b, bins) for b in boxes])


# float32 boxes whose scaled offset lands one bin off with 100 bins, so
# np.histogram's correction against the edges moves the value down (first
# box) or up (second box); each list starts with the box's min and max
_CORRECTED_DOWN = [0.0, 1.756354570388794, 0.4390886425971985, 0.878177285194397]
_CORRECTED_UP = [0.0, 0.6520912051200867, 0.18910644948482513, 0.37821289896965027]
# a box mostly at its max, whose first bin index (hi - lo) / step is exactly
# bins for every bin count below, one past the last bin
_AT_MAX = [-0.75, 1000.5, 1000.5, 1000.5, 17.0]


@pytest.mark.parametrize("bins", [1, 3, 7, 32, 100])
def test_box_counts_follow_np_histogram_at_the_edges(bins, rng):
    lo32, hi32 = np.float32(0.1), np.float32(0.7)
    # every edge of [lo, hi] rounded to float32, and its float32 neighbours
    edges32 = np.linspace(float(lo32), float(hi32), bins + 1).astype(np.float32)
    near = np.concatenate([edges32, np.nextafter(edges32, np.float32(-1)),
                           np.nextafter(edges32, np.float32(2))])
    boxes = [
        np.clip(near, lo32, hi32),
        _CORRECTED_DOWN,
        _CORRECTED_UP,
        rng.integers(0, 9, 40) / 8.0 * 3.0 - 1.0,   # on dyadic edges and the max
        rng.random(50),
        np.full(6, 0.7),                              # constant box
        [-2.5],                                       # single voxel
        _AT_MAX,
    ]
    boxes = [np.asarray(b, dtype=np.float32).astype(np.float64) for b in boxes]
    x = np.concatenate(boxes)
    n = np.array([b.size for b in boxes])
    lo = np.array([b.min() for b in boxes])
    hi = np.array([b.max() for b in boxes])
    width = hi[-1] - lo[-1]                                 # the _AT_MAX box
    assert int(width / (width / bins)) == bins
    got = features._box_counts(x, n, lo, hi, bins)
    assert np.array_equal(got, [oracles.box_counts(b, bins) for b in boxes])
    assert np.array_equal(got, oracles.banded_box_counts(x, n, lo, hi, bins))


@pytest.mark.parametrize("bins", [1, 2, 3, 7, 32, 100])
def test_bin_edges_are_linspace_bit_for_bit(bins):
    f32 = lambda *a: np.array(a, dtype=np.float32).astype(np.float64)
    one = np.float32(1)
    big = np.float32(3.0e6)
    lo = np.concatenate([
        f32(1.0, -1.0, 3.0e6, -3.0e6, 1e-30),       # one float32 ulp wide
        f32(1000.0, -1000.5, 3.0e6, 0.1),          # |lo| far above the width
        f32(-7.25, -0.3, -2.0, 0.0),               # negative values
        f32(0.7, -2.5, 0.0, 1e6),                  # constant boxes
    ])
    hi = np.concatenate([
        f32(np.nextafter(one, 2 * one), np.nextafter(-one, one),
            np.nextafter(big, 2 * big), np.nextafter(-big, big),
            np.nextafter(np.float32(1e-30), one)),
        f32(1000.001, -1000.499, 3.0e6 + 0.5, 0.1001),
        f32(-7.0, 0.4, -1.5, 0.5),
        f32(0.7, -2.5, 0.0, 1e6),
    ])
    edges, step = features._bin_edges(lo, hi, bins)
    want = np.linspace(lo, np.where(hi > lo, hi, lo + np.abs(lo) + 1.0), bins + 1, axis=1)
    assert np.all(step > 0.0)
    assert np.array_equal(edges[:, :-1], want[:, :-1])
    assert np.array_equal(np.signbit(edges[:, :-1]), np.signbit(want[:, :-1]))
    assert np.all(edges[:, -1] == np.inf)


def test_build_feature_matrix_matches_the_oracle_and_repeats(small_dataset,
                                                             small_grayscale):
    manifest, _ = small_dataset
    want = np.stack([
        oracles.block_features(load_volume(row.path), (4, 4, 4), features.DEFAULT_BINS)
        for row in read_manifest(manifest)
    ])
    assert np.allclose(small_grayscale.values, want, rtol=0, atol=1e-12)
    again = build_feature_matrix(manifest, FeatureKind.GRAYSCALE)
    assert np.array_equal(again.values, small_grayscale.values)


def test_default_grid_feature_length(rng):
    v = Volume(dims=(34, 47, 39), voxels=rng.random(62322))
    assert block_features(v).shape == (384,)  # 6 * 4*4*4


def test_blocks_partition_all_voxels(rng):
    # dims not divisible by the grid: remainders go to the last block, so
    # block means recombine to the global mean
    v = Volume(dims=(7, 6, 5), voxels=rng.random(210))
    grid = (3, 2, 2)
    feats = block_features(v, grid, bins=4).reshape(-1, 6)
    arr = oracles.as_array(v)
    sizes = []
    for z0, z1 in [(0, 2), (2, 5)]:
        for y0, y1 in [(0, 3), (3, 6)]:
            for x0, x1 in [(0, 2), (2, 4), (4, 7)]:
                sizes.append(arr[x0:x1, y0:y1, z0:z1].size)
    assert sum(sizes) == 210
    total = (feats[:, 0] * np.array(sizes)).sum()
    assert abs(total - arr.astype(np.float64).sum()) < 1e-9


def test_block_grid_validation(rng):
    v = Volume(dims=(3, 3, 3), voxels=rng.random(27))
    with pytest.raises(ValueError, match="exceeds"):
        block_features(v, (4, 1, 1))
    for grid in [(0, 1, 1), (1, 1), (1, 1, 1, 1), None, (1.0, 1, 1), ("1", 1, 1),
                 (True, 1, 1), 3]:
        with pytest.raises(ValueError, match="'block_grid' must be three integers"):
            block_features(v, grid)


def test_vaf_equals_flatten(rng):
    v = Volume(dims=(3, 4, 2), voxels=rng.random(24))
    assert np.array_equal(vaf_features(v), flatten(v))
    assert vaf_features(Volume(dims=(1, 1, 1), voxels=[0.3])).tolist() \
        == [np.float32(0.3)]


def test_vaf_rows_are_the_float32_voxels(small_dataset, small_grayscale, small_vaf):
    # float32 -> float64 is exact, so the VAF matrix keeps the voxels' own
    # type; grayscale statistics are float64
    manifest, _ = small_dataset
    assert small_vaf.values.dtype == np.float32
    assert small_grayscale.values.dtype == np.float64
    for row, values in zip(read_manifest(manifest), small_vaf.values):
        assert np.array_equal(values, flatten(load_volume(row.path)))


def test_csv_of_float32_rows_equals_that_of_their_float64_upcast(tmp_path, small_vaf):
    # np.float32 scalars format through their exact float64 value
    upcast = dataclasses.replace(small_vaf, values=small_vaf.values.astype(np.float64))
    save_feature_matrix(small_vaf, tmp_path / "f32.csv")
    save_feature_matrix(upcast, tmp_path / "f64.csv")
    assert (tmp_path / "f32.csv").read_bytes() == (tmp_path / "f64.csv").read_bytes()


def test_csv_of_float32_rows_spells_each_scalar_with_17_digits(tmp_path, small_vaf):
    save_feature_matrix(small_vaf, tmp_path / "f.csv")
    with open(tmp_path / "f.csv", encoding="utf-8", newline="") as fh:
        _, *records = csv.reader(fh)
    for rec, values in zip(records, small_vaf.values):
        assert rec[2:] == [format(x, ".17g") for x in values]


def test_build_matrix_shapes_and_order(small_dataset, small_grayscale, small_vaf):
    _, cfg = small_dataset
    n = cfg.n_ad + cfg.n_hc
    assert small_grayscale.values.shape == (n, 384)
    assert small_grayscale.labels == ("AD",) * cfg.n_ad + ("HC",) * cfg.n_hc
    assert small_grayscale.block_grid == (4, 4, 4)
    nx, ny, nz = cfg.dims
    assert small_vaf.values.shape == (n, nx * ny * nz)
    assert small_vaf.block_grid is None
    assert small_vaf.subject_ids[0] == "ad0000"


def test_build_matrix_rejects_mixed_dims(tmp_path, rng):
    save_volume(Volume(dims=(2, 2, 2), voxels=rng.random(8)), tmp_path / "a.rvol")
    save_volume(Volume(dims=(3, 2, 2), voxels=rng.random(12)), tmp_path / "b.rvol")
    write_manifest(tmp_path / "m.csv", [("a", "AD", "a.rvol", Modality.SYNTH),
                                        ("b", "HC", "b.rvol", Modality.SYNTH)])
    with pytest.raises(ValueError, match="dims"):
        build_feature_matrix(tmp_path / "m.csv", FeatureKind.VAF)


def test_matrix_invariants(rng):
    with pytest.raises(ValueError):
        FeatureMatrix(values=np.zeros((2, 3)), labels=("AD",),
                      subject_ids=("a", "b"), feature_kind=FeatureKind.VAF)
    with pytest.raises(ValueError):
        FeatureMatrix(values=np.array([[np.inf]]), labels=("AD",),
                      subject_ids=("a",), feature_kind=FeatureKind.VAF)
    # float32 rows are checked in row chunks: a NaN in the last cell of a
    # row past the first chunk
    wide = np.zeros((3, 70_000), dtype=np.float32)
    wide[2, -1] = np.nan
    with pytest.raises(ValueError, match="feature values must all be finite"):
        FeatureMatrix(values=wide, labels=("AD",) * 3,
                      subject_ids=("a", "b", "c"), feature_kind=FeatureKind.VAF)
    with pytest.raises(ValueError):
        FeatureMatrix(values=np.zeros((1, 1)), labels=("ad",),
                      subject_ids=("a",), feature_kind=FeatureKind.VAF)


def test_csv_round_trip_is_lossless(tmp_path, small_grayscale):
    path = tmp_path / "features.csv"
    save_feature_matrix(small_grayscale, path)
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    m = small_grayscale.n_features
    assert header == ["subject_id", "label"] + [f"f{j}" for j in range(m)]
    values = np.array([[float(x) for x in rec[2:]] for rec in records])
    assert np.array_equal(values, small_grayscale.values)
    assert tuple(rec[1] for rec in records) == small_grayscale.labels
    assert tuple(rec[0] for rec in records) == small_grayscale.subject_ids


def test_block_features_on_alternating_geometries(rng):
    # each geometry gets its own cached plan; revisiting one reuses it, and
    # a call between two others of a different geometry changes nothing
    cases = [
        (Volume(dims=(7, 6, 5), voxels=rng.random(210)), (3, 2, 2), 4),
        (Volume(dims=(9, 4, 11), voxels=rng.normal(size=396)), (2, 4, 3), 1),
        (Volume(dims=(7, 6, 5), voxels=rng.random(210)), (2, 3, 5), 16),
        (_clipped_synth((17, 12, 10)), (5, 3, 4), 7),
        (Volume(dims=(7, 6, 5), voxels=rng.random(210)), (3, 2, 2), 9),
    ]
    first = [block_features(v, grid, bins) for v, grid, bins in cases]
    for _ in range(2):
        for (v, grid, bins), want in zip(cases, first):
            got = block_features(v, grid, bins)
            assert np.array_equal(got, want)
            oracle = oracles.block_features(v, grid, bins)
            assert np.array_equal(got.reshape(-1, 6)[:, 4], oracle.reshape(-1, 6)[:, 4])
            assert np.allclose(got, oracle, rtol=0, atol=1e-12)
            assert np.array_equal(got, oracles.banded_block_features(v, grid, bins))
    for v, grid, _ in cases:
        plan = features._extraction_plan(v.dims, grid)
        assert plan is features._extraction_plan(v.dims, grid)
        assert sum(band.perm.size for band in plan.bands) == v.n_voxels
        assert np.array_equal(plan.n, np.concatenate([band.n for band in plan.bands]))
        for arr in (plan.n, *(a for band in plan.bands for a in band)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
