import numpy as np
import pytest

from oracles import as_array
from voxelcad.volume import (BadMagicError, HeaderError, Modality,
                             NonFiniteVoxelError, PayloadSizeError,
                             UnsupportedVersionError, Volume, flatten,
                             load_volume, save_volume)


def _header(magic=b"RVOL", version=1, modality=2, reserved=b"\x00\x00",
            dims=(1, 1, 1)):
    import struct
    return struct.pack("<4sBB2sIII", magic, version, modality, reserved, *dims)


def test_smallest_legal_volume(tmp_path):
    path = tmp_path / "tiny.rvol"
    path.write_bytes(_header() + np.array([0.5], dtype="<f4").tobytes())
    v = load_volume(path)
    assert v.dims == (1, 1, 1)
    assert v.voxels.tolist() == [0.5]
    assert v.modality is Modality.SYNTH


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "short.rvol"
    path.write_bytes(_header(dims=(2, 2, 2))
                     + np.zeros(7, dtype="<f4").tobytes())
    with pytest.raises(PayloadSizeError):
        load_volume(path)


def test_full_size_payload(tmp_path):
    dims = (34, 47, 39)
    vox = np.linspace(0.0, 1.0, 34 * 47 * 39, dtype="<f4")
    path = tmp_path / "full.rvol"
    path.write_bytes(_header(dims=dims) + vox.tobytes())
    v = load_volume(path)
    assert v.n_voxels == 62322
    assert np.array_equal(v.voxels, vox)


def test_round_trip_is_identity(tmp_path, rng):
    dims = (3, 4, 5)
    v = Volume(dims=dims, voxels=rng.random(60).astype("<f4"),
               modality=Modality.MRI, subject_id="s01")
    path = tmp_path / "rt.rvol"
    save_volume(v, path)
    back = load_volume(path, subject_id="s01")
    assert back.dims == v.dims
    assert back.modality is v.modality
    assert back.voxels.tobytes() == v.voxels.tobytes()


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "nope.rvol")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rvol"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(BadMagicError):
        load_volume(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.rvol"
    path.write_bytes(_header(version=9) + np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(UnsupportedVersionError):
        load_volume(path)


def test_nonzero_reserved_bytes(tmp_path):
    path = tmp_path / "res.rvol"
    path.write_bytes(_header(reserved=b"\x01\x00")
                     + np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(HeaderError):
        load_volume(path)


def test_unknown_modality_code(tmp_path):
    path = tmp_path / "mod.rvol"
    path.write_bytes(_header(modality=7) + np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(HeaderError):
        load_volume(path)


def test_zero_dimension_in_header(tmp_path):
    path = tmp_path / "dim0.rvol"
    path.write_bytes(_header(dims=(0, 1, 1)))
    with pytest.raises(HeaderError):
        load_volume(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "trunc.rvol"
    path.write_bytes(b"RVOL\x01")
    with pytest.raises(HeaderError):
        load_volume(path)


def test_non_finite_voxel(tmp_path):
    path = tmp_path / "nan.rvol"
    path.write_bytes(_header() + np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(NonFiniteVoxelError):
        load_volume(path)


def test_constructor_rejects_wrong_count():
    with pytest.raises(ValueError):
        Volume(dims=(2, 2, 2), voxels=np.zeros(7))


def test_constructor_rejects_bad_dims():
    with pytest.raises(ValueError):
        Volume(dims=(0, 1, 1), voxels=np.zeros(0))


def test_flatten_order_and_length(rng):
    assert flatten(Volume(dims=(1, 1, 1), voxels=[0.25])).tolist() == [0.25]
    v2 = Volume(dims=(2, 1, 1), voxels=[0.1, 0.9])
    assert np.allclose(flatten(v2), [np.float32(0.1), np.float32(0.9)])
    big = Volume(dims=(34, 47, 39), voxels=rng.random(62322))
    assert flatten(big).shape == (62322,)


def test_as_array_uses_x_fastest_layout():
    # index = x + nx*(y + ny*z)
    vox = np.arange(24, dtype=np.float64)
    v = Volume(dims=(2, 3, 4), voxels=vox)
    arr = as_array(v)
    assert arr.shape == (2, 3, 4)
    assert arr[1, 0, 0] == 1.0
    assert arr[0, 1, 0] == 2.0
    assert arr[0, 0, 1] == 6.0
    assert arr[1, 2, 3] == 23.0


def test_flatten_is_injective_on_content(rng):
    a = rng.random(12).astype("<f4")
    b = a.copy()
    b[5] += 0.25
    va = Volume(dims=(3, 2, 2), voxels=a)
    vb = Volume(dims=(3, 2, 2), voxels=b)
    assert not np.array_equal(flatten(va), flatten(vb))


def test_save_to_unwritable_location(tmp_path):
    v = Volume(dims=(1, 1, 1), voxels=[0.5])
    with pytest.raises(OSError):
        save_volume(v, tmp_path / "missing_dir" / "x.rvol")
