"""Voxel volumes and the RVOL binary file format.

A Volume is an immutable 3-D grid of finite scalar intensities. Voxels are
stored flat in x-fastest order (index = x + nx*(y + ny*z)), which is also
the on-disk payload order, so save/load round-trips are bit-exact.

RVOL layout (little-endian throughout):
    bytes 0-3    magic "RVOL"
    byte  4      format version, currently 1
    byte  5      modality code (0=MRI, 1=PET, 2=SYNTH)
    bytes 6-7    reserved, must be zero
    bytes 8-19   nx, ny, nz as uint32
    payload      nx*ny*nz float32 values, x-fastest order
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

_MAGIC = b"RVOL"
_VERSION = 1
_HEADER = struct.Struct("<4sBB2sIII")


class VolumeError(Exception):
    """Base class for volume construction and RVOL format errors."""


class BadMagicError(VolumeError):
    """File does not start with the RVOL magic bytes."""


class UnsupportedVersionError(VolumeError):
    """RVOL header carries a format version this reader does not know."""


class HeaderError(VolumeError):
    """Header fields are invalid (modality code, reserved bytes, zero dims)."""


class PayloadSizeError(VolumeError):
    """Payload length disagrees with the dims announced in the header."""


class NonFiniteVoxelError(VolumeError):
    """A voxel is NaN or infinite."""


class Modality(enum.Enum):
    MRI = 0
    PET = 1
    SYNTH = 2


@dataclass(frozen=True)
class Volume:
    """3-D voxel grid with fixed dims and an x-fastest flat voxel array.

    voxels must be a 1-D array of length nx*ny*nz; it is coerced to float32
    (the RVOL payload type) and frozen, so instances are safe to share.
    """

    dims: tuple[int, int, int]
    voxels: np.ndarray
    modality: Modality = Modality.SYNTH
    subject_id: str = ""

    def __post_init__(self):
        nx, ny, nz = (int(d) for d in self.dims)
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must all be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", (nx, ny, nz))
        vox = np.asarray(self.voxels, dtype="<f4").ravel()
        if vox.size != nx * ny * nz:
            raise ValueError(
                f"voxel count {vox.size} does not match dims {nx}x{ny}x{nz} = {nx*ny*nz}"
            )
        if not np.isfinite(vox).all():
            raise NonFiniteVoxelError("volume contains NaN or infinite voxels")
        vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


def flatten(v: Volume) -> np.ndarray:
    """Flatten a volume to a float64 vector in x-fastest (file) order. VAF
    feature rows keep the float32 voxels themselves (features.vaf_features),
    which equal these values: float32 -> float64 is exact."""
    return np.asarray(v.voxels, dtype=np.float64)


def save_volume(v: Volume, path) -> None:
    """Write a volume as RVOL. Loading it back reproduces dims, modality
    and voxels bit-exactly."""
    nx, ny, nz = v.dims
    header = _HEADER.pack(_MAGIC, _VERSION, v.modality.value, b"\x00\x00", nx, ny, nz)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(v.voxels.astype("<f4", copy=False).tobytes())


def load_volume(path, subject_id: str = "") -> Volume:
    """Read an RVOL file.

    Raises FileNotFoundError for a missing file and a VolumeError subclass
    naming the defect for malformed content.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < 4 or head[:4] != _MAGIC:
            raise BadMagicError(f"{path}: not an RVOL file (bad magic bytes)")
        if len(head) < _HEADER.size:
            raise HeaderError(f"{path}: truncated RVOL header")
        _, version, modality_code, reserved, nx, ny, nz = _HEADER.unpack(head)
        if version != _VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported RVOL version {version}")
        if reserved != b"\x00\x00":
            raise HeaderError(f"{path}: reserved header bytes are not zero")
        try:
            modality = Modality(modality_code)
        except ValueError:
            raise HeaderError(f"{path}: unknown modality code {modality_code}") from None
        if min(nx, ny, nz) < 1:
            raise HeaderError(f"{path}: header dims {nx}x{ny}x{nz} contain a zero")
        payload = fh.read()
    expected = nx * ny * nz * 4
    if len(payload) != expected:
        raise PayloadSizeError(
            f"{path}: header claims {nx}x{ny}x{nz} ({expected} payload bytes), "
            f"file carries {len(payload)}"
        )
    voxels = np.frombuffer(payload, dtype="<f4")
    return Volume(dims=(nx, ny, nz), voxels=voxels,
                  modality=modality, subject_id=subject_id)
