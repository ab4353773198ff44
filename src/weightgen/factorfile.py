"""Binary container for a generated layer's factor set.

Layout (little-endian):

    offset  size  field
    0       4     magic "ISGW"
    4       1     version, currently 1
    5       1     payload kind, always 0: raw float64
    6       1     level flags: bit0 intra active, bit1 cross active
    7       3     bit-widths q_basis, q_coeff, q_mixer (one byte each)
    10      20    u32 c_out, c_in, k, n_basis, n_cross
    30      ...   payloads in declaration order: basis, coeff, mixer
                  (only the active ones are present)

Payloads are C-order float64, so a round trip is bitwise.  Any other kind
byte is rejected: the retired kind 1 stored int16 codes at every
bit-width, so its size said nothing about the q-bit memory it claimed.

Writes are atomic: the file appears under its final name only when
complete.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dataio import atomic_write
from .errors import FactorFileError, WeightgenError
from .generator import FACTOR_NAMES, GenPlan, TwoLevelFactors, plan_layer

MAGIC = b"ISGW"
VERSION = 1
_HEADER = struct.Struct("<4sBBBBBB5I")

KIND_RAW = 0


def _level_flags(plan: GenPlan) -> int:
    """The header's level-flag byte: bit0 intra active, bit1 cross active."""
    return (1 if plan.intra_active else 0) | (2 if plan.cross_active else 0)


def factors_to_bytes(factors: TwoLevelFactors) -> bytes:
    factors.validate()
    p = factors.plan
    parts = [
        _HEADER.pack(
            MAGIC, VERSION, KIND_RAW, _level_flags(p), p.q_basis, p.q_coeff, p.q_mixer,
            p.c_out, p.c_in, p.k, p.n_basis, p.n_cross,
        )
    ]
    for _, tensor in factors.stored():
        parts.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    return b"".join(parts)


def factors_from_bytes(data: bytes) -> TwoLevelFactors:
    if len(data) < _HEADER.size:
        raise FactorFileError(
            f"container truncated: {len(data)} bytes, header needs {_HEADER.size}"
        )
    (magic, version, kind, flags, q_basis, q_coeff, q_mixer,
     c_out, c_in, k, n_basis, n_cross) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FactorFileError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FactorFileError(f"unsupported container version {version}")
    if kind != KIND_RAW:
        raise FactorFileError(f"unknown payload kind {kind}")
    try:
        plan = plan_layer(c_out, c_in, k, n_basis, n_cross, q_basis, q_coeff, q_mixer)
    except WeightgenError as exc:
        raise FactorFileError(f"invalid header fields: {exc}") from exc
    want_flags = _level_flags(plan)
    if flags != want_flags:
        raise FactorFileError(
            f"level flags {flags:#x} contradict the stored dimensions "
            f"(expected {want_flags:#x})"
        )

    offset = _HEADER.size
    loaded = dict.fromkeys(FACTOR_NAMES)
    for name, shape in plan.stored_shapes().items():
        count = math.prod(shape)  # Python ints: a corrupt header cannot overflow
        need = 8 * count
        if offset + need > len(data):
            raise FactorFileError(
                f"container truncated inside {name}: need {need} bytes at "
                f"offset {offset}, have {len(data) - offset}"
            )
        loaded[name] = (
            np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += need
    if offset != len(data):
        raise FactorFileError(
            f"{len(data) - offset} trailing bytes after the last payload"
        )
    factors = TwoLevelFactors(plan=plan, **loaded)
    try:
        factors.validate()
    except WeightgenError as exc:
        raise FactorFileError(f"loaded factors are invalid: {exc}") from exc
    return factors


def save_factors(path, factors: TwoLevelFactors) -> None:
    atomic_write(path, factors_to_bytes(factors))


def load_factors(path) -> TwoLevelFactors:
    with open(path, "rb") as fh:
        return factors_from_bytes(fh.read())
