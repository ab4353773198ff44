"""Binary container for a generated layer's factor set.

Layout (little-endian):

    offset  size  field
    0       4     magic "ISGW"
    4       1     version, currently 1
    5       1     payload kind: 0 raw float64, 1 quantized codes
    6       1     level flags: bit0 intra active, bit1 cross active
    7       3     bit-widths q_basis, q_coeff, q_mixer (one byte each)
    10      20    u32 c_out, c_in, k, n_basis, n_cross
    30      ...   payloads in declaration order: basis, coeff, mixer
                  (only the active ones are present)

Raw payloads are C-order float64.  Quantized payloads store one float64
scale (finite and > 0) followed by int16 codes per tensor; loading
reconstructs the grid values, so a quantized round trip equals
fake-quantizing the original factors, and the generated weights are
bit-identical to generating from the original factors (re-quantization
is a no-op).

Writes are atomic: the file appears under its final name only when
complete.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dataio import atomic_write
from .errors import FactorFileError
from .generator import FACTOR_NAMES, TwoLevelFactors, plan_layer
from .quantize import dequantize, quantize_codes

MAGIC = b"ISGW"
VERSION = 1
_HEADER = struct.Struct("<4sBBBBBB5I")

KIND_RAW = 0
KIND_QUANTIZED = 1


def factors_to_bytes(factors: TwoLevelFactors, quantized: bool = False) -> bytes:
    factors.validate()
    p = factors.plan
    flags = (1 if p.intra_active else 0) | (2 if p.cross_active else 0)
    kind = KIND_QUANTIZED if quantized else KIND_RAW
    parts = [
        _HEADER.pack(
            MAGIC, VERSION, kind, flags, p.q_basis, p.q_coeff, p.q_mixer,
            p.c_out, p.c_in, p.k, p.n_basis, p.n_cross,
        )
    ]
    for name, tensor in factors.stored():
        if quantized:
            codes, scale = quantize_codes(tensor, p.bits(name))
            parts.append(struct.pack("<d", scale))
            parts.append(codes.astype("<i2").tobytes())
        else:
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
    if kind not in (KIND_RAW, KIND_QUANTIZED):
        raise FactorFileError(f"unknown payload kind {kind}")
    try:
        plan = plan_layer(c_out, c_in, k, n_basis, n_cross, q_basis, q_coeff, q_mixer)
    except Exception as exc:
        raise FactorFileError(f"invalid header fields: {exc}") from exc
    want_flags = (1 if plan.intra_active else 0) | (2 if plan.cross_active else 0)
    if flags != want_flags:
        raise FactorFileError(
            f"level flags {flags:#x} contradict the stored dimensions "
            f"(expected {want_flags:#x})"
        )

    offset = _HEADER.size
    loaded = dict.fromkeys(FACTOR_NAMES)
    for name, shape in plan.stored_shapes().items():
        count = math.prod(shape)  # Python ints: a corrupt header cannot overflow
        if kind == KIND_QUANTIZED:
            need = 8 + 2 * count
            if offset + need > len(data):
                raise FactorFileError(
                    f"container truncated inside {name}: need {need} bytes at "
                    f"offset {offset}, have {len(data) - offset}"
                )
            (scale,) = struct.unpack_from("<d", data, offset)
            if not (math.isfinite(scale) and scale > 0.0):
                raise FactorFileError(f"invalid quantization scale {scale!r} in {name}")
            codes = np.frombuffer(
                data, dtype="<i2", count=count, offset=offset + 8
            ).astype(np.int64)
            try:
                tensor = dequantize(codes, scale, plan.bits(name)).reshape(shape)
            except Exception as exc:
                raise FactorFileError(f"invalid codes in {name}: {exc}") from exc
            offset += need
        else:
            need = 8 * count
            if offset + need > len(data):
                raise FactorFileError(
                    f"container truncated inside {name}: need {need} bytes at "
                    f"offset {offset}, have {len(data) - offset}"
                )
            tensor = (
                np.frombuffer(data, dtype="<f8", count=count, offset=offset)
                .astype(np.float64)
                .reshape(shape)
            )
            offset += need
        loaded[name] = tensor
    if offset != len(data):
        raise FactorFileError(
            f"{len(data) - offset} trailing bytes after the last payload"
        )
    factors = TwoLevelFactors(plan=plan, **loaded)
    try:
        factors.validate()
    except Exception as exc:
        raise FactorFileError(f"loaded factors are invalid: {exc}") from exc
    return factors


def save_factors(path, factors: TwoLevelFactors, quantized: bool = False) -> None:
    atomic_write(path, factors_to_bytes(factors, quantized=quantized))


def load_factors(path) -> TwoLevelFactors:
    with open(path, "rb") as fh:
        return factors_from_bytes(fh.read())
