"""Symmetric fake quantization for factor tensors, plus distinct-value bounds.

A tensor quantized to ``bits`` lives on the grid

    {scale * c / n_pos : c in [-n_pos, n_pos]},    n_pos = 2**(bits-1) - 1,

which has 2**bits - 1 levels including an exact zero.  ``scale`` is the
largest magnitude in the tensor (1.0 for an all-zero tensor), so the grid
always covers the data and the maximal element maps onto +-scale exactly.
Ties round away from zero.  ``bits == 1`` degenerates to the single-level
grid {0}.

Re-quantizing a quantized tensor is a bitwise no-op: the max element keeps
the scale identical, and every value sits within a fraction of a grid step
of its own code, so the round-to-integer recovers the same code and the
reconstruction repeats the same float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CardinalityError, NonFiniteError, QuantRangeError
from .tensor import as_float

MAX_BITS = 16


def positive_levels(bits: int) -> int:
    """Number of strictly positive grid levels, n_pos = 2**(bits-1) - 1."""
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)) \
            or bits < 1 or bits > MAX_BITS:
        raise QuantRangeError(f"bits must be an int in [1, {MAX_BITS}], got {bits!r}")
    return 2 ** (bits - 1) - 1


def check_bits(name: str, bits) -> None:
    """Raise a QuantRangeError naming the field unless positive_levels takes bits."""
    try:
        positive_levels(bits)
    except QuantRangeError as exc:
        raise QuantRangeError(f"{name}: {exc}") from None


def check_count(name: str, value) -> None:
    """Raise a CardinalityError naming the field unless value is a positive int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise CardinalityError(f"{name} must be a positive int, got {value!r}")


def _code_buffer(m, bits: int):
    """(codes, scale, n_pos): m's codes as a float64 buffer of whole numbers
    in [-n_pos, n_pos] (a negative zero code is 0), and its scale."""
    n_pos = positive_levels(bits)
    m = as_float(m)
    mag = np.abs(m, dtype=np.float64)  # the one float64 buffer, updated in place
    scale = float(np.max(mag)) if m.size else 0.0
    if not math.isfinite(scale):  # max propagates NaN and inf
        raise NonFiniteError("quantize input contains non-finite entries")
    if scale == 0.0:
        scale = 1.0
    if n_pos == 0:
        mag[...] = 0.0
        return mag, scale, n_pos
    mag /= scale
    mag *= n_pos
    mag += 0.5
    np.floor(mag, out=mag)
    np.copysign(mag, m, out=mag)  # -mag where m < 0
    np.clip(mag, -n_pos, n_pos, out=mag)
    mag += 0.0  # -0.0 + 0.0 is +0.0: a negative zero code is 0
    return mag, scale, n_pos


def quantize_codes(m, bits: int):
    """Quantize to integer codes.  Returns (codes, scale).

    codes is int64 in [-n_pos, n_pos]; the represented values are
    scale * codes / n_pos.  Ties round away from zero.
    """
    codes, scale, _ = _code_buffer(m, bits)
    return codes.astype(np.int64), scale


def dequantize(codes, scale: float, bits: int) -> np.ndarray:
    """Map integer codes back to their float64 grid values."""
    n_pos = positive_levels(bits)
    codes = np.asarray(codes)
    if n_pos == 0:
        if codes.size and np.any(codes != 0):
            raise QuantRangeError("nonzero codes are invalid at bits=1")
        return np.zeros(codes.shape, dtype=np.float64)
    if codes.size and (np.max(codes) > n_pos or np.min(codes) < -n_pos):
        raise QuantRangeError(
            f"codes out of range [-{n_pos}, {n_pos}] for bits={bits}"
        )
    values = codes.astype(np.float64)
    values /= n_pos
    values *= scale
    return values


def fake_quantize(m, bits: int) -> np.ndarray:
    """Quantize and reconstruct in one step (the training-time view): the
    float64 values of dequantize(*quantize_codes(m, bits), bits), bit for
    bit, computed in quantize_codes' buffer with no integer copy."""
    values, scale, n_pos = _code_buffer(m, bits)
    if n_pos:
        values /= n_pos
        values *= scale
    return values


@dataclass(frozen=True)
class DistinctValueBound:
    """Counting bound on distinct generated values (see distinct_value_bound)."""

    coeff_count: int
    coeff_bits: float
    weight_bits: float | None = None


def distinct_value_bound(
    q_basis: int,
    q_coeff: int,
    n_basis: int,
    q_mixer: int | None = None,
    n_cross: int | None = None,
) -> DistinctValueBound:
    """Bound the value diversity of generated coefficients and weights.

    A generated coefficient entry is a sum of n_basis products of one
    q_basis-bit value and one q_coeff-bit value, so it takes at most

        coeff_count = (2**q_basis - 1) * (2**q_coeff - 1) * n_basis + 1

    distinct values (every nonzero product contributes at most that many
    lattice points, plus the shared zero), i.e. an equivalent bit-width of
    at most coeff_bits = q_basis + q_coeff + log2(n_basis).  When the
    cross-kernel mixer width q_mixer and its cardinality n_cross are given,
    the generated weight bit-width is bounded the same way one level up:
    weight_bits = q_mixer + coeff_bits + log2(n_cross).
    """
    check_bits("q_basis", q_basis)
    check_bits("q_coeff", q_coeff)
    check_count("n_basis", n_basis)
    count = (2**q_basis - 1) * (2**q_coeff - 1) * n_basis + 1
    coeff_bits = q_basis + q_coeff + math.log2(n_basis)
    weight_bits = None
    if (q_mixer is None) != (n_cross is None):
        raise CardinalityError("q_mixer and n_cross must be given together")
    if q_mixer is not None:
        check_bits("q_mixer", q_mixer)
        check_count("n_cross", n_cross)
        weight_bits = q_mixer + coeff_bits + math.log2(n_cross)
    return DistinctValueBound(int(count), float(coeff_bits), weight_bits)
