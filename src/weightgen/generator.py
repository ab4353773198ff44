"""Two-level factorized convolution kernels and their exact cost accounting.

A conv layer with C_out kernels of shape (C_in, k, k) is generated from a
small set of stored factors instead of a dense weight tensor:

* cross-kernel level: the C_out kernels are mixtures of n_cross "basis
  kernels", W_o = sum_b mixer[o, b] * K_b, with mixer of shape
  (C_out, n_cross);
* intra-kernel level: each basis kernel K_b, viewed as a (C_in, k*k)
  matrix, is itself factorized as coeff[b] @ basis[b] with coeff[b] of
  shape (C_in, n_basis) and basis[b] of shape (n_basis, k*k).

Either level is skipped when it cannot compress: the intra level when
k == 1 or n_basis >= min(C_in, k*k) (then the basis-kernel matrices are
stored densely), the cross level when n_cross >= min(C_out, C_in*k*k)
(then every output kernel is its own basis kernel and no mixer exists).
The effective cardinality of a skipped level is the number of rows stored
there: C_in for the intra level, C_out for the cross level.

``forward`` quantizes the factors; the basis kernels ``GenForward.w_cross``
= coeff @ basis and the dense kernels ``GenForward.weight`` are formed only
when read.  Stage 1 fits the unquantized factors through the same two
products, formed in place each step, and ``backward``.  A generated
conv layer never reads ``weight``.  When it runs fewer multiply-adds that
way it applies the quantized factors level by level, the coeff as a 1x1
conv, the basis as a grouped k x k conv and the mixer as a 1x1 conv, and
never reads ``w_cross`` either; otherwise, and always with the intra level
skipped, it convolves with w_cross and then mixes (``nn.GeneratedConv2d``).

Every stored factor is fake-quantized to its own bit-width during
generation, with a per-tensor scale; gradients flow through the quantizer
by the plain straight-through rule.  Nothing is clipped: each scale is the
tensor's own maximum magnitude, so every entry lies inside the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, ShapeError
from .quantize import (
    check_bits,
    check_count,
    fake_quantize,
    quantize_codes,  # not called here; perfbench's tracer test looks its wrapper up in this module
)

FACTOR_NAMES = ("basis", "coeff", "mixer")
# Bits per weight of the dense layer that memory_ratio (r_m) compares against.
DENSE_BITS = 16


@dataclass(frozen=True)
class GenPlan:
    """Resolved structure of one generated layer.

    n_basis and n_cross are the effective cardinalities after the skip
    rules, i.e. the number of rows actually stored at each level.
    """

    c_out: int
    c_in: int
    k: int
    n_basis: int
    n_cross: int
    intra_active: bool
    cross_active: bool
    q_basis: int
    q_coeff: int
    q_mixer: int

    @property
    def kk(self) -> int:
        return self.k * self.k

    def stored_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each stored factor tensor, in the order basis, coeff,
        mixer.  The basis exists only with the intra level, the mixer only
        with the cross level; without the intra level the coeff tensor is
        the dense basis-kernel stack."""
        shapes = {}
        if self.intra_active:
            shapes["basis"] = (self.n_cross, self.n_basis, self.kk)
            shapes["coeff"] = (self.n_cross, self.c_in, self.n_basis)
        else:
            shapes["coeff"] = (self.n_cross, self.c_in, self.kk)
        if self.cross_active:
            shapes["mixer"] = (self.c_out, self.n_cross)
        return shapes

    def bits(self, name: str) -> int:
        """Bit-width of the named factor tensor."""
        return {"basis": self.q_basis, "coeff": self.q_coeff, "mixer": self.q_mixer}[name]


def plan_layer(
    c_out: int,
    c_in: int,
    k: int,
    n_basis: int,
    n_cross: int,
    q_basis: int = 4,
    q_coeff: int = 4,
    q_mixer: int = 4,
) -> GenPlan:
    """Apply the skip rules and fix the layer structure."""
    for name, v in (("c_out", c_out), ("c_in", c_in), ("k", k),
                    ("n_basis", n_basis), ("n_cross", n_cross)):
        check_count(name, v)
    for name, bits in (("q_basis", q_basis), ("q_coeff", q_coeff), ("q_mixer", q_mixer)):
        check_bits(name, bits)
    kk = k * k
    intra_active = k > 1 and n_basis < min(c_in, kk)
    cross_active = n_cross < min(c_out, c_in * kk)
    return GenPlan(
        c_out=int(c_out),
        c_in=int(c_in),
        k=int(k),
        n_basis=int(n_basis) if intra_active else int(c_in),
        n_cross=int(n_cross) if cross_active else int(c_out),
        intra_active=intra_active,
        cross_active=cross_active,
        q_basis=int(q_basis),
        q_coeff=int(q_coeff),
        q_mixer=int(q_mixer),
    )


@dataclass
class TwoLevelFactors:
    """Stored factors of one generated layer.

    basis: (n_cross, n_basis, k*k) when the intra level is active, else None.
    coeff: (n_cross, c_in, n_basis) when intra is active, else the dense
           basis-kernel stack (n_cross, c_in, k*k).
    mixer: (c_out, n_cross) when the cross level is active, else None.
    """

    plan: GenPlan
    basis: np.ndarray | None
    coeff: np.ndarray
    mixer: np.ndarray | None

    def validate(self) -> None:
        shapes = self.plan.stored_shapes()
        for name in FACTOR_NAMES:
            value, want = getattr(self, name), shapes.get(name)
            if want is None:
                if value is not None:
                    raise ShapeError(f"{name} must be None when its level is skipped")
            elif value is None or value.shape != want:
                got = None if value is None else value.shape
                raise ShapeError(f"{name} shape {got}, expected {want}")
        for name, t in self.stored():
            if not np.isfinite(t).all():
                raise NonFiniteError(f"{name} contains non-finite entries")

    def stored(self):
        """Yield (name, tensor) for every factor tensor the plan stores."""
        for name in self.plan.stored_shapes():
            yield name, getattr(self, name)


def init_random(plan: GenPlan, rng: np.random.Generator) -> TwoLevelFactors:
    """He-style random factors: the generated kernels come out with variance
    close to 2 / (c_in * k * k) regardless of the cardinalities."""
    p = plan
    sigma_w = np.sqrt(2.0 / (p.c_in * p.kk))
    tensors = dict.fromkeys(FACTOR_NAMES)
    for name, shape in p.stored_shapes().items():
        draw = rng.standard_normal(shape)
        if name == "mixer":
            tensors[name] = draw / np.sqrt(p.n_cross)
        elif name == "coeff" and p.intra_active:
            tensors[name] = draw / np.sqrt(p.n_basis)
        else:
            tensors[name] = draw * sigma_w
    f = TwoLevelFactors(plan=p, **tensors)
    f.validate()
    return f


@dataclass
class GenForward:
    """Intermediates of one generation pass, kept for the backward pass."""

    plan: GenPlan
    q_basis: np.ndarray | None
    q_coeff: np.ndarray
    q_mixer: np.ndarray | None

    @cached_property
    def w_cross(self) -> np.ndarray:
        """The (n_cross, c_in, k*k) quantized basis kernels, coeff @ basis,
        formed on first use."""
        return np.matmul(self.q_coeff, self.q_basis) if self.plan.intra_active else self.q_coeff

    @cached_property
    def weight(self) -> np.ndarray:
        """The dense (c_out, c_in, k, k) kernels, mixed on first use."""
        p = self.plan
        flat = self.w_cross.reshape(p.n_cross, -1)
        if p.cross_active:
            flat = np.matmul(self.q_mixer, flat)
        return flat.reshape(p.c_out, p.c_in, p.k, p.k)


def forward(factors: TwoLevelFactors, quantized: bool = True) -> GenForward:
    """Quantize the factors; the basis kernels and the dense kernels are
    formed only when ``w_cross`` and ``weight`` are read."""
    factors.validate()
    p = factors.plan
    q = dict.fromkeys(FACTOR_NAMES)
    for name, t in factors.stored():
        q[name] = fake_quantize(t, p.bits(name)) if quantized else t
    return GenForward(plan=p, q_basis=q["basis"], q_coeff=q["coeff"], q_mixer=q["mixer"])


def generate(factors: TwoLevelFactors, quantized: bool = True) -> np.ndarray:
    return forward(factors, quantized=quantized).weight


@dataclass
class FactorGrads:
    """Gradients aligned with TwoLevelFactors fields (None where inactive)."""

    basis: np.ndarray | None
    coeff: np.ndarray
    mixer: np.ndarray | None


def intra_backward(fwd: GenForward,
                   d_w_cross: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(d_basis, d_coeff) from a gradient on the (n_cross, c_in, k*k) basis
    kernels; d_basis is None when the intra level is skipped."""
    if not fwd.plan.intra_active:
        return None, d_w_cross
    return (np.matmul(np.swapaxes(fwd.q_coeff, 1, 2), d_w_cross),
            np.matmul(d_w_cross, np.swapaxes(fwd.q_basis, 1, 2)))


def backward(
    factors: TwoLevelFactors, fwd: GenForward, d_weight: np.ndarray
) -> FactorGrads:
    """Backpropagate a loss gradient on the generated kernels to the factors.
    Plain chain rule through the two matrix products; the fake quantizers
    pass gradients straight through unchanged.  There is no clip mask: each
    quantizer's scale is its tensor's maximum magnitude, so no entry lies
    outside the grid."""
    p = factors.plan
    d_weight = np.asarray(d_weight, dtype=np.float64)
    want = (p.c_out, p.c_in, p.k, p.k)
    if d_weight.shape != want:
        raise ShapeError(f"d_weight shape {d_weight.shape}, expected {want}")
    g_flat = d_weight.reshape(p.c_out, -1)
    d_mixer = None
    if p.cross_active:
        d_mixer = np.matmul(g_flat, fwd.w_cross.reshape(p.n_cross, -1).T)
        g_flat = np.matmul(fwd.q_mixer.T, g_flat)
    d_basis, d_coeff = intra_backward(fwd, g_flat.reshape(p.n_cross, p.c_in, p.kk))
    return FactorGrads(basis=d_basis, coeff=d_coeff, mixer=d_mixer)


def dense_param_count(plan: GenPlan) -> int:
    return plan.c_out * plan.c_in * plan.kk


def param_count(plan: GenPlan) -> int:
    """Stored float parameters of the generated layer."""
    return sum(math.prod(shape) for shape in plan.stored_shapes().values())


def param_ratio(plan: GenPlan) -> float:
    """Stored parameters over dense parameters; 1.0 when nothing compresses."""
    return param_count(plan) / dense_param_count(plan)


def memory_bits(plan: GenPlan) -> int:
    """Total stored bits at the layer's mixed precisions."""
    return sum(math.prod(shape) * plan.bits(name)
               for name, shape in plan.stored_shapes().items())


def memory_ratio(plan: GenPlan, dense_bits: int = DENSE_BITS) -> float:
    """Stored bits over a dense layer at dense_bits per weight."""
    check_count("dense_bits", dense_bits)
    if not plan.intra_active and not plan.cross_active:
        return 1.0
    return memory_bits(plan) / (dense_param_count(plan) * dense_bits)

