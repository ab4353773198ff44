"""Minimal neural-network layers with hand-written backward passes.

Only what the experiments need: conv (dense or generated), batch norm,
ReLU, adaptive average pooling, flatten, linear, and an optional
activation fake-quantizer.  A layer never writes its input, and on
forward it makes only the arrays it returns or its backward needs.

One contract covers every layer: a training (``train=True``) forward keeps
the backward state, and backward is defined only after one.  A training
conv, dense or generated, caches its input's row-patch matrix
(``tensor.row_patches``), a training batch norm its centred input, and
ReLU its own output, each under ``_cache``.  Backward consumes
that state: a conv drops its row patches once it has the weight gradient,
before it makes the input gradient's matrix of the same size, batch norm
forms its input gradient in its centred-input buffer, and
``Sequential`` drops each layer's ``_cache`` as soon as the layer's
backward returns.  So backward runs once per training forward, and a model
holds no activations after a training step.  A network's backward yields
parameter gradients only: ``Sequential`` asks its first layer for no input
gradient, so no gradient of the network input is ever formed.  An inference
(``train=False``) forward keeps nothing: a conv lowers in bounded blocks,
batch norm is one scale and shift per channel, and ``Sequential`` drops
each layer's ``_cache`` as soon as the layer returns, so inference holds no
activations once it returns and a backward after it raises.

A generated conv never forms its C_out kernels, and runs one of two
ways.  Its cross conv, a conv with its n_cross basis kernels followed by
the mixer as a 1x1 conv, runs n_cross*C_in*k*k + C_out*n_cross nonzero
multiply-adds per output pixel against C_out*C_in*k*k for a dense conv.
It is one banded GEMM of n_cross*H_out rows on the input's row patches
(``tensor.grouped_conv`` with one group), which multiplies H_used/k times
the nonzero work, H_used = (H_out-1)*stride + k, on the row-patch matrix
a dense conv's MEC windows read.  With its intra level active it may instead
run its grouped path: a 1x1 conv with the coeff factors into
n_cross*n_basis channels, a grouped k x k conv with the basis kernels, one
banded GEMM per group, and the mixer, at
n_cross*n_basis*(C_in*HW/(H_out*W_out) + k*H_used) + C_out*n_cross
multiply-adds.  Each forward takes the grouped path when its coeff and basis
convs run fewer multiply-adds than the cross conv's nonzero ones and its row
patches are no larger than an im2col matrix (not the cross path's own row
patches), which holds for small n_basis only: on layer 1 of the default arch
up to n_basis = 6.

Activations between layers are (C, H, W, n), as a conv's GEMM makes them.
Only ``Sequential``, on entry and exit, and ``Flatten``, which gives the
linear layers (n, C*H*W) rows of (c, h, w)-ordered features, change layout.

Every layer computes in its input's dtype by ``tensor.as_float``'s rule: a
float32 batch (as ``dataio`` loads images) stays float32 through every
conv, batch norm, pool and linear layer, and any other input runs in
float64.  Parameters, their gradients and batch norm's running statistics
are float64 whatever the activations are; a layer casts the few
per-channel or weight arrays it multiplies activations with to their dtype,
and accumulates its float32 parameter gradients into the float64 ones.

Architectures are described by compact strings such as

    C32K5S2-C32K5S1-C32K5S1-AvgPool3-FC10

where C{o}K{k}S{s}[P{p}] expands to conv -> batch norm -> ReLU,
AvgPool{n} adaptively pools to n x n, and FC{o} is a linear layer; FC
tokens end the string, so a network's output is (n, classes).
"""

from __future__ import annotations

import re

import numpy as np

from . import generator, tensor
from .errors import ConfigError, ShapeError, WeightgenError
from .quantize import fake_quantize


class Param:
    """A trainable array plus its accumulated gradient."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """A training forward keeps what backward reads, as large as an
    activation, under ``_cache``; backward is defined only after a training
    forward and consumes that state, and ``Sequential`` drops ``_cache``
    after each layer's backward and after an inference forward.  Backward
    with ``input_grad=False``, as ``Sequential`` runs its first layer, forms
    the same parameter gradients and no input gradient."""

    _cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients and return the input's, or
        None, skipping the input gradient's work, when input_grad is False."""
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class Conv2d(Layer):
    """Dense convolution without bias (batch norm follows it everywhere
    here), with a He-initialized weight tensor.

    It runs MEC (``tensor.conv2d``): one batched GEMM over the output
    rows' windows of the input's row patches, im2col's multiply-adds on a
    matrix about k times smaller.  A training forward caches the input's
    shape and its row patches for backward.  An inference forward lowers
    in bounded blocks (``tensor.conv2d_forward``) and caches nothing.
    """

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1,
                 pad: int = 0, *, rng: np.random.Generator):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.pad = stride, pad
        w = rng.standard_normal((c_out, c_in, k, k)) * np.sqrt(2.0 / (c_in * k * k))
        self.weight = Param("weight", w)

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "conv input")
        if not train:
            self._cache = None
            return tensor.conv2d_forward(x, self.weight.value, self.stride, self.pad)
        out, rows = tensor.conv2d(x, self.weight.value, self.stride, self.pad)
        self._cache = (x.shape, rows)
        return out

    def backward(self, grad, input_grad=True):
        x_shape, rows = self._cache
        self._cache = None
        self.weight.grad += tensor.conv2d_weight_grad(grad, rows, self.weight.value.shape)
        del rows  # freed before d_x's row-patch gradient of the same size is made
        if not input_grad:
            return None
        return tensor.conv2d_input_grad(grad, self.weight.value, x_shape, self.stride, self.pad)

    def params(self):
        return [self.weight]


class GeneratedConv2d(Layer):
    """Convolution without bias whose kernels are generated from two-level
    factors.

    The C_out dense kernels are never formed.  Off the grouped path the
    layer convolves with its n_cross quantized basis kernels, its cross
    conv, and the mixer mixes the results into C_out channels as a 1x1
    conv; without a mixer the basis-kernel output is the output.  The cross
    conv is one banded GEMM on x's row patches, a ``tensor.grouped_conv``
    with (1, n_cross, C_in, k, k) kernels.  On the grouped path, open only
    with the intra level active, the basis kernels are not formed either: a
    1x1 conv with the quantized coeff, laid out as (n_cross*n_basis, C_in),
    gives u; a grouped conv with (n_cross, 1, n_basis, k, k) kernels
    convolves each group of n_basis channels of u with its n_basis
    quantized basis kernels and sums them into one channel; the mixer
    follows.  Each forward takes the grouped path when ``_grouped`` says it
    costs less for the input's shape.

    A training forward caches its grouped conv's row-patch matrix, on the
    grouped path also x, and with a mixer the basis-kernel output z, which
    the mixer gradient reads.  An inference forward caches nothing and runs
    all its steps per bounded sample block (``tensor.in_sample_blocks``),
    the blocks sized by the row patches and, off the grouped path, also by
    the padded input and the n_cross and C_out outputs.
    """

    def __init__(self, factors: generator.TwoLevelFactors, stride: int = 1,
                 pad: int = 0, quantized: bool = True):
        factors.validate()
        self.factors = factors
        self.stride, self.pad = stride, pad
        self.quantized = quantized
        p = factors.plan
        self.c_in, self.c_out, self.k = p.c_in, p.c_out, p.k
        self._params = {name: Param(name, value) for name, value in factors.stored()}
        self._gen = None

    def _grouped(self, x_shape) -> bool:
        """Whether a forward on an x_shape input takes the grouped path.  It
        needs the intra level, and per sample the 1x1 coeff conv plus the
        banded grouped conv must run fewer multiply-adds than the cross conv
        has nonzero ones, n_cross*C_in*k*k per output pixel (the mixer's are
        the same on both paths), and cache a row-patch matrix of no more than
        C_in*k*k*H_out*W_out values per sample."""
        p = self.factors.plan
        if not p.intra_active:
            return False
        _, h, w, _ = x_shape
        s, pad = self.stride, self.pad
        rows = tensor.row_patch_bytes((p.n_cross * p.n_basis, h, w, 1), p.k, s, pad, 1)
        h_out = tensor.conv_output_size(h, p.k, s, pad)
        cols = p.c_in * p.kk * h_out * tensor.conv_output_size(w, p.k, s, pad)
        grouped_macs = p.n_cross * p.n_basis * p.c_in * h * w + rows * h_out
        return grouped_macs < p.n_cross * cols and rows <= cols

    def _basis_conv(self, x, a, kernels):
        """(z, rows): the n_cross basis-kernel channels of x and the grouped
        conv's rows.  With a coeff matrix a (grouped path), u = a x is
        convolved group-wise with (n_cross, 1, n_basis, k, k) kernels;
        otherwise x is convolved with (1, n_cross, C_in, k, k) ones."""
        if a is not None:
            x = (a @ x.reshape(self.c_in, -1)).reshape(a.shape[0], *x.shape[1:])
        return tensor.grouped_conv(x, kernels, self.stride, self.pad)

    def _mix(self, z):
        mixer = self._gen.q_mixer
        if mixer is None:
            return z
        mixer = mixer.astype(z.dtype, copy=False)
        return tensor.matmul(mixer, z.reshape(z.shape[0], -1)).reshape(self.c_out, *z.shape[1:])

    def _eval_sample_bytes(self, x, a) -> int:
        """Bytes per sample of an eval block's row patches and, off the
        grouped path, of its other temporaries: x's padded copy and the
        n_cross and C_out output channels."""
        c, h, w, _ = x.shape if a is None else (a.shape[0], *x.shape[1:])
        k, s, pad = self.k, self.stride, self.pad
        size = tensor.row_patch_bytes((c, h, w, 1), k, s, pad, x.itemsize)
        if a is None:
            channels = self.factors.plan.n_cross
            channels += self.c_out if self._gen.q_mixer is not None else 0
            h_out, w_out = (tensor.conv_output_size(d, k, s, pad) for d in (h, w))
            size += channels * h_out * w_out * x.itemsize
            if pad:
                size += c * (h + 2 * pad) * (w + 2 * pad) * x.itemsize
        return size

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "conv input")
        if x.shape[0] != self.c_in:
            raise ShapeError(
                f"weight expects {self.c_in} input channels, input has {x.shape[0]} "
                f"(input {x.shape})"
            )
        self._gen = generator.forward(self.factors, quantized=self.quantized)
        p = self.factors.plan
        if self._grouped(x.shape):
            # the coeff as the (n_cross*n_basis, C_in) matrix of a 1x1 conv,
            # the basis as (n_cross, 1, n_basis, k, k) grouped-conv kernels
            a = self._gen.q_coeff.transpose(0, 2, 1).reshape(-1, p.c_in).astype(x.dtype)
            kernels = self._gen.q_basis.reshape(p.n_cross, 1, p.n_basis, p.k, p.k)
        else:
            # the cross kernels as one group of n_cross outputs
            a = None
            kernels = self._gen.w_cross.reshape(1, -1, p.c_in, p.k, p.k)
        kernels = kernels.astype(x.dtype)
        if not train:
            self._cache = None
            return tensor.in_sample_blocks(
                lambda xb: self._mix(self._basis_conv(xb, a, kernels)[0]), x,
                self._eval_sample_bytes(x, a))
        z, rows = self._basis_conv(x, a, kernels)
        # x only on the grouped path, whose coeff gradient reads it
        coeff = None if a is None else (a, x)
        self._cache = ((x.shape, rows, kernels, coeff),
                       z if self._gen.q_mixer is not None else None)
        return self._mix(z)

    def backward(self, grad, input_grad=True):
        conv, z = self._cache
        self._cache = None
        mixer = self._gen.q_mixer
        if mixer is not None:
            g = grad.reshape(self.c_out, -1)
            self._params["mixer"].grad += g @ z.reshape(z.shape[0], -1).T
            grad = (mixer.astype(g.dtype, copy=False).T @ g).reshape(z.shape)
        x_shape, rows, kernels, coeff = conv
        del conv
        u_shape = x_shape if coeff is None else (coeff[0].shape[0], *x_shape[1:])
        d_kernels = tensor.grouped_conv_kernel_grad(
            grad, rows, kernels.shape, u_shape, self.stride, self.pad)
        del rows  # freed before d_u's row-patch matrix is made
        if coeff is None:
            d_basis, d_coeff = generator.intra_backward(
                self._gen, d_kernels.reshape(self._gen.w_cross.shape))
            if d_basis is not None:
                self._params["basis"].grad += d_basis
            self._params["coeff"].grad += d_coeff
            if not input_grad:
                return None
            return tensor.grouped_conv_input_grad(grad, kernels, u_shape, self.stride, self.pad)
        # on the grouped path d_u is the coeff gradient's input
        d_u = tensor.grouped_conv_input_grad(grad, kernels, u_shape, self.stride, self.pad)
        a, x = coeff
        p = self.factors.plan
        d_u = d_u.reshape(a.shape[0], -1)
        d_a = d_u @ x.reshape(self.c_in, -1).T
        self._params["basis"].grad += d_kernels.reshape(p.n_cross, p.n_basis, p.kk)
        self._params["coeff"].grad += d_a.reshape(p.n_cross, p.n_basis, p.c_in).transpose(0, 2, 1)
        if not input_grad:
            return None
        return (a.T @ d_u).reshape(x.shape)

    def params(self):
        return list(self._params.values())


class BatchNorm2d(Layer):
    """Per-channel batch norm.  A training forward takes its per-channel
    sums as einsums and caches the centred input and 1/sigma, folded into
    the output scale and backward's coefficients; backward forms d_x in the
    centred input's buffer.  Inference is one scale and shift per channel."""

    eps, momentum = 1e-5, 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "batch norm input")
        if x.shape[0] != self.channels:
            raise ShapeError(
                f"batch norm over {self.channels} channels got input {x.shape}"
            )
        x2d = x.reshape(self.channels, -1)
        dt = x.dtype
        if train:
            m = x2d.shape[1]
            mu = np.einsum("ij->i", x2d) / m
            xc = x2d - mu[:, None]
            var = np.einsum("ij,ij->i", xc, xc) / m
            mom, unbiased = self.momentum, var * (m / max(m - 1, 1))
            self.running_mean = (1 - mom) * self.running_mean + mom * mu
            self.running_var = (1 - mom) * self.running_var + mom * unbiased
            inv_std = 1.0 / np.sqrt(var + self.eps)
            out = xc * (self.gamma.value * inv_std).astype(dt)[:, None]
            out += self.beta.value.astype(dt)[:, None]
            self._cache = (xc, inv_std)
        else:
            mu = self.running_mean
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            scale = self.gamma.value * inv_std
            out = x2d * scale.astype(dt)[:, None]
            out += (self.beta.value - mu * scale).astype(dt)[:, None]
            self._cache = None
        return out.reshape(x.shape)

    def backward(self, grad, input_grad=True):
        xc, inv_std = self._cache
        self._cache = None
        g = grad.reshape(xc.shape)
        g_sum = np.einsum("ij->i", g)
        g_xhat = np.einsum("ij,ij->i", g, xc) * inv_std
        self.beta.grad += g_sum
        self.gamma.grad += g_xhat
        if not input_grad:
            return None
        m = g.shape[1]  # the batch statistics depend on x too
        d_x = xc  # formed in xc's buffer, which nothing else holds
        d_x *= (-g_xhat * inv_std / m)[:, None]
        d_x += g
        d_x -= (g_sum / m)[:, None]
        d_x *= (self.gamma.value * inv_std).astype(xc.dtype)[:, None]
        return d_x.reshape(grad.shape)

    def params(self):
        return [self.gamma, self.beta]


class ReLU(Layer):
    def forward(self, x, train=False):
        self._cache = np.maximum(tensor.as_float(x), 0.0)
        return self._cache

    def backward(self, grad, input_grad=True):
        if not input_grad:
            return None
        # the mask in grad's dtype: a bool operand would be cast per element
        return grad * (self._cache > 0).astype(grad.dtype)


class AdaptiveAvgPool2d(Layer):
    """Average-pool to a fixed (out, out) grid, window i spanning
    [floor(i*H/out), ceil((i+1)*H/out)).  Forward and backward are each one
    batched matmul with the (out*out, H*W) window-average matrix, the
    Kronecker product of the two axes' ones, which a forward caches."""

    def __init__(self, out: int):
        self.out = out

    def _averages(self, size: int) -> np.ndarray:
        """The (out, size) matrix whose row i averages window i."""
        i = np.arange(self.out)[:, None]
        lo, hi = i * size // self.out, -(-(i + 1) * size // self.out)
        return ((np.arange(size) >= lo) & (np.arange(size) < hi)) / (hi - lo)

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "pool input")
        c, h, w, n = x.shape
        if h < self.out or w < self.out:
            raise ShapeError(f"cannot pool {h}x{w} down to {self.out}x{self.out}")
        avg = np.kron(self._averages(h), self._averages(w)).astype(x.dtype)
        self._cache = (x.shape, avg)
        return np.matmul(avg, x.reshape(c, h * w, n)).reshape(c, self.out, self.out, n)

    def backward(self, grad, input_grad=True):
        if not input_grad:
            return None
        x_shape, avg = self._cache
        grad = grad.reshape(x_shape[0], -1, x_shape[3])
        return np.matmul(avg.T, grad).reshape(x_shape)


class Flatten(Layer):
    """(C, H, W, n) activations to the (n, C*H*W) matrix Linear takes, each
    row's features in (c, h, w) order: one of a network's two layout changes."""

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(-1, x.shape[-1]).T

    def backward(self, grad, input_grad=True):
        return grad.T.reshape(self._shape) if input_grad else None


class Linear(Layer):
    def __init__(self, d_in: int, d_out: int, *, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(d_in)
        self.weight = Param("weight", rng.uniform(-bound, bound, (d_out, d_in)))
        self.bias = Param("bias", np.zeros(d_out))

    def forward(self, x, train=False):
        x = tensor.as_float(x)
        if x.ndim != 2:
            raise ShapeError(f"linear input must be 2-D (n, features), got shape {x.shape}")
        if x.shape[1] != self.weight.value.shape[1]:
            raise ShapeError(
                f"weight expects {self.weight.value.shape[1]} input features, input has "
                f"{x.shape[1]} (input {x.shape})"
            )
        self._cache = x
        w, b = (p.value.astype(x.dtype, copy=False) for p in (self.weight, self.bias))
        return x @ w.T + b

    def backward(self, grad, input_grad=True):
        self.weight.grad += grad.T @ self._cache
        self.bias.grad += grad.sum(axis=0)
        if not input_grad:
            return None
        return grad @ self.weight.value.astype(grad.dtype, copy=False)

    def params(self):
        return [self.weight, self.bias]


class ActQuant(Layer):
    """Fake-quantize activations with a per-batch dynamic scale.

    The scale is the batch's maximum magnitude, so no input lies outside the
    grid and the straight-through gradient passes unchanged.  The grid is
    computed in float64, and its values are returned in the input's dtype.
    """

    def __init__(self, bits: int = 8):
        self.bits = bits

    def forward(self, x, train=False):
        x = tensor.as_float(x)
        return fake_quantize(x, self.bits).astype(x.dtype, copy=False)

    def backward(self, grad, input_grad=True):
        return grad if input_grad else None


class Sequential(Layer):
    """Layers in a chain.  Takes an (n, C, H, W) batch and transposes it to
    (C, H, W, n) once on entry.  Backward accumulates every parameter's
    gradient and returns None: it runs the first layer with
    ``input_grad=False``, so the network input's gradient, which training
    never reads, is not formed.  A float32 batch runs in float32, any other
    in float64; backward casts the incoming gradient (kd_loss's is float64)
    to the forward's dtype.

    Backward is defined only after a training forward that returned, and
    runs once per such forward: it drops each layer's ``_cache`` as soon as
    the layer's backward returns, and every layer's if a backward raises, so
    the model holds no activation after a step.  An inference forward drops
    each layer's ``_cache`` as soon as the layer returns its output: a batch
    then holds at most one layer's input, output and block temporaries, and
    the model holds no activation once the forward returns.  Backward after
    an inference forward, after a forward that raised, or after a backward,
    even one that raised, raises a WeightgenError."""

    _trained = False

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self._dtype = np.float64

    def forward(self, x, train=False):
        self._trained = False
        x = tensor.as_float(x)
        if x.ndim != 4:
            raise ShapeError(f"network input must be 4-D (n, c, h, w), got shape {x.shape}")
        self._dtype = x.dtype
        x = x.transpose(1, 2, 3, 0)
        for layer in self.layers:
            x = layer.forward(x, train=train)
            if not train:
                layer._cache = None
        self._trained = train
        return x

    def backward(self, grad) -> None:
        if not self._trained:
            raise WeightgenError(
                "backward needs a training forward first: the last forward was an "
                "inference (train=False) one or raised, or its backward has run, and "
                "keeps no backward state")
        self._trained = False
        try:
            grad = np.asarray(grad, dtype=self._dtype)
            for layer in reversed(self.layers[1:]):
                grad = layer.backward(grad)
                layer._cache = None
            # nothing reads the network input's gradient
            self.layers[0].backward(grad, input_grad=False)
        finally:  # a backward that raised leaves no state of its own or below it
            for layer in self.layers:
                layer._cache = None

    def params(self):
        return [p for _, p in self.named_params()]

    def named_params(self) -> list[tuple[str, Param]]:
        out = []
        for i, layer in enumerate(self.layers):
            for p in layer.params():
                out.append((f"{i}.{p.name}", p))
        return out

    def generated_layers(self) -> list[GeneratedConv2d]:
        return [l for l in self.layers if isinstance(l, GeneratedConv2d)]

    def conv_layers(self) -> list[Conv2d | GeneratedConv2d]:
        """Dense and generated conv layers, in order."""
        return [l for l in self.layers if isinstance(l, (Conv2d, GeneratedConv2d))]

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()


_CONV_RE = re.compile(r"^C(\d+)K(\d+)S(\d+)(?:P(\d+))?$")
_POOL_RE = re.compile(r"^AvgPool(\d+)$")
_FC_RE = re.compile(r"^FC(\d+)$")


def plan_network(arch: str, in_channels: int, in_size: int, generated: tuple[int, ...],
                 n_basis: int, n_cross: int, q_basis: int, q_coeff: int,
                 q_mixer: int) -> list[tuple]:
    """The layers build_network makes, as (kind, args) tokens, with no
    parameter drawn: ("conv", (c_in, c_out, k, stride, pad, plan)), plan being
    a generated conv's GenPlan or None, ("avgpool", (out,)), ("flatten", ())
    and ("fc", (d_in, d_out)).  Raises build_network's errors, in its order.
    """
    tokens: list[tuple] = []
    c, size = in_channels, in_size
    conv_idx = 0
    flat_dim = None
    for piece in arch.split("-"):
        conv, pool, fc = (r.match(piece) for r in (_CONV_RE, _POOL_RE, _FC_RE))
        if not (conv or pool or fc):
            raise ConfigError(f"unrecognized architecture token {piece!r} in {arch!r}")
        sizes = [int(g) for g in (conv or pool or fc).groups(default="0")]
        if 0 in sizes[:3]:  # a conv's padding alone may be zero
            raise ConfigError(f"architecture token {piece!r} in {arch!r} has a zero size")
        if not fc and flat_dim is not None:
            raise ConfigError(f"architecture token {piece!r} in {arch!r} follows an FC token")
        if conv:
            c_out, k, stride, pad = sizes
            out_size = tensor.conv_output_size(size, k, stride, pad)
            if out_size < 1:
                raise ConfigError(
                    f"conv C{c_out}K{k}S{stride} collapses a {size}x{size} input"
                )
            plan = None
            if conv_idx in generated:
                plan = generator.plan_layer(
                    c_out, c, k, n_basis, n_cross, q_basis, q_coeff, q_mixer
                )
            tokens.append(("conv", (c, c_out, k, stride, pad, plan)))
            c, size = c_out, out_size
            conv_idx += 1
        elif pool:
            if sizes[0] > size:
                raise ConfigError(f"architecture token {piece!r} in {arch!r} cannot pool "
                                  f"a {size}x{size} map up to {sizes[0]}x{sizes[0]}")
            (size,) = sizes
            tokens.append(("avgpool", (size,)))
        else:
            if flat_dim is None:
                tokens.append(("flatten", ()))
                flat_dim = c * size * size
            tokens.append(("fc", (flat_dim, sizes[0])))
            flat_dim = sizes[0]
    if flat_dim is None:
        raise ConfigError(f"architecture {arch!r} ends in {piece!r}, not in an FC token")
    bad = [g for g in generated if not 0 <= g < conv_idx]
    if bad:
        raise ConfigError(
            f"generated conv indices {bad} out of range: arch has {conv_idx} convs"
        )
    return tokens


def build_network(arch: str, in_channels: int, in_size: int, rng: np.random.Generator,
                  generated: tuple[int, ...] = (), n_basis: int = 1, n_cross: int = 1,
                  q_basis: int = 4, q_coeff: int = 4, q_mixer: int = 4,
                  act_bits: int | None = None, quantized: bool = True) -> Sequential:
    """Build a Sequential from an architecture string.

    generated lists the conv indices (0-based, in order of appearance) to
    replace with generated layers using the given cardinalities and widths.
    """
    layers: list[Layer] = []
    for kind, args in plan_network(arch, in_channels, in_size, generated, n_basis,
                                   n_cross, q_basis, q_coeff, q_mixer):
        if kind == "conv":
            c_in, c_out, k, stride, pad, plan = args
            if plan is None:
                layers.append(Conv2d(c_in, c_out, k, stride=stride, pad=pad, rng=rng))
            else:
                layers.append(GeneratedConv2d(generator.init_random(plan, rng), stride=stride,
                                              pad=pad, quantized=quantized))
            layers += [BatchNorm2d(c_out), ReLU()]
            if act_bits is not None:
                layers.append(ActQuant(act_bits))
        elif kind == "avgpool":
            layers.append(AdaptiveAvgPool2d(*args))
        elif kind == "flatten":
            layers.append(Flatten())
        else:
            layers.append(Linear(*args, rng=rng))
    return Sequential(layers)
