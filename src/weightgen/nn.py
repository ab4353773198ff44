"""Minimal neural-network layers with hand-written backward passes.

Only what the experiments need: conv (dense or generated), batch norm,
ReLU, adaptive average pooling, flatten, linear, and an optional
activation fake-quantizer.  A layer never writes its input, and on
forward it makes only the arrays it returns or its backward needs: a
training conv caches its im2col matrix, a training batch norm its
normalized input, and ReLU its own output.  An inference (``train=False``)
conv or batch norm caches only a reference to its input and recomputes
its im2col matrix, or its normalized input, if backward is called; eval
batch norm is one scale and shift per channel.  ``Sequential`` chains the
layers and collects parameters.  A generated conv convolves with its
n_cross basis kernels, then mixes the result into C_out channels as a 1x1
conv; with its cross level active that costs n_cross/C_out +
n_cross/(C_in*k*k) of a dense conv's multiply-adds.

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
from .errors import ConfigError, ShapeError
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
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class _Conv(Layer):
    """Convolution without bias (batch norm follows it everywhere here).

    Subclasses say where the kernel tensor comes from (``_kernel``) and
    where its gradient goes (``_take_grad``).

    A training forward caches the im2col matrix for backward.  An inference
    forward lowers in bounded blocks (``tensor.conv2d_forward``) and caches
    only the input, so backward after it re-lowers the input: memory is
    traded for recomputation on a path that rarely runs backward.
    """

    def _kernel(self) -> np.ndarray:
        raise NotImplementedError

    def _take_grad(self, d_weight: np.ndarray) -> None:
        raise NotImplementedError

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "conv input")
        weight = self._kernel()
        if train:
            out, cols = tensor.conv2d(x, weight, self.stride, self.pad)
        else:
            out, cols = tensor.conv2d_forward(x, weight, self.stride, self.pad), None
        self._cache = (x, cols, weight)
        return out

    def backward(self, grad):
        x, cols, weight = self._cache
        if cols is None:
            cols = tensor.im2col(x, weight.shape[2], self.stride, self.pad)
        d_weight, d_x = tensor.conv2d_backward(
            grad, cols, weight, x.shape, self.stride, self.pad
        )
        self._take_grad(d_weight)
        return d_x


class Conv2d(_Conv):
    """Dense convolution with a He-initialized weight tensor."""

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1,
                 pad: int = 0, rng: np.random.Generator | None = None):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.pad = stride, pad
        rng = rng or np.random.default_rng()
        w = rng.standard_normal((c_out, c_in, k, k)) * np.sqrt(2.0 / (c_in * k * k))
        self.weight = Param("weight", w)
        self._cache = None

    def _kernel(self):
        return self.weight.value

    def _take_grad(self, d_weight):
        self.weight.grad += d_weight

    def params(self):
        return [self.weight]


class GeneratedConv2d(_Conv):
    """Convolution whose kernels are generated from two-level factors.

    The C_out dense kernels are never formed: the input is convolved with
    the n_cross basis kernels, and the (n_cross, H, W, n) result is mixed
    into C_out channels as a 1x1 conv, one GEMM.  Without a mixer the basis
    kernels are the kernels.  With one, the cost over a dense conv's is
    n_cross/C_out + n_cross/(C_in*k*k) < 1 + min(1, C_out/(C_in*k*k)):
    under 1.04 for layers 1 and 2 of the default arch, 0.39 at n_cross = 12.
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
        self._cache = self._gen = self._z = None

    def _kernel(self):
        self._gen = generator.forward(self.factors, quantized=self.quantized)
        return self._gen.w_cross.reshape(-1, self.c_in, self.k, self.k)

    def _take_grad(self, d_w_cross):
        d_basis, d_coeff = generator.intra_backward(
            self._gen, d_w_cross.reshape(self._gen.w_cross.shape))
        if d_basis is not None:
            self._params["basis"].grad += d_basis
        self._params["coeff"].grad += d_coeff

    def forward(self, x, train=False):
        z = super().forward(x, train)
        mixer = self._gen.q_mixer
        if mixer is None:
            return z
        self._z = z
        mixer = mixer.astype(z.dtype, copy=False)
        return (mixer @ z.reshape(z.shape[0], -1)).reshape(self.c_out, *z.shape[1:])

    def backward(self, grad):
        mixer = self._gen.q_mixer
        if mixer is not None:
            g = grad.reshape(self.c_out, -1)
            z2d = self._z.reshape(self._z.shape[0], -1)
            self._params["mixer"].grad += g @ z2d.T
            grad = (mixer.astype(g.dtype, copy=False).T @ g).reshape(self._z.shape)
        return super().backward(grad)

    def params(self):
        return list(self._params.values())


class BatchNorm2d(Layer):
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

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
            mu = x2d.mean(axis=1)
            xhat = x2d - mu[:, None]
            var = np.einsum("ij,ij->i", xhat, xhat) / m
            mom, unbiased = self.momentum, var * (m / max(m - 1, 1))
            self.running_mean = (1 - mom) * self.running_mean + mom * mu
            self.running_var = (1 - mom) * self.running_var + mom * unbiased
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std[:, None]
            out = xhat * self.gamma.value.astype(dt)[:, None]
            out += self.beta.value.astype(dt)[:, None]
            self._cache = (True, xhat, None, inv_std)
        else:
            mu = self.running_mean
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            scale = self.gamma.value * inv_std
            out = x2d * scale.astype(dt)[:, None]
            out += (self.beta.value - mu * scale).astype(dt)[:, None]
            self._cache = (False, x2d, mu.astype(dt), inv_std.astype(dt))
        return out.reshape(x.shape)

    def backward(self, grad):
        train, cached, mu, inv_std = self._cache
        if train:
            xhat = cached
        else:  # an eval forward keeps only its input; xhat is needed for d_gamma
            xhat = cached - mu[:, None]
            xhat *= inv_std[:, None]
        g = grad.reshape(xhat.shape)
        g_sum = g.sum(axis=1)
        g_xhat = np.einsum("ij,ij->i", g, xhat)
        self.beta.grad += g_sum
        self.gamma.grad += g_xhat
        scale = self.gamma.value.astype(inv_std.dtype) * inv_std
        if train:  # the batch statistics depend on x too
            m = g.shape[1]
            d_x = xhat * (-g_xhat / m)[:, None]
            d_x += g
            d_x -= (g_sum / m)[:, None]
            d_x *= scale[:, None]
        else:
            d_x = g * scale[:, None]
        return d_x.reshape(grad.shape)

    def params(self):
        return [self.gamma, self.beta]


class ReLU(Layer):
    def forward(self, x, train=False):
        self._out = np.maximum(tensor.as_float(x), 0.0)
        return self._out

    def backward(self, grad):
        return grad * (self._out > 0)


class AdaptiveAvgPool2d(Layer):
    """Average-pool to a fixed (out, out) grid, window i spanning
    [floor(i*H/out), ceil((i+1)*H/out))."""

    def __init__(self, out: int):
        self.out = out

    @staticmethod
    def _windows(size: int, out: int):
        return [
            (int(np.floor(i * size / out)), int(np.ceil((i + 1) * size / out)))
            for i in range(out)
        ]

    def forward(self, x, train=False):
        x = tensor.as_tensor4d(x, "pool input")
        c, h, w, n = x.shape
        if h < self.out or w < self.out:
            raise ShapeError(f"cannot pool {h}x{w} down to {self.out}x{self.out}")
        hw = self._windows(h, self.out)
        ww = self._windows(w, self.out)
        out = np.empty((c, self.out, self.out, n), dtype=x.dtype)
        for i, (h0, h1) in enumerate(hw):
            for j, (w0, w1) in enumerate(ww):
                out[:, i, j] = x[:, h0:h1, w0:w1].mean(axis=(1, 2))
        self._cache = (x.shape, hw, ww)
        return out

    def backward(self, grad):
        x_shape, hw, ww = self._cache
        dx = np.zeros(x_shape, dtype=grad.dtype)
        for i, (h0, h1) in enumerate(hw):
            for j, (w0, w1) in enumerate(ww):
                area = (h1 - h0) * (w1 - w0)
                dx[:, h0:h1, w0:w1] += grad[:, i : i + 1, j : j + 1] / area
        return dx


class Flatten(Layer):
    """(C, H, W, n) activations to the (n, C*H*W) matrix Linear takes, each
    row's features in (c, h, w) order: one of a network's two layout changes."""

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(-1, x.shape[-1]).T

    def backward(self, grad):
        return grad.T.reshape(self._shape)


class Linear(Layer):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        bound = 1.0 / np.sqrt(d_in)
        self.weight = Param("weight", rng.uniform(-bound, bound, (d_out, d_in)))
        self.bias = Param("bias", np.zeros(d_out))

    def forward(self, x, train=False):
        self._x = x = tensor.as_float(x)
        w, b = (p.value.astype(x.dtype, copy=False) for p in (self.weight, self.bias))
        return x @ w.T + b

    def backward(self, grad):
        self.weight.grad += grad.T @ self._x
        self.bias.grad += grad.sum(axis=0)
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

    def backward(self, grad):
        return grad


class Sequential(Layer):
    """Layers in a chain.  Takes an (n, C, H, W) batch and transposes it to
    (C, H, W, n) once on entry; backward transposes d_x back on exit.  A
    float32 batch runs in float32, any other in float64; backward casts the
    incoming gradient (kd_loss's is float64) to the forward's dtype."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self._dtype = np.float64

    def forward(self, x, train=False):
        x = tensor.as_float(x)
        if x.ndim != 4:
            raise ShapeError(f"network input must be 4-D (n, c, h, w), got shape {x.shape}")
        self._dtype = x.dtype
        x = x.transpose(1, 2, 3, 0)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        grad = np.asarray(grad, dtype=self._dtype)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad.transpose(3, 0, 1, 2)

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

    def conv_layers(self) -> list[_Conv]:
        """Dense and generated conv layers, in order."""
        return [l for l in self.layers if isinstance(l, _Conv)]

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()


_CONV_RE = re.compile(r"^C(\d+)K(\d+)S(\d+)(?:P(\d+))?$")
_POOL_RE = re.compile(r"^AvgPool(\d+)$")
_FC_RE = re.compile(r"^FC(\d+)$")


def parse_arch(arch: str) -> list[tuple]:
    """Parse an architecture string into (kind, args) tokens."""
    tokens = []
    for piece in arch.split("-"):
        if m := _CONV_RE.match(piece):
            c_out, k, stride = int(m.group(1)), int(m.group(2)), int(m.group(3))
            pad = int(m.group(4)) if m.group(4) else 0
            token = ("conv", (c_out, k, stride, pad))
        elif m := _POOL_RE.match(piece):
            token = ("avgpool", (int(m.group(1)),))
        elif m := _FC_RE.match(piece):
            token = ("fc", (int(m.group(1)),))
        else:
            raise ConfigError(f"unrecognized architecture token {piece!r} in {arch!r}")
        if 0 in token[1][:3]:  # a conv's padding alone may be zero
            raise ConfigError(f"architecture token {piece!r} in {arch!r} has a zero size")
        tokens.append(token)
    return tokens


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
    for piece, (kind, args) in zip(arch.split("-"), parse_arch(arch)):
        if kind != "fc" and flat_dim is not None:
            raise ConfigError(f"architecture token {piece!r} in {arch!r} follows an FC token")
        if kind == "conv":
            c_out, k, stride, pad = args
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
        elif kind == "avgpool":
            if args[0] > size:
                raise ConfigError(f"architecture token {piece!r} in {arch!r} cannot pool "
                                  f"a {size}x{size} map up to {args[0]}x{args[0]}")
            (size,) = args
            tokens.append((kind, args))
        elif kind == "fc":
            if flat_dim is None:
                tokens.append(("flatten", ()))
                flat_dim = c * size * size
            tokens.append(("fc", (flat_dim, args[0])))
            flat_dim = args[0]
    if flat_dim is None:
        raise ConfigError(f"architecture {arch!r} ends in {piece!r}, not in an FC token")
    bad = [g for g in generated if g >= conv_idx]
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
