"""Independent reference implementations used to check the library.

Everything here is written as plainly as possible (scalar loops, no shared
code with the package) so a bug in the library cannot hide in its own test.
"""

import numpy as np


def gemm_naive(a, b):
    """Triple-loop matrix product, sequential accumulation over k."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, kk = a.shape
    kk2, n = b.shape
    assert kk == kk2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def conv2d_naive(x, w, stride=1, pad=0):
    """Nested-loop 2-D convolution (cross-correlation), zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, c_in, h, wid = x.shape
    c_out, c_in2, k, k2 = w.shape
    assert c_in == c_in2 and k == k2
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wid + 2 * pad - k) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wid] = x
    out = np.zeros((n, c_out, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(c_in):
                        for u in range(k):
                            for v in range(k):
                                acc += (
                                    xp[b, ci, i * stride + u, j * stride + v]
                                    * w[co, ci, u, v]
                                )
                    out[b, co, i, j] = acc
    return out


def conv2d_backward_naive(x, w, grad, stride=1, pad=0):
    """Nested-loop gradients (d_w, d_x) of conv2d_naive given the output
    gradient: every output element scatters its gradient onto the weight
    and input elements that formed it."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    n, c_in, h, wid = x.shape
    c_out, _, k, _ = w.shape
    _, _, h_out, w_out = grad.shape
    xp = np.zeros((n, c_in, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wid] = x
    d_w = np.zeros_like(w)
    d_xp = np.zeros_like(xp)
    for b in range(n):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    g = grad[b, co, i, j]
                    for ci in range(c_in):
                        for u in range(k):
                            for v in range(k):
                                r, s = i * stride + u, j * stride + v
                                d_w[co, ci, u, v] += g * xp[b, ci, r, s]
                                d_xp[b, ci, r, s] += g * w[co, ci, u, v]
    return d_w, d_xp[:, :, pad : pad + h, pad : pad + wid]


def finite_difference(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def enumerate_composed_codes(q_basis, q_coeff, n_basis):
    """Exact distinct count of sum_{i<n_basis} u_i * b_i over integer codes.

    u_i ranges over [-(2**(q_coeff-1)-1), ...], b_i likewise for q_basis.
    Works on the integer lattice so there is no float fuzz.
    """
    n_b = 2 ** (q_basis - 1) - 1
    n_u = 2 ** (q_coeff - 1) - 1
    b = np.arange(-n_b, n_b + 1, dtype=np.int64)
    u = np.arange(-n_u, n_u + 1, dtype=np.int64)
    products = np.unique(np.multiply.outer(u, b).reshape(-1))
    sums = products
    for _ in range(n_basis - 1):
        sums = np.unique(np.add.outer(sums, products).reshape(-1))
    return sums.size


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.linalg.norm(want.reshape(-1)), 1e-30)
    return np.linalg.norm((got - want).reshape(-1)) / denom


def quantize_codes_frozen(m, bits):
    """The quantizer's codes and scale as first written, one full-size
    temporary per step; the package must match it bitwise."""
    n_pos = 2 ** (bits - 1) - 1
    m = np.asarray(m, dtype=np.float64)
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        scale = 1.0
    if n_pos == 0:
        return np.zeros(m.shape, dtype=np.int64), scale
    mag = np.floor(np.abs(m) / scale * n_pos + 0.5)
    codes = np.where(m < 0, -mag, mag)
    return np.clip(codes, -n_pos, n_pos).astype(np.int64), scale


def dequantize_frozen(codes, scale, bits):
    """The quantizer's reconstruction as first written."""
    n_pos = 2 ** (bits - 1) - 1
    if n_pos == 0:
        return np.zeros(np.shape(codes), dtype=np.float64)
    return scale * (np.asarray(codes).astype(np.float64) / n_pos)
