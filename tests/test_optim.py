import numpy as np
import pytest

from weightgen.errors import ConfigError, NonFiniteError
from weightgen.nn import Param
from weightgen.optim import RAdam


def radam_scalar_oracle(grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0, x0=0.0):
    """Scalar reference walk of the published update, written independently."""
    x, m, v = x0, 0.0, 0.0
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        rho = rho_inf - 2.0 * t * b2**t / (1.0 - b2**t)
        if wd:
            x -= wd * lr * x
        if rho >= 5.0:
            rect = np.sqrt(((rho - 4) * (rho - 2) * rho_inf)
                           / ((rho_inf - 4) * (rho_inf - 2) * rho))
            x -= lr * rect * np.sqrt(1 - b2**t) / (1 - b1**t) * m / (np.sqrt(v) + eps)
        else:
            x -= lr * m / (1 - b1**t)
    return x


def test_matches_scalar_oracle_across_rectification_boundary():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal(12)
    p = Param("x", np.array([0.5]))
    opt = RAdam([p], lr=0.05)
    for g in grads:
        p.grad[...] = g
        opt.step()
    want = radam_scalar_oracle(grads, lr=0.05, x0=0.5)
    assert p.value[0] == pytest.approx(want, rel=1e-14)


def test_unrectified_early_steps_are_momentum_steps():
    # with beta2=0.999 the SMA estimate stays below 5 through step 5.
    p = Param("x", np.zeros(1))
    opt = RAdam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    # step 1: m = 0.1, bias correction 1/(1-0.9) = 10 -> full step of lr*1.0
    assert p.value[0] == pytest.approx(-0.1, rel=1e-12)


def test_converges_on_quadratic_bowl():
    rng = np.random.default_rng(1)
    target = rng.standard_normal(6)
    p = Param("x", np.zeros(6))
    opt = RAdam([p], lr=0.05)
    for _ in range(800):
        p.grad[...] = 2.0 * (p.value - target)
        opt.step()
    assert np.abs(p.value - target).max() < 1e-4


def test_decoupled_weight_decay_acts_without_gradient():
    p = Param("x", np.array([2.0]))
    opt = RAdam([p], lr=0.1, weight_decay=0.5)
    p.grad[...] = 0.0
    for _ in range(3):
        opt.step()
    assert p.value[0] == pytest.approx(2.0 * (1 - 0.05) ** 3, rel=1e-12)


def test_lr_change_between_steps_takes_effect():
    grads = [1.0, 1.0, 1.0, 1.0]
    p = Param("x", np.zeros(1))
    opt = RAdam([p], lr=0.1)
    for g in grads[:2]:
        p.grad[...] = g
        opt.step()
    opt.lr = 0.01
    for g in grads[2:]:
        p.grad[...] = g
        opt.step()
    # independent walk with the same schedule
    x, m, v = 0.0, 0.0, 0.0
    for t, (g, lr) in enumerate(zip(grads, [0.1, 0.1, 0.01, 0.01]), start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= lr * m / (1 - 0.9**t)  # all four steps are pre-rectification
    assert p.value[0] == pytest.approx(x, rel=1e-12)


def test_rejects_bad_settings_and_nonfinite_grads():
    with pytest.raises(ConfigError):
        RAdam([Param("x", np.zeros(1))], lr=0.0)
    p = Param("x", np.zeros(1))
    opt = RAdam([p], lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(NonFiniteError):
        opt.step()


def test_bitwise_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(3)
        p = Param("x", rng.standard_normal(5))
        opt = RAdam([p], lr=0.02, weight_decay=5e-4)
        for _ in range(50):
            p.grad[...] = rng.standard_normal(5)
            opt.step()
        return p.value.tobytes()

    assert run() == run()
