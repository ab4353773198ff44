import dataclasses

import numpy as np
import pytest

from weightgen import costmodel, generator
from weightgen.errors import CardinalityError, ConfigError


def test_generation_latency_reference_point():
    t = costmodel.generation_latency(2, 40)
    assert abs(t - 545.2e-12) < 0.5e-12


def test_generation_latency_fixed_conversion_floor():
    # with propagation forced to ~0 only the conversion terms remain.
    dev = costmodel.DeviceParams(ring_diameter=1e-30)
    t = costmodel.generation_latency(2, 40, dev)
    assert t == pytest.approx(520e-12, rel=1e-9)


def test_generation_latency_hand_formula():
    dev = costmodel.DeviceParams()
    want = (
        400e-12 + 2 * (50e-12 + 10e-12)
        + 2.25 * 4 * 20e-6 * (5 + 40) / 2.998e8
    )
    assert costmodel.generation_latency(5, 40) == pytest.approx(want, rel=1e-12)


def test_generation_latency_monotone_in_cardinalities():
    prev = 0.0
    for b in range(1, 20):
        t = costmodel.generation_latency(b, 10)
        assert t >= prev
        prev = t
    prev = 0.0
    for b in range(1, 20):
        t = costmodel.generation_latency(3, b)
        assert t >= prev
        prev = t
    with pytest.raises(CardinalityError):
        costmodel.generation_latency(0, 4)


def test_device_params_must_be_positive():
    with pytest.raises(ConfigError):
        costmodel.DeviceParams(dac_latency=0.0)
    with pytest.raises(ConfigError):
        costmodel.DeviceParams(sram_bandwidth=-1.0)


@pytest.mark.parametrize("value", ["x", True, None, float("nan"), float("-inf"),
                                   float("inf")])
def test_device_params_reject_non_numbers_by_name(value):
    with pytest.raises(ConfigError, match="dac_latency"):
        costmodel.DeviceParams(dac_latency=value)


def test_weight_load_latency_reference_layer():
    plan = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    baseline, residual, saved = costmodel.weight_load_latency(plan, q_weight=16)
    # 288 KiB over 34 GiB/s
    assert baseline == pytest.approx(294912 / (34 * 2**30), rel=1e-12)
    assert abs(saved - 7.9e-6) < 0.1e-6
    assert baseline == residual + saved  # exact additivity


def test_weight_load_latency_byte_count_oracle():
    plan = generator.plan_layer(64, 64, 3, 2, 16, 4, 4, 4)
    baseline, residual, saved = costmodel.weight_load_latency(plan, q_weight=8)
    dense_bytes = 64 * 64 * 9 * 8 / 8
    factor_bits = 16 * 2 * 9 * 4 + 16 * 64 * 2 * 4 + 64 * 16 * 4
    bw = 34 * 2**30
    assert baseline == pytest.approx(dense_bytes / bw, rel=1e-12)
    assert residual == pytest.approx(factor_bits / 8 / bw, rel=1e-12)
    assert saved == pytest.approx((dense_bytes - factor_bits / 8) / bw, rel=1e-12)


def test_no_compression_saves_nothing():
    plan = generator.plan_layer(4, 1, 1, 1, 4)  # both levels skipped
    baseline, residual, saved = costmodel.weight_load_latency(plan)
    assert saved == 0.0
    assert residual == baseline


def test_additivity_exact_across_random_plans():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c_out = int(rng.integers(2, 64))
        c_in = int(rng.integers(1, 64))
        k = int(rng.choice([1, 3, 5]))
        bi = int(rng.integers(1, 6))
        bc = int(rng.integers(1, c_out + 4))
        plan = generator.plan_layer(c_out, c_in, k, bi, bc)
        baseline, residual, saved = costmodel.weight_load_latency(plan)
        assert saved + residual == baseline


def test_speedup_report_reference_ratio_and_flags():
    plan = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    report = costmodel.speedup_report([plan], q_weight=16)
    layer = report.layers[0]
    assert layer.load_saved / layer.gen_latency == pytest.approx(1.4e4, rel=0.05)
    assert not layer.net_loss
    assert layer.dac_reduction == pytest.approx(1.0 - generator.param_ratio(plan))

    # an incompressible layer saves nothing, so generation is a net loss.
    dense = generator.plan_layer(4, 1, 1, 1, 4)
    report = costmodel.speedup_report([dense])
    assert report.layers[0].net_loss


def test_speedup_report_empty_and_additive():
    assert costmodel.speedup_report([]).layers == ()
    assert costmodel.speedup_report([]).total_gen_latency == 0.0

    plan = generator.plan_layer(32, 32, 5, 2, 12, 4, 4, 4)
    single = costmodel.speedup_report([plan])
    double = costmodel.speedup_report([plan, plan])
    assert double.total_gen_latency == 2 * single.total_gen_latency
    assert double.total_load_saved == 2 * single.total_load_saved
    layers = dataclasses.asdict(double)["layers"]
    assert layers[0] == layers[1]


@pytest.mark.parametrize("settings, named", [
    ({"sram_bandwidth": 1e-320}, "sram_bandwidth"),
    ({"dac_latency": 1e308, "mod_latency": 1e308}, "mod_latency"),
])
def test_settings_that_give_a_non_finite_latency_are_named(settings, named):
    plan = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    with pytest.raises(ConfigError, match=f"{named}=.*non-finite"):
        costmodel.speedup_report([plan], dev=costmodel.DeviceParams(**settings))
    # each layer is finite here, their sum is not
    big = costmodel.DeviceParams(dac_latency=1e308)
    assert costmodel.speedup_report([plan], dev=big).total_gen_latency < float("inf")
    with pytest.raises(ConfigError, match="dac_latency=1e\\+308.*non-finite total generation"):
        costmodel.speedup_report([plan, plan], dev=big)
