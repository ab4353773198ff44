import numpy as np
import pytest

from weightgen import generator, quantize
from weightgen.errors import CardinalityError, NonFiniteError, QuantRangeError

from oracles import dequantize_frozen, enumerate_composed_codes, quantize_codes_frozen


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
def test_level_count_and_grid_membership(bits):
    rng = np.random.default_rng(100 + bits)
    m = rng.standard_normal(500) * 3.0
    q = quantize.fake_quantize(m, bits)
    levels = np.unique(q)
    assert levels.size <= 2 * quantize.positive_levels(bits) + 1
    codes, scale = quantize.quantize_codes(m, bits)
    n_pos = quantize.positive_levels(bits)
    if n_pos:
        grid = scale * (np.arange(-n_pos, n_pos + 1) / n_pos)
        assert np.isin(levels, grid).all()


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 6, 8])
def test_requantization_is_bitwise_idempotent(bits):
    rng = np.random.default_rng(200 + bits)
    m = rng.standard_normal((37, 11))
    once = quantize.fake_quantize(m, bits)
    twice = quantize.fake_quantize(once, bits)
    assert np.array_equal(once, twice)
    assert once.tobytes() == twice.tobytes()


def test_negation_symmetry():
    rng = np.random.default_rng(7)
    m = rng.standard_normal(300)
    for bits in (2, 3, 5):
        assert np.array_equal(
            quantize.fake_quantize(-m, bits), -quantize.fake_quantize(m, bits)
        )


def test_ties_round_away_from_zero():
    # scale is 1.0 (max element), bits=2 puts grid steps at integers in code
    # space, so 0.5 sits exactly on a tie.
    m = np.array([1.0, 0.5, -0.5, 0.25, -0.25])
    q = quantize.fake_quantize(m, 2)
    assert q.tolist() == [1.0, 1.0, -1.0, 0.0, 0.0]


def test_max_element_maps_to_scale_exactly():
    m = np.array([0.1, -2.75, 0.3])
    for bits in (2, 3, 4, 8):
        codes, scale = quantize.quantize_codes(m, bits)
        assert scale == 2.75
        vals = quantize.dequantize(codes, scale, bits)
        assert vals[1] == -2.75


def test_zero_tensor_and_one_bit_degenerate():
    z = np.zeros((4, 3))
    codes, scale = quantize.quantize_codes(z, 5)
    assert scale == 1.0
    assert not codes.any()
    m = np.array([3.0, -1.0, 0.2])
    assert not quantize.fake_quantize(m, 1).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits", [1, 2, 8, 16])
def test_in_place_quantizer_matches_the_frozen_formulas_bitwise(bits, dtype):
    rng = np.random.default_rng(bits)
    cases = [
        3.0 * rng.standard_normal((4, 5, 6)),
        -np.abs(rng.standard_normal(9)),  # negative values only
        np.array([-0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.75, 1e-30, -1e-30]),  # ties, -0.0
        np.zeros((2, 3)),
        np.array([-0.0, -0.0]),
    ]
    for m in (c.astype(dtype) for c in cases):
        codes, scale = quantize.quantize_codes(m, bits)
        want_codes, want_scale = quantize_codes_frozen(m, bits)
        assert codes.dtype == np.int64 and np.array_equal(codes, want_codes)
        assert scale == want_scale
        values = quantize.dequantize(codes, scale, bits)
        want = dequantize_frozen(want_codes, want_scale, bits)
        assert values.dtype == np.float64 and values.tobytes() == want.tobytes()
        assert quantize.fake_quantize(m, bits).tobytes() == want.tobytes()


def test_quantize_rejects_bad_inputs():
    with pytest.raises(QuantRangeError):
        quantize.quantize_codes(np.ones(3), 0)
    with pytest.raises(QuantRangeError):
        quantize.quantize_codes(np.ones(3), 17)
    with pytest.raises(NonFiniteError):
        quantize.quantize_codes(np.array([1.0, np.nan]), 4)
    with pytest.raises(QuantRangeError):
        quantize.dequantize(np.array([9]), 1.0, 4)
    with pytest.raises(QuantRangeError):
        quantize.dequantize(np.array([1]), 1.0, 1)


def test_fake_quantize_equals_codes_roundtrip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal(64)
    for bits in (2, 4, 7):
        codes, scale = quantize.quantize_codes(m, bits)
        assert np.array_equal(
            quantize.fake_quantize(m, bits), quantize.dequantize(codes, scale, bits)
        )


def test_distinct_value_bound_closed_forms():
    b = quantize.distinct_value_bound(2, 2, 2)
    assert b.coeff_count == 3 * 3 * 2 + 1
    assert b.coeff_bits == pytest.approx(5.0)
    assert b.weight_bits is None
    b = quantize.distinct_value_bound(4, 4, 2, q_mixer=4, n_cross=40)
    assert b.coeff_count == 15 * 15 * 2 + 1
    assert b.coeff_bits == pytest.approx(9.0)
    assert b.weight_bits == pytest.approx(4 + 9 + np.log2(40))
    with pytest.raises(CardinalityError):
        quantize.distinct_value_bound(2, 2, 0)
    with pytest.raises(CardinalityError):
        quantize.distinct_value_bound(2, 2, 2, q_mixer=3)


@pytest.mark.parametrize("q_basis", [1, 2, 3, 4])
@pytest.mark.parametrize("q_coeff", [1, 2, 3, 4])
@pytest.mark.parametrize("n_basis", [1, 2, 3])
def test_distinct_value_bound_vs_exact_enumeration(q_basis, q_coeff, n_basis):
    exact = enumerate_composed_codes(q_basis, q_coeff, n_basis)
    bound = quantize.distinct_value_bound(q_basis, q_coeff, n_basis).coeff_count
    assert exact <= bound


@pytest.mark.parametrize("call, error, name", [
    (lambda: quantize.distinct_value_bound(True, 4, 2), QuantRangeError, "q_basis"),
    (lambda: quantize.distinct_value_bound(4, True, 2), QuantRangeError, "q_coeff"),
    (lambda: quantize.distinct_value_bound(4, 4, True), CardinalityError, "n_basis"),
    (lambda: quantize.distinct_value_bound(4, 4, 2, q_mixer=True, n_cross=4),
     QuantRangeError, "q_mixer"),
    (lambda: quantize.distinct_value_bound(4, 4, 2, q_mixer=4, n_cross=True),
     CardinalityError, "n_cross"),
    (lambda: quantize.distinct_value_bound(17, 4, 2), QuantRangeError, "q_basis"),
    (lambda: generator.memory_ratio(generator.plan_layer(128, 128, 3, 2, 40), True),
     CardinalityError, "dense_bits"),
], ids=["q_basis", "q_coeff", "n_basis", "q_mixer", "n_cross", "q_basis-17", "dense_bits"])
def test_bools_are_not_counts_or_bit_widths(call, error, name):
    with pytest.raises(error, match=name):
        call()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits", range(1, 17))
def test_fake_quantize_is_the_dequantized_codes_bitwise(bits, dtype):
    rng = np.random.default_rng(100 + bits)
    cases = [
        3.0 * rng.standard_normal((3, 4, 5)),
        np.array([-0.0, 0.0, 1.0, -1.0, 0.5, -0.5, -0.25, 1e-30, -1e-30, -1e-9]),
        np.zeros(4),
        np.array([-0.0]),
        np.zeros((0, 3)),
    ]
    for m in (c.astype(dtype) for c in cases):
        got = quantize.fake_quantize(m, bits)
        want = quantize.dequantize(*quantize.quantize_codes(m, bits), bits)
        assert got.dtype == np.float64 and got.shape == m.shape
        assert got.tobytes() == want.tobytes()
