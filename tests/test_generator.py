import numpy as np
import pytest

from weightgen import generator, quantize
from weightgen.errors import CardinalityError, ShapeError

from oracles import finite_difference, rel_err


def test_plan_skip_rules():
    p = generator.plan_layer(128, 128, 3, 2, 40)
    assert p.intra_active and p.cross_active
    assert (p.n_basis, p.n_cross) == (2, 40)

    # 1x1 kernels cannot use the intra level.
    p = generator.plan_layer(64, 64, 1, 2, 16)
    assert not p.intra_active and p.n_basis == 64

    # a single input channel bounds the intra rank at 1.
    p = generator.plan_layer(32, 1, 5, 2, 12)
    assert not p.intra_active and p.n_basis == 1

    # cardinality at or above the matrix rank bound is a skip.
    p = generator.plan_layer(32, 32, 5, 25, 12)
    assert not p.intra_active
    p = generator.plan_layer(8, 4, 3, 2, 8)
    assert not p.cross_active and p.n_cross == 8

    # both levels off degenerates to a dense layer.
    p = generator.plan_layer(4, 1, 1, 1, 4)
    assert not p.intra_active and not p.cross_active
    assert generator.param_ratio(p) == 1.0
    assert generator.memory_ratio(p, 16) == 1.0


def test_plan_rejects_bad_arguments():
    with pytest.raises(CardinalityError):
        generator.plan_layer(0, 3, 3, 1, 1)
    with pytest.raises(CardinalityError):
        generator.plan_layer(4, 3, 3, 0, 1)


def test_param_ratio_reference_layer():
    p = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    assert generator.param_count(p) == 16080
    assert generator.param_ratio(p) == pytest.approx(16080 / 147456, abs=1e-15)
    assert abs(generator.param_ratio(p) - 0.1090) < 0.0005


def test_memory_ratio_reference_layer():
    p = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    assert generator.memory_bits(p) == 64320
    assert generator.memory_ratio(p, 16) == pytest.approx(64320 / 2359296, abs=1e-15)
    assert abs(generator.memory_ratio(p, 16) - 0.0273) < 0.0002


def test_rank_one_basis_ratio_identity():
    # with one basis vector and the cross level skipped the ratio collapses
    # to (c_in + k*k) / (c_in * k*k), exactly.
    shapes = [(8, 4, 3), (16, 8, 5), (32, 16, 3), (64, 3, 7), (12, 6, 5),
              (128, 64, 3), (10, 9, 3), (7, 5, 3), (96, 32, 5), (20, 11, 3)]
    for c_out, c_in, k in shapes:
        p = generator.plan_layer(c_out, c_in, k, 1, c_out)
        assert p.intra_active and not p.cross_active
        assert generator.param_ratio(p) == (c_in + k * k) / (c_in * k * k)


def test_generate_shapes_all_skip_combinations():
    rng = np.random.default_rng(0)
    cases = [
        generator.plan_layer(16, 8, 3, 2, 6),    # both active
        generator.plan_layer(16, 8, 3, 2, 16),   # cross skipped
        generator.plan_layer(16, 1, 3, 2, 6),    # intra skipped
        generator.plan_layer(4, 1, 1, 1, 4),     # both skipped
    ]
    for p in cases:
        f = generator.init_random(p, rng)
        w = generator.generate(f)
        assert w.shape == (p.c_out, p.c_in, p.k, p.k)
        assert np.isfinite(w).all()


def test_generated_weight_matches_explicit_mixture():
    rng = np.random.default_rng(3)
    p = generator.plan_layer(6, 4, 3, 2, 3)
    f = generator.init_random(p, rng)
    fwd = generator.forward(f, quantized=False)
    # reassemble by hand from the raw factors
    want = np.zeros((p.c_out, p.c_in, p.kk))
    for o in range(p.c_out):
        for b in range(p.n_cross):
            want[o] += f.mixer[o, b] * (f.coeff[b] @ f.basis[b])
    assert rel_err(fwd.weight.reshape(p.c_out, p.c_in, p.kk), want) < 1e-12


def test_init_variance_tracks_dense_he_init():
    rng = np.random.default_rng(5)
    p = generator.plan_layer(64, 32, 3, 4, 16)
    f = generator.init_random(p, rng)
    w = generator.generate(f, quantized=False)
    target = np.sqrt(2.0 / (p.c_in * p.kk))
    assert 0.5 * target < w.std() < 2.0 * target


def test_quantized_factors_live_on_their_grids():
    rng = np.random.default_rng(6)
    p = generator.plan_layer(16, 8, 3, 2, 6, q_basis=2, q_coeff=3, q_mixer=4)
    f = generator.init_random(p, rng)
    fwd = generator.forward(f)
    assert np.unique(fwd.q_basis).size <= quantize.grid_levels(2)
    # coeff and mixer grids are per-tensor, not per-slice
    assert np.unique(fwd.q_coeff).size <= quantize.grid_levels(3)
    assert np.unique(fwd.q_mixer).size <= quantize.grid_levels(4)


@pytest.mark.parametrize("q_basis,q_coeff,n_basis", [(2, 2, 2), (3, 2, 3), (4, 4, 2)])
def test_generated_coeff_codes_respect_value_bound(q_basis, q_coeff, n_basis):
    # count distinct values of the generated basis-kernel entries on the
    # integer code lattice, where equality is exact.
    rng = np.random.default_rng(40 + q_basis)
    p = generator.plan_layer(16, 9, 3, n_basis, 8, q_basis=q_basis, q_coeff=q_coeff)
    assert p.intra_active
    f = generator.init_random(p, rng)
    bcodes, _ = quantize.quantize_codes(f.basis, q_basis)
    ccodes, _ = quantize.quantize_codes(f.coeff, q_coeff)
    lattice = np.matmul(ccodes, bcodes)  # integer sums of n_basis products
    distinct = np.unique(lattice).size
    bound = quantize.distinct_value_bound(q_basis, q_coeff, n_basis).coeff_count
    assert distinct <= bound


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    plans = [
        generator.plan_layer(6, 4, 3, 2, 3),
        generator.plan_layer(6, 4, 3, 2, 6),    # cross skipped
        generator.plan_layer(6, 1, 3, 1, 3),    # intra skipped
        generator.plan_layer(3, 1, 1, 1, 3),    # both skipped
    ]
    for p in plans:
        f = generator.init_random(p, rng)
        r = rng.standard_normal((p.c_out, p.c_in, p.k, p.k))
        fwd = generator.forward(f, quantized=False)
        grads = generator.backward(f, fwd, r)

        def loss_with(field, value, f=f, r=r):
            stash = getattr(f, field)
            setattr(f, field, value)
            try:
                return float(np.sum(generator.generate(f, quantized=False) * r))
            finally:
                setattr(f, field, stash)

        for field, got in (("basis", grads.basis), ("coeff", grads.coeff),
                           ("mixer", grads.mixer)):
            tensor = getattr(f, field)
            if tensor is None:
                assert got is None
                continue
            want = finite_difference(
                lambda t, field=field: loss_with(field, t), tensor.copy()
            )
            assert rel_err(got, want) < 1e-7, field


def test_backward_into_writes_the_backward_gradients_into_given_arrays():
    rng = np.random.default_rng(11)
    for p in (generator.plan_layer(6, 4, 3, 2, 3), generator.plan_layer(6, 4, 3, 2, 6),
              generator.plan_layer(6, 1, 3, 1, 3), generator.plan_layer(3, 1, 1, 1, 3)):
        f = generator.init_random(p, rng)
        fwd = generator.forward(f, quantized=False)
        r = rng.standard_normal((p.c_out, p.c_in, p.k, p.k))
        want = generator.backward(f, fwd, r)
        out = {name: np.full_like(t, np.nan) for name, t in f.stored()}
        got = generator.backward_into(fwd, r.reshape(p.c_out, -1), out)
        for name in out:
            assert getattr(got, name) is out[name]
            assert np.array_equal(out[name], getattr(want, name)), name


def test_backward_ste_passes_in_range_gradients():
    rng = np.random.default_rng(9)
    p = generator.plan_layer(6, 4, 3, 2, 3)
    f = generator.init_random(p, rng)
    fwd = generator.forward(f, quantized=True)
    r = rng.standard_normal(fwd.weight.shape)
    grads = generator.backward(f, fwd, r)
    # with per-tensor max scales nothing is clipped, so the STE gradient is
    # exactly the chain rule evaluated at the quantized tensors.
    wc = fwd.w_cross.reshape(p.n_cross, -1)
    want_mixer = r.reshape(p.c_out, -1) @ wc.T
    assert np.array_equal(grads.mixer, want_mixer)
    d_wc = (fwd.q_mixer.T @ r.reshape(p.c_out, -1)).reshape(p.n_cross, p.c_in, p.kk)
    want_coeff = np.matmul(d_wc, np.swapaxes(fwd.q_basis, 1, 2))
    assert np.array_equal(grads.coeff, want_coeff)


def test_factor_validation_errors():
    rng = np.random.default_rng(10)
    p = generator.plan_layer(6, 4, 3, 2, 3)
    f = generator.init_random(p, rng)
    f.coeff = f.coeff[:, :, :1]
    with pytest.raises(ShapeError):
        f.validate()
    f = generator.init_random(p, rng)
    fwd = generator.forward(f)
    with pytest.raises(ShapeError):
        generator.backward(f, fwd, np.zeros((1, 2, 3, 3)))


def test_layer_value_bound_uses_effective_cardinalities():
    p = generator.plan_layer(128, 128, 3, 2, 40, 4, 4, 4)
    b = generator.layer_value_bound(p)
    assert b.coeff_count == 15 * 15 * 2 + 1
    assert b.weight_bits == pytest.approx(4 + (4 + 4 + 1) + np.log2(40))
    p2 = generator.plan_layer(8, 4, 3, 2, 8)  # cross skipped
    assert generator.layer_value_bound(p2).weight_bits is None
