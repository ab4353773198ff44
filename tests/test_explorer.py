import dataclasses
import math
import os

import numpy as np
import pytest

from weightgen import explorer, generator, nn, training
from weightgen.errors import ConfigError, DegenerateFactorError, ShapeError

from test_training import _counting_forward, synthetic_blobs


# ---------------------------------------------------------------------------
# kernel_correlation


def _oracle_fraction(mat):
    """Top-30% singular value mass via the library-independent SVD."""
    s = np.linalg.svd(np.asarray(mat, dtype=np.float64), compute_uv=False)
    count = math.ceil(0.3 * s.size)
    return float(np.sum(s[:count]) / np.sum(s))


def test_rank_one_matrix_scores_one():
    rng = np.random.default_rng(0)
    mat = np.outer(rng.standard_normal(12), rng.standard_normal(9))
    res = explorer.kernel_correlation(mat, mode="cross")
    assert res.std is None
    assert abs(res.mean - 1.0) < 1e-12


def test_identity_scores_top_fraction_exactly():
    res = explorer.kernel_correlation(np.eye(10), mode="cross")
    assert res.mean == pytest.approx(0.3, abs=1e-15)


def test_cross_mode_matches_svd_oracle_on_random_matrix():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((32, 25))
    res = explorer.kernel_correlation(mat, mode="cross")
    assert abs(res.mean - _oracle_fraction(mat)) < 1e-9


def test_cross_mode_flattens_4d_kernels():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((16, 4, 3, 3))
    res4 = explorer.kernel_correlation(w, mode="cross")
    res2 = explorer.kernel_correlation(w.reshape(16, 36), mode="cross")
    assert res4.mean == res2.mean


def test_scale_invariance():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((20, 15))
    base = explorer.kernel_correlation(mat, mode="cross").mean
    for c in (3.0, 1e-6, 2.5e4, -7.0):
        scaled = explorer.kernel_correlation(c * mat, mode="cross").mean
        assert abs(scaled - base) < 1e-12


def test_intra_mode_matches_per_kernel_oracle():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 4, 3, 3))
    res = explorer.kernel_correlation(w, mode="intra")
    fractions = [_oracle_fraction(w[o].reshape(4, 9)) for o in range(6)]
    assert abs(res.mean - np.mean(fractions)) < 1e-9
    assert abs(res.std - np.std(fractions)) < 1e-9


def test_intra_mode_skips_one_by_one_kernels():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((8, 4, 1, 1))
    assert explorer.kernel_correlation(w, mode="intra") is None


def test_correlation_input_validation():
    with pytest.raises(DegenerateFactorError):
        explorer.kernel_correlation(np.zeros((4, 4)), mode="cross")
    with pytest.raises(ConfigError):
        explorer.kernel_correlation(np.eye(3), mode="sideways")
    with pytest.raises(ShapeError):
        explorer.kernel_correlation(np.zeros((2, 2, 2)), mode="cross")
    with pytest.raises(ShapeError):
        explorer.kernel_correlation(np.ones((3, 3)), mode="intra")
    with pytest.raises(ShapeError):
        explorer.kernel_correlation(np.ones((2, 2, 3, 2)), mode="intra")


# ---------------------------------------------------------------------------
# heuristic preference band


def test_heuristic_band_boundaries():
    # bound = min(128, 128*9) = 128, so the preferred band is B_c in [32, 64]
    mk = lambda bi, bc: generator.plan_layer(128, 128, 3, bi, bc)
    assert explorer.heuristic_preferred_plan(mk(2, 40))
    assert explorer.heuristic_preferred_plan(mk(3, 32))
    assert explorer.heuristic_preferred_plan(mk(1, 64))
    assert not explorer.heuristic_preferred_plan(mk(4, 40))
    assert not explorer.heuristic_preferred_plan(mk(2, 31))
    assert not explorer.heuristic_preferred_plan(mk(2, 65))


# ---------------------------------------------------------------------------
# pareto_front


def _point(r_m, acc, tag=0):
    return explorer.ExplorationPoint(
        n_basis=1 + tag,
        n_cross=1,
        q_basis=8,
        q_coeff=8,
        q_mixer=8,
        r=r_m,
        r_m=r_m,
        accuracy=acc,
        runtime=0.0,
        heuristic_preferred=False,
    )


def _dominates(a, b):
    better_or_equal = a.r_m <= b.r_m and a.accuracy >= b.accuracy
    strictly = a.r_m < b.r_m or a.accuracy > b.accuracy
    return better_or_equal and strictly


def _oracle_front(points):
    kept = [
        p
        for p in points
        if not any(_dominates(q, p) for q in points if q is not p)
    ]
    return sorted(kept, key=lambda p: p.r_m)


def test_single_point_is_its_own_front():
    p = _point(0.5, 0.8)
    assert explorer.pareto_front([p]) == [p]


def test_dominated_point_is_dropped():
    a = _point(0.2, 0.9)
    b = _point(0.4, 0.8)
    assert explorer.pareto_front([a, b]) == [a]
    assert explorer.pareto_front([b, a]) == [a]


def test_front_matches_pairwise_dominance_oracle():
    rng = np.random.default_rng(13)
    points = [
        _point(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), tag=i)
        for i in range(20)
    ]
    got = explorer.pareto_front(points)
    want = _oracle_front(points)
    assert [(p.r_m, p.accuracy) for p in got] == [(p.r_m, p.accuracy) for p in want]
    # mutually non-dominating
    for a in got:
        for b in got:
            if a is not b:
                assert not _dominates(a, b)
    # contains the extremes
    assert min(p.r_m for p in got) == min(p.r_m for p in points)
    assert max(p.accuracy for p in got) == max(p.accuracy for p in points)
    # sorted by r_m
    assert [p.r_m for p in got] == sorted(p.r_m for p in got)


def test_front_keeps_coordinate_duplicates():
    a = _point(0.3, 0.7, tag=1)
    b = _point(0.3, 0.7, tag=2)
    worse = _point(0.3, 0.6, tag=3)
    got = explorer.pareto_front([a, worse, b])
    assert got == [a, b]


def test_front_rejects_empty_input():
    with pytest.raises(ConfigError):
        explorer.pareto_front([])


# ---------------------------------------------------------------------------
# grid_search


def _tiny_setup():
    train_x, train_y = synthetic_blobs(192, channels=1, size=8, seed=20)
    test_x, test_y = synthetic_blobs(96, channels=1, size=8, seed=21)
    cfg = training.TrainConfig(
        arch="C6K3S2-AvgPool2-FC2",
        in_channels=1,
        in_size=8,
        epochs=1,
        batch_size=32,
        seed=4,
        generated=(0,),
        n_basis=1,
        n_cross=3,
        init="random",
        eval_train_samples=64,
    )
    return cfg, train_x, train_y, test_x, test_y


def test_one_by_one_grid_equals_direct_train():
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    direct = training.train(cfg, train_x, train_y, test_x, test_y)
    grid = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y, [cfg.n_basis], [cfg.n_cross]
    )
    assert not grid.skipped
    assert len(grid.points) == 1
    point = grid.points[0]
    assert point.accuracy == float(direct.metrics[-1]["test_acc"])
    plan = generator.plan_layer(
        6, 1, 3, cfg.n_basis, cfg.n_cross,
        q_basis=cfg.q_basis, q_coeff=cfg.q_coeff, q_mixer=cfg.q_mixer,
    )
    assert point.r == generator.param_ratio(plan)
    assert point.r_m == generator.memory_ratio(plan, 16)


def test_grid_forwards_each_sample_through_the_teacher_once_per_call(monkeypatch):
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    cfg = dataclasses.replace(cfg, init="svd")
    dense = dataclasses.replace(cfg, generated=())
    teacher = training.train(dense, train_x, train_y, test_x, test_y).model
    seen = _counting_forward(teacher)
    results = []
    train = training.train

    def recording_train(*args, **kwargs):
        results.append(train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(training, "train", recording_train)
    grid = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y, [1], [2, 3], teacher=teacher
    )
    assert len(grid.points) == 2
    assert np.array_equal(np.concatenate(seen), train_x)
    # Each point equals a direct run that computes the logits itself.
    monkeypatch.undo()
    for point, result in zip(grid.points, results):
        point_cfg = dataclasses.replace(cfg, n_cross=point.n_cross)
        direct = training.train(point_cfg, train_x, train_y, test_x, test_y,
                                teacher=teacher)
        assert direct.metrics == result.metrics
        for (_, a), (_, b) in zip(direct.model.named_params(),
                                  result.model.named_params()):
            assert a.value.tobytes() == b.value.tobytes()


def test_grid_ratios_match_generator_formulas():
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    grid = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y, [1], [2, 3],
        bit_settings=[(4, 4, 8)],
    )
    assert len(grid.points) == 2
    for point in grid.points:
        plan = generator.plan_layer(
            6, 1, 3, point.n_basis, point.n_cross,
            q_basis=point.q_basis, q_coeff=point.q_coeff, q_mixer=point.q_mixer,
        )
        assert point.r == generator.param_ratio(plan)
        assert point.r_m == generator.memory_ratio(plan, 16)
        assert 0.0 <= point.accuracy <= 1.0
        assert point.runtime > 0.0


def test_grid_skips_infeasible_settings_with_reason():
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    grid = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y, [0, 1], [3]
    )
    assert len(grid.points) == 1
    assert len(grid.skipped) == 1
    skip = grid.skipped[0]
    assert skip.n_basis == 0
    assert skip.reason  # a human-readable explanation is recorded


def test_grid_propagates_errors_that_are_not_config_errors(monkeypatch):
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()

    def broken(*args, **kwargs):
        raise RuntimeError("builder bug")

    monkeypatch.setattr(nn, "build_network", broken)
    with pytest.raises(RuntimeError, match="builder bug"):
        explorer.grid_search(cfg, train_x, train_y, test_x, test_y, [1], [3])


def test_grid_csv_columns_and_values(tmp_path):
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    grid = explorer.grid_search(
        cfg, train_x, train_y, test_x, test_y, [1], [3]
    )
    path = os.path.join(tmp_path, "grid.csv")
    explorer.write_grid_csv(list(grid.points), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "B_i,B_c,q_b,q_u,q_v,r,r_m,acc"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "3"
    assert float(fields[5]) == grid.points[0].r
    assert float(fields[7]) == grid.points[0].accuracy
    json_path = os.path.join(tmp_path, "grid.json")
    explorer.write_grid_json(grid, json_path, front=explorer.pareto_front(list(grid.points)))
    import json

    payload = json.loads(open(json_path).read())
    assert payload["points"][0]["accuracy"] == grid.points[0].accuracy
    assert payload["pareto_front"]


def test_grid_requires_generated_layers_and_nonempty_lists():
    cfg, train_x, train_y, test_x, test_y = _tiny_setup()
    with pytest.raises(ConfigError):
        explorer.grid_search(cfg, train_x, train_y, test_x, test_y, [], [3])
    dense_cfg = dataclasses.replace(cfg, generated=())
    with pytest.raises(ConfigError):
        explorer.grid_search(dense_cfg, train_x, train_y, test_x, test_y, [1], [3])


# ---------------------------------------------------------------------------
# layer_correlations


def test_layer_correlations_covers_dense_and_generated_layers():
    rng = np.random.default_rng(9)
    model = nn.build_network(
        "C6K3S2-C8K3S1-AvgPool2-FC2", 1, 12, rng,
        generated=(1,), n_basis=2, n_cross=4,
    )
    stats = explorer.layer_correlations(model)
    assert len(stats) == 2
    first, second = stats
    assert (first.c_out, first.c_in, first.k) == (6, 1, 3)
    assert (second.c_out, second.c_in, second.k) == (8, 6, 3)
    for entry in stats:
        assert 0.0 < entry.cross.mean <= 1.0
        assert entry.intra is not None
        assert 0.0 < entry.intra.mean <= 1.0
        assert entry.intra.std >= 0.0
