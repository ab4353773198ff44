import numpy as np
import pytest

from weightgen import factorfile, generator
from weightgen.errors import FactorFileError


def _sample_factors(seed=0, **kw):
    defaults = dict(c_out=12, c_in=6, k=3, n_basis=2, n_cross=5,
                    q_basis=3, q_coeff=4, q_mixer=4)
    defaults.update(kw)
    plan = generator.plan_layer(
        defaults["c_out"], defaults["c_in"], defaults["k"],
        defaults["n_basis"], defaults["n_cross"],
        defaults["q_basis"], defaults["q_coeff"], defaults["q_mixer"],
    )
    return generator.init_random(plan, np.random.default_rng(seed))


@pytest.mark.parametrize("kw", [
    {},
    {"c_in": 1},                  # intra skipped
    {"n_cross": 12},              # cross skipped
    {"c_out": 3, "c_in": 1, "k": 1, "n_basis": 1, "n_cross": 3},  # both skipped
])
def test_raw_round_trip_is_bitwise(tmp_path, kw):
    f = _sample_factors(**kw)
    path = tmp_path / "layer.isgw"
    factorfile.save_factors(path, f)
    g = factorfile.load_factors(path)
    assert g.plan == f.plan
    for name in ("basis", "coeff", "mixer"):
        a, b = getattr(f, name), getattr(g, name)
        if a is None:
            assert b is None
        else:
            assert a.tobytes() == b.tobytes()


def test_raw_container_size_is_header_plus_parameters():
    f = _sample_factors()
    data = factorfile.factors_to_bytes(f)
    assert len(data) == 30 + 8 * generator.param_count(f.plan)


def test_rejects_bad_magic_version_and_truncation():
    f = _sample_factors()
    data = bytearray(factorfile.factors_to_bytes(f))
    with pytest.raises(FactorFileError, match="magic"):
        factorfile.factors_from_bytes(b"NOPE" + bytes(data[4:]))
    bad_version = bytes(data[:4]) + b"\x09" + bytes(data[5:])
    with pytest.raises(FactorFileError, match="version"):
        factorfile.factors_from_bytes(bad_version)
    with pytest.raises(FactorFileError, match="truncated"):
        factorfile.factors_from_bytes(bytes(data[: len(data) // 2]))
    with pytest.raises(FactorFileError, match="truncated"):
        factorfile.factors_from_bytes(data[:12])
    with pytest.raises(FactorFileError, match="trailing"):
        factorfile.factors_from_bytes(bytes(data) + b"\x00")


def test_rejects_contradictory_level_flags():
    f = _sample_factors()
    data = bytearray(factorfile.factors_to_bytes(f))
    data[6] = 0  # claim both levels are skipped
    with pytest.raises(FactorFileError, match="flags"):
        factorfile.factors_from_bytes(bytes(data))


def test_atomic_save_leaves_no_temp_files(tmp_path):
    f = _sample_factors()
    path = tmp_path / "layer.isgw"
    factorfile.save_factors(path, f)
    factorfile.save_factors(path, f)  # overwrite in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["layer.isgw"]


def test_rejects_the_retired_quantized_kind():
    data = bytearray(factorfile.factors_to_bytes(_sample_factors()))
    data[5] = 1  # the int16-code payload kind, no longer read
    with pytest.raises(FactorFileError, match="unknown payload kind 1"):
        factorfile.factors_from_bytes(bytes(data))
