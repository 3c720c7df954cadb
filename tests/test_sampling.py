"""Stream derivation and sampler distribution checks.

The splitmix64 vectors are frozen from an independent straight-line
transcription of the published algorithm. Moment bands are several
standard errors wide for the pinned draw counts, so they are stable
for any fixed stream. The sha256 digests pin the draw streams bit for
bit; a change to them changes every seeded result.
"""

import hashlib

import numpy as np
import pytest

from nrpca.sampling import (
    derive_key,
    make_stream,
    sample_chi2,
    sample_scaled_t_vector,
    sample_std_normal,
    splitmix64,
)

SPLITMIX_VECTORS = [
    (0, 16294208416658607535),
    (1, 10451216379200822465),
    (0x123456789ABCDEF, 1547611027431991965),
    (2**64 - 1, 16490336266968443936),
]


@pytest.mark.parametrize("state,expected", SPLITMIX_VECTORS)
def test_splitmix64_frozen(state, expected):
    assert splitmix64(state) == expected


def test_derive_key_is_path_sensitive():
    keys = {
        derive_key(7),
        derive_key(7, 0),
        derive_key(7, 1),
        derive_key(7, 0, 0),
        derive_key(7, 0, 1),
        derive_key(7, 1, 0),
        derive_key(8),
        derive_key(8, 0, 1),
    }
    assert len(keys) == 8
    assert derive_key(7, 2048, 13, 1) == derive_key(7, 2048, 13, 1)


def test_derive_key_takes_only_64_bit_unsigned_parts():
    # -1 and 2^64 used to alias 2^64 - 1 and 0, and True aliased 1
    for path, error, name in (
        ((-1,), ValueError, "path part 0"),
        ((2**64,), ValueError, "path part 0"),
        ((5, -1), ValueError, "path part 1"),
        ((True,), TypeError, "path part 0"),
        ((np.int64(3), False), TypeError, "path part 1"),
    ):
        with pytest.raises(error, match=f"^{name} must be"):
            derive_key(1, *path)
    for seed in (True, False):
        with pytest.raises(TypeError, match="^seed must be an integer, got bool"):
            derive_key(seed)
    # the ends of the range keep their keys
    top = 2**64 - 1
    assert derive_key(1, top) == splitmix64(splitmix64(1) ^ splitmix64(top))
    assert derive_key(1, np.uint64(top), 0) == derive_key(1, top, 0)
    assert derive_key(top, 0) == splitmix64(splitmix64(top) ^ splitmix64(0))


def test_make_stream_reproducible():
    a = sample_std_normal(make_stream(42, 5, 0), 1000)
    b = sample_std_normal(make_stream(42, 5, 0), 1000)
    c = sample_std_normal(make_stream(42, 5, 1), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_moments():
    draws = sample_std_normal(make_stream(314), 1_000_000)
    assert abs(draws.mean()) <= 0.004
    assert abs(draws.var(ddof=1) - 1.0) <= 0.01


def test_normal_size_is_required_and_sets_the_shape():
    rng = make_stream(9)
    with pytest.raises(TypeError):
        sample_std_normal(rng)
    single = sample_std_normal(rng, 1)
    assert single.shape == (1,)
    arr = sample_std_normal(rng, 7)
    assert arr.shape == (7,)
    grid = sample_std_normal(rng, (3, 4))
    assert grid.shape == (3, 4)


def test_normal_tuple_shape_is_row_major_flat():
    a = sample_std_normal(make_stream(77), (3, 4))
    b = sample_std_normal(make_stream(77), 12).reshape(3, 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "size,error",
    [
        ((-2, -3), ValueError),  # a positive product of two bad dimensions
        ((0, -1), ValueError),
        ((2.5, 2), TypeError),
        ((2, "3"), TypeError),
        (2.5, TypeError),  # used to truncate to 2 draws
        (-1, ValueError),
        (True, TypeError),
    ],
)
def test_normal_tuple_size_is_checked_before_drawing(size, error):
    rng = make_stream(31)
    with pytest.raises(error, match="size"):
        sample_std_normal(rng, size)
    # the failed call drew nothing: the stream is where a fresh one starts
    assert sample_std_normal(rng, 5).tobytes() == (
        sample_std_normal(make_stream(31), 5).tobytes()
    )


@pytest.mark.parametrize(
    "draw,name",
    [
        (lambda rng: sample_chi2(rng, 3, 2.7), "size"),
        (lambda rng: sample_scaled_t_vector(rng, 3, 10, 2.2), "size"),
        (lambda rng: sample_scaled_t_vector(rng, 3.9, 10, 2), "dim"),
    ],
    ids=["chi2-size", "t-size", "t-dim"],
)
def test_chi2_and_t_sizes_are_checked_before_drawing(draw, name):
    rng = make_stream(31)
    with pytest.raises(TypeError, match=name):
        draw(rng)
    assert sample_std_normal(rng, 5).tobytes() == (
        sample_std_normal(make_stream(31), 5).tobytes()
    )


def test_chi2_rejects_non_integer_df():
    rng = make_stream(1)
    with pytest.raises(TypeError):
        sample_chi2(rng, 2.5, 4)
    with pytest.raises(TypeError):
        sample_chi2(rng, True, 4)
    with pytest.raises(ValueError):
        sample_chi2(rng, 0, 4)


def test_chi2_moments():
    draws = sample_chi2(make_stream(271), 3, 200_000)
    assert abs(draws.mean() - 3.0) <= 0.1
    assert abs(draws.var(ddof=1) - 6.0) <= 0.5
    assert draws.min() >= 0.0


def test_chi2_df1_matches_squared_normals():
    # df=1 is literally the square of the stream's normal draws
    squares = sample_chi2(make_stream(55), 1, 1000)
    normals = sample_std_normal(make_stream(55), 1000)
    assert np.array_equal(squares, normals**2)


def test_scaled_t_identity_covariance():
    draws = sample_scaled_t_vector(make_stream(628), 2, 10, 100_000)
    assert draws.shape == (2, 100_000)
    emp = draws @ draws.T / 100_000
    assert np.all(np.abs(emp - np.eye(2)) <= 0.02)


def test_scaled_t_heavier_tails_than_normal():
    draws = sample_scaled_t_vector(make_stream(99), 2, 10, 100_000)
    # a standard normal exceeds 4.5 in absolute value about 1.4 times
    # per 200k draws; the scaled t with df 10 does so tens of times
    assert np.sum(np.abs(draws) > 4.5) > 20


def test_scaled_t_shares_mixing_draw_within_column():
    draws = sample_scaled_t_vector(make_stream(123), 2, 10, 200_000)
    sq = draws**2
    corr = np.corrcoef(sq[0], sq[1])[0, 1]
    assert corr > 0.03  # population value 1/9 for df 10


def test_scaled_t_requires_df_at_least_3():
    rng = make_stream(5)
    with pytest.raises(ValueError):
        sample_scaled_t_vector(rng, 2, 2, 4)


def test_scaled_t_single_vector_shape():
    vec = sample_scaled_t_vector(make_stream(6), 3, 10, 1)
    assert vec.shape == (3, 1)
    with pytest.raises(TypeError):
        sample_scaled_t_vector(make_stream(6), 3, 10)
    with pytest.raises(TypeError):
        sample_chi2(make_stream(6), 3)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# one or two draws from the last pair, and one or several rejection rounds
NORMAL_DIGESTS = {
    1: "f47f65ee2798f103dbd089e2be8e55d9ff21aeafc075f916b4d0cbccefc91c72",
    2: "988bd274be65a5dd8dc8d5fc44c8f6f57ac60770b631625414e474d48836a94f",
    3: "38942d2c52e17088fd36c8844cfb57e222f9be6864f43c69d71502184415861f",
    41: "8b9b5bf170bfd0b5c2bc2a4468444e0755de48e3901e82e2d76cece12130f864",
    20480: "3d3629daddb0c356eaba7d66f68239e627e6db275427524687fc076d3d234eb5",
    61441: "ee174d40f74dbb464aee27350815201bba6c69a6f29434151696b99b1f78b0c1",
    81920: "c38453383ca9fa62d79b7852b8fe88087b4455568ff5ee03b9a2ddcbf4df5714",
}


@pytest.mark.parametrize("count", sorted(NORMAL_DIGESTS))
def test_normal_stream_is_frozen(count):
    draws = sample_std_normal(make_stream(2024, count), count)
    assert _digest(draws) == NORMAL_DIGESTS[count]


def test_chi2_and_scaled_t_streams_are_frozen():
    assert _digest(sample_std_normal(make_stream(5), 1)) == (
        "1c86640be45b99e6d7283058661295269f2a8137c37c251f3436e1ecfc88fe71"
    )
    chi2 = (sample_chi2(make_stream(11), 4, 1000), sample_chi2(make_stream(12), 1, 1))
    assert _digest(*chi2) == (
        "6e8c8c2ce032a3a498c3f1800e90ea504b1e6d1015efe2de88bc8a500b39218a"
    )
    t = (
        sample_scaled_t_vector(make_stream(13), 31, 10, 10),
        sample_scaled_t_vector(make_stream(14), 5, 3, 1),
    )
    assert _digest(*t) == (
        "d75e3a2ed2b1b9f27511339785befeeb9dc4cae4bce3804599a62b74d1d0d839"
    )
