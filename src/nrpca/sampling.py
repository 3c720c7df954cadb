"""Seeded random streams and the samplers the simulation harness uses,
and the package's count, real-number, seed and choice checks.

A count or a seed must be an int or a numpy integer, and a real
argument an int, a float or a numpy integer or floating scalar; a bool,
a string, an array or anything else is refused with a TypeError that
names the argument, never converted.

The generator contract: every stream is a numpy Philox-4x64 counter
generator whose raw 128-bit key is derived from a user seed and a path of
integers (d, replication index, arm, ...) by splitmix64 mixing. A
replication's draws therefore depend only on its own coordinates, never
on scheduling order or worker count, and serial/parallel runs agree
bit for bit.

Normal variates use the Marsaglia polar rejection method on the stream's
uniforms rather than numpy's ziggurat, so the draw sequence is fixed by
this module. Batch sizes inside the rejection loop depend only on how
many draws are still needed, keeping the consumption deterministic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Seed",
    "splitmix64",
    "derive_key",
    "make_stream",
    "sample_std_normal",
    "sample_chi2",
    "sample_scaled_t_vector",
]

# Seeds are plain 64-bit unsigned integers.
Seed = int

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# the polar method accepts a pair at rate pi/4 and a pair gives two
# normals, so one normal takes 1/(2 pi/4) ~ 0.64 pairs; 0.66 leaves slack
_PAIRS_PER_NORMAL = 0.66
# the types a real argument may have: a tuple isinstance costs a fraction
# of numbers.Real's abstract-class check
_REAL = (int, float, np.integer, np.floating)


def _check_seed(seed: int, name: str = "seed") -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"{name} must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


def splitmix64(state: int) -> int:
    """One splitmix64 output step for the 64-bit input state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: Seed, *path: int) -> int:
    """Mix a seed and an integer path into one 64-bit substream key.

    Identical (seed, path) always gives the identical key; distinct paths
    give keys that collide only with probability ~2^-64. The seed and
    each path part must be a 64-bit unsigned integer, so no two parts
    alias one another.
    """
    key = splitmix64(_check_seed(seed))
    for k, part in enumerate(path):
        key = splitmix64(key ^ splitmix64(_check_seed(part, f"path part {k}")))
    return key


def make_stream(seed: Seed, *path: int) -> np.random.Generator:
    """Philox-4x64 generator keyed by derive_key(seed, *path).

    The raw key construction bypasses numpy's SeedSequence, so the stream
    is reproducible across numpy versions.
    """
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def _polar_normals(
    rng: np.random.Generator, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """`count` polar-method normals, written into the contiguous flat
    array `out` when one is given. Each round draws its u values, then its v values,
    and takes the accepted pairs in order, u's normal before v's."""
    if out is None:
        out = np.empty(count, dtype=np.float64)
    filled = 0
    while filled < count:
        need = count - filled
        pairs = max(int(need * _PAIRS_PER_NORMAL) + 8, 16)
        uv = rng.random(2 * pairs)
        uv *= 2.0
        uv -= 1.0
        u, v = uv[:pairs], uv[pairs:]
        s = u * u
        s += v * v
        # only the first ceil(need / 2) accepted pairs are used
        used = np.flatnonzero((s > 0.0) & (s < 1.0))[: (need + 1) // 2]
        ss = s.take(used)
        factor = np.log(ss)
        factor *= -2.0
        factor /= ss
        np.sqrt(factor, out=factor)
        whole = min(used.size, need // 2)
        pairs_out = out[filled : filled + 2 * whole].reshape(whole, 2)
        np.multiply(u.take(used[:whole]), factor[:whole], out=pairs_out[:, 0])
        np.multiply(v.take(used[:whole]), factor[:whole], out=pairs_out[:, 1])
        filled += 2 * whole
        if whole < used.size:  # an odd last draw: u's normal alone
            out[filled] = u[used[whole]] * factor[whole]
            filled += 1
    return out


def _check_count(name: str, value, least: int = 0) -> int:
    """`value` as an int of at least `least` that a float can hold;
    raises before any draw."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    value = int(value)
    try:
        float(value)
    except OverflowError:
        raise ValueError(
            f"{name} is too large for a float: an integer of "
            f"{value.bit_length()} bits"
        ) from None
    return value


def _check_real(name: str, value, ok, rule: str) -> float:
    """`value` as a float. Raises TypeError unless it is an int, a float
    or a numpy integer or floating scalar, and not a bool; raises
    ValueError(f"{name} must {rule}, got ...") unless `ok` holds. Each
    `ok` is a comparison, so NaN fails it."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not ok(value := float(value)):
        raise ValueError(f"{name} must {rule}, got {value}")
    return value


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raises unless `value` is one of `choices`, compared exactly."""
    if value not in choices:
        listed = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
        raise ValueError(f"{name} must be {listed}, got {value!r}")


def sample_std_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws by the polar method, as an array of shape
    `size`, an integer or a tuple, filled in row-major order, so the
    stream layout is the flat draw sequence. `size=1` gives one draw.
    """
    dims = size if isinstance(size, tuple) else (size,)
    shape = [_check_count("size", dim) for dim in dims]
    return _polar_normals(rng, math.prod(shape)).reshape(shape)


# sample_chi2 blocks its normal draws so huge requests stay within memory
_CHI2_BLOCK = 4_000_000


def sample_chi2(rng: np.random.Generator, df: int, size: int) -> np.ndarray:
    """`size` chi-square draws, each a sum of df squared standard normals.

    df must be a positive integer (the only case the harness needs);
    moments are exact by construction.
    """
    df = _check_count("df", df, 1)
    count = _check_count("size", size)
    out = np.empty(count, dtype=np.float64)
    block = max(1, _CHI2_BLOCK // df)
    done = 0
    while done < count:
        take = min(block, count - done)
        z = _polar_normals(rng, df * take).reshape(df, take)
        out[done : done + take] = np.einsum("ij,ij->j", z, z)
        done += take
    return out


def sample_scaled_t_vector(
    rng: np.random.Generator, dim: int, df: int, size: int
) -> np.ndarray:
    """`size` multivariate t draws scaled to identity covariance, as the
    columns of a (dim, size) array.

    Each vector is g * sqrt(df/W) * sqrt((df-2)/df) with g a dim-vector of
    standard normals and one chi-square(df) mixing variable W per vector,
    so the covariance is exactly the identity. Draw order per call: all
    normals first, then the mixing chi-squares.
    """
    dim = _check_count("dim", dim, 1)
    df = _check_count("df", df, 3)  # df >= 3 for a finite covariance
    count = _check_count("size", size)
    g = _polar_normals(rng, dim * count).reshape(dim, count)
    w = sample_chi2(rng, df, count)
    scale = np.sqrt(df / w) * math.sqrt((df - 2.0) / df)
    return g * scale[np.newaxis, :]
