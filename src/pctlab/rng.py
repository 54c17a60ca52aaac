"""Counter-based random streams.

Every stochastic choice in the package (weight init, epoch shuffles, data
generation, label noise, subsampling) draws from a Philox generator keyed by
(seed, stream, index). Philox is counter-based, so streams are reproducible
across platforms and independent of global RNG state.
"""

import numpy as np

# Stream tags. Keeping them distinct guarantees e.g. weight init never
# overlaps the epoch-0 shuffle stream for the same seed.
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_DATA = 3
STREAM_NOISE = 4
STREAM_SUBSET = 5

# a seed is one uint64 word of the Philox key, so every seed, and every seed
# derived from one, must lie in [0, SEED_LIMIT)
SEED_LIMIT = 2 ** 64


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` lies in [0, SEED_LIMIT)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def stream_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """A Generator for the (seed, stream, index) triple. ``index`` varies
    the stream within a tag, e.g. the epoch number for per-epoch shuffles. A
    seed outside [0, SEED_LIMIT) raises ValueError."""
    check_seed(seed)
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    key = np.array([np.uint64(seed), np.uint64((stream << 48) + index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
