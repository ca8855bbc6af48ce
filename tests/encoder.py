"""Chunk-and-pool encoder adapter for long inputs, which acceptance criterion
08 checks by hand. No pipeline uses it, so it lives beside its tests."""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from clinconv.errors import ConfigError

# chunk_and_pool's defaults: chunk length and the token cap applied before
# chunking.
CHUNK_SIZE = 512
TOKEN_CAP = 2040


class HashedTokenEncoder:
    """Deterministic stand-in encoder: mean of seeded random token vectors."""

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ConfigError("encoder dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vector = self._cache.get(token)
        if vector is None:
            digest = hashlib.blake2b(
                f"{self.seed}:{token}".encode("utf-8"), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            vector = rng.standard_normal(self.dim)
            self._cache[token] = vector
        return vector

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        if not tokens:
            return np.zeros(self.dim)
        return np.mean([self._token_vector(t) for t in tokens], axis=0)


def chunk_and_pool(
    tokens: Sequence[str],
    encoder,
    chunk_size: int = CHUNK_SIZE,
    token_cap: int = TOKEN_CAP,
) -> np.ndarray:
    """Truncate to ``token_cap`` tokens, encode consecutive ``chunk_size``
    chunks, and mean-pool the chunk vectors.

    2040 tokens split into chunks of 512 give four chunks sized
    (512, 512, 512, 504). Empty input returns the zero vector.
    """
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    if token_cap < 0:
        raise ConfigError("token_cap must be >= 0")
    tokens = list(tokens[:token_cap])
    if not tokens:
        return np.zeros(encoder.dim)
    chunks = [tokens[i : i + chunk_size] for i in range(0, len(tokens), chunk_size)]
    return np.mean([np.asarray(encoder.encode(c), dtype=float) for c in chunks], axis=0)
