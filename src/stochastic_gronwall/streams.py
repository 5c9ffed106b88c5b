"""Reproducible random streams for parallel Monte Carlo.

Substreams are Philox counter-based generators keyed by the master seed
plus an index, so every stream is a pure function of (master_seed,
index) and results never depend on worker scheduling. Path-level APIs
key one stream per path. Batch estimation keys one stream per fixed
4096-path chunk, and a sampler draws from it once per chunk: one block,
assigned to paths by row, that serves every column the sampler returns
(every step size of an a priori report, every system of a theorem
report). Each path's randomness is thus pinned by (master_seed,
path_index) through the fixed chunk size, and by the shape of that
block: for the implicit-Euler sampler, the union of the report's
step-size grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

#: Samples per chunk. A chunk's draws are keyed by its index, so every
#: report depends on this value.
CHUNK_SIZE = 4096

#: The work limit, in float64 values, of one block a run allocates at
#: once: one chunk's Brownian increments (CHUNK_SIZE paths times the steps
#: of all a report's grids times the state dimension), one chunk of
#: synthetic paths (CHUNK_SIZE times horizon + 1), one simulated
#: trajectory (its steps times the larger of the state and noise
#: dimensions), or the level-by-position mass of an exact walk
#: expectation. Each is checked before any of its arrays is allocated.
MAX_CHUNK_VALUES = 2**25

# High bit separates the chunk-stream key domain from the path-stream
# domain so the two can never collide.
_CHUNK_DOMAIN = 1 << 63


@dataclass(frozen=True)
class StreamPlan:
    """Seed and worker count for one estimation run.

    ``workers`` only controls scheduling; estimates are bit-identical
    for any worker count because substreams and the reduction order
    depend on the plan alone.
    """

    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ContractViolationError(
                f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )
        if self.workers < 1:
            raise ContractViolationError(f"workers must be >= 1, got {self.workers}")

    def _keyed(self, word: int) -> np.random.Generator:
        key = np.array([self.master_seed, word], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def path_stream(self, path_index: int) -> np.random.Generator:
        """Independent generator for one path."""
        if not 0 <= path_index < _CHUNK_DOMAIN:
            raise ContractViolationError(f"path_index out of range: {path_index}")
        return self._keyed(path_index)

    def chunk_stream(self, chunk_index: int) -> np.random.Generator:
        """Independent generator for one fixed-size chunk of paths."""
        if not 0 <= chunk_index < _CHUNK_DOMAIN:
            raise ContractViolationError(f"chunk_index out of range: {chunk_index}")
        return self._keyed(_CHUNK_DOMAIN | chunk_index)

    def n_chunks(self, n_samples: int) -> int:
        return -(-n_samples // CHUNK_SIZE)

    def chunk_count(self, chunk_index: int, n_samples: int) -> int:
        """Number of samples assigned to a chunk (the last may be short)."""
        start = chunk_index * CHUNK_SIZE
        return max(0, min(CHUNK_SIZE, n_samples - start))
