"""Reproducible random streams for parallel Monte Carlo.

Substreams are SFC64 generators seeded through ``np.random.SeedSequence``
from the master seed plus an index, so every stream is a pure function
of (master_seed, index) and results never depend on worker scheduling.
The key is always four 32-bit words, low half first. SeedSequence
stores an integer in as few words as it needs and pads its pool with
zeros, so a variable-width key such as ``[master_seed, index]`` lets
two different pairs share a stream: seed 7 with chunk 3, and seed
3 * 2**32 + 7 with path 2**31.

Path-level APIs key one stream per path. Batch estimation keys one
stream per fixed 4096-path chunk, and a sampler draws from it once per
chunk: one block that serves every column the sampler returns (every
step size of an a priori report, every system of a theorem report).
The theorem sampler assigns its block to paths by row. The
implicit-Euler sampler draws its block step-major, one row per
increment and one column per antithetic pair of the chunk, so that each
step reads a contiguous row: path i of a chunk of count paths takes
column i, and path i + count/2, its mirror, the same column negated, so
the mirrors draw nothing. It draws the block as consecutive runs of
rows, one per block of time it steps, which give the normals of one
draw of the whole block. The block is half as wide as the chunk's own
path count, which is even. So a chunk of one pair draws in a
trajectory's order: its first path is the trajectory on the chunk's
stream and its second the trajectory on that stream negated. A path of
a short last chunk depends on how many paths that chunk holds.
Each path's randomness is thus pinned by (master_seed, path_index)
through the fixed chunk size and the sample count, and by the shape of
that block: for the implicit-Euler sampler, the union of the report's
step-size grids. A report still depends only on its inputs. numpy is
imported at the first stream, so the constants below load none.
"""

from __future__ import annotations

import os

from .errors import ContractViolationError

#: Samples per chunk. A chunk's draws are keyed by its index, so every
#: report depends on this value.
CHUNK_SIZE = 4096

#: The default normal quantile of a confidence interval (two-sided 95%).
DEFAULT_Z = 1.96

#: The work limit, in float64 values: one chunk's Brownian increments
#: (CHUNK_SIZE paths times the steps of all a report's grids times the
#: state dimension; the chunk draws and holds them one block of time at a
#: time, so this bounds its work and the listing of its grids' time points
#: rather than its memory), one chunk's signs for the synthetic systems
#: (checked as CHUNK_SIZE times horizon + 1), one simulated trajectory (its
#: steps times the larger of the state and noise dimensions), or the
#: level-by-position mass of an exact walk expectation. Each is checked
#: before any of its arrays is allocated.
MAX_CHUNK_VALUES = 2**25

#: The most worker processes a run may use: the calling process and up to
#: MAX_WORKERS - 1 forked children, however many chunks the run has.
MAX_WORKERS = 64

# High bit separates the chunk-stream key domain from the path-stream
# domain so the two can never collide.
_CHUNK_DOMAIN = 1 << 63


def keyed_generator(seed: int, word: int) -> np.random.Generator:
    """SFC64 generator keyed by two integers in [0, 2**64).

    The words are built arithmetically, so the key does not depend on
    the machine's byte order.
    """
    import numpy as np

    key = np.array([seed & 0xFFFFFFFF, seed >> 32, word & 0xFFFFFFFF, word >> 32], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


class StreamPlan:
    """Seed and worker count for one estimation run.

    ``workers``, 1 to ``MAX_WORKERS`` (above 1 only where ``os.fork``
    exists), only controls scheduling; estimates are bit-identical for
    any worker count because substreams and the reduction order depend
    on the plan alone.
    """

    master_seed: int
    workers: int

    def __init__(self, master_seed: int, workers: int = 1):
        if not 0 <= master_seed < 2**64:
            raise ContractViolationError(
                f"master_seed must be a 64-bit unsigned integer, got {master_seed}"
            )
        if not 1 <= workers <= MAX_WORKERS:
            raise ContractViolationError(
                f"workers must lie in [1, {MAX_WORKERS}], got {workers}"
            )
        if workers > 1 and not hasattr(os, "fork"):
            raise ContractViolationError(
                f"workers > 1 needs os.fork, which this system lacks; got {workers}"
            )
        self.master_seed, self.workers = master_seed, workers

    def path_stream(self, path_index: int) -> np.random.Generator:
        """Independent generator for one path."""
        if not 0 <= path_index < _CHUNK_DOMAIN:
            raise ContractViolationError(f"path_index out of range: {path_index}")
        return keyed_generator(self.master_seed, path_index)

    def chunk_stream(self, chunk_index: int) -> np.random.Generator:
        """Independent generator for one fixed-size chunk of paths."""
        if not 0 <= chunk_index < _CHUNK_DOMAIN:
            raise ContractViolationError(f"chunk_index out of range: {chunk_index}")
        return keyed_generator(self.master_seed, _CHUNK_DOMAIN | chunk_index)

    def n_chunks(self, n_samples: int) -> int:
        return -(-n_samples // CHUNK_SIZE)

    def chunk_count(self, chunk_index: int, n_samples: int) -> int:
        """Number of samples assigned to a chunk (the last may be short)."""
        start = chunk_index * CHUNK_SIZE
        return max(0, min(CHUNK_SIZE, n_samples - start))
