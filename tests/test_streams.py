"""Keyed substreams: injective keys, purity, domain checks, independence."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.streams import StreamPlan

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stochastic_gronwall"
N = 4096


def first_raw(stream, count=4):
    return tuple(int(v) for v in stream.bit_generator.random_raw(count))


class TestKeys:
    def test_key_is_four_fixed_width_words(self):
        seed, index = 3 * 2**32 + 7, 2**40 + 5
        words = np.array([7, 3, 5, 2**8], dtype=np.uint32)
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
        stream = StreamPlan(seed).path_stream(index)
        assert isinstance(stream.bit_generator, np.random.SFC64)
        assert np.array_equal(stream.standard_normal(8), expected.standard_normal(8))

    def test_variable_width_collision_pair_differs(self):
        # SeedSequence([7, 2**63 | 3]) and SeedSequence([3 * 2**32 + 7, 2**31])
        # hold the same words, [7, 3, 2**31], so a list-form key gives both one stream
        a = StreamPlan(7).chunk_stream(3)
        b = StreamPlan(12884901895).path_stream(2147483648)
        assert first_raw(a) != first_raw(b)

    def test_keys_are_injective(self):
        seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 7, 3 * 2**32 + 7, 2**63, 2**64 - 1]
        indices = [0, 1, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]
        draws = {}
        for seed in seeds:
            plan = StreamPlan(seed)
            for index in indices:
                draws[(seed, "path", index)] = first_raw(plan.path_stream(index))
                draws[(seed, "chunk", index)] = first_raw(plan.chunk_stream(index))
        assert len(set(draws.values())) == len(draws)

    def test_stream_is_a_pure_function_of_seed_and_index(self):
        for seed, index in ((0, 0), (42, 3), (2**64 - 1, 2**63 - 1)):
            a = StreamPlan(seed).chunk_stream(index)
            b = StreamPlan(seed, workers=3).chunk_stream(index)
            assert np.array_equal(a.standard_normal(64), b.standard_normal(64))
            a = StreamPlan(seed).path_stream(index)
            b = StreamPlan(seed, workers=5).path_stream(index)
            assert np.array_equal(a.random(64), b.random(64))

    @pytest.mark.parametrize("index", [0, 1, 2**32, 2**63 - 1])
    def test_path_and_chunk_domains_differ(self, index):
        plan = StreamPlan(11)
        assert first_raw(plan.path_stream(index)) != first_raw(plan.chunk_stream(index))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_master_seed_out_of_range(self, seed):
        with pytest.raises(ContractViolationError, match="master_seed"):
            StreamPlan(seed)

    @pytest.mark.parametrize("index", [-1, 2**63, 2**64])
    def test_index_out_of_range(self, index):
        plan = StreamPlan(0)
        with pytest.raises(ContractViolationError, match="path_index"):
            plan.path_stream(index)
        with pytest.raises(ContractViolationError, match="chunk_index"):
            plan.chunk_stream(index)

    def test_streams_module_is_the_only_seeding_site(self):
        seeding = re.compile(r"np\.random\.(?!Generator\b)\w+")
        for path in PACKAGE.glob("*.py"):
            if path.name != "streams.py":
                assert not seeding.findall(path.read_text(encoding="utf-8")), path.name
        assert "Philox" not in (PACKAGE / "streams.py").read_text(encoding="utf-8")


class TestIndependence:
    """Sample correlations of 4096 normals from neighbouring keys lie within
    5/sqrt(n) of zero; fixed seeds keep the test deterministic."""

    @staticmethod
    def assert_uncorrelated(a, b):
        x, y = a.standard_normal(N), b.standard_normal(N)
        assert abs(np.corrcoef(x, y)[0, 1]) < 5.0 / math.sqrt(N)

    @pytest.mark.parametrize("index", [0, 1, 2**31 - 1, 2**32 - 1, 2**63 - 2])
    def test_adjacent_chunks(self, index):
        plan = StreamPlan(42)
        self.assert_uncorrelated(plan.chunk_stream(index), plan.chunk_stream(index + 1))

    @pytest.mark.parametrize("seed", [0, 41, 2**32 - 1, 2**64 - 2])
    def test_adjacent_master_seeds(self, seed):
        self.assert_uncorrelated(StreamPlan(seed).chunk_stream(0),
                                 StreamPlan(seed + 1).chunk_stream(0))

    @pytest.mark.parametrize("index", [0, 5, 2**63 - 1])
    def test_path_and_chunk_domains(self, index):
        plan = StreamPlan(7)
        self.assert_uncorrelated(plan.path_stream(index), plan.chunk_stream(index))

    def test_chunk_moments(self):
        x = StreamPlan(42).chunk_stream(0).standard_normal(N)
        assert abs(x.mean()) < 5.0 / math.sqrt(N)
        assert abs(x.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / N)
