"""SplitMix64 subset sampling against the list-based partial Fisher-Yates
it replaced: the same randbelow calls in the same order, so every draw
and the generator state after it are identical."""

import pytest

from hlmenger.rng import SplitMix64


def list_sample(rng: SplitMix64, population: int, k: int) -> list[int]:
    pool = list(range(population))
    for i in range(k):
        j = i + rng.randbelow(population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


@pytest.mark.parametrize("population,k", [
    (960, 23), (960, 0), (100, 100), (1, 0), (1, 1), (2, 1), (40, 39),
    (320, 160),
])
def test_sample_indices_matches_the_list_reference(population, k):
    for seed in range(200):
        fast, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(3):
            assert fast.sample_indices(population, k) == \
                list_sample(ref, population, k), seed
        assert fast.next64() == ref.next64()


@pytest.mark.parametrize("population,k", [(3, 4), (3, -1), (0, 1)])
def test_sample_indices_rejects_impossible_sizes(population, k):
    with pytest.raises(ValueError, match="cannot sample"):
        SplitMix64(0).sample_indices(population, k)
