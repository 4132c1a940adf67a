"""Deterministic PRNG used for all randomized construction and sampling.

Everything random in this package flows through SplitMix64 so that a single
64-bit seed reproduces a construction or a sampling campaign bit-for-bit,
independent of Python version or platform. Reports record the generator name
(`PRNG_NAME`) next to the seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

PRNG_NAME = "splitmix64-v1"


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance splitmix64 once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def mix_seed(seed: int, tag: int) -> int:
    """Derive a child seed from (seed, tag).

    Used to split one seed into independent streams, e.g. the two recursive
    halves of a network construction (tags 0 and 1) and its joining bijection
    (tag 2). The derivation is a fixed function so one top-level seed pins
    the whole construction tree.
    """
    _, out = _splitmix64((seed ^ ((tag + 1) * 0xD1B54A32D192ED03)) & _MASK64)
    return out


class SplitMix64:
    """Minimal uniform PRNG with Fisher-Yates shuffling and subset sampling."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next64()
            if r < threshold:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm

    def sample_indices(self, population: int, k: int) -> list[int]:
        """Sorted uniform k-subset of range(population), without replacement."""
        if not 0 <= k <= population:
            raise ValueError(f"cannot sample {k} from {population}")
        # Partial Fisher-Yates over a virtual list(range(population)):
        # `moved` holds only the slots a swap changed, and slot i is never
        # read again once it is drawn. Each draw is randbelow(population -
        # i) with _splitmix64 written out in place: the same outputs and
        # the same rejection rule, so the draws and the end state are
        # randbelow's.
        moved: dict[int, int] = {}
        out = []
        state = self._state
        for i in range(k):
            n = population - i
            threshold = (1 << 64) - ((1 << 64) % n)
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < threshold:
                    break
            j = i + z % n
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        self._state = state
        return sorted(out)
