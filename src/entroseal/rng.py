"""Seedable randomness source producing fixed-width bit strings."""

from __future__ import annotations

import random

from .errors import EntropyError, PreconditionError
from .gf2 import BitPoly, _bitpoly


class RandomSource:
    """Uniform bit-string generator.

    With a seed, draws come from a deterministic PRNG and are reproducible
    across runs; without one, from the platform entropy source. Security
    statements assume the unseeded mode; seeding exists for tests and for
    pinned golden vectors.
    """

    def __init__(self, seed: int | None = None):
        self.seed = seed
        if seed is None:
            self._rng: random.Random = random.SystemRandom()
        else:
            self._rng = random.Random(seed)

    def bits(self, nbits: int) -> BitPoly:
        """A uniform BitPoly of exactly nbits bits (nbits = 0 is legal);
        only a failure of the source itself raises EntropyError."""
        if isinstance(nbits, bool) or not isinstance(nbits, int):
            raise PreconditionError(f"bit count must be an int, got {nbits!r}")
        if nbits < 0:
            raise PreconditionError("bit count must be nonnegative")
        try:
            value = self._rng.getrandbits(nbits)
        except (OSError, NotImplementedError) as exc:
            raise EntropyError(f"entropy source failed: {exc}") from exc
        return _bitpoly(value, nbits)

    def __repr__(self) -> str:
        tag = "system" if self.seed is None else f"seed={self.seed}"
        return f"RandomSource({tag})"
