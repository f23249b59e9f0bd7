"""Reproducible, independently seeded replica streams.

A stream is addressed by ``(base_seed, stream_index)``; the pair is fed
to ``numpy.random.SeedSequence`` (whose expansion is documented as stable
across numpy versions), so distinct indices give statistically
independent PCG64 generators and the same address always reproduces the
same sequence.  The mapping is injective: SeedSequence hashes the entropy
words individually.

``position`` counts variates handed out.  The address and the draws made
fix a stream: a run manifest that records a replica's address and
position pins down exactly where its randomness came from, and a stream
re-derived from that address that replays the same draws continues
identically.  There is no snapshot of the bit-generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = ["RngStream", "derive_stream"]


@dataclass
class RngStream:
    """One replica's private generator; not shared across threads."""

    base_seed: int
    stream_index: int
    position: int = field(default=0, init=False)

    def __post_init__(self):
        seq = np.random.SeedSequence([int(self.base_seed), int(self.stream_index)])
        self._generator = np.random.Generator(np.random.PCG64(seq))

    def uniform(self, count: int) -> np.ndarray:
        out = self._generator.random(count)
        self.position += count
        return out

    def normal(self, count: int) -> np.ndarray:
        out = self._generator.standard_normal(count)
        self.position += count
        return out


def derive_stream(base_seed: int, stream_index: int) -> RngStream:
    """Fresh stream for a replica; same inputs always give the same stream."""
    if base_seed < 0:
        raise InvalidParameterError("base_seed must be nonnegative")
    if stream_index < 0:
        raise InvalidParameterError("stream_index must be nonnegative")
    return RngStream(base_seed=int(base_seed), stream_index=int(stream_index))
