"""Reproducible, independently seeded replica streams.

A stream is addressed by ``(base_seed, stream_index)``; the pair is fed
to ``numpy.random.SeedSequence`` (whose expansion is documented as stable
across numpy versions), so distinct indices give statistically
independent PCG64 generators and the same address always reproduces the
same sequence.  The mapping is injective: SeedSequence hashes the entropy
words individually.

``position`` counts variates handed out; together with the serialized
bit-generator state it lets a run manifest pin down exactly where every
replica's randomness came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = ["RngStream", "derive_stream"]

_ALGORITHM = "pcg64-seedseq-v1"


@dataclass
class RngStream:
    """One replica's private generator; not shared across threads."""

    base_seed: int
    stream_index: int
    position: int = 0
    _generator: np.random.Generator | None = field(default=None, init=False, repr=False)

    def _gen(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence([int(self.base_seed), int(self.stream_index)])
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def uniform(self, count: int) -> np.ndarray:
        out = self._gen().random(count)
        self.position += count
        return out

    def normal(self, count: int) -> np.ndarray:
        out = self._gen().standard_normal(count)
        self.position += count
        return out

    def state(self) -> dict:
        """Serializable snapshot: address, position, bit-generator state."""
        return {
            "algorithm_id": _ALGORITHM,
            "base_seed": int(self.base_seed),
            "stream_index": int(self.stream_index),
            "position": int(self.position),
            "bit_generator": self._gen().bit_generator.state,
        }

    @classmethod
    def from_state(cls, doc: dict) -> "RngStream":
        """The stream a :meth:`state` snapshot describes; a snapshot of another
        algorithm raises :class:`InvalidParameterError`."""
        algorithm = doc.get("algorithm_id", _ALGORITHM)
        if algorithm != _ALGORITHM:
            raise InvalidParameterError(
                f"stream state of algorithm {algorithm!r}, expected {_ALGORITHM!r}"
            )
        stream = cls(
            base_seed=doc["base_seed"],
            stream_index=doc["stream_index"],
            position=doc.get("position", 0),
        )
        stream._gen().bit_generator.state = doc["bit_generator"]
        return stream


def derive_stream(base_seed: int, stream_index: int) -> RngStream:
    """Fresh stream for a replica; same inputs always give the same stream."""
    if base_seed < 0:
        raise InvalidParameterError("base_seed must be nonnegative")
    if stream_index < 0:
        raise InvalidParameterError("stream_index must be nonnegative")
    return RngStream(base_seed=int(base_seed), stream_index=int(stream_index))
