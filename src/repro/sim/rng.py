"""Seeded random-number streams.

Every stochastic component draws from its own named stream derived from a
single master seed via :class:`numpy.random.SeedSequence`.  This keeps runs
reproducible and — crucially for A/B experiments like OSDP vs HWDP — keeps
the *workload* stream identical across configurations even though the two
configurations consume different amounts of device-latency randomness.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator`\\ s."""

    def __init__(self, master_seed: int = 0xD5EED):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same ``(master_seed, name)`` pair always yields the same stream,
        independent of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed from the stream name so creation order is
            # irrelevant; crc32 keeps it stable across Python versions.
            child = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(child,))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator
