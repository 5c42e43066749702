"""Named, independently seeded random-number streams.

Reproducibility discipline: every stochastic subsystem draws from its own
named stream derived from the master seed and the stream name, so adding or
re-ordering consumers never perturbs another subsystem's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.simkernel.streams import namespace_of


def derive_seed(master: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master`` and a stream ``name``.

    Uses SHA-256 over the master seed and name, so the mapping is stable
    across Python versions and platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Registry of named ``numpy.random.Generator`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        A new name must be a non-blank string that falls in a declared
        namespace (:func:`repro.simkernel.streams.namespace_of`): a blank
        or ad-hoc name would silently alias or collide with another
        subsystem's stream, exactly the coupling named streams exist to
        prevent. Only creation validates, so a cached lookup stays one
        dict access.
        """
        gen = self._streams.get(name)
        if gen is None:
            if not isinstance(name, str) or not name.strip():
                raise ValueError(
                    f"RNG stream name must be a non-blank string, got {name!r}"
                )
            namespace_of(name)
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def reset(self, name: str) -> np.random.Generator:
        """Re-seed the named stream back to its initial state."""
        self._streams.pop(name, None)
        return self.get(name)

    def names(self) -> list[str]:
        """Names of all instantiated streams (sorted for determinism)."""
        return sorted(self._streams)
