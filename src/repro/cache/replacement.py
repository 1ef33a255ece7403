"""Pluggable replacement policies.

Each policy manages the ordering metadata of one cache set.  Sets store
their blocks in an insertion-ordered ``dict`` (``lba -> CacheBlock``);
policies reorder or annotate on access and choose a victim on overflow.

Available policies: LRU (EnhanceIO's default), FIFO, CLOCK (second
chance), and LFU with LRU tie-breaking.  The ablation benchmark sweeps
these to show LBICA's behaviour is replacement-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.block import CacheBlock
from repro.registry import Registry

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "ClockPolicy",
    "LfuPolicy",
    "make_replacement_policy",
]


class ReplacementPolicy(ABC):
    """Victim-selection strategy for one cache set."""

    name: str = "base"

    def on_insert(self, entries: dict[int, CacheBlock], block: CacheBlock) -> None:
        """Hook invoked after ``block`` is added to ``entries``."""

    def on_access(self, entries: dict[int, CacheBlock], block: CacheBlock) -> None:
        """Hook invoked on a hit to ``block``."""

    @abstractmethod
    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        """Return the LBA of the block to evict (``entries`` non-empty)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: move-to-back on access, evict the front."""

    name = "lru"

    def on_access(self, entries: dict[int, CacheBlock], block: CacheBlock) -> None:
        # Re-insert to move the key to the back of the ordered dict.
        entries.pop(block.lba)
        entries[block.lba] = block

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return next(iter(entries))


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: evict the oldest insertion, ignore accesses."""

    name = "fifo"

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return next(iter(entries))


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: sweep, clearing ref bits, evict first clear."""

    name = "clock"

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        # Two sweeps guarantee a victim: the first clears every ref bit
        # in the worst case, the second then finds ref == False.
        for _ in range(2):
            for lba, block in entries.items():
                if not block.ref:
                    return lba
                block.ref = False
        return next(iter(entries))  # pragma: no cover - unreachable


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used, breaking ties by last access time."""

    name = "lfu"

    def choose_victim(self, entries: dict[int, CacheBlock]) -> int:
        return min(
            entries.values(), key=lambda b: (b.access_count, b.last_access)
        ).lba


_POLICIES: Registry[type[ReplacementPolicy]] = Registry(
    "replacement policy",
    __name__,
    entries={cls.name: cls for cls in (LruPolicy, FifoPolicy, ClockPolicy, LfuPolicy)},
)


def make_replacement_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``clock``/``lfu``).

    Raises:
        ValueError: For unknown names.
    """
    return _POLICIES.lookup(name.lower())()
