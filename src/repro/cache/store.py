"""The set-associative cache store.

Pure bookkeeping: which disk blocks are cached, which are dirty, and who
gets evicted on overflow.  No timing lives here — the
:class:`~repro.cache.controller.CacheController` turns store transitions
into device operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cache.block import CacheBlock
from repro.cache.replacement import ReplacementPolicy, make_replacement_policy

__all__ = ["CacheStore", "StoreStats", "EvictionInfo"]


@dataclass(frozen=True)
class EvictionInfo:
    """Record of a block evicted to make room."""

    lba: int
    was_dirty: bool


@dataclass(slots=True)
class StoreStats:
    """Lifetime counters for the store."""

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def misses(self) -> int:
        """Lookup misses."""
        return self.lookups - self.hits

    @property
    def hit_ratio(self) -> float:
        """Hits / lookups (0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class _CacheSet:
    """One associativity set: ordered entries, policy and dirty count."""

    __slots__ = ("entries", "policy", "dirty")

    def __init__(self, policy: ReplacementPolicy) -> None:
        self.entries: dict[int, CacheBlock] = {}
        self.policy = policy
        #: Dirty entries in this set (the flusher skips sets at 0).
        self.dirty = 0


class CacheStore:
    """A set-associative map of disk blocks onto the cache device.

    Args:
        capacity_blocks: Total number of cacheable 4-KiB blocks.
        associativity: Ways per set (``capacity_blocks`` must divide
            evenly; EnhanceIO uses 256-way sets, we default to 8 for
            finer-grained behaviour at simulation scale).
        replacement: Replacement policy name (``lru`` default).
    """

    def __init__(
        self,
        capacity_blocks: int,
        associativity: int = 8,
        replacement: str = "lru",
    ) -> None:
        if capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if capacity_blocks % associativity != 0:
            raise ValueError(
                f"capacity {capacity_blocks} not divisible by associativity "
                f"{associativity}"
            )
        self.capacity_blocks = capacity_blocks
        self.associativity = associativity
        self.num_sets = capacity_blocks // associativity
        self.replacement_name = replacement
        self._sets = [
            _CacheSet(make_replacement_policy(replacement))
            for _ in range(self.num_sets)
        ]
        self.stats = StoreStats()
        self._occupied = 0
        #: LBAs of the resident dirty blocks: an exact index kept at every
        #: dirty transition, so readers never rescan the sets for it.
        self.dirty_lbas: set[int] = set()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def set_index(self, lba: int) -> int:
        """Set index for a block address."""
        return lba % self.num_sets

    def _set_for(self, lba: int) -> _CacheSet:
        return self._sets[lba % self.num_sets]

    # ------------------------------------------------------------------
    # Lookup / insert / invalidate
    # ------------------------------------------------------------------
    def lookup(self, lba: int, now: float, touch: bool = True) -> Optional[CacheBlock]:
        """Return the cached block for ``lba`` or ``None`` (counts stats)."""
        cset = self._sets[lba % self.num_sets]
        stats = self.stats
        stats.lookups += 1
        block = cset.entries.get(lba)
        if block is None:
            return None
        stats.hits += 1
        if touch:
            # Inlined block.touch(now) — one hit per cache-read block
            # makes the extra call measurable.
            block.last_access = now
            block.access_count += 1
            block.ref = True
            cset.policy.on_access(cset.entries, block)
        return block

    def peek(self, lba: int) -> Optional[CacheBlock]:
        """Lookup without stats or recency update."""
        return self._set_for(lba).entries.get(lba)

    def insert(
        self, lba: int, now: float, dirty: bool = False
    ) -> tuple[CacheBlock, Optional[EvictionInfo]]:
        """Insert (or overwrite) ``lba``; evict a victim if the set is full.

        Returns:
            ``(block, eviction)`` where ``eviction`` describes the victim
            (and its dirtiness) or ``None`` when no eviction was needed.
            Re-inserting a resident block refreshes it in place and never
            evicts.
        """
        cset = self._set_for(lba)
        existing = cset.entries.get(lba)
        if existing is not None:
            if dirty and not existing.dirty:
                existing.dirty = True
                cset.dirty += 1
                self.dirty_lbas.add(lba)
            existing.touch(now)
            cset.policy.on_access(cset.entries, existing)
            return existing, None

        eviction: Optional[EvictionInfo] = None
        if len(cset.entries) >= self.associativity:
            victim_lba = cset.policy.choose_victim(cset.entries)
            victim = cset.entries.pop(victim_lba)
            self._occupied -= 1
            self.stats.evictions += 1
            if victim.dirty:
                cset.dirty -= 1
                self.dirty_lbas.remove(victim_lba)
                self.stats.dirty_evictions += 1
            eviction = EvictionInfo(victim_lba, victim.dirty)

        block = CacheBlock(lba, now, dirty=dirty)
        cset.entries[lba] = block
        cset.policy.on_insert(cset.entries, block)
        self._occupied += 1
        if dirty:
            cset.dirty += 1
            self.dirty_lbas.add(lba)
        self.stats.insertions += 1
        return block, eviction

    def invalidate(self, lba: int) -> bool:
        """Drop ``lba`` from the cache; returns whether it was resident."""
        cset = self._set_for(lba)
        block = cset.entries.pop(lba, None)
        if block is None:
            return False
        self._occupied -= 1
        if block.dirty:
            cset.dirty -= 1
            self.dirty_lbas.remove(lba)
        self.stats.invalidations += 1
        return True

    # ------------------------------------------------------------------
    # Dirty management
    # ------------------------------------------------------------------
    def mark_dirty(self, lba: int) -> None:
        """Mark a resident block dirty (no-op if absent)."""
        cset = self._set_for(lba)
        block = cset.entries.get(lba)
        if block is not None and not block.dirty:
            block.dirty = True
            cset.dirty += 1
            self.dirty_lbas.add(lba)

    def mark_clean(self, lba: int) -> None:
        """Mark a resident block clean (after a flush)."""
        cset = self._set_for(lba)
        block = cset.entries.get(lba)
        if block is not None and block.dirty:
            block.dirty = False
            cset.dirty -= 1
            self.dirty_lbas.remove(lba)

    def dirty_blocks(self, limit: Optional[int] = None) -> list[int]:
        """LBAs of dirty blocks, oldest-inserted first, up to ``limit``.

        Sets are walked in index order; sets holding no dirty block are
        skipped without touching their entries.  A ``limit`` of 0 (or
        less) returns nothing.
        """
        if limit is not None and limit <= 0:
            return []
        out: list[int] = []
        for cset in self._sets:
            if not cset.dirty:
                continue
            for lba, block in cset.entries.items():
                if block.dirty:
                    out.append(lba)
                    if limit is not None and len(out) >= limit:
                        return out
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def occupied(self) -> int:
        """Number of resident blocks."""
        return self._occupied

    @property
    def dirty_count(self) -> int:
        """Number of dirty resident blocks."""
        return len(self.dirty_lbas)

    @property
    def occupancy(self) -> float:
        """Resident fraction of capacity."""
        return self._occupied / self.capacity_blocks

    @property
    def dirty_ratio(self) -> float:
        """Dirty fraction of capacity."""
        return len(self.dirty_lbas) / self.capacity_blocks

    def __contains__(self, lba: int) -> bool:
        return self.peek(lba) is not None

    def __iter__(self) -> Iterator[CacheBlock]:
        for cset in self._sets:
            yield from cset.entries.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStore({self._occupied}/{self.capacity_blocks} blocks, "
            f"{len(self.dirty_lbas)} dirty, {self.replacement_name})"
        )
