"""The partition-local multiversion store: one version chain per key."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.types import Micros, ReplicaId
from repro.storage.chain import VersionChain
from repro.storage.gc import GcStats, collect_chain, collect_chain_by
from repro.storage.version import Version


class PartitionStore:
    """All versions held by one server for the keys of its partition."""

    __slots__ = ("_chains", "gc_stats", "versions_inserted")

    def __init__(self) -> None:
        self._chains: dict[Any, VersionChain] = {}
        self.gc_stats = GcStats()
        self.versions_inserted = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, version: Version) -> None:
        """Insert a version into its key's chain (creating the chain)."""
        chain = self._chains.get(version.key)
        if chain is None:
            chain = VersionChain()
            self._chains[version.key] = chain
        chain.insert(version)
        self.versions_inserted += 1

    def preload(
        self,
        keys: Iterable[Any],
        num_dcs: int,
        initial_value: Any = 0,
        source_replica: ReplicaId = 0,
    ) -> None:
        """Install an identical initial version of every key at time 0.

        The paper preloads one million key-value pairs per partition; the
        initial versions are identical at every DC (ut=0, all-zero
        dependency cut) and therefore trivially stable everywhere.
        """
        dv = (0,) * num_dcs
        for key in keys:
            self.insert(
                Version(key=key, value=initial_value, sr=source_replica,
                        ut=0, dv=dv)
            )
        # Preloading is not a workload write.
        self.versions_inserted = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def purge(self, doomed: Callable[[Version], bool]) -> list[Version]:
        """Remove every version matching ``doomed`` from every chain.

        Unlike garbage collection this may remove chain *heads* — it
        implements recovery-time discarding (Section III-B's lost-update
        mechanism), not retention.  Returns the removed versions so the
        caller can report what was lost.
        """
        removed: list[Version] = []
        emptied: list[Any] = []
        for key, chain in self._chains.items():
            keep: list[Version] = []
            for version in chain:  # freshest-first, order preserved
                if doomed(version):
                    removed.append(version)
                else:
                    keep.append(version)
            if len(keep) != len(chain):
                chain.truncate_to(keep)
                if not keep:
                    emptied.append(key)
        for key in emptied:
            # A fully purged chain leaves the store, not an empty shell:
            # readers treat a missing chain as "no version" (nil reply)
            # but would trip over a present-yet-empty one, and a view
            # change purges whole chains precisely to hand the memory
            # back.
            del self._chains[key]
        return removed

    def chain(self, key: Any) -> VersionChain | None:
        return self._chains.get(key)

    def find_version(self, key: Any, sr: ReplicaId, ut: Micros) -> Version | None:
        """The locally held version with this exact identity, if any."""
        chain = self._chains.get(key)
        return chain.find(sr, ut) if chain is not None else None

    def has_version(self, key: Any, sr: ReplicaId, ut: Micros) -> bool:
        """Whether the version with this exact identity is held locally."""
        return self.find_version(key, sr, ut) is not None

    def all_versions(self) -> Iterator[Version]:
        """Every version of every chain (snapshot scans); no order
        guarantee across keys, freshest-first within one key."""
        for chain in self._chains.values():
            yield from chain

    def freshest(self, key: Any) -> Version | None:
        """Head of the chain (the optimistic read)."""
        chain = self._chains.get(key)
        return chain.head() if chain is not None else None

    def __contains__(self, key: Any) -> bool:
        return key in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def keys(self) -> Iterator[Any]:
        return iter(self._chains)

    def total_versions(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def collect(self, gv: Sequence[Micros]) -> int:
        """Run one GC round with garbage vector ``gv`` over all chains."""
        removed = 0
        for chain in self._chains.values():
            if len(chain) > 1:
                removed += collect_chain(chain, gv)
                self.gc_stats.chains_scanned += 1
        self.gc_stats.rounds += 1
        self.gc_stats.versions_removed += removed
        self.gc_stats.last_gv = list(gv)
        return removed

    def collect_by(
        self, covered: Callable[[Version], bool], horizon: Sequence[Micros]
    ) -> int:
        """GC round with a custom coverage predicate (scalar-clock
        protocols); ``horizon`` is recorded in the stats for inspection."""
        removed = 0
        for chain in self._chains.values():
            if len(chain) > 1:
                removed += collect_chain_by(chain, covered)
                self.gc_stats.chains_scanned += 1
        self.gc_stats.rounds += 1
        self.gc_stats.versions_removed += removed
        self.gc_stats.last_gv = list(horizon)
        return removed
