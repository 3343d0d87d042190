"""Epoch-versioned MVCC publication of live graph snapshots.

Every applied update batch produces a new immutable :class:`Epoch` — a
snapshot graph plus a refcount.  Readers pin the epoch they start on and
keep reading it even while later epochs publish; a retired epoch releases
its storage segment only once the last pinned reader drains.

Shared-memory semantics make this safe without copying: unlinking a
segment removes its *name* (new attaches fail with a clear error) while
every existing mapping — parent and worker alike — stays valid until that
process closes it.  So retirement can never invalidate an in-flight
reader; the refcount exists to delay the unlink until late (re)attaches,
such as broken-pool recovery, can no longer happen.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.store import StoreHandle
from repro.live.overlay import DeltaOverlay

__all__ = ["Epoch", "EpochHandle", "LiveGraph"]


@dataclass(frozen=True)
class EpochHandle:
    """Picklable reference to a published epoch's shared-memory snapshot.

    Workers compare ``store.segment_name`` against their currently attached
    segment and re-map only on change; attaching a retired epoch whose
    segment was already unlinked raises :class:`~repro.errors.GraphError`.
    """

    epoch_id: int
    store: StoreHandle

    def attach(self) -> DiGraph:
        """Map the epoch's snapshot into this process (zero-copy)."""
        return DiGraph.from_handle(self.store)


class Epoch:
    """One immutable published snapshot with reader refcounting.

    The publisher holds one implicit reference that :meth:`retire` drops;
    readers bracket their use with :meth:`pin` / :meth:`release`.  When the
    epoch is retired and the last reference is released, the backing store
    segment is closed (and unlinked, when this epoch owns it).
    """

    __slots__ = ("epoch_id", "graph", "_owns_store", "_refs", "_retired", "_lock")

    def __init__(self, epoch_id: int, graph: DiGraph, *, owns_store: bool = False) -> None:
        self.epoch_id = int(epoch_id)
        self.graph = graph
        self._owns_store = owns_store
        self._refs = 1  # the publisher's reference, dropped by retire()
        self._retired = False
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(id={self.epoch_id}, refs={self._refs}, "
            f"retired={self._retired})"
        )

    @property
    def refs(self) -> int:
        return self._refs

    def pin(self) -> "Epoch":
        """Take a reader reference; returns ``self`` for chaining."""
        with self._lock:
            if self._refs <= 0:
                raise GraphError(
                    f"epoch {self.epoch_id} is retired and drained; "
                    "its segment is gone"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop a reader reference; frees the segment on the last drop."""
        with self._lock:
            if self._refs <= 0:
                return
            self._refs -= 1
            last = self._refs == 0 and self._retired
        if last:
            self._release_store()

    def retire(self) -> None:
        """Drop the publisher reference; the epoch stops accepting pins
        once drained."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            self._refs -= 1
            last = self._refs == 0
        if last:
            self._release_store()

    def handle(self) -> Optional[EpochHandle]:
        """A picklable handle to the snapshot, or ``None`` for heap epochs."""
        store = self.graph.store
        if store is None or not store.shareable:
            return None
        return EpochHandle(self.epoch_id, store.handle())

    def _release_store(self) -> None:
        if not self._owns_store:
            return
        store = self.graph.store
        if store is not None:
            self.graph.close_store(unlink=getattr(store, "is_owner", False))


class LiveGraph:
    """A mutable façade over immutable snapshots: overlay + epoch chain.

    ``apply()`` batches insertions/removals into a :class:`DeltaOverlay`,
    materialises the merged graph and publishes it as the next
    :class:`Epoch`; the predecessor is retired (its segment lives on until
    the last pinned reader drains).  When the accumulated delta crosses
    ``compact_threshold`` the overlay itself is rebased onto the fresh CSR
    (a *compaction*), so per-publish delta replay stays bounded.

    ``store="shared_memory"`` publishes every epoch into a shared-memory
    segment so process workers can re-attach on epoch change without a pool
    restart; ``store="heap"`` keeps snapshots process-local (thread and
    inline backends).
    """

    def __init__(
        self,
        base: DiGraph,
        *,
        compact_threshold: int = 4096,
        store: str = "heap",
    ) -> None:
        if store not in ("heap", "shared_memory"):
            raise ValueError(
                f"unknown live store {store!r}: use 'heap' or 'shared_memory'"
            )
        self._store = store
        self._overlay = DeltaOverlay(base, compact_threshold=compact_threshold)
        self._epoch = Epoch(0, base, owns_store=False)
        #: Pin on the epoch whose graph currently backs the overlay, so a
        #: retired base's arrays cannot be released out from under the next
        #: materialisation.  ``None`` while the overlay still sits on the
        #: original (epoch 0) base.
        self._base_pin: Optional[Epoch] = None
        self._lock = threading.RLock()
        self.epochs_published = 0
        self.compactions = 0
        self.updates_applied = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The current epoch's snapshot graph."""
        return self._epoch.graph

    @property
    def epoch(self) -> Epoch:
        """The current epoch."""
        return self._epoch

    @property
    def epoch_id(self) -> int:
        return self._epoch.epoch_id

    @property
    def delta_size(self) -> int:
        with self._lock:
            return self._overlay.delta_size

    def pin(self) -> Epoch:
        """Pin and return the current epoch (reader entry point)."""
        with self._lock:
            return self._epoch.pin()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "current_epoch": self._epoch.epoch_id,
                "epochs_published": self.epochs_published,
                "compactions": self.compactions,
                "updates_applied": self.updates_applied,
                "delta_size": self._overlay.delta_size,
            }

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def apply(
        self,
        add: Iterable[Tuple[int, int]] = (),
        remove: Iterable[Tuple[int, int]] = (),
    ) -> Dict[str, object]:
        """Apply one batch of edge updates and publish the next epoch.

        Returns a dict with the (possibly unchanged) current ``epoch`` id
        and the ``added`` / ``removed`` pairs that actually took effect —
        the exact inputs distance repair needs.  A batch that changes
        nothing publishes nothing.
        """
        with self._lock:
            if self._closed:
                raise GraphError("LiveGraph is closed")
            applied_add = self._overlay.add_edges(add)
            applied_remove = self._overlay.remove_edges(remove)
            if not applied_add and not applied_remove:
                return {
                    "epoch": self._epoch.epoch_id,
                    "added": [],
                    "removed": [],
                    "published": False,
                }
            graph = self._overlay.materialize()
            if self._store == "shared_memory":
                graph.share()
            new = Epoch(
                self._epoch.epoch_id + 1,
                graph,
                owns_store=self._store == "shared_memory",
            )
            old = self._epoch
            self._epoch = new
            self.epochs_published += 1
            self.updates_applied += len(applied_add) + len(applied_remove)
            old_base_pin = None
            if self._overlay.needs_compaction:
                # Rebase the overlay onto the fresh CSR; pin the new epoch
                # so its arrays survive the epoch's own retirement for as
                # long as it remains the overlay base.
                self._overlay = DeltaOverlay(
                    graph, compact_threshold=self._overlay.compact_threshold
                )
                old_base_pin = self._base_pin
                self._base_pin = new.pin()
                self.compactions += 1
        old.retire()
        if old_base_pin is not None:
            old_base_pin.release()
        return {
            "epoch": new.epoch_id,
            "added": applied_add,
            "removed": applied_remove,
            "published": True,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Retire the current epoch and release the overlay base pin.

        In-flight pinned readers keep their mappings; segments disappear as
        the last reader of each epoch drains.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            epoch = self._epoch
            base_pin = self._base_pin
            self._base_pin = None
        if base_pin is not None:
            base_pin.release()
        epoch.retire()

    def __enter__(self) -> "LiveGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
