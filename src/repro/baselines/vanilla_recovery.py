"""Vanilla ARIES-style recovery: full redo replay from storage (§4.3).

After a crash every buffered page is gone. Recovery scans the durable
redo log from the last checkpoint, reads each referenced page from
*storage*, applies the records under the page-LSN guard, and leaves the
rebuilt pages in the (otherwise cold) buffer pool. The database then
needs a long warm-up before it reaches pre-crash throughput — both
effects visible in Figure 10.

RDMA-assisted recovery (LegoBase / PolarDB-MP-era systems, §2.2 item 2)
is the same replay with ``remote`` set: the remote memory tier survives
the compute host crash, so page images come from disaggregated memory
(a ~7 µs RDMA read) instead of storage (a ~150 µs cloud-storage read)
whenever the page is resident there. The log is still scanned and
applied in full, which is the gap PolarRecv closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.recovery import apply_redo_to_image
from ..db.constants import PAGE_SIZE
from ..storage.pagestore import PageStore
from ..storage.wal import RedoLog, RedoRecord

__all__ = ["ReplayStats", "replay_recovery"]


@dataclass
class ReplayStats:
    """What a replay-style recovery did."""

    log_records: int = 0
    pages_redone: int = 0
    pages_from_buffer: int = 0
    pages_from_remote: int = 0
    pages_from_storage: int = 0
    pages_from_zero: int = 0
    records_applied: int = 0


def replay_recovery(
    pool,
    page_store: PageStore,
    redo_log: RedoLog,
    remote=None,
    meter=None,
) -> ReplayStats:
    """Replay the durable log into ``pool``; the vanilla and the
    RDMA-assisted schemes differ only in ``remote``.

    ``pool`` must expose ``install_page(page_id, image, dirty)``. With
    ``remote`` set (a :class:`~repro.baselines.rdma_bufferpool.RemoteMemoryNode`),
    page images come from disaggregated memory when present — cheaper
    than storage reads but still a full log replay, which is exactly the
    limitation the paper calls out for RDMA-based recovery (§2.2).
    """
    stats = ReplayStats()
    redo_log.recover_lsn_counter()
    records = redo_log.records_since(redo_log.checkpoint_lsn)
    stats.log_records = len(records)
    grouped: dict[int, list[RedoRecord]] = {}
    for record in records:
        grouped.setdefault(record.page_id, []).append(record)
    for page_id in sorted(grouped):
        if pool.contains(page_id):
            # Already buffered (e.g. a restarted replay): redo onto the
            # buffered version — the LSN guard makes this idempotent.
            view = pool.get_page(page_id)
            image = bytearray(view.image())
            pool.unpin(page_id)
            stats.pages_from_buffer += 1
        elif remote is not None and remote.has(page_id):
            if meter is None:
                raise ValueError("remote replay requires a meter")
            image = bytearray(remote.read_page(page_id, meter))
            stats.pages_from_remote += 1
        elif page_store.exists(page_id):
            image = bytearray(page_store.read_page(page_id))
            stats.pages_from_storage += 1
        else:
            image = bytearray(PAGE_SIZE)
            stats.pages_from_zero += 1
        stats.records_applied += apply_redo_to_image(image, grouped[page_id])
        pool.install_page(page_id, bytes(image), dirty=True)
        stats.pages_redone += 1
    return stats
