"""Per-page sharer directory for the buffer fusion tier.

The fusion server originally pushed invalid flags to *every* node
registered on a page — broadcast-style invalidation whose cost grows
with cluster size even when only two nodes actively share the page.
``SharerDirectory`` tracks, per page, the set of nodes believed to hold
*valid* cached lines, so a write-lock release only pushes flags to the
actual sharers.

State machine (per ``(page, node)`` membership):

- **add-on-fetch** — ``request_page`` adds the fetching node.
- **drop-on-invalidate** — pushing an invalid flag to a node drops it;
  the sticky flag byte in CXL memory keeps the node safe (it will
  observe the flag and invalidate its cache lines on next access even
  though later writers no longer push to it).
- **re-add-on-reshare** — when a node observes + clears its invalid
  flag it calls the ``fusion.reshare`` RPC to rejoin the directory
  *before* re-caching lines.  The RPC rides the owning shard's sync
  clock, which is the happens-before edge that publishes every later
  writer's flushed lines to the re-reader.
- **drop-on-crash** — deregistration and node failover remove the node
  from every page's sharer set.

Invariant: the directory is always a *superset* of the nodes holding
valid (un-invalidated) cached lines for the page, so skipping
non-members on invalidation never hides a write.

>>> d = SharerDirectory()
>>> d.add(7, "node0"); d.add(7, "node1"); d.add(9, "node0")
>>> sorted(d.sharers(7))
['node0', 'node1']
>>> d.drop(7, "node1")      # invalid flag pushed to node1
True
>>> d.sharers(7)
('node0',)
>>> d.add(7, "node1")       # node1 reshares after clearing its flag
>>> d.drop_node("node0")    # node0 crashes
2
>>> d.sharers(7), d.sharers(9)
(('node1',), ())
"""

from __future__ import annotations


class SharerDirectory:
    """Tracks which nodes hold valid cached lines for each page.

    Pure bookkeeping — no simulated latency is charged here; the RPCs
    that mutate the directory (fetch, release, reshare, failover) charge
    their own costs at the fusion server.

    >>> d = SharerDirectory()
    >>> d.add(1, "a")
    >>> d.add(1, "a")            # idempotent
    >>> d.sharers(1)
    ('a',)
    >>> d.drop(1, "missing")     # dropping a non-member is a no-op
    False
    >>> d.drop_page(1)
    1
    >>> d.sharers(1)
    ()
    """

    def __init__(self) -> None:
        self._sharers: dict[int, set[str]] = {}
        self.adds = 0
        self.drops = 0

    def add(self, page_id: int, node_id: str) -> None:
        """Record ``node_id`` as holding valid lines for ``page_id``."""
        members = self._sharers.setdefault(page_id, set())
        if node_id not in members:
            members.add(node_id)
            self.adds += 1

    def drop(self, page_id: int, node_id: str) -> bool:
        """Remove one membership; returns whether it existed."""
        members = self._sharers.get(page_id)
        if members is None or node_id not in members:
            return False
        members.discard(node_id)
        if not members:
            del self._sharers[page_id]
        self.drops += 1
        return True

    def drop_page(self, page_id: int) -> int:
        """Forget every sharer of ``page_id`` (slot recycled)."""
        members = self._sharers.pop(page_id, None)
        n = len(members) if members else 0
        self.drops += n
        return n

    def drop_node(self, node_id: str) -> int:
        """Forget ``node_id`` everywhere (crash / deregistration)."""
        dropped = 0
        for page_id in sorted(self._sharers):
            if self.drop(page_id, node_id):
                dropped += 1
        return dropped

    def sharers(self, page_id: int) -> tuple[str, ...]:
        """Current sharer set as a sorted tuple (deterministic order)."""
        members = self._sharers.get(page_id)
        return tuple(sorted(members)) if members else ()

    def page_count(self) -> int:
        return len(self._sharers)

    def membership_count(self) -> int:
        """Total live (page, node) memberships — the directory's size."""
        return sum(len(members) for members in self._sharers.values())

    def stats(self) -> dict[str, float]:
        """Cumulative counters for a metrics counter source."""
        return {"adds": float(self.adds), "drops": float(self.drops)}
