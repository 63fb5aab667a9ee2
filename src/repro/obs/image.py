"""World images: build a world once, clone it many times.

Every stateful component of the model owns a ``snapshot()`` /
``restore(state)`` pair over exactly the state it owns (DESIGN.md lists
who owns what). A world image is the snapshots of a set of named
components taken together; restoring it into the *same-shaped* set of
fresh components leaves them indistinguishable from the ones the image
was taken from. Snapshots hold only immutable values (``bytes``, frozen
records, tuples) or private copies, so writes to a clone never reach the
image or a sibling clone.

:data:`IMAGES` is the one per-process cache of them, small and bounded.
A build that runs while any instrument is installed
(:data:`repro.obs.probes.PROBES`) neither reads nor fills it: a traced,
span-traced, metered or fault-injected build must emit exactly what a
fresh one emits, and an image taken under an injector could hold a
half-done one. The dataset load is the one client that suspends an
instrument around this call: MemSan watches no loader region, so it
sees nothing of a load either way, and a MemSan-only build restores
the dataset image (:func:`repro.obs.world._load_dataset`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from .probes import PROBE_NAMES, PROBES

__all__ = ["IMAGES", "IMAGE_BOUND", "materialize"]

IMAGE_BOUND = 8
#: LRU of ``key -> ({part name: snapshot}, what the build returned)``;
#: process-wide (each spawn worker has its own).
IMAGES: OrderedDict[Hashable, tuple[dict[str, Any], Any]] = OrderedDict()


def materialize(key: Hashable, parts: Mapping[str, Any], build: Callable[[], Any]) -> Any:
    """Bring the fresh components ``parts`` to the state ``build()``
    leaves them in, and return what ``build()`` returns (read-only).

    The first call per ``key`` runs ``build`` and keeps the image;
    later ones restore it. ``key`` must name everything ``build``
    reads. With no parts this is a plain memo of a read-only value.
    """
    if any(getattr(PROBES, name) is not None for name in PROBE_NAMES):
        return build()
    image = IMAGES.get(key)
    if image is None:
        extra = build()
        IMAGES[key] = {name: part.snapshot() for name, part in parts.items()}, extra
        if len(IMAGES) > IMAGE_BOUND:
            IMAGES.popitem(last=False)
        return extra
    IMAGES.move_to_end(key)
    states, extra = image
    for name, part in parts.items():
        part.restore(states[name])
    return extra
