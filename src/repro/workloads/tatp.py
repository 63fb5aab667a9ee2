"""TATP (Telecom Application Transaction Processing) for Table 3.

The standard seven-transaction mix over subscriber data, fully
partitioned by subscriber id across nodes — "no data sharing at all"
(§4.4), so any PolarCXLMem advantage here is pure memory pooling.

Call-forwarding insert/delete are modeled as activation-flag updates on
preallocated rows (the standard trick for fixed-schema TATP kits, and
consistent with this reproduction's no-shared-SMO rule).
"""

from __future__ import annotations

from ..db.engine import Engine
from ..db.record import Field, RecordCodec
from ..sim.rng import WorkloadRng
from .base import Op, Workload, load_tables

__all__ = ["TatpWorkload", "TATP_MIX"]

TATP_MIX = (
    ("get_subscriber_data", 35),
    ("get_new_destination", 10),
    ("get_access_data", 35),
    ("update_subscriber_data", 2),
    ("update_location", 14),
    ("insert_call_forwarding", 2),
    ("delete_call_forwarding", 2),
)

_AI_PER_SUB = 4
_SF_PER_SUB = 4
_CF_PER_SF = 3

_SUBSCRIBER = RecordCodec(
    [
        Field("bit1", 1),
        Field("vlr_location", 4),
        Field("sub_nbr", 15, "bytes"),
        Field("pad", 44, "bytes"),
    ]
)
_ACCESS_INFO = RecordCodec(
    [Field("data1", 1), Field("data2", 1), Field("pad", 40, "bytes")]
)
_SPECIAL_FACILITY = RecordCodec(
    [Field("is_active", 1), Field("data_a", 1), Field("pad", 40, "bytes")]
)
_CALL_FORWARDING = RecordCodec(
    [
        Field("active", 1),
        Field("start_time", 1),
        Field("end_time", 1),
        Field("numberx", 15, "bytes"),
        Field("pad", 20, "bytes"),
    ]
)


class TatpWorkload(Workload):
    """TATP partitioned by subscriber ranges across nodes."""

    name = "tatp"

    def __init__(self, subscribers_per_node: int, n_nodes: int) -> None:
        if subscribers_per_node < 10:
            raise ValueError("need at least 10 subscribers per node")
        self.subscribers_per_node = subscribers_per_node
        self.n_nodes = n_nodes
        self.population = subscribers_per_node * n_nodes

    # -- key encodings ---------------------------------------------------------------

    def sub_key(self, s: int) -> int:
        return s + 1

    def ai_key(self, s: int, ai: int) -> int:
        return (s * _AI_PER_SUB + ai) + 1

    def sf_key(self, s: int, sf: int) -> int:
        return (s * _SF_PER_SUB + sf) + 1

    def cf_key(self, s: int, sf: int, slot: int) -> int:
        return ((s * _SF_PER_SUB + sf) * _CF_PER_SF + slot) + 1

    # -- schema / loading ---------------------------------------------------------------

    def schema(self) -> list[tuple[str, RecordCodec]]:
        return [
            ("subscriber", _SUBSCRIBER),
            ("access_info", _ACCESS_INFO),
            ("special_facility", _SPECIAL_FACILITY),
            ("call_forwarding", _CALL_FORWARDING),
        ]

    def accessed_fraction(self, n_nodes: int) -> float:
        """Perfectly partitioned: one subscriber-range per node."""
        return 1.0 / n_nodes

    def load(self, engine: Engine) -> None:
        def subscribers():
            for s in range(self.population):
                yield self.sub_key(s), {
                    "bit1": s % 2,
                    "vlr_location": s,
                    "sub_nbr": f"{s:015d}".encode(),
                    "pad": b"s" * 44,
                }

        def access_info():
            for s in range(self.population):
                for ai in range(_AI_PER_SUB):
                    yield self.ai_key(s, ai), {
                        "data1": ai,
                        "data2": s % 256,
                        "pad": b"a" * 40,
                    }

        def special_facility():
            for s in range(self.population):
                for sf in range(_SF_PER_SUB):
                    yield self.sf_key(s, sf), {
                        "is_active": 1 if sf == 0 else s % 2,
                        "data_a": sf,
                        "pad": b"f" * 40,
                    }

        def call_forwarding():
            for s in range(self.population):
                for sf in range(_SF_PER_SUB):
                    for slot in range(_CF_PER_SF):
                        yield self.cf_key(s, sf, slot), {
                            "active": 1 if slot == 0 else 0,
                            "start_time": slot * 8,
                            "end_time": slot * 8 + 7,
                            "numberx": f"{s:015d}".encode(),
                            "pad": b"c" * 20,
                        }

        load_tables(
            engine,
            [
                ("subscriber", _SUBSCRIBER, subscribers()),
                ("access_info", _ACCESS_INFO, access_info()),
                ("special_facility", _SPECIAL_FACILITY, special_facility()),
                ("call_forwarding", _CALL_FORWARDING, call_forwarding()),
            ],
        )

    # -- transactions --------------------------------------------------------------------

    def _own_subscriber(self, rng: WorkloadRng, node_index: int) -> int:
        base = node_index * self.subscribers_per_node
        return base + rng.uniform_int(0, self.subscribers_per_node - 1)

    def txn_ops(self, rng: WorkloadRng, node_index: int, _shared_pct: float) -> list[Op]:
        """One TATP transaction as an Op list (``shared_pct`` ignored —
        TATP is fully partitioned)."""
        kind = rng.weighted_choice(
            [name for name, _ in TATP_MIX], [weight for _, weight in TATP_MIX]
        )
        return getattr(self, f"_ops_{kind}")(rng, node_index)

    def _ops_get_subscriber_data(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        return [Op("select", "subscriber", self.sub_key(s))]

    def _ops_get_new_destination(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        sf = rng.uniform_int(0, _SF_PER_SUB - 1)
        return [
            Op("select", "special_facility", self.sf_key(s, sf)),
            Op(
                "select",
                "call_forwarding",
                self.cf_key(s, sf, rng.uniform_int(0, _CF_PER_SF - 1)),
            ),
        ]

    def _ops_get_access_data(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        return [
            Op(
                "select",
                "access_info",
                self.ai_key(s, rng.uniform_int(0, _AI_PER_SUB - 1)),
            )
        ]

    def _ops_update_subscriber_data(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        sf = rng.uniform_int(0, _SF_PER_SUB - 1)
        return [
            Op("update", "subscriber", self.sub_key(s), field="bit1", value=rng.uniform_int(0, 1)),
            Op(
                "update",
                "special_facility",
                self.sf_key(s, sf),
                field="data_a",
                value=rng.uniform_int(0, 255),
            ),
        ]

    def _ops_update_location(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        return [
            Op(
                "update",
                "subscriber",
                self.sub_key(s),
                field="vlr_location",
                value=rng.uniform_int(0, 1 << 30),
            )
        ]

    def _ops_insert_call_forwarding(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        sf = rng.uniform_int(0, _SF_PER_SUB - 1)
        slot = rng.uniform_int(0, _CF_PER_SF - 1)
        return [
            Op("select", "subscriber", self.sub_key(s)),
            Op("select", "special_facility", self.sf_key(s, sf)),
            Op("update", "call_forwarding", self.cf_key(s, sf, slot), field="active", value=1),
        ]

    def _ops_delete_call_forwarding(self, rng, node_index) -> list[Op]:
        s = self._own_subscriber(rng, node_index)
        sf = rng.uniform_int(0, _SF_PER_SUB - 1)
        slot = rng.uniform_int(0, _CF_PER_SF - 1)
        return [
            Op("update", "call_forwarding", self.cf_key(s, sf, slot), field="active", value=0),
        ]
