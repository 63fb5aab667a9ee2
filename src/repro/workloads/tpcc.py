"""TPC-C for the multi-primary sharing experiments (Table 3).

A scaled-down TPC-C with the standard five-transaction mix
(NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%,
StockLevel 4%). Warehouses are partitioned across nodes; cross-
warehouse touches (≈10% of NewOrder stock updates, 15% of Payment
customers) are the only data sharing, matching the paper's
"inherently well-partitioned, ~10% cross-warehouse" characterization.

Scaling and simplifications (documented in DESIGN.md):

* districts/customers/items/stock are scaled down so a 15-node cluster
  loads in seconds; ratios between them are preserved,
* Orders/NewOrder/OrderLine rows are **preallocated rings** updated in
  place — multi-primary page allocation (inserts that split shared
  B-trees) is a single-primary operation in this reproduction, and the
  sharing traffic of NewOrder is identical either way: one hot district
  page update plus order/order-line row writes.
"""

from __future__ import annotations

from ..db.engine import Engine
from ..db.record import Field, RecordCodec
from ..sim.rng import WorkloadRng
from .base import Op, Workload, load_tables

__all__ = ["TpccWorkload", "TPCC_MIX"]

TPCC_MIX = (
    ("new_order", 45),
    ("payment", 43),
    ("order_status", 4),
    ("delivery", 4),
    ("stock_level", 4),
)

_WAREHOUSE = RecordCodec([Field("ytd", 8), Field("pad", 80, "bytes")])
_DISTRICT = RecordCodec(
    [Field("next_o_id", 8), Field("ytd", 8), Field("pad", 80, "bytes")]
)
_CUSTOMER = RecordCodec(
    [Field("balance", 8), Field("payments", 4), Field("pad", 120, "bytes")]
)
_ITEM = RecordCodec([Field("price", 4), Field("name", 24, "bytes"), Field("pad", 26, "bytes")])
_STOCK = RecordCodec(
    [
        Field("quantity", 4),
        Field("ytd", 4),
        Field("order_cnt", 4),
        Field("pad", 52, "bytes"),
    ]
)
_ORDERS = RecordCodec(
    [
        Field("c_id", 4),
        Field("carrier", 1),
        Field("ol_cnt", 1),
        Field("status", 1),
        Field("pad", 25, "bytes"),
    ]
)
_ORDER_LINE = RecordCodec(
    [
        Field("item", 4),
        Field("supply_w", 4),
        Field("qty", 4),
        Field("amount", 4),
        Field("pad", 24, "bytes"),
    ]
)


class TpccWorkload(Workload):
    """Scaled TPC-C over warehouse-partitioned nodes."""

    name = "tpcc"

    def __init__(
        self,
        warehouses: int,
        n_nodes: int,
        customers_per_district: int = 400,
        items: int = 1000,
        order_ring: int = 150,
    ) -> None:
        if warehouses < n_nodes:
            raise ValueError("need at least one warehouse per node")
        self.warehouses = warehouses
        self.n_nodes = n_nodes
        self.dpw = 2  # districts per warehouse
        self.cpd = customers_per_district
        self.items = items
        self.ring = order_ring
        self.max_ol = 5  # order lines per order, at most

    # -- key encodings (composite keys packed into u64) -------------------------------

    def wh_key(self, w: int) -> int:
        return w + 1

    def district_key(self, w: int, d: int) -> int:
        return (w * self.dpw + d) + 1

    def customer_key(self, w: int, d: int, c: int) -> int:
        return ((w * self.dpw + d) * self.cpd + c) + 1

    def item_key(self, i: int) -> int:
        return i + 1

    def stock_key(self, w: int, i: int) -> int:
        return (w * self.items + i) + 1

    def order_key(self, w: int, d: int, slot: int) -> int:
        return ((w * self.dpw + d) * self.ring + slot) + 1

    def order_line_key(self, w: int, d: int, slot: int, line: int) -> int:
        return (((w * self.dpw + d) * self.ring + slot) * self.max_ol + line) + 1

    # -- schema / loading -----------------------------------------------------------------

    def schema(self) -> list[tuple[str, RecordCodec]]:
        return [
            ("warehouse", _WAREHOUSE),
            ("district", _DISTRICT),
            ("customer", _CUSTOMER),
            ("item", _ITEM),
            ("stock", _STOCK),
            ("orders", _ORDERS),
            ("order_line", _ORDER_LINE),
        ]

    def accessed_fraction(self, n_nodes: int) -> float:
        """A node touches its own warehouses, the (shared, small) item
        table, and the ~10–15% remote rows of cross-warehouse work."""
        return min(1.0, 1.5 / n_nodes)

    def load(self, engine: Engine) -> None:
        def warehouses():
            for w in range(self.warehouses):
                yield self.wh_key(w), {"ytd": 0, "pad": b"w" * 80}

        def districts():
            for w in range(self.warehouses):
                for d in range(self.dpw):
                    yield self.district_key(w, d), {
                        "next_o_id": 1,
                        "ytd": 0,
                        "pad": b"d" * 80,
                    }

        def customers():
            for w in range(self.warehouses):
                for d in range(self.dpw):
                    for c in range(self.cpd):
                        yield self.customer_key(w, d, c), {
                            "balance": 1000,
                            "payments": 0,
                            "pad": b"c" * 120,
                        }

        def items():
            for i in range(self.items):
                yield self.item_key(i), {
                    "price": 100 + i % 900,
                    "name": b"item" * 6,
                    "pad": b"i" * 26,
                }

        def stock():
            for w in range(self.warehouses):
                for i in range(self.items):
                    yield self.stock_key(w, i), {
                        "quantity": 50,
                        "ytd": 0,
                        "order_cnt": 0,
                        "pad": b"s" * 52,
                    }

        def orders():
            for w in range(self.warehouses):
                for d in range(self.dpw):
                    for slot in range(self.ring):
                        yield self.order_key(w, d, slot), {
                            "c_id": slot % self.cpd,
                            "carrier": 0,
                            "ol_cnt": self.max_ol,
                            "status": 1,
                            "pad": b"o" * 25,
                        }

        def order_lines():
            for w in range(self.warehouses):
                for d in range(self.dpw):
                    for slot in range(self.ring):
                        for line in range(self.max_ol):
                            yield self.order_line_key(w, d, slot, line), {
                                "item": (slot + line) % self.items,
                                "supply_w": w,
                                "qty": 5,
                                "amount": 500,
                                "pad": b"l" * 24,
                            }

        load_tables(
            engine,
            [
                ("warehouse", _WAREHOUSE, warehouses()),
                ("district", _DISTRICT, districts()),
                ("customer", _CUSTOMER, customers()),
                ("item", _ITEM, items()),
                ("stock", _STOCK, stock()),
                ("orders", _ORDERS, orders()),
                ("order_line", _ORDER_LINE, order_lines()),
            ],
        )

    # -- transactions -------------------------------------------------------------------------

    def home_warehouse(self, rng: WorkloadRng, node_index: int) -> int:
        """A warehouse owned by this node."""
        owned = [w for w in range(self.warehouses) if w % self.n_nodes == node_index]
        return rng.choice(owned)

    def _remote_warehouse(self, rng: WorkloadRng, home: int) -> int:
        if self.warehouses == 1:
            return home
        while True:
            w = rng.uniform_int(0, self.warehouses - 1)
            if w != home:
                return w

    def txn_ops(self, rng: WorkloadRng, node_index: int, _shared_pct: float) -> list[Op]:
        """One transaction from the standard mix as an Op list.

        ``shared_pct`` is ignored: TPC-C's sharing degree is intrinsic
        (cross-warehouse touches), as in the paper.
        """
        kind = rng.weighted_choice(
            [name for name, _ in TPCC_MIX], [weight for _, weight in TPCC_MIX]
        )
        return getattr(self, f"_ops_{kind}")(rng, node_index)

    def _ops_new_order(self, rng: WorkloadRng, node_index: int) -> list[Op]:
        w = self.home_warehouse(rng, node_index)
        d = rng.uniform_int(0, self.dpw - 1)
        slot = rng.uniform_int(0, self.ring - 1)
        ops = [
            Op("select", "warehouse", self.wh_key(w)),
            Op(
                "update",
                "district",
                self.district_key(w, d),
                field="next_o_id",
                value=rng.uniform_int(1, 1 << 30),
            ),
            Op(
                "update",
                "orders",
                self.order_key(w, d, slot),
                field="c_id",
                value=rng.uniform_int(0, self.cpd - 1),
            ),
        ]
        n_lines = rng.uniform_int(2, self.max_ol)
        for line in range(n_lines):
            item = rng.uniform_int(0, self.items - 1)
            supply_w = w
            if rng.random() * 100.0 < 10.0:  # a remote supply warehouse
                supply_w = self._remote_warehouse(rng, w)
            ops.append(Op("select", "item", self.item_key(item)))
            ops.append(
                Op(
                    "update",
                    "stock",
                    self.stock_key(supply_w, item),
                    field="quantity",
                    value=rng.uniform_int(10, 100),
                )
            )
            ops.append(
                Op(
                    "update",
                    "order_line",
                    self.order_line_key(w, d, slot, line),
                    field="qty",
                    value=rng.uniform_int(1, 10),
                )
            )
        return ops

    def _ops_payment(self, rng: WorkloadRng, node_index: int) -> list[Op]:
        w = self.home_warehouse(rng, node_index)
        d = rng.uniform_int(0, self.dpw - 1)
        c_w, c_d = w, d
        if rng.random() * 100.0 < 15.0:  # a remote customer
            c_w = self._remote_warehouse(rng, w)
            c_d = rng.uniform_int(0, self.dpw - 1)
        c = rng.uniform_int(0, self.cpd - 1)
        return [
            Op("update", "warehouse", self.wh_key(w), field="ytd", value=rng.uniform_int(1, 1 << 30)),
            Op("update", "district", self.district_key(w, d), field="ytd", value=rng.uniform_int(1, 1 << 30)),
            Op("select", "customer", self.customer_key(c_w, c_d, c)),
            Op(
                "update",
                "customer",
                self.customer_key(c_w, c_d, c),
                field="balance",
                value=rng.uniform_int(0, 1 << 30),
            ),
        ]

    def _ops_order_status(self, rng: WorkloadRng, node_index: int) -> list[Op]:
        w = self.home_warehouse(rng, node_index)
        d = rng.uniform_int(0, self.dpw - 1)
        c = rng.uniform_int(0, self.cpd - 1)
        slot = rng.uniform_int(0, self.ring - 1)
        return [
            Op("select", "customer", self.customer_key(w, d, c)),
            Op("select", "orders", self.order_key(w, d, slot)),
            Op(
                "range",
                "order_line",
                self.order_line_key(w, d, slot, 0),
                count=self.max_ol,
            ),
        ]

    def _ops_delivery(self, rng: WorkloadRng, node_index: int) -> list[Op]:
        w = self.home_warehouse(rng, node_index)
        ops: list[Op] = []
        for d in range(self.dpw):
            slot = rng.uniform_int(0, self.ring - 1)
            ops.append(
                Op(
                    "update",
                    "orders",
                    self.order_key(w, d, slot),
                    field="carrier",
                    value=rng.uniform_int(1, 10),
                )
            )
            ops.append(
                Op(
                    "update",
                    "customer",
                    self.customer_key(w, d, rng.uniform_int(0, self.cpd - 1)),
                    field="balance",
                    value=rng.uniform_int(0, 1 << 30),
                )
            )
        return ops

    def _ops_stock_level(self, rng: WorkloadRng, node_index: int) -> list[Op]:
        w = self.home_warehouse(rng, node_index)
        d = rng.uniform_int(0, self.dpw - 1)
        ops = [Op("select", "district", self.district_key(w, d))]
        for _ in range(5):
            ops.append(
                Op("select", "stock", self.stock_key(w, rng.uniform_int(0, self.items - 1)))
            )
        return ops
