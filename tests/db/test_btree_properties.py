"""Property-based B+tree checks: seeded op streams vs a dict oracle.

Complements test_btree.py's hypothesis model test with explicitly seeded
random schedules (reproducible by seed number alone), range-scan
equivalence against the oracle, and directed coverage of the exact
split/merge boundary sizes derived from the tree's leaf capacity.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.btree import DuplicateKeyError

from ..conftest import SMALL_CODEC, make_local_engine, row_for

KEY_SPACE = 400
N_SEEDS = 25
OPS_PER_SEED = 250


def _fresh_table(host, name="prop"):
    ctx = make_local_engine(host, capacity_pages=1024, name=name)
    return ctx, ctx.engine.create_table(name, SMALL_CODEC)


def _scan(ctx, table):
    return table.btree.checked_scan(ctx.engine.mtr)


class TestSeededOpStreams:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_random_insert_delete_range_matches_oracle(self, host, seed):
        rng = random.Random(seed)
        ctx, table = _fresh_table(host, name=f"s{seed}")
        oracle: dict[int, dict] = {}
        for step in range(OPS_PER_SEED):
            op = rng.random()
            key = rng.randrange(1, KEY_SPACE + 1)
            mtr = ctx.engine.mtr()
            if op < 0.5:
                if key in oracle:
                    with pytest.raises(DuplicateKeyError):
                        table.insert(mtr, key, row_for(key))
                else:
                    row = row_for(key)
                    table.insert(mtr, key, row)
                    oracle[key] = row
            elif op < 0.75:
                assert table.delete(mtr, key) == (key in oracle)
                oracle.pop(key, None)
            elif op < 0.9:
                row = table.get(mtr, key)
                if key in oracle:
                    assert row == oracle[key]
                else:
                    assert row is None
            else:
                start = rng.randrange(1, KEY_SPACE + 1)
                count = rng.randrange(1, 30)
                got = [row["id"] for row in table.range(mtr, start, count)]
                expected = sorted(k for k in oracle if k >= start)[:count]
                assert got == expected
            mtr.commit()
        contents = dict(_scan(ctx, table).records)
        assert len(contents) == len(oracle)
        assert sorted(contents) == sorted(oracle)

    def test_full_scan_equals_oracle_order(self, host):
        rng = random.Random(99)
        ctx, table = _fresh_table(host, name="scanall")
        keys = rng.sample(range(1, 10_000), 300)
        for key in keys:
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        mtr = ctx.engine.mtr()
        scanned = [row["id"] for row in table.range(mtr, 0, len(keys) + 10)]
        mtr.commit()
        assert scanned == sorted(keys)


class TestSplitMergeBoundaries:
    """Row counts pinned to the leaf capacity: the exact SMO thresholds."""

    def _capacity(self, table) -> int:
        return table.btree.capacity

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_split_exactly_at_capacity(self, host, delta):
        ctx, table = _fresh_table(host, name=f"split{delta}")
        cap = self._capacity(table)
        n = cap + delta
        for key in range(1, n + 1):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        scan = _scan(ctx, table)
        assert len(scan.records) == n
        # The first split happens on the insert *past* capacity.
        assert scan.leaves == (1 if n <= cap else 2)

    @pytest.mark.parametrize("order", ["asc", "desc", "shuffled"])
    def test_boundary_sizes_in_every_insert_order(self, host, order):
        ctx, table = _fresh_table(host, name=f"ord-{order}")
        cap = self._capacity(table)
        n = 2 * cap + 1  # forces a second-level split chain
        keys = list(range(1, n + 1))
        if order == "desc":
            keys.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(keys)
        for key in keys:
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        scan = _scan(ctx, table)
        assert scan.leaves >= 3
        assert [key for key, _ in scan.records] == list(range(1, n + 1))

    def test_delete_to_merge_threshold(self, host):
        """Deleting below a quarter-full must merge, never corrupt."""
        ctx, table = _fresh_table(host, name="merge")
        cap = self._capacity(table)
        n = 2 * cap
        for key in range(1, n + 1):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        assert _scan(ctx, table).leaves >= 2
        # Empty the right end one key at a time, crossing the cap//4
        # merge threshold; verify the tree after every single delete.
        remaining = n
        for key in range(n, cap // 4, -1):
            mtr = ctx.engine.mtr()
            assert table.delete(mtr, key)
            mtr.commit()
            remaining -= 1
            assert len(_scan(ctx, table).records) == remaining
        assert ctx.engine.meter.counters.get("leaf_merges", 0) >= 1
        assert _scan(ctx, table).leaves == 1

    def test_merge_then_regrow(self, host):
        ctx, table = _fresh_table(host, name="regrow")
        cap = self._capacity(table)
        for key in range(1, 2 * cap + 1):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        for key in range(cap // 2, 2 * cap + 1):
            mtr = ctx.engine.mtr()
            table.delete(mtr, key)
            mtr.commit()
        # Freed pages must be reusable by the regrowth inserts.
        for key in range(1000, 1000 + 2 * cap):
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        assert len(_scan(ctx, table).records) == (cap // 2 - 1) + 2 * cap


@st.composite
def range_queries(draw):
    return draw(
        st.lists(
            st.tuples(st.integers(0, KEY_SPACE + 20), st.integers(1, 40)),
            min_size=1,
            max_size=30,
        )
    )


class TestRangeScanProperties:
    @given(range_queries())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_range_scan_equals_sorted_oracle_slice(self, queries):
        from repro.hardware.host import Cluster
        from repro.sim.core import Simulator

        cluster = Cluster(Simulator())
        host = cluster.add_host("h")
        ctx, table = _fresh_table(host, name="rq")
        rng = random.Random(3)
        keys = sorted(rng.sample(range(1, KEY_SPACE + 1), 150))
        for key in keys:
            mtr = ctx.engine.mtr()
            table.insert(mtr, key, row_for(key))
            mtr.commit()
        for start, count in queries:
            mtr = ctx.engine.mtr()
            got = [row["id"] for row in table.range(mtr, start, count)]
            mtr.commit()
            assert got == [k for k in keys if k >= start][:count]
