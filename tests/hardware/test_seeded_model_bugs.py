"""Each case seeds one bug into a fast path of the model; the spec
differential covering that path must then fail. A blind one fails here.
"""

import pytest

from repro.hardware import cache
from repro.hardware.cache import CpuCache, LineCacheModel

from .reference_models import check_cache_equivalence, check_equivalence


def _drops_the_last_line(offset, nbytes, bounds=cache._line_bounds):
    first, last = bounds(offset, nbytes)
    return first, last - (last > first)  # a multi-line range loses its last line


def _unclipped(self, name, first, last):
    groups = range(first >> cache._GROUP_SHIFT, (last >> cache._GROUP_SHIFT) + 1)
    return [line for group in groups for line in sorted(self._resident.get((name, group), ()))]


def _evicts_the_newest(self, evict=CpuCache._evict):
    self._lines.move_to_end(next(reversed(self._lines)), last=False)
    evict(self)


def _hits_stay_put(self, region_name, first_line, last_line):
    hits = misses = 0
    for key in ((region_name, line) for line in range(first_line, last_line + 1)):
        if key in self.lines:  # no move_to_end
            hits += 1
        else:
            misses += 1
            self.lines[key] = None
            if len(self.lines) > self.capacity_lines:
                self.lines.popitem(last=False)
    self.hits, self.misses = self.hits + hits, self.misses + misses
    return hits, misses


@pytest.mark.parametrize(
    "owner, name, bug, check",
    [
        (cache, "_line_bounds", _drops_the_last_line, lambda: check_cache_equivalence(300)),
        (CpuCache, "_resident_lines", _unclipped, lambda: check_cache_equivalence(300)),
        (CpuCache, "_evict", _evicts_the_newest, lambda: check_cache_equivalence(300)),
        (LineCacheModel, "touch_range", _hits_stay_put, lambda: check_equivalence(5_000)),
    ],
    ids=["line-bounds", "resident-lines", "evict", "touch-range"],
)
def test_a_seeded_fast_path_bug_fails_the_spec_differential(monkeypatch, owner, name, bug, check):
    monkeypatch.setattr(owner, name, bug)
    with pytest.raises(AssertionError, match="diverged"):
        check()
