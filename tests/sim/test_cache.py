"""Buffer cache unit tests: hits, misses, read-ahead, write-behind, frames."""

import pytest

from repro.sim.cache import BlockState, BufferCache
from repro.sim.cache_legacy import BufferCache as LegacyBufferCache
from repro.sim.config import CacheConfig, DiskConfig, ssd_cache
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.metrics import Metrics
from repro.sim.recovery import RecoveringDevice
from repro.util.units import KB, MB

IMPLS = {"fast": BufferCache, "legacy": LegacyBufferCache}


class Harness:
    """A cache wired to an engine and a rotation-free disk.

    ``impl`` picks the extent-map cache or the per-block reference;
    ``faults`` is an inline fault-plan spec for the device.
    """

    def __init__(self, impl="fast", faults=None, **cache_kw):
        file_sizes = cache_kw.pop("file_sizes", {1: 64 * MB, 2: 64 * MB})
        self.engine = Engine()
        self.metrics = Metrics()
        self.disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
        device = None
        if faults is not None:
            plan = FaultPlan.from_spec(faults)
            device = RecoveringDevice(
                self.disk,
                self.engine,
                FaultInjector(plan.faults),
                plan.recovery,
                self.metrics,
            )
        if cache_kw.pop("ssd", False):
            config = ssd_cache(cache_kw.pop("size_bytes", 1 * MB), **cache_kw)
        else:
            cache_kw.setdefault("size_bytes", 1 * MB)
            cache_kw.setdefault("block_bytes", 4 * KB)
            config = CacheConfig(**cache_kw)
        self.cache = IMPLS[impl](
            config,
            self.engine,
            self.disk,
            self.metrics,
            file_sizes=file_sizes,
            device=device,
        )
        self.completions: list[float] = []

    def read(self, offset, length, fid=1, owner=1):
        self.cache.read(fid, offset, length, owner, self._done)

    def write(self, offset, length, fid=1, owner=1):
        self.cache.write(fid, offset, length, owner, self._done)

    def _done(self, penalty=0.0):
        self.completions.append(self.engine.now + penalty)

    def run(self):
        self.engine.run(max_events=100_000)


class TestReadPath:
    def test_cold_miss_then_hit(self):
        h = Harness(read_ahead=False)
        h.read(0, 16 * KB)
        h.run()
        assert len(h.completions) == 1
        assert h.completions[0] > 0  # waited for the disk
        assert h.metrics.cache.block_misses == 4
        h.read(0, 16 * KB)  # now resident
        assert len(h.completions) == 2  # completed inline
        assert h.metrics.cache.block_hits == 4

    def test_partial_hit_issues_only_missing_run(self):
        h = Harness(read_ahead=False)
        h.read(0, 8 * KB)
        h.run()
        before = h.disk.requests
        h.read(0, 16 * KB)  # blocks 0-1 resident, 2-3 missing
        h.run()
        assert h.disk.requests == before + 1
        assert h.metrics.cache.block_misses == 2 + 2

    def test_inflight_coalescing(self):
        # Two concurrent reads of the same blocks: one disk request.
        h = Harness(read_ahead=False)
        h.read(0, 16 * KB)
        h.read(0, 16 * KB)
        h.run()
        assert h.disk.requests == 1
        assert len(h.completions) == 2
        assert h.metrics.cache.block_inflight_hits == 4

    def test_rejects_nonpositive(self):
        h = Harness()
        with pytest.raises(Exception):
            h.read(0, 0)


class TestWritePath:
    def test_write_behind_completes_inline(self):
        h = Harness(write_behind=True)
        h.write(0, 64 * KB)
        # absorbed before any event ran
        assert len(h.completions) == 1
        assert h.metrics.cache.writes_absorbed == 1
        assert h.cache.outstanding_flushes == 1
        h.run()
        assert h.cache.outstanding_flushes == 0

    def test_write_through_waits_for_disk(self):
        h = Harness(write_behind=False)
        h.write(0, 64 * KB)
        assert len(h.completions) == 0
        h.run()
        assert len(h.completions) == 1
        assert h.completions[0] > 0

    def test_written_blocks_readable_after_flush(self):
        h = Harness(write_behind=True, read_ahead=False)
        h.write(0, 16 * KB)
        h.run()
        misses_before = h.metrics.cache.block_misses
        h.read(0, 16 * KB)
        assert h.metrics.cache.block_misses == misses_before
        assert len(h.completions) == 2


class TestReadAhead:
    def test_sequential_pattern_triggers_prefetch(self):
        h = Harness(read_ahead=True, size_bytes=8 * MB)
        h.read(0, 64 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0  # first read: no pattern
        h.read(64 * KB, 64 * KB)  # sequential: prefetcher wakes
        h.run()
        assert h.metrics.cache.prefetch_issued > 0
        # The next sequential read is already resident.
        before = h.metrics.cache.readahead_hits
        h.read(128 * KB, 64 * KB)
        assert h.metrics.cache.readahead_hits > before

    def test_random_pattern_no_prefetch(self):
        h = Harness(read_ahead=True)
        h.read(0, 16 * KB)
        h.run()
        h.read(10 * MB, 16 * KB)
        h.run()
        h.read(3 * MB, 16 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_prefetch_stops_at_eof(self):
        h = Harness(read_ahead=True, file_sizes={1: 128 * KB})
        h.read(0, 64 * KB)
        h.run()
        h.read(64 * KB, 64 * KB)  # sequential, but file ends here
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_disabled(self):
        h = Harness(read_ahead=False)
        h.read(0, 64 * KB)
        h.run()
        h.read(64 * KB, 64 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_auto_depth_grows_with_cache(self):
        small = CacheConfig(size_bytes=1 * MB)
        large = CacheConfig(size_bytes=64 * MB)
        assert small.auto_depth(456 * KB) == 1
        assert large.auto_depth(456 * KB) > small.auto_depth(456 * KB)
        fixed = CacheConfig(read_ahead_depth=3)
        assert fixed.auto_depth(456 * KB) == 3


class TestFrames:
    def test_lru_eviction(self):
        # Cache of 16 blocks (64 KB): read 32 KB, then another 48 KB; the
        # oldest blocks must be evicted.
        h = Harness(size_bytes=64 * KB, read_ahead=False)
        h.read(0, 32 * KB)
        h.run()
        h.read(32 * KB, 48 * KB)
        h.run()
        assert h.cache.resident_blocks <= 16
        # Re-reading block 0 misses again (evicted).
        misses = h.metrics.cache.block_misses
        h.read(0, 4 * KB)
        h.run()
        assert h.metrics.cache.block_misses == misses + 1

    def test_frame_stall_when_all_dirty(self):
        # Tiny cache, write-behind: a burst of writes can exceed the
        # frames; later writes park until flushes land.
        h = Harness(size_bytes=32 * KB, write_behind=True, read_ahead=False)
        for i in range(4):
            h.write(i * 32 * KB, 32 * KB)
        assert h.metrics.cache.frame_stalls > 0
        h.run()
        assert len(h.completions) == 4  # everyone completed eventually

    def test_ownership_cap(self):
        h = Harness(
            size_bytes=1 * MB, read_ahead=False, max_blocks_per_process=8
        )
        h.read(0, 32 * KB, owner=1)  # 8 blocks: at cap
        h.run()
        h.read(64 * KB, 32 * KB, owner=1)  # must recycle its own
        h.run()
        assert h.cache.owner_blocks(1) <= 8
        # another process is unaffected
        h.read(0, 32 * KB, fid=2, owner=2)
        h.run()
        assert h.cache.owner_blocks(2) == 8

    def test_hit_and_miss_counts_balance(self):
        h = Harness(read_ahead=False)
        h.read(0, 40 * KB)
        h.run()
        h.read(20 * KB, 40 * KB)
        h.run()
        stats = h.metrics.cache
        # 40 KB spans 10 blocks; the second read overlaps 5 of them.
        assert stats.block_requests == 20
        assert stats.block_hits == 5
        assert stats.block_misses == 15
        assert stats.block_hits + stats.block_misses + stats.block_inflight_hits == (
            stats.block_requests
        )


class TestSSDPenalties:
    def test_hit_penalty_returned(self):
        h = Harness(ssd=True, size_bytes=4 * MB)
        h.read(0, 64 * KB)
        h.run()
        h.completions.clear()
        h.read(0, 64 * KB)  # resident: inline, with penalty
        assert len(h.completions) == 1
        penalty = h.completions[0] - h.engine.now
        assert penalty == pytest.approx(50e-6 + 64 * 1e-6)

    def test_mem_cache_penalty_zero(self):
        config = CacheConfig()
        assert config.hit_penalty_s(456 * KB) == 0.0
        ssd = ssd_cache(256 * MB)
        assert ssd.hit_penalty_s(456 * KB) == pytest.approx(50e-6 + 456e-6)


B = 4 * KB


def lru_blocks(cache) -> list[tuple[int, int]]:
    """Clean blocks as ``(file, block)`` in LRU order, eviction first."""
    if isinstance(cache, LegacyBufferCache):
        return list(cache._clean_lru)
    out = []
    e = cache._lru_head
    while e is not None:
        out.extend((e.fid, b) for b in range(e.start, e.end))
        e = e.next
    return out


def lru_extents(cache) -> list[tuple[int, int, int]]:
    """The extent-map cache's LRU nodes as ``(file, start, end)``."""
    out = []
    e = cache._lru_head
    while e is not None:
        out.append((e.fid, e.start, e.end))
        e = e.next
    return out


def blocks(fid, *ranges) -> list[tuple[int, int]]:
    return [(fid, b) for lo, hi in ranges for b in range(lo, hi)]


@pytest.mark.parametrize("impl", sorted(IMPLS))
class TestExtentEdges:
    """Edge cases of the extent map, checked on both implementations:
    the per-block reference defines the expected LRU order."""

    def test_touch_in_middle_of_lru_range(self, impl):
        h = Harness(impl, size_bytes=16 * B, read_ahead=False)
        h.read(0, 16 * B)
        h.run()
        h.read(6 * B, 4 * B)  # resident: a hit in the middle of one node
        assert lru_blocks(h.cache) == blocks(1, (0, 6), (10, 16), (6, 10))
        if impl == "fast":
            assert lru_extents(h.cache) == [(1, 0, 6), (1, 10, 16), (1, 6, 10)]
        h.read(0, 8 * B, fid=2)  # evicts the 8 least recent blocks
        h.run()
        assert lru_blocks(h.cache) == (
            blocks(1, (12, 16), (6, 10)) + blocks(2, (0, 8))
        )

    def test_eviction_splits_head_range(self, impl):
        h = Harness(impl, size_bytes=16 * B, read_ahead=False)
        h.read(0, 12 * B)
        h.run()
        h.read(0, 8 * B, fid=2)  # 4 free frames: evict 4 of the head's 12
        h.run()
        assert h.cache.resident_blocks == 16
        assert lru_blocks(h.cache) == blocks(1, (4, 12)) + blocks(2, (0, 8))
        if impl == "fast":
            assert lru_extents(h.cache) == [(1, 4, 12), (2, 0, 8)]

    def test_write_on_inflight_read_is_not_settled_by_it(self, impl):
        # Blocks 2-3 are overwritten (dirty, delayed flush) while the read
        # covering them is in flight: its completion settles 0-1 and 4-7
        # only, and still releases a reader waiting on the whole span.
        h = Harness(impl, size_bytes=16 * B, read_ahead=False, flush_delay_s=0.5)
        seen = []

        def first_done(penalty=0.0):
            seen.append((h.cache.dirty_bytes(), lru_blocks(h.cache)))

        h.cache.read(1, 0, 8 * B, 1, first_done)
        h.read(0, 8 * B)  # waits on the in-flight blocks
        h.write(2 * B, 2 * B)
        h.run()
        assert seen == [(2 * B, blocks(1, (0, 2), (4, 8)))]
        assert len(h.completions) == 2  # the absorbed write and the waiter
        assert h.metrics.cache.block_inflight_hits == 8
        # The delayed flush landed: 2-3 are clean, most recent.
        assert h.cache.dirty_bytes() == 0
        assert lru_blocks(h.cache) == blocks(1, (0, 2), (4, 8), (2, 4))

    def test_failed_read_abandons_its_frames(self, impl):
        h = Harness(impl, faults="error=1.0,max_retries=0", read_ahead=False)
        h.read(0, 8 * B)
        h.run()
        assert len(h.completions) == 1  # reported failed, not lost
        assert h.metrics.faults.failed_reads == 1
        assert h.cache.resident_blocks == 0
        assert h.cache.owner_blocks(1) == 0
        h.read(0, 8 * B)  # nothing was cached: all misses again
        h.run()
        assert h.metrics.cache.block_misses == 16

    def test_reflush_over_sparse_extent(self, impl):
        # Every device write fails.  The short write of blocks 3-4 fails
        # first and re-queues them on its own, so the long write's
        # re-flush covers the sparse set 0-2 + 5-7: two disk writes.
        h = Harness(
            impl,
            faults="error=1.0,max_retries=0,max_reflushes=1,reflush_delay=0.5",
            read_ahead=False,
        )
        writes = []
        submit = h.cache.device.submit

        def record(fid, offset, length, *, is_write, on_done):
            if is_write:
                writes.append((offset // B, length // B))
            submit(fid, offset, length, is_write=is_write, on_done=on_done)

        h.cache.device.submit = record
        h.write(0, 8 * B)
        h.write(3 * B, 2 * B)
        h.run()
        assert writes == [(0, 8), (3, 2), (3, 2), (0, 3), (5, 3)]
        # Re-flushes exhausted: everything dirty was dropped as lost.
        assert h.metrics.faults.lost_bytes == 8 * B
        assert h.cache.resident_blocks == 0
        assert h.cache.outstanding_flushes == 0

    def test_write_does_not_settle_block_reallocated_under_it(self, impl):
        # The write's allocation evicts its own present block 0; a read
        # re-allocates block 0 while the write is in flight.  The write
        # finishes first and must settle only block 1: block 0 belongs
        # to the read now and is still in flight.
        h = Harness(impl, size_bytes=4 * B, read_ahead=False, write_behind=False)
        h.read(0, B)
        h.run()
        h.read(0, 3 * B, fid=2)
        h.run()
        seen = []
        h.cache.write(1, 0, 2 * B, 1, lambda p=0.0: seen.append(lru_blocks(h.cache)))
        h.engine.run(until=h.engine.now + 2e-3)
        h.read(0, B)
        h.run()
        assert seen == [blocks(2, (1, 3)) + [(1, 1)]]
        assert lru_blocks(h.cache) == blocks(2, (1, 3)) + [(1, 1), (1, 0)]
