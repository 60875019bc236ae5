"""The buffer cache: read-ahead, write-behind, LRU frames, SSD penalties.

This is the object under study in section 6.  It sits between the
trace-replay processes and the disk model:

* demand **reads** are satisfied from resident blocks (free for a
  main-memory cache, per-KB penalty for the SSD), from blocks already in
  flight (a previous miss or a prefetch), or by issuing disk reads for
  the missing block runs;
* **read-ahead** watches each file for the sequential same-size pattern
  ("an I/O request was not only sequential with the previous I/O, but
  was also the same size.  Thus, prefetching the amount of data just
  read allowed the application to continue without waiting, but did not
  fill the cache with data that would be unused for some time") and keeps
  up to ``depth`` requests of look-ahead in flight, where the default
  depth grows with available buffer space;
* **write-behind** lets the writer continue as soon as the data is in
  cache frames ("it was easy to allow a process to continue executing
  while written data had not yet gone to disk"); a flusher pushes dirty
  extents to disk immediately but asynchronously.  With write-behind off,
  writes block until the disk write completes;
* frames are recycled LRU among clean resident blocks; requests that
  cannot get frames (everything dirty or in flight) park until a frame
  frees -- the contention behind section 6.2's buffer-hogging
  observation.  An optional per-process ownership cap reproduces the
  failed mitigation ("a limit on the number of buffers a process could
  own did not relieve the problem, and actually worsened CPU
  utilization").

Hot-path structure: per-file extent maps
----------------------------------------
Requests are decomposed into 4-8 KB blocks, so a venus-sized request
spans ~85 frames -- but almost always frames in one state that were
allocated together.  Each file's resident frames are therefore a sorted
list of :class:`_Extent` objects: half-open block ranges ``[start,
end)`` sharing one state (reading / valid / dirty / flushing), owner,
prefetched bit and **allocation token**.  Absent blocks are the gaps
between extents.  A request finds its extents with one ``bisect`` and
splits an extent only where the request's edges cut through it, so
classifying, allocating, settling and flushing cost O(extents), not
O(blocks).

An allocation token names one allocation (one demand-miss run, one
prefetch run, the new frames of one write).  A block's token changes
only when the block is dropped or re-allocated, so a disk completion
acts on exactly the blocks that still carry the token it was issued
with -- the per-object identity checks of the reference implementation
(:mod:`repro.sim.cache_legacy`).  A run handle is a list of ascending
``(lo, hi, token)`` segments, and the demand reads waiting on an
in-flight read are keyed by its token.

Valid extents double as the nodes of the clean-LRU, a doubly-linked list
in per-block LRU order.  Runs enter in ascending block order; a touch
moves whole extents to the MRU end; a split leaves both pieces adjacent
at the old node's position, so extracting a range from the middle of a
node keeps every other block where it was.  Eviction takes blocks off
the LRU head, shortening at most one extent per allocation.  Eviction
victims -- hence the disk request sequence and the seeded
rotational-delay RNG stream -- are bit-identical to the reference
implementation (asserted by ``tests/sim/test_hotpath_differential.py``
and the golden digest table).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable

from repro.obs.registry import get_registry
from repro.sim.config import CacheConfig, FaultConfig, RecoveryConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Metrics
from repro.sim.recovery import RecoveringDevice
from repro.util.errors import SimulationError


class BlockState(Enum):
    """Block lifecycle states (exported for API compatibility; extents
    store them as small ints)."""

    READING = 1  #: disk read in flight; frame pinned
    VALID = 2  #: clean resident; evictable
    DIRTY = 3  #: written, awaiting flush start
    FLUSHING = 4  #: disk write in flight; frame pinned


_READING = BlockState.READING.value
_VALID = BlockState.VALID.value
_DIRTY = BlockState.DIRTY.value
_FLUSHING = BlockState.FLUSHING.value

#: A run handle: ascending ``(lo, hi, token)`` segments.  A block belongs
#: to the run while the extent holding it still carries the token.
Segments = list[tuple[int, int, int]]


class _Extent:
    """Resident blocks ``[start, end)`` of one file sharing every
    attribute.  Valid extents are also clean-LRU nodes."""

    __slots__ = (
        "fid", "start", "end", "state", "owner", "pf", "token", "prev", "next"
    )

    def __init__(self, fid, start, end, state, owner, pf, token):
        self.fid = fid
        self.start = start
        self.end = end
        self.state = state
        self.owner = owner
        self.pf = pf
        self.token = token
        self.prev: _Extent | None = None
        self.next: _Extent | None = None


class _FileMap:
    """One file's extents sorted by ``start``; ``starts`` mirrors them
    for ``bisect``."""

    __slots__ = ("starts", "exts")

    def __init__(self):
        self.starts: list[int] = []
        self.exts: list[_Extent] = []


class _DelayedFlush:
    """A dirty extent waiting out its Sprite-style delay."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False


@dataclass(slots=True)
class _StreamState:
    """Per-file sequential-pattern tracking for the prefetcher."""

    next_offset: int  # end of the last demand read
    length: int  # last demand request size
    prefetch_until: int = 0  # exclusive end of issued prefetch


class BufferCache:
    """Block cache over one disk model."""

    def __init__(
        self,
        config: CacheConfig,
        engine: Engine,
        disk: DiskModel,
        metrics: Metrics,
        *,
        file_sizes: dict[int, int] | None = None,
        device: RecoveringDevice | None = None,
        obs=None,
    ):
        self.config = config
        self.engine = engine
        self.disk = disk
        self.metrics = metrics
        if device is None:
            # No fault plan: a passthrough device, bit-identical to the
            # old inline disk calls.
            device = RecoveringDevice(
                disk,
                engine,
                FaultInjector(FaultConfig()),
                RecoveryConfig(),
                metrics,
                obs=obs,
            )
        self.device = device
        self.recovery = device.config
        #: SSD failed: bypass the cache, fall through to the disk
        self.degraded = False
        reg = obs if obs is not None else get_registry()
        #: write-behind queue peak, tracked only for an enabled registry
        self._g_wb_queue = (
            reg.gauge("sim.cache.writebehind_queue_depth") if reg.enabled else None
        )
        #: blocks evicted; SimulatedSystem publishes it after the run
        self.evictions = 0
        # Hot-path locals: resolved once so the per-request code performs
        # zero registry lookups and no repeated attribute chains.
        self._stats = metrics.cache
        self._record_demand = metrics.record_demand
        self._bs = config.block_bytes
        self._n_blocks = config.n_blocks
        self._cap = config.max_blocks_per_process
        #: main-memory cache: every hit penalty is zero
        self._free_hits = config.hit_setup_s == 0.0 and config.hit_per_kb_s == 0.0
        self._files: dict[int, _FileMap] = {}
        self._resident = 0
        self._next_token = 0
        self._lru_head: _Extent | None = None
        self._lru_tail: _Extent | None = None
        self._clean_count = 0
        #: token of an in-flight read -> (last block waited on, pending
        #: read, blocks waited on) per demand read waiting, in arrival order
        self._waiters: dict[int, list[tuple[int, _PendingRead, int]]] = {}
        self._frame_waiters: deque[Callable[[], bool]] = deque()
        self._owner_counts: dict[int, int] = {}
        self._streams: dict[int, _StreamState] = {}
        #: known file sizes, bounding prefetch past end-of-file
        self._file_sizes = dict(file_sizes or {})
        self.outstanding_flushes = 0
        self._delayed_flushes: dict[int, list[_DelayedFlush]] = {}
        self.on_drained: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def read(
        self,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ) -> None:
        """Demand read.

        ``on_complete(cpu_penalty_s)`` fires (synchronously for resident
        data) once all bytes are available; its argument is the SSD
        copy-through cost the caller must charge as CPU time.
        """
        if length <= 0:
            raise SimulationError("read length must be positive")
        stats = self._stats
        stats.read_requests += 1
        stats.read_bytes += length
        self._record_demand(self.engine.now, length)
        if offset + length > self._file_sizes.get(file_id, 0):
            self._file_sizes[file_id] = offset + length

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_read(file_id, offset, length, on_complete)
            return
        if self._oversized(offset, length):
            self._bypass_read(file_id, offset, length, on_complete)
            return
        pending = _PendingRead(self, file_id, offset, length, owner, on_complete)
        if not pending.start():
            self.park_for_frames(pending.start)
        if self.config.read_ahead:
            self._after_demand_read(file_id, offset, length, owner)

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ) -> None:
        """Demand write; completion timing depends on the write policy."""
        if length <= 0:
            raise SimulationError("write length must be positive")
        stats = self._stats
        stats.write_requests += 1
        stats.write_bytes += length
        self._record_demand(self.engine.now, length)
        if offset + length > self._file_sizes.get(file_id, 0):
            self._file_sizes[file_id] = offset + length

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_write(file_id, offset, length, on_complete)
            return
        if self._oversized(offset, length):
            self._bypass_write(file_id, offset, length, on_complete)
            return
        pending = _PendingWrite(self, file_id, offset, length, owner, on_complete)
        if not pending.start():
            self.park_for_frames(pending.start)

    # ------------------------------------------------------------------
    # Oversized-request bypass
    # ------------------------------------------------------------------
    def _oversized(self, offset: int, length: int) -> bool:
        """True when the request can never be framed: bigger than the
        cache itself, or bigger than the owner's buffer cap.  Such
        requests go straight to the disk (the classic bypass), otherwise
        they would park forever.
        """
        bs = self._bs
        needed = (offset + length - 1) // bs - offset // bs + 1
        if needed > self._n_blocks:
            return True
        cap = self._cap
        return cap is not None and needed > cap

    def _bypass_read(
        self, file_id: int, offset: int, length: int, on_complete
    ) -> None:
        self._stats.bypass_requests += 1
        # Degraded requests never touched the (failed) SSD, so no
        # copy-through penalty.
        penalty = 0.0 if self.degraded else self.config.hit_penalty_s(length)
        # A failed read still unblocks the requester: the I/O is
        # *reported* failed (device counters) rather than lost.
        self.device.submit(
            file_id,
            offset,
            length,
            is_write=False,
            on_done=lambda ok: on_complete(penalty),
        )

    def _bypass_write(
        self, file_id: int, offset: int, length: int, on_complete
    ) -> None:
        self._stats.bypass_requests += 1
        penalty = 0.0 if self.degraded else self.config.hit_penalty_s(length)
        if self.config.write_behind:
            # The device streams straight from the writer's memory; the
            # writer continues once the transfer is handed off.
            self.outstanding_flushes += 1
            if self._g_wb_queue is not None:
                self._g_wb_queue.set_max(self.outstanding_flushes)

            def finished(ok: bool) -> None:
                if not ok:
                    # No cache frames to re-flush from: the data is gone.
                    self.metrics.faults.lost_bytes += length
                self.outstanding_flushes -= 1
                if self.outstanding_flushes == 0 and self.on_drained is not None:
                    self.on_drained()

            self.device.submit(
                file_id, offset, length, is_write=True, on_done=finished
            )
            on_complete(penalty)
        else:
            self.device.submit(
                file_id,
                offset,
                length,
                is_write=True,
                on_done=lambda ok: on_complete(penalty),
            )

    # ------------------------------------------------------------------
    # Extent maps
    # ------------------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        return self._resident

    def owner_blocks(self, owner: int) -> int:
        return self._owner_counts.get(owner, 0)

    def _file(self, file_id: int) -> _FileMap:
        fm = self._files.get(file_id)
        if fm is None:
            fm = self._files[file_id] = _FileMap()
        return fm

    def _split(self, fm: _FileMap, k: int, at: int) -> None:
        """Split ``fm.exts[k]`` at block ``at``.  The right piece goes to
        index ``k + 1`` and, for a valid extent, right after it in the
        LRU, so per-block LRU order is unchanged."""
        e = fm.exts[k]
        right = _Extent(e.fid, at, e.end, e.state, e.owner, e.pf, e.token)
        e.end = at
        fm.starts.insert(k + 1, at)
        fm.exts.insert(k + 1, right)
        if e.state == _VALID:
            nxt = e.next
            right.prev = e
            right.next = nxt
            e.next = right
            if nxt is None:
                self._lru_tail = right
            else:
                nxt.prev = right

    def _cut(self, fm: _FileMap, at: int) -> int:
        """Make ``at`` an extent boundary; returns the index of the first
        extent starting at or after ``at``."""
        i = bisect_left(fm.starts, at)
        if i and fm.exts[i - 1].end > at:
            self._split(fm, i - 1, at)
        return i

    def _members(self, fm: _FileMap, run: Segments) -> list[_Extent]:
        """Extents still holding blocks of ``run``, ascending.

        Extents never grow, so every extent carrying a segment's token
        inside the segment lies wholly within it.
        """
        starts = fm.starts
        exts = fm.exts
        n = len(exts)
        out = []
        for lo, hi, token in run:
            i = bisect_left(starts, lo)
            while i < n:
                e = exts[i]
                if e.start >= hi:
                    break
                if e.token == token:
                    out.append(e)
                i += 1
        return out

    def _drop(self, fm: _FileMap, e: _Extent) -> None:
        """Free an extent's frames.  The clean-LRU is NOT touched: callers
        either unlinked it already or are dropping pinned frames."""
        i = bisect_left(fm.starts, e.start)
        del fm.starts[i]
        del fm.exts[i]
        n = e.end - e.start
        self._owner_counts[e.owner] -= n
        self._resident -= n

    def _drop_unpinned(self, fm: _FileMap) -> int:
        """Drop every valid or dirty extent of ``fm``; frames with a disk
        transfer in flight stay.  Returns the number of dirty blocks
        dropped."""
        keep = []
        freed = dirty = 0
        counts = self._owner_counts
        for e in fm.exts:
            state = e.state
            if state == _VALID or state == _DIRTY:
                n = e.end - e.start
                if state == _VALID:
                    self._lru_unlink(e)
                    self._clean_count -= n
                else:
                    dirty += n
                counts[e.owner] -= n
                freed += n
            else:
                keep.append(e)
        fm.exts[:] = keep
        fm.starts[:] = [e.start for e in keep]
        self._resident -= freed
        return dirty

    # ------------------------------------------------------------------
    # Clean-LRU over valid extents
    # ------------------------------------------------------------------
    def _lru_append(self, e: _Extent) -> None:
        """Link ``e`` at the MRU (tail) end."""
        tail = self._lru_tail
        e.prev = tail
        e.next = None
        if tail is None:
            self._lru_head = e
        else:
            tail.next = e
        self._lru_tail = e

    def _lru_unlink(self, e: _Extent) -> None:
        prev, nxt = e.prev, e.next
        if prev is None:
            self._lru_head = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self._lru_tail = prev
        else:
            nxt.prev = prev
        e.prev = e.next = None

    def _make_valid(self, exts: list[_Extent]) -> None:
        """Settle extents clean-resident at the MRU end, in order."""
        for e in exts:
            e.state = _VALID
            self._lru_append(e)
            self._clean_count += e.end - e.start

    def _pin(self, exts: list[_Extent], state: int) -> None:
        """Move extents out of the clean pool into ``state``."""
        for e in exts:
            if e.state == _VALID:
                self._lru_unlink(e)
                self._clean_count -= e.end - e.start
            e.state = state

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def _evict(self, e: _Extent, take: int) -> None:
        """Drop the first ``take`` blocks of the valid extent ``e``."""
        fm = self._files[e.fid]
        if take == e.end - e.start:
            self._lru_unlink(e)
            self._drop(fm, e)
        else:
            i = bisect_left(fm.starts, e.start)
            e.start += take
            fm.starts[i] = e.start
            self._owner_counts[e.owner] -= take
            self._resident -= take
        self._clean_count -= take

    def _allocate(
        self,
        fid: int,
        ranges: list[tuple[int, int]],
        needed: int,
        owner: int,
        state: int,
        prefetched: bool = False,
    ) -> int | None:
        """Install absent block ``ranges`` (``needed`` blocks in all) under
        one new token, evicting clean LRU as needed; returns the token.

        All-or-nothing: returns None (no side effects) when not enough
        frames can be freed.  With an ownership cap, an over-cap process
        may only recycle its *own* clean frames.
        """
        counts = self._owner_counts
        cap = self._cap
        if cap is not None and counts.get(owner, 0) + needed > cap:
            must_recycle = needed - max(0, cap - counts.get(owner, 0))
            # This owner's clean blocks in per-block LRU order.
            victims: list[tuple[_Extent, int]] = []
            found = 0
            e = self._lru_head
            while e is not None and found < must_recycle:
                if e.owner == owner:
                    take = min(e.end - e.start, must_recycle - found)
                    victims.append((e, take))
                    found += take
                e = e.next
            if found < must_recycle:
                return None
            self.evictions += found
            for e, take in victims:
                self._evict(e, take)
        else:
            must_evict = needed - (self._n_blocks - self._resident)
            if must_evict > 0:
                if must_evict > self._clean_count:
                    return None
                self.evictions += must_evict
                while must_evict:
                    e = self._lru_head
                    take = min(e.end - e.start, must_evict)
                    self._evict(e, take)
                    must_evict -= take
        token = self._next_token
        self._next_token = token + 1
        fm = self._file(fid)
        starts = fm.starts
        exts = fm.exts
        for lo, hi in ranges:
            i = bisect_left(starts, lo)
            starts.insert(i, lo)
            exts.insert(i, _Extent(fid, lo, hi, state, owner, prefetched, token))
        counts[owner] = counts.get(owner, 0) + needed
        self._resident += needed
        return token

    def park_for_frames(self, retry: Callable[[], bool]) -> None:
        """Queue a retry closure to run when frames may be available."""
        self._stats.frame_stalls += 1
        self._frame_waiters.append(retry)

    def _kick_frame_waiters(self) -> None:
        n = len(self._frame_waiters)
        for _ in range(n):
            retry = self._frame_waiters.popleft()
            if not retry():
                self._frame_waiters.append(retry)

    # ------------------------------------------------------------------
    # Disk interaction
    # ------------------------------------------------------------------
    def issue_disk_read(
        self,
        file_id: int,
        offset: int,
        length: int,
        run: Segments,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        """One disk read covering the single-token ``run``; its blocks
        settle VALID on arrival.

        When the device reports failure (retries exhausted), the reading
        frames are abandoned -- dropped from the cache so a later demand
        read retries from disk -- and any waiters are released anyway:
        the requester's I/O is reported failed, not lost.
        """

        def arrive(ok: bool) -> None:
            # A write may have overwritten blocks while the read was in
            # flight (now flushing); only still-reading blocks of this
            # allocation settle to VALID (or, on failure, get abandoned).
            fm = self._files[file_id]
            live = [e for e in self._members(fm, run) if e.state == _READING]
            if ok:
                self._make_valid(live)
            else:
                for e in live:
                    self._drop(fm, e)
            waiting = self._waiters.pop(run[0][2], None)
            if waiting is not None:
                # Release waiters by the last block each waits on (ties
                # in arrival order): the order a walk over the run's
                # blocks completes them in.
                if len(waiting) > 1:
                    waiting.sort(key=itemgetter(0))
                for _, pending, n in waiting:
                    pending.arrived(n)
            if on_done is not None:
                on_done()
            if self._frame_waiters:
                self._kick_frame_waiters()

        self.device.submit(file_id, offset, length, is_write=False, on_done=arrive)

    def issue_disk_write(
        self,
        file_id: int,
        offset: int,
        length: int,
        run: Segments,
        on_done: Callable[[], None] | None = None,
        *,
        reflush: int = 0,
    ) -> None:
        """One disk write covering ``run``; its blocks become clean on
        finish.

        When the device reports failure, blocks still dirty-in-flight are
        re-queued (back to dirty, re-flushed after ``reflush_delay_s``) up
        to ``max_reflushes`` times; past that the data is dropped and
        counted as lost.  The ``outstanding_flushes`` latch is held across
        the whole retry saga so the drain callback cannot fire while a
        re-flush is pending.
        """
        self._pin(self._members(self._files[file_id], run), _FLUSHING)
        self.outstanding_flushes += 1
        if self._g_wb_queue is not None:
            self._g_wb_queue.set_max(self.outstanding_flushes)

        def finished(ok: bool) -> None:
            fm = self._files[file_id]
            live = [e for e in self._members(fm, run) if e.state == _FLUSHING]
            if not ok:
                if live and reflush < self.recovery.max_reflushes:
                    self.metrics.faults.reflushes += 1
                    for e in live:
                        e.state = _DIRTY
                    requeued = [(e.start, e.end, e.token) for e in live]

                    def redo() -> None:
                        self.outstanding_flushes -= 1
                        fm = self._files[file_id]
                        still = [
                            e
                            for e in self._members(fm, requeued)
                            if e.state == _DIRTY
                        ]
                        self._issue_flush_runs(
                            file_id, still, on_done, reflush=reflush + 1
                        )

                    # Latch stays held until redo() runs (decrement and
                    # re-issue are back to back, so drain cannot slip in).
                    self.engine.schedule(self.recovery.reflush_delay_s, redo)
                    return
                # Retries and re-flushes exhausted: write-behind data is
                # dropped -- this is the data-at-risk turning into data
                # lost.
                for e in live:
                    self.metrics.faults.lost_bytes += (e.end - e.start) * self._bs
                    self._drop(fm, e)
            else:
                self._make_valid(live)
            self.outstanding_flushes -= 1
            if on_done is not None:
                on_done()
            if self._frame_waiters:
                self._kick_frame_waiters()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()

        self.device.submit(file_id, offset, length, is_write=True, on_done=finished)

    def _issue_flush_runs(
        self,
        file_id: int,
        exts: list[_Extent],
        on_done: Callable[[], None] | None,
        *,
        reflush: int = 0,
    ) -> None:
        """Flush an ascending, possibly sparse set of dirty extents, one
        disk write per run of contiguous blocks.

        Used when only part of an extent still needs writing -- a re-flush
        after failure, or a delayed flush some of whose blocks were
        already flushed by an overlapping extent.  ``on_done`` rides on
        the last run; with no runs at all it fires synchronously along
        with the drain check the skipped write would have performed.
        """
        if not exts:
            if on_done is not None:
                on_done()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()
            return
        runs: list[Segments] = []
        end = -1
        for e in exts:
            if e.start != end:
                runs.append([])
            runs[-1].append((e.start, e.end, e.token))
            end = e.end
        bs = self._bs
        last = len(runs) - 1
        for i, run in enumerate(runs):
            lo = run[0][0]
            self.issue_disk_write(
                file_id,
                lo * bs,
                (run[-1][1] - lo) * bs,
                run,
                on_done if i == last else None,
                reflush=reflush,
            )

    # ------------------------------------------------------------------
    # Delayed writes (Sprite-style, section 2.1)
    # ------------------------------------------------------------------
    def schedule_delayed_flush(
        self, file_id: int, offset: int, length: int, run: Segments
    ) -> None:
        """Hold dirty blocks for ``flush_delay_s`` before flushing.

        If :meth:`discard_file` removes the file before the delay
        expires -- a compiler temporary deleted young -- the disk write
        never happens: "temporary files which exist for less than 30
        seconds ... [are] never written to disk".
        """
        self._pin(self._members(self._files[file_id], run), _DIRTY)
        handle = _DelayedFlush()
        self._delayed_flushes.setdefault(file_id, []).append(handle)
        self.outstanding_flushes += 1  # keeps drain accounting honest
        if self._g_wb_queue is not None:
            self._g_wb_queue.set_max(self.outstanding_flushes)

        def fire() -> None:
            self.outstanding_flushes -= 1
            pending = self._delayed_flushes.get(file_id)
            if pending and handle in pending:
                pending.remove(handle)
            if handle.cancelled:
                if self.outstanding_flushes == 0 and self.on_drained is not None:
                    self.on_drained()
                return
            # Only blocks still dirty in this run's incarnation belong to
            # this flush.  A block rewritten during the delay is owned by
            # the *newer* delayed extent (same token, so it stays here,
            # and the newer flush finds it flushing and skips it); one
            # already flushed or evicted is flushing/valid/absent and
            # writing it again would double-count the bytes in the write
            # statistics.
            live = [
                e
                for e in self._members(self._files[file_id], run)
                if e.state == _DIRTY
            ]
            if sum(e.end - e.start for e in live) == sum(
                hi - lo for lo, hi, _ in run
            ):
                # Whole extent intact: one contiguous write, exactly as
                # originally queued.
                self.issue_disk_write(file_id, offset, length, run)
            else:
                self._issue_flush_runs(file_id, live, None)

        self.engine.schedule(self.config.flush_delay_s, fire)

    def discard_file(self, file_id: int) -> int:
        """Drop a deleted file: cancel its pending delayed flushes and
        free its resident clean/dirty frames.  Returns the number of
        cancelled flush extents (frames already flushing are beyond
        recall and complete normally).
        """
        cancelled = 0
        for handle in self._delayed_flushes.get(file_id, []):
            if not handle.cancelled:
                handle.cancelled = True
                cancelled += 1
                self._stats.writes_cancelled += 1
        fm = self._files.get(file_id)
        if fm is not None:
            self._drop_unpinned(fm)
        self._streams.pop(file_id, None)
        if cancelled:
            self._kick_frame_waiters()
        return cancelled

    # ------------------------------------------------------------------
    # Faults: data at risk, degraded mode
    # ------------------------------------------------------------------
    def dirty_bytes(self) -> int:
        """Write-behind bytes not yet safely on disk (data at risk).

        Dirty frames are waiting for their flush; flushing frames are in
        flight but unacknowledged.  A crash at this instant loses exactly
        this many bytes.
        """
        n = sum(
            e.end - e.start
            for fm in self._files.values()
            for e in fm.exts
            if e.state == _DIRTY or e.state == _FLUSHING
        )
        return n * self._bs

    def enter_degraded(self) -> None:
        """The SSD died: dump its contents, route everything to disk.

        Resident clean data is simply gone (re-readable from disk);
        resident dirty data is lost with the device.  Frames with disk
        transfers in flight (reading/flushing) settle normally -- those
        transfers were already streaming.  Subsequent read/write requests
        bypass the cache entirely.
        """
        if self.degraded:
            return
        self.degraded = True
        self.metrics.faults.degraded_at_s = self.engine.now
        lost = sum(self._drop_unpinned(fm) for fm in self._files.values())
        self.metrics.faults.lost_bytes += lost * self._bs
        # Parked requests retry through their original (cache-mediated)
        # closure; the pool just emptied, so let them finish that way.
        self._kick_frame_waiters()

    # ------------------------------------------------------------------
    # Read-ahead
    # ------------------------------------------------------------------
    def _after_demand_read(
        self, file_id: int, offset: int, length: int, owner: int
    ) -> None:
        stream = self._streams.get(file_id)
        end = offset + length
        if stream is not None and offset == stream.next_offset:
            stream.next_offset = end
            stream.length = length
            self._prefetch(file_id, stream, owner)
        else:
            self._streams[file_id] = _StreamState(next_offset=end, length=length)

    def _prefetch(self, file_id: int, stream: _StreamState, owner: int) -> None:
        depth = self.config.auto_depth(stream.length)
        window_end = stream.next_offset + depth * stream.length
        file_end = self._file_sizes.get(file_id, 0)
        window_end = min(window_end, file_end)
        start = max(stream.prefetch_until, stream.next_offset)
        bs = self._bs
        stats = self._stats
        fm = self._file(file_id)
        while start < window_end:
            length = min(stream.length, window_end - start)
            # Only prefetch absent blocks; stop growing the window when
            # frames are unavailable (prefetch never parks).
            gaps = _gaps(fm, start // bs, (start + length - 1) // bs + 1)
            if gaps:
                needed = sum(hi - lo for lo, hi in gaps)
                token = self._allocate(
                    file_id, gaps, needed, owner, _READING, prefetched=True
                )
                if token is None:
                    break
                lo = gaps[0][0]
                hi = gaps[-1][1]
                stats.prefetch_issued += 1
                stats.prefetch_blocks += needed
                self.issue_disk_read(
                    file_id, lo * bs, (hi - lo) * bs, [(lo, hi, token)]
                )
            start += length
            stream.prefetch_until = start


def _gaps(fm: _FileMap, first: int, end: int) -> list[tuple[int, int]]:
    """Absent block ranges within ``[first, end)``, ascending."""
    starts = fm.starts
    exts = fm.exts
    i = bisect_left(starts, first)
    pos = first
    if i and exts[i - 1].end > first:
        pos = exts[i - 1].end
    gaps = []
    n = len(exts)
    while i < n:
        s = starts[i]
        if s >= end:
            break
        if s > pos:
            gaps.append((pos, s))
        pos = exts[i].end
        i += 1
    if pos < end:
        gaps.append((pos, end))
    return gaps


class _PendingRead:
    """State machine for one demand read."""

    __slots__ = (
        "cache",
        "file_id",
        "offset",
        "length",
        "owner",
        "on_complete",
        "outstanding",
        "counted",
    )

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.owner = owner
        self.on_complete = on_complete
        self.outstanding = 0
        self.counted = False  # stats recorded once, even across retries

    def start(self) -> bool:
        """Classify the span and issue disk reads; False to retry later."""
        cache = self.cache
        bs = cache._bs
        first = self.offset // bs
        end = (self.offset + self.length - 1) // bs + 1
        fid = self.file_id
        fm = cache._file(fid)
        starts = fm.starts
        exts = fm.exts
        # Split resident extents at the span's edges where this read
        # changes them (an LRU touch or a prefetch-bit clear).
        for edge in (first, end):
            i = bisect_left(starts, edge)
            if i:
                e = exts[i - 1]
                if e.end > edge and (
                    e.state == _VALID or (e.pf and e.state != _READING)
                ):
                    cache._split(fm, i - 1, edge)

        missing: list[tuple[int, int]] = []
        #: token -> [blocks in flight, last such block]
        inflight: dict[int, list[int]] = {}
        n_hit = n_ra_hit = 0
        pos = first
        i = bisect_left(starts, first)
        if i and exts[i - 1].end > first:
            i -= 1
        n = len(exts)
        while i < n:
            e = exts[i]
            s = e.start
            if s >= end:
                break
            if s > pos:
                missing.append((pos, s))
            lo = s if s > first else first
            pos = e.end
            hi = pos if pos < end else end
            if e.state == _READING:
                w = inflight.get(e.token)
                if w is None:
                    inflight[e.token] = [hi - lo, hi - 1]
                else:
                    w[0] += hi - lo
                    w[1] = hi - 1
            else:
                n_hit += hi - lo
                if e.pf:
                    n_ra_hit += hi - lo
                    e.pf = False
                if e.state == _VALID and e is not cache._lru_tail:
                    cache._lru_unlink(e)
                    cache._lru_append(e)
            i += 1
        if pos < end:
            missing.append((pos, end))

        # Allocate every missing run up front; all-or-nothing.
        allocated: Segments = []
        for lo, hi in missing:
            token = cache._allocate(fid, [(lo, hi)], hi - lo, self.owner, _READING)
            if token is None:
                for done_lo, _, _ in allocated:
                    cache._drop(fm, exts[bisect_left(starts, done_lo)])
                return False
            allocated.append((lo, hi, token))

        n_inflight = sum(w[0] for w in inflight.values())
        if not self.counted:
            stats = cache._stats
            stats.block_hits += n_hit
            stats.block_misses += end - first - n_hit - n_inflight
            stats.block_inflight_hits += n_inflight
            stats.readahead_hits += n_ra_hit
            self.counted = True

        self.outstanding = len(allocated) + n_inflight

        waiters = cache._waiters
        for token, (count, last) in inflight.items():
            entry = (last, self, count)
            lst = waiters.get(token)
            if lst is None:
                waiters[token] = [entry]
            else:
                lst.append(entry)
        for seg in allocated:
            lo, hi, _ = seg
            cache.issue_disk_read(fid, lo * bs, (hi - lo) * bs, [seg], self.arrived)

        if self.outstanding == 0:
            self._finish()
        return True

    def arrived(self, n: int = 1) -> None:
        self.outstanding -= n
        if self.outstanding == 0:
            self._finish()

    def _finish(self) -> None:
        # Completion is synchronous; the SSD's per-KB penalty is *CPU*
        # time, not a sleep -- "I/Os to and from the SSD are done without
        # suspending the process" -- so it is handed to the caller to
        # charge as computation.
        cache = self.cache
        self.on_complete(
            0.0 if cache._free_hits else cache.config.hit_penalty_s(self.length)
        )


class _PendingWrite:
    """State machine for one demand write."""

    __slots__ = ("cache", "file_id", "offset", "length", "owner", "on_complete")

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.owner = owner
        self.on_complete = on_complete

    def start(self) -> bool:
        cache = self.cache
        bs = cache._bs
        first = self.offset // bs
        end = (self.offset + self.length - 1) // bs + 1
        fid = self.file_id
        fm = cache._file(fid)
        i = cache._cut(fm, first)
        j = cache._cut(fm, end)
        # Snapshot the span's tokens before allocating: if the allocation
        # evicts one of this request's own present blocks, the block no
        # longer carries its token and the write treats it as dead (the
        # reference implementation's dead-Block ride-along case).
        present = fm.exts[i:j]
        run: Segments = []
        gaps = []
        pos = first
        for e in present:
            if e.start > pos:
                gaps.append((pos, e.start))
            run.append((e.start, e.end, e.token))
            pos = e.end
        if pos < end:
            gaps.append((pos, end))
        if gaps:
            # New frames go straight to dirty: every write path
            # immediately transitions them out of the clean pool anyway,
            # and nothing observes the LRU in between.
            token = cache._allocate(
                fid, gaps, sum(hi - lo for lo, hi in gaps), self.owner, _DIRTY
            )
            if token is None:
                return False
            run += [(lo, hi, token) for lo, hi in gaps]
            run.sort()
        for e in present:
            e.pf = False

        if cache.config.write_behind:
            # Data lands in the cache; the writer continues immediately,
            # paying only the (SSD) copy-in penalty as CPU; the flush
            # happens behind its back (optionally after a Sprite-style
            # delay, during which a deleted file escapes the disk).
            cache._stats.writes_absorbed += 1
            if cache.config.flush_delay_s > 0:
                cache.schedule_delayed_flush(fid, self.offset, self.length, run)
            else:
                cache.issue_disk_write(fid, self.offset, self.length, run)
            self.on_complete(
                0.0 if cache._free_hits else cache.config.hit_penalty_s(self.length)
            )
        else:
            # Write-through: the writer waits for the disk; the copy-in
            # penalty is charged on wake-up.
            penalty = cache.config.hit_penalty_s(self.length)
            cache.issue_disk_write(
                fid,
                self.offset,
                self.length,
                run,
                lambda: self.on_complete(penalty),
            )
        return True
