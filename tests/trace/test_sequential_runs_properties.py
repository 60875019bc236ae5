"""Property suite for :meth:`TraceArray.sequential_runs`.

Run segmentation is the paper's sequential-access unit, so the
segmentation itself gets a contract: run starts partition the row range,
every run is maximal (the record before each boundary cannot extend
across it), row order is preserved by the partition, and the boundaries
are reproducible from the ``replay_columns`` decode the simulator
actually replays from.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import flags as F
from repro.trace.array import TraceArray

BLOCK = 4096


@st.composite
def trace_arrays(draw) -> TraceArray:
    """Random traces biased toward genuine sequential runs."""
    n_segments = draw(st.integers(0, 8))
    file_ids: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    types: list[int] = []
    for _ in range(n_segments):
        fid = draw(st.integers(0, 2))
        length = draw(st.integers(1, 4)) * BLOCK
        offset = draw(st.integers(0, 50)) * BLOCK
        rt = draw(st.sampled_from([0, F.TRACE_WRITE]))
        for _ in range(draw(st.integers(1, 5))):
            file_ids.append(fid)
            offsets.append(offset)
            lengths.append(length)
            types.append(rt)
            offset += length
            # Occasionally perturb mid-segment so runs split where the
            # sequential condition genuinely breaks.
            if draw(st.integers(0, 4)) == 0:
                offset += draw(st.sampled_from([-BLOCK, BLOCK * 7]))
                offset = max(0, offset)
    n = len(file_ids)
    return TraceArray.from_columns(
        record_type=types,
        file_id=file_ids,
        process_id=[1] * n,
        operation_id=list(range(n)),
        offset=offsets,
        length=lengths,
        process_clock=np.arange(n, dtype=np.int64),
    )


def _extends(trace: TraceArray, i: int) -> bool:
    """Does row ``i`` extend the run ending at row ``i - 1``?"""
    same_file = trace.file_id[i] == trace.file_id[i - 1]
    contiguous = trace.offset[i] == trace.offset[i - 1] + trace.length[i - 1]
    same_size = trace.length[i] == trace.length[i - 1]
    same_dir = bool(trace.record_type[i] & F.TRACE_WRITE) == bool(
        trace.record_type[i - 1] & F.TRACE_WRITE
    )
    return bool(same_file and contiguous and same_size and same_dir)


@settings(max_examples=100, deadline=None)
@given(trace=trace_arrays())
def test_runs_partition_the_array(trace):
    starts = trace.sequential_runs()
    n = len(trace)
    if n == 0:
        assert starts.size == 0
        return
    assert starts[0] == 0
    assert np.all(np.diff(starts) > 0)  # strictly increasing
    assert starts[-1] < n
    # Run lengths tile the row range exactly.
    run_lengths = np.diff(starts, append=n)
    assert int(run_lengths.sum()) == n
    assert np.all(run_lengths > 0)


@settings(max_examples=100, deadline=None)
@given(trace=trace_arrays())
def test_runs_are_maximal_and_internally_sequential(trace):
    starts = trace.sequential_runs()
    boundaries = set(starts.tolist())
    for i in range(1, len(trace)):
        if i in boundaries:
            # Maximality: a boundary exists only where extension fails.
            assert not _extends(trace, i)
        else:
            # Interior rows really do extend their predecessor.
            assert _extends(trace, i)


@settings(max_examples=100, deadline=None)
@given(trace=trace_arrays())
def test_runs_preserve_row_order(trace):
    starts = trace.sequential_runs()
    n = len(trace)
    ends = np.append(starts[1:], n)
    parts = [trace[int(a):int(b)] for a, b in zip(starts, ends)]
    rebuilt = TraceArray.concatenate(parts)
    assert len(rebuilt) == n
    for name, col in trace.columns().items():
        assert np.array_equal(getattr(rebuilt, name), col), name


@settings(max_examples=100, deadline=None)
@given(trace=trace_arrays())
def test_runs_round_trip_through_replay_columns(trace):
    """The decoded replay lists reproduce the same segmentation.

    ``replay_columns`` is what the simulator replays from; recomputing
    the boundaries from those plain lists must agree with the vectorized
    segmentation on the array.
    """
    file_ids, offsets, lengths, is_write, _ = trace.replay_columns()
    boundaries = [0] if file_ids else []
    for i in range(1, len(file_ids)):
        extends = (
            file_ids[i] == file_ids[i - 1]
            and offsets[i] == offsets[i - 1] + lengths[i - 1]
            and lengths[i] == lengths[i - 1]
            and is_write[i] == is_write[i - 1]
        )
        if not extends:
            boundaries.append(i)
    assert trace.sequential_runs().tolist() == boundaries
