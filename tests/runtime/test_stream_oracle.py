"""Block extraction and batch recording equal the per-packet oracle.

``stream_oracle`` holds the per-packet ``FlowmarkerTracker.extract`` and
the ``np.unique`` ``record_batch`` the runtime replaced.  The streams
below are drawn to reach the tracker's edges: few hosts, so
conversations repeat; one to eight table slots, so evictions land in
the middle of a chunk; equal timestamps; gaps on and either side of an
inter-arrival bin edge; and sizes past the last packet-length bin.
Each stream is fed to ``extract_many`` in random chunks and must give
the oracle's rows, eviction count, table and LRU order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_oracle
from repro.errors import HomunculusError
from repro.netsim.features import packet_features
from repro.netsim.flowmarker import PAPER_SPEC, FlowMarkerSpec
from repro.netsim.packet import MAX_FRAME, MIN_FRAME, Packet, conversation_key, five_tuple
from repro.runtime import FlowmarkerTracker, PacketFeatureExtractor, StreamStats

#: A small spec whose bin edges the drawn streams hit often: 1 s wide
#: inter-arrival bins, and packet lengths past 256 B clamp.
SMALL_SPEC = FlowMarkerSpec(pl_bin_size=64, pl_bins=4, ipt_bin_size=1.0, ipt_bins=3)

#: Timestamp steps between consecutive packets: equal stamps, and steps
#: on and either side of the small spec's bin edges (1 s and 2 s).
STEPS = (0.0, 0.0, 0.25, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 7.0)

#: Packet lengths at, just below and past bin edges, and the frame limits.
SIZES = (MIN_FRAME, 127, 128, 191, 192, 255, 256, 257, 1000, MAX_FRAME)


@st.composite
def streams(draw, max_len=60):
    hosts = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_len))
    packets = []
    ts = draw(st.sampled_from((1.0, 511.0, 1e6)))
    for _ in range(n):
        ts += draw(st.sampled_from(STEPS))
        packets.append(Packet(
            timestamp=ts,
            size=draw(st.sampled_from(SIZES) | st.integers(MIN_FRAME, MAX_FRAME)),
            src_ip=draw(st.integers(0, hosts - 1)),
            dst_ip=draw(st.integers(0, hosts - 1)),
            src_port=draw(st.integers(0, 2)),
            dst_port=80,
        ))
    return packets


@st.composite
def chunked(draw, packets):
    """Split ``packets`` into consecutive non-empty chunks."""
    chunks, start = [], 0
    while start < len(packets):
        size = draw(st.integers(1, max(1, len(packets) - start)))
        chunks.append(packets[start:start + size])
        start += size
    return chunks


trackers = st.fixed_dictionaries({
    "spec": st.sampled_from((SMALL_SPEC, PAPER_SPEC)),
    "max_conversations": st.integers(1, 8),
    "key_fn": st.sampled_from((conversation_key, five_tuple)),
})


def assert_same_state(got, want):
    assert got.evictions == want.evictions
    assert list(got._markers) == list(want._markers)
    for key, marker in want._markers.items():
        assert np.array_equal(got._markers[key], marker)
    # Same keys, stamps and LRU order.
    assert list(got._last_seen.items()) == list(want._last_seen.items())


@settings(max_examples=200, deadline=None)
@given(kwargs=trackers, data=st.data())
def test_extract_many_matches_per_packet_oracle(kwargs, data):
    packets = data.draw(streams())
    got = FlowmarkerTracker(**kwargs)
    want = stream_oracle.FlowmarkerTracker(**kwargs)
    rows = np.concatenate([got.extract_many(chunk)
                           for chunk in data.draw(chunked(packets))])
    expected = np.stack([want.extract(packet) for packet in packets])
    assert rows.shape == (len(packets), kwargs["spec"].total_bins)
    assert rows.dtype == expected.dtype
    assert np.array_equal(rows, expected)
    assert_same_state(got, want)


@settings(max_examples=100, deadline=None)
@given(kwargs=trackers, data=st.data())
def test_negative_gap_raises_like_the_oracle(kwargs, data):
    packets = data.draw(streams(max_len=20))
    key_fn = kwargs["key_fn"]
    late = data.draw(st.sampled_from(packets))
    # ``late``'s conversation goes back in time, unless the table has
    # evicted it by then: a fresh conversation is no error.
    newest = max(p.timestamp for p in packets if key_fn(p) == key_fn(late))
    back = dataclasses.replace(
        late, timestamp=newest - data.draw(st.sampled_from((1e-9, 0.5, 1.0))))
    stream = packets + [back]
    got = FlowmarkerTracker(**kwargs)
    want = stream_oracle.FlowmarkerTracker(**kwargs)
    try:
        for packet in stream:
            want.extract(packet)
    except HomunculusError:
        with pytest.raises(HomunculusError, match="non-monotonic"):
            got.extract_many(stream)
    else:
        got.extract_many(stream)
    assert_same_state(got, want)


def test_negative_gap_raises_mid_chunk():
    tracker = FlowmarkerTracker(max_conversations=2)
    packets = [Packet(timestamp=ts, size=100, src_ip=1, dst_ip=2,
                      src_port=1, dst_port=2) for ts in (3.0, 4.0, 2.0)]
    with pytest.raises(HomunculusError, match="non-monotonic"):
        tracker.extract_many(packets)


def test_empty_chunk_is_an_empty_matrix():
    assert FlowmarkerTracker().extract_many([]).shape == (0, PAPER_SPEC.total_bins)
    assert PacketFeatureExtractor().extract_many([]).shape == (0, 7)


def test_extract_is_one_row_of_extract_many():
    packet = Packet(timestamp=1.0, size=300, src_ip=1, dst_ip=2,
                    src_port=1, dst_port=2)
    one, many = FlowmarkerTracker(), FlowmarkerTracker()
    assert np.array_equal(one.extract(packet), many.extract_many([packet])[0])
    assert one.extract(packet).shape == (PAPER_SPEC.total_bins,)


full_range_packets = st.builds(
    Packet,
    timestamp=st.floats(0.0, 1e9),
    size=st.integers(MIN_FRAME, MAX_FRAME),
    src_ip=st.integers(0, 2**32 - 1),
    dst_ip=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
    protocol=st.integers(0, 255),
    ttl=st.integers(0, 255),
    tcp_flags=st.integers(0, 255),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(full_range_packets, min_size=1, max_size=40))
def test_packet_feature_matrix_matches_stacked_rows(packets):
    extractor = PacketFeatureExtractor()
    got = extractor.extract_many(packets)
    want = np.stack([packet_features(packet) for packet in packets])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(extractor.extract(packets[0]), want[0])


labels_and_predictions = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    st.lists(st.none() | st.integers(-1, 3), min_size=n, max_size=n)
    | st.none(),
))


@settings(max_examples=200, deadline=None)
@given(st.lists(labels_and_predictions, min_size=1, max_size=5))
def test_record_batch_matches_oracle_and_per_row_record(batches):
    got, want, per_row = StreamStats(), StreamStats(), StreamStats()
    for predictions, labels in batches:
        got.record_batch(np.array(predictions), labels)
        stream_oracle.record_batch(want, np.array(predictions), labels)
        for index, prediction in enumerate(predictions):
            per_row.record(prediction, None if labels is None else labels[index])
    # Counters equal per-row recording; dict insertion order (sorted new
    # keys per batch) equals the oracle's.
    for stats in (want, per_row):
        assert (got.packets, got.labeled, got.correct) == (
            stats.packets, stats.labeled, stats.correct)
        assert got.class_counts == stats.class_counts
        assert got.confusion == stats.confusion
    assert list(got.class_counts.items()) == list(want.class_counts.items())
    assert list(got.confusion.items()) == list(want.confusion.items())
    assert all(type(k) is int and type(v) is int for k, v in got.class_counts.items())
    assert all(type(t) is int and type(p) is int and type(v) is int
               for (t, p), v in got.confusion.items())
