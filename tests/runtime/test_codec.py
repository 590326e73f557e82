"""Property-based round-trip tests for the live wire codec.

Every message dataclass registered in :mod:`repro.protocols.messages`
must encode/decode losslessly (field-for-field, container types
included), and its ``size_bytes()`` — the modeled compact-binary size the
overhead benches count — must be *consistent with the encoded frame*:
unchanged by a round trip, and the frame's length prefix must match the
bytes actually produced.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import Address, NodeKind
from repro.protocols import messages as m
from repro.protocols.cops import CopsVersion
from repro.runtime import codec
from repro.storage.version import Version

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
micros = st.integers(min_value=0, max_value=2**53)
small_int = st.integers(min_value=0, max_value=2**20)
keys = st.text(min_size=1, max_size=12)
vectors = st.lists(micros, min_size=1, max_size=5)
tuple_vectors = vectors.map(tuple)

addresses = st.builds(
    Address,
    dc=st.integers(0, 4),
    partition=st.integers(0, 7),
    kind=st.sampled_from(list(NodeKind)),
    index=st.integers(0, 3),
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2**40, max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
#: Values clients may store: scalars nested in lists/tuples (the workload
#: generators write ``(client_name, sequence)`` tuples).
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=6,
)

versions = st.builds(
    Version,
    key=keys,
    value=values,
    sr=st.integers(0, 4),
    ut=micros,
    dv=tuple_vectors,
    optimistic=st.booleans(),
)

dependencies = st.builds(
    m.Dependency, key=keys, ut=micros, sr=st.integers(0, 4)
)

cops_versions = st.builds(
    lambda key, value, sr, ut, deps, num_dcs, visible: CopsVersion(
        key=key, value=value, sr=sr, ut=ut, deps=deps, num_dcs=num_dcs,
        visible=visible,
    ),
    key=keys,
    value=values,
    sr=st.integers(0, 4),
    ut=micros,
    deps=st.lists(dependencies, max_size=4).map(tuple),
    num_dcs=st.integers(1, 5),
    visible=st.booleans(),
)

get_replies = st.builds(
    m.GetReply,
    key=keys,
    value=values,
    ut=micros,
    dv=tuple_vectors,
    sr=st.integers(0, 4),
    op_id=small_int,
)

#: One strategy per registered message type.  The completeness test below
#: fails if a new message dataclass lands without a strategy here.
STRATEGIES: dict[str, st.SearchStrategy] = {
    "GetReq": st.builds(m.GetReq, key=keys, rdv=vectors, client=addresses,
                        op_id=small_int, pessimistic=st.booleans()),
    "GetReply": get_replies,
    "PutReq": st.builds(m.PutReq, key=keys, value=values, dv=vectors,
                        client=addresses, op_id=small_int,
                        pessimistic=st.booleans()),
    "PutReply": st.builds(m.PutReply, ut=micros, op_id=small_int),
    "RoTxReq": st.builds(m.RoTxReq,
                         keys=st.lists(keys, max_size=4).map(tuple),
                         rdv=vectors, client=addresses, op_id=small_int,
                         pessimistic=st.booleans()),
    "RoTxReply": st.builds(m.RoTxReply,
                           versions=st.lists(get_replies, max_size=3),
                           op_id=small_int),
    "SessionClosed": st.builds(m.SessionClosed, op_id=small_int,
                               reason=st.text(max_size=20)),
    "Replicate": st.builds(m.Replicate,
                           version=st.one_of(versions, cops_versions)),
    "Heartbeat": st.builds(m.Heartbeat, ts=micros,
                           src_dc=st.integers(0, 4)),
    "SliceReq": st.builds(m.SliceReq,
                          keys=st.lists(keys, max_size=4).map(tuple),
                          tv=vectors, coordinator=addresses,
                          tx_id=small_int, pessimistic=st.booleans()),
    "SliceResp": st.builds(m.SliceResp,
                           versions=st.lists(get_replies, max_size=3),
                           tx_id=small_int, aborted=st.booleans()),
    "StabPush": st.builds(m.StabPush, vv=vectors,
                          partition=st.integers(0, 7)),
    "StabBroadcast": st.builds(m.StabBroadcast, gss=vectors),
    "UstGossip": st.builds(m.UstGossip, dst=micros,
                           src_dc=st.integers(0, 4)),
    "Dependency": dependencies,
    "CopsPutReq": st.builds(m.CopsPutReq, key=keys, value=values,
                            deps=st.lists(dependencies, max_size=4)
                            .map(tuple),
                            client=addresses, op_id=small_int),
    "DepCheck": st.builds(m.DepCheck, key=keys, ut=micros,
                          sr=st.integers(0, 4), requester=addresses,
                          check_id=small_int),
    "DepCheckResp": st.builds(m.DepCheckResp, check_id=small_int),
    "GcPush": st.builds(m.GcPush, vec=vectors,
                        partition=st.integers(0, 7)),
    "GcBroadcast": st.builds(m.GcBroadcast, gv=vectors),
    "ReplSyncReq": st.builds(m.ReplSyncReq, vv=vectors,
                             requester=addresses),
    "ReplicateBatch": st.builds(m.ReplicateBatch,
                                versions=st.lists(
                                    st.one_of(versions, cops_versions),
                                    max_size=3),
                                src_dc=st.integers(0, 4),
                                clock_ts=micros,
                                dst=micros),
    "ReplCatchup": st.builds(m.ReplCatchup,
                             versions=st.lists(
                                 st.one_of(versions, cops_versions),
                                 max_size=3),
                             src_dc=st.integers(0, 4),
                             last=st.booleans()),
    "AeDigest": st.builds(m.AeDigest, vv=vectors,
                          uts=st.lists(micros, max_size=5).map(tuple),
                          requester=addresses),
    "AeRepair": st.builds(m.AeRepair,
                          versions=st.lists(
                              st.one_of(versions, cops_versions),
                              max_size=3),
                          src_dc=st.integers(0, 4)),
    "ViewPropose": st.builds(m.ViewPropose, epoch=small_int,
                             members=st.lists(small_int, min_size=1,
                                              max_size=6).map(tuple),
                             vnodes=st.integers(1, 256),
                             reply_to=addresses),
    "ViewAck": st.builds(m.ViewAck, epoch=small_int,
                         phase=st.sampled_from(["prepare", "commit"]),
                         dc=st.integers(0, 4),
                         partition=st.integers(0, 7)),
    "MigrateStart": st.builds(m.MigrateStart, epoch=small_int,
                              reply_to=addresses),
    "MigrateChunk": st.builds(m.MigrateChunk, epoch=small_int,
                              src_dc=st.integers(0, 4),
                              src_partition=st.integers(0, 7),
                              seq=st.integers(-1, 2**20),
                              versions=st.lists(versions, max_size=3),
                              vv=st.lists(micros, max_size=5),
                              last=st.booleans()),
    "MigrateAck": st.builds(m.MigrateAck, epoch=small_int,
                            partition=st.integers(0, 7), seq=small_int),
    "MigrateDone": st.builds(m.MigrateDone, epoch=small_int,
                             dc=st.integers(0, 4),
                             partition=st.integers(0, 7),
                             keys_moved=small_int,
                             bytes_moved=small_int),
    "ViewCommit": st.builds(m.ViewCommit, epoch=small_int,
                            members=st.lists(small_int, min_size=1,
                                             max_size=6).map(tuple),
                            vnodes=st.integers(1, 256)),
    "ViewGossip": st.builds(m.ViewGossip, epoch=small_int,
                            members=st.lists(small_int, min_size=1,
                                             max_size=6).map(tuple),
                            vnodes=st.integers(1, 256)),
    "NotOwner": st.builds(m.NotOwner, op_id=small_int, key=keys,
                          epoch=small_int,
                          members=st.lists(small_int, min_size=1,
                                           max_size=6).map(tuple),
                          vnodes=st.integers(1, 256)),
}


def same(a, b) -> bool:
    """Deep structural equality that understands Version (no __eq__)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Version):
        fixed = ("key", "value", "sr", "ut", "dv", "optimistic")
        extra = ("deps", "visible") if isinstance(a, CopsVersion) else ()
        return all(same(getattr(a, f), getattr(b, f))
                   for f in fixed + extra)
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------
def test_every_registered_message_type_has_a_strategy():
    assert set(STRATEGIES) == set(codec.MESSAGE_TYPES), (
        "a message dataclass was added/removed in protocols.messages; "
        "update STRATEGIES so the round-trip property covers it"
    )


@pytest.mark.parametrize("type_name", sorted(codec.MESSAGE_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_is_lossless(type_name, data):
    msg = data.draw(STRATEGIES[type_name])
    decoded = codec.loads(codec.dumps(msg))
    assert same(msg, decoded), f"{type_name} round trip changed the message"


@pytest.mark.parametrize("type_name", sorted(codec.MESSAGE_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_size_bytes_consistent_with_encoding(type_name, data):
    """``size_bytes()`` (the modeled wire cost) must survive the codec:
    the decoded message reports exactly the original modeled size, and
    the frame's declared length matches the bytes produced."""
    msg = data.draw(STRATEGIES[type_name])
    frame = codec.encode_frame(msg)
    assert len(frame) == codec.encoded_size(msg)
    declared = int.from_bytes(frame[:4], "big")
    assert declared == len(frame) - 4
    decoded = codec.loads(frame[4:])
    if callable(getattr(msg, "size_bytes", None)):
        assert decoded.size_bytes() == msg.size_bytes()
    else:  # Dependency models its size as a per-entry class constant
        assert decoded.SIZE_BYTES == msg.SIZE_BYTES


def test_every_registered_message_type_has_a_compiled_codec():
    assert codec.compiled_message_types() == set(codec.MESSAGE_TYPES), (
        "a message dataclass exists without a compiled encoder/decoder; "
        "the compiler must cover the whole registry"
    )


@pytest.mark.parametrize("type_name", sorted(codec.MESSAGE_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_codec_is_byte_identical_to_reference(type_name, data):
    """The tentpole property: the compiled per-dataclass encoders must
    produce byte-for-byte the frames of the reference tree walk (so
    mixed deployments interoperate and the WAL format is unchanged), and
    both decoders must reconstruct equal objects from either's bytes."""
    msg = data.draw(STRATEGIES[type_name])
    compiled = codec.dumps(msg)
    reference = codec.dumps_reference(msg)
    assert compiled == reference, (
        f"{type_name}: compiled encoding diverged from the tree codec"
    )
    via_compiled = codec.loads(compiled)
    via_reference = codec.loads_reference(compiled)
    assert same(msg, via_compiled), f"{type_name}: compiled decode changed it"
    assert same(via_compiled, via_reference), (
        f"{type_name}: compiled and reference decoders disagree"
    )


def test_compiled_decoder_rejects_field_count_mismatch():
    bad = codec._pack(["@m", "PutReply", [1, 2, 3]])
    with pytest.raises(codec.CodecError):
        codec.loads(bad)


def test_encode_frame_memoizes_by_identity():
    """Sizing a message then sending it (or fanning it out) must
    serialize once: same object -> same frame object back."""
    msg = m.Heartbeat(ts=42, src_dc=1)
    first = codec.encode_frame(msg)
    assert codec.encoded_size(msg) == len(first)
    assert codec.encode_frame(msg) is first
    # A different (even equal) message misses the memo and re-encodes.
    other = m.Heartbeat(ts=42, src_dc=1)
    assert codec.encode_frame(other) == first
    assert codec.encode_frame(other) is not first


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       chunk=st.integers(min_value=1, max_value=17))
def test_frame_decoder_reassembles_arbitrary_chunking(data, chunk):
    msgs = [data.draw(STRATEGIES[name])
            for name in ("GetReq", "Heartbeat", "Replicate")]
    stream = b"".join(codec.encode_frame(msg) for msg in msgs)
    decoder = codec.FrameDecoder()
    out = []
    for start in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[start:start + chunk]))
    assert decoder.pending_bytes == 0
    assert len(out) == len(msgs)
    for original, decoded in zip(msgs, out):
        assert same(original, decoded)


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       batch_bytes=st.integers(min_value=32, max_value=4096))
def test_frame_decoder_reassembles_batched_writes(data, batch_bytes):
    """The transport coalesces queued frames into multi-frame writes
    (one ``write`` per batch, capped by bytes); the decoder must yield
    the same message sequence whether frames arrive singly or in the
    exact batches the transport would form."""
    msgs = [data.draw(STRATEGIES[name])
            for name in ("GetReq", "Replicate", "PutReply", "Heartbeat",
                         "GetReq", "RoTxReply")]
    frames = [codec.encode_frame(msg) for msg in msgs]
    # Group frames the way the transport's flush does: greedily, starting a
    # new batch once the running size reaches the cap.
    batches: list[bytes] = []
    current: list[bytes] = []
    size = 0
    for frame in frames:
        if current and size >= batch_bytes:
            batches.append(b"".join(current))
            current, size = [], 0
        current.append(frame)
        size += len(frame)
    if current:
        batches.append(b"".join(current))
    decoder = codec.FrameDecoder()
    out = []
    for batch in batches:
        out.extend(decoder.feed(batch))
    assert decoder.pending_bytes == 0
    assert len(out) == len(msgs)
    for original, decoded in zip(msgs, out):
        assert same(original, decoded)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_frame_decoder_chunking_equivalence(data):
    """Chunking-equivalence: *any* split of the same byte stream yields
    the identical message sequence and the identical ``consumed_bytes``
    as a single-shot feed — the contract the read-offset compaction in
    ``FrameDecoder.feed`` must not bend, whatever the write grouping or
    a torn tail."""
    msgs = [data.draw(STRATEGIES[name])
            for name in ("GetReq", "Heartbeat", "Replicate", "PutReply")]
    stream = b"".join(codec.encode_frame(msg) for msg in msgs)
    # Possibly tear the tail mid-frame, then cut what is left anywhere.
    stream = stream[:data.draw(st.integers(0, len(stream)))]
    cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)),
                                    max_size=12)) | {0, len(stream)})
    reference = codec.FrameDecoder()
    expected = reference.feed(stream)
    decoder = codec.FrameDecoder()
    out = []
    for start, end in zip(cuts, cuts[1:]):
        out.extend(decoder.feed(stream[start:end]))
        assert decoder.consumed_bytes + decoder.pending_bytes == end
    assert len(out) == len(expected)
    for lhs, rhs in zip(expected, out):
        assert same(lhs, rhs)
    assert decoder.consumed_bytes == reference.consumed_bytes
    assert decoder.pending_bytes == reference.pending_bytes


@pytest.mark.parametrize("value", [
    ["@t", 1, 2],            # a plain list masquerading as the tuple tag
    ["@l"],                  # ...as the escape tag itself
    ["@x", "y"],             # ...as an unknown tag
    ["@m", "GetReq", []],    # ...as a message envelope
    [["@t", 0], "@a"],       # nested: only the head position is ambiguous
    ("@t", 1),               # tuples are tagged, contents positional: safe
])
def test_at_headed_client_values_round_trip_exactly(value):
    """Client-stored values may collide with the tag space; the codec
    must escape them, never reinterpret (or reject) them."""
    msg = m.PutReq(key="k", value=value, dv=[1, 2], client=Address(0, 0),
                   op_id=7)
    decoded = codec.loads(codec.dumps(msg))
    assert same(msg, decoded)
    assert type(decoded.value) is type(value)


def test_decoder_reports_the_clean_boundary_of_a_torn_stream():
    """An incomplete trailing frame is *not* corruption: the decoder
    yields everything whole and points at the clean boundary — exactly
    what WAL tail recovery truncates to."""
    msgs = [m.Heartbeat(ts=i, src_dc=0) for i in range(3)]
    stream = b"".join(codec.encode_frame(msg) for msg in msgs)
    for cut in range(len(stream) + 1):
        decoder = codec.FrameDecoder()
        out = decoder.feed(stream[:cut])
        # The boundary sits after the last whole frame that fits in cut.
        whole = 0
        offset = 0
        for msg in msgs:
            size = codec.encoded_size(msg)
            if offset + size <= cut:
                whole += 1
                offset += size
        assert len(out) == whole
        assert decoder.consumed_bytes == offset
        assert decoder.pending_bytes == cut - offset
        assert decoder.consumed_bytes + decoder.pending_bytes == cut


def test_decoder_corruption_leaves_boundary_before_the_bad_frame():
    """A complete frame that does not decode is corruption; the clean
    boundary must stop *before* it so callers can report the offset."""
    good = codec.encode_frame(m.Heartbeat(ts=1, src_dc=0))
    bad_payload = codec._pack(["@m", "NoSuchType", []])
    bad = len(bad_payload).to_bytes(4, "big") + bad_payload
    decoder = codec.FrameDecoder()
    with pytest.raises(codec.CodecError):
        decoder.feed(good + bad)
    assert decoder.consumed_bytes == len(good)


def test_unknown_type_and_corrupt_frames_are_rejected():
    class NotAMessage:
        pass

    with pytest.raises(codec.CodecError):
        codec.dumps(NotAMessage())
    with pytest.raises(codec.CodecError):  # unknown message tag on the wire
        codec.loads(codec._pack(["@m", "NoSuchType", []]))
    decoder = codec.FrameDecoder()
    with pytest.raises(codec.CodecError):
        list(decoder.feed((codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big")))
