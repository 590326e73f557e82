"""The wire codec: length-prefixed frames for every protocol message.

Frame layout: a 4-byte big-endian payload length, then the payload: the
tagged tree below as compact UTF-8 JSON (no whitespace, non-ASCII kept
as-is).  The WAL and snapshots store the same frames, so these bytes are
also the on-disk format (pinned by
``tests/persistence/test_format1_fixture.py``).

Encoding is driven by the dataclass registry built from
:mod:`repro.protocols.messages`: a message becomes
``["@m", type_name, [field values…]]`` with field values encoded
recursively.  Python containers and the protocol's non-dataclass payload
types carry tags so decoding restores the *exact* original shape —
tuples stay tuples (dataclass equality depends on it), versions come back
as :class:`repro.storage.version.Version` or the COPS* subclass:

=========  ====================================================
tag        payload
=========  ====================================================
``@m``     message dataclass: name + field list
``@t``     tuple (elements encoded recursively)
``@l``     escape: a *plain list* whose first element is a
           string starting with ``@`` (kept unambiguous)
``@a``     :class:`repro.common.types.Address`
``@v``     :class:`repro.storage.version.Version`
``@cv``    :class:`repro.protocols.cops.CopsVersion`
=========  ====================================================

Scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through
untouched; plain lists stay plain lists (escaped with ``@l`` only when
their head collides with the tag space).  Values stored by clients must
be built from these shapes (the workload generators' values are).

Two implementations produce that tree:

* the **reference tree codec** (:func:`dumps_reference` /
  :func:`loads_reference`) — the recursive type-dispatching walk above,
  kept as the executable specification;
* the **compiled codec** (:func:`dumps` / :func:`loads`) — one
  exec-generated encoder/decoder per registered message dataclass, with
  the field list resolved at import time and per-field fast paths chosen
  from the declared field types (int vectors pass through, addresses
  inline, nested messages dispatch straight to their own compiled
  codec).  Field values that do not match their declaration fall back to
  the tree walk, so the two implementations produce **byte-identical
  frames** for every encodable message — pinned property-based by
  ``tests/runtime/test_codec.py``.

:func:`encode_frame` memoizes the last frame it built (keyed by message
*identity*), so sizing a message and then sending it — or fanning one
payload out to many peers — serializes it exactly once.  The memo relies
on messages being immutable once handed to the transport, which every
protocol core honors.

``size_bytes()`` note: messages model their size as a *compact binary*
encoding of the paper's setup (8-byte keys/values/timestamps).  The live
codec's frames are larger (self-describing), so ``encoded_size()`` is the
transport truth while ``size_bytes()`` remains the metadata-overhead model
— the round-trip property test pins that ``size_bytes()`` survives a
round trip unchanged and the frame length matches what was written.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any

from repro.common.errors import ReproError
from repro.common.types import Address, NodeKind
from repro.protocols import messages
from repro.storage.version import Version

#: The payload serializer, recorded in the benchmark's run fingerprint.
SERIALIZER = "json"


def _pack(tree: Any) -> bytes:
    return json.dumps(tree, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


# The bound scanner skips json.loads()'s isinstance/detect_encoding
# dispatch and decode()'s whitespace regexes per call.  Our encoder
# never emits surrounding whitespace, so the strict stdlib path only
# runs for inputs the fast path cannot prove equivalent.
_json_raw = json.JSONDecoder().raw_decode


def _unpack(payload: bytes) -> Any:
    # str() accepts bytes, bytearray and the frame decoder's
    # memoryview slices alike — one copy into the text object.
    text = str(payload, "utf-8")
    try:
        tree, end = _json_raw(text)
    except ValueError:
        return json.loads(text)  # exact stdlib error semantics
    if end != len(text):
        return json.loads(text)  # tolerate surrounding whitespace
    return tree


_LEN = struct.Struct(">I")

#: Hard cap on one frame; anything larger is a corrupt length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def _message_dataclasses() -> dict[str, type]:
    """Every message dataclass defined in :mod:`repro.protocols.messages`."""
    found: dict[str, type] = {}
    for name in dir(messages):
        obj = getattr(messages, name)
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == messages.__name__):
            found[name] = obj
    return found


#: name -> dataclass, the codec's message registry.
MESSAGE_TYPES: dict[str, type] = _message_dataclasses()

_FIELDS: dict[str, tuple[str, ...]] = {
    name: tuple(f.name for f in dataclasses.fields(cls))
    for name, cls in MESSAGE_TYPES.items()
}


class CodecError(ReproError):
    """Raised on malformed frames or unregistered payload types."""


# ----------------------------------------------------------------------
# Tree encoding (the reference implementation)
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        encoded = [_encode_value(item) for item in value]
        if encoded and isinstance(encoded[0], str) \
                and encoded[0].startswith("@"):
            # A client value like ["@t", ...] would otherwise be
            # indistinguishable from a tagged node: escape it.
            return ["@l", *encoded]
        return encoded
    if isinstance(value, tuple):
        return ["@t", *(_encode_value(item) for item in value)]
    if isinstance(value, Address):
        return ["@a", value.dc, value.partition, value.kind.value,
                value.index]
    if isinstance(value, Version):
        deps = getattr(value, "deps", None)
        if deps is not None:  # CopsVersion: dependency list + visibility
            return ["@cv", value.key, _encode_value(value.value), value.sr,
                    value.ut, len(value.dv),
                    [_encode_value(dep) for dep in deps],
                    bool(value.visible)]
        return ["@v", value.key, _encode_value(value.value), value.sr,
                value.ut, [int(x) for x in value.dv],
                bool(value.optimistic)]
    cls_name = type(value).__name__
    fields = _FIELDS.get(cls_name)
    if fields is not None and isinstance(value, MESSAGE_TYPES[cls_name]):
        return ["@m", cls_name,
                [_encode_value(getattr(value, f)) for f in fields]]
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def _decode_value(tree: Any) -> Any:
    if tree is None or isinstance(tree, (bool, int, float, str)):
        return tree
    if not isinstance(tree, list):
        raise CodecError(f"malformed wire tree: {tree!r}")
    if not tree or not isinstance(tree[0], str) or not tree[0].startswith("@"):
        return [_decode_value(item) for item in tree]
    tag = tree[0]
    if tag == "@l":  # escaped plain list whose head looked like a tag
        return [_decode_value(item) for item in tree[1:]]
    if tag == "@t":
        return tuple(_decode_value(item) for item in tree[1:])
    if tag == "@a":
        _, dc, partition, kind, index = tree
        return Address(dc=dc, partition=partition, kind=NodeKind(kind),
                       index=index)
    if tag == "@v":
        _, key, value, sr, ut, dv, optimistic = tree
        return Version(key=key, value=_decode_value(value), sr=sr, ut=ut,
                       dv=tuple(dv), optimistic=optimistic)
    if tag == "@cv":
        from repro.protocols.cops import CopsVersion
        _, key, value, sr, ut, num_dcs, deps, visible = tree
        return CopsVersion(key=key, value=_decode_value(value), sr=sr,
                           ut=ut, num_dcs=num_dcs,
                           deps=[_decode_value(dep) for dep in deps],
                           visible=visible)
    if tag == "@m":
        _, name, values = tree
        cls = MESSAGE_TYPES.get(name)
        if cls is None:
            raise CodecError(f"unknown message type on the wire: {name!r}")
        fields = _FIELDS[name]
        if len(values) != len(fields):
            raise CodecError(
                f"{name}: expected {len(fields)} fields, got {len(values)}"
            )
        return cls(**{f: _decode_value(v) for f, v in zip(fields, values)})
    raise CodecError(f"unknown wire tag {tag!r}")


# ----------------------------------------------------------------------
# Compiled per-dataclass codecs
#
# Every helper below is *total*: when a field value does not look like
# its declaration promised, it falls back to the reference walk on the
# whole value, so compiled output can never diverge from the tree codec
# on anything the tree codec accepts.
# ----------------------------------------------------------------------
def _enc_ivec(value: Any) -> Any:
    # list[Micros]: a plain list of ints passes through the tree codec
    # untouched (an int head can never collide with the tag space).
    if type(value) is list:
        for item in value:
            if type(item) is not int:
                return _encode_value(value)
        return value
    return _encode_value(value)


def _enc_ituple(value: Any) -> Any:
    if type(value) is tuple:
        for item in value:
            if type(item) is not int:
                return _encode_value(value)
        return ["@t", *value]
    return _encode_value(value)


def _enc_stuple(value: Any) -> Any:
    if type(value) is tuple:
        for item in value:
            if type(item) is not str:
                return _encode_value(value)
        return ["@t", *value]
    return _encode_value(value)


def _enc_address(value: Any) -> Any:
    if type(value) is Address:
        return ["@a", value.dc, value.partition, value.kind.value,
                value.index]
    return _encode_value(value)


def _enc_message(value: Any) -> Any:
    enc = _ENCODERS.get(type(value))
    return enc(value) if enc is not None else _encode_value(value)


def _enc_version(value: Any) -> Any:
    if isinstance(value, Version):
        deps = getattr(value, "deps", None)
        if deps is not None:
            return ["@cv", value.key, _encode_value(value.value), value.sr,
                    value.ut, len(value.dv),
                    [_enc_message(dep) for dep in deps],
                    bool(value.visible)]
        return ["@v", value.key, _encode_value(value.value), value.sr,
                value.ut, [int(x) for x in value.dv],
                bool(value.optimistic)]
    return _encode_value(value)


def _enc_msglist(value: Any) -> Any:
    if type(value) is list:
        out = []
        for item in value:
            enc = _ENCODERS.get(type(item))
            if enc is None:
                return _encode_value(value)
            out.append(enc(item))
        return out
    return _encode_value(value)


def _enc_version_list(value: Any) -> Any:
    if type(value) is list:
        out = []
        for item in value:
            if isinstance(item, Version):
                out.append(_enc_version(item))
            else:
                return _encode_value(value)
        return out
    return _encode_value(value)


def _enc_dep_tuple(value: Any) -> Any:
    if type(value) is tuple:
        out: list[Any] = ["@t"]
        for item in value:
            enc = _ENCODERS.get(type(item))
            if enc is None:
                return _encode_value(value)
            out.append(enc(item))
        return out
    return _encode_value(value)


def _dec_ivec(tree: Any) -> Any:
    if type(tree) is list:
        for item in tree:
            if type(item) is not int:
                return _decode_value(tree)
        return tree
    return _decode_value(tree)


def _dec_ituple(tree: Any) -> Any:
    if type(tree) is list and tree and tree[0] == "@t":
        items = tree[1:]
        for item in items:
            if type(item) is not int:
                return _decode_value(tree)
        return tuple(items)
    return _decode_value(tree)


def _dec_stuple(tree: Any) -> Any:
    if type(tree) is list and tree and tree[0] == "@t":
        items = tree[1:]
        for item in items:
            if type(item) is not str:
                return _decode_value(tree)
        return tuple(items)
    return _decode_value(tree)


#: Decoded-address intern table.  The address universe is bounded by the
#: cluster size, every Address is immutable, and equal addresses are
#: interchangeable everywhere (compared by value, hashed by value), so
#: the hot decode path reuses one instance per wire identity instead of
#: re-running the dataclass constructor and the NodeKind enum call on
#: every message.
_ADDRESS_INTERN: dict[tuple, Address] = {}


def _dec_address(tree: Any) -> Any:
    if type(tree) is list and len(tree) == 5 and tree[0] == "@a":
        key = (tree[1], tree[2], tree[3], tree[4])
        addr = _ADDRESS_INTERN.get(key)
        if addr is None:
            addr = _ADDRESS_INTERN[key] = Address(
                dc=tree[1], partition=tree[2], kind=NodeKind(tree[3]),
                index=tree[4])
        return addr
    return _decode_value(tree)


def _dec_message(tree: Any) -> Any:
    if type(tree) is list and len(tree) == 3 and tree[0] == "@m":
        dec = _DECODERS.get(tree[1])
        if dec is not None:
            return dec(tree[2])
    return _decode_value(tree)


def _dec_version(tree: Any) -> Any:
    if type(tree) is list and tree:
        tag = tree[0]
        if tag == "@v" and len(tree) == 7:
            return Version(key=tree[1], value=_decode_value(tree[2]),
                           sr=tree[3], ut=tree[4], dv=tuple(tree[5]),
                           optimistic=tree[6])
        if tag == "@cv" and len(tree) == 8:
            from repro.protocols.cops import CopsVersion
            return CopsVersion(key=tree[1], value=_decode_value(tree[2]),
                               sr=tree[3], ut=tree[4], num_dcs=tree[5],
                               deps=[_dec_message(dep) for dep in tree[6]],
                               visible=tree[7])
    return _decode_value(tree)


def _headed_by_tag(tree: list) -> bool:
    return bool(tree) and type(tree[0]) is str and tree[0].startswith("@")


def _dec_msglist(tree: Any) -> Any:
    if type(tree) is list and not _headed_by_tag(tree):
        return [_dec_message(item) for item in tree]
    return _decode_value(tree)


def _dec_version_list(tree: Any) -> Any:
    if type(tree) is list and not _headed_by_tag(tree):
        return [_dec_version(item) for item in tree]
    return _decode_value(tree)


def _dec_dep_tuple(tree: Any) -> Any:
    if type(tree) is list and tree and tree[0] == "@t":
        return tuple(_dec_message(item) for item in tree[1:])
    return _decode_value(tree)


#: Declared field type -> (field encoder, field decoder).  ``None`` means
#: the value passes through untouched in both directions (scalars).  Any
#: annotation not listed here takes the full reference walk.
_FIELD_CODECS: dict[str, tuple[Any, Any] | None] = {
    "str": None,
    "int": None,
    "bool": None,
    "float": None,
    "Micros": None,
    "ReplicaId": None,
    "Address": (_enc_address, _dec_address),
    "Version": (_enc_version, _dec_version),
    "list[Micros]": (_enc_ivec, _dec_ivec),
    "tuple[Micros, ...]": (_enc_ituple, _dec_ituple),
    "tuple[str, ...]": (_enc_stuple, _dec_stuple),
    "list[GetReply]": (_enc_msglist, _dec_msglist),
    "list[Version]": (_enc_version_list, _dec_version_list),
    "tuple[Dependency, ...]": (_enc_dep_tuple, _dec_dep_tuple),
}


def _compile_codecs() -> tuple[dict[type, Any], dict[str, Any]]:
    """Build one encoder and one decoder function per message dataclass.

    The generated source inlines the field list positionally — no
    ``getattr`` loop, no keyword-dict construction — and binds each
    non-scalar field to its fast-path helper.  Example (``GetReq``)::

        def _enc(m):
            return ["@m", "GetReq",
                    [m.key, _e1(m.rdv), _e2(m.client), m.op_id,
                     m.pessimistic]]
        def _dec(v):
            if len(v) != 5: raise CodecError(...)
            return _cls(v[0], _d1(v[1]), _d2(v[2]), v[3], v[4])
    """
    encoders: dict[type, Any] = {}
    decoders: dict[str, Any] = {}
    for name, cls in MESSAGE_TYPES.items():
        fields = dataclasses.fields(cls)
        ns: dict[str, Any] = {"_cls": cls, "CodecError": CodecError,
                              "_ev": _encode_value, "_dv": _decode_value}
        enc_parts, dec_parts = [], []
        for i, f in enumerate(fields):
            pair = _FIELD_CODECS.get(f.type, (_encode_value, _decode_value))
            if pair is None:  # declared scalar: passes through untouched
                enc_parts.append(f"m.{f.name}")
                dec_parts.append(f"v[{i}]")
            else:
                ns[f"_e{i}"], ns[f"_d{i}"] = pair
                enc_parts.append(f"_e{i}(m.{f.name})")
                dec_parts.append(f"_d{i}(v[{i}])")
        count = len(fields)
        # Bind every helper as a default argument: the generated bodies
        # then hit fast locals instead of namespace lookups per frame.
        bound = ", ".join(f"{key}={key}" for key in ns)
        src = (
            f"def _enc(m, {bound}):\n"
            f"    return ['@m', {name!r}, [{', '.join(enc_parts)}]]\n"
            f"def _dec(v, {bound}):\n"
            f"    if len(v) != {count}:\n"
            f"        raise CodecError(\n"
            f"            '{name}: expected {count} fields, got %d'\n"
            f"            % len(v))\n"
            f"    return _cls({', '.join(dec_parts)})\n"
        )
        exec(src, ns)  # noqa: S102 - source is assembled from literals
        encoders[cls] = ns["_enc"]
        decoders[name] = ns["_dec"]
    return encoders, decoders


_ENCODERS, _DECODERS = _compile_codecs()


def compiled_message_types() -> set[str]:
    """Names of the message types with a compiled encoder+decoder."""
    return set(_DECODERS)


# ----------------------------------------------------------------------
# Payload API (no length prefix)
# ----------------------------------------------------------------------
def dumps(msg: Any) -> bytes:
    """Serialize one message to its payload bytes (compiled fast path)."""
    enc = _ENCODERS.get(type(msg))
    if enc is not None:
        return _pack(enc(msg))
    return _pack(_encode_value(msg))


def loads(payload: bytes) -> Any:
    """The inverse of :func:`dumps`."""
    try:
        tree = _unpack(payload)
    except Exception as exc:
        # JSON decode errors (and invalid UTF-8) are stream corruption
        # to every caller.
        raise CodecError(f"undecodable payload: {exc}") from exc
    return _dec_message(tree)


def dumps_reference(msg: Any) -> bytes:
    """The reference tree walk, bypassing every compiled codec.

    The executable specification the compiled encoders are pinned
    byte-identical to (``tests/runtime/test_codec.py``).
    """
    return _pack(_encode_value(msg))


def loads_reference(payload: bytes) -> Any:
    """The reference tree decode, bypassing every compiled codec."""
    try:
        tree = _unpack(payload)
    except Exception as exc:
        raise CodecError(f"undecodable payload: {exc}") from exc
    return _decode_value(tree)


# ----------------------------------------------------------------------
# Frame API (length-prefixed, what the TCP transport and the WAL ship)
# ----------------------------------------------------------------------
#: One-slot frame memo: the last (message, frame) pair built.  Keyed by
#: object identity — the strong reference keeps ``is`` checks safe — so
#: ``encoded_size(msg)`` followed by ``encode_frame(msg)``, or one
#: payload fanned out to many destinations, serializes exactly once.
#: Relies on messages being immutable once handed over (they are; the
#: one mutable payload, COPS*'s ``visible`` flag, is always re-wrapped
#: in a fresh record tuple before re-encoding).
_FRAME_MEMO: tuple[Any, bytes] | None = None


def encode_frame(msg: Any) -> bytes:
    """One wire frame: 4-byte big-endian payload length + payload."""
    global _FRAME_MEMO
    memo = _FRAME_MEMO
    if memo is not None and memo[0] is msg:
        return memo[1]
    payload = dumps(msg)
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds the cap")
    frame = _LEN.pack(len(payload)) + payload
    _FRAME_MEMO = (msg, frame)
    return frame


def encoded_size(msg: Any) -> int:
    """Total frame bytes :func:`encode_frame` would produce.

    Shares :func:`encode_frame`'s memo: sizing a message primes the
    cache, so the send that follows does not serialize it again.
    """
    return len(encode_frame(msg))


class FrameDecoder:
    """Incremental frame parser for a TCP byte stream or a WAL file.

    Agnostic to transport batching: a sender may coalesce many frames
    into one ``write`` (see :mod:`repro.runtime.transport`), but the
    stream is still just concatenated length-prefixed frames, and
    :meth:`feed` returns every message a chunk completes regardless of
    how the bytes were grouped on the way in.

    Two failure shapes are kept apart, because their meanings differ:

    * an **incomplete trailing frame** — the stream simply ended (or has
      not yet delivered) mid-frame.  Not an error: :meth:`feed` returns
      the complete messages, :attr:`pending_bytes` is positive, and
      :attr:`consumed_bytes` is the *clean boundary*: the stream offset
      just past the last fully decoded frame.  WAL recovery truncates a
      torn tail exactly there; the live transport counts an
      abruptly-closed connection's partial frame instead of mistaking it
      for corruption.
    * **corruption** — a length prefix beyond :data:`MAX_FRAME_BYTES` or
      a *complete* frame whose payload does not decode.  :meth:`feed`
      raises :class:`CodecError` and leaves :attr:`consumed_bytes` at the
      boundary *before* the offending frame, so the caller can report
      where the stream went bad.
    """

    __slots__ = ("_buffer", "_consumed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._consumed = 0

    def feed(self, data: bytes) -> list[Any]:
        """Absorb ``data``; return every message completed by it.

        Eager on purpose: the bytes are buffered and parsed before this
        returns, so a caller that drops the result has still advanced the
        stream (a lazy generator would silently skip the chunk unless
        iterated, corrupting the framing of everything after it).
        """
        buffer = self._buffer
        buffer.extend(data)
        out: list[Any] = []
        append = out.append
        header = _LEN.size
        unpack_from = _LEN.unpack_from
        unpack_payload = _unpack
        dec_message = _dec_message
        size = len(buffer)
        pos = 0
        view = memoryview(buffer)
        try:
            while size - pos >= header:
                (length,) = unpack_from(buffer, pos)
                if length > MAX_FRAME_BYTES:
                    raise CodecError(
                        f"frame length {length} exceeds the cap "
                        "(corrupt stream?)"
                    )
                end = pos + header + length
                if size < end:
                    break
                # Decode before advancing: a corrupt complete frame must
                # not move the clean boundary past its own start.  The
                # payload is a zero-copy view into the buffer; decoders
                # materialize fresh objects, so nothing outlives the
                # loop.  This is loads() unrolled — the per-frame
                # wrapper call matters at batched-chunk frame rates.
                try:
                    tree = unpack_payload(view[pos + header:end])
                except Exception as exc:
                    raise CodecError(
                        f"undecodable payload: {exc}") from exc
                append(dec_message(tree))
                pos = end
        finally:
            view.release()
            if pos:
                self._consumed += pos
                try:
                    # One compaction per feed (a read-offset cursor walks
                    # the frames above), not one memmove per frame.
                    del buffer[:pos]
                except BufferError:
                    # A propagating decode error keeps its payload view
                    # alive through the exception traceback; the exported
                    # buffer cannot shrink, so hand it to the traceback
                    # and re-buffer the unconsumed tail.
                    self._buffer = bytearray(buffer[pos:])
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    @property
    def consumed_bytes(self) -> int:
        """Stream offset just past the last fully decoded frame.

        ``consumed_bytes + pending_bytes`` equals the total bytes fed.
        """
        return self._consumed
