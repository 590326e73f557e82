"""The on-disk format, frozen as bytes: a committed format-1 data directory.

``fixtures/format1/`` is one partition directory written by the code at
commit 844b9a9 (the last build with a second, optional serializer; it
ran on compact-JSON frames, the only ones since).  It was made once, by:

* ``write_snapshot(dir, versions, vv=[1000, 1500], wal_seq=2,
  num_dcs=2)`` over two plain versions — ``k00000001`` (sr 0, ut 1000,
  value ``("c", 1)``) and ``k00000002`` (sr 1, ut 1500, a non-optimistic
  version whose list value ``["@x", 2.5, None]`` needs the ``@l``
  escape);
* ``WriteAheadLog(dir, fsync="off", start_seq=2)`` appending a newer
  ``k00000001`` version (sr 0, ut 2000), a ``CopsVersion`` of
  ``k00000003`` (sr 1, ut 2100, one ``Dependency``, value ``"vé"``)
  with ``visible=False``, the view ``(3, (0, 1), 64)``, and the same
  ``CopsVersion`` re-logged with ``visible=True``; then ``close()``;
* appending the first ``len(frame) - 7`` bytes of one more version
  frame (``k00000004``) as a torn final frame.

Nothing regenerates it: any codec or WAL change that alters a byte on
disk fails here instead of surfacing as "corruption" on a real data
directory.
"""

import shutil
from pathlib import Path

from repro.persistence.manager import recover_directory
from repro.persistence.snapshot import SNAPSHOT_NAME
from repro.persistence.wal import read_segment
from repro.protocols.cops import CopsVersion
from repro.protocols.messages import Dependency
from repro.runtime import codec

FIXTURE = Path(__file__).parent / "fixtures" / "format1"
SEGMENT = "wal-00000002.log"
TORN_BYTES = 63


def _copy(tmp_path) -> Path:
    target = tmp_path / "dc0-p0"
    shutil.copytree(FIXTURE, target)
    return target


def _shape(version) -> tuple:
    return (type(version).__name__, version.key, version.value, version.sr,
            version.ut, tuple(version.dv), version.optimistic)


def test_format1_directory_recovers_exactly(tmp_path):
    directory = _copy(tmp_path)
    state = recover_directory(directory)

    assert [_shape(v) for v in state.versions] == [
        ("Version", "k00000001", ("c", 1), 0, 1000, (0, 0), True),
        ("Version", "k00000002", ["@x", 2.5, None], 1, 1500, (900, 0),
         False),
        ("Version", "k00000001", ("c", 3), 0, 2000, (1000, 1500), True),
        ("CopsVersion", "k00000003", "vé", 1, 2100, (0, 0), True),
    ]
    cops = state.versions[-1]
    assert isinstance(cops, CopsVersion)
    # The later record won: the re-logged copy with the flag flipped.
    assert cops.visible is True
    assert cops.deps == (Dependency(key="k00000001", ut=2000, sr=0),)

    assert state.vv == [1000, 1500]
    assert (state.view_epoch, tuple(state.view_members),
            state.view_vnodes) == (3, (0, 1), 64)
    assert state.snapshot_versions == 2
    assert state.snapshot_wal_seq == 2
    assert state.wal_records == 3
    assert state.segments_replayed == 1
    assert state.segments_deleted == 0
    assert state.torn_bytes_truncated == TORN_BYTES
    assert (directory / SEGMENT).stat().st_size == \
        (FIXTURE / SEGMENT).stat().st_size - TORN_BYTES


def test_format1_frames_re_encode_to_the_same_bytes():
    """Decode then encode every complete frame: the bytes are unchanged,
    so today's writer produces exactly what a format-1 reader expects."""
    for name in (SNAPSHOT_NAME, SEGMENT):
        path = FIXTURE / name
        records, clean_offset, _ = read_segment(path)
        rebuilt = b"".join(codec.encode_frame(r) for r in records)
        assert rebuilt == path.read_bytes()[:clean_offset], name
