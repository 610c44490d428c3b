"""Device snapshot/restore: reproducible state at constant cost.

Section 4.1 of the paper makes enforced device state the precondition
of every sound measurement — and building it (a random fill of the
whole device) its dominant cost: 5 hours to 35 days per real device.
The simulator pays the fill once per profile, captures the result in a
:class:`DeviceSnapshot`, and restores it wherever a fresh enforced
state is needed (benchmark-plan state resets, per-benchmark setup,
campaign worker processes).

Two properties make snapshots safe to share:

* they are *deep copies* — a snapshot is independent of the live
  device, both directions copy, so one snapshot supports any number of
  restores and a restored device cannot mutate the snapshot;
* they are *picklable* — the :class:`~repro.core.executor.CampaignExecutor`
  ships one snapshot per profile to its worker processes, which restore
  it onto freshly built devices; because the simulator is deterministic
  the workers' results are bit-identical to a sequential execution.

Snapshots hold only *authoritative* state: FTL-derived structures
(free/valid bitmaps, inverse maps, GC buckets) are rebuilt on restore,
and the chip's bad-block mask travels packed one-bit-per-block
(:class:`~repro.flashsim.bitmap.PackedBits`).

Every stateful layer participates: :class:`~repro.flashsim.chip.FlashChip`
(tokens, write points, wear counters, bad blocks), each ``ftl/*``
family (via :attr:`~repro.flashsim.ftl.base.BaseFTL._STATE_ATTRS`),
:class:`~repro.flashsim.cache.WriteBackCache`,
:class:`~repro.flashsim.controller.Controller` (verification shadow)
and :class:`~repro.flashsim.clock.SimClock`.

Zero-copy distribution
----------------------

For campaign-scale fan-out a snapshot additionally *packs* into flat
buffers (:func:`pack_snapshot`): a pickle protocol-5 metadata stream
plus the raw bytes of every numpy array and packed bitmap, extracted
out-of-band.  A :class:`SnapshotStore` lays packed snapshots out in
POSIX shared memory, content-addressed by the device-state fingerprint;
worker processes attach by segment name and unpickle the metadata
against read-only views of the shared buffers, so restoring N cells
ships the large state arrays through the process-pool pipe **zero**
times instead of N.  Restores copy out of the views (the usual
snapshot-stays-reusable contract), which also means a worker can never
corrupt the shared state.
"""

from __future__ import annotations

import pickle
import secrets
import struct
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flashsim.device import DeviceStats


@dataclass
class DeviceSnapshot:
    """Complete copy of a :class:`~repro.flashsim.device.FlashDevice` state.

    The identity fields (``device_name``, geometry dimensions,
    ``ftl_type``) guard restores: a snapshot only fits a device with the
    same shape, FTL family and cache configuration it was taken from.
    """

    device_name: str
    logical_bytes: int
    physical_blocks: int
    ftl_type: str
    chip: dict
    ftl: dict
    controller: dict
    stats: DeviceStats
    busy_until: float
    bg_credit: float
    noise_state: tuple
    #: per-channel busy horizons (empty = pre-queue snapshot, channels
    #: reset on restore) and the command-queue state (timeline plus
    #: occupancy counters; ``None`` = pre-queue snapshot, queue reset)
    channel_busy: tuple = ()
    queue: tuple | None = None


# ----------------------------------------------------------------------
# flat-buffer packing (pickle protocol 5, buffers out-of-band)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PackedSnapshot:
    """A :class:`DeviceSnapshot` separated into metadata and flat buffers.

    ``meta`` is a pickle protocol-5 stream describing the object graph;
    ``buffers`` holds the out-of-band payloads (numpy array data, packed
    bitmap bytes) in the order the stream references them.  The pair
    round-trips through :func:`unpack_snapshot`; because the buffers are
    plain bytes-like objects they can live anywhere — the process heap,
    a shared-memory segment, a file mapping — without re-pickling.
    """

    meta: bytes
    buffers: tuple

    @property
    def nbytes(self) -> int:
        """Total packed size: metadata plus every flat buffer."""
        return len(self.meta) + sum(_buffer_len(b) for b in self.buffers)


def _buffer_len(buffer) -> int:
    """Byte length of one packed buffer (memoryview or bytes)."""
    if isinstance(buffer, memoryview):
        return buffer.nbytes
    return len(buffer)


def _flatten(buffer: pickle.PickleBuffer):
    """One out-of-band buffer as a flat bytes-like object.

    Contiguous data stays a zero-copy view; the (rare) non-contiguous
    buffer is copied into bytes — pickle only needs the raw payload.
    """
    try:
        return buffer.raw()
    except BufferError:  # non-contiguous: copy once
        with memoryview(buffer) as view:
            return view.tobytes()


def pack_snapshot(snapshot: DeviceSnapshot) -> PackedSnapshot:
    """Pack a snapshot into flat buffers (see :class:`PackedSnapshot`).

    Every numpy array (and every :class:`~repro.flashsim.bitmap.PackedBits`
    payload) in the snapshot is extracted out-of-band via pickle
    protocol 5, leaving a small metadata stream; nothing large is
    copied — the buffers are views into the snapshot's own arrays, so
    the snapshot must stay alive while the packed form is in use.
    """
    raw: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(snapshot, protocol=5, buffer_callback=raw.append)
    return PackedSnapshot(meta=meta, buffers=tuple(_flatten(b) for b in raw))


def unpack_snapshot(packed: PackedSnapshot) -> DeviceSnapshot:
    """Rebuild a :class:`DeviceSnapshot` from its packed form.

    Arrays in the result reference the packed buffers directly (zero
    copy); restoring onto a device copies out of them, so the returned
    snapshot is safe to restore any number of times as long as the
    underlying buffers stay alive.
    """
    return pickle.loads(packed.meta, buffers=packed.buffers)


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------

#: segment format tag; written *last*, so a reader attaching to a
#: half-written segment sees its absence and can fail cleanly
_MAGIC = b"UFSNAP01"
_HEAD = struct.Struct("<QI")  # meta length, buffer count


def _tracked_name(name: str) -> str:
    """The name the resource tracker knows a POSIX segment by."""
    return name if name.startswith("/") else "/" + name


def _untrack(name: str) -> None:
    """Drop this process's resource-tracker claim on a segment.

    Attaching registers the segment with the process's resource tracker
    (Python <= 3.12); a worker that merely *uses* a parent-owned segment
    must release that claim, or a spawn-started worker's tracker would
    unlink the segment when the worker exits.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(_tracked_name(name), "shared_memory")
    except Exception:  # tracker gone / never registered: nothing to drop
        pass


def _track(name: str) -> None:
    """Claim a segment with this process's resource tracker.

    The owner of record holds exactly one claim: if the owning process
    is killed outright, its tracker unlinks the segment — the leak
    backstop behind the executor's explicit cleanup.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.register(_tracked_name(name), "shared_memory")
    except Exception:  # pragma: no cover - tracker unavailable
        pass


def segment_bytes(packed: PackedSnapshot) -> int:
    """Size in bytes of the shared-memory segment ``packed`` needs."""
    header = len(_MAGIC) + _HEAD.size + 8 * len(packed.buffers)
    return header + packed.nbytes


def write_segment(shm, packed: PackedSnapshot) -> None:
    """Lay a packed snapshot out in a shared-memory segment.

    Layout: magic, metadata length + buffer count, per-buffer lengths,
    metadata stream, then the flat buffers back to back.  The magic is
    written last, so a concurrent attacher can distinguish a fully
    written segment from one still being filled.
    """
    lens = [_buffer_len(b) for b in packed.buffers]
    need = segment_bytes(packed)
    if shm.size < need:
        raise SnapshotError(
            f"segment {shm.name} holds {shm.size} bytes; snapshot needs {need}"
        )
    buf = shm.buf
    buf[: len(_MAGIC)] = b"\0" * len(_MAGIC)
    offset = len(_MAGIC)
    _HEAD.pack_into(buf, offset, len(packed.meta), len(packed.buffers))
    offset += _HEAD.size
    struct.pack_into(f"<{len(lens)}Q", buf, offset, *lens)
    offset += 8 * len(lens)
    buf[offset : offset + len(packed.meta)] = packed.meta
    offset += len(packed.meta)
    for buffer, length in zip(packed.buffers, lens):
        buf[offset : offset + length] = bytes(buffer) if not isinstance(
            buffer, (bytes, memoryview)
        ) else buffer
        offset += length
    buf[: len(_MAGIC)] = _MAGIC  # commit


def read_segment(shm) -> DeviceSnapshot:
    """Unpickle the snapshot laid out in a shared-memory segment.

    The result's arrays are **read-only views into the segment** — zero
    bytes are copied here.  The caller must keep the ``shm`` handle (and
    the segment) alive for as long as the snapshot is in use; device
    restores copy out of the views, so the views themselves are never
    written.
    """
    buf = shm.buf
    if bytes(buf[: len(_MAGIC)]) != _MAGIC:
        raise SnapshotError(
            f"segment {shm.name} carries no complete packed snapshot"
        )
    offset = len(_MAGIC)
    meta_len, count = _HEAD.unpack_from(buf, offset)
    offset += _HEAD.size
    lens = struct.unpack_from(f"<{count}Q", buf, offset)
    offset += 8 * count
    meta = bytes(buf[offset : offset + meta_len])
    offset += meta_len
    views = []
    for length in lens:
        views.append(buf[offset : offset + length].toreadonly())
        offset += length
    return pickle.loads(meta, buffers=views)


def attach_segment(name: str):
    """Attach to a published segment by name; returns ``(shm, snapshot)``.

    Worker-process entry point: the returned snapshot's arrays are
    read-only views into the mapping, and the handle must be kept alive
    alongside it.  The attach drops its resource-tracker claim — the
    publishing executor owns the segment's lifetime, not the attacher.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    _untrack(name)
    try:
        return shm, read_segment(shm)
    except Exception:
        shm.close()
        raise


def _unlink_segments(names: list) -> None:
    """Best-effort unlink of every named segment (finalizer target).

    Module-level (not a bound method) so a :class:`SnapshotStore`
    finalizer holds no reference back to the store.
    """
    from multiprocessing import shared_memory

    while names:
        name = names.pop()
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - platform quirk
            continue
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another unlink
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live exports die with us
            pass


class SnapshotStore:
    """Content-addressed shared-memory store of packed snapshots.

    Segments are keyed by the device-state fingerprint (the same hash
    that keys run-cache entries), under names unique to one store
    ``token`` — so concurrent campaigns never collide, and one campaign
    publishing the same state twice reuses the first segment.

    The store guarantees cleanup: every published **or adopted** segment
    is unlinked by :meth:`close`, and a ``weakref`` finalizer (backed by
    the interpreter's ``atexit`` machinery) unlinks whatever is left if
    the owner forgets — including when worker processes crashed
    mid-campaign.  A hard-killed owner is covered by the
    ``multiprocessing`` resource tracker, with which the store keeps one
    claim per segment.
    """

    def __init__(self, token: str | None = None) -> None:
        self.token = token or secrets.token_hex(4)
        #: name -> SharedMemory handle (None for adopted segments, whose
        #: creating worker holds the only mapping)
        self._segments: dict[str, object | None] = {}
        self._by_fingerprint: dict[str, str] = {}
        #: bytes of packed snapshot payload currently published
        self.packed_bytes = 0
        self._names: list[str] = []  # shared with the finalizer
        self._finalizer = weakref.finalize(self, _unlink_segments, self._names)
        # start the resource tracker *now*, in the store's owner: workers
        # forked later share it, so their registrations collapse into one
        # tracker instead of per-worker trackers that would unlink
        # still-live segments when a worker exits
        from multiprocessing import resource_tracker

        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker unavailable
            pass

    def __len__(self) -> int:
        return len(self._segments)

    def segment_names(self) -> tuple[str, ...]:
        """Names of every segment this store is responsible for."""
        return tuple(self._segments)

    def name_for(self, fingerprint: str) -> str:
        """Deterministic segment name of one fingerprint in this store."""
        return f"ufsnp-{self.token}-{fingerprint[:16]}"

    def get(self, fingerprint: str) -> str | None:
        """Segment name already published for ``fingerprint``, or None."""
        return self._by_fingerprint.get(fingerprint)

    def publish(self, fingerprint: str, snapshot: DeviceSnapshot) -> tuple[str, int]:
        """Pack ``snapshot`` into a segment; returns ``(name, bytes)``.

        Content-addressed: publishing a fingerprint that is already in
        the store returns the existing segment without re-packing.
        Raises ``OSError`` where shared memory is unavailable — callers
        fall back to shipping pickled snapshots.
        """
        from multiprocessing import shared_memory

        existing = self._by_fingerprint.get(fingerprint)
        if existing is not None:
            return existing, 0
        packed = pack_snapshot(snapshot)
        name = self.name_for(fingerprint)
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(segment_bytes(packed), 1)
        )
        try:
            write_segment(shm, packed)
        except Exception:
            shm.unlink()
            shm.close()
            raise
        self._segments[name] = shm
        self._by_fingerprint[fingerprint] = name
        self._names.append(name)
        self.packed_bytes += packed.nbytes
        return name, packed.nbytes

    def adopt(self, fingerprint: str, name: str, nbytes: int = 0) -> None:
        """Take ownership of a segment a worker process published.

        The worker dropped its resource-tracker claim when it created
        the segment; adoption claims it here, so the store's owner both
        unlinks it on :meth:`close` and backstops a hard kill.
        """
        if name in self._segments:
            return
        _track(name)
        self._segments[name] = None
        self._by_fingerprint[fingerprint] = name
        self._names.append(name)
        self.packed_bytes += nbytes

    def fetch(self, fingerprint: str) -> DeviceSnapshot | None:
        """An independent (fully copied) snapshot of a stored state.

        Attaches to the fingerprint's segment, deep-copies the snapshot
        out of the shared views and detaches — for consumers that need
        the snapshot to outlive the store (e.g. adopting a
        worker-enforced state into a parent-side pool).  Returns None
        when the fingerprint is not stored.
        """
        from multiprocessing import shared_memory

        name = self._by_fingerprint.get(fingerprint)
        if name is None:
            return None
        handle = self._segments.get(name)
        shm = handle
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            _untrack(name)
        try:
            shared = read_segment(shm)
            clone = pickle.loads(pickle.dumps(shared, protocol=5))
            del shared
            return clone
        finally:
            if handle is None:  # only close handles opened here
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - views still live
                    pass

    def close(self) -> None:
        """Unlink every segment; idempotent, also runs at interpreter exit."""
        self._segments.clear()
        self._by_fingerprint.clear()
        self.packed_bytes = 0
        if self._finalizer.alive:
            self._finalizer()  # drains self._names

    def __enter__(self) -> "SnapshotStore":
        """Context-manager support: the store closes on block exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Unlink all segments when the ``with`` block ends."""
        self.close()


def publish_from_worker(token: str, fingerprint: str, snapshot: DeviceSnapshot):
    """Publish a snapshot from a worker process into its parent's store.

    Creates (or, racing another worker on the same content, reuses) the
    store-deterministic segment for ``fingerprint`` and immediately
    drops the worker's resource-tracker claim — the parent adopts the
    segment when the prepare result arrives.  Returns
    ``(shm, snapshot, name, packed_bytes)``; the worker must keep the
    handle alive while any of its restores use the snapshot.  Raises
    ``OSError`` where shared memory is unavailable.
    """
    from multiprocessing import shared_memory

    name = f"ufsnp-{token}-{fingerprint[:16]}"
    packed = pack_snapshot(snapshot)
    try:
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(segment_bytes(packed), 1)
        )
    except FileExistsError:
        # same content published by a sibling worker: reuse it (the
        # worker's own snapshot object serves for local restores)
        shm = shared_memory.SharedMemory(name=name)
        _untrack(name)
        return shm, snapshot, name, packed.nbytes
    _untrack(name)
    try:
        write_segment(shm, packed)
    except Exception:
        shm.unlink()
        shm.close()
        raise
    return shm, snapshot, name, packed.nbytes


__all__ = [
    "DeviceSnapshot",
    "PackedSnapshot",
    "SnapshotStore",
    "attach_segment",
    "pack_snapshot",
    "publish_from_worker",
    "read_segment",
    "segment_bytes",
    "unpack_snapshot",
    "write_segment",
]
