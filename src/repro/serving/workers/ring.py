"""Fixed-slot shared-memory ring: zero-copy batch transport per worker.

Pickling a request batch and its response arrays across the process
boundary costs two serialisations plus two copies per direction, all on
the glue-bound hot path.  A :class:`BatchRing` removes the pickling and
the parent-side intermediate copy entirely:

* Each worker owns one shared-memory segment holding ``slots`` fixed-size
  slots (the process pool creates two-slot rings — see *Ownership*).  A
  slot has a **request region** and a **response region**, each a small
  int64 header (array count, dtype codes, shapes) followed by a
  64-byte-aligned payload area.
* The parent *stages* a microbatch by writing request rows straight into
  the slot's payload (:meth:`stage_request` hands out the destination
  view, so batch assembly is the only copy on the parent side).
* The pipe remains as a **doorbell** carrying only ``(seq, token, slot)``
  — kilobyte-free.  The worker maps the same slot
  (:meth:`read_request` returns an ndarray view, no copy), computes, and
  writes the result arrays into the response region
  (:meth:`write_response`); the parent reads them back as views
  (:meth:`read_response`) and assembles per-request results.

**Ownership.**  A slot belongs to one ``(request, response)`` exchange of
the handle in ``procpool`` from :meth:`stage_request` until its response
has been fully assembled, and the worker may touch it only between
receiving its doorbell and sending its acknowledgement.  The worker is
serial, so two slots are all it can use: one under the batch it computes,
one holding the batch staged behind it.  Responses read as views must be
consumed (or copied) *before* the exchange ends.

**Sizing.**  The regions are sized once, at creation, from the geometry the
pool serves: :func:`payload_bytes` is the capacity that holds a list of
arrays exactly, under the same placement rule the regions use (every array
starts on a 64-byte boundary).  A batch or response that does not fit
anyway is a broken contract, not a case to serve: :meth:`stage_request` and
:meth:`write_response` raise, naming the capacity and the need, and a ring
whose segment is gone raises :class:`~repro.serving.workers.roster
.ReplicaDied` — its worker was reaped.

Segments attach through the same per-process cache as the parameter arena
(:func:`repro.nn.shm.open_attached_segment`), inheriting its
resource-tracker discipline; the parent owns every ring segment and
unlinks it on worker reap / pool stop.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ...nn.shm import destroy_segment, open_attached_segment
from .roster import ReplicaDied

__all__ = ["BatchRing", "RingManifest", "payload_bytes"]

#: most arrays one response may carry (MC: 1, early-exit: 2; headroom)
_MAX_ARRAYS = 4
#: most dimensions one array may have
_MAX_DIMS = 8
#: supported payload dtypes, by header code
_DTYPES: dict[int, np.dtype] = {0: np.dtype(np.float64), 1: np.dtype(np.int64)}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}

#: int64 words per region header: [narrays | per array: dtype, ndim, shape…]
_HEADER_WORDS = 1 + _MAX_ARRAYS * (2 + _MAX_DIMS)
_ALIGN = 64
_HEADER_BYTES = -(-_HEADER_WORDS * 8 // _ALIGN) * _ALIGN


def _align(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _offsets(arrays) -> tuple[list[int], int]:
    """Each ``(shape, dtype)``'s start in a payload area, and the last one's end."""
    offsets: list[int] = []
    end = 0
    for shape, dtype in arrays:
        offsets.append(_align(end))
        end = offsets[-1] + math.prod(shape) * np.dtype(dtype).itemsize
    return offsets, end


def payload_bytes(arrays) -> int:
    """The region capacity that holds ``(shape, dtype)`` pairs exactly."""
    return _offsets(arrays)[1]


@dataclass(frozen=True)
class RingManifest:
    """Picklable description of one worker's ring, sent at spawn."""

    segment_name: str
    slots: int
    request_bytes: int
    response_bytes: int


class BatchRing:
    """Fixed-slot SPSC request/response ring over one shm segment.

    Created (and eventually unlinked) by the parent; the worker attaches
    via the :class:`RingManifest`.  ``request_bytes`` / ``response_bytes``
    are payload capacities per slot, excluding headers.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        slots: int,
        request_bytes: int,
        response_bytes: int,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.slots = slots
        self._request_bytes = request_bytes
        self._response_bytes = response_bytes
        self._owner = owner
        self._released = False
        # header views are at fixed offsets with a fixed dtype, so they are
        # built once per (slot, region) and reused on every exchange — view
        # construction was a measurable share of per-batch glue
        self._headers: dict[tuple[int, bool], np.ndarray] = {}
        self._slot_bytes = (
            _HEADER_BYTES
            + _align(request_bytes)
            + _HEADER_BYTES
            + _align(response_bytes)
        )
        if owner:
            # last-resort cleanup, mirroring SharedParameterArena: a pool
            # that never reaches stop() must not leak /dev/shm segments
            self._finalizer = weakref.finalize(self, destroy_segment, segment)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, slots: int, request_bytes: int, response_bytes: int) -> "BatchRing":
        """Allocate a ring of ``slots`` fixed-size slots (parent side)."""
        if slots <= 0:
            raise ValueError("slots must be positive")
        if request_bytes <= 0 or response_bytes <= 0:
            raise ValueError("slot payload capacities must be positive")
        slot_bytes = (
            _HEADER_BYTES
            + _align(request_bytes)
            + _HEADER_BYTES
            + _align(response_bytes)
        )
        segment = shared_memory.SharedMemory(create=True, size=slots * slot_bytes)
        return cls(segment, slots, request_bytes, response_bytes, owner=True)

    @classmethod
    def attached(cls, manifest: RingManifest) -> "BatchRing":
        """Attach to an existing ring (worker side)."""
        segment = open_attached_segment(manifest.segment_name)
        return cls(
            segment,
            manifest.slots,
            manifest.request_bytes,
            manifest.response_bytes,
            owner=False,
        )

    @property
    def manifest(self) -> RingManifest:
        return RingManifest(
            segment_name=self._segment.name,
            slots=self.slots,
            request_bytes=self._request_bytes,
            response_bytes=self._response_bytes,
        )

    # ------------------------------------------------------------------ #
    # region plumbing
    # ------------------------------------------------------------------ #
    def _region(self, slot: int, response: bool) -> tuple[int, int]:
        """(payload offset, payload capacity) of one slot region."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range [0, {self.slots})")
        base = slot * self._slot_bytes
        if response:
            base += _HEADER_BYTES + _align(self._request_bytes)
            return base + _HEADER_BYTES, self._response_bytes
        return base + _HEADER_BYTES, self._request_bytes

    def _header(self, slot: int, response: bool) -> np.ndarray:
        header = self._headers.get((slot, response))
        if header is None:
            payload_off, _ = self._region(slot, response)
            header = np.ndarray(
                (_HEADER_WORDS,),
                dtype=np.int64,
                buffer=self._segment.buf,
                offset=payload_off - _HEADER_BYTES,
            )
            self._headers[(slot, response)] = header
        return header

    def _write_region(self, slot: int, response: bool, arrays) -> list[np.ndarray]:
        """Describe ``arrays`` in the region header; return destination views.

        ``arrays`` is a sequence of ``(shape, dtype)`` pairs.  Raises, with
        the header untouched, when the region was not sized for them.
        """
        if self._released:
            raise ReplicaDied("the ring's segment was released with its worker")
        header = self._header(slot, response)
        payload_off, capacity = self._region(slot, response)
        offsets, need = _offsets(arrays)
        if need > capacity or len(arrays) > _MAX_ARRAYS:
            raise ValueError(
                f"the {'response' if response else 'request'} region of a ring slot "
                f"holds {capacity} bytes in at most {_MAX_ARRAYS} arrays; "
                f"{need} bytes are needed for {list(arrays)}"
            )
        views: list[np.ndarray] = []
        words: list[int] = [len(arrays)]
        for (shape, dtype), offset in zip(arrays, offsets):
            dtype = np.dtype(dtype)
            code = _DTYPE_CODES.get(dtype)
            if code is None or len(shape) > _MAX_DIMS:
                raise ValueError(f"a ring slot cannot carry {dtype}{tuple(shape)}")
            views.append(
                np.ndarray(
                    tuple(shape),
                    dtype=dtype,
                    buffer=self._segment.buf,
                    offset=payload_off + offset,
                )
            )
            words.extend([code, len(shape), *shape, *([0] * (_MAX_DIMS - len(shape)))])
        header[: len(words)] = words
        return views

    def _read_region(self, slot: int, response: bool) -> list[np.ndarray]:
        """Fresh ndarray views over a region's arrays, per its header.

        A *new* view object per call: downstream activation caches key on
        array identity, so a recycled slot must never resurface as the
        same Python object.
        """
        # one C-level tolist beats per-word ndarray indexing on this path
        words = self._header(slot, response).tolist()
        payload_off, _ = self._region(slot, response)
        arrays = []
        for word in range(1, 1 + words[0] * (2 + _MAX_DIMS), 2 + _MAX_DIMS):
            shape = words[word + 2 : word + 2 + words[word + 1]]
            arrays.append((tuple(shape), _DTYPES[words[word]]))
        return [
            np.ndarray(
                shape, dtype=dtype, buffer=self._segment.buf, offset=payload_off + start
            )
            for (shape, dtype), start in zip(arrays, _offsets(arrays)[0])
        ]

    # ------------------------------------------------------------------ #
    # parent side
    # ------------------------------------------------------------------ #
    def stage_request(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """Destination view for one float64 request batch.

        The caller assembles the microbatch by writing rows directly into
        the returned view — there is no intermediate stacked array.
        """
        return self._write_region(slot, False, [(shape, np.float64)])[0]

    def read_response(self, slot: int) -> list[np.ndarray]:
        """The response arrays a worker left in ``slot``, as views.

        Views alias the slot: consume them before the slot's next exchange
        (``assemble_results`` does — its results alias nothing of its input).
        """
        return self._read_region(slot, response=True)

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def read_request(self, slot: int) -> np.ndarray:
        """The staged request batch in ``slot``, as a fresh view."""
        return self._read_region(slot, response=False)[0]

    def write_response(self, slot: int, arrays) -> None:
        """Copy result arrays into the response region."""
        views = self._write_region(slot, True, [(a.shape, a.dtype) for a in arrays])
        for view, array in zip(views, arrays):
            view[...] = array

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Owner: unlink the segment; attached: drop the local mapping.

        Idempotent.  Attached (worker-side) rings only close their handle
        indirectly via process exit — the mapping is shared through the
        per-process segment cache, mirroring the parameter arena.
        """
        if self._released:
            return
        self._released = True
        self._headers.clear()  # drop cached views so close() can unmap
        if self._owner:
            self._finalizer()  # close + unlink, exactly once
