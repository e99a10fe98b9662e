"""Functional model of the board's DDR3 global memory.

A flat little-endian byte-addressable store backed by a NumPy array.
The MicroBlaze host, the ultra-threaded dispatcher and the compute
units all read and write through this object; timing is handled
separately by :class:`repro.mem.system.MemorySystem` so that the same
functional state serves every architecture generation.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

#: Per-lane byte offsets used by the vectorised unaligned dword paths.
_BYTE_OFFSETS = np.arange(4, dtype=np.int64)


def dedup_keep_last(indices, values):
    """Resolve duplicate store indices to last-occurrence-wins.

    NumPy fancy assignment leaves the result for duplicated indices
    unspecified ("the last value wins" is an implementation detail the
    docs explicitly refuse to guarantee); the architectural contract --
    the reference per-lane loop in :mod:`repro.cu.lsu` -- is
    last-active-lane-wins.  Returns ``(indices, values)`` safe to fancy
    assign: when duplicates exist, each index is kept once with the
    value of its highest-position occurrence.
    """
    if indices.size < 2 or bool((indices[1:] > indices[:-1]).all()):
        # Strictly increasing (the overwhelmingly common base+stride
        # pattern) cannot contain duplicates -- skip the unique() pass.
        return indices, values
    rev = indices[::-1]
    unique, first = np.unique(rev, return_index=True)
    if unique.size == rev.size:
        return indices, values
    return unique, values[::-1][first]


class GlobalMemory:
    """Byte-addressable DDR3 memory image.

    Word accessors operate on aligned 32-bit little-endian dwords, the
    granularity of every MIAOW2.0 memory instruction; byte accessors
    back the ``buffer_load_ubyte``-family used by the INT8 kernels.
    """

    def __init__(self, size=1 << 24):
        self.size = int(size)
        self._bytes = np.zeros(self.size, dtype=np.uint8)
        #: High-water mark of written bytes: everything at or above
        #: this address is still power-on zero.  Lets :meth:`reset`
        #: clear only the written prefix instead of the whole store
        #: (a visible cost on every warm-board lease).
        self.dirty_hi = 0

    # -- bounds -------------------------------------------------------------

    def _check(self, addr, nbytes):
        if addr < 0 or addr + nbytes > self.size:
            raise SimulationError(
                "global memory access out of range: 0x{:x}+{} (size 0x{:x})".format(
                    addr, nbytes, self.size
                )
            )

    # -- scalar accessors ----------------------------------------------------

    def read_u32(self, addr):
        self._check(addr, 4)
        return int(self._bytes[addr:addr + 4].view(np.uint32)[0])

    def write_u32(self, addr, value):
        self._check(addr, 4)
        self._bytes[addr:addr + 4].view(np.uint32)[0] = np.uint32(value & 0xFFFFFFFF)
        if addr + 4 > self.dirty_hi:
            self.dirty_hi = addr + 4

    def read_u8(self, addr):
        self._check(addr, 1)
        return int(self._bytes[addr])

    def write_u8(self, addr, value):
        self._check(addr, 1)
        self._bytes[addr] = np.uint8(value & 0xFF)
        if addr + 1 > self.dirty_hi:
            self.dirty_hi = addr + 1

    # -- vectorised accessors (one wavefront's lanes at once) ----------------

    def _check_lanes(self, addrs, active, nbytes):
        if active.size == 0:
            return None
        lo = int(addrs[active].min())
        hi = int(addrs[active].max())
        if lo < 0 or hi + nbytes > self.size:
            raise SimulationError(
                "global memory access out of range: 0x{:x}..0x{:x} (size 0x{:x})".format(
                    lo, hi + nbytes, self.size
                )
            )
        return hi + nbytes

    def gather_u32(self, addrs, mask):
        """Read a uint32 per active lane; inactive lanes return 0.

        Dword-aligned accesses (the only kind our kernels emit) take a
        vectorised fast path through a uint32 view of the store.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.zeros(len(addrs), dtype=np.uint32)
        active = np.flatnonzero(mask)
        if active.size == 0:
            return out
        self._check_lanes(addrs, active, 4)
        sel = addrs[active]
        if not (sel & 3).any():
            out[active] = self._bytes.view(np.uint32)[sel >> 2]
            return out
        # Unaligned: gather each lane's four bytes and reassemble the
        # little-endian dwords in one shot (bit-identical to per-lane
        # read_u32 -- both go through the store's native byte order).
        lane_bytes = self._bytes[sel[:, None] + _BYTE_OFFSETS]
        out[active] = np.ascontiguousarray(lane_bytes).view(np.uint32).ravel()
        return out

    def scatter_u32(self, addrs, values, mask):
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint32)
        active = np.flatnonzero(mask)
        if active.size == 0:
            return
        end = self._check_lanes(addrs, active, 4)
        if end > self.dirty_hi:
            self.dirty_hi = end
        sel = addrs[active]
        if not (sel & 3).any():
            idx, vals = dedup_keep_last(sel >> 2, values[active])
            self._bytes.view(np.uint32)[idx] = vals
            return
        # Unaligned: flatten to byte stores in lane-then-byte order so
        # overlapping dword ranges resolve exactly like the sequential
        # per-lane write_u32 loop, then dedup-keep-last per byte.
        byte_idx = (sel[:, None] + _BYTE_OFFSETS).ravel()
        byte_vals = np.ascontiguousarray(values[active])[:, None] \
            .view(np.uint8).ravel()
        idx, vals = dedup_keep_last(byte_idx, byte_vals)
        self._bytes[idx] = vals

    def gather_u8(self, addrs, mask, signed=False):
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.zeros(len(addrs), dtype=np.uint32)
        active = np.flatnonzero(mask)
        if active.size == 0:
            return out
        self._check_lanes(addrs, active, 1)
        raw = self._bytes[addrs[active]]
        if signed:
            out[active] = raw.astype(np.int8).astype(np.int32).astype(np.uint32)
        else:
            out[active] = raw.astype(np.uint32)
        return out

    def scatter_u8(self, addrs, values, mask):
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint32)
        active = np.flatnonzero(mask)
        if active.size == 0:
            return
        end = self._check_lanes(addrs, active, 1)
        if end > self.dirty_hi:
            self.dirty_hi = end
        idx, vals = dedup_keep_last(addrs[active],
                                    (values[active] & 0xFF).astype(np.uint8))
        self._bytes[idx] = vals

    # -- bulk transfer (host / dispatcher side) -------------------------------

    def write_block(self, addr, data):
        """Copy a bytes-like or NumPy array into memory at ``addr``."""
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        self._check(addr, raw.size)
        self._bytes[addr:addr + raw.size] = raw
        if addr + raw.size > self.dirty_hi:
            self.dirty_hi = addr + raw.size

    def read_block(self, addr, nbytes, dtype=np.uint8):
        self._check(addr, nbytes)
        out = self._bytes[addr:addr + nbytes].copy()
        return out.view(dtype)

    def fill(self, addr, nbytes, byte=0):
        self._check(addr, nbytes)
        self._bytes[addr:addr + nbytes] = np.uint8(byte)
        if byte and addr + nbytes > self.dirty_hi:
            # Zero fills never extend the dirty prefix: bytes above it
            # are zero already.
            self.dirty_hi = addr + nbytes

    def reset(self):
        """Return every byte to power-on zero.

        Only the written prefix (``dirty_hi``) is cleared -- bytes
        above it were never touched -- which makes warm-board reuse
        cost proportional to the previous job's footprint rather than
        the full store size.
        """
        if self.dirty_hi:
            self._bytes[:self.dirty_hi] = 0
            self.dirty_hi = 0

    def snapshot_prefix(self):
        """The written prefix ``[0, dirty_hi)`` as raw ``bytes``.

        Everything above it is power-on zero, so the prefix is the
        whole memory state at the cost of the job's footprint (see
        :meth:`restore_prefix`).
        """
        return self._bytes[:self.dirty_hi].tobytes()

    def restore_prefix(self, image):
        """Restore a :meth:`snapshot_prefix` image in place.

        Copies the prefix and zeroes only ``[len(image), dirty_hi)`` --
        the rest of the store is zero already -- so the cost follows
        the footprints involved, not the store size.  ``dirty_hi``
        becomes ``len(image)``, keeping the next snapshot prefix-sized.
        """
        prefix = np.frombuffer(image, dtype=np.uint8)
        self._check(0, prefix.size)
        self._bytes[:prefix.size] = prefix
        if self.dirty_hi > prefix.size:
            self._bytes[prefix.size:self.dirty_hi] = 0
        self.dirty_hi = prefix.size

    def snapshot(self):
        """Copy of the full memory image (see :meth:`restore`)."""
        return self._bytes.copy()

    def restore(self, image):
        """Restore an image captured by :meth:`snapshot`."""
        np.copyto(self._bytes, image)
        # The image may contain nonzero bytes anywhere; be conservative.
        self.dirty_hi = self.size
