"""Control and status register map.

Standard user counters plus the HWST128 configuration CSRs described in
the paper (Section 3.3/3.5): the linear-mapped shadow-memory offset used
by the shadow memory address calculator (SMAC, Eq. 1), the 24-bit packed
metadata bit-width register consumed by the COMP/DECOMP units, and the
lock-table window used by the temporal runtime.
"""

from __future__ import annotations

from repro import bits

# Standard read-only user counters.
CYCLE = 0xC00
TIME = 0xC01
INSTRET = 0xC02

# HWST128 configuration CSRs (custom read/write space).
HWST_SM_OFFSET = 0x800     # csr.sm.offset in Fig. 1 — LMSM base offset
HWST_META_WIDTHS = 0x801   # 24-bit packed field widths (Fig. 2 / Eq. 3-6)
HWST_LOCK_BASE = 0x802     # first lock_location address
HWST_LOCK_LIMIT = 0x803    # one past the last lock_location address
HWST_STATUS = 0x804        # bit0: enable checks, bit1: enable keybuffer

ALL_CSRS = (
    CYCLE, TIME, INSTRET,
    HWST_SM_OFFSET, HWST_META_WIDTHS,
    HWST_LOCK_BASE, HWST_LOCK_LIMIT, HWST_STATUS,
)

# Layout of HWST_META_WIDTHS: four 6-bit width fields packed into 24 bits.
# [5:0] base width, [11:6] range width, [17:12] lock width, [23:18] key width.
_WIDTH_FIELD_BITS = 6


def pack_meta_widths(base: int, range_: int, lock: int, key: int) -> int:
    """Pack the four metadata field widths into the 24-bit CSR value."""
    for name, width in (("base", base), ("range", range_),
                        ("lock", lock), ("key", key)):
        if not 0 <= width < (1 << _WIDTH_FIELD_BITS):
            raise ValueError(f"{name} width {width} does not fit in 6 bits")
    value = 0
    value = bits.deposit(value, 0, _WIDTH_FIELD_BITS, base)
    value = bits.deposit(value, 6, _WIDTH_FIELD_BITS, range_)
    value = bits.deposit(value, 12, _WIDTH_FIELD_BITS, lock)
    value = bits.deposit(value, 18, _WIDTH_FIELD_BITS, key)
    return value


def unpack_meta_widths(value: int):
    """Unpack the 24-bit CSR value into ``(base, range, lock, key)`` widths."""
    return (
        bits.extract(value, 0, _WIDTH_FIELD_BITS),
        bits.extract(value, 6, _WIDTH_FIELD_BITS),
        bits.extract(value, 12, _WIDTH_FIELD_BITS),
        bits.extract(value, 18, _WIDTH_FIELD_BITS),
    )
