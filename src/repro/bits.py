"""Small bit-manipulation helpers used across the ISA and metadata code.

Everything works on Python ints; `u64` values are canonically kept in
``[0, 2**64)`` and `s64` in ``[-2**63, 2**63)``.
"""

from __future__ import annotations

MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF

SIGN32 = 0x8000_0000
SIGN64 = 0x8000_0000_0000_0000


def to_u64(value: int) -> int:
    """Truncate an arbitrary int to its unsigned 64-bit representation."""
    return value & MASK64


def to_s64(value: int) -> int:
    """Interpret the low 64 bits of ``value`` as a signed integer."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN64 else value


def to_u32(value: int) -> int:
    """Truncate an arbitrary int to its unsigned 32-bit representation."""
    return value & MASK32


def to_s32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= MASK32
    return value - (1 << 32) if value & SIGN32 else value


def sext(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def fits_signed(value: int, bits: int) -> bool:
    """True when ``value`` is representable as a signed ``bits``-bit int."""
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo <= value <= hi

def fits_unsigned(value: int, bits: int) -> bool:
    """True when ``value`` is representable as an unsigned ``bits``-bit int."""
    return 0 <= value < (1 << bits)


def bit_length_for(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    if value < 0:
        raise ValueError(f"bit_length_for expects a non-negative value, got {value}")
    return max(1, value.bit_length())


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment`` (a power of two)."""
    if alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    if alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def extract(value: int, lo: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``lo``."""
    return (value >> lo) & ((1 << width) - 1)


def deposit(value: int, lo: int, width: int, field: int) -> int:
    """Return ``value`` with ``width`` bits at ``lo`` replaced by ``field``."""
    mask = ((1 << width) - 1) << lo
    return (value & ~mask) | ((field << lo) & mask)
