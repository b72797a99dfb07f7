"""Both read paths' output: one exact ``bytes`` made, exposed and filled once."""

import ctypes
import mmap

import numpy as np

_obj, _ptr, _size, _int = ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
_bytes_new = ctypes.PYFUNCTYPE(_obj, _ptr, _size)(("PyBytes_FromStringAndSize", ctypes.pythonapi))
_bytes_addr = ctypes.PYFUNCTYPE(_ptr, _obj)(("PyBytes_AsString", ctypes.pythonapi))
_view = ctypes.PYFUNCTYPE(_obj, _ptr, _size, _int)(("PyMemoryView_FromMemory", ctypes.pythonapi))
_libc = ctypes.CDLL(None) if hasattr(mmap, "MADV_HUGEPAGE") else None  # huge-page advice
_madvise = _libc and ctypes.CFUNCTYPE(_int, _ptr, ctypes.c_size_t, _int)(("madvise", _libc))


def join_bytes(blocks, length: int) -> bytes:
    """The first ``length`` bytes of the 1-d arrays ``blocks`` as one ``bytes``,
    allocated uninitialised, its 2 MiB-aligned interior advised into huge
    pages from 4 MiB up, then filled in one pass with the tail already cut."""
    if length == 0:
        return b""  # CPython's shared empty object: never written into
    parts, left = [], length
    for block in blocks:
        if left <= 0:
            break
        parts.append(block.view(np.uint8)[:left])
        left -= parts[-1].size
    out = _bytes_new(None, length)
    addr, huge = _bytes_addr(out), 2 << 20
    if _madvise is not None and length >= 2 * huge:  # as NumPy advises its arrays
        lo = -(-addr // huge) * huge
        _madvise(lo, (addr + length) // huge * huge - lo, mmap.MADV_HUGEPAGE)
    np.concatenate(parts, out=np.frombuffer(_view(addr, length, 0x200), np.uint8))  # PyBUF_WRITE
    return out
