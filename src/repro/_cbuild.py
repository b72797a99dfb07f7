"""Lazily compiled C kernels: build once, cache, ``dlopen`` — or record why not.

The package has no build step; its C kernels (:mod:`repro.gf.backend.native`,
:mod:`repro.simnet.fluid`) are source strings compiled on first use and loaded
through :mod:`ctypes`.  Each is one :class:`CLibrary` — its own translation
unit and flag sets — cached in one per-user directory under a digest of ABI
version, flags and source (plus the host CPU when a flag set says
``-march=native``), one file per flag set, and published atomically.  The
fluid solver is a plain ``CDLL`` driven with raw pointers; the GF kernel's
entry points use the Python C API (``python=True``: built against the running
interpreter's headers, keyed by its ABI tag, loaded with ``PyDLL``), take
arrays as Python objects and check their buffers themselves.  Nothing
here raises to the caller: any failure leaves ``load()`` returning ``None``
with the reason kept for ``build_info()``, and the caller runs its NumPy path
— same results, only slower.  docs/KERNELS.md, "One build helper".
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path


def _find_compiler() -> str | None:
    """The first C compiler on PATH ($CC, cc, gcc, clang) or None."""
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for cand in candidates:
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    """Where compiled kernels live (override: REPRO_GF_NATIVE_CACHE)."""
    override = os.environ.get("REPRO_GF_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-gf-native"


def _python_include() -> str:
    """The running interpreter's C header directory (where ``Python.h`` is)."""
    import sysconfig  # a build needs it; importing loads the whole build configuration

    return sysconfig.get_paths()["include"]


def _host_cpu() -> str:
    """What a ``-march=native`` build is tuned to: the CPU flags line of
    ``/proc/cpuinfo`` on Linux, else the platform's machine and processor."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _publish(path: Path, produce) -> None:
    """Atomically create ``path``: ``produce(tmp)`` fills a private temp file
    beside it, ``os.replace`` publishes it; the temp never outlives the call."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=path.suffix + ".tmp")
    os.close(fd)
    try:
        produce(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CLibrary:
    """One C translation unit, compiled and loaded at most once per process.

    ``flag_sets`` are tried in order until the compiler accepts one (a kernel
    whose results depend on its flags passes exactly one).  ``bind(lib)``
    declares the entry points and may run a self-check; if it raises, the
    library counts as unavailable like any build failure.

    ``python=True`` is for a source that uses the Python C API: it compiles
    against the running interpreter's headers (no ``Python.h`` there is a
    build failure like any other), loads with :class:`ctypes.PyDLL` — its
    entry points run holding the GIL and may raise — and its cache key
    records the interpreter's ABI tag, so no other interpreter loads it.
    """

    def __init__(self, name: str, source: str, abi: int, flag_sets, bind, python: bool = False):
        self.name, self.source, self.bind, self.python = name, source, bind, python
        self.flag_sets = [list(flags) for flags in flag_sets]
        key = f"abi{abi}\0{self.flag_sets}\0{source}"
        if python:
            # the ABI tag, as in ".cpython-311-x86_64-linux-gnu.so"
            key += f"\0{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        if any("-march=native" in flags for flags in self.flag_sets):
            # such a build runs only on CPUs like this one: a cache shared
            # between hosts must not hand it to another CPU (SIGILL)
            key += f"\0{_host_cpu()}"
        self.stem = f"{name}-{hashlib.sha256(key.encode()).hexdigest()[:16]}"
        self.lib: ctypes.CDLL | None = None  # a PyDLL when python=True
        self.path: Path | None = None
        #: the flag set that built ``path``
        self.flags: list[str] | None = None
        self.error: str | None = None
        self._probed = False
        self._lock = threading.Lock()

    def load(self) -> ctypes.CDLL | None:
        """The bound library, built on first use; None when unavailable."""
        if self._probed:
            return self.lib
        with self._lock:
            if not self._probed:
                try:
                    self.path = self._build()
                    lib = (ctypes.PyDLL if self.python else ctypes.CDLL)(str(self.path))
                    self.bind(lib)
                    self.lib = lib
                except Exception as exc:  # noqa: BLE001 - any failure = unavailable
                    self.error = f"{type(exc).__name__}: {exc}"
                self._probed = True
        return self.lib

    def _build(self) -> Path:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        # one library file per flag set, so a cached file says what built it
        builds = [
            (flags, cache / f"{self.stem}{f'.{i}' if i else ''}.so")
            for i, flags in enumerate(self.flag_sets)
        ]
        for flags, so_path in builds:
            if so_path.exists():
                self.flags = flags
                return so_path
        includes = []
        if self.python:
            include = _python_include()
            if not os.path.exists(os.path.join(include, "Python.h")):
                raise RuntimeError(f"no Python.h in {include} (the interpreter's C headers)")
            includes = [f"-I{include}"]
        cc = _find_compiler()
        if cc is None:
            raise RuntimeError("no C compiler on PATH (tried $CC, cc, gcc, clang)")
        src_path = cache / f"{self.stem}.c"
        if not src_path.exists():
            _publish(src_path, lambda tmp: Path(tmp).write_text(self.source))

        stderr = ""
        for flags, so_path in builds:
            try:
                _publish(so_path, lambda tmp, flags=flags: subprocess.run(
                    [cc, *flags, *includes, "-o", tmp, str(src_path)], capture_output=True, text=True,
                    check=True,
                ))
            except subprocess.CalledProcessError as exc:
                stderr = exc.stderr
                continue
            self.flags = flags
            return so_path
        raise RuntimeError(f"{cc} failed: {stderr.strip()[:500] or 'unknown compiler error'}")

    def build_info(self) -> dict:
        """Diagnostics: availability, the cached .so path, the flag set that
        built it, any build error."""
        return {
            "available": self.load() is not None,
            "path": str(self.path) if self.path else None,
            "flags": self.flags,
            "error": self.error,
        }
