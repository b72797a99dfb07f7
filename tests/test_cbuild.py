"""Losing the C toolchain never changes a result (ROADMAP 5(b)).

Both compiled kernels — the GF plane product and the fluid solver's event
loop — are built, cached and loaded by ``repro._cbuild.CLibrary``.  Every way
that can fail must end on the NumPy path with bit-identical results, the
reason kept for ``build_info()``, no temp file left in the cache and nothing
raised to the caller.
"""

import os
import threading

import numpy as np
import pytest

import repro._cbuild as cbuild
import repro.gf
from repro.gf.backend import available_backends, get_backend
from repro.gf.field import GF
from repro.gf.matrix import gf_matmul
from repro.simnet import fluid
from repro.simnet.fluid import FluidSimulator
from tests.conftest import fresh_native_tier
from tests.test_fluid_differential import random_instance

needs_cc = pytest.mark.skipif(cbuild._find_compiler() is None, reason="no C compiler on PATH")


# --------------------------------------------------------------------- #
# the two kernels, each as a fresh (unprobed) library + a result to pin
# --------------------------------------------------------------------- #
def _fluid_result():
    cluster, tasks, events, _ = random_instance(11)
    return FluidSimulator(cluster).run(tasks, events=events)  # untraced: the compiled loop


class _FluidKernel:
    """``fluid._KERNEL`` swapped for a fresh library of the same source."""

    def __init__(self, monkeypatch, request):
        self.want = _fluid_result()  # on whatever this host bound
        self.lib = cbuild.CLibrary(
            fluid._KERNEL.name, fluid._C_SOURCE, 1, [fluid._C_FLAGS], fluid._bind_kernel
        )
        monkeypatch.setattr(fluid, "_KERNEL", self.lib)

    def info(self):
        return FluidSimulator.allocator_info()

    def check_results(self) -> bool:
        """Same simulation, bit for bit; True when the kernel computed it."""
        assert _fluid_result() == self.want
        return self.info()["kind"] == "c"


class _GFKernel:
    """A fresh ``NativeBackend`` in the tier tuple in place of the probed one."""

    def __init__(self, monkeypatch, request):
        monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
        self.backend = fresh_native_tier(monkeypatch, request)
        self.lib = self.backend._kernel

    def info(self):
        return self.backend.build_info()

    def check_results(self) -> bool:
        """The seam's product equals the LUT reference; True when the native
        tier was there to be selected."""
        rng = np.random.default_rng(5)
        mat = rng.integers(0, 256, size=(3, 6)).astype(np.uint8)
        plane = rng.integers(0, 256, size=(6, 1000)).astype(np.uint8)
        assert np.array_equal(repro.gf.matmul(mat, plane, GF(8)), gf_matmul(mat, plane, GF(8)))
        return "native" in available_backends(8)


@pytest.fixture(params=[_FluidKernel, _GFKernel], ids=["fluid", "gf"])
def kernel(request, monkeypatch, tmp_path):
    """One kernel, unprobed, with an empty build cache under ``tmp_path``."""
    monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path / "cache"))
    return request.param(monkeypatch, request)


def _fake_cc(tmp_path, body: str) -> str:
    path = tmp_path / "fake-cc"
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(0o755)
    return str(path)


def _assert_fell_back(kernel, tmp_path, error_has: str):
    """Unavailable, says why, left no temp file, and the results are the same."""
    info = kernel.info()  # must not raise
    assert info["available"] is False
    assert error_has in info["error"], info["error"]
    assert kernel.check_results() is False
    assert kernel.info() == info  # probed once; the error text is kept
    cache = tmp_path / "cache"
    leftovers = [p.name for p in cache.iterdir() if ".tmp" in p.name] if cache.is_dir() else []
    assert leftovers == []


# --------------------------------------------------------------------- #
# the failure modes
# --------------------------------------------------------------------- #
def test_no_compiler_on_path(kernel, monkeypatch, tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.delenv("CC", raising=False)
    _assert_fell_back(kernel, tmp_path, "no C compiler on PATH")


def test_compiler_exits_nonzero(kernel, monkeypatch, tmp_path):
    monkeypatch.setenv("CC", _fake_cc(tmp_path, 'echo "fake-cc: cannot compile this" >&2; exit 3'))
    _assert_fell_back(kernel, tmp_path, "fake-cc: cannot compile this")


def test_compiler_writes_garbage(kernel, monkeypatch, tmp_path):
    """Exit status 0 but the output is no shared object: the load fails."""
    body = 'while [ "$1" != "-o" ]; do shift; done; echo junk > "$2"'
    monkeypatch.setenv("CC", _fake_cc(tmp_path, body))
    _assert_fell_back(kernel, tmp_path, "OSError")


def test_compiler_disappears_between_probe_and_build(kernel, monkeypatch, tmp_path):
    cc = _fake_cc(tmp_path, "exit 0")
    monkeypatch.setattr(cbuild, "_find_compiler", lambda: cc)  # the probe said yes
    os.unlink(cc)
    _assert_fell_back(kernel, tmp_path, "FileNotFoundError")


def test_no_python_headers(monkeypatch, tmp_path, request):
    """A host without the interpreter's C headers: the GF tier is
    unavailable and says why, auto-selection falls back to NumPy, and a
    repair still rebuilds every lost block bit for bit."""
    from repro.ec.stripe import block_name
    from repro.gf.backend import select_backend
    from repro.system.request import RepairRequest
    from tests.test_system_coordinator import make_system, payload

    monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path / "cache"))
    (tmp_path / "include").mkdir()
    monkeypatch.setattr(cbuild, "_python_include", lambda: str(tmp_path / "include"))
    kernel = _GFKernel(monkeypatch, request)
    assert get_backend("native").available() is False
    assert "Python.h" in kernel.info()["error"], kernel.info()
    assert select_backend(8).name == "numpy"

    coord = make_system(block_bytes=256)
    data = payload(5 * coord.code.k * 256)
    coord.write("f", data)
    stored = {
        (sid, b): coord.agents[node].read_block(block_name(sid, b)).copy()
        for sid in range(len(coord.layout.stripes))
        for b, node in enumerate(coord.layout[sid].placement)
    }
    coord.crash_node(coord.layout[0].placement[0])
    assert coord.repair(RepairRequest()).stripes_repaired
    for (sid, b), want in stored.items():
        node = coord.layout[sid].placement[b]
        assert np.array_equal(coord.agents[node].read_block(block_name(sid, b)), want)
    assert coord.read("f") == data
    assert all(coord.scrub().values())


def test_unwritable_cache_directory(kernel, monkeypatch, tmp_path):
    """The cache path runs through a regular file (root ignores mode bits)."""
    (tmp_path / "file").write_text("in the way")
    monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path / "file" / "cache"))
    info = kernel.info()
    assert info["available"] is False and info["path"] is None
    assert "Error" in info["error"]
    assert kernel.check_results() is False


@needs_cc
def test_truncated_cached_library(kernel, monkeypatch, tmp_path):
    path = kernel.lib._build()  # compiled and cached, not loaded
    with open(path, "r+b") as fh:
        fh.truncate(200)
    _assert_fell_back(kernel, tmp_path, "OSError")
    assert kernel.info()["path"] == str(path)  # names the file to delete


@needs_cc
def test_healthy_build_binds_and_matches(kernel, tmp_path):
    """The control: with a compiler and an empty cache the kernel binds, and
    the results are the ones every fallback above reproduced."""
    info = kernel.info()
    assert info["available"] is True and info["error"] is None
    assert os.path.dirname(info["path"]) == str(tmp_path / "cache")
    assert kernel.check_results() is True
    assert sorted(p.suffix for p in (tmp_path / "cache").iterdir()) == [".c", ".so"]
    assert info["flags"] == kernel.lib.flag_sets[0]


@needs_cc
def test_concurrent_first_builds_publish_atomically(kernel, tmp_path):
    """Four builders race on one empty cache: each binds a whole library."""
    libs = [
        cbuild.CLibrary(kernel.lib.name, kernel.lib.source, 7, kernel.lib.flag_sets, kernel.lib.bind,
                        python=kernel.lib.python)
        for _ in range(4)
    ]
    barrier = threading.Barrier(len(libs))

    def build(lib):
        barrier.wait()
        lib.load()

    threads = [threading.Thread(target=build, args=(lib,)) for lib in libs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert [lib.error for lib in libs] == [None] * len(libs)
    assert len({lib.path for lib in libs}) == 1
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        f"{libs[0].stem}.c", f"{libs[0].stem}.so"
    ]


def test_digest_covers_abi_source_and_flags():
    """A library built from other source, flags or ABI is never picked up."""
    stems = {
        cbuild.CLibrary("k", src, abi, flags, bind=None).stem
        for src in ("int a;", "int b;") for abi in (1, 2) for flags in ([["-O2"]], [["-O3"]])
    }
    assert len(stems) == 8 and all(s.startswith("k-") for s in stems)


def test_native_builds_are_keyed_by_the_host_cpu(monkeypatch):
    """A cache shared between machines never hands a ``-march=native`` build
    to another CPU (it would die of SIGILL, not fall back); builds without
    that flag, like the fluid kernel's, keep one stem everywhere."""
    from repro.gf.backend import native

    assert cbuild._host_cpu()
    stems = []
    for cpu in ("fpu sse2 ssse3 avx2", "fpu sse2"):
        monkeypatch.setattr(cbuild, "_host_cpu", lambda cpu=cpu: cpu)
        gf = cbuild.CLibrary(
            "gfkern", native._C_SOURCE, native._ABI_VERSION,
            [[*native._BASE_FLAGS, native._NATIVE_FLAG], native._BASE_FLAGS], bind=None,
            python=True,
        )
        plain = cbuild.CLibrary("gfkern", native._C_SOURCE, native._ABI_VERSION,
                                [native._BASE_FLAGS], bind=None, python=True)
        solver = cbuild.CLibrary(fluid._KERNEL.name, fluid._C_SOURCE, 1, [fluid._C_FLAGS], bind=None)
        stems.append((gf.stem, plain.stem, solver.stem))
    (gf_a, plain_a, solver_a), (gf_b, plain_b, solver_b) = stems
    assert gf_a != gf_b
    assert plain_a == plain_b
    assert solver_a == solver_b == fluid._KERNEL.stem


@needs_cc
def test_a_fallback_flag_set_has_its_own_file(monkeypatch, tmp_path):
    """When the first flag set is rejected, the library the next one builds
    is cached under a name of its own, and a later load reports that set."""
    monkeypatch.setenv("REPRO_GF_NATIVE_CACHE", str(tmp_path))
    sets = [["-fPIC", "-shared", "-fno-such-flag"], ["-fPIC", "-shared"]]
    first = cbuild.CLibrary("k", "int repro_k(void) { return 7; }", 1, sets, bind=lambda lib: None)
    assert first.build_info()["flags"] == sets[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{first.stem}.1.so", f"{first.stem}.c"]
    again = cbuild.CLibrary("k", "int repro_k(void) { return 7; }", 1, sets, bind=lambda lib: None)
    assert again.build_info() == first.build_info()
