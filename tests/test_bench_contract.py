"""The end-to-end benchmark's contract with ``repro``, checked in tier-1.

``benchmarks/e2e`` imports ``repro`` names and wraps entry points by
attribute (``layers.install``).  Its own self-test runs only as a separate
job, so a deleted name or method it relies on would otherwise surface
there alone.  This imports the harness and its layer table, installs every
wrap on a fresh tracer and restores them — all in well under a second.
"""

import inspect

from benchmarks.e2e import harness, layers
from benchmarks.e2e.trace import Tracer
from repro.gf.backend import get_backend, registered_backends, select_backend


def test_the_harness_imports_and_every_layer_wrap_installs_and_restores():
    tracer = Tracer()
    layers.install(tracer)  # AttributeError here: a wrapped name is gone
    try:
        patched = tracer.patched()
        assert patched
        for owner, attr, original in patched:
            assert inspect.getattr_static(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)
    assert harness.select_backend is select_backend and harness.get_backend is get_backend
    env = harness.environment()
    assert env["gf_backend"] == select_backend(8).name
    assert env["native_build"]["backend"] == "native"


def test_each_gf_tier_class_has_its_own_plane_matmul_to_wrap():
    """``layers.install`` wraps ``plane_matmul`` per tier class: both tiers'
    kernel calls reach the ``gf.backend`` rows only while each class
    defines its own."""
    assert registered_backends() == ["native", "numpy"]
    classes = [type(get_backend(name)) for name in registered_backends()]
    for cls in classes:
        assert "plane_matmul" in vars(cls) and "rows_matmul" in vars(cls), cls
    tracer = Tracer()
    layers.install(tracer)
    try:
        wrapped = {owner for owner, attr, _ in tracer.patched() if attr == "plane_matmul"}
    finally:
        tracer.restore()
    assert wrapped == set(classes)
