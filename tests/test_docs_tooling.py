"""The CI tooling gates must pass on the tree as committed.

Runs the ``tools/`` checkers exactly as CI does, so a broken doc link, a
docstring-coverage regression or a new unreached public name fails locally
before it fails in CI — and exercises their failure modes against
synthetic trees.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# must match the ratchet floor in .github/workflows/ci.yml (ratchet-only:
# raise both together when coverage improves, never lower them)
COVERAGE_FLOOR = 79.0

# must match the reachability ceiling in .github/workflows/ci.yml
# (ratchet-only: lower both together when names gain callers or go)
REACHABILITY_CEILING = 8


def _run(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO, capture_output=True, text=True
    )


def test_no_dead_links_in_docs():
    res = _run("tools/check_links.py")
    assert res.returncode == 0, res.stdout + res.stderr


def test_docstring_coverage_meets_floor():
    res = _run("tools/docstring_coverage.py", "--min", str(COVERAGE_FLOOR))
    assert res.returncode == 0, res.stdout + res.stderr


def test_unreached_public_names_stay_under_ceiling():
    res = _run("tools/reachability.py", "--max", str(REACHABILITY_CEILING))
    assert res.returncode == 0, res.stdout + res.stderr


def _unreached(stdout):
    return {line.split()[0] for line in stdout.splitlines() if line.startswith("  ")}


def test_reachability_flags_only_unreached_public_names(tmp_path):
    pkg = tmp_path / "src" / "toypkg"
    pkg.mkdir(parents=True)
    (pkg / "core.py").write_text(
        "class Report:\n    pass\n\n"
        "class Orphan:\n    pass\n\n"
        "class ToyError(Exception):\n    pass\n\n"
        "def used() -> Report:\n    return Report()\n\n"
        "def dead():\n    return Orphan()\n"
    )
    (pkg / "__init__.py").write_text(
        "from toypkg.core import Orphan, Report, ToyError, dead, used\n"
        "__all__ = ['Orphan', 'Report', 'ToyError', 'dead', 'used']\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from toypkg import used\nused()\n")
    args = ("tools/reachability.py", "--modules", "toypkg", str(tmp_path))

    res = _run(*args, "--max", "2")
    assert res.returncode == 0, res.stdout + res.stderr
    # a function nothing calls is flagged (its own module's use does not
    # count); a class a reached function returns and an exception are not
    assert _unreached(res.stdout) == {"Orphan", "dead"}
    assert "unreached public names: 2" in res.stdout

    res = _run(*args, "--max", "1")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_link_checker_catches_missing_target(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/real.md)\n[broken](docs/nope.md)\n[ext](https://example.com)\n"
    )
    (tmp_path / "docs" / "real.md").write_text("# Real\n")
    res = _run("tools/check_links.py", str(tmp_path))
    assert res.returncode == 1
    assert "docs/nope.md" in res.stdout
    assert "example.com" not in res.stdout


def test_link_checker_checks_anchors(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# My Title\n[good](#my-title)\n[bad](#no-such-heading)\n"
    )
    res = _run("tools/check_links.py", str(tmp_path))
    assert res.returncode == 1
    assert "no-such-heading" in res.stdout
    assert "#my-title" not in res.stdout


def test_coverage_gate_fails_below_floor(tmp_path):
    (tmp_path / "undocumented.py").write_text("def public():\n    pass\n")
    res = _run("tools/docstring_coverage.py", "--min", "50", str(tmp_path))
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "public" in res.stdout


def _serving_doc(sweep_metrics):
    """A minimal schema-valid serving artifact with one chunk-sweep point."""
    return {
        "schema_version": 1,
        "suite": "online-serving-plane",
        "env": {"python": "3"},
        "points": [
            {
                "bench": "serving.chunk_sweep",
                "params": {"k": 4},
                "metrics": {"speedup_x": 1.2, **sweep_metrics},
            }
        ],
    }


def test_bench_schema_requires_monotone_chunk_sweep(tmp_path):
    """The serving artifact must carry a falling-toward-1 p99 ratio sweep."""
    import json

    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(_serving_doc({"p99_ratio_c1": 1.2, "p99_ratio_c4": 1.05}))
    )
    res = _run("tools/check_bench_schema.py", str(good))
    assert res.returncode == 0, res.stdout + res.stderr

    cases = {
        # more chunks must strictly help
        "rising.json": {"p99_ratio_c1": 1.05, "p99_ratio_c4": 1.2},
        # degraded reads can never beat healthy reads
        "below_one.json": {"p99_ratio_c1": 1.2, "p99_ratio_c4": 0.9},
        # a single ratio is not a sweep
        "lonely.json": {"p99_ratio_c1": 1.2},
    }
    for name, metrics in cases.items():
        bad = tmp_path / name
        bad.write_text(json.dumps(_serving_doc(metrics)))
        res = _run("tools/check_bench_schema.py", str(bad))
        assert res.returncode == 1, f"{name} must fail the schema gate"
        assert "serving.chunk_sweep" in res.stderr


def _reliability_doc(metrics, env=None):
    """A minimal schema-valid reliability artifact with one nines point."""
    return {
        "schema_version": 1,
        "suite": "reliability-simulator",
        "env": {"python": "3", "fastpath_speedup_x": 100.0, **(env or {})},
        "points": [
            {
                "bench": "reliability.nines",
                "params": {"k": 8},
                "metrics": {"speedup_x": 2.0, **metrics},
            }
        ],
    }


def test_bench_schema_enforces_reliability_nines_ordering(tmp_path):
    """The reliability artifact must pin nines_hmbr strictly above nines_cr
    and report the fast path's speedup in env."""
    import json

    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(_reliability_doc({"nines_hmbr": 2.1, "nines_cr": 1.6}))
    )
    res = _run("tools/check_bench_schema.py", str(good))
    assert res.returncode == 0, res.stdout + res.stderr

    cases = {
        # HMBR must strictly beat CR
        "tied.json": _reliability_doc({"nines_hmbr": 1.6, "nines_cr": 1.6}),
        "inverted.json": _reliability_doc({"nines_hmbr": 1.2, "nines_cr": 1.6}),
        # both nines must be present
        "missing.json": _reliability_doc({"nines_hmbr": 2.1}),
        # env must carry a positive fastpath speedup
        "no_speedup.json": _reliability_doc(
            {"nines_hmbr": 2.1, "nines_cr": 1.6}, env={"fastpath_speedup_x": -1.0}
        ),
    }
    for name, doc in cases.items():
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        res = _run("tools/check_bench_schema.py", str(bad))
        assert res.returncode == 1, f"{name} must fail the schema gate"
        assert "reliability" in res.stderr

    # a document lacking the nines point entirely must also fail
    no_point = _reliability_doc({"nines_hmbr": 2.1, "nines_cr": 1.6})
    no_point["points"][0]["bench"] = "reliability.other"
    lonely = tmp_path / "no_point.json"
    lonely.write_text(json.dumps(no_point))
    res = _run("tools/check_bench_schema.py", str(lonely))
    assert res.returncode == 1
    assert "reliability.nines" in res.stderr


def test_committed_reliability_artifact_is_schema_valid():
    """The committed BENCH_reliability.json passes the extended gate."""
    res = _run("tools/check_bench_schema.py", str(REPO / "BENCH_reliability.json"))
    assert res.returncode == 0, res.stdout + res.stderr


def _batch_doc(env=None, native_metrics=None, seam_metrics=None):
    """A minimal schema-valid batch artifact, optionally with a native point."""
    points = [
        {
            "bench": "ec_codec.backend_numpy.gf8",
            "params": {"k": 8, "backend": "numpy"},
            "metrics": {"speedup_x": 3.5, "decode_mbps": 250.0, "vs_numpy_x": 1.0},
        },
        {
            "bench": "ec_codec.encode_seam.gf8",
            "params": {"k": 32, "m": 8, "backend": "native"},
            "metrics": {"encode_mbps": 1800.0, "vs_reference_x": 50.0}
            if seam_metrics is None
            else seam_metrics,
        },
    ]
    if native_metrics is not None:
        points.append(
            {
                "bench": "ec_codec.backend_native.gf8",
                "params": {"k": 8, "backend": "native"},
                "metrics": {"decode_mbps": 2000.0, **native_metrics},
            }
        )
    return {
        "schema_version": 1,
        "suite": "batched-multi-stripe-repair",
        "env": {"python": "3", "smoke": False, "backend": "native", **(env or {})},
        "points": points,
    }


def test_bench_schema_enforces_batch_backend_rules(tmp_path):
    """The batch artifact must name its kernel tier, carry decode_mbps and
    encode_mbps points, and hold the native tier to the 5x floor and the
    seam encode to the 4x floor at full fidelity."""
    import json

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_batch_doc(native_metrics={"vs_numpy_x": 9.0})))
    res = _run("tools/check_bench_schema.py", str(good))
    assert res.returncode == 0, res.stdout + res.stderr

    # a smoke-mode artifact is exempt from the native floor
    smoky = tmp_path / "smoke.json"
    smoky.write_text(
        json.dumps(_batch_doc(env={"smoke": True}, native_metrics={"vs_numpy_x": 1.1}))
    )
    res = _run("tools/check_bench_schema.py", str(smoky))
    assert res.returncode == 0, res.stdout + res.stderr

    # ... and from the seam-vs-reference encode floor
    smoky.write_text(
        json.dumps(
            _batch_doc(
                env={"smoke": True},
                seam_metrics={"encode_mbps": 300.0, "vs_reference_x": 1.2},
            )
        )
    )
    res = _run("tools/check_bench_schema.py", str(smoky))
    assert res.returncode == 0, res.stdout + res.stderr

    cases = {
        # the selected kernel tier must be recorded
        "no_backend.json": _batch_doc(env={"backend": ""}),
        # a full-fidelity native point below the floor must fail
        "slow_native.json": _batch_doc(native_metrics={"vs_numpy_x": 4.9}),
        "untracked_native.json": _batch_doc(native_metrics={}),
        # the seam must beat the gf_matmul reference 4x at full fidelity,
        # and its encode throughput must be positive
        "slow_seam.json": _batch_doc(
            seam_metrics={"encode_mbps": 300.0, "vs_reference_x": 3.9}
        ),
        "untracked_seam.json": _batch_doc(seam_metrics={"encode_mbps": 300.0}),
        "zero_encode.json": _batch_doc(
            seam_metrics={"encode_mbps": 0.0, "vs_reference_x": 50.0}
        ),
    }
    for name, doc in cases.items():
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        res = _run("tools/check_bench_schema.py", str(bad))
        assert res.returncode == 1, f"{name} must fail the schema gate"

    # dropping every decode_mbps metric must also fail
    no_mbps = _batch_doc()
    for p in no_mbps["points"]:
        p["metrics"].pop("decode_mbps", None)
    lonely = tmp_path / "no_mbps.json"
    lonely.write_text(json.dumps(no_mbps))
    res = _run("tools/check_bench_schema.py", str(lonely))
    assert res.returncode == 1
    assert "decode_mbps" in res.stderr


def test_committed_batch_artifact_is_schema_valid():
    """The committed BENCH_batch.json passes the extended backend gate."""
    res = _run("tools/check_bench_schema.py", str(REPO / "BENCH_batch.json"))
    assert res.returncode == 0, res.stdout + res.stderr


def test_coverage_gate_ignores_private_and_init(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module doc."""\n'
        "class C:\n"
        '    """Class doc."""\n'
        "    def __init__(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    res = _run("tools/docstring_coverage.py", "--min", "100", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr


def _adaptive_doc(metrics, env=None):
    """A minimal schema-valid adaptive artifact with one replan point."""
    return {
        "schema_version": 1,
        "suite": "adaptive-replan",
        "env": {"python": "3", "adaptive_speedup_x": 1.5, **(env or {})},
        "points": [
            {
                "bench": "adaptive.replan.k16m8f4",
                "params": {"k": 16},
                "metrics": {"speedup_x": 1.5, **metrics},
            }
        ],
    }


def test_bench_schema_enforces_adaptive_speedup(tmp_path):
    """The adaptive artifact must show re-planning strictly beating the
    static plan, point-wise and in the aggregate env ratio."""
    import json

    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(_adaptive_doc({"t_static_s": 9.0, "t_adaptive_s": 6.0}))
    )
    res = _run("tools/check_bench_schema.py", str(good))
    assert res.returncode == 0, res.stdout + res.stderr

    cases = {
        # adaptive must strictly beat static per point
        "tied.json": _adaptive_doc({"t_static_s": 6.0, "t_adaptive_s": 6.0}),
        "inverted.json": _adaptive_doc({"t_static_s": 6.0, "t_adaptive_s": 9.0}),
        # both makespans must be present
        "missing.json": _adaptive_doc({"t_static_s": 9.0}),
        # the aggregate ratio must be strictly above 1
        "no_win.json": _adaptive_doc(
            {"t_static_s": 9.0, "t_adaptive_s": 6.0},
            env={"adaptive_speedup_x": 1.0},
        ),
        "no_ratio.json": _adaptive_doc(
            {"t_static_s": 9.0, "t_adaptive_s": 6.0},
            env={"adaptive_speedup_x": "fast"},
        ),
    }
    for name, doc in cases.items():
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        res = _run("tools/check_bench_schema.py", str(bad))
        assert res.returncode == 1, f"{name} must fail the schema gate"
        assert "adaptive" in res.stderr

    # a document lacking any replan point entirely must also fail
    no_point = _adaptive_doc({"t_static_s": 9.0, "t_adaptive_s": 6.0})
    no_point["points"][0]["bench"] = "adaptive.quiet_overhead"
    lonely = tmp_path / "no_point.json"
    lonely.write_text(json.dumps(no_point))
    res = _run("tools/check_bench_schema.py", str(lonely))
    assert res.returncode == 1
    assert "adaptive.replan" in res.stderr


def test_committed_adaptive_artifact_is_schema_valid():
    """The committed BENCH_adaptive.json passes the extended gate."""
    res = _run("tools/check_bench_schema.py", str(REPO / "BENCH_adaptive.json"))
    assert res.returncode == 0, res.stdout + res.stderr
