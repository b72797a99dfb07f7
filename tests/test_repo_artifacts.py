"""Guard the committed artifacts: document and source consistency."""

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_experiments_md_covers_every_paper_artifact():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for marker in (
        "Table I",
        "Experiment 1 (Fig. 8)",
        "Experiment 2 (Fig. 9)",
        "Experiment 3 (Fig. 10)",
        "Experiment 4 (Fig. 11)",
        "Experiment 5 (Fig. 12)",
        "Experiment 6 (Table II)",
    ):
        assert marker in text, marker
    assert text.count("**Paper's claim.**") == text.count("**Reproduction note.**")
    assert text.count("## ") >= 13


def test_readme_commands_exist():
    """Every `python -m repro <name>` mentioned in the README is a real target."""
    import re

    from repro.__main__ import EXPERIMENTS

    text = (REPO / "README.md").read_text()
    for name in re.findall(r"python -m repro (\w+)", text):
        if name in ("all", "list"):
            continue
        assert name in EXPERIMENTS, name


def test_design_md_inventory_mentions_every_subpackage():
    text = (REPO / "DESIGN.md").read_text()
    for pkg in ("repro.gf", "repro.ec", "repro.cluster", "repro.simnet",
                "repro.repair", "repro.system", "repro.analysis",
                "repro.experiments"):
        assert pkg in text, pkg


def test_every_src_module_has_a_docstring():
    import ast

    missing = []
    for path in (REPO / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None:
            missing.append(str(path))
    assert not missing, missing


def test_every_example_has_a_main_guard():
    for path in (REPO / "examples").glob("*.py"):
        text = path.read_text()
        assert '__main__' in text, path
        assert text.startswith("#!/usr/bin/env python"), path


# ------------------------------------------------------------------ #
# structure: one repair core behind public seams (ISSUE 12)
# ------------------------------------------------------------------ #
def _src_modules():
    src = REPO / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        package = rel.parts[0] if len(rel.parts) > 1 else ""
        yield rel, package, path.read_text()


def test_no_private_coordinator_access_outside_system():
    """Other packages drive the coordinator through its public seams only."""
    import re

    private_attr = re.compile(r"\b(?:coord|coordinator)\._[a-z]\w*")
    offenders = [
        f"{rel}: {hit}"
        for rel, package, text in _src_modules()
        if package != "system"
        for hit in private_attr.findall(text)
    ]
    assert not offenders, offenders


def test_no_private_names_imported_across_packages():
    """``from repro.<pkg>... import _name`` never crosses a package boundary."""
    import re

    private_import = re.compile(
        r"^\s*from repro\.(\w+)[\w.]* import ([^\n(]+|\([^)]*\))", re.MULTILINE
    )
    offenders = []
    for rel, package, text in _src_modules():
        for source_pkg, names in private_import.findall(text):
            if source_pkg == package:
                continue
            for name in re.findall(r"[\w.]+(?=\s*(?:,|\)|$|\s+as\b))", names, re.MULTILINE):
                if name.startswith("_"):
                    offenders.append(f"{rel}: from repro.{source_pkg} import {name}")
    assert not offenders, offenders


def test_scheme_registry_is_public_and_single():
    import repro.repair
    import repro.system.coordinator as coordinator
    import repro.system.request as request

    assert not hasattr(coordinator, "_PLANNERS")
    assert not hasattr(request, "_SCHEMES")
    assert set(repro.repair.ADAPTIVE_SCHEMES) < set(repro.repair.SCHEMES)
    # the planning pipeline lives in exactly one module
    pipeline = [
        str(rel)
        for rel, _, text in _src_modules()
        if "RepairContext(" in text and ".pick(" in text and "search_split(" in text
    ]
    assert pipeline == ["repair/planner.py"], pipeline


def test_block_bytes_never_take_the_lut_reference_path():
    """``gf_matmul`` / ``GF.mul`` are for coefficient algebra only.

    Everything over block buffers goes through the one seam,
    ``repro.gf.matmul``.  Outside ``repro.gf`` itself (the reference, the
    backends' table builders) the LUT path may be called from exactly two
    places, both coefficient-matrix x coefficient-matrix: generator
    construction and the decode-matrix derivation (the erased-core products,
    all of them inside ``derive_repair_matrix``).
    """
    import re

    lut_call = re.compile(r"\b(?:gf_matmul|gf_matvec|gf_solve)\(|\.mul\(|\.mul_table\b")
    calls = {
        str(rel): len(lut_call.findall(text))
        for rel, package, text in _src_modules()
        if package != "gf" and lut_call.search(text)
    }
    assert sorted(calls) == ["ec/matrices.py", "ec/rs.py"], calls
    assert calls["ec/matrices.py"] == 1 and calls["ec/rs.py"] > 1, calls
    rs = (REPO / "src" / "repro" / "ec" / "rs.py").read_text()
    derive = rs[rs.index("def derive_repair_matrix") : rs.index("def decode(")]
    assert len(lut_call.findall(derive)) == calls["ec/rs.py"]
    # and the seam has exactly one definition per form, which selects per call
    for form in ("matmul", "matmul_rows"):
        seam = [
            str(rel) for rel, _, text in _src_modules()
            if re.search(rf"^def {form}\(", text, re.M)
        ]
        assert seam == ["gf/backend/base.py"], (form, seam)
    for user in ("gf/field.py", "ec/rs.py", "ec/lrc.py", "system/coordinator.py"):
        text = (REPO / "src" / "repro" / user).read_text()
        assert re.search(r" matmul(?:_rows)?\(", text), user


def test_separate_sources_reach_the_seam_unstacked():
    """The three callers that hold k separate source buffers hand them to
    the rows form as they are: none stacks them into a plane first."""
    src = REPO / "src" / "repro"
    rs = (src / "ec" / "rs.py").read_text()
    field = (src / "gf" / "field.py").read_text()
    callers = {
        "Agent": (src / "system" / "agent.py").read_text(),
        "GF.combine": field[field.index("def combine(") : field.index("def random_elements(")],
        "RSCode.decode": rs[rs.index("def decode(") : rs.index("def decode_stripe(")],
    }
    for name, text in callers.items():
        assert "np.stack" not in text, name
        assert "matmul_rows(" in text, name


def test_one_native_multiply_entry_per_field():
    """The native tier has one dot-product kernel per field and enters it
    through one Python C API entry per field (plus the call that binds the
    field's tables); the plane-product entries, the Python-side table cache
    and the ctypes pointer path are gone, and both seam forms call the one
    entry."""
    import re

    from repro.gf.backend import native

    exported = re.findall(r"^void (\w+)\(", native._C_SOURCE, re.M)
    assert exported == ["repro_gf8_dot", "repro_gf16_dot"], exported
    entries = re.findall(r"^PyObject \*(\w+)\(", native._C_SOURCE, re.M)
    assert entries == [
        "repro_gf8_bind", "repro_gf16_bind", "repro_gf8_dot_py", "repro_gf16_dot_py"
    ], entries
    assert "plane_matmul" not in native._C_SOURCE and "xor_into" not in native._C_SOURCE
    assert not hasattr(native.NativeBackend, "_lut_for")
    assert not hasattr(native.NativeBackend, "_dot")
    text = (REPO / "src" / "repro" / "gf" / "backend" / "native.py").read_text()
    assert ".ctypes.data" not in text and "c_void_p" not in text
    assert text.count("self._entry(field)(") == 2


# ------------------------------------------------------------------ #
# structure: one plan interpreter (ISSUE 15)
# ------------------------------------------------------------------ #
def test_one_module_executes_plan_ops():
    """Only ``run_plan_ops`` branches on the op kinds to run them.

    ``repair/validate.py`` interprets ops symbolically (the checker) and the
    fault runtime asks one op kind for its nodes; everything that *executes*
    a plan — the coordinator's rounds, the fault and adaptive runtimes, the
    ``PlanExecutor`` harness — calls the interpreter in ``system/agent.py``.
    """
    import re

    branch = re.compile(r"isinstance\(\w+, (SliceOp|TransferOp|CombineOp|ConcatOp)\)")
    interpreters = [
        str(rel)
        for rel, _, text in _src_modules()
        if str(rel) != "repair/validate.py" and len(set(branch.findall(text))) > 1
    ]
    assert interpreters == ["system/agent.py"], interpreters
    callers = sorted(str(rel) for rel, _, text in _src_modules() if "run_plan_ops(" in text)
    assert callers == [
        "adaptive/runtime.py", "faults/runtime.py", "system/agent.py",
        "system/coordinator.py", "system/executor.py",
    ], callers
    assert not (REPO / "src" / "repro" / "repair" / "executor.py").exists()
    harness = (REPO / "src" / "repro" / "system" / "executor.py").read_text()
    assert "isinstance(" not in harness and "tick_span" not in harness


def test_repair_package_never_imports_the_system():
    """``repro.system`` sits on ``repro.repair``, never the other way round."""
    import re

    offenders = [
        str(rel)
        for rel, package, text in _src_modules()
        if package == "repair" and re.search(r"^\s*(?:from|import) repro\.system\b", text, re.M)
    ]
    assert not offenders, offenders


def test_deleted_data_plane_names_are_gone():
    """The workspace batch executor (PR 15), the coordinator's batched bypass
    with its compute back-charge (PR 16), the process pool with its engine
    and knobs (PR 20) and the decode-lane list schedule with the round's
    split-events path were deleted, not deprecated."""
    gone = (
        "execute_" + "batch", "Batch" + "RepairRequest", "Batch" + "ExecutionReport",
        "_dispatch_" + "batched", "charge_" + "compute",
        "Worker" + "Pool", "Parallel" + "RepairEngine", "Pool" + "Stats", "Shard" + "Stat",
        "resolve_" + "workers", "DEFAULT_MIN_" + "PARALLEL_COLS", "shard_" + "bounds",
        "min_parallel_" + "cols",
        "repair_" + "pipeline", "pipeline_" + "schedule", "Pipeline" + "Report",
        "Pipeline" + "Slot", "split_" + "events",
    )
    hits = [
        f"{path.relative_to(REPO)}: {name}"
        for top in ("src", "tests", "benchmarks", "examples", "docs")
        for path in sorted((REPO / top).rglob("*"))
        if path.suffix in (".py", ".md", ".json", ".txt")
        for name in gone
        if name in path.read_text()
    ]
    assert not hits, hits
    # every GF plane product is an inline call: nothing in src/ starts a process
    import re

    forks = [
        str(rel) for rel, _, text in _src_modules()
        if re.search(r"^\s*(?:from|import) multiprocessing\b", text, re.M)
    ]
    assert not forks, forks
    from repro.gf.backend import NativeBackend, NumpyBackend

    assert not hasattr(NativeBackend, "warm") and not hasattr(NumpyBackend, "warm")


def test_the_kernel_plug_in_registry_is_gone():
    """The GF kernel is two fixed tiers: the abstract base, the registration
    call and the name-or-instance resolver were deleted, not deprecated."""
    import repro.gf
    import repro.gf.backend
    from repro.gf.backend import base

    for module in (repro.gf, repro.gf.backend, base):
        for name in ("KernelBackend", "register_backend", "resolve_backend"):
            assert not hasattr(module, name), (module.__name__, name)
    assert [type(t).__name__ for t in base._TIERS] == ["NativeBackend", "NumpyBackend"]


def test_only_the_interpreter_moves_repair_bytes_between_agents():
    """``Agent.send_to`` has one caller: ``run_plan_ops``."""
    senders = sorted(str(rel) for rel, _, text in _src_modules() if ".send_to(" in text)
    assert senders == ["system/agent.py"], senders


# ------------------------------------------------------------------ #
# structure: one fluid solver (ISSUE 17)
# ------------------------------------------------------------------ #
def test_one_fluid_solver_by_construction():
    """The dict allocator, its first NumPy port, the string-keyed resource
    table and the rebuild-per-candidate split helper live on only as the
    test oracle (``tests/fluid_reference.py``); the compiled problem that
    replaced them is private."""
    import re

    import repro.simnet
    from repro.simnet import fluid

    gone = (
        "_Vector" + "Allocator", "_Resource", "_resources" + "_of",
        "scaled_" + "split_tasks", 'f"up' + ":{",
    )
    hits = [
        f"{rel}: {name}" for rel, _, text in _src_modules() for name in gone if name in text
    ]
    assert not hits, hits
    assert repro.simnet.__all__ == [
        "Flow", "PipelineFlow", "DelayTask", "Task", "FluidSimulator",
        "SimulationResult", "simulate_pipeline_slices", "StaticShareEvaluator",
        "StaticResult", "BandwidthEvent", "NetworkTrace", "as_network",
        "cluster_at", "bottleneck_report",
    ]
    solver_classes = sorted(
        name for name, obj in vars(fluid).items()
        if isinstance(obj, type) and obj.__module__ == fluid.__name__
    )
    assert solver_classes == ["FluidSimulator", "SimulationResult", "_Incidence", "_Problem", "_Run"]

    # one compiled event loop beside the one NumPy loop, built with flags
    # that cannot fuse or reorder a float operation; the per-call filling
    # entry point it replaced is gone
    flags = fluid._C_FLAGS
    assert "-ffp-contract=off" in flags and fluid._KERNEL.flag_sets == [flags]
    loose = ("-march", "-O3", "-Ofast", "-ffast-math")
    assert not [f for f in flags if f.startswith(loose)], flags
    simnet = "".join(text for _, package, text in _src_modules() if package == "simnet")
    assert simnet.count("#include <stdint.h>") == 1 and simnet.count('= r"""') == 1
    assert simnet.count("while n_unfixed") == 1 and simnet.count("np.subtract.at(left") == 1
    assert simnet.count("while act.size") == 1 and "repro_fill" not in simnet
    assert re.findall(r"^int (\w+)\(", fluid._C_SOURCE, re.M) == ["repro_run"]
    assert not hasattr(fluid._Incidence, "rates") and not hasattr(fluid._Incidence, "_fill_c")


def test_src_reads_no_new_environment_variable():
    """Nothing selects the fluid allocator (ISSUE 19) — and in general a new
    switch in the environment is a reviewed change to this list."""
    import re

    from repro.gf.backend.base import _ENV_VAR

    keyed = re.compile(r"(?:os\.environ(?:\.get)?|getenv)\s*[\[(]\s*([\w\"']+)")
    mention = re.compile(r"\bos\.environ\b|\bgetenv\b")
    keys = set()
    for rel, _, text in _src_modules():
        found = keyed.findall(text)
        assert len(found) == len(mention.findall(text)), f"{rel}: unkeyed environment access"
        keys.update(found)
    assert keys == {'"CC"', '"REPRO_GF_NATIVE_CACHE"', '"XDG_CACHE_HOME"', "_ENV_VAR"}
    assert _ENV_VAR == "REPRO_GF_BACKEND"
