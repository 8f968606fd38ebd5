"""Architecture rules: what is written once stays written once.

Each test scans the package's source with :mod:`ast` and names the
sites that break its rule, so a second copy of a policy fails here, in
the tier-1 suite, rather than drifting unnoticed.
"""

import ast
import collections
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def modules():
    """``(path relative to the package, parsed module)``, sorted."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text())


def test_phase1_holds_one_release_ledger_and_no_band_loop():
    """The early-release policy (a tile's buffers go once every pair
    touching it is computed or cancelled) is grid/ledger.py's
    PairBookkeeper under every scheduler that frees memory; a second
    per-tile pair count is a second policy.  The one exception is
    pipelined-gpu's host-pixel count, which outlives the device slot by
    the CCF stage.  The discrete-event simulator's counters model time,
    not tile memory, and phase 2's block back substitution updates
    solution blocks, not counts.  No scheduler writes its own loop over
    west and north pairs: MT-CPU, Pipelined-CPU and Simple-GPU run
    Simple-CPU's, so only that loop, the simulator's replay of it and
    Pipelined-GPU's bookkeeping stage build a ledger."""
    gone = {"RefCounter", "pairs_done", "maybe_release", "release_if_done",
            "row_products", "band_pairs"}
    counts, band_loops, ledgers = set(), set(), set()
    for where, tree in modules():
        for node in ast.walk(tree):
            names = {getattr(node, a, None)
                     for a in ("id", "attr", "name", "arg", "asname")}
            assert not names & gone, f"{where}:{node.lineno}: {names & gone}"
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(call.func, "id", None) == "PairBookkeeper"
                    for call in ast.walk(node) if isinstance(call, ast.Call)):
                ledgers.add(f"{where}::{node.name}")
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Sub)
                    and isinstance(node.target, ast.Subscript)
                    and not isinstance(node.target.slice, ast.Constant)
                    and where not in ("simulate/des.py",
                                      "core/global_opt.py")):
                counts.add(f"{where}::{ast.unparse(node.target.value)}")
            if isinstance(node, ast.FunctionDef) and where.startswith("impls/"):
                dirs = {n.attr for n in ast.walk(node)
                        if isinstance(n, ast.Attribute)
                        and getattr(n.value, "id", None) == "Direction"}
                if {"WEST", "NORTH"} <= dirs:
                    band_loops.add(f"{where}::{node.name}")
    assert counts == {"grid/ledger.py::self._refcount",
                      "impls/pipelined_gpu.py::host_refcount"}, counts
    assert band_loops == set(), band_loops
    assert ledgers == {"core/displacement.py::compute_grid_displacements",
                       "grid/traversal.py::replay",
                       "impls/pipelined_gpu.py::_build_pipeline"}, ledgers


def test_grid_decomposition_is_written_once():
    """Column partitions and ghost columns come from
    grid/traversal.py::column_partitions and pair readiness from the
    ledger, so the simulator reads what the schedulers read.  The
    per-GPU pipelines share pipelined_gpu.py's bookkeeping events, both
    GPU schedulers gpu/kernels.py::correlate_pair, and every pool
    default_pool_size.  A second split of the grid, a second event class,
    a second device pair sequence or a second pool rule is a copy that can
    drift.  The one split outside grid/ is simulate_mt_cpu's row bands:
    the paper's MT-CPU, which Table II measures."""
    events = collections.Counter()
    splits, reduces, pool_rules = set(), set(), []

    def visit(where, node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name in (
                    "_FftDone", "_PairDone", "_TileFailed"):
                events[child.name] += 1
            if isinstance(child, ast.Call):
                called = (getattr(child.func, "id", None)
                          or getattr(child.func, "attr", None))
                if called == "split_range":
                    splits.add(f"{where}::{fn}")
                if called == "reduce_max_kernel":
                    reduces.add(where)
            if (isinstance(child, ast.BinOp)
                    and isinstance(child.op, ast.Mult)
                    and getattr(child.left, "value", None) == 2
                    and getattr(getattr(child.right, "func", None),
                                "id", None) == "min"):
                pool_rules.append(f"{where}::{fn}")
            visit(where, child,
                  child.name if isinstance(child, ast.FunctionDef) else fn)

    for where, tree in modules():
        visit(where, tree, None)
    assert events == {"_FftDone": 1, "_PairDone": 1, "_TileFailed": 1}, events
    for site in splits:
        assert (site.startswith("grid/")
                or site == "simulate/schedules.py::simulate_mt_cpu"), site
    assert reduces == {"gpu/kernels.py"}, reduces
    assert pool_rules == ["grid/traversal.py::default_pool_size"], pool_rules


def test_pipelined_cpu_is_the_overlapped_loop_over_partitions():
    """Only Pipelined-GPU, the paper's Fig. 8 subject, builds a staged
    Pipeline.  The three CPU rows of Table II are presets of one schedule,
    core/displacement.py::partitioned_displacements -- Simple-CPU's loop,
    compute_grid_displacements, over column partitions -- and the
    default path runs it too: a second CPU schedule, or a CPU module per
    preset, is a second copy of the same steps."""
    builders = set()
    for where, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Pipeline"):
                builders.add(where)
    assert builders == {"impls/pipelined_gpu.py"}, builders

    def called(tree):
        return {getattr(node.func, "id", None) for node in ast.walk(tree)
                if isinstance(node, ast.Call)}

    tree = ast.parse((PACKAGE / "core/displacement.py").read_text())
    schedule = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "partitioned_displacements")
    assert {"compute_grid_displacements", "column_partitions"} <= called(
        schedule)
    callers = {where for where, tree in modules()
               if "partitioned_displacements" in called(tree)}
    assert callers == {"impls/cpu.py", "core/stitcher.py"}, callers
    loops = {where for where, tree in modules()
             if "compute_grid_displacements" in called(tree)}
    assert loops == {"core/displacement.py", "impls/simple_gpu.py"}, loops


def test_only_pipelined_gpu_imports_the_pipeline_framework():
    """The staged graph of pipeline/ is Pipelined-GPU's: no other module
    imports it (the failure types and the supervised join live in
    recovery/), so ``import repro`` never loads it."""
    importers = set()
    for where, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[:2] == ["repro", "pipeline"] for n in names):
                importers.add(where)
    assert {w for w in importers if not w.startswith("pipeline/")} == {
        "impls/pipelined_gpu.py"}, importers
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('repro.pipeline' in sys.modules)"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


#: What the watchdog reads of a supervised pipeline (it duck-types the
#: surface instead of importing pipeline/): recovery/watchdog.py::Watchdog.
WATCHDOG_SURFACE = {"name", "stages", "items_processed", "inflight",
                    "queues", "total_put", "total_get", "depth", "closed",
                    "abort"}


def test_pipeline_defines_nothing_fig8_does_not_read():
    """pipeline/ is Pipelined-GPU's Fig. 8 graph and nothing more: every
    public name it defines -- class, function, method, ``self.`` attribute
    or defaulted parameter -- is read by impls/pipelined_gpu.py, by the
    watchdog (:data:`WATCHDOG_SURFACE`), or by pipeline/'s own plumbing.
    A definition, a store or a re-export is not a read, a method or an
    attribute is read only as ``x.name``, and a defaulted parameter only
    where some call in that scope passes it (by keyword or position): an
    accessor, a counter or a knob nothing reads fails here."""

    def public(name):
        return not name.startswith("_")

    names: dict[str, str] = {}     # module-level name -> defining module
    members: dict[str, str] = {}   # method / self. attribute -> module
    options: dict[str, tuple] = {}  # site -> (callee, position, param)
    scope = [(where, tree) for where, tree in modules()
             if where.startswith("pipeline/")]
    for where, tree in scope:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names.update((t.id, where) for t in node.targets
                             if isinstance(t, ast.Name) and public(t.id))
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if public(node.name):
                names[node.name] = where
            methods = ([node] if isinstance(node, ast.FunctionDef) else
                       [m for m in node.body if isinstance(m, ast.FunctionDef)])
            for fn in methods:
                if fn is not node and public(fn.name):
                    members[fn.name] = where
                if not (public(fn.name) or fn.name == "__init__"):
                    continue
                callee = node.name if fn.name == "__init__" else fn.name
                args = fn.args.args if fn is node else fn.args.args[1:]
                first = len(args) - len(fn.args.defaults)
                for i, a in enumerate(args[first:], first):
                    options[f"{where}::{callee}({a.arg})"] = (callee, i, a.arg)
                for a in fn.args.kwonlyargs:
                    options[f"{where}::{callee}({a.arg})"] = (callee, None, a.arg)
                for sub in ast.walk(fn):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", None) == "self"
                            and public(sub.attr)):
                        members[sub.attr] = where

    readers = scope + [("impls/pipelined_gpu.py", ast.parse(
        (PACKAGE / "impls/pipelined_gpu.py").read_text()))]
    attrs, globals_read = set(WATCHDOG_SURFACE), set()
    keywords, positional = set(), {}
    for where, tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                globals_read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and where == "impls/pipelined_gpu.py"):
                globals_read.update(a.name for a in node.names)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)
                keywords.update((callee, k.arg) for k in node.keywords)
                positional[callee] = max(positional.get(callee, 0),
                                         len(node.args))
    unread = sorted(
        [f"{where}::{n}" for n, where in names.items()
         if n not in globals_read | attrs and not n.startswith("__")]
        + [f"{where}::.{n}" for n, where in members.items()
           if n not in attrs])
    unset = sorted(site for site, (callee, i, arg) in options.items()
                   if (callee, arg) not in keywords
                   and (i is None or positional.get(callee, 0) <= i))
    assert unread + unset == [], unread + unset


def test_cli_holds_no_second_stitch_path():
    """``repro stitch`` builds a Stitcher and reads its result: phase 2,
    the result object and the fault report are the Stitcher's business."""
    cli = (PACKAGE / "cli.py").read_text()
    for name in ("resolve_absolute_positions", "StitchResult(", "FaultReport("):
        assert name not in cli, name


def test_stitch_options_are_declared_once():
    """The consumers hold no default, vocabulary or sugar rule of their
    own: no "mst"/"abort" literal and no ``.get(<option>, <default>)`` in
    the worker or the journal, no quality_on/coarse_on in the CLI, every
    option flag's default=/choices= is read off repro.core.options rather
    than written as a literal, and only core/options.py reads the tile
    size from which the default phase 1 is coarse-to-fine."""
    from repro.core.options import FLAT_KEYS as keys

    def tree(path):
        return ast.parse((PACKAGE / path).read_text())

    for path in ("service/pool.py", "recovery/journal.py"):
        for node in ast.walk(tree(path)):
            if isinstance(node, ast.Constant):
                assert node.value not in ("mst", "abort"), (
                    f"{path}:{node.lineno}: option default literal {node.value!r}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Constant)):
                assert node.args[0].value not in keys, (
                    f"{path}:{node.lineno}: private default for "
                    f"stitch option {node.args[0].value!r}")
        assert "_build_stitcher" not in (PACKAGE / path).read_text()

    cli = (PACKAGE / "cli.py").read_text()
    assert "quality_on" not in cli and "coarse_on" not in cli
    checked = 0
    for node in ast.walk(tree("cli.py")):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
        dest = (kw["dest"].value if "dest" in kw
                else flags[-1].lstrip("-").replace("-", "_"))
        if dest not in keys:
            continue
        checked += 1
        for name in ("default", "choices"):
            value = kw.get(name)
            literal = isinstance(value, (ast.List, ast.Tuple)) or (
                isinstance(value, ast.Constant) and value.value is not None)
            assert not literal, (
                f"cli.py:{node.lineno}: --{dest} writes its {name} as a "
                "literal; read it off repro.core.options")
    assert checked >= 14, checked

    readers = {
        f"{where}:{node.lineno}"
        for where, module in modules()
        for node in ast.walk(module)
        if "COARSE_MIN_TILE_PIXELS" in (getattr(node, "id", None),
                                        getattr(node, "attr", None))
    }
    assert readers and all(r.startswith("core/options.py:") for r in readers), (
        readers)


def test_phase3_holds_one_blend_loop():
    """compose(), the streamed TIFF writer and the pyramid viewer are
    sinks over repro.core.compose.blend_window; a second function
    branching on the blend mode is a second renderer."""
    modes = {"MAXIMUM", "AVERAGE", "LINEAR"}
    found = {}
    for where, tree in modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tested = {
                c.attr
                for node in ast.walk(fn) if isinstance(node, ast.Compare)
                for c in node.comparators
                if isinstance(c, ast.Attribute) and c.attr in modes
                and getattr(c.value, "id", None) == "BlendMode"
            }
            if tested:
                found[f"{where}::{fn.name}"] = tested
    assert found == {"core/compose.py::blend_window": modes}, found


def test_phase1_holds_one_correlation_front_half_and_one_ccf_contest():
    """pciam(), the coarse first pass and its fallback, and the host half
    of a virtual-GPU pair compose core/pciam.py's correlation_peaks
    (NCC -> inverse -> top-k) and contest (the CCF over a peak's
    interpretations); the coarse hill-climb is the only other reader of a
    peak.  Another function calling peak_candidates, or naming an inverse
    transform under core/, is a second copy of the operator."""
    contests, inverses = set(), set()
    for where, tree in modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "peak_candidates" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    contests.add(f"{where}::{fn.name}")
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("C2R",)
                        and where.startswith("core/")):
                    inverses.add(f"{where}::{fn.name}")
    assert contests == {
        "core/pciam.py::contest",
        "core/coarse.py::refine_from_coarse_peaks",
    }, contests
    assert inverses == {"core/pciam.py::correlation_peaks"}, inverses


def test_ccf_surfaces_have_one_climb():
    """Coarse-to-fine's refinement and the quality gate's repair climb a
    CCF surface with core/coarse.py's climb (strict 8-neighbour maximum,
    bounded reach) over O(1) tile-statistics probes.  A second climb, or
    a direct ccf_at scan outside core/ccf.py (which keeps it as the
    tests' reference), is a second search with its own idea of a
    summit."""
    defined, callers, scans = set(), set(), set()
    for where, tree in modules():
        defined |= {
            f"{where}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "climb"
        }
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = (getattr(node.func, "id", None)
                          or getattr(node.func, "attr", None))
                if called == "climb":
                    callers.add(f"{where}::{fn.name}")
                if called == "ccf_at" and where != "core/ccf.py":
                    scans.add(f"{where}::{fn.name}")
    climbs = [
        fn for fn in ast.parse((PACKAGE / "core/coarse.py").read_text()).body
        if isinstance(fn, ast.FunctionDef) and fn.name == "climb"
    ]
    assert len(climbs) == 1 and defined == {
        f"core/coarse.py:{climbs[0].lineno}"}, defined
    assert callers == {
        "core/coarse.py::refine_from_coarse_peaks",
        "core/quality_gate.py::repair",
    }, callers
    assert not scans, scans


def test_stage_model_is_fit_once():
    """The stage model -- a per-direction median step and a MAD radius --
    is fit in core/quality_gate.py's _fit_stage_model: the gate demotes
    against it and repair climbs from it.  Another function taking the
    median of absolute deviations is a second model with its own
    threshold and radius."""

    def named(node, name):
        return isinstance(node, ast.Call) and name == (
            getattr(node.func, "attr", None) or getattr(node.func, "id", None))

    fits = set()
    for where, tree in modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if named(node, "median") and any(
                        named(inner, "abs")
                        for arg in node.args for inner in ast.walk(arg)):
                    fits.add(f"{where}::{fn.name}")
    assert fits == {"core/quality_gate.py::_fit_stage_model"}, fits


def test_ffts_have_one_gateway():
    """Every transform goes through repro.fftlib.plans.transform (numpy's
    pocketfft, byte-identical to scipy.fft); a module naming an FFT
    library itself is a second backend, and scipy.fft would put scipy
    back on ``import repro``."""

    def fft_module(name):
        return name.split(".")[:2] in (["scipy", "fft"], ["scipy", "fftpack"],
                                       ["numpy", "fft"], ["np", "fft"])

    found = []
    for where, tree in modules():
        if where == "fftlib/plans.py":
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            found += [f"{where}:{node.lineno}: {n}"
                      for n in names if fft_module(n)]
    assert not found, found


def test_only_the_tile_forward_and_the_pair_inverse_call_the_gateway():
    """Phase 1 transforms in two places: a tile's forward spectrum
    (forward_fft) and a pair's inverse NCC (correlation_peaks), plus
    their virtual-GPU twins in gpu/kernels.py.  No layer sits between
    them and fftlib.plans.transform, and nothing else transforms.  Tiles
    are real, so both are half-spectrum: R2C and C2R are the only kinds
    (the paper's real-to-complex future work, always on)."""
    from repro.fftlib.plans import TransformKind

    assert [kind.name for kind in TransformKind] == ["R2C", "C2R"]
    callers = set()
    for where, tree in modules():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "transform" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add((where, fn.name))
    assert {where for where, _ in callers} == {
        "core/pciam.py", "gpu/kernels.py",
    }, callers
    assert {name for where, name in callers if where == "core/pciam.py"} == {
        "forward_fft", "correlation_peaks",
    }, callers


def test_phase2_holds_one_edge_table_under_both_solvers():
    """core/global_opt.py decides what a pair contributes -- its
    measurement or, when demoted, the nominal prior -- in _edge_table,
    and handles connectivity / degraded placement / the result in
    resolve_absolute_positions.  A second function reading the quality
    verdict is a second demotion policy; a solver naming on_disconnected
    is a second connectivity check.  Nothing imports networkx, so the
    product runs without it."""
    readers = {"_nominal_prior_translation": set(), "quality": set()}
    for where, tree in modules():
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "networkx" for n in names), (
                f"{where}:{node.lineno}: imports networkx")
        if where != "core/global_opt.py":
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = (getattr(node.func, "id", None)
                          or getattr(node.func, "attr", None))
                if called in readers:
                    readers[called].add(fn.name)
            if fn.name in ("_mst_positions", "_least_squares_positions"):
                assert "on_disconnected" not in ast.unparse(fn), fn.name
    assert readers == {"_nominal_prior_translation": {"_edge_table"},
                       "quality": {"_edge_table"}}, readers


def test_parallel_cpu_work_runs_on_threads():
    """Phase 1's schedulers and phase 3's stripes run on threads; the
    only processes are the service's persistent warm workers
    (service/pool.py).  A module importing multiprocessing or a
    ProcessPoolExecutor anywhere else is a second parallel CPU backend,
    with its own shared-memory and journal seams."""
    importers = set()
    for where, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                names = [getattr(node, "attr", None)]
            if any(n and (n.split(".")[0] == "multiprocessing"
                          or n == "ProcessPoolExecutor") for n in names):
                importers.add(where)
    assert importers == {"service/pool.py"}, importers


def test_phase1_has_one_failure_surface():
    """Faults enter phase 1 only through the tile read, and only the
    kernel's read policy (Phase1Kernel.try_read) retries, skips or
    survives a cancelled item.  A policy= on a pipeline stage, a second
    ItemCancelled handler, or a stage/pool fault wrapper is a second
    failure layer no scheduler wires."""
    gone = {"DroppedItem", "StageItemTimeout", "wrap_handler",
            "FaultyPool", "pair_failed", "checkpoint_cancelled"}
    policies, handlers, params = set(), set(), {}
    for where, tree in modules():
        for node in ast.walk(tree):
            names = {getattr(node, a, None)
                     for a in ("id", "attr", "name", "arg", "asname")}
            assert not names & gone, f"{where}:{node.lineno}: {names & gone}"
            if isinstance(node, ast.ClassDef) and node.name == "ErrorPolicy":
                policies.add(where)
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "ItemCancelled" in ast.unparse(node.type)):
                handlers.add(where)
            if (isinstance(node, ast.FunctionDef)
                    and where.startswith("pipeline/")):
                params[f"{Path(where).name}::{node.name}"] = {
                    a.arg for a in node.args.args + node.args.kwonlyargs}
    assert policies == {"core/kernel.py"}, policies
    assert handlers == {"core/kernel.py"}, handlers
    for fn in ("stage.py::__init__", "graph.py::stage"):
        assert "policy" not in params[fn], fn


def test_phase1_tile_is_converted_to_float64_once():
    """Phase1Kernel.products converts a tile to float64 once, by filling
    a recycled float64 plane (``np.copyto``): that array is the
    transform's input (downsample's, in coarse mode) and then
    TileStats.pixels, mean-shifted in place.  TileStats converts a tile
    itself only in its public constructor, and subtracts the mean into a
    new array only where the conversion shares the caller's memory.  Any
    other astype/asarray to float64 or copyto, or ``pixels - mean`` copy,
    in Phase1Kernel or TileStats is a second full-size copy per live
    tile."""

    def float64(node):
        return any(
            (isinstance(n, ast.Attribute) and n.attr == "float64")
            or (isinstance(n, ast.Constant) and n.value == "float64")
            for n in ast.walk(node))

    def is_mean(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "mean")

    conversions = collections.Counter()
    shifts = collections.Counter()
    for where, cls in (("core/kernel.py", "Phase1Kernel"),
                       ("core/tilestats.py", "TileStats")):
        tree = ast.parse((PACKAGE / where).read_text())
        (body,) = [n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == cls]
        for fn in body.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            site = f"{where}::{cls}.{fn.name}"
            guarded = set()
            for node in ast.walk(fn):
                if (isinstance(node, ast.If)
                        and "may_share_memory" in ast.unparse(node.test)):
                    guarded |= {id(n) for stmt in node.body
                                for n in ast.walk(stmt)}
            for node in ast.walk(fn):
                name = isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None)
                    or getattr(node.func, "id", None))
                if (name in ("astype", "asarray", "array",
                             "ascontiguousarray") and float64(node)
                        or name == "copyto"):
                    conversions[site] += 1
                if (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Sub)
                        and is_mean(node.right)):
                    shifts[site if id(node) in guarded
                           else f"{site} (unguarded)"] += 1
    assert conversions == {
        "core/kernel.py::Phase1Kernel.products": 1,
        "core/tilestats.py::TileStats.__init__": 1,
    }, conversions
    assert shifts == {"core/tilestats.py::TileStats._build": 1}, shifts


def test_admission_is_one_decision():
    """Every 429 the service returns is built by JobQueue._reject, the
    one source of its Retry-After; the brownout policy and the spool
    budget only name a refusal.  Constructing AdmissionRejected (or a
    subclass of it) anywhere else is a second admission decision."""
    trees = list(modules())
    rejections = {"AdmissionRejected"}
    grew = True
    while grew:
        grew = False
        for _, tree in trees:
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name not in rejections
                        and any(getattr(b, "id", getattr(b, "attr", None))
                                in rejections for b in node.bases)):
                    rejections.add(node.name)
                    grew = True

    def calls(node, where, fn):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id",
                    getattr(child.func, "attr", None)) in rejections:
                yield f"{where}::{inner}"
            yield from calls(child, where, inner)

    sites = {site for where, tree in trees
             for site in calls(tree, where, "<module>")}
    assert sites == {"service/queue.py::_reject"}, sites


def test_a_service_job_has_one_supervisor_and_one_death_record():
    """A running service job is watched by its dispatcher's poll loop
    (service/pool.py::WorkerPool._supervise), which kills the worker past
    the job's deadline or journal stall; no watchdog thread or cancel
    token runs beside it.  Phase 1 builds the only Watchdogs, and a
    worker death is appended to JobRecord.death_events at one site: a
    second tally of deaths is a second quarantine decision."""
    watchdog_modules = {"repro.recovery.watchdog", "repro.recovery.cancel"}
    watchdog_names = {"Watchdog", "WatchdogConfig", "CancelToken"}
    imports, builders, appends = set(), set(), []
    for where, tree in modules():
        for node in ast.walk(tree):
            if where.startswith("service/"):
                if isinstance(node, ast.Import):
                    names = {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {node.module or ""} | {
                        f"{node.module}.{a.name}" for a in node.names}
                else:
                    names = set()
                if names & watchdog_modules or {
                        f"repro.recovery.{n}" for n in watchdog_names} & names:
                    imports.add(f"{where}:{node.lineno}")
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and ast.unparse(node.func.value).endswith(
                            "death_events")):
                    appends.append(f"{where}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
            ) == "Watchdog":
                builders.add(where)
    assert imports == set(), imports
    assert builders == {"core/displacement.py", "pipeline/graph.py"}, builders
    assert len(appends) == 1, appends
