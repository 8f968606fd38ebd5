"""``import repro`` loads what the default stitch path uses, nothing more.

Every CLI run and every service worker respawn pays the import, so the
optional subsystems resolve on first use.  Checked in a fresh interpreter:
this process has long since imported all of them.

scipy in particular is loaded only by the least-squares solve: the FFTs
run on numpy's pocketfft (``repro.fftlib.plans.transform``).
"""

import subprocess
import sys

import pytest

LAZY = ("scipy.sparse", "repro.synth", "repro.impls", "repro.service")
#: Not a dependency: only the phase-2 oracle in tests/core imports it.
NEVER = "networkx"
#: Prints the scipy modules loaded so far (``[]`` when none).
SCIPY_LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_default_stitcher_imports_no_optional_subsystem():
    out = run(
        "import sys, repro\n"
        "repro.Stitcher()\n"
        f"print([m for m in {LAZY + (NEVER,)!r} if m in sys.modules])\n"
    )
    assert out.strip() == "[]"


def test_a_complete_default_stitch_never_imports_the_graph_library(tmp_path):
    out = run(
        "import sys, repro\n"
        f"ds = repro.make_synthetic_dataset({str(tmp_path)!r}, rows=2, cols=2,\n"
        "    tile_height=48, tile_width=48, overlap=0.25, seed=1)\n"
        "res = repro.Stitcher().stitch(ds)\n"
        f"print(res.positions.positions.shape, {NEVER!r} in sys.modules)\n"
    )
    assert out.strip() == "(2, 2, 2) False"


def test_import_repro_loads_no_scipy():
    assert run("import sys, repro\n" + SCIPY_LOADED).strip() == "[]"


@pytest.mark.parametrize("impl", ["simple-cpu", "simple-gpu"])
def test_a_stitch_and_its_mosaic_load_no_scipy(tmp_path, impl):
    out = run(
        "import sys, repro\n"
        f"ds = repro.make_synthetic_dataset({str(tmp_path)!r}, rows=2, cols=2,\n"
        "    tile_height=48, tile_width=48, overlap=0.25, seed=1)\n"
        f"res = repro.Stitcher(impl={impl!r}).stitch(ds)\n"
        f"res.compose_to_tiff({str(tmp_path / 'mosaic.tif')!r})\n"
        + SCIPY_LOADED
    )
    assert out.strip() == "[]"


def test_make_synthetic_dataset_still_served_from_the_package():
    out = run(
        "import sys, repro\n"
        "from repro import make_synthetic_dataset\n"
        "from repro.synth import make_synthetic_dataset as real\n"
        "assert make_synthetic_dataset is real is repro.make_synthetic_dataset\n"
        "assert 'make_synthetic_dataset' in repro.__all__\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "assert set(repro.__all__) <= set(ns), set(repro.__all__) - set(ns)\n"
        "assert ns['make_synthetic_dataset'] is real\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert "no attribute 'no_such_name'" in out


def test_least_squares_imports_the_sparse_solver_itself():
    out = run(
        "import sys, repro\n"
        "repro.Stitcher(position_method='least_squares')\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "from repro.core.displacement import DisplacementResult, Translation\n"
        "from repro.core.global_opt import resolve_absolute_positions\n"
        "disp = DisplacementResult.empty(1, 2)\n"
        "disp.west[0][1] = Translation(0.9, 10, 0)\n"
        "pos = resolve_absolute_positions(disp, method='least_squares')\n"
        "print(pos.positions.tolist(), 'scipy.sparse.linalg' in sys.modules,\n"
        f"      {NEVER!r} in sys.modules)\n"
    )
    assert out.strip() == "[[[0, 0], [0, 10]]] True False"
