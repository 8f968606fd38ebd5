"""``import repro`` loads what the default stitch path uses, nothing more.

Every CLI run and every service worker respawn pays the import, so the
optional subsystems resolve on first use.  Checked in a fresh interpreter:
this process has long since imported all of them.

scipy is not a runtime dependency at all: the FFTs run on numpy's
pocketfft (``repro.fftlib.plans.transform``) and the least-squares
position solve on ``numpy.linalg``.  The tests use it as an oracle only.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import repro

LAZY = ("repro.synth", "repro.impls", "repro.service")
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


def test_a_gated_least_squares_stitch_and_its_mosaic_load_no_scipy(tmp_path):
    out = run(
        "import sys, repro\n"
        f"ds = repro.make_synthetic_dataset({str(tmp_path)!r}, rows=3, cols=3,\n"
        "    tile_height=48, tile_width=48, overlap=0.25, seed=1)\n"
        "res = repro.Stitcher(position_method='least_squares', quality=True,\n"
        "                     residue_mode='huber').stitch(ds)\n"
        f"res.compose_to_tiff({str(tmp_path / 'mosaic.tif')!r})\n"
        f"print(res.positions.method, {NEVER!r} in sys.modules)\n"
        + SCIPY_LOADED
    )
    assert out.split("\n")[:2] == ["least_squares False", "[]"]


def test_no_module_under_src_imports_scipy():
    package = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(package)}:{node.lineno}: {n}"
                      for n in names if n.split(".")[0] == "scipy"]
    assert not found, found
