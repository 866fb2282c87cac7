"""Every script under scripts/ loads: the library names it imports, private
ones such as model._layer_fwd included, still exist. run_name "smoke" keeps
each script's main() from running. The two bench scripts also run end to
end at toy sizes."""
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # each script prepends src/
    names = runpy.run_path(str(path), run_name="smoke")
    assert callable(names["main"])


@pytest.mark.parametrize("script, args, rows", [
    ("bench_lap", ["--sizes", "8"], ["random", "zero", "rank1", "corr", "warm"]),
    ("bench_kernels", ["--batches", "2", "--repeats", "1"],
     ["conv0", "bn0", "total", "repair", "step", "score", "curve"]),
], ids=["bench_lap", "bench_kernels"])
def test_bench_script_runs(script, args, rows):
    path = SCRIPTS[0].parent / f"{script}.py"
    out = subprocess.run([sys.executable, str(path)] + args, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    firsts = [line.split()[0] for line in out.splitlines()[2:]]
    assert set(rows) <= set(firsts), out
