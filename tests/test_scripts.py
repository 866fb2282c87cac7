"""Every script under scripts/ loads: the library names it imports, private
ones such as model._layer_fwd included, still exist. run_name "smoke" keeps
each script's main() from running. The bench script also runs end to end
at toy sizes, one part per case, and writes what it prints as JSON."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from rebasin.cli import _run_env

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # each script prepends src/
    names = runpy.run_path(str(path), run_name="smoke")
    assert callable(names["main"])


# Each case runs one part of bench.py and skips the other with an empty
# option; between them they expect every row the script prints. Each also
# sets BLAS thread variables: with none set the script pins all three to 1,
# with one set it leaves them alone.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PARTS = {
    "bench_lap": (["--sizes", "8", "--batches"], "random zero rank1 corr warm real",
                  {}, dict.fromkeys(THREAD_VARS, "1")),
    "bench_kernels": (["--sizes", "--batches", "2"],
                      "conv0 bn0 total repair probe step score curve",
                      {"OMP_NUM_THREADS": "1"},
                      {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": None}),
}


@pytest.mark.parametrize("part", PARTS)
def test_bench_script_runs(part, tmp_path):
    args, rows, threads, pinned = PARTS[part]
    path = tmp_path / "bench.json"
    run_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    out = subprocess.run([sys.executable, str(SCRIPTS[0].parent / "bench.py"),
                          *args, "--repeats", "1", "--json", str(path)],
                         env={**run_env, **threads}, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    lines = out.splitlines()
    env = json.loads(lines[0])
    assert env.keys() == _run_env().keys() and env["usable_cores"] >= 1, lines[0]
    assert env["threads"] == pinned, lines[0]
    firsts = {line.split()[0] for line in lines[1:] if not line.startswith("#")}
    other = next(r for k, (_, r, *_) in PARTS.items() if k != part)
    assert set(rows.split()) <= firsts and not firsts & set(other.split()), out
    # the JSON holds the same environment and one entry per printed row
    doc = json.loads(path.read_text())
    assert doc["env"] == env and doc["repeats"] == 1
    tables = doc["tables"].values()
    assert sum(len(t["rows"]) for t in tables) == len(lines) - 2 - len(tables), out
    assert {r[0] for t in tables for r in t["rows"]} == firsts
