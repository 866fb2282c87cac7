"""Every script under scripts/ loads: the library names it imports, private
ones such as model._layer_fwd included, still exist. run_name "smoke" keeps
each script's main() from running."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # each script prepends src/
    names = runpy.run_path(str(path), run_name="smoke")
    assert callable(names["main"])
