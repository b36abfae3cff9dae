"""Every script under scripts/ must import against the current API.

``runpy`` executes each file's imports and module-level definitions under a
run name other than ``__main__``, so ``main()`` itself does not run.
"""

import pathlib
import runpy

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="scripts")
    assert callable(namespace.get("main"))
