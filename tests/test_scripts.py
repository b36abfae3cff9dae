"""Every script under scripts/ must import against the current API.

``runpy`` executes each file's imports and module-level definitions under a
run name other than ``__main__``, so ``main()`` itself does not run.
"""

import copy
import importlib.util
import pathlib
import re
import runpy
import sys

import pytest

from gapforge.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    namespace = runpy.run_path(str(path), run_name="scripts")
    assert callable(namespace.get("main"))


def test_event_rate_against_this_checkout_gives_equal_digests(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("event_rate", ROOT / "scripts" / "event_rate.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "SHAPES", [shape[:5] + (2_000,) for shape in script.SHAPES])
    script.main(["--against", str(ROOT), "--repeat", "2"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7 and all(row.endswith("  equal") for row in rows), rows
    # the other checkout's copy is gone from the process
    assert not [name for name in sys.modules if name.startswith(script.OTHER)]


def _verify_equal():
    spec = importlib.util.spec_from_file_location("verify_equal", ROOT / "scripts" / "verify_equal.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_verify_equal_invocations_parse_and_compare_what_they_write():
    parser = build_parser()
    for name, (argvs, files) in _verify_equal().INVOCATIONS.items():
        for argv in argvs:
            args = parser.parse_args(argv)
            # the first file compared is the --out one, the others sit beside it
            if files:
                assert args.output == files[0], name
                assert all(f.startswith(pathlib.Path(files[0]).stem + ".") for f in files), name


def test_verify_equal_names_each_moved_field():
    script = _verify_equal()
    check = {"claim": "mechanical-lower-bound", "lhs": 1.1554659000492014, "pass": True,
             "params": {"m": [1.0, 2.0]}}
    old = {"checks": [dict(check, claim="scaling", lhs=0.5), check], "pass": True, "schema": 1}
    new = copy.deepcopy(old)
    assert script.moved_fields(old, new) == ["pass flags changed: none"]
    new["checks"][1]["lhs"] = 1.155465900045008
    assert script.moved_fields(old, new) == [
        "checks[1 mechanical-lower-bound].lhs: 1.1554659000492014 -> 1.155465900045008"
        " (relative move 3.6e-12)",
        "pass flags changed: none",
    ]
    new["checks"][0]["pass"] = False
    assert script.moved_fields(old, new)[-1] == "pass flags changed: checks[0 scaling].pass"


def test_readme_lines_are_short_and_its_scripts_list_names_each_script():
    text = (ROOT / "README.md").read_text()
    long = [n for n, line in enumerate(text.splitlines(), 1) if len(line) > 400]
    assert not long, f"README lines over 400 characters: {long}"
    section = text.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `scripts/([\w.]+\.py)", section, flags=re.M)
    assert sorted(listed) == [p.name for p in SCRIPTS]
