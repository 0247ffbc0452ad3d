"""Every example script must at least compile and import its dependencies.

Full example runs take minutes (they execute many consensus instances), so
CI-speed coverage is: byte-compile each script and verify every module it
imports from ``repro`` resolves.  The quickstart (the first thing a reader
runs) and the trace-inspection forensics (under a second) are the
exceptions: both execute end-to-end here.
"""

import ast
import importlib
import py_compile
import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[script.stem for script in SCRIPTS]
)
def test_example_compiles(script, tmp_path):
    py_compile.compile(
        str(script), cfile=str(tmp_path / (script.stem + ".pyc")), doraise=True
    )


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[script.stem for script in SCRIPTS]
)
def test_example_repro_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    imported: set[tuple[str, tuple[str, ...]]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                imported.add(
                    (node.module, tuple(alias.name for alias in node.names))
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    imported.add((alias.name, ()))
    assert imported, f"{script.name} should exercise the repro API"
    for module_name, names in imported:
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), (
                f"{script.name}: {module_name} has no attribute {name}"
            )


def test_quickstart_executes(capsys):
    """The quickstart runs end-to-end, not merely compiles.

    Asserts the run's actual claims: a decision is reached under the
    silence adversary, and a unanimous system decides its common input
    while drawing zero random bits (the paper's validity argument).
    """
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "decision             : 0" in out
    assert "decision=1, random bits=0" in out


def test_trace_inspection_executes(capsys):
    """The forensics example reads one run's report: the adversary struck,
    the operative population only shrank, and the run decided."""
    runpy.run_path(
        str(EXAMPLES_DIR / "trace_inspection.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    timeline = out.split("adversary timeline:\n")[1].split("total omissions")[0]
    assert "corrupted process" in timeline
    counts = [
        int(line.split(":")[1].split()[0])
        for line in out.splitlines()
        if line.endswith(" operative")
    ]
    assert counts and counts == sorted(counts, reverse=True)
    assert "n=96, t=3: decided " in out
    assert "processes decided in total" in out


def test_custom_protocol_executes(capsys, tmp_path, monkeypatch):
    """The extension walkthrough registers its protocol, passes the
    battery and compares costs by name."""
    monkeypatch.setenv("REPRO_COUNTEREXAMPLE_DIR", str(tmp_path))
    runpy.run_path(
        str(EXAMPLES_DIR / "custom_protocol.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "every cell passed" in out
    assert "ConfirmedMajority :    8 rounds,   546,840 bits" in out
    assert not list(tmp_path.iterdir())


def test_every_example_has_a_main():
    for script in SCRIPTS:
        text = script.read_text(encoding="utf-8")
        assert 'if __name__ == "__main__":' in text, script.name


def test_examples_readme_lists_every_script():
    readme = (EXAMPLES_DIR / "README.md").read_text(encoding="utf-8")
    for script in SCRIPTS:
        assert script.name in readme, f"{script.name} missing from README"
