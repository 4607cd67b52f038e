"""Docs-site sanity: autodoc targets import, the Sphinx build is
warning-free where the toolchain is installed, and CI runs only modules
and paths that exist.

The full ``sphinx-build -W`` runs in the CI ``docs`` job; these tests
keep the cheap invariants in the tier-1 suite so a rename that would
break the docs build fails close to the change, and run the real build
when sphinx + myst-parser happen to be importable (as in the docs job's
environment).
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

DOCS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs")


def automodule_targets():
    targets = []
    for name in os.listdir(DOCS_DIR):
        if not name.endswith(".rst"):
            continue
        with open(os.path.join(DOCS_DIR, name), encoding="utf-8") as handle:
            targets.extend(re.findall(
                r"^\.\. automodule:: (\S+)", handle.read(), re.MULTILINE))
    return targets


class TestDocsTree:
    def test_core_pages_exist(self):
        for page in ("conf.py", "index.md", "architecture.md",
                     "configuration.md", "api.rst"):
            assert os.path.exists(os.path.join(DOCS_DIR, page)), page

    def test_autodoc_targets_import(self):
        targets = automodule_targets()
        assert "repro.api" in targets
        assert "repro.sinks" in targets
        assert "repro.core.decomposition" in targets
        assert "repro.concurrency.sharding" in targets
        for target in targets:
            importlib.import_module(target)

    def test_index_toctree_covers_pages(self):
        with open(os.path.join(DOCS_DIR, "index.md"),
                  encoding="utf-8") as handle:
            index = handle.read()
        for doc in ("architecture", "configuration", "api"):
            assert f"\n{doc}\n" in index, f"{doc} missing from toctree"

    def test_sphinx_build_is_warning_free(self, tmp_path):
        for module in ("sphinx", "myst_parser"):
            if importlib.util.find_spec(module) is None:
                pytest.skip(f"{module} not installed (docs CI job runs "
                            "the real build)")
        result = subprocess.run(
            [sys.executable, "-m", "sphinx", "-W", "-b", "html",
             DOCS_DIR, str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr


ROOT = os.path.dirname(DOCS_DIR)


def read_workflow():
    path = os.path.join(ROOT, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def ci_modules(workflow):
    """Every ``repro`` module the workflow runs with ``python -m``."""
    return sorted(set(re.findall(r"\bpython[\d.]*(?: -[XW] \S+)* -m "
                                 r"(repro[\w.]*)", workflow)))


def ci_scripts(workflow):
    """Every ``.py`` file named on a line that runs ``python``."""
    return sorted({script for line in workflow.splitlines()
                   if re.search(r"\bpython\b", line)
                   for script in re.findall(r"[\w./-]+\.py\b", line)})


def ci_pytest_paths(workflow):
    """Every path argument of ``-m pytest``, continuation lines included."""
    return sorted({token
                   for args in re.findall(r"-m pytest((?:[^\n]*\\\n)*[^\n]*)",
                                          workflow)
                   for token in args.replace("\\\n", " ").split()
                   if not token.startswith("-")})


WORKFLOW = read_workflow()


class TestCiNamesWhatExists:
    """Every ``repro`` module, script and pytest path the CI workflow runs
    exists, so deleting or renaming one fails here rather than as a red
    CI job.  One case per name; the first three tests pin that the
    parser still finds names it must find."""

    def test_finds_the_modules(self):
        assert "repro" in ci_modules(WORKFLOW)

    def test_finds_the_scripts(self):
        assert {"bench_e2e/run.py", "examples/quickstart.py"} <= set(
            ci_scripts(WORKFLOW))

    def test_finds_the_pytest_paths(self):
        assert {"bench_e2e/tests", "tests/test_session_model.py",
                "tests/service/test_gateway_model.py"} <= set(
            ci_pytest_paths(WORKFLOW))

    @pytest.mark.parametrize("module", ci_modules(WORKFLOW))
    def test_repro_module_resolves(self, module):
        assert importlib.util.find_spec(module) is not None, module

    @pytest.mark.parametrize("script", ci_scripts(WORKFLOW))
    def test_script_exists(self, script):
        assert os.path.isfile(os.path.join(ROOT, script)), script

    @pytest.mark.parametrize("path", ci_pytest_paths(WORKFLOW))
    def test_pytest_path_exists(self, path):
        assert os.path.exists(os.path.join(ROOT, path)), path
