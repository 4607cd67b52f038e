"""Docs-site sanity: autodoc targets import, and the Sphinx build is
warning-free where the toolchain is installed.

The full ``sphinx-build -W`` runs in the CI ``docs`` job; these tests
keep the cheap invariants in the tier-1 suite so a rename that would
break the docs build fails close to the change, and run the real build
when sphinx + myst-parser happen to be importable (as in the docs job's
environment).
"""

import importlib
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


class TestPerfSuitesAgree:
    """A perf-smoke suite exists in three places — the ``SUITES`` table,
    the CI ``perf-smoke`` matrix and README's baselines table — and must
    name the same committed ``BENCH_prN.json`` in each, so one cannot be
    added (or dropped) in one place only."""

    ROOT = os.path.dirname(DOCS_DIR)

    def read(self, *parts):
        with open(os.path.join(self.ROOT, *parts), encoding="utf-8") as handle:
            return handle.read()

    def test_table_matrix_and_readme_name_the_same_suites(self):
        from repro.bench.perf_smoke import SUITES
        table = {name: suite.baseline for name, suite in SUITES.items()}
        matrix = {
            suite: f"BENCH_pr{pr}.json" for suite, pr in re.findall(
                r"- suite: (\w+)\n\s+pr: (\d+)",
                self.read(".github", "workflows", "ci.yml"))}
        readme = dict(re.findall(
            r"^\| `(\w+)` \| `(BENCH_pr\d+\.json)` \|",
            self.read("README.md"), re.MULTILINE))
        assert len(table) == 5
        assert matrix == table
        assert readme == table
        for baseline in table.values():
            assert os.path.exists(os.path.join(self.ROOT, baseline)), baseline
