"""Documentation integrity tests.

The docs are deliverables: the generated API reference must be
regenerable and in sync with the code, and the hand-written docs must
reference files that actually exist.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"


class TestApiReference:
    def test_generator_runs(self, capsys, tmp_path, monkeypatch):
        import tools.generate_api_docs as generator

        monkeypatch.setattr(generator, "OUTPUT", tmp_path / "api.md")
        assert generator.main() == 0
        text = (tmp_path / "api.md").read_text()
        for name in ("aligned_bus", "full_vpec", "transient_analysis"):
            assert name in text
        # The checked-in reference is exactly the generator's output:
        # any API or docstring change must be followed by a rerun of
        # ``python tools/generate_api_docs.py``.
        assert text == (DOCS / "api.md").read_text()

    def test_checked_in_reference_covers_packages(self):
        from tools.generate_api_docs import PACKAGES

        text = (DOCS / "api.md").read_text()
        for package in PACKAGES:
            assert f"## `{package}`" in text


class TestCrossReferences:
    @pytest.mark.parametrize(
        "doc", ["theory.md", "architecture.md", "cli.md", "noise.md"]
    )
    def test_doc_exists_and_nonempty(self, doc):
        path = DOCS / doc
        assert path.exists()
        assert len(path.read_text()) > 500

    def test_design_md_module_paths_exist(self):
        """Every `repro/...py` path DESIGN.md names must exist."""
        text = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"`(repro/[\w/]+\.py)`", text):
            assert (REPO / "src" / match.group(1)).exists(), match.group(1)

    def test_design_md_bench_targets_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"`(benchmarks/[\w/]+\.py)", text):
            assert (REPO / match.group(1)).exists(), match.group(1)

    def test_readme_mentions_all_example_scripts(self):
        readme = (REPO / "README.md").read_text()
        for example in ("quickstart.py",):
            assert example in readme
