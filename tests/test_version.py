"""The package metadata and the runtime version agree."""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def _field(path: Path, pattern: str) -> str:
    match = re.search(pattern, path.read_text(), re.MULTILINE)
    assert match is not None, f"no version field in {path.name}"
    return match.group(1)


def test_metadata_versions_match_package_version():
    version = repro.__version__
    assert _field(ROOT / "pyproject.toml", r'^version = "([^"]+)"$') == version
    assert _field(ROOT / "CITATION.cff", r"^version: (\S+)$") == version
