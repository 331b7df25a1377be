"""Layering guard over the package source: one owner per format and one
representation per channel.

Only exact.py may touch ExactMatrix internals (the numerators `_num`, the
denominator `_den` and the raw constructor `_raw`), and no module reads a
`.matrix` attribute: a channel carries its unitary as a quaternion pair and
builds a matrix with freerot.quaternion_matrix where one is needed.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "freeops").glob("*.py"))
INTERNALS = re.compile(r"\._(?:num|den|raw)\b")
MATRIX_ATTRIBUTE = re.compile(r"\.matrix\b")
# exact.py owns the ExactMatrix representation.
NOT_EXACT = [p for p in SOURCES if p.name != "exact.py"]


def offending_lines(path, pattern):
    return [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def test_sources_found():
    assert "exact.py" in {p.name for p in SOURCES} and len(NOT_EXACT) == len(SOURCES) - 1


@pytest.mark.parametrize("path", NOT_EXACT, ids=lambda p: p.name)
def test_exact_matrix_internals_stay_in_exact(path):
    assert offending_lines(path, INTERNALS) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_matrix_attribute(path):
    assert offending_lines(path, MATRIX_ATTRIBUTE) == []
