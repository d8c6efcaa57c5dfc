from pathlib import Path

import pytest

from cbos.corpus import build_vocab

TESTS = Path(__file__).parent

# Filled by the acceptance tests; echoed after the run so the per-criterion
# verdict lines survive pytest's stdout capture.
GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


def pytest_collection_modifyitems(items):
    """A test that leaks an open file or socket fails.

    Its ``ResourceWarning``, and the warning pytest raises for an exception
    ignored while an object was dropped, become errors. The filters are set
    here rather than in ``pyproject.toml`` so that they cover the tests of
    this directory and leave the bench's own tests at pytest's defaults.
    """
    for item in items:
        if item.path.is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture
def tiny_vocab():
    """Six words with distinct counts; ids follow descending count."""
    tokens = ["the"] * 6 + ["cat"] * 4 + ["sat"] * 3 + ["on"] * 2 + ["mat"] * 2 + ["a"]
    return build_vocab(tokens, min_count=1)


@pytest.fixture
def corrupt_corpus(tmp_path):
    """A 68 kB corpus, valid UTF-8 with 2-byte letters but for one ``\\xff`` near its end.

    Returns the path and the file offset of the bad byte. The words are
    ``alpha``, ``beta``, ``gamma`` and ``délta``.
    """
    words = ["alpha", "beta", "gamma", "délta"]
    lines = [" ".join(words[(i + j) % 4] for j in range(12)) for i in range(945)]  # 68,040 bytes
    data = bytearray("\n".join(lines).encode() + b"\n")
    offset = len(data) - 8
    data[offset] = 0xFF
    path = tmp_path / "corrupt.txt"
    path.write_bytes(bytes(data))
    return str(path), offset
