import pytest

from cbos.corpus import build_vocab

# Filled by the acceptance tests; echoed after the run so the per-criterion
# verdict lines survive pytest's stdout capture.
GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


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
