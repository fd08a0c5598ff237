import pytest

import qshape.blockenc as be
from qshape.blockenc import BlockEnc


@pytest.fixture
def built_encodings(monkeypatch):
    """Every BlockEnc made while the test runs, in the order they were made:
    those the constructor checks and those the primitives build."""
    built = []
    check, build = BlockEnc.__post_init__, be._built
    monkeypatch.setattr(BlockEnc, "__post_init__", lambda self: built.append(self) or check(self))
    monkeypatch.setattr(be, "_built", lambda *args: built.append(build(*args)) or built[-1])
    return built
