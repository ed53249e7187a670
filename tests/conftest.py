from __future__ import annotations

from pathlib import Path

import pytest

from evrforge import dsl
from evrforge import model as m

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> m.RegisterDocument:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    result = dsl.parse_register(text, name)
    assert result.document is not None, result.errors[:5]
    return result.document


@pytest.fixture(scope="session")
def chain_doc() -> m.RegisterDocument:
    return load_fixture("tm_chain.evr")


@pytest.fixture(scope="session")
def full_doc() -> m.RegisterDocument:
    return load_fixture("tm_full.evr")


@pytest.fixture(scope="session")
def clean_doc() -> m.RegisterDocument:
    return load_fixture("tm_clean.evr")
