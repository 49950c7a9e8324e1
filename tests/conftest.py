import json
from pathlib import Path

import pytest

from sourcescope.features import SiteSnapshot

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_sites() -> Path:
    return FIXTURES / "sites"


@pytest.fixture(scope="session")
def corpus() -> dict:
    return json.loads((FIXTURES / "corpus.json").read_text(encoding="utf-8"))


def make_snapshot(*pages: str, secure: bool = False, url: str = "http://unit.test/") -> SiteSnapshot:
    """Snapshot over literal HTML strings, for direct detector tests."""
    scheme = "https" if secure else "http"
    final = url.replace("http://", f"{scheme}://", 1) if url.startswith("http://") else url
    return SiteSnapshot(
        requested_url=url,
        final_url=final,
        pages=tuple((f"{final}page{i}", html) for i, html in enumerate(pages)),
    )


@pytest.fixture()
def snapshot_factory():
    return make_snapshot
