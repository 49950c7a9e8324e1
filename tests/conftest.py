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


def write_partial_site(root: Path, secure: bool = False) -> list[tuple[str, str]]:
    """An offline site, ``partial.test``, whose manifest lists a missing page
    and a page over the 2 MB bound beside one that reads; returns the
    ``(url, reason)`` of the two that a fetch must skip."""
    site = root / "partial.test"
    site.mkdir(parents=True)
    (site / "index.html").write_text('<a href="/contact.html">Contact us</a>', encoding="utf-8")
    (site / "contact.html").write_text("<p>phone: 5550100200</p>", encoding="utf-8")
    (site / "big.html").write_bytes(b"x" * 2_000_001)
    (site / "manifest.json").write_text(json.dumps({
        "final_scheme_secure": secure,
        "secondary_pages": ["about.html", "big.html", "contact.html"]}), encoding="utf-8")
    scheme = "https" if secure else "http"
    return [(f"{scheme}://partial.test/about.html", "no fixture file about.html"),
            (f"{scheme}://partial.test/big.html", "fixture page big.html exceeds 2000000 bytes")]
