"""The one page loop of ``fetch_site`` against the two loops it replaced.

The reference below is the earlier ``_fetch_live``, ``_fetch_offline`` and
``fetch_site``, kept verbatim with the ``_read_fixture_page``,
``_force_scheme`` and the worker count they used: live, candidate pages were
read four at a time and a failed one was skipped; offline, the pages the
manifest listed were read in turn and one that was missing or too large
failed the whole fetch.  The current
``fetch_site`` must give the same snapshot, or raise the same error, on
every fixture site, on the packaged demo fixtures and on the loopback
server's routes.  Five differences are deliberate and pinned: a manifest
that lists one URL twice has it read once (``test_manifests["twice"]``);
a manifest name that resolves to the landing URL (``""``, ``"./"``) is not
a candidate page, as a live link to the landing page is not
(``test_manifests["landing"]``), where the reference failed on it as a
missing page; a manifest name's fragment is dropped, as a live link's is
(``test_manifests["fragment"]``), where the reference failed on ``#top``
as a missing page; a manifest that gives ``final_url`` but not
``final_scheme_secure`` is on ``final_url``'s scheme, not the requested
URL's (``test_padlock_default``); and an offline page that cannot be read
is now skipped, as a live one always was (at the end).
"""

import json
from importlib import resources
from pathlib import Path
from typing import Optional
from urllib.parse import urljoin, urlsplit, urlunsplit

import pytest

from sourcescope.errors import BodyTooLargeError, FetchError, NetworkUnreachableError
from sourcescope.features import snapshot
from sourcescope.features.snapshot import (
    _MAX_BODY_BYTES,
    _MAX_SECONDARY_PAGES,
    FetchPolicy,
    Page,
    SiteSnapshot,
    _candidate_links,
    _complete_url,
    _count,
    _decode,
    _fixture_dir,
    _get_html,
)
from sourcescope.features.lexicon import KeywordLexicon, default_lexicon
from tests.conftest import write_partial_site
from tests.test_fetch_live import UNDECLARED, server, tls_server  # noqa: F401  (fixtures)

_SECONDARY_WORKERS = 4


def _fetch_live(url: str, policy: FetchPolicy, lexicon: KeywordLexicon) -> SiteSnapshot:
    landing = Page(_get_html(_complete_url(url), policy))
    final_url = landing[0]
    pages = [landing]
    skipped = []
    candidates = _candidate_links(final_url, landing.text, lexicon)

    def fetch_one(link: str):
        try:
            return _get_html(link, policy), None
        except Exception as exc:
            return None, exc.reason if isinstance(exc, FetchError) else str(exc)

    if candidates:
        from concurrent.futures import ThreadPoolExecutor   # an offline run starts no thread
        with ThreadPoolExecutor(max_workers=_SECONDARY_WORKERS) as pool:
            for link, (page, reason) in zip(candidates, pool.map(fetch_one, candidates)):
                if page is None:
                    skipped.append((link, reason))
                else:
                    pages.append(page)
    return SiteSnapshot(
        requested_url=url,
        final_url=final_url,
        pages=tuple(pages),
        skipped_pages=tuple(skipped),
    )


def _read_fixture_page(path: Path, url: str) -> str:
    """A saved page's text, by the size bound and decoding of a live page
    served without a charset header."""
    with path.open("rb") as handle:
        body = handle.read(_MAX_BODY_BYTES + 1)
    if len(body) > _MAX_BODY_BYTES:
        raise BodyTooLargeError(url, f"fixture page {path.name} exceeds {_MAX_BODY_BYTES} bytes")
    return _decode(body, None)


def _force_scheme(url: str, secure: bool) -> str:
    parts = urlsplit(_complete_url(url))
    scheme = "https" if secure else "http"
    return urlunsplit((scheme, parts.netloc, parts.path or "/", parts.query, ""))


def _fetch_offline(url: str, policy: FetchPolicy) -> SiteSnapshot:
    assert policy.offline_root is not None
    site_dir = _fixture_dir(policy.offline_root, url)

    manifest = {}
    manifest_path = site_dir / "manifest.json"
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as exc:
            raise NetworkUnreachableError(url, f"{manifest_path}: not valid JSON ({exc})") from None

    requested_scheme = urlsplit(_complete_url(url)).scheme
    secure = bool(manifest.get("final_scheme_secure", requested_scheme == "https"))
    final_url = _force_scheme(manifest.get("final_url", url), secure)

    pages = [(final_url, _read_fixture_page(site_dir / "index.html", final_url))]
    root = site_dir.resolve()
    for name in manifest.get("secondary_pages", [])[:_MAX_SECONDARY_PAGES]:
        page_path = (site_dir / name).resolve()
        if not page_path.is_relative_to(root):
            raise NetworkUnreachableError(url, f"fixture page {name!r} lies outside {site_dir}")
        if not page_path.is_file():
            raise NetworkUnreachableError(url, f"fixture lists missing page {name!r}")
        page_url = urljoin(final_url, name)
        pages.append((page_url, _read_fixture_page(page_path, page_url)))
    return SiteSnapshot(
        requested_url=url,
        final_url=final_url,
        pages=tuple(pages),
    )


def fetch_site(url: str, policy: FetchPolicy,
               lexicon: Optional[KeywordLexicon] = None) -> SiteSnapshot:
    """Fetch a website's landing page plus candidate secondary pages.

    With ``policy.offline_root`` set, the snapshot is read from fixtures
    and no sockets are opened.
    """
    _count("snapshots")
    if policy.offline_root is not None:
        return _fetch_offline(url, policy)
    return _fetch_live(url, policy, lexicon or default_lexicon())


# --------------------------------------------------------------------------

def outcome(fetch, url: str, policy: FetchPolicy):
    """What a fetch gives, in full: the snapshot's parts, or the error."""
    try:
        snap = fetch(url, policy)
    except FetchError as exc:
        return type(exc), str(exc)
    return (snap.requested_url, snap.final_url,
            [tuple(page) for page in snap.pages], snap.skipped_pages)


def assert_same(url: str, policy: FetchPolicy):
    expected = outcome(fetch_site, url, policy)
    assert outcome(snapshot.fetch_site, url, policy) == expected


SITES = Path(__file__).parent / "fixtures" / "sites"
DEMO = Path(str(resources.files("sourcescope.data").joinpath("fixtures")))


@pytest.mark.parametrize("root,name", [(SITES, site.name) for site in sorted(SITES.iterdir())]
                         + [(DEMO, site.name) for site in sorted(DEMO.iterdir())])
@pytest.mark.parametrize("scheme", ["http", "https"])
def test_fixture_sites(root, name, scheme):
    assert_same(f"{scheme}://{name}", FetchPolicy(offline_root=root))


LISTED = {
    "twice": ["contact.html", "contact.html"],
    "past-the-budget": [f"p{i}.html" for i in range(7)],
    "in-a-subdirectory": ["sub/about.html"],
    "outside": ["contact.html", "../outside.html"],
    "landing": ["", "./", "contact.html"],
    "fragment": ["#top", "contact.html#form", "contact.html"],
}


@pytest.mark.parametrize("case", sorted(LISTED))
def test_manifests(tmp_path, case):
    site = tmp_path / "root" / "listed.test"
    (site / "sub").mkdir(parents=True)
    for name in ("index.html", "contact.html", "sub/about.html",
                 *(f"p{i}.html" for i in range(7)), "../outside.html"):
        (site / name).write_text(f"<h2>{name}</h2>", encoding="utf-8")
    (site / "manifest.json").write_text(json.dumps({
        "final_url": "https://listed.test/news/", "final_scheme_secure": False,
        "secondary_pages": LISTED[case]}), encoding="utf-8")
    url, policy = "http://listed.test", FetchPolicy(offline_root=tmp_path / "root")
    if case in ("landing", "fragment"):
        # the reference read "" and "#top" as missing pages; the landing page is
        # not a candidate now, and "contact.html#form" is "contact.html"
        assert outcome(fetch_site, url, policy) == (
            NetworkUnreachableError,
            f"fixture lists missing page {LISTED[case][0]!r} (http://listed.test)")
        final = "http://listed.test/news/"
        assert outcome(snapshot.fetch_site, url, policy) == (
            url, final, [(final, "<h2>index.html</h2>"),
                         (final + "contact.html", "<h2>contact.html</h2>")], ())
        return
    if case != "twice":
        assert_same(url, policy)
        return
    # the reference read the listed page twice; each URL is now read once
    requested, final, pages, skipped = outcome(fetch_site, url, policy)
    assert len(pages) == 3
    assert outcome(snapshot.fetch_site, url, policy) == (requested, final, pages[:2], skipped)


def test_padlock_default(tmp_path):
    site = tmp_path / "upgraded.test"
    site.mkdir()
    (site / "index.html").write_text("<p>hi</p>", encoding="utf-8")
    (site / "manifest.json").write_text('{"final_url": "https://upgraded.test/"}', encoding="utf-8")
    url, policy = "http://upgraded.test", FetchPolicy(offline_root=tmp_path)
    # the reference took the requested URL's scheme; the final URL's is taken now
    assert outcome(fetch_site, url, policy)[1] == "http://upgraded.test/"
    assert outcome(snapshot.fetch_site, url, policy)[1] == "https://upgraded.test/"


LIVE_PATHS = ["/", "/hop/3", "/many", "/partial", "/badlink", "/intl", "/moved-intl",
              "/moved-latin1", "/cp1252", "/untyped", *sorted(UNDECLARED),
              # the errors
              "/hop/6", "/loop", "/pdf", "/untyped-pdf", "/huge", "/missing", "/truncated",
              "/ftp", "/no-location"]


@pytest.mark.parametrize("path", LIVE_PATHS)
def test_loopback_routes(server, path):  # noqa: F811
    assert_same(f"{server}{path}", FetchPolicy(timeout=5))


def test_loopback_over_tls(tls_server):  # noqa: F811
    assert_same(f"{tls_server}/", FetchPolicy(timeout=5))


def test_unreadable_listed_pages_are_skipped_where_the_reference_raised(tmp_path):
    skipped = write_partial_site(tmp_path)
    policy = FetchPolicy(offline_root=tmp_path)
    with pytest.raises(NetworkUnreachableError, match="fixture lists missing page 'about.html'"):
        fetch_site("http://partial.test", policy)
    snap = snapshot.fetch_site("http://partial.test", policy)
    (tmp_path / "partial.test" / "about.html").write_text("<p>about</p>", encoding="utf-8")
    with pytest.raises(BodyTooLargeError, match="fixture page big.html exceeds"):
        fetch_site("http://partial.test", policy)
    assert [url for url, _ in snap.pages] == ["http://partial.test/",
                                              "http://partial.test/contact.html"]
    assert snap.skipped_pages == tuple(skipped)
