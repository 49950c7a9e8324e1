"""Site fetching: live HTTP with bounded redirects/size, or offline fixtures.

A snapshot is the landing page plus up to five same-domain pages whose
link text or target path matches the lexicon (candidate contact/about/terms
pages).  Offline mode reads saved HTML from a fixture directory, bounded and
decoded as live pages are, and performs zero network operations.  Live or
offline, a candidate page that cannot be read is skipped and reported.
"""

from __future__ import annotations

import codecs
import functools
import http.client
import logging
import re
import ssl
import threading
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional
from urllib.error import URLError
from urllib.parse import quote, urljoin, urlsplit, urlunsplit

from ..errors import (
    BodyTooLargeError,
    FetchError,
    FetchTimeoutError,
    NetworkUnreachableError,
    NonHtmlContentError,
    TooManyRedirectsError,
    UnparseableUrlError,
)
from ..files import naming, read_json_object
from ..screener import normalize_domain
from .html_text import PageText, normalize_text, parse_page
from .lexicon import KeywordLexicon, default_lexicon

__all__ = [
    "FetchPolicy",
    "Page",
    "SiteSnapshot",
    "FetchCounters",
    "fetch_site",
    "get_fetch_counters",
    "reset_fetch_counters",
]

logger = logging.getLogger(__name__)

_REDIRECT_CODES = (301, 302, 303, 307, 308)
_HTML_TYPES = ("text/html", "application/xhtml+xml")
_MAX_REDIRECTS = 5
_MAX_BODY_BYTES = 2_000_000      # live or fixture
_MAX_SECONDARY_PAGES = 5
# left as is in a path or query; spaces and non-ASCII go out as UTF-8 %XX
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"
_BOMS = ((codecs.BOM_UTF8, "utf-8"), (codecs.BOM_UTF16_BE, "utf-16-be"),
         (codecs.BOM_UTF16_LE, "utf-16-le"))
# <meta charset=x> and <meta http-equiv=... content="...; charset=x"> alike
_META_CHARSET = re.compile(rb"<meta[^>]*?charset\s*=\s*[\"']?\s*([-\w.:]+)", re.IGNORECASE)


@dataclass(frozen=True)
class FetchPolicy:
    """Where a site fetch reads from and how long one request may take;
    immutable and shareable."""

    timeout: float = 10.0
    offline_root: Optional[Path] = None

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError(f"FetchPolicy.timeout must be strictly positive, got {self.timeout!r}")
        if not self.timeout <= threading.TIMEOUT_MAX:     # NaN, inf, or past what a socket takes
            raise ValueError(f"FetchPolicy.timeout must be finite and at most "
                             f"{threading.TIMEOUT_MAX:.0f} s, got {self.timeout!r}")
        if self.offline_root is not None:
            object.__setattr__(self, "offline_root", Path(self.offline_root))


class Page(tuple):
    """One fetched page, read as ``(url, html)``; ``text`` is its parse,
    made on first use and kept on the page, so no page is parsed twice."""

    @functools.cached_property
    def text(self) -> PageText:
        return parse_page(self[1])


@dataclass(frozen=True)
class SiteSnapshot:
    """One fetched website: landing page first, candidate pages after."""

    requested_url: str
    final_url: str
    pages: tuple[Page, ...]   # a plain (url, html) pair is wrapped in a Page
    # (url, reason) of each candidate page that could not be fetched
    skipped_pages: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.pages:
            raise ValueError("snapshot must contain at least the landing page")
        object.__setattr__(self, "pages", tuple(
            page if isinstance(page, Page) else Page(page) for page in self.pages))

    @property
    def final_scheme_secure(self) -> bool:
        """Whether the final URL, after redirects, is served over TLS."""
        return urlsplit(self.final_url).scheme == "https"


@dataclass
class FetchCounters:
    """Observability hook: lets tests assert that no fetching happened."""

    snapshots: int = 0
    http_requests: int = 0


_counters = FetchCounters()
_counters_lock = threading.Lock()


def get_fetch_counters() -> FetchCounters:
    with _counters_lock:
        return FetchCounters(_counters.snapshots, _counters.http_requests)


def reset_fetch_counters() -> None:
    with _counters_lock:
        _counters.snapshots = 0
        _counters.http_requests = 0


def _count(field_name: str) -> None:
    with _counters_lock:
        setattr(_counters, field_name, getattr(_counters, field_name) + 1)


def _complete_url(url: str) -> str:
    # default to http so an upgrade redirect is observable
    return url if "://" in url else "http://" + url


def _looks_like_html(head: bytes) -> bool:
    sample = head[:512].lstrip().lower()
    return b"<html" in sample or sample.startswith(b"<")


# loading the CA store takes ~50 ms, so the verified context is built once;
# it is never modified afterwards, and every thread may share it
_verified_context = functools.cache(ssl.create_default_context)


def _open(url: str, policy: FetchPolicy, verify: bool = True) -> http.client.HTTPResponse:
    """One GET: redirects are not followed and every status is returned."""
    _count("http_requests")
    if verify:
        context = _verified_context()
    else:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                    urllib.request.HTTPHandler(), urllib.request.HTTPSHandler(context=context)):
        opener.add_handler(handler)
    parts = urlsplit(url)
    target = urlunsplit(parts._replace(path=quote(parts.path, safe=_URL_SAFE),
                                       query=quote(parts.query, safe=_URL_SAFE)))
    request = urllib.request.Request(target, headers={"User-Agent": "sourcescope/0.1"})
    return opener.open(request, timeout=policy.timeout)


def _raw_header_text(value: str) -> str:
    """A header value as UTF-8 when its bytes are UTF-8.

    ``http.client`` decodes header bytes as ISO-8859-1, so a ``Location``
    sent as raw UTF-8 (``/über-uns``) would arrive as mojibake.
    """
    try:
        return value.encode("iso-8859-1").decode("utf-8")
    except UnicodeError:
        return value


def _get_html(url: str, policy: FetchPolicy) -> tuple[str, str]:
    """Follow redirects and return (final_url, html_text)."""
    current = url
    for _ in range(_MAX_REDIRECTS + 1):
        try:
            try:
                response = _open(current, policy)
            except URLError as exc:
                if not isinstance(exc.reason, ssl.SSLCertVerificationError):
                    raise
                # TLS negotiated but the certificate failed validation; the
                # padlock bit tracks protocol use, not certificate health.
                logger.warning("certificate verification failed for %s; "
                               "continuing unverified (padlock unaffected)", current)
                response = _open(current, policy, verify=False)
            with response:
                if response.status in _REDIRECT_CODES:
                    location = response.headers.get("Location")
                    if not location:
                        raise NetworkUnreachableError(current, "redirect without Location")
                    current = urljoin(current, _raw_header_text(location))
                    continue
                if response.status >= 400:
                    raise NetworkUnreachableError(current, f"HTTP {response.status}")
                content_type = (response.headers.get("Content-Type") or "").split(";")[0].strip().lower()
                if content_type and content_type not in _HTML_TYPES:
                    raise NonHtmlContentError(current, f"content type {content_type!r}")
                body = response.read(_MAX_BODY_BYTES + 1)
                if response.length and len(body) <= _MAX_BODY_BYTES:
                    raise NetworkUnreachableError(current, "body shorter than its Content-Length")
                charset = response.headers.get_content_charset()
        except (OSError, http.client.HTTPException, UnicodeError) as exc:
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                raise FetchTimeoutError(current, "request timed out") from None
            raise NetworkUnreachableError(current, f"request failed: {exc}") from None
        if len(body) > _MAX_BODY_BYTES:
            raise BodyTooLargeError(current, f"body exceeds {_MAX_BODY_BYTES} bytes")
        if not content_type and not _looks_like_html(body):
            raise NonHtmlContentError(current, "response does not look like HTML")
        return current, _decode(body, charset)
    raise TooManyRedirectsError(url, f"more than {_MAX_REDIRECTS} redirects")


def _decode(body: bytes, charset: Optional[str]) -> str:
    """A page's text, in the WHATWG order of encoding sources.

    A byte-order mark wins, then the HTTP ``charset``, then a ``<meta>``
    declaration in the first 1,024 bytes; a label Python does not know
    falls through to the next source.  Without any, the body is UTF-8 if
    it decodes as such, and windows-1252 otherwise.
    """
    for bom, encoding in _BOMS:
        if body.startswith(bom):
            return body[len(bom):].decode(encoding, errors="replace")
    meta = _META_CHARSET.search(body, 0, 1024)
    declared = meta and meta.group(1).decode("ascii")
    # a page that a byte scan could read was not UTF-16, whatever it says
    if declared and declared.casefold().replace("-", "").startswith("utf16"):
        declared = "utf-8"
    for label in (charset, declared):
        if label:
            try:
                return body.decode(label, errors="replace")
            except LookupError:     # unknown, or not a text encoding
                pass
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return body.decode("windows-1252", errors="replace")


def _first_pages(landing_url: str, urls: Iterable[str]) -> list[str]:
    """The first five distinct URLs of ``urls`` other than the landing page's own."""
    seen: dict[str, None] = {}
    for url in urls:
        if url != landing_url:
            seen.setdefault(url, None)
            if len(seen) >= _MAX_SECONDARY_PAGES:
                break
    return list(seen)


def _candidate_links(landing_url: str, page: PageText, lexicon: KeywordLexicon) -> list[str]:
    """Same-domain links whose text or path shows any section kind."""
    try:
        site_domain = normalize_domain(landing_url)
    except UnparseableUrlError:
        return []

    def shown():
        for text, href in page.anchors:
            if not href or href.startswith("#"):
                continue
            try:
                parts = urlsplit(urljoin(landing_url, href))
            except ValueError:          # e.g. an unclosed "[" host: skip this link only
                continue
            if parts.scheme not in ("http", "https"):
                continue
            resolved = urlunsplit((parts.scheme, parts.netloc, parts.path, parts.query, ""))
            if not lexicon.sections_shown(f"{text}\n{normalize_text(parts.path)}"):
                continue
            try:
                same_site = normalize_domain(resolved) == site_domain
            except UnparseableUrlError:
                continue
            if same_site:
                yield resolved
    return _first_pages(landing_url, shown())


def _fixture_dir(root: Path, url: str) -> Path:
    """``root/<registrable domain>/``, the one offline layout, if it lies inside the root."""
    try:
        site_dir = root / normalize_domain(url)
        if site_dir.resolve().is_relative_to(root.resolve()) and (site_dir / "index.html").is_file():
            return site_dir
    except UnparseableUrlError:
        pass
    raise NetworkUnreachableError(url, f"no offline fixture under {root}")


def _read_fixture_page(site_dir: Path, name: str, url: str) -> str:
    """The saved page ``name``'s text, by the size bound and decoding of a
    live page served without a charset header."""
    try:
        with (site_dir / name).open("rb") as handle:
            body = handle.read(_MAX_BODY_BYTES + 1)
    except (FileNotFoundError, IsADirectoryError):
        raise NetworkUnreachableError(url, f"no fixture file {name}") from None
    if len(body) > _MAX_BODY_BYTES:
        raise BodyTooLargeError(url, f"fixture page {name} exceeds {_MAX_BODY_BYTES} bytes")
    return _decode(body, None)


def _manifest_fields(manifest: dict, url: str) -> tuple[str, list[str]]:
    """The final URL a manifest gives, on the scheme it names or else its own, and its pages."""
    final_url = manifest.get("final_url", url)
    if not isinstance(final_url, str):
        raise NetworkUnreachableError(url, "final_url is not a string")
    parts = urlsplit(_complete_url(final_url))
    secure = manifest.get("final_scheme_secure", parts.scheme == "https")
    if not isinstance(secure, bool):
        raise NetworkUnreachableError(url, "final_scheme_secure is not true or false")
    listed = manifest.get("secondary_pages", [])
    if not isinstance(listed, list) or not all(isinstance(name, str) for name in listed):
        raise NetworkUnreachableError(url, "secondary_pages is not a list of names")
    scheme = "https" if secure else "http"
    final_url = urlunsplit((scheme, parts.netloc, parts.path or "/", parts.query, ""))
    return final_url, listed


def _fixture_source(url: str, root: Path) -> tuple[Page, list[str], Callable[[str], tuple]]:
    """The saved landing page, the candidate URLs its manifest's names give, less
    any fragment as on a live link (:func:`_first_pages`), and the reader of one of
    them; each URL is read from the first name that gives it, and a name to read
    outside the site is refused."""
    site_dir = _fixture_dir(root, url)
    manifest_path = site_dir / "manifest.json"
    refuse = functools.partial(NetworkUnreachableError, url)
    manifest = read_json_object(manifest_path, refuse) if manifest_path.is_file() else {}
    final_url, listed = naming(manifest_path, NetworkUnreachableError, _manifest_fields, manifest, url)

    landing = Page((final_url, _read_fixture_page(site_dir, "index.html", final_url)))
    names: dict[str, str] = {}
    for name in listed:
        name = name.partition("#")[0]
        names.setdefault(urljoin(final_url, name), name)
    candidates = _first_pages(final_url, names)
    inside = site_dir.resolve()
    for name in map(names.get, candidates):
        if not (site_dir / name).resolve().is_relative_to(inside):
            raise NetworkUnreachableError(url, f"fixture page {name!r} lies outside {site_dir}")
    return landing, candidates, lambda page_url: (
        page_url, _read_fixture_page(site_dir, names[page_url], page_url))


def call_each(function: Callable, items: Iterable, workers: Optional[int] = None) -> list:
    """``function`` of each item, or the exception it raised, in input
    order: on ``workers`` threads when given, in this thread otherwise."""
    def attempt(item):
        try:
            return function(item)
        except Exception as exc:
            return exc

    if not workers:
        return [attempt(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor   # a run without workers starts no thread
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(attempt, items))


def fetch_site(url: str, policy: FetchPolicy,
               lexicon: Optional[KeywordLexicon] = None) -> SiteSnapshot:
    """Fetch a website's landing page plus candidate secondary pages.

    Live, the candidates are the landing page's links that show a section,
    fetched in parallel.  With ``policy.offline_root`` set, they are the
    pages the fixture's manifest lists, read in this thread, and no sockets
    are opened.  A candidate that cannot be read is listed in
    ``skipped_pages`` with its reason.
    """
    _count("snapshots")
    live = policy.offline_root is None
    if live:
        landing = Page(_get_html(_complete_url(url), policy))
        candidates = _candidate_links(landing[0], landing.text, lexicon or default_lexicon())
        read = functools.partial(_get_html, policy=policy)
    else:
        landing, candidates, read = _fixture_source(url, policy.offline_root)

    pages, skipped = [landing], []
    for link, page in zip(candidates, call_each(read, candidates, len(candidates) if live else None)):
        if isinstance(page, Exception):
            skipped.append((link, page.reason if isinstance(page, FetchError) else str(page)))
        else:
            pages.append(page)
    return SiteSnapshot(requested_url=url, final_url=landing[0],
                        pages=tuple(pages), skipped_pages=tuple(skipped))
