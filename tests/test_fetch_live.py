"""Live HTTP path exercised against a local loopback server."""

import codecs
import json
import logging
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sourcescope.errors import (
    BodyTooLargeError,
    FetchTimeoutError,
    NetworkUnreachableError,
    NonHtmlContentError,
    TooManyRedirectsError,
)
from sourcescope.features import (
    FetchPolicy,
    default_lexicon,
    extract_features,
    features_from_snapshot,
    fetch_site,
    parse_page,
)

LANDING = """<!DOCTYPE html><html><head><title>live</title></head><body>
<a href="/contact.html">Contact us</a>
<a href="/about.html">About us</a>
<a href="http://elsewhere.example/terms.html">offsite terms</a>
<p>landing body</p>
</body></html>"""

CONTACT = """<!DOCTYPE html><html><body><p>phone: 555 010 3344</p></body></html>"""
ABOUT = """<!DOCTYPE html><html><body><h4>who we are</h4></body></html>"""
INTL = """<!DOCTYPE html><html><body>
<a href="/über-uns">Über uns</a>
<a href="/contact us.html">Contact</a>
</body></html>"""

# seven same-site candidates, two more than a snapshot takes
MANY = ("<!DOCTYPE html><html><body>"
        + "".join(f'<a href="/contact-{i}.html">Contact desk {i}</a>' for i in range(1, 8))
        + "</body></html>")

# two candidate pages, both answering 404
PARTIAL = """<!DOCTYPE html><html><body>
<a href="/gone-contact.html">Contact us</a>
<a href="/gone-about.html">About us</a>
</body></html>"""

# its contact link answers 302 to another host, whose footer shows a phone and terms
LEAVING = """<!DOCTYPE html><html><body>
<a href="/leave-contact">Contact us</a>
</body></html>"""
ELSEWHERE = """<!DOCTYPE html><html><body>
<footer>phone: 555 010 3344 <a href="/terms.html">Terms of use</a></footer>
</body></html>"""

BADLINK = """<!DOCTYPE html><html><body>
<a href="http://[oops/contact">Contact</a>
<a href="/about.html">About us</a>
</body></html>"""

# pages served as bare text/html: (body, what it must decode to)
UNDECLARED = {
    "/utf8-bare": ("<html><body><footer>Mentions légales</footer></body></html>".encode("utf-8"),
                   "Mentions légales"),
    "/meta-1252": (b'<html><head><meta charset="windows-1252"></head>'
                   b"<body>caf\xe9 \x93quoted\x94</body></html>", "café “quoted”"),
    "/meta-latin9": (b'<html><head><meta http-equiv="Content-Type" '
                     b'content="text/html; charset=ISO-8859-15"></head>'
                     b"<body>5 \xa4</body></html>", "5 €"),
    "/meta-utf16": ('<html><head><meta charset="utf-16"></head><body>café</body></html>'
                    .encode("utf-8"), "café"),
    "/meta-unknown": ('<html><head><meta charset="x-no-such"></head><body>café</body></html>'
                      .encode("utf-8"), "café"),
    "/bom-utf16": (codecs.BOM_UTF16_LE + "<html><body>café</body></html>".encode("utf-16-le"),
                   "café"),
}

LAG_S = 0.6   # how long a /lag/ landing page waits before it answers

TLS = Path(__file__).parent / "fixtures" / "tls"   # self-signed for IP 127.0.0.1


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send_html(self, body: str, content_type="text/html; charset=utf-8"):
        self._send_bytes(body.encode("utf-8"), content_type)

    def _send_bytes(self, payload: bytes, content_type):
        self.send_response(200)
        if content_type:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        if self.path == "/":
            self._send_html(LANDING)
        elif self.path == "/contact.html":
            self._send_html(CONTACT)
        elif self.path == "/about.html":
            self._send_html(ABOUT)
        elif self.path.startswith("/hop/"):
            n = int(self.path.rsplit("/", 1)[1])
            target = "/" if n == 0 else f"/hop/{n - 1}"
            self.send_response(302)
            self.send_header("Location", target)
            self.end_headers()
        elif self.path == "/loop":
            self.send_response(302)
            self.send_header("Location", "/loop")
            self.end_headers()
        elif self.path == "/pdf":
            self._send_html("%PDF-1.4 not really html", content_type="application/pdf")
        elif self.path == "/huge":
            self._send_html("<html>" + "x" * 2_000_000 + "</html>")
        elif self.path == "/slow":
            time.sleep(2.0)
            self._send_html("<html>late</html>")
        elif self.path.startswith("/lag/"):
            time.sleep(LAG_S)
            self._send_html("<html><body><p>late, and no candidate links</p></body></html>")
        elif self.path == "/stall":
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b"<html>")
            self.wfile.flush()
            time.sleep(2.0)
        elif self.path == "/truncated":
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b"<html>cut short</html>")
        elif self.path == "/ftp":
            self.send_response(302)
            self.send_header("Location", "ftp://127.0.0.1/index.html")
            self.end_headers()
        elif self.path == "/cp1252":
            self._send_bytes(b"<html><p>caf\xe9</p></html>", "text/html; charset=windows-1252")
        elif self.path in UNDECLARED:
            self._send_bytes(UNDECLARED[self.path][0], "text/html")
        elif self.path == "/moved-intl":
            self.send_response(301)
            # the raw UTF-8 bytes of /über-uns, as servers commonly send them
            self.send_header("Location", "/über-uns".encode("utf-8").decode("iso-8859-1"))
            self.end_headers()
        elif self.path == "/moved-latin1":
            self.send_response(301)
            # /café as ISO-8859-1 bytes, which do not decode as UTF-8
            self.send_header("Location", "/café")
            self.end_headers()
        elif self.path == "/no-location":
            self.send_response(302)
            self.end_headers()
        elif self.path == "/untyped":
            self._send_bytes(ABOUT.encode("utf-8"), content_type=None)
        elif self.path == "/untyped-pdf":
            self._send_bytes(b"%PDF-1.4 not really html", content_type=None)
        elif self.path == "/intl":
            self._send_html(INTL)
        elif self.path == "/partial":
            self._send_html(PARTIAL)
        elif self.path == "/leaving":
            self._send_html(LEAVING)
        elif self.path == "/leave-contact":
            self.send_response(302)
            self.send_header("Location", f"http://localhost:{self.server.server_address[1]}/elsewhere")
            self.end_headers()
        elif self.path == "/elsewhere":
            self._send_html(ELSEWHERE)
        elif self.path == "/badlink":
            self._send_html(BADLINK)
        elif self.path == "/many":
            self._send_html(MANY)
        elif self.path.startswith("/contact-"):
            self._send_html(CONTACT)
        elif self.path in ("/%C3%BCber-uns", "/contact%20us.html", "/caf%C3%A9"):
            self._send_html(ABOUT)
        elif self.path == "/missing":
            self.send_response(404)
            self.end_headers()
        else:
            self.send_response(404)
            self.end_headers()


def closed_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    return port


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture(scope="module")
def tls_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS / "cert.pem", TLS / "key.pem")
    httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"https://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestLiveFetch:
    def test_landing_plus_candidates(self, server):
        snap = fetch_site(f"{server}/", FetchPolicy(timeout=5))
        urls = [url for url, _ in snap.pages]
        assert snap.pages[0][0] == f"{server}/"
        # both same-host candidates fetched, offsite link skipped
        assert f"{server}/contact.html" in urls
        assert f"{server}/about.html" in urls
        assert len(urls) == 3
        assert snap.final_scheme_secure is False

    def test_redirects_followed_within_budget(self, server):
        snap = fetch_site(f"{server}/hop/3", FetchPolicy(timeout=5))
        assert snap.final_url == f"{server}/"

    def test_too_many_redirects(self, server):
        with pytest.raises(TooManyRedirectsError):
            fetch_site(f"{server}/hop/6", FetchPolicy(timeout=5))
        with pytest.raises(TooManyRedirectsError):
            fetch_site(f"{server}/loop", FetchPolicy(timeout=5))

    def test_non_html_content(self, server):
        with pytest.raises(NonHtmlContentError):
            fetch_site(f"{server}/pdf", FetchPolicy(timeout=5))

    def test_body_too_large(self, server):
        with pytest.raises(BodyTooLargeError):
            fetch_site(f"{server}/huge", FetchPolicy(timeout=5))

    def test_timeout(self, server):
        with pytest.raises(FetchTimeoutError):
            fetch_site(f"{server}/slow", FetchPolicy(timeout=0.3))

    def test_http_error_status(self, server):
        with pytest.raises(NetworkUnreachableError):
            fetch_site(f"{server}/missing", FetchPolicy(timeout=5))

    def test_unreachable_port(self):
        with pytest.raises(NetworkUnreachableError):
            fetch_site(f"http://127.0.0.1:{closed_port()}/", FetchPolicy(timeout=2))

    def test_longest_timeout_reaches_the_socket(self):
        with pytest.raises(NetworkUnreachableError):
            fetch_site(f"http://127.0.0.1:{closed_port()}/", FetchPolicy(timeout=threading.TIMEOUT_MAX))

    def test_secondary_page_budget(self, server):
        snap = fetch_site(f"{server}/many", FetchPolicy(timeout=5))
        assert [url for url, _ in snap.pages] == [
            f"{server}/many", *(f"{server}/contact-{i}.html" for i in range(1, 6))]

    def test_errors_name_the_url(self, server):
        with pytest.raises(NonHtmlContentError) as excinfo:
            fetch_site(f"{server}/pdf", FetchPolicy(timeout=5))
        assert "/pdf" in str(excinfo.value)
        assert excinfo.value.url.endswith("/pdf")


    def test_stalled_body_times_out(self, server):
        with pytest.raises(FetchTimeoutError) as excinfo:
            fetch_site(f"{server}/stall", FetchPolicy(timeout=0.3))
        assert excinfo.value.url == f"{server}/stall"

    def test_truncated_body(self, server):
        with pytest.raises(NetworkUnreachableError) as excinfo:
            fetch_site(f"{server}/truncated", FetchPolicy(timeout=5))
        assert excinfo.value.url == f"{server}/truncated"

    def test_redirect_to_unsupported_scheme(self, server):
        with pytest.raises(NetworkUnreachableError):
            fetch_site(f"{server}/ftp", FetchPolicy(timeout=5))

    def test_invalid_host_name(self):
        # an empty DNS label fails IDNA encoding before any lookup is made
        with pytest.raises(NetworkUnreachableError):
            fetch_site("http://a..b/", FetchPolicy(timeout=2))

    def test_header_charset_decodes_body(self, server):
        snap = fetch_site(f"{server}/cp1252", FetchPolicy(timeout=5))
        assert "café" in snap.pages[0][1]

    @pytest.mark.parametrize("path", sorted(UNDECLARED))
    def test_undeclared_charset_is_sniffed(self, server, path):
        snap = fetch_site(f"{server}{path}", FetchPolicy(timeout=5))
        assert UNDECLARED[path][1] in snap.pages[0][1]

    def test_utf8_under_bare_text_html_sets_terms(self, server):
        features = extract_features(f"{server}/utf8-bare", FetchPolicy(timeout=5))
        assert features.terms == 1

    def test_link_targets_with_spaces_and_non_ascii(self, server):
        snap = fetch_site(f"{server}/intl", FetchPolicy(timeout=5))
        urls = [url for url, _ in snap.pages]
        assert urls == [f"{server}/intl", f"{server}/über-uns", f"{server}/contact us.html"]

    def test_redirect_to_non_ascii_path(self, server):
        snap = fetch_site(f"{server}/moved-intl", FetchPolicy(timeout=5))
        assert snap.final_url == f"{server}/über-uns"

    def test_untyped_html_body_is_accepted(self, server):
        snap = fetch_site(f"{server}/untyped", FetchPolicy(timeout=5))
        assert snap.pages[0] == (f"{server}/untyped", ABOUT)

    def test_untyped_body_that_is_not_html_is_refused(self, server):
        with pytest.raises(NonHtmlContentError, match="does not look like HTML"):
            fetch_site(f"{server}/untyped-pdf", FetchPolicy(timeout=5))

    def test_redirect_without_location(self, server):
        with pytest.raises(NetworkUnreachableError, match="redirect without Location") as excinfo:
            fetch_site(f"{server}/no-location", FetchPolicy(timeout=5))
        assert excinfo.value.url == f"{server}/no-location"

    def test_location_that_is_not_utf8_reads_as_latin1(self, server):
        snap = fetch_site(f"{server}/moved-latin1", FetchPolicy(timeout=5))
        assert snap.final_url == f"{server}/café"
        assert snap.pages[0][1] == ABOUT

    def test_candidate_pages_are_read_as_wide_as_their_list(self, server, monkeypatch):
        import concurrent.futures

        widths = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        for path in ("/", "/many", "/cp1252"):
            fetch_site(f"{server}{path}", FetchPolicy(timeout=5))
        assert widths == [2, 5]

    def test_unparseable_link_is_skipped(self, server):
        snap = fetch_site(f"{server}/badlink", FetchPolicy(timeout=5))
        assert [url for url, _ in snap.pages] == [f"{server}/badlink", f"{server}/about.html"]

    def test_certificate_fallback(self, tls_server, caplog):
        with caplog.at_level(logging.WARNING, logger="sourcescope.features.snapshot"):
            snap = fetch_site(f"{tls_server}/", FetchPolicy(timeout=5))
        assert snap.final_scheme_secure is True
        urls = [url for url, _ in snap.pages]
        assert f"{tls_server}/contact.html" in urls
        assert f"{tls_server}/about.html" in urls
        assert len(urls) == 3
        assert "certificate verification failed" in caplog.text


@pytest.mark.parametrize("mode", ["json", "table"])
def test_skipped_candidate_pages_are_reported(server, mode):
    import sourcescope

    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "sourcescope", "score", f"{server}/partial", "--output-mode", mode],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (3, "")
    gone = [f"{server}/gone-contact.html", f"{server}/gone-about.html"]
    if mode == "json":
        report = json.loads(done.stdout)
        assert report["skipped_pages"] == [{"url": url, "reason": "HTTP 404"} for url in gone]
        assert report["features"] == {"padlock": 0, "contact": 1, "telephone": 0,
                                      "about": 1, "terms": 0}
    else:
        assert done.stdout.rstrip().endswith(
            f"(skipped {gone[0]}: HTTP 404, {gone[1]}: HTTP 404)")


@pytest.mark.parametrize("mode", ["json", "table"])
def test_extract_reports_skipped_pages(server, mode):
    import sourcescope

    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "sourcescope", "extract", f"{server}/partial", "--output-mode", mode],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    gone = [f"{server}/gone-contact.html", f"{server}/gone-about.html"]
    if mode == "json":
        assert json.loads(done.stdout) == {
            "padlock": 0, "contact": 1, "telephone": 0, "about": 1, "terms": 0,
            "skipped_pages": [{"url": url, "reason": "HTTP 404"} for url in gone]}
    else:
        assert done.stdout == ("padlock=0 contact=1 telephone=0 about=1 terms=0"
                               f"  (skipped {gone[0]}: HTTP 404, {gone[1]}: HTTP 404)\n")


def test_fetch_site_records_skipped_pages(server):
    snap = fetch_site(f"{server}/partial", FetchPolicy(timeout=5))
    assert [url for url, _ in snap.pages] == [f"{server}/partial"]
    assert snap.skipped_pages == ((f"{server}/gone-contact.html", "HTTP 404"),
                                  (f"{server}/gone-about.html", "HTTP 404"))
    assert fetch_site(f"{server}/", FetchPolicy(timeout=5)).skipped_pages == ()


def test_candidate_redirected_off_site_is_skipped(server):
    snap = fetch_site(f"{server}/leaving", FetchPolicy(timeout=5))
    assert [url for url, _ in snap.pages] == [f"{server}/leaving"]
    assert snap.skipped_pages == ((f"{server}/leave-contact", "off-site redirect"),)
    features = features_from_snapshot(snap, default_lexicon())
    assert (features.telephone, features.terms) == (0, 0)


def test_each_page_is_parsed_once(server, fixture_sites, monkeypatch):
    fed = []

    def counting_parse_page(html):
        fed.append(html)
        return parse_page(html)

    monkeypatch.setattr("sourcescope.features.snapshot.parse_page", counting_parse_page)
    extract_features(f"{server}/", FetchPolicy(timeout=5))
    # the landing page's parse also picks the candidate pages; the about page
    # is fetched but never parsed, as every bit is set before it is reached
    assert [fed.count(html) for html in (LANDING, CONTACT, ABOUT)] == [1, 1, 0]
    assert len(fed) == 2

    fed.clear()
    site = fixture_sites / "secondary-contact.test"
    extract_features("http://secondary-contact.test", FetchPolicy(offline_root=fixture_sites))
    pages = [(site / name).read_text(encoding="utf-8") for name in ("index.html", "contact.html")]
    assert [fed.count(html) for html in pages] == [1, 1]
    assert len(fed) == 2


def test_live_batch_overlaps_its_fetches(server):
    from sourcescope.model import MODEL_II
    from sourcescope.pipeline import ScoreRequest, score_many
    from sourcescope.screener import default_known_domains

    requests = [ScoreRequest(f"{server}/lag/{i}", policy=FetchPolicy(timeout=5)) for i in range(4)]
    start = time.perf_counter()
    outcomes = score_many(requests, MODEL_II, default_known_domains())
    elapsed = time.perf_counter() - start
    assert [request for request, _, _ in outcomes] == requests
    assert [error for _, _, error in outcomes] == [None] * 4
    assert all(report.features.source_url == request.url for request, report, _ in outcomes)
    assert elapsed < 3 * LAG_S      # four landing pages in series take 4 * LAG_S


def test_import_loads_no_third_party_http_client():
    import sourcescope

    env = {**os.environ, "PYTHONPATH": str(Path(sourcescope.__file__).parents[1])}
    code = "import sys, sourcescope; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


class TestOfflineFidelity:
    def test_saved_pages_reproduce_the_live_bits(self, server, tmp_path):
        """Saving a live snapshot as a fixture yields the same feature bits."""
        from sourcescope.features import features_from_snapshot

        live = fetch_site(f"{server}/", FetchPolicy(timeout=5))
        live_bits = features_from_snapshot(live).as_dict()

        site = tmp_path / "saved.test"
        site.mkdir()
        (site / "index.html").write_text(live.pages[0][1], encoding="utf-8")
        names = []
        for i, (_, html) in enumerate(live.pages[1:], start=1):
            name = f"page{i}.html"
            (site / name).write_text(html, encoding="utf-8")
            names.append(name)
        (site / "manifest.json").write_text(json.dumps({
            "final_scheme_secure": live.final_scheme_secure,
            "secondary_pages": names,
        }), encoding="utf-8")

        offline = fetch_site("http://saved.test", FetchPolicy(offline_root=tmp_path))
        offline_bits = features_from_snapshot(offline).as_dict()
        assert offline_bits == live_bits
        # the landing page's "offsite terms" anchor text sets the terms bit
        assert live_bits == {"padlock": 0, "contact": 1, "telephone": 1,
                             "about": 1, "terms": 1}
