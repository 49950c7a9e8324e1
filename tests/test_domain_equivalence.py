"""``normalize_domain`` against its earlier tail.

The reference below is the earlier ``normalize_domain``, kept verbatim: it
ended with its own copy of the suffix split (``_public_suffix``, the
``hostname == suffix`` test and a count of the suffix's labels), where the
current one calls ``split_registrable`` and keeps the last label of the name
part.  Both must give the same domain, or refuse with the same message, on
the packaged known domains and on generated URLs and hostnames.
"""

from urllib.parse import urlsplit

from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope.errors import UnparseableUrlError
from sourcescope.files import DATA, read_lines
from sourcescope.screener import (
    _MAX_HOSTNAME,
    _MAX_LABEL,
    _MULTI_LABEL_SUFFIXES,
    _decode_punycode,
    _is_label,
    _public_suffix,
    normalize_domain,
)


def reference_normalize_domain(url: str) -> str:
    raw = url.strip()
    if not raw:
        raise UnparseableUrlError("empty URL")
    target = raw if "//" in raw else "//" + raw
    try:
        parts = urlsplit(target)
        hostname = parts.hostname
    except ValueError as exc:
        raise UnparseableUrlError(f"cannot parse {url!r}: {exc}") from None
    if not hostname:
        raise UnparseableUrlError(f"no hostname in {url!r}")
    if parts.scheme and parts.scheme not in ("http", "https"):
        raise UnparseableUrlError(f"unsupported scheme {parts.scheme!r} in {url!r}")

    hostname = hostname.rstrip(".").casefold()
    if len(hostname) > _MAX_HOSTNAME or max(map(len, hostname.split("."))) > _MAX_LABEL:
        raise UnparseableUrlError(f"hostname longer than RFC 1035 allows in {url!r}")
    hostname = _decode_punycode(hostname)
    if hostname.startswith("www.") and hostname.count(".") >= 2:
        hostname = hostname[4:]

    labels = hostname.split(".")
    if not all(map(_is_label, labels)):
        raise UnparseableUrlError(f"invalid hostname in {url!r}")
    if all(label.isdigit() for label in labels):
        return hostname  # IPv4 literal: no registrable level to reduce to

    suffix = _public_suffix(hostname)
    if hostname == suffix:
        return hostname
    suffix_len = len(suffix.split("."))
    return ".".join(labels[-(suffix_len + 1):])


def outcome(normalize, url: str):
    try:
        return normalize(url)
    except UnparseableUrlError as exc:
        return type(exc), str(exc)


def assert_same(url: str):
    assert outcome(normalize_domain, url) == outcome(reference_normalize_domain, url)


def test_packaged_known_domains():
    for domain in read_lines(DATA / "known_domains.txt", UnparseableUrlError, "domains"):
        for url in (domain, f"https://www.{domain}/a", f"http://news.edition.{domain}:8080"):
            assert_same(url)


def test_named_cases():
    for url in ("www.example.com", "www.co.uk", "co.uk", "com", "www.com", "a.b.co.uk",
                "news.bbc.co.uk", "x.com.co", "192.168.0.1", "http://10.0.0.1:80/x",
                "xn--nbcnws-eva.com", "www.xn--nbcnws-eva.co.jp", "xn--zz.com", "-a.com",
                "a..com", "ftp://a.com", "", "  ", "http://[::1]/", "a.com.", "WWW.A.B.C.COM"):
        assert_same(url)


LABEL = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
    st.sampled_from(["www", "news", "co", "com", "uk", "xn--nbcnws-eva", "xn--zz", "1", "255",
                     "é", "ж"]),
)
SUFFIX = st.sampled_from(sorted(_MULTI_LABEL_SUFFIXES) + ["com", "de", "org", "uk", "co"])


@settings(max_examples=500, deadline=None)
@given(labels=st.lists(LABEL, max_size=4), suffix=SUFFIX,
       scheme=st.sampled_from(["", "http://", "https://", "//", "ftp://"]),
       tail=st.sampled_from(["", "/", ":8080", "/a?b#c", "."]))
def test_generated_hostnames(labels, suffix, scheme, tail):
    assert_same(scheme + ".".join([*labels, suffix]) + tail)


@settings(max_examples=200, deadline=None)
@given(octets=st.lists(st.integers(0, 999), min_size=1, max_size=4))
def test_generated_numeric_hosts(octets):
    assert_same(".".join(map(str, octets)))
