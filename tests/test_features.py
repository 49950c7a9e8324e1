"""Detectors, lexicon handling and offline snapshots."""

import dataclasses
import json
import re
import threading
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope.errors import BodyTooLargeError, LexiconError, NetworkUnreachableError
from sourcescope.features import (
    FeatureVector,
    FetchPolicy,
    KeywordLexicon,
    SiteSnapshot,
    default_lexicon,
    extract_features,
    fetch_site,
    features_from_snapshot,
    get_fetch_counters,
    load_lexicon,
    parse_page,
    reset_fetch_counters,
)
from tests.conftest import make_snapshot

LEX = default_lexicon()
# the English phrases every lexicon must keep, and a key left out of a document
_SEEDS = {"contact": ["contact us", "connect with us", "gives us a tip"],
          "about": ["about us", "information", "who we are"],
          "terms": ["terms and conditions", "terms", "legal notes", "terms of use"]}
_MISSING = object()


def page(body: str, title: str = "t") -> str:
    return f"<!DOCTYPE html><html><head><title>{title}</title></head><body>{body}</body></html>"


class TestPolicyAndSnapshot:
    def test_policy_defaults(self):
        policy = FetchPolicy()
        assert policy.timeout == 10.0
        assert policy.offline_root is None
        assert [f.name for f in dataclasses.fields(FetchPolicy)] == ["timeout", "offline_root"]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FetchPolicy(timeout=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 1e300, threading.TIMEOUT_MAX * 2])
    def test_policy_refuses_timeouts_a_socket_cannot_take(self, timeout):
        with pytest.raises(ValueError, match=r"^FetchPolicy\.timeout must be finite"):
            FetchPolicy(timeout=timeout)

    def test_policy_takes_the_longest_timeout_a_socket_takes(self):
        assert FetchPolicy(timeout=threading.TIMEOUT_MAX).timeout == threading.TIMEOUT_MAX

    def test_snapshot_requires_pages(self):
        with pytest.raises(ValueError):
            SiteSnapshot("http://a.test", "http://a.test", ())

    @pytest.mark.parametrize("final_url,secure", [
        ("https://a.test/", True), ("HTTPS://a.test/", True),
        ("http://a.test/", False), ("http://https.test/https", False),
    ])
    def test_padlock_derives_from_final_url(self, final_url, secure):
        snap = SiteSnapshot("http://a.test", final_url, ((final_url, "<html></html>"),))
        assert snap.final_scheme_secure is secure
        assert features_from_snapshot(snap, LEX).padlock == int(secure)

    def test_padlock_follows_the_upgrade_redirect(self, fixture_sites):
        snap = fetch_site("http://redirect-upgrade.test", FetchPolicy(offline_root=fixture_sites))
        assert snap.final_url == "https://redirect-upgrade.test/"
        assert snap.final_scheme_secure is True
        assert features_from_snapshot(snap, LEX).padlock == 1

    def test_pages_read_as_pairs_and_keep_their_parse(self):
        snap = SiteSnapshot("http://a.test", "http://a.test",
                            (("http://a.test", page("<h2>About us</h2>")),))
        (url, html), = snap.pages
        assert (url, html) == ("http://a.test", page("<h2>About us</h2>"))
        assert snap.pages[0].text is snap.pages[0].text
        assert snap.pages[0].text.headings == ("about us",)


class TestHtmlRegions:
    def test_anchor_heading_footer_extraction(self):
        html = page("""
            <a href="/contact.html">Contact US</a>
            <h2>Who   We Are</h2>
            <footer>Legal&nbsp;notes &copy; 2020</footer>
        """)
        text = parse_page(html)
        assert ("contact us", "/contact.html") in text.anchors
        assert "who we are" in text.headings
        assert "legal notes" in text.footer_text

    def test_div_footer_recognized(self):
        html = page('<div class="site-footer">terms of use</div>')
        assert "terms of use" in parse_page(html).footer_text

    def test_footer_ends_with_container(self):
        html = page('<div id="footer">inside</div><p>outside</p>')
        text = parse_page(html)
        assert "inside" in text.footer_text
        assert "outside" not in text.footer_text

    def test_script_content_ignored(self):
        html = page("<script>var contact_us = 1;</script><p>plain</p>")
        text = parse_page(html)
        assert "contact" not in text.full_text
        assert "plain" in text.full_text

    @pytest.mark.parametrize("section", ["<![ if !IE ]>", "<![foo[x]]>"])
    def test_unknown_marked_section_ends_at_next_gt(self, section):
        # read as a bogus comment; html.parser raised here, losing the page's rest
        text = parse_page(f"{section}<p>x</p><![ endif ]><a href=/contact-us>Contact us</a>")
        assert text.anchors == (("contact us", "/contact-us"),)
        assert text.full_text == "x contact us"

    def test_conditional_comments_keep_the_sections_after_them(self, fixture_sites):
        bits = extract_features("http://conditional-comments.test",
                                FetchPolicy(offline_root=fixture_sites)).as_dict()
        assert bits == {"padlock": 1, "contact": 1, "telephone": 1, "about": 1, "terms": 1}


class TestDetectPadlock:
    def test_secure(self):
        assert features_from_snapshot(make_snapshot(page(""), secure=True), LEX).padlock == 1

    def test_insecure(self):
        assert features_from_snapshot(make_snapshot(page(""), secure=False), LEX).padlock == 0


class TestDetectSection:
    def test_anchor_match(self):
        snap = make_snapshot(page('<a href="/c">Contact us</a>'))
        assert features_from_snapshot(snap, LEX).contact == 1

    def test_footer_synonym_match(self):
        snap = make_snapshot(page("<footer>Legal notes</footer>"))
        assert features_from_snapshot(snap, LEX).terms == 1

    def test_heading_match(self):
        snap = make_snapshot(page("<h3>Who we are</h3>"))
        assert features_from_snapshot(snap, LEX).about == 1

    def test_link_path_match(self):
        snap = make_snapshot(page('<a href="/terms">fine print</a>'))
        assert features_from_snapshot(snap, LEX).terms == 1

    def test_empty_page(self):
        snap = make_snapshot(page(""))
        for kind in ("contact", "about", "terms"):
            assert features_from_snapshot(snap, LEX).as_dict()[kind] == 0

    def test_body_text_alone_does_not_count(self):
        # phrases must appear in links, headings or footers, not prose
        snap = make_snapshot(page("<p>please contact us tomorrow</p>"))
        assert features_from_snapshot(snap, LEX).contact == 0

    def test_case_and_whitespace_folding(self):
        snap = make_snapshot(page('<a href="/x">COnTaCt&nbsp;&nbsp;US</a>'))
        assert features_from_snapshot(snap, LEX).contact == 1

    def test_unicode_casefold(self):
        snap = make_snapshot(page('<a href="/u">ÜBER UNS</a>'))
        assert features_from_snapshot(snap, LEX).about == 1

    def test_language_neutrality(self):
        for body, kind in ((' <a href="/k">Kontakt</a>', "contact"),
                           ("<h4>Chi siamo</h4>", "about"),
                           ("<footer>mentions légales</footer>", "terms")):
            assert features_from_snapshot(make_snapshot(page(body)), LEX).as_dict()[kind] == 1

    @pytest.mark.parametrize("href,kind", [
        ("tel:1-800-CONTACT", "contact"), ("TEL:1-800-CONTACT", "contact"),
        (" tel:1-800-ABOUT-US", "about"), ("Callto:terms", "terms"),
        ("\tFAX:terms", "terms"),
    ])
    def test_phone_link_number_is_not_a_section_path(self, href, kind):
        # whatever its case or padding, a phone link is a telephone, not a path
        bits = features_from_snapshot(make_snapshot(page(f'<a href="{href}">call</a>')), LEX)
        assert (bits.as_dict()[kind], bits.telephone) == (0, 1)


class TestDetectTelephone:
    def test_phone_scheme_link(self):
        snap = make_snapshot(page('<a href="tel:+15551234567">call</a>'))
        assert features_from_snapshot(snap, LEX).telephone == 1

    def test_fax_keyword_with_number(self):
        snap = make_snapshot(page("<p>Fax: (02) 1234-5678</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 1

    def test_year_alone_is_not_a_phone(self):
        snap = make_snapshot(page("<p>established in 1987</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0

    def test_keyword_required_near_number(self):
        snap = make_snapshot(page("<p>lot number 55511223344 sold</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0

    def test_number_required_near_keyword(self):
        snap = make_snapshot(page("<p>phone lines are busy</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0

    def test_proximity_window(self):
        filler = "x" * 60
        snap = make_snapshot(page(f"<p>phone {filler} 5551234567</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0
        snap_close = make_snapshot(page("<p>phone: 5551234567</p>"))
        assert features_from_snapshot(snap_close, LEX).telephone == 1

    def test_keyword_is_word_bounded(self):
        snap = make_snapshot(page("<p>hotel room 5551234567</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0

    def test_too_many_digits_rejected(self):
        snap = make_snapshot(page("<p>tel 12345678901234567890</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 0

    def test_international_format(self):
        snap = make_snapshot(page("<p>Telefono: +39 06 1234 5678</p>"))
        assert features_from_snapshot(snap, LEX).telephone == 1


class TestComposition:
    def test_all_detectors_forced(self):
        body = ('<a href="/contact.html">Contact us</a><h3>About us</h3>'
                '<a href="tel:+15550100">call</a><footer>Terms and conditions</footer>')
        snap = make_snapshot(page(body), secure=True)
        fv = features_from_snapshot(snap, LEX)
        assert fv.as_dict() == {"padlock": 1, "contact": 1, "telephone": 1,
                                "about": 1, "terms": 1}

    def test_bare_insecure_page(self):
        fv = features_from_snapshot(make_snapshot(page("<p>hello</p>")), LEX)
        assert fv.as_dict() == {"padlock": 0, "contact": 0, "telephone": 0,
                                "about": 0, "terms": 0}

    def test_determinism(self):
        snap = make_snapshot(page('<a href="/contact">Contact us</a>'), secure=True)
        assert features_from_snapshot(snap, LEX) == features_from_snapshot(snap, LEX)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([
        '<a href="/contact">Contact us</a>', "<h2>About us</h2>",
        "<footer>terms</footer>", "<p>phone: 5551234567</p>", "<p>nothing</p>",
    ]), st.sampled_from([
        "<p>filler</p>", "<h2>Information</h2>", '<a href="tel:+15550100">x</a>',
    ]))
    def test_adding_a_page_never_lowers_bits(self, body_a, body_b):
        one = features_from_snapshot(make_snapshot(page(body_a)), LEX)
        two = features_from_snapshot(make_snapshot(page(body_a), page(body_b)), LEX)
        for name, bit in one.as_dict().items():
            assert two.as_dict()[name] >= bit

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(padlock=2, contact=0, telephone=0, about=0, terms=0)


class TestLexicon:
    def test_default_covers_five_languages(self):
        assert set(LEX.languages) == {"en", "it", "es", "fr", "de"}
        for kind in ("contact", "about", "terms"):
            assert len(LEX.section_phrases[kind]) >= 10

    def test_load_custom_lexicon(self, tmp_path):
        raw = {
            "languages": ["en"],
            "contact": {"en": ["contact us", "connect with us", "gives us a tip", "write in"]},
            "about": {"en": ["about us", "information", "who we are"]},
            "terms": {"en": ["terms and conditions", "terms", "legal notes", "terms of use"]},
            "telephone_keywords": ["phone", "fax"],
        }
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        lexicon = load_lexicon(path)
        assert "write in" in lexicon.section_phrases["contact"]

    def test_load_lexicon_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "lexicon.json"
        builtin = resources.files("sourcescope.data").joinpath("lexicon.json").read_text("utf-8")
        path.write_text("\ufeff" + builtin, encoding="utf-8")
        assert load_lexicon(path) == LEX

    def test_missing_seed_phrase_rejected(self, tmp_path):
        raw = {
            "languages": ["en"],
            "contact": {"en": ["contact us"]},   # missing the other seeds
            "about": {"en": ["about us", "information", "who we are"]},
            "terms": {"en": ["terms and conditions", "terms", "legal notes", "terms of use"]},
            "telephone_keywords": ["phone"],
        }
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_empty_phrase_rejected(self):
        with pytest.raises(LexiconError):
            KeywordLexicon(
                contact={"en": ("contact us", "connect with us", "gives us a tip", "  ")},
                about={"en": ("about us", "information", "who we are")},
                terms={"en": ("terms and conditions", "terms", "legal notes", "terms of use")},
                telephone_keywords=("phone",),
                languages=("en",),
            )

    @pytest.mark.parametrize("field,value,message", [
        ("telephone_keywords", "phone", "telephone_keywords is not a list of strings"),
        ("languages", ["en", None], "languages is not a list of strings"),
        ("about", {"en": "about us"}, "about/en is not a list of strings"),
        ("terms", "terms", "malformed lexicon document (terms is not an object)"),
    ])
    def test_lexicon_checks_its_own_fields(self, field, value, message):
        fields = {"languages": ("en",), "telephone_keywords": ("phone",),
                  **{kind: {"en": phrases} for kind, phrases in _SEEDS.items()}, field: value}
        with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
            KeywordLexicon(**fields)

    def test_lexicon_holds_tuples_in_read_only_tables(self):
        lexicon = KeywordLexicon(languages=["en"], telephone_keywords=["phone"],
                                 **{kind: {"en": phrases} for kind, phrases in _SEEDS.items()})
        assert (lexicon.languages, lexicon.telephone_keywords) == (("en",), ("phone",))
        assert lexicon.contact["en"] == tuple(_SEEDS["contact"])
        with pytest.raises(TypeError):
            lexicon.contact["xx"] = ("write to us",)
        with pytest.raises(TypeError):
            default_lexicon().contact["xx"] = ("write to us",)
        assert "xx" not in default_lexicon().contact

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    @pytest.mark.parametrize("changes,message", [
        ({"languages": []}, "lexicon declares no languages"),
        ({"about": {"en": _SEEDS["about"], "it": ["chi siamo"]}},
         "about: language 'it' not declared in 'languages'"),
        ({"terms": {"en": [*_SEEDS["terms"], " "]}}, "terms/en: empty phrase"),
        ({"contact": {"en": ["contact us"]}},
         "contact: lexicon must keep English seed phrases ['connect with us', 'gives us a tip']"),
        ({"telephone_keywords": []}, "lexicon declares no telephone keywords"),
        ({"telephone_keywords": ["phone", "\t"]}, "empty telephone keyword"),
        ({"languages": "en"}, ": languages is not a list of strings"),
        ({"telephone_keywords": "phone"}, ": telephone_keywords is not a list of strings"),
        ({"contact": {"en": [*_SEEDS["contact"], 5]}}, ": contact/en is not a list of strings"),
        ({"contact": None}, ": malformed lexicon document ("),
        ({"terms": _MISSING}, ": malformed lexicon document ('terms')"),
        ({"contact": "ab"}, ": malformed lexicon document (contact is not an object)"),
        ({"about": ["about us"]}, ": malformed lexicon document (about is not an object)"),
    ])
    def test_document_refusals(self, tmp_path, changes, message):
        raw = {"languages": ["en"], **{kind: {"en": phrases} for kind, phrases in _SEEDS.items()},
               "telephone_keywords": ["phone"], **changes}
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps({k: v for k, v in raw.items() if v is not _MISSING}),
                        encoding="utf-8")
        with pytest.raises(LexiconError) as refusal:
            load_lexicon(path)
        assert message in str(refusal.value)
        assert str(refusal.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("text,message", [("[]", "JSON object"), ("{not json", ": not valid JSON")])
    def test_file_refusals_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "lexicon.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LexiconError, match=re.escape(message)) as refusal:
            load_lexicon(path)
        assert str(refusal.value).startswith(f"{path}")


class TestOfflineFetch:
    @pytest.mark.parametrize("url", ["http://a.test", "http://b.test"])
    def test_root_index_is_not_a_site(self, tmp_path, url):
        # a site is ROOT/<registrable domain>/ only; the root's own page answers no domain
        (tmp_path / "index.html").write_text(page("<p>hi</p>"), encoding="utf-8")
        with pytest.raises(NetworkUnreachableError, match="no offline fixture"):
            fetch_site(url, FetchPolicy(offline_root=tmp_path))

    def test_manifest_controls_scheme(self, tmp_path):
        site = tmp_path / "upgraded.test"
        site.mkdir()
        (site / "index.html").write_text(page(""), encoding="utf-8")
        (site / "manifest.json").write_text(
            json.dumps({"final_scheme_secure": True}), encoding="utf-8")
        snap = fetch_site("http://upgraded.test", FetchPolicy(offline_root=tmp_path))
        assert snap.final_scheme_secure is True
        assert snap.final_url.startswith("https://")
        assert features_from_snapshot(snap, LEX).padlock == 1

    def test_manifest_with_byte_order_mark(self, tmp_path):
        site = tmp_path / "upgraded.test"
        site.mkdir()
        (site / "index.html").write_text(page(""), encoding="utf-8")
        (site / "manifest.json").write_text(
            "\ufeff" + json.dumps({"final_scheme_secure": True}), encoding="utf-8")
        snap = fetch_site("http://upgraded.test", FetchPolicy(offline_root=tmp_path))
        assert snap.final_scheme_secure is True

    def test_secondary_pages_loaded_in_order(self, tmp_path):
        site = tmp_path / "multi.test"
        site.mkdir()
        (site / "index.html").write_text(page("<p>landing</p>"), encoding="utf-8")
        (site / "contact.html").write_text(page("<p>phone: 5550100200</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(
            json.dumps({"secondary_pages": ["contact.html"]}), encoding="utf-8")
        snap = fetch_site("http://multi.test", FetchPolicy(offline_root=tmp_path))
        assert len(snap.pages) == 2
        assert "landing" in snap.pages[0][1]

    def test_each_listed_url_is_read_once(self, tmp_path, monkeypatch):
        site = tmp_path / "multi.test"
        site.mkdir()
        (site / "index.html").write_text(page("<p>landing</p>"), encoding="utf-8")
        (site / "contact.html").write_text(page("<p>contact</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(json.dumps(
            {"secondary_pages": ["contact.html", "./contact.html", "contact.html"]}), encoding="utf-8")
        opened, open_file = [], Path.open

        def recording_open(path, *args, **kwargs):
            opened.append(path.name)
            return open_file(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        snap = fetch_site("http://multi.test", FetchPolicy(offline_root=tmp_path))
        assert [url for url, _ in snap.pages] == ["http://multi.test/", "http://multi.test/contact.html"]
        assert opened.count("contact.html") == 1

    def test_a_listed_name_drops_its_fragment(self, tmp_path, monkeypatch):
        # as a live link's does: "#top" is the landing page, and both contact
        # names give one page, read once from the file "contact.html"
        site = tmp_path / "frag.test"
        site.mkdir()
        (site / "index.html").write_text(page("<p>landing</p>"), encoding="utf-8")
        (site / "contact.html").write_text(page("<p>contact</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(json.dumps(
            {"secondary_pages": ["#top", "contact.html#form", "contact.html"]}), encoding="utf-8")
        opened, open_file = [], Path.open

        def recording_open(path, *args, **kwargs):
            opened.append(path.name)
            return open_file(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        snap = fetch_site("http://frag.test", FetchPolicy(offline_root=tmp_path))
        assert [url for url, _ in snap.pages] == ["http://frag.test/", "http://frag.test/contact.html"]
        assert snap.skipped_pages == ()
        assert opened == ["manifest.json", "index.html", "contact.html"]

    @pytest.mark.parametrize("manifest,final_url,padlock", [
        ({"final_url": "https://a.test/"}, "https://a.test/", 1),
        ({"final_url": "http://a.test/news"}, "http://a.test/news", 0),
        ({"final_url": "https://a.test/", "final_scheme_secure": False}, "http://a.test/", 0),
        ({"final_url": "http://a.test/", "final_scheme_secure": True}, "https://a.test/", 1),
    ], ids=["https-final", "http-final", "https-final-marked-insecure", "http-final-marked-secure"])
    @pytest.mark.parametrize("requested", ["http://a.test", "https://a.test"], ids=["http", "https"])
    def test_padlock_defaults_to_the_final_url_scheme(self, tmp_path, manifest, final_url,
                                                     padlock, requested):
        site = tmp_path / "a.test"
        site.mkdir()
        (site / "index.html").write_text(page(""), encoding="utf-8")
        (site / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        snap = fetch_site(requested, FetchPolicy(offline_root=tmp_path))
        assert snap.final_url == final_url
        assert features_from_snapshot(snap, LEX).padlock == padlock

    def test_the_first_five_distinct_listed_urls_are_read(self, tmp_path):
        listed = ["p0.html", "p0.html", *(f"p{i}.html" for i in range(1, 7))]
        site = tmp_path / "many.test"
        site.mkdir()
        for name in ("index.html", *listed):
            (site / name).write_text(page(f"<p>{name}</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(json.dumps({"secondary_pages": listed}), encoding="utf-8")
        snap = fetch_site("http://many.test", FetchPolicy(offline_root=tmp_path))
        assert [url for url, _ in snap.pages[1:]] == [f"http://many.test/p{i}.html" for i in range(5)]

    @pytest.mark.parametrize("name", ["../outside.html", "sub/../../outside.html", "{abs}"])
    def test_secondary_page_outside_site_rejected(self, tmp_path, name):
        site = tmp_path / "root" / "escape.test"
        site.mkdir(parents=True)
        (site / "index.html").write_text(page("<p>landing</p>"), encoding="utf-8")
        outside = tmp_path / "root" / "outside.html"
        outside.write_text(page("<p>phone: 5550100200</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(
            json.dumps({"secondary_pages": [name.format(abs=outside)]}), encoding="utf-8")
        with pytest.raises(NetworkUnreachableError, match="lies outside"):
            fetch_site("http://escape.test", FetchPolicy(offline_root=tmp_path / "root"))

    @pytest.mark.parametrize("listed", ["contact.html", [5], {"contact.html": 1}])
    def test_secondary_pages_must_be_a_list_of_names(self, tmp_path, listed):
        site = tmp_path / "solo.test"
        site.mkdir()
        (site / "index.html").write_text(page("<p>landing</p>"), encoding="utf-8")
        (site / "manifest.json").write_text(
            json.dumps({"secondary_pages": listed}), encoding="utf-8")
        with pytest.raises(NetworkUnreachableError, match="secondary_pages is not a list of names"):
            fetch_site("http://solo.test", FetchPolicy(offline_root=tmp_path))

    def test_missing_fixture(self, tmp_path):
        with pytest.raises(NetworkUnreachableError):
            fetch_site("http://nowhere.test", FetchPolicy(offline_root=tmp_path))

    def test_hostname_cannot_leave_offline_root(self, tmp_path):
        # the site directory links out of the root, so the domain has no fixture
        outside = tmp_path / "escape.test"
        outside.mkdir()
        (outside / "index.html").write_text(page("<p>outside the root</p>"), encoding="utf-8")
        (tmp_path / "sites").mkdir()
        (tmp_path / "sites" / "escape.test").symlink_to(outside, target_is_directory=True)
        with pytest.raises(NetworkUnreachableError, match="no offline fixture"):
            fetch_site("http://escape.test", FetchPolicy(offline_root=tmp_path / "sites"))

    def test_fixture_pages_decode_by_the_live_rule(self, tmp_path):
        site = tmp_path / "cafe.test"
        site.mkdir()
        (site / "index.html").write_bytes(b"<html><body><p>caf\xe9</p></body></html>")
        (site / "about.html").write_bytes(
            b'<html><head><meta charset="iso-8859-15"></head><body>5 \xa4</body></html>')
        (site / "manifest.json").write_text(
            json.dumps({"secondary_pages": ["about.html"]}), encoding="utf-8")
        snap = fetch_site("http://cafe.test", FetchPolicy(offline_root=tmp_path))
        assert "café" in snap.pages[0][1]
        assert "5 €" in snap.pages[1][1]

    def test_oversize_fixture_page_refused(self, tmp_path):
        (tmp_path / "big.test").mkdir()
        (tmp_path / "big.test" / "index.html").write_text(page("x" * 2_000_000), encoding="utf-8")
        with pytest.raises(BodyTooLargeError, match="index.html") as excinfo:
            fetch_site("http://big.test", FetchPolicy(offline_root=tmp_path))
        assert excinfo.value.url == "http://big.test/"

    def test_offline_mode_opens_no_sockets(self, tmp_path):
        (tmp_path / "solo.test").mkdir()
        (tmp_path / "solo.test" / "index.html").write_text(page(""), encoding="utf-8")
        reset_fetch_counters()
        fetch_site("http://solo.test", FetchPolicy(offline_root=tmp_path))
        counters = get_fetch_counters()
        assert counters.snapshots == 1
        assert counters.http_requests == 0


class TestFixtureCorpus:
    def test_every_fixture_classifies_exactly(self, corpus, fixture_sites):
        policy = FetchPolicy(offline_root=fixture_sites)
        failures = []
        for name, spec in corpus.items():
            fv = extract_features(spec["url"], policy)
            if fv.as_dict() != spec["expected"]:
                failures.append((name, spec["expected"], fv.as_dict()))
        assert not failures, failures

    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus) >= 12
