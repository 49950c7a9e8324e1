"""Domain normalization and the imitation screen."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope import screener
from sourcescope.errors import EmptyDatabaseError, UnparseableUrlError
from sourcescope.screener import (
    KnownDomainDB,
    damerau_levenshtein,
    default_known_domains,
    fold_homoglyphs,
    load_known_domains,
    mimicry_check,
    normalize_domain,
    split_registrable,
)


class TestNormalizeDomain:
    def test_case_path_and_www_stripping(self):
        assert normalize_domain("https://www.NBCNews.com/politics") == "nbcnews.com"

    def test_multi_label_suffix_preserved(self):
        assert normalize_domain("http://nbcnews.com.co") == "nbcnews.com.co"

    def test_subdomains_dropped(self):
        assert normalize_domain("https://edition.cnn.com/world") == "cnn.com"
        assert normalize_domain("https://news.bbc.co.uk/") == "bbc.co.uk"

    def test_bare_hostname(self):
        assert normalize_domain("reuters.com") == "reuters.com"

    def test_punycode_decoded(self):
        # xn--nbcnws-eva.com encodes nbcnéws.com
        assert normalize_domain("http://xn--nbcnws-eva.com") == "nbcnéws.com"

    def test_undecodable_punycode_kept(self):
        assert normalize_domain("xn--a.com") == "xn--a.com"

    def test_port_ignored(self):
        assert normalize_domain("http://example.com:8080/x") == "example.com"

    @pytest.mark.parametrize("bad", ["not a url ::", "", "http://", "https:// /", "ftp://a b",
                                     "http://[oops/"])
    def test_unparseable(self, bad):
        with pytest.raises(UnparseableUrlError):
            normalize_domain(bad)

    def test_length_bounds(self):
        # RFC 1035: 63 characters a label, 253 a name; longer names are refused
        # before the edit-distance screen compares them with every entry
        longest = ("a" * 63 + ".") * 3 + "a" * 57 + ".com"
        assert len(longest) == 253
        assert normalize_domain(longest) == "a" * 57 + ".com"
        assert normalize_domain("a" * 63 + ".com.") == "a" * 63 + ".com"
        for bad in ("a" * 64 + ".com", "b" + longest, "x" * 12_000 + ".com"):
            with pytest.raises(UnparseableUrlError, match="RFC 1035"):
                normalize_domain(bad)
        with pytest.raises(UnparseableUrlError, match="RFC 1035"):
            KnownDomainDB(("a" * 64 + ".com",))

    def test_label_check_accepts_what_the_label_pattern_did(self):
        # the pattern _is_label replaced, which took milliseconds to compile at import
        ok = "a-z0-9\u00a1-\uffff"
        pattern = re.compile(f"^[{ok}]([{ok}-]*[{ok}])?$")
        astral = [chr(c) for c in range(0x10000, 0x110000, 997)] + ["\U0010ffff"]
        for c in [*map(chr, range(0x10000)), *astral]:
            for label in (c, "a" + c, c + "a", "a" + c + "b", c + c):
                # "$" also matched before a final newline, which never reaches a
                # label: urlsplit drops every newline from a URL
                if not label.endswith("\n"):
                    assert screener._is_label(label) == bool(pattern.match(label)), label
        assert not screener._is_label("")
        assert normalize_domain("http://news\n.com/") == "news.com"

    def test_split_registrable(self):
        assert split_registrable("nbcnews.com") == ("nbcnews", "com")
        assert split_registrable("nbcnews.com.co") == ("nbcnews", "com.co")
        assert split_registrable("bbc.co.uk") == ("bbc", "co.uk")


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("nbcnews", "nbcnews", 0),
        ("nbcnevs", "nbcnews", 1),     # substitution
        ("nbcnew", "nbcnews", 1),      # deletion
        ("nbcnewss", "nbcnews", 1),    # insertion
        ("nbcnwes", "nbcnews", 1),     # adjacent transposition
        ("abc", "xyz", 3),
        ("", "abc", 3),
    ])
    def test_cases(self, a, b, expected):
        assert damerau_levenshtein(a, b) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="abcdef", max_size=8), st.text(alphabet="abcdef", max_size=8))
    def test_symmetry_and_identity(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)
        assert damerau_levenshtein(a, a) == 0


class TestHomoglyphFold:
    def test_digit_lookalikes(self):
        assert fold_homoglyphs("nbcnews.c0m") == fold_homoglyphs("nbcnews.com")
        assert fold_homoglyphs("t1me.com") == fold_homoglyphs("time.com")

    def test_rn_digraph(self):
        assert fold_homoglyphs("rnsnbc.com") == fold_homoglyphs("msnbc.com")

    def test_cyrillic(self):
        # Cyrillic а/е fold onto latin
        assert fold_homoglyphs("nbcnеws.com") == fold_homoglyphs("nbcnews.com")

    def test_unrelated_stays_different(self):
        assert fold_homoglyphs("reuters.com") != fold_homoglyphs("nbcnews.com")


LABELED = json.loads((Path(__file__).parent / "fixtures" / "screen_verdicts.json")
                     .read_text(encoding="utf-8"))


@pytest.fixture()
def small_db():
    return KnownDomainDB(("nbcnews.com", "cnn.com", "bbc.co.uk"))


class TestMimicryCheck:
    def test_embedded_domain(self, small_db):
        verdict = mimicry_check("nbcnews.com.co", small_db)
        assert verdict.outcome == "Mimic"
        assert verdict.matched_target == "nbcnews.com"
        assert verdict.reason == "embedded-domain"

    def test_exact_membership(self, small_db):
        verdict = mimicry_check("nbcnews.com", small_db)
        assert verdict.outcome == "Exact"
        assert verdict.matched_target == "nbcnews.com"
        assert verdict.reason is None

    def test_clean(self, small_db):
        assert mimicry_check("unrelated-blog.org", small_db).outcome == "Clean"

    def test_edit_distance_substitution(self, small_db):
        verdict = mimicry_check("nbcnevs.com", small_db)
        assert (verdict.outcome, verdict.reason) == ("Mimic", "edit-distance")

    def test_same_name_other_suffix(self, small_db):
        verdict = mimicry_check("nbcnews.org", small_db)
        assert (verdict.outcome, verdict.reason) == ("Mimic", "edit-distance")
        assert verdict.matched_target == "nbcnews.com"

    def test_homoglyph(self, small_db):
        verdict = mimicry_check("nbcnews.c0m", small_db)
        assert (verdict.outcome, verdict.reason) == ("Mimic", "homoglyph")

    def test_punycode_homoglyph_end_to_end(self, small_db):
        domain = normalize_domain("http://xn--nbcnws-6of.com")  # Cyrillic е inside
        verdict = mimicry_check(domain, small_db)
        assert (verdict.outcome, verdict.reason) == ("Mimic", "homoglyph")

    def test_empty_database(self):
        # refused when built, so no screen ever runs against an empty list
        with pytest.raises(EmptyDatabaseError, match="^known-domain database is empty$"):
            KnownDomainDB(())

    def test_tie_break_smallest_distance_then_name(self):
        db = KnownDomainDB(("aacdef.com", "abcdef.com"))
        verdict = mimicry_check("abcdef.org", db)
        # distance 0 to abcdef beats distance 1 to aacdef
        assert verdict.matched_target == "abcdef.com"
        db2 = KnownDomainDB(("aacaef.com", "aacbef.com"))
        verdict2 = mimicry_check("aaccef.org", db2)
        # equal distance: lexicographically smallest target
        assert verdict2.matched_target == "aacaef.com"

    def test_exact_iff_membership(self, small_db):
        for domain in small_db.entries:
            assert mimicry_check(domain, small_db).outcome == "Exact"
        assert mimicry_check("nbcnews.com.co", small_db).outcome != "Exact"

    @pytest.mark.parametrize("case", LABELED, ids=[c["url"] for c in LABELED])
    def test_labeled_builtin_verdicts(self, case):
        verdict = mimicry_check(normalize_domain(case["url"]), default_known_domains())
        assert (verdict.outcome, verdict.matched_target, verdict.reason) == (
            case["outcome"], case.get("target"), case.get("reason"))

    def test_edit_distance_needs_an_entry_name_of_five(self):
        db = KnownDomainDB(("abcd.com", "vwxyz.com"))
        assert mimicry_check("abce.com", db).outcome == "Clean"
        assert mimicry_check("abcd.org", db).outcome == "Clean"
        # the entry's name counts, not the queried one
        verdict = mimicry_check("wxyz.org", db)
        assert (verdict.outcome, verdict.matched_target) == ("Mimic", "vwxyz.com")

    def test_removing_unrelated_entry_preserves_clean(self, small_db):
        domain = "quiet-herald.net"
        assert mimicry_check(domain, small_db).outcome == "Clean"
        smaller = KnownDomainDB(tuple(e for e in small_db.entries if e != "cnn.com"))
        assert mimicry_check(domain, smaller).outcome == "Clean"


def brute_force_verdict(domain, entries):
    """Straight re-statement of the three rules, evaluated exhaustively.

    The edit-distance rule applies to entries whose name has 5 or more
    characters.
    """
    if domain in entries:
        return ("Exact", domain, None)
    hits = []
    for entry in entries:
        if fold_homoglyphs(domain) == fold_homoglyphs(entry):
            hits.append((0, entry, "homoglyph"))
        elif domain.startswith(entry + ".") and len(domain) > len(entry) + 1:
            hits.append((0, entry, "embedded-domain"))
        else:
            name_d, _ = split_registrable(domain)
            name_e, _ = split_registrable(entry)
            distance = damerau_levenshtein(name_d, name_e)
            if len(name_e) >= 5 and distance <= 1:
                hits.append((distance, entry, "edit-distance"))
    if not hits:
        return ("Clean", None, None)
    distance, entry, reason = min(hits, key=lambda h: (h[0], h[1]))
    return ("Mimic", entry, reason)


_name = st.text(alphabet="abcno01", min_size=1, max_size=8)
_suffix = st.sampled_from(["com", "org", "net", "co", "com.co", "co.uk"])
_domain = st.builds(lambda n, s: f"{n}.{s}", _name, _suffix)


class TestMimicryOracle:
    @settings(max_examples=150, deadline=None)
    @given(_domain, st.lists(_domain, min_size=1, max_size=50, unique=True))
    def test_matches_brute_force(self, domain, entries):
        db = KnownDomainDB(tuple(entries))
        verdict = mimicry_check(domain, db)
        expected = brute_force_verdict(domain, db.entries)
        assert (verdict.outcome, verdict.matched_target, verdict.reason) == expected


class TestDatabase:
    def test_entries_normalized_and_unique(self):
        db = KnownDomainDB(("WWW.NBCNews.com", "nbcnews.com", "CNN.com"))
        assert db.entries == ("nbcnews.com", "cnn.com")

    def test_non_registrable_entry_rejected(self):
        with pytest.raises(UnparseableUrlError):
            KnownDomainDB(("localhost",))

    @pytest.mark.parametrize("entry,message", [
        ("localhost", "known-domain entry 'localhost' is not a registrable domain"),
        ("a" * 64 + ".com", "hostname longer than RFC 1035 allows"),
        ("http://[oops/", "cannot parse 'http://[oops/'"),
    ])
    def test_load_refusal_names_the_file_first(self, tmp_path, entry, message):
        listing = tmp_path / "domains.txt"
        listing.write_text(f"nbcnews.com\n{entry}\n", encoding="utf-8")
        with pytest.raises(UnparseableUrlError, match=f"^{re.escape(f'{listing}: {message}')}"):
            load_known_domains(listing)

    def test_load_file_with_comments(self, tmp_path):
        listing = tmp_path / "domains.txt"
        listing.write_text(
            "# outlets\nnbcnews.com\n\ncnn.com  # inline comment\n", encoding="utf-8")
        db = load_known_domains(listing)
        assert db.entries == ("nbcnews.com", "cnn.com")

    def test_load_file_with_byte_order_mark(self, tmp_path):
        listing = tmp_path / "domains.txt"
        listing.write_text("\ufeffnbcnews.com\ncnn.com\n", encoding="utf-8")
        db = load_known_domains(listing)
        assert db.entries == ("nbcnews.com", "cnn.com")
        assert mimicry_check("nbcnews.com", db).outcome == "Exact"

    def test_load_empty_file(self, tmp_path):
        listing = tmp_path / "empty.txt"
        listing.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(EmptyDatabaseError):
            load_known_domains(listing)

    def test_builtin_list_loads(self):
        db = default_known_domains()
        assert len(db) > 50
        assert "nbcnews.com" in db
