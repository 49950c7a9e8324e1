"""First-stage screening: flag domains that imitate established news sources.

A domain is reduced to its registrable form (public-suffix aware), then
compared against a database of known outlets.  Exact membership means the
site IS the established source; a near miss means it imitates one and is
short-circuited to probability 1 by the pipeline.

Three imitation rules are checked, in decreasing order of specificity:

  homoglyph        the whole domain equals an entry once confusable
                   characters are folded (nbcnews.c0m -> nbcnews.com)
  embedded-domain  an entry's full registrable name is a prefix of the
                   domain with extra trailing segments (nbcnews.com.co)
  edit-distance    the name part is within Damerau-Levenshtein distance 1
                   of an entry's name part of at least 5 characters, any
                   suffix (nbcnevs.com, nbcnews.org; not abc.com against
                   abc.es)

These rules are this artifact's operational definition of "mimics or
copies"; there is no single canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from .errors import EmptyDatabaseError, UnparseableUrlError
from .files import DATA, naming, read_lines

__all__ = [
    "KnownDomainDB",
    "MimicryVerdict",
    "normalize_domain",
    "split_registrable",
    "mimicry_check",
    "damerau_levenshtein",
    "fold_homoglyphs",
    "load_known_domains",
    "default_known_domains",
]

# Multi-label public suffixes recognized when reducing a hostname to its
# registrable domain.  Snapshot of the common country-code second levels;
# any single trailing label is always treated as a suffix.  Unknown
# multi-label suffixes degrade to the last-label rule.
_MULTI_LABEL_SUFFIXES = frozenset({
    "co.uk", "org.uk", "me.uk", "net.uk", "ac.uk", "gov.uk", "sch.uk",
    "com.au", "net.au", "org.au", "edu.au", "gov.au", "id.au",
    "co.nz", "net.nz", "org.nz", "govt.nz",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "co.kr", "or.kr", "go.kr",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "com.hk", "org.hk", "net.hk",
    "com.tw", "org.tw",
    "com.sg", "org.sg",
    "com.my", "org.my",
    "co.id", "or.id", "web.id",
    "com.ph", "net.ph", "org.ph",
    "co.th", "in.th", "or.th",
    "com.vn", "net.vn",
    "co.in", "net.in", "org.in", "gen.in", "firm.in", "ac.in", "gov.in",
    "com.pk", "org.pk",
    "com.bd", "org.bd",
    "com.np",
    "com.br", "net.br", "org.br", "gov.br",
    "com.mx", "org.mx", "net.mx", "gob.mx",
    "com.ar", "net.ar", "org.ar",
    "com.co", "net.co", "org.co", "edu.co", "gov.co",
    "com.pe", "net.pe", "org.pe",
    "com.ve", "net.ve", "org.ve",
    "com.ec", "com.uy", "com.py", "com.bo", "com.gt", "com.sv", "com.hn",
    "com.ni", "com.pa", "com.do", "com.pr", "co.cr",
    "co.za", "org.za", "net.za", "web.za",
    "co.ke", "or.ke",
    "com.ng", "org.ng",
    "com.eg", "org.eg",
    "com.gh", "com.tz", "co.tz", "co.zw", "co.zm", "co.bw",
    "co.il", "org.il", "net.il", "ac.il",
    "com.tr", "org.tr", "net.tr",
    "com.sa", "com.kw", "com.qa", "com.om", "com.bh", "com.lb", "com.jo",
    "com.ua", "net.ua", "org.ua", "in.ua",
    "com.ru", "net.ru", "org.ru",
    "com.pl", "net.pl", "org.pl",
    "com.pt", "org.pt",
    "com.gr", "org.gr",
    "com.es", "org.es", "nom.es",
    "com.fr",
    "co.at", "or.at",
    "com.de",
    "co.hu",
    "com.ro", "org.ro",
    "com.bg",
    "com.cy",
    "com.mt",
    "co.im", "com.im",
    "co.gg", "co.je",
})

# Confusable folding.  Digraphs are replaced before single characters; all
# entries assume casefolded input.  Both sides of a comparison are folded,
# so the table only needs one canonical target per confusable class.
_HOMOGLYPH_DIGRAPHS = (
    ("rn", "m"),
)
_HOMOGLYPH_CHARS = str.maketrans({
    # digit / latin lookalikes
    "0": "o",
    "1": "l",
    "i": "l",
    "|": "l",
    "!": "l",
    # cyrillic lookalikes (casefolded forms)
    "а": "a",   # а
    "е": "e",   # е
    "о": "o",   # о
    "р": "p",   # р
    "с": "c",   # с
    "х": "x",   # х
    "у": "y",   # у
    "і": "l",   # і -> i-class -> l
    "ѕ": "s",   # ѕ
    "ј": "j",   # ј
    "ԁ": "d",   # ԁ
    "һ": "h",   # һ
    "ԛ": "q",   # ԛ
    "ԝ": "w",   # ԝ
    # greek lookalikes
    "ο": "o",   # ο
    "α": "a",   # α
    "ε": "e",   # ε
    "ι": "l",   # ι -> i-class
    "ν": "v",   # ν
    "ρ": "p",   # ρ
    "τ": "t",   # τ
    "υ": "u",   # υ
    "κ": "k",   # κ
})

# Shorter names sit within one edit of many real outlets (abc.com, cbs.com,
# dw.de, t.co), so the edit-distance rule skips entries with such names.
_MIN_EDIT_NAME = 5

# RFC 1035 section 2.3.4 limits; they also bound the edit-distance screen's work.
_MAX_LABEL = 63
_MAX_HOSTNAME = 253

_LDH = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


def _is_label(label: str) -> bool:
    """A hostname label: a-z, 0-9 and U+00A1-U+FFFF, with "-" only inside."""
    if not label or label[0] == "-" or label[-1] == "-":
        return False
    if label.isascii():
        return _LDH.issuperset(label)
    return all(c in _LDH or "\xa1" <= c <= "\uffff" for c in label)


def fold_homoglyphs(domain: str) -> str:
    """Casefold and collapse confusable characters to their Latin class."""
    s = domain.casefold()
    for pair, repl in _HOMOGLYPH_DIGRAPHS:
        s = s.replace(pair, repl)
    return s.translate(_HOMOGLYPH_CHARS)


def _decode_punycode(hostname: str) -> str:
    if "xn--" not in hostname:
        return hostname
    try:
        return hostname.encode("ascii").decode("idna")
    except (UnicodeError, UnicodeDecodeError):
        return hostname


def _public_suffix(hostname: str) -> str:
    """Longest known public suffix of ``hostname`` (at least the last label)."""
    labels = hostname.split(".")
    for take in (3, 2):
        if len(labels) > take:
            candidate = ".".join(labels[-take:])
            if candidate in _MULTI_LABEL_SUFFIXES:
                return candidate
    return labels[-1]


def split_registrable(domain: str) -> tuple[str, str]:
    """Split a registrable domain into (name part, public suffix)."""
    suffix = _public_suffix(domain)
    if domain == suffix:
        return "", suffix
    name = domain[: -(len(suffix) + 1)]
    return name, suffix


def normalize_domain(url: str) -> str:
    """Reduce a URL or bare hostname to its lowercase registrable domain.

    Public-suffix aware: subdomains above the registrable level are
    dropped, punycode labels are decoded, and a leading ``www.`` is
    stripped.  Raises :class:`UnparseableUrlError` for anything that does
    not contain a plausible hostname.
    """
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

    name, suffix = split_registrable(hostname)
    return f"{name.rpartition('.')[2]}.{suffix}" if name else hostname


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance counting insert, delete, substitute and adjacent swap."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev2: list[int] = []
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                cur[j] = min(cur[j], prev2[j - 2] + cost)
        prev2, prev = prev, cur
    return prev[-1]


@dataclass(frozen=True)
class KnownDomainDB:
    """Immutable list of established registrable domains."""

    entries: tuple[str, ...]

    def __post_init__(self):
        seen: dict[str, None] = {}
        for entry in self.entries:
            norm = normalize_domain(entry)
            if "." not in norm:
                raise UnparseableUrlError(
                    f"known-domain entry {entry!r} is not a registrable domain")
            seen.setdefault(norm, None)
        if not seen:
            raise EmptyDatabaseError("known-domain database is empty")
        object.__setattr__(self, "entries", tuple(seen))

    def __contains__(self, domain: str) -> bool:
        return domain in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MimicryVerdict:
    """Outcome of the first screening for one domain."""

    outcome: str                      # "Clean" | "Exact" | "Mimic"
    matched_target: Optional[str] = None
    reason: Optional[str] = None      # set iff outcome == "Mimic"


def _entry_match(domain: str, entry: str) -> Optional[tuple[int, str]]:
    """(distance, reason) for the most specific rule ``entry`` satisfies."""
    if fold_homoglyphs(domain) == fold_homoglyphs(entry):
        return 0, "homoglyph"
    if domain.startswith(entry + ".") and len(domain) > len(entry) + 1:
        return 0, "embedded-domain"
    name_e, _ = split_registrable(entry)
    if len(name_e) < _MIN_EDIT_NAME:
        return None
    name_d, _ = split_registrable(domain)
    distance = damerau_levenshtein(name_d, name_e)
    if distance <= 1:
        return distance, "edit-distance"
    return None


def mimicry_check(domain: str, db: KnownDomainDB) -> MimicryVerdict:
    """Classify ``domain`` as Clean, Exact (is an entry) or Mimic.

    ``domain`` must already be normalized (see :func:`normalize_domain`).
    Among multiple matching entries the smallest edit distance wins, then
    the lexicographically smallest target.
    """
    if domain in db:
        return MimicryVerdict("Exact", matched_target=domain)

    best: Optional[tuple[int, str, str]] = None
    for entry in db.entries:
        hit = _entry_match(domain, entry)
        if hit is None:
            continue
        distance, reason = hit
        key = (distance, entry)
        if best is None or key < (best[0], best[1]):
            best = (distance, entry, reason)
    if best is None:
        return MimicryVerdict("Clean")
    return MimicryVerdict("Mimic", matched_target=best[1], reason=best[2])


def load_known_domains(path: str | Path) -> KnownDomainDB:
    """Load a domain list: UTF-8 with or without a byte-order mark, one
    domain per line, ``#`` comments allowed."""
    return naming(path, UnparseableUrlError, KnownDomainDB,
                  read_lines(path, EmptyDatabaseError, "domains"))


def default_known_domains() -> KnownDomainDB:
    """The packaged seed list of established outlets."""
    return load_known_domains(DATA / "known_domains.txt")
