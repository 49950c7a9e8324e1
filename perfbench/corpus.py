"""Seeded inputs for the benchmark workloads.

The program under test sees only what this module writes into a work
directory: known-domain lists, offline site trees and the labeled CSV.
The ground truth for every operation goes to ``meta.json`` beside them and
is read only by the benchmark's checks.  The same seed writes the same
files.

Site features follow the generative law of ``tests/synth.py``: the four
model predictors move together with probability 0.35 and are fair coins
otherwise; ``about`` is an independent coin.  For the scoring workloads the
32 bit patterns are allotted in the law's exact proportions (largest
remainder) and page sizes are the quantiles of their law, in a fixed order
on score-pages.  On score-pages the placement of evidence
and traps and the wording of the evidence are fixed as well, so that every
seed does about the same work; the seed changes the names and the text.

A run scores many lists of 25 URLs, and no URL repeats within it:
``build`` writes the first list, and ``Editions`` writes each later one
while the workload waits, with new names and, on score-pages, the same
pages under an edition comment.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

# The generating model: the package's MODEL_II coefficients, as in tests/synth.py.
INTERCEPT = 3.8405
COEFFICIENTS = {"padlock": -2.3141, "contact": -1.1682,
                "telephone": -1.7179, "terms": -1.4569}
COHERENCE = 0.35
BITS = ("padlock", "contact", "telephone", "about", "terms")
SECTION_KINDS = ("contact", "about", "terms")

# URLs per scoring workload.  With an odd count and whole passes over the
# list, the latency median and p90 fall inside one site's block of samples
# rather than on the step between two sites of different cost.
LIST_LENGTH = 25
# Short legitimate outlets that the seed's edit-distance rule flags as
# mimics of builtin entries (abc.es, cbc.ca, dw.com, bbc.co.uk).
SHORT_LEGIT = ("abc.com", "cbs.com", "dw.de", "bbb.org")
# Headlines whose words contain a section phrase as a substring only.
SUBSTRING_TRAPS = {
    "contact": "Police contacted witnesses after harbour storm",
    "about": "New information emerges on railway budget",
    "terms": "Council determs bridge repairs urgent",
}

# Filler vocabulary.  No word, and no pair of adjacent words, contains a
# lexicon phrase or a telephone keyword, and no filler text holds a digit,
# so every detector bit comes from the evidence placed on purpose.
WORDS = [
    "council", "harbour", "budget", "storm", "election", "minister", "river",
    "market", "museum", "festival", "railway", "bridge", "school", "hospital",
    "farmers", "energy", "climate", "coast", "village", "mayor", "court",
    "police", "league", "final", "season", "record", "vote", "plan", "report",
    "study", "shows", "rise", "fall", "prices", "new", "old", "local",
    "national", "leaders", "agree", "reject", "approve", "debate", "deal",
    "talks", "crowd", "gathers", "opens", "closes", "celebrates", "warns",
    "residents", "workers", "students", "teachers", "doctors", "nurses",
    "drivers", "airport", "flights", "delayed", "water", "supply", "heat",
    "wave", "snow", "flood", "fire", "rescue", "team", "wins", "loses",
    "cup", "match", "coach", "signs", "player", "star", "film", "award",
    "gallery", "exhibit", "library", "park", "garden", "tower", "station",
    "tram", "ferry", "port", "trade", "export", "growth", "jobs", "wages",
    "housing", "rents", "tax", "reform", "census", "survey", "science",
    "space", "launch", "mission", "ocean", "forest", "wildlife", "whale",
    "bird", "spring", "summer", "autumn", "winter", "morning", "evening",
    "weekend", "parade", "concert", "choir", "theatre", "opera", "novel",
    "poet", "chef", "bakery", "harvest", "vineyard", "cheese", "bread",
    "coffee", "street", "square", "district", "region", "province", "border",
]
SECTIONS = ["World", "Politics", "Business", "Sport", "Culture", "Science",
            "Opinion", "Travel", "Health", "Technology", "Weather", "Video"]
TITLES = ["Herald", "Times", "Post", "Tribune", "Gazette", "Courier",
          "Chronicle", "Journal", "Observer", "Ledger", "Sentinel", "Dispatch",
          "Examiner", "Mirror", "Beacon", "Register", "Standard", "Express",
          "Review", "Bulletin", "Monitor", "Press", "Record", "Star", "Globe"]
NAME_PARTS = ["the", "daily", "evening", "morning", "weekly", "metro", "city",
              "valley", "coast", "river", "north", "south", "east", "west",
              "grand", "capital", "county", "island", "harbor", "lake"]
PLACE_SYLLABLES = ["ash", "bar", "ton", "ford", "ville", "wick", "ham", "dale",
                   "port", "field", "mont", "ridge", "brook", "haven", "shire",
                   "mill", "stone", "wood", "glen", "kirk", "bury", "worth",
                   "mar", "lin", "ros", "vel", "cor", "dun", "hal", "pen"]
DB_SUFFIXES = (".com", ".com", ".com", ".com", ".net", ".org", ".co.uk",
               ".com.au", ".co.nz", ".de", ".fr", ".it", ".es", ".ca", ".ie",
               ".com.br", ".co.za", ".in")
SITE_SUFFIXES = (".com", ".com", ".net", ".org", ".news", ".info", ".co.uk",
                 ".de", ".it")

# Evidence for a set bit, one form per lexicon language.
SECTION_EVIDENCE = {
    "contact": [("Contact us", "/contact"), ("Contattaci", "/contatti"),
                ("Contacto", "/contacto"), ("Nous contacter", "/nous-contacter"),
                ("Kontakt", "/kontakt")],
    "about": [("About us", "/about"), ("Chi siamo", "/chi-siamo"),
              ("Quiénes somos", "/nosotros"), ("Qui sommes-nous", "/a-propos"),
              ("Über uns", "/ueber-uns")],
    "terms": [("Terms of use", "/terms"), ("Note legali", "/note-legali"),
              ("Aviso legal", "/aviso-legal"), ("Mentions légales", "/mentions-legales"),
              ("Impressum", "/impressum")],
}
PHONE_EVIDENCE = ["Phone: +44 20 7946 0958", "Tel. +39 06 6982 1234",
                  "Telefon: +49 30 901820", "Téléphone : +33 1 42 68 53 00",
                  "Teléfono: +34 915 550 199"]
PHONE_LINKS = ['<a href="tel:+442079460958">Call the newsroom</a>',
               '<a href="fax:+390669821234">Newsroom desk</a>']

SCRIPT_BLOB = ("window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push("
               "arguments)}gtag('js',new Date());var slots=[];for(var i=0;i<slots.length;"
               "i++){slots[i].render({sizes:[[300,250],[728,90]],lazy:true});}\n")
STYLE_BLOB = (".teaser{margin:0 0 1rem;padding:.5rem}.teaser h3{font:600 1.1rem/1.3 "
              "serif}.nav a{color:#222;text-decoration:none}footer{font-size:.8rem}\n")


_ASCII_FOLD = str.maketrans("01i|!", "ollll")


def _fold(domain: str) -> str:
    """The ASCII part of the documented homoglyph fold (rn->m, 0->o, 1/i->l)."""
    return domain.casefold().replace("rn", "m").translate(_ASCII_FOLD)


def _within_one_edit(a: str, b: str) -> bool:
    """Damerau-Levenshtein distance <= 1 (insert, delete, substitute, swap)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        diff = [i for i in range(la) if a[i] != b[i]]
        if len(diff) == 1:
            return True
        return (len(diff) == 2 and diff[1] == diff[0] + 1
                and a[diff[0]] == b[diff[1]] and a[diff[1]] == b[diff[0]])
    if la > lb:
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


class DomainSet:
    """Known domains plus what the reference screen needs to test names against them."""

    def __init__(self, entries):
        self.entries = list(dict.fromkeys(entries))
        self.exact = set(self.entries)
        self.folded = {_fold(e) for e in self.entries}
        self.names_by_len: dict[int, list[str]] = {}
        for entry in self.entries:
            name = entry.split(".", 1)[0]
            self.names_by_len.setdefault(len(name), []).append(name)

    def is_clean(self, name: str, suffix: str) -> bool:
        """No rule of the mimicry screen can match ``name + suffix``."""
        domain = name + suffix
        if domain in self.exact or _fold(domain) in self.folded:
            return False
        labels = domain.split(".")
        if any(".".join(labels[:k]) in self.exact for k in range(1, len(labels))):
            return False
        for length in (len(name) - 1, len(name), len(name) + 1):
            if any(_within_one_edit(name, other) for other in self.names_by_len.get(length, ())):
                return False
        return True


def builtin_domains(root: Path) -> list[str]:
    text = (root / "src" / "sourcescope" / "data" / "known_domains.txt").read_text("utf-8")
    return [line.split("#", 1)[0].strip() for line in text.splitlines()
            if line.split("#", 1)[0].strip()]


def _place(rng: random.Random) -> str:
    return "".join(rng.choice(PLACE_SYLLABLES) for _ in range(2))


def outlet_name(rng: random.Random) -> str:
    """A news-outlet name part of realistic length, e.g. 'ashfordherald'."""
    shape = rng.random()
    title = rng.choice(TITLES).lower()
    if shape < 0.45:
        return _place(rng) + title
    if shape < 0.7:
        return rng.choice(NAME_PARTS) + title
    if shape < 0.85:
        return _place(rng) + "news"
    return rng.choice(NAME_PARTS) + _place(rng)


def clean_domain(rng: random.Random, known: DomainSet, taken: set, length=None) -> str:
    """A domain no screen rule matches, with a name part of ``length`` letters if given."""
    while True:
        domain = outlet_name(rng) + rng.choice(SITE_SUFFIXES)
        name, suffix = domain.split(".", 1)
        if length is not None and len(name) != length:
            continue
        if domain not in taken and known.is_clean(name, "." + suffix):
            taken.add(domain)
            return domain


def known_domain_list(rng: random.Random, builtin: list[str], size: int) -> list[str]:
    entries = list(dict.fromkeys(builtin))
    seen = set(entries)
    while len(entries) < size:
        domain = outlet_name(rng) + rng.choice(DB_SUFFIXES)
        if domain not in seen:
            seen.add(domain)
            entries.append(domain)
    return entries


# --------------------------------------------------------------------------
# mimics by the three documented rules
# --------------------------------------------------------------------------

_ASCII_GLYPHS = {"o": "0", "l": "1", "i": "1", "m": "rn"}
_CYRILLIC_GLYPHS = {"a": "а", "e": "е", "o": "о", "c": "с", "p": "р"}


def homoglyph_mimic(rng: random.Random, entry: str):
    name, suffix = entry.split(".", 1)
    table = _ASCII_GLYPHS if rng.random() < 0.6 else _CYRILLIC_GLYPHS
    spots = [i for i, ch in enumerate(name) if ch in table]
    if not spots:
        return None
    i = rng.choice(spots)
    return name[:i] + table[name[i]] + name[i + 1:] + "." + suffix


def embedded_mimic(rng: random.Random, entry: str):
    if not entry.endswith(".com"):
        return None
    # com.co, com.br, com.mx and com.ar are multi-label public suffixes, so
    # the registrable domain keeps the whole entry as its prefix.
    return entry + rng.choice((".co", ".br", ".mx", ".ar"))


def edit_mimic(rng: random.Random, entry: str):
    name, suffix = entry.split(".", 1)
    if len(name) < 4:
        return None
    i = rng.randrange(1, len(name) - 1)
    letters = "abcdefghjkmnpqrstuvwxyz"
    op = rng.choice(("sub", "ins", "del", "swap"))
    if op == "sub":
        name = name[:i] + rng.choice([c for c in letters if c != name[i]]) + name[i + 1:]
    elif op == "ins":
        name = name[:i] + rng.choice(letters) + name[i:]
    elif op == "del":
        name = name[:i] + name[i + 1:]
    elif name[i] != name[i + 1]:
        name = name[:i] + name[i + 1] + name[i] + name[i + 2:]
    else:
        return None
    if rng.random() < 0.3:
        suffix = rng.choice(("com", "net", "org", "co", "info"))
    return name + "." + suffix


MIMIC_RULES = {"homoglyph": homoglyph_mimic, "embedded-domain": embedded_mimic,
               "edit-distance": edit_mimic}


def make_mimics(rng: random.Random, known: DomainSet, rule: str, lengths, taken: set) -> list[str]:
    """One mimic by ``rule`` per entry name length in ``lengths``, none in ``taken``."""
    out: list[str] = []
    for length in lengths:
        entries = [e for e in known.entries if len(e.split(".", 1)[0]) == length]
        while True:
            mimic = MIMIC_RULES[rule](rng, rng.choice(entries))
            if mimic and mimic not in known.exact and mimic not in taken:
                taken.add(mimic)
                out.append(mimic)
                break
    return out


# --------------------------------------------------------------------------
# bit patterns and sizes
# --------------------------------------------------------------------------

def _pattern_probability(bits: dict) -> float:
    four = {bits[name] for name in COEFFICIENTS}
    p_four = (1 - COHERENCE) / 16 + (COHERENCE / 2 if len(four) == 1 else 0.0)
    return p_four * 0.5          # about: an independent fair coin


def bit_patterns(rng: random.Random, n: int) -> list[dict]:
    """``n`` patterns in the law's exact proportions, in seeded order."""
    patterns = [{name: (k >> i) & 1 for i, name in enumerate(BITS)} for k in range(32)]
    quotas = [n * _pattern_probability(p) for p in patterns]
    counts = [int(q) for q in quotas]
    order = sorted(range(32), key=lambda i: (counts[i] - quotas[i], rng.random()))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    out = [dict(p) for p, c in zip(patterns, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


# Page sizes come in a fixed order, not a seeded one, so the big pages that
# meet in the batch pool and the parse cache are the same for every seed.
def log_uniform_quantiles(n: int, lo: float, hi: float) -> list[int]:
    """The ``n`` stratum midpoints of a log-uniform law on [lo, hi], in a fixed order."""
    span = math.log(hi / lo)
    values = [int(lo * math.exp((i + 0.5) / n * span)) for i in range(n)]
    random.Random(f"{n}:{lo}:{hi}").shuffle(values)
    return values


# --------------------------------------------------------------------------
# HTML
# --------------------------------------------------------------------------

class PageWriter:
    """Builds news-like pages from seeded headline and paragraph pools."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.headlines = [self._sentence(5, 9) for _ in range(400)]
        self.paragraphs = [" ".join(self._sentence(10, 22) + "." for _ in range(rng.randint(2, 5)))
                           for _ in range(150)]

    def _sentence(self, lo: int, hi: int) -> str:
        words = self.rng.choices(WORDS, k=self.rng.randint(lo, hi))
        return " ".join(words).capitalize()

    def _slug(self) -> str:
        return "-".join(self.rng.choices(WORDS, k=4)) + "-" + str(self.rng.randrange(10**5, 10**6))

    def _nav(self, extra_links) -> str:
        links = [f'<li><a href="/{s.lower()}">{s}</a></li>' for s in SECTIONS]
        links += [f'<li><a href="{href}">{text}</a></li>' for text, href in extra_links]
        return '<header class="masthead"><nav class="nav"><ul>' + "".join(links) + "</ul></nav></header>"

    def _teaser(self, headline=None) -> str:
        rng = self.rng
        section = rng.choice(SECTIONS).lower()
        head = headline or rng.choice(self.headlines)
        related = "".join(f'<li><a href="/{section}/{self._slug()}">{rng.choice(self.headlines)}</a></li>'
                          for _ in range(rng.randint(0, 2)))
        return (f'<article class="teaser"><h3><a href="/{section}/{self._slug()}">{head}</a></h3>'
                f'<p class="standfirst">{rng.choice(self.paragraphs)}</p>'
                f'<ul class="related">{related}</ul></article>\n')

    def page(self, title: str, size: int, nav_links=(), footer="", headings=(),
             trap_headline=None, body_text=()) -> str:
        rng = self.rng
        head = (f'<!DOCTYPE html><html lang="en"><head><meta charset="utf-8"><title>{title}</title>'
                f"<style>{STYLE_BLOB * rng.randint(2, 6)}</style></head><body>")
        tail = (f'<footer class="site-footer"><p>Copyright {title}. All rights reserved.</p>'
                f"{footer}</footer></body></html>")
        parts = [head, self._nav(nav_links), "<main>"]
        for text in headings:
            parts.append(f"<h2>{text}</h2>")
        for text in body_text:
            parts.append(f"<p>{text}</p>")
        used = sum(map(len, parts)) + len(tail)
        trap_at = rng.randint(1, 6) if trap_headline else -1
        n = 0
        while used < size:
            if n % 8 == 7:
                block = f"<script>{SCRIPT_BLOB * rng.randint(3, 12)}</script>\n"
            else:
                block = self._teaser(trap_headline if n == trap_at else None)
            parts.append(block)
            used += len(block)
            n += 1
        if trap_headline and trap_at >= n:
            parts.append(self._teaser(trap_headline))
        parts.append("</main>")
        parts.append(tail)
        return "".join(parts)


def _title(domain: str) -> str:
    return domain.split(".", 1)[0].capitalize()


def _plan_evidence(shape: random.Random, bits: dict, n_secondary: int):
    """Where each set bit shows (landing nav, landing footer or a secondary
    page) and in which wording, drawn from ``shape``.  The wording sets the
    detectors' cost: they try the lexicon's languages in turn and stop at
    the first match, so a French phone line costs several scans of a page
    that an English one does not."""
    nav, footer, on_page = [], [], [[] for _ in range(n_secondary)]
    for kind in SECTION_KINDS:
        if not bits[kind]:
            continue
        text, href = shape.choice(SECTION_EVIDENCE[kind])
        spot = shape.random()
        if spot < 0.15 and n_secondary:
            on_page[shape.randrange(n_secondary)].append(("heading", text))
        elif spot < 0.4:
            footer.append(f'<a href="{href}">{text}</a>')
        else:
            nav.append((text, href))
    if bits["telephone"]:
        spot = shape.random()
        if spot < 0.4 and n_secondary:
            on_page[shape.randrange(n_secondary)].append(("text", shape.choice(PHONE_EVIDENCE)))
        elif spot < 0.7:
            footer.append(f"<p>{shape.choice(PHONE_EVIDENCE)}</p>")
        else:
            footer.append(shape.choice(PHONE_LINKS))
    return nav, footer, on_page


def write_offline_site(writer: PageWriter, site_dir: Path, domain: str, bits: dict,
                       landing_size: int, secondary_sizes, trap_headline=None,
                       shape=None) -> None:
    """One fixture site; ``shape`` (default: the writer's generator) places the evidence."""
    nav, footer, on_page = _plan_evidence(shape or writer.rng, bits, len(secondary_sizes))
    site_dir.mkdir(parents=True)
    title = _title(domain)
    (site_dir / "index.html").write_text(
        writer.page(title, landing_size, nav, "".join(footer), trap_headline=trap_headline),
        encoding="utf-8")
    names = []
    for i, (size, evidence) in enumerate(zip(secondary_sizes, on_page)):
        name = f"page{i + 1}.html"
        headings = [text for where, text in evidence if where == "heading"]
        body = [text for where, text in evidence if where == "text"]
        (site_dir / name).write_text(writer.page(title, size, headings=headings, body_text=body),
                                     encoding="utf-8")
        names.append(name)
    scheme = "https" if bits["padlock"] else "http"
    manifest = {"final_scheme_secure": bool(bits["padlock"]),
                "final_url": f"{scheme}://{domain}/", "secondary_pages": names}
    (site_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _case(url: str, bits=None, rule=None, trap=None) -> dict:
    return {"url": url, "path": "mimicry-screen" if rule else "logit-model",
            "bits": bits, "rule": rule, "trap": trap}


# Screen time grows with the query's length, so every list gets the same
# name lengths: mimics keep their target's length, clean names are drawn to it.
MIMIC_LENGTHS = ((8, 11, 13, 15), (9, 12, 14), (10, 12, 16))
CLEAN_LENGTHS = (8, 9, 10, 11, 11, 12, 12, 13, 14, 15, 16)


def short_outlets(rng: random.Random, known: DomainSet, taken: set) -> list[str]:
    """Short names like SHORT_LEGIT, of the same lengths: one letter away
    from a short known name, under another suffix, as cbs.com is from cbc.ca."""
    out = []
    for length in map(len, (d.split(".", 1)[0] for d in SHORT_LEGIT)):
        names = [e.split(".", 1)[0] for e in known.entries if len(e.split(".", 1)[0]) == length]
        while True:
            name = list(rng.choice(names))
            i = rng.randrange(length)
            name[i] = rng.choice([c for c in "abcdefghjkpqstuvwxyz" if c != name[i]])
            domain = "".join(name) + rng.choice((".com", ".org", ".net", ".de", ".fr"))
            if (domain not in taken and domain not in known.exact
                    and _fold(domain) not in known.folded):
                taken.add(domain)
                out.append(domain)
                break
    return out


def screen_list(rng: random.Random, known: DomainSet, taken: set, short, sites: Path) -> list:
    """25 cases: 10 mimics by the three rules, the ``short`` outlets and 11
    clean sites of 2-5 KB with no secondary pages, written under ``sites``."""
    cases = []
    for rule, lengths in zip(MIMIC_RULES, MIMIC_LENGTHS):
        mimics = make_mimics(rng, known, rule, lengths, taken)
        cases += [_case(f"http://{d}/", rule=rule) for d in mimics]
    clean = [clean_domain(rng, known, taken, length) for length in CLEAN_LENGTHS]
    writer = PageWriter(rng)
    for domain, bits in zip(list(short) + clean, bit_patterns(rng, len(short) + len(clean))):
        write_offline_site(writer, sites / domain, domain, bits, rng.randint(2000, 5000), ())
        trap = {"kind": "short-name"} if domain in short else None
        cases.append(_case(f"http://{domain}/", bits=bits, trap=trap))
    random.Random(len(cases)).shuffle(cases)     # the same order of kinds in every list
    return cases


def build_score_screen(rng: random.Random, root: Path, work: Path) -> dict:
    """25 URLs against 1,000 known domains: 10 mimics, the 4 short legitimate
    outlets, 11 clean sites with small pages and no secondary pages."""
    known = DomainSet(known_domain_list(rng, builtin_domains(root), 1000))
    (work / "known_domains.txt").write_text("\n".join(known.entries) + "\n", encoding="utf-8")
    cases = screen_list(rng, known, set(SHORT_LEGIT), SHORT_LEGIT, work / "sites")
    return {"cases": cases, "known_domains": "known_domains.txt", "offline_root": "sites",
            "summary": "lists of 25 URLs: 4 homoglyph, 3 embedded-domain, 3 edit-distance "
                       "mimics; 4 short legitimate outlets (abc.com, cbs.com, dw.de, bbb.org, "
                       "then others like them); 11 clean sites of 2-5 KB; 1000 known domains"}


def build_score_pages(rng: random.Random, root: Path, work: Path) -> dict:
    """25 clean sites with 50 KB-1.2 MB landing pages and 0-5 secondary
    pages of 10-60 KB; a quarter carry a substring-trap headline."""
    n = LIST_LENGTH
    known = DomainSet(builtin_domains(root))
    taken: set = set()
    domains = [clean_domain(rng, known, taken) for _ in range(n)]
    # How much each site costs the detectors (its bits, page sizes, where its
    # evidence sits and in which wording, its trap) is drawn once for all
    # seeds; the seed draws names and text.
    shape = random.Random("score-pages shape")
    patterns = bit_patterns(shape, n)
    sizes = log_uniform_quantiles(n, 50_000, 1_200_000)
    secondary_counts = [i % 6 for i in range(n)]
    shape.shuffle(secondary_counts)
    secondary_sizes = log_uniform_quantiles(sum(secondary_counts), 10_000, 60_000)
    trap_sites = [i for i, bits in enumerate(patterns)
                  if not all(bits[k] for k in SECTION_KINDS)]
    trap_sites = set(shape.sample(trap_sites, min(n // 4, len(trap_sites))))
    writer = PageWriter(rng)
    cases = []
    for i, (domain, bits) in enumerate(zip(domains, patterns)):
        own = [secondary_sizes.pop() for _ in range(secondary_counts[i])]
        trap = None
        headline = None
        if i in trap_sites:
            kind = shape.choice([k for k in SECTION_KINDS if not bits[k]])
            headline = SUBSTRING_TRAPS[kind]
            trap = {"kind": "substring", "bits": [kind]}
        write_offline_site(writer, work / "sites" / domain, domain, bits, sizes[i], own,
                           headline, shape)
        cases.append(_case(f"http://{domain}/", bits=bits, trap=trap))
    return {"cases": cases, "known_domains": None, "offline_root": "sites",
            "summary": f"{n} clean sites: landing 50 KB-1.2 MB log-uniform, 0-5 secondary "
                       f"pages of 10-60 KB, {len(trap_sites)} substring-trap headlines; "
                       "79 builtin known domains"}


def build_dataset(rng: random.Random, work: Path, rows: int = 100_000) -> dict:
    """``rows`` labeled rows drawn row by row from the generative law."""
    names = tuple(COEFFICIENTS)
    lines = ["label,padlock,contact,telephone,about,terms"]
    for _ in range(rows):
        if rng.random() < COHERENCE:
            four = [rng.getrandbits(1)] * 4
        else:
            four = [rng.getrandbits(1) for _ in range(4)]
        z = INTERCEPT + sum(COEFFICIENTS[n] * b for n, b in zip(names, four))
        label = int(rng.random() < 1.0 / (1.0 + math.exp(-z)))
        bits = dict(zip(names, four), about=rng.getrandbits(1))
        lines.append(f"{label},{bits['padlock']},{bits['contact']},{bits['telephone']},"
                     f"{bits['about']},{bits['terms']}")
    (work / "dataset.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"csv": "dataset.csv", "rows": rows, "intercept": INTERCEPT,
            "coefficients": COEFFICIENTS,
            "summary": f"{rows} rows drawn from the generative law (MODEL_II, coherence 0.35)"}


BUILDERS = {"score-screen": build_score_screen, "score-pages": build_score_pages}


def build(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its description."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True)
    if workload == "dataset":
        meta = build_dataset(rng, work)
    else:
        meta = BUILDERS[workload](rng, root, work)
    (work / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return meta


# --------------------------------------------------------------------------
# fresh URL lists within a run
# --------------------------------------------------------------------------

def mark(html: str, edition: int) -> str:
    """``html`` with an edition comment after ``<head>``: a distinct page of the same parse cost."""
    return html.replace("<head>", f"<head><!-- edition {edition} -->", 1)


class Editions:
    """Fresh URL lists for one scoring run, so that no URL or page repeats
    within it and no cache keyed by domain or page text sees a hit that
    distinct real traffic would not give.  Edition 0 is the list ``build``
    wrote; each later one has the same shape of work (name lengths, bits,
    traps, page sizes) under names not used before in the run."""

    def __init__(self, workload: str, seed: int, root: Path, work: Path, meta: dict):
        self.workload, self.seed, self.work, self.meta = workload, seed, work, meta
        entries = (work / meta["known_domains"]).read_text("utf-8").split() \
            if meta["known_domains"] else builtin_domains(root)
        self.known = DomainSet(entries)
        self.taken = set(SHORT_LEGIT) | {c["url"].split("/")[2] for c in meta["cases"]}
        self.count = 0

    def next(self) -> dict:
        """Write the next list's inputs; return its cases and its offline root."""
        self.count += 1
        edition = self.count
        rng = random.Random(f"{self.workload}:{self.seed}:{edition}")
        shutil.rmtree(self.work / f"e{edition - 1}", ignore_errors=True)
        out = self.work / f"e{edition}"
        if self.workload == "score-screen":
            short = short_outlets(rng, self.known, self.taken)
            cases = screen_list(rng, self.known, self.taken, short, out / "sites")
            return {"cases": cases, "offline_root": f"e{edition}/sites"}
        cases = []
        for case in self.meta["cases"]:
            domain = clean_domain(rng, self.known, self.taken)
            self._copy_site(case["url"].split("/")[2], domain, out / "sites" / domain, edition)
            cases.append(dict(case, url=f"http://{domain}/"))
        return {"cases": cases, "offline_root": f"e{edition}/sites"}

    def _copy_site(self, base: str, domain: str, site_dir: Path, edition: int) -> None:
        source = self.work / self.meta["offline_root"] / base
        site_dir.mkdir(parents=True)
        manifest = json.loads((source / "manifest.json").read_text("utf-8"))
        scheme = "https" if manifest["final_scheme_secure"] else "http"
        manifest["final_url"] = f"{scheme}://{domain}/"
        (site_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        for name in ["index.html", *manifest["secondary_pages"]]:
            html = (source / name).read_text("utf-8")
            (site_dir / name).write_text(mark(html, edition), encoding="utf-8")
