"""Lightweight HTML text extraction for the detectors.

Pulls out the four regions the detectors look at (anchor text, link
targets, headings, footer text) plus the full visible text, using only the
standard-library parser.  Tolerant of broken markup: unclosed regions
simply end at document end.
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser

__all__ = ["PageText", "parse_page", "normalize_text"]

_SKIP_CONTENT = {"script", "style", "noscript", "template"}
_HEADINGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
# elements that never produce a closing tag
_VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
         "link", "meta", "source", "track", "wbr"}


def normalize_text(text: str) -> str:
    """Casefold and collapse all whitespace runs to single spaces."""
    return " ".join(text.casefold().split())


@dataclass(frozen=True)
class PageText:
    """Text regions of one HTML page, already whitespace-normalized."""

    anchors: tuple[tuple[str, str], ...]   # (anchor text, raw href)
    headings: tuple[str, ...]
    footer_text: str
    full_text: str


def _is_footer_container(tag: str, attrs: dict) -> bool:
    if tag == "footer":
        return True
    # div/section footers are the dominant idiom on older news sites
    if tag not in ("div", "section"):
        return False
    ident = (attrs.get("id") or "") + " " + (attrs.get("class") or "")
    return "footer" in ident.casefold()


class _Extractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.anchors: list[tuple[str, str]] = []
        self.headings: list[str] = []
        self.footer_parts: list[str] = []
        self.text_parts: list[str] = []
        self._skip_depth = 0
        self._depth = 0
        self._footer_levels: list[int] = []   # element depths of open footer containers
        self._anchor_href: str | None = None
        self._anchor_parts: list[str] = []
        self._heading_parts: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_CONTENT:
            self._skip_depth += 1
            return
        attrs_dict = dict(attrs)
        if tag not in _VOID:
            self._depth += 1
            if _is_footer_container(tag, attrs_dict):
                self._footer_levels.append(self._depth)
        if tag == "a":
            # a nested <a> is invalid HTML; treat it as closing the previous one
            self._flush_anchor()
            self._anchor_href = attrs_dict.get("href") or ""
            self._anchor_parts = []
        elif tag in _HEADINGS:
            self._heading_parts = []
        elif tag in ("br", "p", "div", "li", "tr", "td", "th", "section", "article"):
            self.text_parts.append(" ")

    def handle_startendtag(self, tag, attrs):
        # self-closed form: no depth change
        if tag == "a":
            self._flush_anchor()
            self.anchors.append(("", dict(attrs).get("href") or ""))

    def handle_endtag(self, tag):
        if tag in _SKIP_CONTENT:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a":
            self._flush_anchor()
        elif tag in _HEADINGS and self._heading_parts is not None:
            heading = normalize_text("".join(self._heading_parts))
            if heading:
                self.headings.append(heading)
            self._heading_parts = None
        if tag not in _VOID:
            while self._footer_levels and self._footer_levels[-1] >= self._depth:
                self._footer_levels.pop()
            self._depth = max(0, self._depth - 1)
        self.text_parts.append(" ")

    def handle_data(self, data):
        if self._skip_depth:
            return
        self.text_parts.append(data)
        if self._anchor_href is not None:
            self._anchor_parts.append(data)
        if self._heading_parts is not None:
            self._heading_parts.append(data)
        if self._footer_levels:
            self.footer_parts.append(data)

    def _flush_anchor(self):
        if self._anchor_href is None:
            return
        self.anchors.append((normalize_text("".join(self._anchor_parts)), self._anchor_href))
        self._anchor_href = None
        self._anchor_parts = []


def parse_page(html: str) -> PageText:
    """Extract the detector-relevant regions from one HTML document."""
    extractor = _Extractor()
    try:
        extractor.feed(html)
        extractor.close()
    except Exception:
        # salvage whatever was collected before the parser gave up
        pass
    extractor._flush_anchor()
    return PageText(
        anchors=tuple(extractor.anchors),
        headings=tuple(extractor.headings),
        footer_text=normalize_text("".join(extractor.footer_parts)),
        full_text=normalize_text(" ".join(extractor.text_parts)),
    )
