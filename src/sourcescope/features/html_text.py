"""Lightweight HTML text extraction for the detectors.

Pulls out the four regions the detectors look at (anchor text, link
targets, headings, footer text) plus the full visible text, in one pass
over the page.  At each ``<`` one compiled pattern reads a well-formed
start or end tag; anything else (comments, ``<!doctype>``, ``<?pi>``,
``<![...]>`` sections, a stray ``<``, malformed or unterminated tags) is
read by ``_markup`` under the tolerant rules of the standard library's
``html.parser``, so the tokens, and the text chunks between them, are the
ones that parser gives.  Attributes are read only where a detector needs
them: ``href`` on ``a``, ``id``/``class`` on ``div``/``section``.
``script``/``style`` bodies are skipped unread; ``noscript``/``template``
markup is read but their text is not.  Tolerant of broken markup: unclosed
regions simply end at document end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import unescape

__all__ = ["PageText", "parse_page", "normalize_text"]

_SKIP_CONTENT = {"script", "style", "noscript", "template"}
_HEADINGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
# elements that never produce a closing tag
_VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
         "link", "meta", "source", "track", "wbr"}

# The fast path: the text up to the next "<", then a start tag whose
# attributes are space-separated names with optional quoted or plain values,
# or an end tag.  On every input it matches, the tolerant rules below read
# the same tag, the same end and the same attributes.
_TOKEN = re.compile(r"""
    ([^<]*)
    (?:<(?:
        ([a-zA-Z][^\t\n\r\f />\x00]*)(?=[\t\n\r\f />])
        (?:\s+[^\s/>"'=][^\s/=>"']*(?:\s*=\s*(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+))?)*
        \s*(/?)>
      | /\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>
    ))?
""", re.VERBOSE)
# the end of a script or style body: "</", the name in any ASCII case, ">"
_RAWTEXT_END = {
    "script": re.compile(r"</\s*[sS][cC][rR][iI][pP][tT]\s*>"),
    "style": re.compile(r"</\s*[sS][tT][yY][lL][eE]\s*>"),
}

# The tolerant rules, as html.parser (Python 3.11) and _markupbase state them.
_STARTTAG_OPEN = re.compile(r"<[a-zA-Z]")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*")
_STARTTAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*
  (?:[\s/]*
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*
      (?:\s*=+\s*
        (?:'[^']*'
          |"[^"]*"
          |(?!['"])[^>\s]*
         )
        \s*
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*
""", re.VERBOSE)
_COMMENT_CLOSE = re.compile(r"--\s*>")
_MARKED_SECTION = re.compile(r"<!\[([a-zA-Z][-_.a-zA-Z0-9]*)")
_MARKED_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
_INCOMPLETE_AT = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ=/")


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


def _names_footer(attrs: dict) -> bool:
    # div/section footers are the dominant idiom on older news sites
    ident = (attrs.get("id") or "") + " " + (attrs.get("class") or "")
    return "footer" in ident.casefold()


def _attributes(html: str, start: int, end: int) -> tuple[dict, int]:
    """The attributes of the start tag ``html[start:end]`` (names lowercased,
    values unquoted and unescaped, the last of a duplicate kept) and where
    the last one ends."""
    k = _TAGFIND.match(html, start + 1).end()
    attrs = {}
    while k < end:
        m = _ATTRFIND.match(html, k)
        if not m:
            break
        name, value = m.group(1, 3)
        if value and value[0] in "'\"":
            value = value[1:-1]
        attrs[name.lower()] = unescape(value) if value else value
        k = m.end()
    return attrs, k


def _start_tag_end(html: str, i: int) -> int:
    """End of the start tag at ``i``, or -1 where the input ends inside it."""
    j = _STARTTAG_END.match(html, i).end()
    after = html[j:j + 1]
    if after == ">":
        return j + 1
    if after == "/":
        return j + 2
    if after == "" or after in _INCOMPLETE_AT:
        return -1
    return j


def _markup(html: str, i: int):
    """Read the markup at ``html[i] == "<"`` that ``_TOKEN`` does not match.

    Returns ``(end, data, tag, slash, end_tag)``: where reading resumes, the
    text the markup stands for, and the start tag (with ``"/"`` if
    self-closed) or end tag it is; comments and declarations are none of them.
    """
    end = -1
    if _STARTTAG_OPEN.match(html, i):
        end = _start_tag_end(html, i)
        if end >= 0:
            rest = html[_attributes(html, i, end)[1]:end].strip()
            if rest not in (">", "/>"):
                return end, html[i:end], None, "", None
            tag = _TAGFIND.match(html, i + 1).group(1)
            return end, "", tag, "/" if rest == "/>" else "", None
    elif html.startswith("</", i):
        gt = html.find(">", i + 1)
        if gt >= 0:
            # anything between the name and the next ">" is ignored; "</>" and
            # "</" + a non-letter are dropped
            name = _TAGFIND.match(html, i + 2)
            return gt + 1, "", None, "", name and name.group(1)
    elif html.startswith("<!--", i):
        m = _COMMENT_CLOSE.search(html, i + 4)
        if m:
            end = m.end()
    elif ((section := _MARKED_SECTION.match(html, i))
          and section[1].lower() in _MARKED_SECTION_CLOSE):
        m = _MARKED_SECTION_CLOSE[section[1].lower()].search(html, i + 3)
        if m:
            end = m.end()
    elif html.startswith(("<!", "<?"), i):
        # a doctype, a processing instruction or a bogus comment; a "<![" section
        # without a known keyword is a bogus comment too, as in the WHATWG
        # tokenizer (html.parser raises on it)
        end = html.find(">", i + 2)
        if end >= 0:
            end += 1
    else:
        return i + 1, "<", None, "", None
    if end >= 0:
        return end, "", None, "", None
    # unterminated at end of input: the text up to the next ">" or "<"
    end = html.find(">", i + 1)
    if end < 0:
        end = html.find("<", i + 1)
        if end < 0:
            end = i + 1
    else:
        end += 1
    return end, unescape(html[i:end]), None, "", None


def parse_page(html: str) -> PageText:
    """Extract the detector-relevant regions from one HTML document."""
    anchors: list[tuple[list[str], str]] = []   # (text chunks, href) in document order
    headings: list[list[str]] = []
    footer_parts: list[str] = []
    text_parts: list[str] = []
    skip_depth = 0
    depth = 0
    footer_levels: list[int] = []   # element depths of open footer containers
    anchor_parts: list[str] | None = None   # chunks of the open anchor
    heading_parts: list[str] | None = None
    match = _TOKEN.match
    n = len(html)
    pos = 0
    while pos < n:
        m = match(html, pos)
        text, tag, slash, end_tag = m.groups()
        if text or tag or end_tag:
            start = pos + len(text)
            pos = m.end()
            if "&" in text:
                text = unescape(text)
        else:
            start = pos
            pos, text, tag, slash, end_tag = _markup(html, pos)

        if text and not skip_depth:
            text_parts.append(text)
            if anchor_parts is not None:
                anchor_parts.append(text)
            if heading_parts is not None:
                heading_parts.append(text)
            if footer_levels:
                footer_parts.append(text)

        if tag is not None:
            tag = tag.lower()
            if slash:
                # self-closed form: no depth change
                if tag == "a":
                    anchor_parts = None
                    anchors.append(([], _attributes(html, start, pos)[0].get("href") or ""))
            elif tag in _SKIP_CONTENT:
                rawtext_end = _RAWTEXT_END.get(tag)
                if rawtext_end:
                    # the body is never text, and its end tag undoes the skip
                    close = rawtext_end.search(html, pos)
                    pos = close.end() if close else n
                else:
                    skip_depth += 1
            else:
                if tag not in _VOID:
                    depth += 1
                    if tag == "footer" or (tag in ("div", "section") and
                                           _names_footer(_attributes(html, start, pos)[0])):
                        footer_levels.append(depth)
                if tag == "a":
                    # a nested <a> is invalid HTML; it closes the previous one
                    anchor_parts = []
                    href = _attributes(html, start, pos)[0].get("href") or ""
                    anchors.append((anchor_parts, href))
                elif tag in _HEADINGS:
                    heading_parts = []
        elif end_tag is not None:
            end_tag = end_tag.lower()
            if end_tag in _SKIP_CONTENT:
                skip_depth = max(0, skip_depth - 1)
                continue
            if end_tag == "a":
                anchor_parts = None
            elif end_tag in _HEADINGS and heading_parts is not None:
                headings.append(heading_parts)
                heading_parts = None
            if end_tag not in _VOID:
                while footer_levels and footer_levels[-1] >= depth:
                    footer_levels.pop()
                depth = max(0, depth - 1)

    return PageText(
        anchors=tuple((normalize_text("".join(parts)), href) for parts, href in anchors),
        headings=tuple(h for h in (normalize_text("".join(parts)) for parts in headings) if h),
        footer_text=normalize_text("".join(footer_parts)),
        full_text=normalize_text(" ".join(text_parts)),
    )
