"""The package's data directory and the readers of its list and JSON inputs.

The known-domain list, the batch file, the lexicon, the model document and
a fixture's manifest, builtin or the user's, are read here.  Each is UTF-8
with or without a byte-order mark.  A file that is not, or that does not
hold what its reader expects, raises the caller's error type with a
message that starts with the file's path.  The value a loader builds from
the file checks its own content; :func:`naming` puts the path in front of
each of its refusals.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

__all__ = ["DATA", "naming", "not_utf8", "read_lines", "read_json_object"]

DATA = Path(__file__).parent / "data"


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> str:
    """The refusal of the file at ``path``, whose bytes are not UTF-8."""
    return f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"


def naming(path: str | Path, error: type[Exception], build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, a value read from the file at ``path``; an
    ``error`` it raises is raised again, of its own type, with ``path: `` first."""
    try:
        return build(*args, **kwargs)
    except error as exc:
        *head, message = exc.args or ("",)      # a FetchError's URL comes before its message
        raise type(exc)(*head, f"{path}: {message}") from None


def _text(path: str | Path, error: Callable[[str], Exception]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(not_utf8(path, exc)) from None


def read_lines(path: str | Path, error: Callable[[str], Exception], what: str) -> list[str]:
    """The entries of a list file: one per line, ``#`` starts a comment, and
    blank lines are skipped.  A file with no entry is refused as holding no
    ``what``."""
    entries = [entry for line in _text(path, error).splitlines()
               if (entry := line.split("#", 1)[0].strip())]
    if not entries:
        raise error(f"no {what} in {path}")
    return entries


def read_json_object(path: str | Path, error: Callable[[str], Exception]) -> dict:
    """The JSON object the file holds."""
    try:
        document = json.loads(_text(path, error))
    except ValueError as exc:       # a JSONDecodeError, or an int past the digit limit
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise error(f"{path}: not a JSON object")
    return document
