"""The readers of list and JSON inputs, and the packaged data read through
the same loaders as a user's files."""

import re

import pytest

from sourcescope.errors import NetworkUnreachableError
from sourcescope.features import default_lexicon, load_lexicon
from sourcescope.files import DATA, naming, read_json_object, read_lines
from sourcescope.screener import default_known_domains, load_known_domains


class Refused(Exception):
    pass


def test_builtin_lexicon_is_the_data_file_loaded():
    assert default_lexicon() == load_lexicon(DATA / "lexicon.json")


def test_builtin_domain_list_is_the_data_file_loaded():
    assert default_known_domains() == load_known_domains(DATA / "known_domains.txt")


def test_lines_skip_comments_and_blanks(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("\ufeff# heading\n a.test \n\nb.test  # note\r\n#\n", encoding="utf-8")
    assert read_lines(path, Refused, "entries") == ["a.test", "b.test"]


def test_lines_without_an_entry_refused(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# only a comment\n\n", encoding="utf-8")
    with pytest.raises(Refused, match=f"^no entries in {re.escape(str(path))}$"):
        read_lines(path, Refused, "entries")


@pytest.mark.parametrize("read", [lambda path: read_lines(path, Refused, "entries"),
                                  lambda path: read_json_object(path, Refused)])
def test_text_not_utf8_refused_with_its_path(tmp_path, read):
    path = tmp_path / "input"
    path.write_bytes(b'{"a": "caf\xe9"}\n')
    with pytest.raises(Refused, match=rf"^{re.escape(str(path))}: not UTF-8 text \(byte 0xe9: "):
        read(path)


def test_json_object_with_byte_order_mark(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('\ufeff{"a": [1, "b"]}', encoding="utf-8")
    assert read_json_object(path, Refused) == {"a": [1, "b"]}


@pytest.mark.parametrize("text,refusal", [("[]", "not a JSON object"), ('"x"', "not a JSON object"),
                                          ("{", "not valid JSON (")])
def test_json_other_than_an_object_refused_with_its_path(tmp_path, text, refusal):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Refused, match=f"^{re.escape(f'{path}: {refusal}')}"):
        read_json_object(path, Refused)


def test_naming_puts_the_path_before_the_named_error_only():
    def build(value):
        raise Refused(f"bad {value}")
    with pytest.raises(Refused, match="^doc.json: bad 1$"):
        naming("doc.json", Refused, build, 1)
    with pytest.raises(KeyError, match="^'x'$"):
        naming("doc.json", Refused, {}.__getitem__, "x")
    assert naming("doc.json", Refused, int, "5", base=8) == 5


def test_naming_keeps_the_url_of_a_fetch_error():
    def build():
        raise NetworkUnreachableError("http://x.test", "final_url is not a string")
    with pytest.raises(NetworkUnreachableError) as refusal:
        naming("manifest.json", NetworkUnreachableError, build)
    assert refusal.value.url == "http://x.test"
    assert refusal.value.reason == "manifest.json: final_url is not a string"
    assert str(refusal.value) == "manifest.json: final_url is not a string (http://x.test)"
