"""The model and lexicon loaders against the ones they replaced.

The references below are the earlier ``load_model``, with its own number
checks (``_num``) and its refusal of ``NaN``/``Infinity`` tokens
(``_parse_constant``), and the earlier ``load_lexicon``, with its own
list-type checks, kept verbatim.  Each builds a copy of the value type as it
was then, with that type's own checks verbatim, since both types now check
what the loaders used to.  The current loaders must give an equal value, or
raise the same error type with the same message after ``PATH: ``, on every
document of the tables below.  The deliberate differences are pinned at the
end: a non-finite token is refused as a non-finite number, an empty model
as a ``ModelDocumentError``, a section table that is not an object as a
malformed document, an integer past the float range as not finite, and two
checks now run in another order.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import pytest

from sourcescope.errors import (
    LexiconError,
    ModelDocumentError,
    NonFiniteValueError,
    UnknownFeatureError,
)
from sourcescope.features import load_lexicon
from sourcescope.features.html_text import normalize_text
from sourcescope.features.lexicon import _REQUIRED_ENGLISH, SECTION_KINDS
from sourcescope.files import DATA, not_utf8, read_json_object
from sourcescope.model import (
    _DOCUMENT_KEYS,
    _DOCUMENT_VERSION,
    FEATURE_NAMES,
    MODEL_I,
    MODEL_II,
    load_model_file,
    save_model,
)

# --------------------------------------------------------------------------
# the references, verbatim but for the names of the value types they build
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceLogitModel:
    intercept: float
    coefficients: Mapping[str, float]
    metadata: Optional[str] = None

    def __post_init__(self):
        coeffs = dict(self.coefficients)
        if not coeffs:
            raise ValueError("model needs at least one feature coefficient")
        for name in coeffs:
            if name not in FEATURE_NAMES:
                raise UnknownFeatureError(
                    f"unknown feature {name!r}; expected a subset of {FEATURE_NAMES}")
        if not math.isfinite(self.intercept):
            raise NonFiniteValueError("intercept is not finite")
        for name, value in coeffs.items():
            if not math.isfinite(value):
                raise NonFiniteValueError(f"coefficient {name!r} is not finite")
        # canonical feature order, regardless of input order
        ordered = {name: float(coeffs[name]) for name in FEATURE_NAMES if name in coeffs}
        object.__setattr__(self, "coefficients", ordered)
        object.__setattr__(self, "intercept", float(self.intercept))


def reference_load_model(document: Mapping) -> ReferenceLogitModel:
    """Rebuild a model from a document, rejecting anything off-schema."""
    if not isinstance(document, Mapping):
        raise ModelDocumentError("model document must be a JSON object")
    unknown = set(document) - _DOCUMENT_KEYS
    if unknown:
        raise ModelDocumentError(f"unknown document fields: {sorted(unknown)}")
    for required in ("intercept", "coefficients"):
        if required not in document:
            raise ModelDocumentError(f"document lacks {required!r}")
    coefficients = document["coefficients"]
    if not isinstance(coefficients, Mapping):
        raise ModelDocumentError("'coefficients' must be an object")
    version = document.get("version", _DOCUMENT_VERSION)
    if str(version) != _DOCUMENT_VERSION:
        raise ModelDocumentError(f"unsupported document version {version!r}")

    def _num(value, what: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelDocumentError(f"{what} must be a number")
        if not math.isfinite(value):
            raise NonFiniteValueError(f"{what} is not finite")
        return float(value)

    intercept = _num(document["intercept"], "intercept")
    coeffs = {name: _num(value, f"coefficient {name!r}")
              for name, value in coefficients.items()}
    metadata = document.get("metadata")
    if metadata is not None and not isinstance(metadata, str):
        raise ModelDocumentError("'metadata' must be a string or null")
    return ReferenceLogitModel(intercept=intercept, coefficients=coeffs, metadata=metadata)


def _parse_constant(token: str):
    raise NonFiniteValueError(f"non-finite number {token!r} in model document")


def reference_load_model_file(path: str | Path) -> ReferenceLogitModel:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ModelDocumentError(not_utf8(path, exc)) from None
    try:
        document = json.loads(text, parse_constant=_parse_constant)
    except ValueError as exc:
        raise ModelDocumentError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ModelDocumentError(f"{path}: not a JSON object")
    return reference_load_model(document)


@dataclass(frozen=True)
class ReferenceKeywordLexicon:
    contact: Mapping[str, tuple[str, ...]]
    about: Mapping[str, tuple[str, ...]]
    terms: Mapping[str, tuple[str, ...]]
    telephone_keywords: tuple[str, ...]
    languages: tuple[str, ...]

    def __post_init__(self):
        if not self.languages:
            raise LexiconError("lexicon declares no languages")
        for kind in SECTION_KINDS:
            table = getattr(self, kind)
            for lang, phrases in table.items():
                if lang not in self.languages:
                    raise LexiconError(f"{kind}: language {lang!r} not declared in 'languages'")
                for phrase in phrases:
                    if not phrase.strip():
                        raise LexiconError(f"{kind}/{lang}: empty phrase")
            present = {normalize_text(p) for p in table.get("en", ())}
            missing = [p for p in _REQUIRED_ENGLISH[kind] if p not in present]
            if missing:
                raise LexiconError(f"{kind}: lexicon must keep English seed phrases {missing}")
        if not self.telephone_keywords:
            raise LexiconError("lexicon declares no telephone keywords")
        for keyword in self.telephone_keywords:
            if not keyword.strip():
                raise LexiconError("empty telephone keyword")


def reference_load_lexicon(path: str | Path) -> ReferenceKeywordLexicon:
    """Load a lexicon from a UTF-8 JSON file, with or without a byte-order mark."""
    raw = read_json_object(path, LexiconError)

    def strings(where: str, value) -> tuple[str, ...]:
        if isinstance(value, list) and all(isinstance(item, str) for item in value):
            return tuple(value)
        raise LexiconError(f"{path}: {where} is not a list of strings")

    try:
        languages = strings("languages", raw["languages"])
        telephone = strings("telephone_keywords", raw["telephone_keywords"])
        tables = {kind: {lang: strings(f"{kind}/{lang}", phrases)
                         for lang, phrases in dict(raw[kind]).items()}
                  for kind in SECTION_KINDS}
    except (KeyError, TypeError) as exc:
        raise LexiconError(f"{path}: malformed lexicon document ({exc})") from None
    return ReferenceKeywordLexicon(telephone_keywords=telephone, languages=languages, **tables)


# --------------------------------------------------------------------------
# the comparison
# --------------------------------------------------------------------------

def model_value(model):
    return model.intercept, dict(model.coefficients), model.metadata


def lexicon_value(lexicon):
    return (lexicon.languages, lexicon.telephone_keywords,
            {kind: dict(getattr(lexicon, kind)) for kind in SECTION_KINDS})


def outcome(load, value, path):
    """``("value", fields)`` of what ``load`` built, or the error's type and message."""
    try:
        return "value", value(load(path))
    except Exception as exc:            # the type is part of what is compared
        return type(exc), str(exc)


def named(path, result):
    """``result`` as the current loaders report it: a refusal's message
    starts with the file's path."""
    kind, detail = result
    if kind == "value" or detail.startswith(f"{path}: "):
        return result
    return kind, f"{path}: {detail}"


def write(tmp_path, text: str) -> Path:
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return path


_MISSING = object()


def model_text(**changes) -> str:
    """The builtin model2 document with ``changes``; a ``_MISSING`` value deletes the key."""
    document = {**save_model(MODEL_II), **changes}
    return json.dumps({key: value for key, value in document.items() if value is not _MISSING})


def coefficients_text(**coefficients) -> str:
    return model_text(coefficients={**MODEL_II.coefficients, **coefficients})


MODEL_TABLE = {
    # valid documents
    "builtin model2": json.dumps(save_model(MODEL_II)),
    "builtin model1": json.dumps(save_model(MODEL_I)),
    "byte-order mark": "\ufeff" + json.dumps(save_model(MODEL_I)),
    "integer coefficients": '{"intercept": 2, "coefficients": {"terms": -1, "padlock": 3}}',
    "version as a number": model_text(version=1),
    "no version, no metadata": model_text(version=_MISSING, metadata=_MISSING),
    "largest float": model_text(intercept=1.7976931348623157e308),
    # the reader's refusals
    "not an object": "[]",
    "not JSON": '{"intercept": ',
    # the document's shape
    "unknown field": model_text(calibration=[]),
    "intercept missing": model_text(intercept=_MISSING),
    "coefficients missing": model_text(coefficients=_MISSING),
    "coefficients a list": model_text(coefficients=[]),
    "coefficients a string": model_text(coefficients="padlock"),
    "version 2": model_text(version="2"),
    "metadata a number": model_text(metadata=5),
    # the numbers
    "intercept a string": model_text(intercept="1.0"),
    "intercept a boolean": model_text(intercept=True),
    "intercept null": model_text(intercept=None),
    "intercept a list": model_text(intercept=[1]),
    "coefficient a boolean": coefficients_text(padlock=True),
    "coefficient a string": coefficients_text(terms="x"),
    "coefficient null": coefficients_text(contact=None),
    "intercept overflows to inf": model_text(intercept=1).replace(": 1,", ": 1e400,"),
    "coefficient overflows to -inf": coefficients_text(padlock=-7).replace("-7", "-1e400"),
    # the features
    "unknown feature": coefficients_text(bogus=2),
    "unknown feature, not a number": coefficients_text(bogus="x"),
    "empty, intercept not a number": model_text(intercept="x", coefficients={}),
}


@pytest.mark.parametrize("text", MODEL_TABLE.values(), ids=MODEL_TABLE.keys())
def test_model_loader_matches_reference(tmp_path, text):
    path = write(tmp_path, text)
    expected = named(path, outcome(reference_load_model_file, model_value, path))
    assert outcome(load_model_file, model_value, path) == expected


LEXICON_SEEDS = {"contact": ["contact us", "connect with us", "gives us a tip"],
                 "about": ["about us", "information", "who we are"],
                 "terms": ["terms and conditions", "terms", "legal notes", "terms of use"]}


def lexicon_text(**changes) -> str:
    """A minimal English lexicon with ``changes``; a ``_MISSING`` value deletes the key."""
    document = {"languages": ["en"], **{kind: {"en": seeds} for kind, seeds in LEXICON_SEEDS.items()},
                "telephone_keywords": ["phone"], **changes}
    return json.dumps({key: value for key, value in document.items() if value is not _MISSING})


BUILTIN_LEXICON = (DATA / "lexicon.json").read_text(encoding="utf-8")

LEXICON_TABLE = {
    # valid documents
    "builtin": BUILTIN_LEXICON,
    "byte-order mark": "\ufeff" + BUILTIN_LEXICON,
    "minimal English": lexicon_text(),
    "second language": lexicon_text(languages=["en", "it"],
                                    about={"en": LEXICON_SEEDS["about"], "it": ["chi siamo"]}),
    "unknown key ignored": lexicon_text(comment="kept for the translators"),
    "a language without phrases": lexicon_text(languages=["en", "de"],
                                               terms={"en": LEXICON_SEEDS["terms"], "de": []}),
    # the reader's refusals
    "not an object": "[]",
    "not JSON": "{not json",
    # a key missing
    **{f"{key} missing": lexicon_text(**{key: _MISSING})
       for key in ("languages", "telephone_keywords", *SECTION_KINDS)},
    # the list types
    "languages a string": lexicon_text(languages="en"),
    "languages null": lexicon_text(languages=None),
    "languages hold a number": lexicon_text(languages=["en", 1]),
    "telephone keywords a string": lexicon_text(telephone_keywords="phone"),
    "telephone keywords hold a number": lexicon_text(telephone_keywords=["phone", 5]),
    "phrases hold a number": lexicon_text(contact={"en": [*LEXICON_SEEDS["contact"], 5]}),
    "phrases a string": lexicon_text(terms={"en": "terms"}),
    # the lexicon's own rules
    "languages empty": lexicon_text(languages=[]),
    "undeclared language": lexicon_text(about={"en": LEXICON_SEEDS["about"], "it": ["chi siamo"]}),
    "empty phrase": lexicon_text(terms={"en": [*LEXICON_SEEDS["terms"], " "]}),
    "seed phrase missing": lexicon_text(contact={"en": ["contact us"]}),
    "telephone keywords empty": lexicon_text(telephone_keywords=[]),
    "blank telephone keyword": lexicon_text(telephone_keywords=["phone", "\t"]),
}


@pytest.mark.parametrize("text", LEXICON_TABLE.values(), ids=LEXICON_TABLE.keys())
def test_lexicon_loader_matches_reference(tmp_path, text):
    path = write(tmp_path, text)
    expected = named(path, outcome(reference_load_lexicon, lexicon_value, path))
    assert outcome(load_lexicon, lexicon_value, path) == expected


# --------------------------------------------------------------------------
# the deliberate differences: (document, reference outcome, current outcome);
# the current loaders put the file's path in front of each message
# --------------------------------------------------------------------------

MODEL_DIFFERENCES = {
    # a NaN or Infinity token parses to a float, which the model refuses
    "NaN coefficient": (
        coefficients_text(padlock=-7).replace("-7", "NaN"),
        (NonFiniteValueError, "non-finite number 'NaN' in model document"),
        (NonFiniteValueError, "coefficient 'padlock' is not finite")),
    "-Infinity intercept": (
        model_text(intercept=1).replace(": 1,", ": -Infinity,"),
        (NonFiniteValueError, "non-finite number '-Infinity' in model document"),
        (NonFiniteValueError, "intercept is not finite")),
    "NaN metadata": (
        model_text(metadata=1).replace(": 1}", ": NaN}"),
        (NonFiniteValueError, "non-finite number 'NaN' in model document"),
        (ModelDocumentError, "'metadata' must be a string or null")),
    # an empty model is a document error, not a bare ValueError
    "coefficients empty": (
        model_text(coefficients={}),
        (ValueError, "model needs at least one feature coefficient"),
        (ModelDocumentError, "model needs at least one feature coefficient")),
    # an integer past the float range is not finite, not an OverflowError traceback
    "400-digit intercept": (
        model_text(intercept=10 ** 400),
        (OverflowError, "int too large to convert to float"),
        (NonFiniteValueError, "intercept is not finite")),
    # the document's shape is checked before the numbers
    "metadata and intercept both wrong": (
        model_text(metadata=5, intercept="x"),
        (ModelDocumentError, "intercept must be a number"),
        (ModelDocumentError, "'metadata' must be a string or null")),
}


@pytest.mark.parametrize("text,before,now", MODEL_DIFFERENCES.values(), ids=MODEL_DIFFERENCES.keys())
def test_model_loader_differences(tmp_path, text, before, now):
    path = write(tmp_path, text)
    assert outcome(reference_load_model_file, model_value, path) == before
    assert outcome(load_model_file, model_value, path) == named(path, now)


_NOT_AN_OBJECT = (LexiconError, "malformed lexicon document (contact is not an object)")

# the reference's messages, "{path}" standing for the file's path where it gave one

LEXICON_DIFFERENCES = {
    # a section table that is not an object is refused as a malformed document
    "table a string": (
        lexicon_text(contact="ab"),
        (ValueError, "dictionary update sequence element #0 has length 1; 2 is required"),
        _NOT_AN_OBJECT),
    "table a list of pairs": (
        lexicon_text(contact=[["en", LEXICON_SEEDS["contact"]]]),
        ("value", (("en",), ("phone",), {"contact": {"en": tuple(LEXICON_SEEDS["contact"])},
                                         **{kind: {"en": tuple(LEXICON_SEEDS[kind])}
                                            for kind in ("about", "terms")}})),
        _NOT_AN_OBJECT),
    "table an empty list": (
        lexicon_text(contact=[]),
        (LexiconError, "contact: lexicon must keep English seed phrases "
                       "['contact us', 'connect with us', 'gives us a tip']"),
        _NOT_AN_OBJECT),
    "table null": (
        lexicon_text(contact=None),
        (LexiconError, "{path}: malformed lexicon document ('NoneType' object is not iterable)"),
        _NOT_AN_OBJECT),
    "table a number": (
        lexicon_text(contact=5),
        (LexiconError, "{path}: malformed lexicon document ('int' object is not iterable)"),
        _NOT_AN_OBJECT),
    # every key is looked up before any is checked
    "languages a string, terms missing": (
        lexicon_text(languages="en", terms=_MISSING),
        (LexiconError, "{path}: languages is not a list of strings"),
        (LexiconError, "malformed lexicon document ('terms')")),
    # each table is checked whole, its types first, before the next
    "languages empty, phrases hold a number": (
        lexicon_text(languages=[], contact={"en": [*LEXICON_SEEDS["contact"], 5]}),
        (LexiconError, "{path}: contact/en is not a list of strings"),
        (LexiconError, "lexicon declares no languages")),
    "empty contact phrase, terms hold a number": (
        lexicon_text(contact={"en": [*LEXICON_SEEDS["contact"], ""]},
                     terms={"en": [*LEXICON_SEEDS["terms"], 5]}),
        (LexiconError, "{path}: terms/en is not a list of strings"),
        (LexiconError, "contact/en: empty phrase")),
}


@pytest.mark.parametrize("text,before,now", LEXICON_DIFFERENCES.values(),
                         ids=LEXICON_DIFFERENCES.keys())
def test_lexicon_loader_differences(tmp_path, text, before, now):
    path = write(tmp_path, text)
    if before[0] != "value":
        before = before[0], before[1].format(path=path)
    assert outcome(reference_load_lexicon, lexicon_value, path) == before
    assert outcome(load_lexicon, lexicon_value, path) == named(path, now)
