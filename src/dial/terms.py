"""Data terms: a base category decorated with superscript labels, an optional
subscript qualifier, tensor dimensions, and a structure wrapper.

The textual form is ASCII; renderers translate to glyphs:

  S^NER            category s_T, labels {NER}
  S^{NER,POS}      multiple labels
  Term_New         subscript qualifier
  vec[300]         dimensions
  {Term}           set-of
  (S, T)           tuple
  P_entail[0,1]    classification outcome with distribution range

:class:`TermParser` reads one token format, parallel lists of token kinds
and texts named as the DSL tokenizer names them: the DSL parser hands it its
own lists, and :func:`parse_term` lexes a standalone literal into such lists.
Sequence structure (the output of ranking) is inference-only and has no
source syntax.

The data categories are fixed by the language: one :class:`DataCategory`
row each, its preferred spelling included, and the spelling tables
(:data:`SPELLINGS`, :data:`SET_SPELLINGS`, :data:`CANONICAL`) are constants
derived from the rows. What a compile can change is its set of
classification labels, which the reader takes as an argument.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .record import Record, replace

SCALAR = "scalar"
SET = "set"
SEQUENCE = "sequence"
TUPLE = "tuple"
DIST = "dist"

# The deepest nesting the front end accepts, both for the brackets of a data
# term and for detail blocks. Deeper input is reported (E004 for a term,
# E002 for a detail block) instead of exhausting Python's recursion limit.
MAX_NESTING = 100
# The most digits a number may have before its decimal point, here and in the
# DSL. Any such number is below 10**18, so it is also a finite float, and no
# int(), float() or str() ever meets an unbounded one.
MAX_DIGITS = 18


class TermError(ValueError):
    """Malformed data-term literal (surfaces as E004)."""

    def __init__(self, message: str, pos: int = 0) -> None:
        super().__init__(message)
        self.pos = pos  # index of the token at fault


class TermNestingError(TermError):
    """A data term nested deeper than :data:`MAX_NESTING` brackets."""


class DataTerm(Record):
    base: str | None = None
    annotations: frozenset[str] = frozenset()
    subscript: str | None = None
    dims: tuple[int, ...] | None = None
    structure: str = SCALAR
    element: "DataTerm | None" = None  # set / sequence payload
    elements: tuple["DataTerm", ...] = ()  # tuple payload
    max_len: int | None = None  # sequence bound, e.g. top-n
    dist_range: tuple[float, float] | None = None

    def core(self) -> "DataTerm":
        """Innermost carrier term for set/sequence wrappers."""
        term = self
        while term.element is not None:
            term = term.element
        return term

    def with_labels(self, labels: frozenset[str]) -> "DataTerm":
        if self.element is not None:
            return replace(self, element=self.element.with_labels(labels))
        return replace(self, annotations=self.annotations | labels)

    def all_labels(self) -> frozenset[str]:
        """Every label the term holds, through set, sequence and tuple nesting."""
        if self.element is not None:
            return self.element.all_labels()
        out = self.annotations
        for el in self.elements:
            out |= el.all_labels()
        return out


class DataCategory(Record):
    code: str
    description: str
    core: bool = True  # False for the documented extended set
    spelled: str | None = None  # preferred source spelling, when not the code


DATA_CATEGORIES: tuple[DataCategory, ...] = (
    DataCategory("T", "raw text"),
    DataCategory("p_T", "passage: contiguous fragment of a text"),
    DataCategory("s_T", "sentence: self-contained word sequence", spelled="S"),
    DataCategory("Ch_T", "single printable character"),
    DataCategory("t_T", "term: concept-bearing word or word group", spelled="Term"),
    DataCategory("w_T", "single word"),
    DataCategory("dt", "dialogue turn"),
    DataCategory("sense", "disambiguated word with sense identifier"),
    DataCategory("clustered_word", "word vector in an embedding space", spelled="vec"),
    DataCategory("im", "raw image"),
    DataCategory("sentence_sense", "sentence with resolved discourse identity",
                 spelled="ssense"),
    DataCategory("q", "query input"),
    DataCategory("a", "answer output"),
    DataCategory("F", "fact: predicate over constant tuples"),
    DataCategory("R", "rule: conditional predicate definition"),
    DataCategory("P_c", "classification outcome, optionally a distribution over [a,b]",
                 spelled="C"),
    # Extended categories: carriers that signatures produce or consume but the
    # core category table leaves unnamed.
    DataCategory("Structure", "parse structure", core=False),
    DataCategory("Score", "numeric score", core=False),
    DataCategory("Entity", "linked entity reference", core=False),
    DataCategory("Tuples", "labeled result tuples", core=False),
    DataCategory("Chains", "identified reference chain", core=False),
    DataCategory("PredArg", "predicate-argument structure", core=False, spelled="Pred(Arg)"),
    DataCategory("KB", "knowledge-base contents", core=False),
)

# A source spelling is a category code, a preferred spelling that reads as
# one name, or a comparison-task carrier alias ("terms" implies a set).
SPELLINGS: dict[str, str] = {  # source spelling -> category code
    **{cat.code: cat.code for cat in DATA_CATEGORIES},
    **{cat.spelled: cat.code for cat in DATA_CATEGORIES
       if cat.spelled and cat.spelled.isidentifier()},
    "terms": "t_T", "string": "t_T"}
SET_SPELLINGS: frozenset[str] = frozenset({"terms"})  # spellings that imply set-of
CANONICAL: dict[str, str] = {  # category code -> preferred spelling
    cat.code: cat.spelled or cat.code for cat in DATA_CATEGORIES}


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[\^\{\}\(\)\[\],]))"
)


def _lex_literal(text: str) -> tuple[list[str], list[str]]:
    """Token kinds and texts of a standalone literal, named as the DSL names them."""
    kinds: list[str] = []
    texts: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise TermError(f"unexpected character {text[pos:].strip()[0]!r}", len(kinds))
        kind, lexeme = m.lastgroup, m.group(m.lastgroup)
        if kind == "number" and len(lexeme.partition(".")[0]) > MAX_DIGITS:
            raise TermError(f"number has more than {MAX_DIGITS} digits", len(kinds))
        kinds.append(kind)
        texts.append(lexeme)
        pos = m.end()
    return kinds, texts


_NAME_KINDS = ("ident", "keyword")  # a keyword is a name inside a term
_NO_LABELS: frozenset[str] = frozenset()


def token_text(kind: str, text: str) -> str:
    """A token as the term reader matches it and messages show it: a string
    keeps its quotes, so it is never term punctuation or a name."""
    return f'"{text}"' if kind == "string" else text


class TermParser:
    """Recursive descent over parallel lists of token kinds and texts.

    :func:`parse_term` passes a literal's lists; the DSL parser passes its
    own, with the term's first index as ``start``, and reads :attr:`index`
    afterwards to know where the term ended. ``TermError.pos`` is a token
    index. A step reads one token in place: :meth:`_skip` and :meth:`_expect`
    punctuation (or ``Arg``), never a string, :meth:`_name` a name and
    :meth:`_number` a number. Bases resolve against :data:`SPELLINGS` and
    labels must be in ``labels``. With ``labels=None`` the parser checks
    structure only; base and label names pass through unresolved (the DSL
    front end uses this to find a term's extent before extensions are
    registered).
    """

    def __init__(self, kinds: list[str], texts: list[str],
                 labels: frozenset[str] | None, start: int = 0) -> None:
        self.kinds = kinds
        self.texts = texts
        self.labels = labels
        self.index = start
        self.depth = 0  # brackets open around the term being parsed

    def _skip(self, text: str) -> bool:
        """Step past ``text`` if it comes next."""
        i = self.index
        if i < len(self.texts) and self.texts[i] == text and self.kinds[i] != "string":
            self.index = i + 1
            return True
        return False

    def _expect(self, text: str) -> None:
        """Step past ``text``, which must come next."""
        if not self._skip(text):
            raise self._expected(text, repr(text))

    def _name(self) -> str:
        """Step past a name (an identifier, or a keyword, which is a name here too)."""
        i = self.index
        if i < len(self.kinds) and self.kinds[i] in _NAME_KINDS:
            self.index = i + 1
            return self.texts[i]
        raise self._expected("ident")

    def _number(self) -> str:
        i = self.index
        if i < len(self.kinds) and self.kinds[i] == "number":
            self.index = i + 1
            return self.texts[i]
        raise self._expected("num")

    def _expected(self, word: str, shown: str | None = None) -> TermError:
        """The error for the token at the cursor, which is not ``word``."""
        i = self.index
        if i == len(self.kinds):
            return TermError(f"term ended early, expected {word}", i)
        found = token_text(self.kinds[i], self.texts[i]) or "end of input"
        return TermError(f"expected {shown or word}, found {found!r}", i)

    def parse(self) -> DataTerm:
        i = self.index
        if i == len(self.kinds):
            raise TermError("empty data term", i)
        kind, text = self.kinds[i], self.texts[i]
        if kind in _NAME_KINDS:
            self.index = i + 1
            return self._parse_base(text, i)
        if kind != "punct" or text not in ("(", "{"):
            found = token_text(kind, text) or "end of input"
            raise TermError(f"expected a data term, found {found!r}", i)
        if self.depth == MAX_NESTING:
            raise TermNestingError(f"data term nested deeper than {MAX_NESTING} levels", i)
        self.depth += 1
        self.index = i + 1
        if text == "(":
            elements = [self.parse()]
            while self._skip(","):
                elements.append(self.parse())
            self._expect(")")
            term = elements[0] if len(elements) == 1 else \
                DataTerm(None, _NO_LABELS, None, None, TUPLE, None, tuple(elements))
        else:
            term = DataTerm(None, _NO_LABELS, None, None, SET, self.parse())
            self._expect("}")
        self.depth -= 1
        return term

    def _parse_base(self, text: str, pos: int) -> DataTerm:
        """The term whose base name ``text``, at ``pos``, was just read."""
        # Classification outcome with an explicit range: P_<class>[a,b].
        if text.startswith("P_") and self._skip("["):
            sub = text[2:]
            lo = float(self._number())
            self._expect(",")
            hi = float(self._number())
            self._expect("]")
            if lo > hi:
                raise TermError(f"distribution range [{lo:g},{hi:g}] is inverted", pos)
            sub = None if sub in ("", "c") else sub
            return DataTerm("P_c", self._parse_sup(), sub, None, DIST, None, (), None, (lo, hi))

        # Predicate-argument structure keeps its traditional Pred(Arg) spelling.
        if text == "Pred" and self._skip("("):
            self._expect("Arg")
            self._expect(")")
            base, subscript, as_set = "PredArg", None, False
        else:
            base, subscript, as_set = self._resolve_base(text, pos)

        term = DataTerm(base, self._parse_sup(), subscript, self._parse_dims())
        if as_set:
            term = DataTerm(None, _NO_LABELS, None, None, SET, term)
        return term

    def _resolve_base(self, text: str, pos: int) -> tuple[str, str | None, bool]:
        if self.labels is None:
            return text, None, False
        if text in SPELLINGS:
            return SPELLINGS[text], None, text in SET_SPELLINGS
        if "_" in text:
            head, _, sub = text.partition("_")
            if head in SPELLINGS and sub:
                return SPELLINGS[head], sub, head in SET_SPELLINGS
        raise TermError(f"unknown data category {text!r}", pos)

    def _parse_sup(self) -> frozenset[str]:
        if not self._skip("^"):
            return _NO_LABELS
        if not self._skip("{"):
            return frozenset((self._label(),))
        labels = [self._label()]
        while self._skip(","):
            labels.append(self._label())
        self._expect("}")
        return frozenset(labels)

    def _label(self) -> str:
        pos, text = self.index, self._name()
        if text == "Pred" and self._skip("("):
            self._expect("Arg")
            self._expect(")")
            text = "PredArg"
        if self.labels is not None and text not in self.labels:
            raise TermError(f"unknown classification label {text!r}", pos)
        return text

    def _parse_dims(self) -> tuple[int, ...] | None:
        if not self._skip("["):
            return None
        dims = [self._dim()]
        while self._skip(","):
            dims.append(self._dim())
        self._expect("]")
        return tuple(dims)

    def _dim(self) -> int:
        pos, text = self.index, self._number()
        if "." in text or int(text) < 1:
            raise TermError(f"dimension must be a positive integer, got {text}", pos)
        return int(text)


def parse_term(literal: str, labels: frozenset[str] | None) -> DataTerm:
    """Parse a standalone data-term literal; raises TermError on any defect.
    With ``labels=None`` only its structure is checked, as in :class:`TermParser`."""
    kinds, texts = _lex_literal(literal)
    parser = TermParser(kinds, texts, labels)
    term = parser.parse()
    if parser.index < len(kinds):
        raise TermError(f"trailing input {texts[parser.index]!r} after data term", parser.index)
    return term


def format_term(term: DataTerm, plain: Callable[[DataTerm], str] | None = None,
                braces: tuple[str, str] = ("{", "}"), bound: str = "<=") -> str:
    """Canonical ASCII rendering; the inverse of parse_term on its image. This is
    the one walk over tuple, set and sequence structure for every notation:
    ``plain`` spells a scalar or distribution term, ``braces`` enclose a set's
    element and ``bound`` precedes a sequence's length bound."""
    structure = term.structure
    if structure == TUPLE:
        return "(" + ", ".join([format_term(t, plain, braces, bound) for t in term.elements]) + ")"
    if structure == SET:
        return braces[0] + format_term(term.element, plain, braces, bound) + braces[1]
    if structure == SEQUENCE:
        inner = format_term(term.element, plain, braces, bound)
        return f"[{inner}]" if term.max_len is None else f"[{inner}]{bound}{term.max_len}"
    if plain is not None:
        return plain(term)
    if structure == DIST:
        lo, hi = term.dist_range
        out = f"P_{term.subscript or 'c'}[{_range_end(lo)},{_range_end(hi)}]"
        return out + _fmt_sup(term.annotations)
    spelling = CANONICAL.get(term.base, term.base or "?")
    if term.subscript:
        spelling = f"{spelling}_{term.subscript}"
    out = spelling + _fmt_sup(term.annotations)
    if term.dims is not None:
        out += "[" + ",".join(str(d) for d in term.dims) + "]"
    return out


def _fmt_sup(annotations: frozenset[str]) -> str:
    labels = sorted(annotations)
    if not labels:
        return ""
    if len(labels) == 1:
        return f"^{labels[0]}"
    return "^{" + ",".join(labels) + "}"


def _range_end(x: float) -> str:
    # an integer-valued end prints as an integer while its digits stay in bounds
    x = float(x)
    return format_number(int(x) if x.is_integer() and abs(x) < 10 ** MAX_DIGITS else x)


def format_number(value: int | float) -> str:
    """A number as the grammar reads it back: a float positionally, with its
    shortest digits and a decimal point, so reparsing keeps value and type."""
    if not isinstance(value, float):
        return str(value)
    if value == 10.0 ** MAX_DIGITS:  # what MAX_DIGITS nines round to; its digits lex as E001
        return "9" * MAX_DIGITS + ".0"
    text = repr(value)
    if "e" in text:  # 1e-05, 1e+16
        mantissa, _, exponent = text.partition("e")
        text = f"{value:.{max(len(mantissa.partition('.')[2]) - int(exponent), 1)}f}"
    return text
