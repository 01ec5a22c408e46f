"""Builtin task signatures, symbols, and data categories, grouped by dialect.

The tables are compiled-in so diagnostics stay versioned with the toolchain;
per-compilation extensions are layered on top of an immutable builtin core
and never leak between compilations.

Dialects shipped in v0.1: ``sys`` (whole-system vocabulary) and ``nn``
(neural-network layer vocabulary).

Each fact is stored once, as one record keyed by its ``code``, and
:meth:`Registry.resolve` returns that record: a :class:`Signature` for a task
code, a :class:`SymbolDef` for a symbol code, or None. :func:`node_kind`
derives a node's kind from either, and :func:`list_symbols` and
:func:`list_signatures` list a dialect's builtins. A signature's inputs and
outputs are :class:`Slot` values, each a :class:`~dial.terms.DataTerm`
pattern plus the flags that belong to the slot. The data categories and
their spellings are fixed by the language and live in :mod:`dial.terms`.

A :class:`Registry` holds only what a compile can change: one table of
extension records by code beside the builtin index, and the compile's
vocabulary, :attr:`Registry.labels`, which starts at
:data:`ANNOTATION_LABELS` and only grows.
"""

from __future__ import annotations

from .diagnostics import CollidesWithBuiltin, UnknownDialect
from . import terms
from .record import Record, replace
from .terms import SEQUENCE, SET, DataTerm

DIALECTS = ("sys", "nn")


def dialect_list_error(dialects: tuple[str, ...] | frozenset[str]) -> str | None:
    """Why a diagram's dialect list is invalid, or None when it is valid:
    every dialect must be registered, and ``sys`` is mandatory."""
    unknown = sorted(d for d in dialects if d not in DIALECTS)
    if not unknown and "sys" in dialects:
        return None
    return (f"dialect list is invalid ({', '.join(unknown) or 'missing sys'}); "
            f"v0.1 registers: {', '.join(DIALECTS)}")


ANNOTATION_LABELS: frozenset[str] = frozenset(
    {
        "POS", "Chunk", "NER", "Names", "Token", "Sem", "WSD", "SRL",
        "Arg", "Name", "RS", "RST", "ArgStruct", "ArgScheme",
        "F", "R", "Constraints", "entity", "PredArg",
    }
)


# ---------------------------------------------------------------------------
# Task signatures
# ---------------------------------------------------------------------------


class Slot(Record):
    """One input or output of a signature: a data-term pattern plus the flags
    that belong to the slot rather than to the term. The pattern's labels
    are required; a ``None`` base or ``None`` dims match anything."""

    term: DataTerm
    optional: frozenset[str] = frozenset()  # labels documented as optional
    is_resource: bool = False  # must be wired from a stored resource
    optional_term: bool = False  # whole slot may be left unwired


def required_inputs(domain: tuple[Slot, ...]) -> int:
    """How many of a signature variant's inputs must be wired."""
    return sum(1 for slot in domain if not slot.optional_term)


class Signature(Record):
    code: str
    dialect: str
    name: str
    variants: tuple[tuple[tuple[Slot, ...], tuple[Slot, ...]], ...]

    @property
    def min_in(self) -> int:
        return min(required_inputs(dom) for dom, _ in self.variants)

    @property
    def max_in(self) -> int:
        return max(len(dom) for dom, _ in self.variants)

    @property
    def max_out(self) -> int:
        return max(len(rng) for _, rng in self.variants)


def _ft(base: str, req: str = "", opt: str = "", subscript: str | None = None,
        **flags) -> Slot:
    split = lambda s: frozenset(x for x in s.split(",") if x)
    return Slot(DataTerm(base=base, annotations=split(req), subscript=subscript),
                split(opt), **flags)


def _of(structure: str, inner: Slot) -> Slot:
    """``inner`` wrapped as a set or sequence; the slot's flags stay."""
    return replace(inner, term=DataTerm(structure=structure, element=inner.term))


_S = _ft("s_T")
_T = _ft("T")
_KB = _ft("KB", is_resource=True)


def _sig(code: str, name: str, *variants) -> Signature:
    return Signature(code, "sys", name, tuple((tuple(d), tuple(r)) for d, r in variants))


# Ranges add their own labels; the checker additionally carries over the
# labels of same-category inputs (annotation accumulation).
SIGNATURES: tuple[Signature, ...] = (
    _sig("POS", "part-of-speech tagging", ([_S], [_ft("s_T", req="POS")])),
    _sig("SYN", "syntactic parsing", ([_ft("s_T", opt="POS")], [_ft("Structure", subscript="PN")])),
    _sig("NER", "named entity recognition",
         ([_ft("s_T", opt="Chunk")], [_ft("s_T", req="Names,NER")])),
    _sig("WSD", "word sense disambiguation",
         ([_ft("s_T", req="POS,Chunk"), _KB], [_ft("t_T", req="WSD")])),
    _sig("EL", "entity linking",
         ([_ft("s_T", req="NER")], [_ft("Entity"), replace(_KB, optional_term=True)])),
    _sig("SRL", "semantic role labeling",
         ([_ft("s_T", req="Token")], [_ft("s_T", req="Sem,SRL")])),
    _sig("SRC", "semantic relation classification",
         ([_ft("t_T", subscript="1"), _ft("t_T", subscript="2")], [_ft("t_T", req="Sem")])),
    _sig("OIE", "open relation extraction", ([_S], [_ft("PredArg")])),
    _sig("PREDC", "predicate creation",
         ([replace(_T, optional_term=True), replace(_KB, optional_term=True)],
          [_ft("t_T", subscript="New"), _T])),
    _sig("SDQ", "structured data querying", ([_ft("q"), _KB], [_ft("Tuples")])),
    _sig("RET", "text retrieval", ([_T], [_T])),
    _sig("NLG", "natural language generation", ([_ft("PredArg")], [_T])),
    _sig("SIMP", "text simplification", ([_T], [_T])),
    _sig("SUMM", "text summarisation",
         ([_ft("T", opt="Chunk,NER,Arg,Name,Sem")], [_T])),
    _sig("COREF", "co-reference resolution",
         ([_ft("s_T", req="NER")], [_of(SET, _ft("Chains"))]),
         ([_ft("T", opt="Token")], [_of(SET, _ft("Chains"))])),
    _sig("RST", "rhetorical structure classification",
         ([_S], [_ft("s_T", req="RS")]),
         ([_ft("s_T", subscript="1"), _ft("s_T", subscript="2")], [_ft("s_T", req="RS")]),
         ([_T], [_ft("T", req="RS")])),
    _sig("ARGSTR", "argumentation structure classification",
         ([_of(SEQUENCE, _S), _T], [_ft("T", req="ArgStruct")])),
    _sig("ARGSCH", "argument scheme classification",
         ([_ft("T", req="ArgStruct")], [_ft("P_c", req="ArgScheme")])),
    _sig("POLEM", "polarity and emotion analysis",
         ([_ft("s_T", opt="PredArg")], [_ft("Score")])),
    _sig("RHET", "rhetorical figures analysis", ([_T], [_ft("T", req="RST")])),
    _sig("STRSIM", "string similarity",
         ([_ft("t_T", subscript="1"), _ft("t_T", subscript="2")], [_ft("Score")])),
    _sig("SEMSIM", "semantic similarity",
         ([_of(SET, _ft("t_T", opt="entity"))], [_ft("Score")])),
    _sig("SEMREL", "semantic relatedness",
         ([_of(SET, _ft("t_T", opt="entity"))], [_ft("Score")])),
    _sig("IND", "inductive reasoning",
         ([_ft("PredArg", req="F"), _ft("KB", req="R", is_resource=True, optional_term=True),
           _ft("KB", req="Constraints", is_resource=True)],
          [_ft("s_T", opt="PredArg")])),
    _sig("DED", "deductive reasoning",
         ([_ft("PredArg"), _ft("KB", req="F,R", is_resource=True)], [_ft("PredArg")])),
    _sig("ABD", "abductive reasoning",
         ([_ft("PredArg", req="F"), _KB], [_of(SEQUENCE, _ft("PredArg"))])),
)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

OPERATOR, RESOURCE, NN, META = "operator", "resource", "nn", "meta"
SYMBOL_CATEGORIES = (OPERATOR, RESOURCE, NN, META)


class SymbolDef(Record):
    code: str
    dialect: str
    name: str
    glyph_id: str
    min_in: int
    max_in: int
    min_out: int
    max_out: int
    category: str
    listed: bool = True  # appears in the dialect's documented symbol listing


def _sym(code, dialect, name, glyph, arity, category, listed=True) -> SymbolDef:
    (lo_in, hi_in), (lo_out, hi_out) = arity
    return SymbolDef(code, dialect, name, glyph, lo_in, hi_in, lo_out, hi_out, category, listed)


_EDGE = ((0, 0), (0, 0))  # notational symbols never appear as nodes

SYMBOLS: tuple[SymbolDef, ...] = (
    _sym("oplus", "sys", "direct sum", "op_oplus", ((2, 8), (1, 1)), OPERATOR),
    _sym("concat", "sys", "concatenation", "op_concat", ((2, 8), (1, 1)), OPERATOR),
    _sym("otimes", "sys", "tensor product", "op_otimes", ((2, 8), (1, 1)), OPERATOR),
    _sym("set", "sys", "set construction", "op_set", ((1, 8), (1, 1)), OPERATOR),
    _sym("flow", "sys", "data flow", "edge_flow", _EDGE, META),
    _sym("biflow", "sys", "data flow, both ways", "edge_biflow", _EDGE, META),
    _sym("query", "sys", "knowledge-base query", "edge_query", _EDGE, META),
    _sym("persist", "sys", "data persistence", "edge_persist", _EDGE, META),
    _sym("cond", "sys", "conditional", "op_cond", ((1, 1), (2, 2)), OPERATOR),
    _sym("interface", "sys", "system interface (service, API)", "op_interface", ((0, 4), (0, 4)), OPERATOR),
    _sym("compose", "sys", "composition", "op_compose", ((2, 2), (1, 1)), OPERATOR),
    _sym("join", "sys", "join", "op_join", ((2, 4), (1, 1)), OPERATOR),
    _sym("sim", "sys", "similarity and relatedness (cosine unless specified)", "op_sim",
         ((1, 2), (1, 1)), OPERATOR),
    _sym("proj", "sys", "embedding projection", "op_proj", ((1, 1), (1, 1)), OPERATOR),
    _sym("w2v", "sys", "word2vec embedding space", "res_w2v", ((0, 1), (1, 1)), RESOURCE),
    _sym("regression", "sys", "regression model", "op_regression", ((1, 2), (1, 1)), OPERATOR),
    _sym("classifier", "sys", "classifier component", "box_classifier", ((1, 2), (1, 1)), OPERATOR),
    _sym("classification", "sys", "classification outcome", "op_classification", ((1, 2), (1, 1)), OPERATOR),
    _sym("rank", "sys", "ranking, top n elements", "op_rank", ((1, 1), (1, 1)), OPERATOR),
    _sym("encoder", "sys", "encoder", "op_encoder", ((1, 2), (1, 1)), OPERATOR),
    _sym("decoder", "sys", "decoder", "op_decoder", ((1, 2), (1, 1)), OPERATOR),
    _sym("entail", "sys", "entailment / deductive step", "op_entail", ((1, 3), (1, 1)), OPERATOR),
    _sym("verify", "sys", "verification (user validation)", "op_verify", ((1, 1), (1, 1)), OPERATOR),
    _sym("func", "sys", "generic function", "op_func", ((1, 8), (1, 1)), OPERATOR),
    _sym("func_contract", "sys", "function contraction", "op_func_contract", ((1, 8), (1, 1)), OPERATOR),
    _sym("dataset", "sys", "dataset / data resource", "res_dataset", ((0, 8), (0, 8)), RESOURCE),
    _sym("gold", "sys", "gold standard", "res_gold", ((0, 8), (0, 8)), RESOURCE),
    _sym("kbfn", "sys", "knowledge base of functions", "res_kbfn", ((0, 8), (0, 8)), RESOURCE),
    _sym("zoom", "sys", "zoom-in detail box", "grp_zoom", _EDGE, META),
    _sym("acc", "sys", "accuracy annotation", "meta_acc", _EDGE, META),
    # Auxiliary resource: knowledge bases appear throughout the signature
    # table and the @kb source tag, but have no symbol-listing row of
    # their own.
    _sym("kb", "sys", "knowledge base", "res_kb", ((0, 8), (0, 8)), RESOURCE, listed=False),
    _sym("loss", "nn", "loss function", "nn_loss", ((1, 4), (1, 1)), NN),
    _sym("activation", "nn", "activation function", "nn_activation", ((1, 1), (1, 1)), NN),
    _sym("softmax", "nn", "softmax", "nn_softmax", ((1, 1), (1, 1)), NN),
    _sym("attention", "nn", "attention", "nn_attention", ((1, 3), (1, 1)), NN),
    _sym("lstm", "nn", "recurrent layer (LSTM)", "nn_lstm", ((1, 2), (1, 1)), NN),
    _sym("bilstm", "nn", "bidirectional LSTM layer", "nn_bilstm", ((1, 2), (1, 1)), NN),
    _sym("gru", "nn", "GRU layer", "nn_gru", ((1, 2), (1, 1)), NN),
    _sym("conv", "nn", "convolutional layer", "nn_conv", ((1, 2), (1, 1)), NN),
    _sym("recnn", "nn", "recursive neural network", "nn_recnn", ((1, 2), (1, 1)), NN),
    _sym("svm", "nn", "support vector machine", "nn_svm", ((1, 2), (1, 1)), NN),
    _sym("ground_truth", "nn", "ground-truth labels", "nn_ground_truth", ((0, 1), (1, 1)), NN),
    _sym("hidden_fwd", "nn", "hidden layer, forward", "nn_hidden_fwd", ((1, 2), (1, 1)), NN),
    _sym("hidden_bwd", "nn", "hidden layer, backward", "nn_hidden_bwd", ((1, 2), (1, 1)), NN),
)

# Node kind implied by a symbol code (a task code always gives "task").
_KIND_OVERRIDES = {
    "classifier": "classifier", "classification": "classifier", "regression": "classifier",
    "func": "function", "func_contract": "function",
    "verify": "verify", "interface": "io", "ground_truth": "resource",
}


def node_kind(found: Signature | SymbolDef) -> str:
    """The kind of a node whose code resolves to ``found``."""
    if isinstance(found, Signature):
        return "task"
    if found.code in _KIND_OVERRIDES:
        return _KIND_OVERRIDES[found.code]
    if found.category == RESOURCE:
        return "resource"
    if found.category == NN:
        return "nn_layer"
    return "operator"


# Every builtin signature and symbol by its code; no code is in both tables.
_BUILTINS: dict[str, Signature | SymbolDef] = {
    entry.code: entry for entry in SIGNATURES + SYMBOLS}


def list_symbols(dialect: str) -> list[SymbolDef]:
    """A dialect's builtin symbols in its documented listing."""
    if dialect not in DIALECTS:
        raise UnknownDialect(f"unknown dialect {dialect!r}")
    return [s for s in SYMBOLS if s.dialect == dialect and s.listed]


def list_signatures(dialect: str) -> list[Signature]:
    """A dialect's builtin task signatures."""
    if dialect not in DIALECTS:
        raise UnknownDialect(f"unknown dialect {dialect!r}")
    return [s for s in SIGNATURES if s.dialect == dialect]


class Registry:
    """One compile's overlay on the builtin tables: extension records by
    code, and :attr:`labels`, the classification labels its terms may use."""

    def __init__(self) -> None:
        self._extensions: dict[str, Signature | SymbolDef] = {}
        self.labels: frozenset[str] = ANNOTATION_LABELS
        self._terms: dict[str, DataTerm] = {}  # literal -> successful parse

    # -- lookups ----------------------------------------------------------

    def resolve(self, code: str, dialects: frozenset[str]) -> Signature | SymbolDef | None:
        """The signature or symbol a node code names in ``dialects``, as
        stored; None when nothing matches or the symbol is notation only."""
        found = _BUILTINS.get(code)
        if found is not None and found.dialect not in dialects:
            return None
        found = found or self._extensions.get(code)
        if isinstance(found, SymbolDef) and found.category == META:
            return None  # flow arrows, zoom boxes, acc badges: not node codes
        return found

    def parse_term(self, literal: str) -> DataTerm:
        """``terms.parse_term`` against :attr:`labels`; a successful parse
        is kept for the compile, a failing one raises every time."""
        term = self._terms.get(literal)
        if term is None:
            term = self._terms[literal] = terms.parse_term(literal, self.labels)
        return term

    # -- extensions ---------------------------------------------------------

    def register_extension(self, definition: SymbolDef | Signature) -> None:
        """Add an extension code; its labels are registered separately, with
        :meth:`register_labels`, once it is added."""
        if definition.code in _BUILTINS:
            raise CollidesWithBuiltin(f"{definition.code!r} is a builtin code")
        self._extensions[definition.code] = definition

    def register_labels(self, labels: frozenset[str]) -> None:
        # Kept parses stay valid: labels only grow, and a parse reads them by membership.
        self.labels |= labels
