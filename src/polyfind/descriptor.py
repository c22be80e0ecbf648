"""Service descriptors: a small XML dialect, read with expat and written by hand.

The grammar below is the one rule set for descriptors: the serializer reads
back what it writes, so a descriptor built in code meets the same rules as a
published document. The grammar is exactly:

    <service xml:lang name provider endpoint>
      <documentation>text</documentation>
      <category term lang/>*
      <operation name>
        <documentation>text</documentation>
        <input name type/>*
        <output type/>
      </operation>+
    </service>

plus an optional leading XML declaration and comments. The standard
library's expat reads the document as UTF-8, whatever its declaration says.
A DOCTYPE, processing instructions, CDATA sections and foreign namespaces are
rejected as unsupported rather than coerced; without a DOCTYPE no entity but
XML's five predefined ones exists. XML 1.0's rules apply: character
references decode, line ends in text become LF, and tab, CR and LF in
attribute values become spaces. Errors carry the line and the 1-based column
of the offending construct.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field, replace
from typing import NoReturn
from urllib.parse import urlsplit
from xml.parsers import expat

from .errors import (
    InvalidIdentifier,
    InvalidLanguageTag,
    InvalidType,
    InvariantViolation,
    MalformedXml,
    MissingElement,
    UnsupportedFeature,
)
from .ontology import TermId
from .textutil import LANGUAGE_RE

SIMPLE_TYPES = ("string", "integer", "decimal", "boolean")
FIELD_NAMES = ("name", "operation", "documentation")

_MAX_DEPTH = 32
_NO_ELEMENTS = expat.errors.codes[expat.errors.XML_ERROR_NO_ELEMENTS]
_TAG_MISMATCH = expat.errors.codes[expat.errors.XML_ERROR_TAG_MISMATCH]


@dataclass(frozen=True)
class OperationSig:
    name: str
    documentation: str
    inputs: tuple[tuple[str, str], ...] = ()  # (parameter name, simple type)
    output: str = "string"

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(tuple(p) for p in self.inputs))


@dataclass(frozen=True)
class ServiceDescriptor:
    name: str
    documentation: str
    language: str
    endpoint: str
    provider: str
    operations: tuple[OperationSig, ...]
    category_terms: tuple[tuple[TermId, str], ...] = ()  # (term, its language)
    service_id: str = ""  # empty until published

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        object.__setattr__(self, "category_terms", tuple(tuple(c) for c in self.category_terms))


# --- reading the element tree ---


@dataclass
class _Element:
    name: str
    attrs: dict[str, str]
    pos: tuple[int, int]  # (line, 1-based column) of the start tag
    children: list["_Element"] = field(default_factory=list)
    text: str = ""


def _fail(message: str, pos: tuple[int, int], cls: type = MalformedXml) -> NoReturn:
    raise cls(message, *pos)


def _read_tree(document: bytes | str) -> _Element:
    """The root element of one UTF-8 document, read by expat."""
    if isinstance(document, str):
        try:
            document = document.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedXml(f"not encodable as UTF-8: character offset {exc.start}") from exc
    document = document.removeprefix(codecs.BOM_UTF8)
    # Expat switches to UTF-16 on a UTF-16 byte-order mark or on a NUL among
    # the first two bytes, whatever encoding it was created with.
    if document[:2] in (codecs.BOM_UTF16_BE, codecs.BOM_UTF16_LE) or b"\0" in document[:2]:
        raise MalformedXml("not UTF-8", 1, 1)
    parser = expat.ParserCreate("UTF-8")
    parser.buffer_text = True
    stack = [_Element("", {}, (1, 1))]  # the document; its one child is the root
    # The text pieces of each open element, joined once when it closes: expat
    # flushes its buffer at every tag, so appending to a string instead would
    # copy a parent's text again for each child.
    pieces: list[list[str]] = [[]]

    def position() -> tuple[int, int]:
        return parser.CurrentLineNumber, parser.CurrentColumnNumber + 1

    def start(name: str, attrs: dict[str, str]):
        pos = position()
        if len(stack) - 1 > _MAX_DEPTH:  # the new element's depth; the root's is 0
            _fail("document nested too deeply", pos)
        if ":" in name:
            _fail(f"namespaced element <{name}> is not supported", pos, UnsupportedFeature)
        for attr in attrs:
            if ":" in attr and attr != "xml:lang":
                _fail(f"namespaced attribute {attr!r} is not supported", pos, UnsupportedFeature)
        element = _Element(name, attrs, pos)
        stack[-1].children.append(element)
        stack.append(element)
        pieces.append([])

    def end(name: str):
        stack.pop().text = "".join(pieces.pop())

    def unsupported(what: str):
        def refuse(*_):
            _fail(f"{what} is not supported", position(), UnsupportedFeature)
        return refuse

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = lambda data: pieces[-1].append(data)
    parser.StartDoctypeDeclHandler = unsupported("a DOCTYPE")
    parser.ProcessingInstructionHandler = unsupported("a processing instruction")
    parser.StartCdataSectionHandler = unsupported("a CDATA section")
    try:
        parser.Parse(document, True)
    except expat.ExpatError as exc:
        message, pos = expat.ErrorString(exc.code), (exc.lineno, exc.offset + 1)
        if exc.code == _NO_ELEMENTS and len(stack) > 1:
            message, pos = f"unexpected end of document inside <{stack[-1].name}>", stack[-1].pos
        elif exc.code == _TAG_MISMATCH:  # expat points at the name after "</"
            message, pos = f"{message}, expected </{stack[-1].name}>", (exc.lineno, exc.offset - 1)
        raise MalformedXml(message, *pos) from None
    finally:
        # The handlers reach the parser through this cell; emptying it breaks
        # the cycle, so each parse is freed at once instead of by the cyclic GC.
        del parser
    return stack[0].children[0]


# --- structure layer ---


def _check_lang_attr(element: _Element, attr: str, value: str) -> str:
    if not LANGUAGE_RE.fullmatch(value):
        line, column = element.pos
        raise InvalidLanguageTag(
            f"bad language tag {value!r} in {attr} on <{element.name}>"
            f" at line {line}, column {column}"
        )
    return value


def _take_attrs(element: _Element, required: tuple[str, ...],
                ignored: tuple[str, ...] = ()) -> dict[str, str]:
    for name in element.attrs:
        if name not in required and name not in ignored:
            _fail(f"unexpected attribute {name!r} on <{element.name}>", element.pos)
    out = {}
    for name in required:
        if name not in element.attrs:
            _fail(f"<{element.name}> requires attribute {name!r}", element.pos, MissingElement)
        out[name] = element.attrs[name]
    return out


def _require_leaf(element: _Element):
    if element.children:
        _fail(f"<{element.name}> must not have child elements", element.children[0].pos)
    if element.text.strip():
        _fail(f"<{element.name}> must not contain text", element.pos)


def _take_documentation(parent: _Element, children: list[_Element]) -> str:
    if not children or children[0].name != "documentation":
        _fail(f"<{parent.name}> requires a <documentation> child", parent.pos, MissingElement)
    doc = children.pop(0)
    _take_attrs(doc, ())
    if doc.children:
        _fail("<documentation> must not have child elements", doc.children[0].pos)
    return doc.text


def _nonempty(element: _Element, attr: str, value: str) -> str:
    if not value.strip():
        _fail(f"attribute {attr!r} on <{element.name}> must not be empty", element.pos)
    return value


def _simple_type(element: _Element, value: str) -> str:
    if value not in SIMPLE_TYPES:
        _fail(f"unknown type {value!r}, expected one of {', '.join(SIMPLE_TYPES)}",
              element.pos, InvalidType)
    return value


def _parse_operation(element: _Element) -> OperationSig:
    attrs = _take_attrs(element, ("name",))
    op_name = _nonempty(element, "name", attrs["name"])
    if element.text.strip():
        _fail("<operation> must not contain text", element.pos)
    children = list(element.children)
    documentation = _take_documentation(element, children)
    inputs: list[tuple[str, str]] = []
    seen_inputs: set[str] = set()
    while children and children[0].name == "input":
        child = children.pop(0)
        cattrs = _take_attrs(child, ("name", "type"))
        _require_leaf(child)
        in_name = _nonempty(child, "name", cattrs["name"])
        if in_name in seen_inputs:
            _fail(f"duplicate input {in_name!r} in operation {op_name!r}", child.pos)
        seen_inputs.add(in_name)
        inputs.append((in_name, _simple_type(child, cattrs["type"])))
    if not children or children[0].name != "output":
        _fail(f"operation {op_name!r} requires an <output> child", element.pos, MissingElement)
    output = children.pop(0)
    oattrs = _take_attrs(output, ("type",))
    _require_leaf(output)
    output_type = _simple_type(output, oattrs["type"])
    if children:
        _fail(f"unexpected element <{children[0].name}> in <operation>", children[0].pos)
    return OperationSig(op_name, documentation, tuple(inputs), output_type)


def parse_descriptor(document: bytes | str) -> ServiceDescriptor:
    """Parse one service descriptor document; service_id is left empty."""
    root = _read_tree(document)
    if root.name != "service":
        _fail(f"root element must be <service>, found <{root.name}>", root.pos)
    attrs = _take_attrs(root, ("xml:lang", "name", "provider", "endpoint"), ignored=("xmlns",))
    language = _check_lang_attr(root, "xml:lang", attrs["xml:lang"])
    name = _nonempty(root, "name", attrs["name"])
    provider = _nonempty(root, "provider", attrs["provider"])
    endpoint = attrs["endpoint"]
    try:
        parts = urlsplit(endpoint)
    except ValueError:  # such as an unclosed IPv6 bracket
        parts = None
    if parts is None or not parts.scheme or not (parts.netloc or parts.path):
        _fail(f"endpoint {endpoint!r} must be an absolute URL", root.pos)
    if root.text.strip():
        _fail("<service> must not contain text", root.pos)
    children = list(root.children)
    documentation = _take_documentation(root, children)
    categories: list[tuple[TermId, str]] = []
    while children and children[0].name == "category":
        child = children.pop(0)
        cattrs = _take_attrs(child, ("term", "lang"))
        _require_leaf(child)
        try:
            term = TermId(cattrs["term"])
        except InvalidIdentifier as exc:
            _fail(str(exc), child.pos)
        lang = _check_lang_attr(child, "lang", cattrs["lang"])
        categories.append((term, lang))
    operations: list[OperationSig] = []
    seen_ops: set[str] = set()
    while children and children[0].name == "operation":
        child = children.pop(0)
        op = _parse_operation(child)
        if op.name in seen_ops:
            _fail(f"duplicate operation {op.name!r}", child.pos)
        seen_ops.add(op.name)
        operations.append(op)
    if children:
        _fail(f"unexpected element <{children[0].name}> in <service>", children[0].pos)
    if not operations:
        _fail("<service> requires at least one <operation>", root.pos, MissingElement)
    return ServiceDescriptor(
        name=name,
        documentation=documentation,
        language=language,
        endpoint=endpoint,
        provider=provider,
        operations=tuple(operations),
        category_terms=tuple(categories),
    )


# --- canonical serialization ---


# CR is written as a reference in text and in attributes, tab and LF in
# attributes, because XML 1.0 normalizes them on reading.
def _esc_text(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


def _esc_attr(value: str) -> str:
    return _esc_text(value).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")


def serialize_descriptor(descriptor: ServiceDescriptor) -> bytes:
    """Canonical form: fixed attribute order, two-space indent, LF endings.

    The bytes are read back with parse_descriptor and returned only if they
    give the descriptor again (without its service id); otherwise, or if the
    grammar refuses them, InvariantViolation is raised.
    """
    d = descriptor
    lines = [
        f'<service xml:lang="{_esc_attr(d.language)}" name="{_esc_attr(d.name)}"'
        f' provider="{_esc_attr(d.provider)}" endpoint="{_esc_attr(d.endpoint)}">',
        f"  <documentation>{_esc_text(d.documentation)}</documentation>",
    ]
    for term, lang in d.category_terms:
        lines.append(f'  <category term="{_esc_attr(term)}" lang="{_esc_attr(lang)}"/>')
    for op in d.operations:
        lines.append(f'  <operation name="{_esc_attr(op.name)}">')
        lines.append(f"    <documentation>{_esc_text(op.documentation)}</documentation>")
        for in_name, in_type in op.inputs:
            lines.append(f'    <input name="{_esc_attr(in_name)}" type="{in_type}"/>')
        lines.append(f'    <output type="{op.output}"/>')
        lines.append("  </operation>")
    lines.append("</service>")
    lines.append("")
    # A lone surrogate passes into the bytes, where expat refuses it.
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    try:
        stored = parse_descriptor(data)
    except (InvalidLanguageTag, MalformedXml) as exc:
        raise InvariantViolation(f"descriptor cannot be stored: {exc}") from None
    if stored != replace(d, service_id=""):
        raise InvariantViolation("descriptor cannot be stored: it reads back as another descriptor")
    return data


def field_texts(descriptor: ServiceDescriptor) -> list[tuple[str, str]]:
    """The (field, text) pairs a descriptor is indexed by: service name,
    operation names, then all documentation text (service first, then each
    operation's)."""
    d = descriptor
    return [
        ("name", d.name),
        *(("operation", op.name) for op in d.operations),
        ("documentation", d.documentation),
        *(("documentation", op.documentation) for op in d.operations),
    ]


def descriptor_to_dict(descriptor: ServiceDescriptor) -> dict:
    d = descriptor
    return {
        "service_id": d.service_id,
        "name": d.name,
        "language": d.language,
        "provider": d.provider,
        "endpoint": d.endpoint,
        "documentation": d.documentation,
        "categories": [{"term": term, "lang": lang} for term, lang in d.category_terms],
        "operations": [
            {
                "name": op.name,
                "documentation": op.documentation,
                "inputs": [{"name": n, "type": t} for n, t in op.inputs],
                "output": op.output,
            }
            for op in d.operations
        ],
    }
