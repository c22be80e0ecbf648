"""Service descriptors: a small XML dialect, parsed and serialized by hand.

The accepted grammar is exactly:

    <service xml:lang name provider endpoint>
      <documentation>text</documentation>
      <category term lang/>*
      <operation name>
        <documentation>text</documentation>
        <input name type/>*
        <output type/>
      </operation>+
    </service>

plus an optional leading XML declaration and comments. DTDs, processing
instructions, CDATA, and foreign namespaces are rejected as unsupported
rather than coerced. Five named entities are recognized. Errors carry the
line and column of the offending byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

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
from .textutil import LANGUAGE_RE, split_words

SIMPLE_TYPES = ("string", "integer", "decimal", "boolean")
FIELD_NAMES = ("name", "operation", "documentation")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._:-]*")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
_MAX_DEPTH = 32
# C0 controls other than tab/LF/CR may not appear anywhere in a document.
_BAD_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


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


@dataclass(frozen=True)
class FieldToken:
    token: str
    field: str  # one of FIELD_NAMES


# --- low-level reader ---


@dataclass
class _Element:
    name: str
    attrs: dict[str, str]
    pos: int
    children: list["_Element"] = field(default_factory=list)
    text: str = ""
    has_text: bool = False  # any non-whitespace character content


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _location(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, column

    def fail(self, message: str, pos: int | None = None, cls: type = MalformedXml):
        line, column = self._location(self.pos if pos is None else pos)
        raise cls(message, line, column)

    def _skip_ws(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1
        return self.pos - start

    def _skip_misc(self):
        # Whitespace and comments, allowed around the root element.
        while True:
            self._skip_ws()
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    self.fail("unterminated comment")
                self.pos = end + 3
            else:
                return

    def _decode(self, raw: str, base: int) -> str:
        out: list[str] = []
        i = 0
        while True:
            amp = raw.find("&", i)
            if amp < 0:
                out.append(raw[i:])
                return "".join(out)
            out.append(raw[i:amp])
            semi = raw.find(";", amp + 1)
            name = raw[amp + 1 : semi] if semi > 0 else None
            if name not in _ENTITIES:
                self.fail("unknown or unterminated entity reference", base + amp)
            out.append(_ENTITIES[name])
            i = semi + 1

    def _read_name(self, what: str) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def _read_attrs(self, element_name: str, element_pos: int) -> dict[str, str]:
        attrs: dict[str, str] = {}
        while True:
            ws = self._skip_ws()
            if self.pos >= len(self.text):
                self.fail("unexpected end of document inside a tag", element_pos)
            if self.text[self.pos] in "/>":
                return attrs
            if not ws:
                self.fail("expected whitespace before attribute")
            attr_pos = self.pos
            name = self._read_name("an attribute name")
            if ":" in name and name != "xml:lang":
                self.fail(f"namespaced attribute {name!r} is not supported", attr_pos,
                          UnsupportedFeature)
            if name in attrs:
                self.fail(f"duplicate attribute {name!r} on <{element_name}>", attr_pos)
            if not self.text.startswith("=", self.pos):
                self.fail("expected '=' after attribute name")
            self.pos += 1
            if self.pos >= len(self.text) or self.text[self.pos] not in "\"'":
                self.fail("attribute value must be quoted")
            quote = self.text[self.pos]
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                self.fail("unterminated attribute value", attr_pos)
            raw = self.text[self.pos : end]
            if "<" in raw:
                self.fail("raw '<' in attribute value", self.pos + raw.index("<"))
            attrs[name] = self._decode(raw, self.pos)
            self.pos = end + 1

    def read_element(self, depth: int) -> _Element:
        if depth > _MAX_DEPTH:
            self.fail("document nested too deeply")
        start = self.pos
        self.pos += 1  # consume '<'
        name = self._read_name("an element name")
        if ":" in name:
            self.fail(f"namespaced element <{name}> is not supported", start, UnsupportedFeature)
        element = _Element(name, {}, start)
        element.attrs = self._read_attrs(name, start)
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return element
        if not self.text.startswith(">", self.pos):
            self.fail("expected '>' to close the tag")
        self.pos += 1
        text_parts: list[str] = []
        while True:
            if self.pos >= len(self.text):
                self.fail(f"unexpected end of document inside <{name}>", start)
            lt = self.text.find("<", self.pos)
            if lt < 0:
                self.fail(f"unexpected end of document inside <{name}>", start)
            if lt > self.pos:
                raw = self.text[self.pos : lt]
                decoded = self._decode(raw, self.pos)
                text_parts.append(decoded)
                if decoded.strip():
                    element.has_text = True
                self.pos = lt
                continue
            if self.text.startswith("</", self.pos):
                close_pos = self.pos
                self.pos += 2
                close_name = self._read_name("an element name")
                if close_name != name:
                    self.fail(
                        f"mismatched closing tag </{close_name}>, expected </{name}>", close_pos
                    )
                self._skip_ws()
                if not self.text.startswith(">", self.pos):
                    self.fail("expected '>' to close the tag")
                self.pos += 1
                element.text = "".join(text_parts)
                return element
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    self.fail("unterminated comment")
                self.pos = end + 3
                continue
            if self.text.startswith("<!", self.pos) or self.text.startswith("<?", self.pos):
                self.fail(
                    "DTDs, CDATA sections, and processing instructions are not supported",
                    self.pos,
                    UnsupportedFeature,
                )
            element.children.append(self.read_element(depth + 1))

    def read_document(self) -> _Element:
        if self.text.startswith("<?xml", self.pos):
            end = self.text.find("?>", self.pos)
            if end < 0:
                self.fail("unterminated XML declaration")
            self.pos = end + 2
        self._skip_misc()
        if self.pos >= len(self.text):
            self.fail("document has no root element")
        if self.text.startswith("<!", self.pos) or self.text.startswith("<?", self.pos):
            self.fail(
                "DTDs and processing instructions are not supported", self.pos, UnsupportedFeature
            )
        if not self.text.startswith("<", self.pos):
            self.fail("expected the root element")
        root = self.read_element(0)
        self._skip_misc()
        if self.pos < len(self.text):
            self.fail("content after the root element")
        return root


# --- structure layer ---


def _check_lang_attr(reader: _Reader, element: _Element, attr: str, value: str) -> str:
    if not LANGUAGE_RE.fullmatch(value):
        line, column = reader._location(element.pos)
        raise InvalidLanguageTag(
            f"bad language tag {value!r} in {attr} on <{element.name}>"
            f" at line {line}, column {column}"
        )
    return value


def _take_attrs(reader: _Reader, element: _Element, required: tuple[str, ...],
                ignored: tuple[str, ...] = ()) -> dict[str, str]:
    for name in element.attrs:
        if name not in required and name not in ignored:
            reader.fail(f"unexpected attribute {name!r} on <{element.name}>", element.pos)
    out = {}
    for name in required:
        if name not in element.attrs:
            reader.fail(
                f"<{element.name}> requires attribute {name!r}", element.pos, MissingElement
            )
        out[name] = element.attrs[name]
    return out


def _require_leaf(reader: _Reader, element: _Element):
    if element.children:
        reader.fail(f"<{element.name}> must not have child elements", element.children[0].pos)
    if element.has_text:
        reader.fail(f"<{element.name}> must not contain text", element.pos)


def _take_documentation(reader: _Reader, parent: _Element, children: list[_Element]) -> str:
    if not children or children[0].name != "documentation":
        reader.fail(
            f"<{parent.name}> requires a <documentation> child", parent.pos, MissingElement
        )
    doc = children.pop(0)
    _take_attrs(reader, doc, ())
    if doc.children:
        reader.fail("<documentation> must not have child elements", doc.children[0].pos)
    return doc.text


def _nonempty(reader: _Reader, element: _Element, attr: str, value: str) -> str:
    if not value.strip():
        reader.fail(f"attribute {attr!r} on <{element.name}> must not be empty", element.pos)
    return value


def _parse_operation(reader: _Reader, element: _Element) -> OperationSig:
    attrs = _take_attrs(reader, element, ("name",))
    op_name = _nonempty(reader, element, "name", attrs["name"])
    if element.has_text:
        reader.fail("<operation> must not contain text", element.pos)
    children = list(element.children)
    documentation = _take_documentation(reader, element, children)
    inputs: list[tuple[str, str]] = []
    seen_inputs: set[str] = set()
    while children and children[0].name == "input":
        child = children.pop(0)
        cattrs = _take_attrs(reader, child, ("name", "type"))
        _require_leaf(reader, child)
        in_name = _nonempty(reader, child, "name", cattrs["name"])
        if in_name in seen_inputs:
            reader.fail(f"duplicate input {in_name!r} in operation {op_name!r}", child.pos)
        seen_inputs.add(in_name)
        if cattrs["type"] not in SIMPLE_TYPES:
            reader.fail(
                f"unknown type {cattrs['type']!r}, expected one of {', '.join(SIMPLE_TYPES)}",
                child.pos,
                InvalidType,
            )
        inputs.append((in_name, cattrs["type"]))
    if not children or children[0].name != "output":
        reader.fail(
            f"operation {op_name!r} requires an <output> child", element.pos, MissingElement
        )
    output = children.pop(0)
    oattrs = _take_attrs(reader, output, ("type",))
    _require_leaf(reader, output)
    if oattrs["type"] not in SIMPLE_TYPES:
        reader.fail(
            f"unknown type {oattrs['type']!r}, expected one of {', '.join(SIMPLE_TYPES)}",
            output.pos,
            InvalidType,
        )
    if children:
        reader.fail(f"unexpected element <{children[0].name}> in <operation>", children[0].pos)
    return OperationSig(op_name, documentation, tuple(inputs), oattrs["type"])


def parse_descriptor(document: bytes | str) -> ServiceDescriptor:
    """Parse one service descriptor document; service_id is left empty."""
    if isinstance(document, bytes):
        if document.startswith(b"\xef\xbb\xbf"):
            document = document[3:]
        try:
            text = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedXml(f"not valid UTF-8: byte offset {exc.start}") from exc
    else:
        text = document
    bad = _BAD_CONTROL_RE.search(text)
    reader = _Reader(text)
    if bad:
        reader.fail(f"control character U+{ord(bad.group(0)):04X} is not allowed", bad.start())
    root = reader.read_document()
    if root.name != "service":
        reader.fail(f"root element must be <service>, found <{root.name}>", root.pos)
    attrs = _take_attrs(
        reader, root, ("xml:lang", "name", "provider", "endpoint"), ignored=("xmlns",)
    )
    language = _check_lang_attr(reader, root, "xml:lang", attrs["xml:lang"])
    name = _nonempty(reader, root, "name", attrs["name"])
    provider = _nonempty(reader, root, "provider", attrs["provider"])
    endpoint = attrs["endpoint"]
    parts = urlsplit(endpoint)
    if not parts.scheme or not (parts.netloc or parts.path):
        reader.fail(f"endpoint {endpoint!r} must be an absolute URL", root.pos)
    if root.has_text:
        reader.fail("<service> must not contain text", root.pos)
    children = list(root.children)
    documentation = _take_documentation(reader, root, children)
    categories: list[tuple[TermId, str]] = []
    while children and children[0].name == "category":
        child = children.pop(0)
        cattrs = _take_attrs(reader, child, ("term", "lang"))
        _require_leaf(reader, child)
        try:
            term = TermId.parse(cattrs["term"])
        except InvalidIdentifier as exc:
            reader.fail(str(exc), child.pos)
        lang = _check_lang_attr(reader, child, "lang", cattrs["lang"])
        categories.append((term, lang))
    operations: list[OperationSig] = []
    seen_ops: set[str] = set()
    while children and children[0].name == "operation":
        child = children.pop(0)
        op = _parse_operation(reader, child)
        if op.name in seen_ops:
            reader.fail(f"duplicate operation {op.name!r}", child.pos)
        seen_ops.add(op.name)
        operations.append(op)
    if children:
        reader.fail(f"unexpected element <{children[0].name}> in <service>", children[0].pos)
    if not operations:
        reader.fail("<service> requires at least one <operation>", root.pos, MissingElement)
    return ServiceDescriptor(
        name=name,
        documentation=documentation,
        language=language,
        endpoint=endpoint,
        provider=provider,
        operations=tuple(operations),
        category_terms=tuple(categories),
    )


# --- validation and canonical serialization ---


def _check_text(value: str, what: str):
    if _BAD_CONTROL_RE.search(value):
        raise InvariantViolation(f"{what} contains a control character")


def validate_descriptor(descriptor: ServiceDescriptor):
    """Raise InvariantViolation unless the descriptor can be serialized."""
    d = descriptor
    if not LANGUAGE_RE.fullmatch(d.language):
        raise InvariantViolation(f"bad language tag {d.language!r}")
    for what, value in (("name", d.name), ("provider", d.provider)):
        if not value.strip():
            raise InvariantViolation(f"{what} must not be empty")
        _check_text(value, what)
    parts = urlsplit(d.endpoint)
    if not parts.scheme or not (parts.netloc or parts.path):
        raise InvariantViolation(f"endpoint {d.endpoint!r} must be an absolute URL")
    _check_text(d.endpoint, "endpoint")
    _check_text(d.documentation, "documentation")
    for term, lang in d.category_terms:
        if not isinstance(term, TermId):
            raise InvariantViolation("category term must be a TermId")
        if not LANGUAGE_RE.fullmatch(lang):
            raise InvariantViolation(f"bad category language tag {lang!r}")
    if not d.operations:
        raise InvariantViolation("a service must declare at least one operation")
    seen = set()
    for op in d.operations:
        if not op.name.strip():
            raise InvariantViolation("operation name must not be empty")
        if op.name in seen:
            raise InvariantViolation(f"duplicate operation {op.name!r}")
        seen.add(op.name)
        _check_text(op.name, "operation name")
        _check_text(op.documentation, "operation documentation")
        in_seen = set()
        for in_name, in_type in op.inputs:
            if not in_name.strip():
                raise InvariantViolation("input name must not be empty")
            if in_name in in_seen:
                raise InvariantViolation(f"duplicate input {in_name!r} in {op.name!r}")
            in_seen.add(in_name)
            _check_text(in_name, "input name")
            if in_type not in SIMPLE_TYPES:
                raise InvariantViolation(f"unknown input type {in_type!r}")
        if op.output not in SIMPLE_TYPES:
            raise InvariantViolation(f"unknown output type {op.output!r}")


def _esc_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _esc_attr(value: str) -> str:
    return _esc_text(value).replace('"', "&quot;")


def serialize_descriptor(descriptor: ServiceDescriptor) -> bytes:
    """Canonical form: fixed attribute order, two-space indent, LF endings."""
    validate_descriptor(descriptor)
    d = descriptor
    lines = [
        f'<service xml:lang="{_esc_attr(d.language)}" name="{_esc_attr(d.name)}"'
        f' provider="{_esc_attr(d.provider)}" endpoint="{_esc_attr(d.endpoint)}">',
        f"  <documentation>{_esc_text(d.documentation)}</documentation>",
    ]
    for term, lang in d.category_terms:
        lines.append(f'  <category term="{_esc_attr(str(term))}" lang="{_esc_attr(lang)}"/>')
    for op in d.operations:
        lines.append(f'  <operation name="{_esc_attr(op.name)}">')
        lines.append(f"    <documentation>{_esc_text(op.documentation)}</documentation>")
        for in_name, in_type in op.inputs:
            lines.append(f'    <input name="{_esc_attr(in_name)}" type="{in_type}"/>')
        lines.append(f'    <output type="{op.output}"/>')
        lines.append("  </operation>")
    lines.append("</service>")
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def tokenize(descriptor: ServiceDescriptor) -> list[FieldToken]:
    """Index tokens with their field: service name, operation names, then all
    documentation text (service first, then each operation's)."""
    tokens = [FieldToken(t, "name") for t in split_words(descriptor.name)]
    for op in descriptor.operations:
        tokens.extend(FieldToken(t, "operation") for t in split_words(op.name))
    tokens.extend(FieldToken(t, "documentation") for t in split_words(descriptor.documentation))
    for op in descriptor.operations:
        tokens.extend(FieldToken(t, "documentation") for t in split_words(op.documentation))
    return tokens


def descriptor_to_dict(descriptor: ServiceDescriptor) -> dict:
    d = descriptor
    return {
        "service_id": d.service_id,
        "name": d.name,
        "language": d.language,
        "provider": d.provider,
        "endpoint": d.endpoint,
        "documentation": d.documentation,
        "categories": [{"term": str(term), "lang": lang} for term, lang in d.category_terms],
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
