import gc
import time
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfind import descriptor as descriptor_module
from polyfind.descriptor import (
    SIMPLE_TYPES,
    OperationSig,
    ServiceDescriptor,
    descriptor_to_dict,
    parse_descriptor,
    serialize_descriptor,
)
from polyfind.errors import (
    InvalidLanguageTag,
    InvalidType,
    InvariantViolation,
    MalformedXml,
    MissingElement,
    UnsupportedFeature,
)
from polyfind.ontology import TermId

from conftest import DESCRIPTOR_FILES, field_tokens

EN_FIXTURE = DESCRIPTOR_FILES[1]

MINIMAL = """\
<service xml:lang="en" name="Echo" provider="acme" endpoint="https://e/x">
  <documentation>doc</documentation>
  <operation name="echo">
    <documentation></documentation>
    <output type="string"/>
  </operation>
</service>
"""


def minimal(**overrides):
    base = dict(
        name="Echo",
        documentation="doc",
        language="en",
        endpoint="https://e/x",
        provider="acme",
        operations=(OperationSig("echo", "", (), "string"),),
    )
    base.update(overrides)
    return ServiceDescriptor(**base)


class TestParseFixture:
    def test_english_fixture_fields(self):
        d = parse_descriptor(EN_FIXTURE.read_bytes())
        assert d.name == "SquareRootService"
        assert d.language == "en"
        assert d.provider == "Acme Math"
        assert d.endpoint == "https://math.example.com/sqrt"
        assert d.documentation == "Finds the square root of any number."
        assert d.category_terms == ((TermId("math#square_root"), "en"),)
        (op,) = d.operations
        assert op.name == "sqrt"
        assert op.inputs == (("x", "decimal"),)
        assert op.output == "decimal"
        assert d.service_id == ""

    def test_all_fixtures_parse_and_validate(self):
        for path in DESCRIPTOR_FILES:
            descriptor = parse_descriptor(path.read_bytes())
            serialize_descriptor(descriptor)

    def test_bom_and_declaration_accepted(self):
        raw = b"\xef\xbb\xbf<?xml version=\"1.0\"?>\n" + MINIMAL.encode()
        assert parse_descriptor(raw) == parse_descriptor(MINIMAL)

    def test_comments_ignored(self):
        doc = MINIMAL.replace(
            "<operation", "<!-- a comment -->\n  <operation", 1
        )
        assert parse_descriptor("<!-- head -->" + doc) == parse_descriptor(MINIMAL)

    def test_xmlns_ignored(self):
        doc = MINIMAL.replace('<service xml:lang', '<service xmlns="urn:x" xml:lang', 1)
        assert parse_descriptor(doc) == parse_descriptor(MINIMAL)


class TestParseErrors:
    def test_unclosed_tag_reports_position(self):
        doc = (
            '<service xml:lang="en" name="n" provider="p" endpoint="https://e/x">\n'
            "  <documentation>hi</documentation>\n"
            '  <operation name="op">\n'
        )
        with pytest.raises(MalformedXml) as err:
            parse_descriptor(doc)
        assert (err.value.line, err.value.column) == (3, 3)

    def test_mismatched_closing_tag_position(self):
        doc = '<service xml:lang="en" name="n" provider="p" endpoint="https://e/x">\n<documentation>x</documentatoin></service>'
        with pytest.raises(MalformedXml) as err:
            parse_descriptor(doc)
        assert (err.value.line, err.value.column) == (2, 17)

    def test_doctype_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_descriptor("<!DOCTYPE service>" + MINIMAL)

    def test_processing_instruction_rejected(self):
        doc = MINIMAL.replace("<documentation>doc", "<?php x ?><documentation>doc", 1)
        with pytest.raises(UnsupportedFeature):
            parse_descriptor(doc)

    def test_cdata_rejected(self):
        doc = MINIMAL.replace("doc</documentation>", "<![CDATA[doc]]></documentation>", 1)
        with pytest.raises(UnsupportedFeature):
            parse_descriptor(doc)

    def test_foreign_namespace_rejected(self):
        doc = MINIMAL.replace("<operation name=", "<soap:operation name=", 1)
        with pytest.raises(UnsupportedFeature):
            parse_descriptor(doc)

    def test_unknown_entity(self):
        doc = MINIMAL.replace(">doc<", ">d&oops;c<", 1)
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_known_entities_decode(self):
        doc = MINIMAL.replace(">doc<", ">&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;<", 1)
        assert parse_descriptor(doc).documentation == "<a> & \"b\" 'c'"

    def test_missing_output(self):
        doc = MINIMAL.replace('    <output type="string"/>\n', "")
        with pytest.raises(MissingElement):
            parse_descriptor(doc)

    def test_missing_documentation(self):
        doc = MINIMAL.replace("  <documentation>doc</documentation>\n", "")
        with pytest.raises(MissingElement):
            parse_descriptor(doc)

    def test_zero_operations(self):
        doc = (
            '<service xml:lang="en" name="n" provider="p" endpoint="https://e/x">\n'
            "  <documentation>hi</documentation>\n"
            "</service>"
        )
        with pytest.raises(MissingElement):
            parse_descriptor(doc)

    def test_unknown_simple_type(self):
        doc = MINIMAL.replace('type="string"', 'type="float"')
        with pytest.raises(InvalidType):
            parse_descriptor(doc)

    def test_bad_language_tag(self):
        doc = MINIMAL.replace('xml:lang="en"', 'xml:lang="english"')
        with pytest.raises(InvalidLanguageTag):
            parse_descriptor(doc)

    def test_duplicate_operation_names(self):
        op = (
            '  <operation name="echo">\n'
            "    <documentation></documentation>\n"
            '    <output type="string"/>\n'
            "  </operation>\n"
        )
        doc = MINIMAL.replace(op, op + op)
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_duplicate_input_names(self):
        doc = MINIMAL.replace(
            "    <output",
            '    <input name="x" type="string"/>\n'
            '    <input name="x" type="integer"/>\n'
            "    <output",
            1,
        )
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_missing_whitespace_between_attributes(self):
        doc = MINIMAL.replace('xml:lang="en" name=', 'xml:lang="en"name=', 1)
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_duplicate_attribute(self):
        doc = MINIMAL.replace('name="Echo"', 'name="Echo" name="Twice"', 1)
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_relative_endpoint(self):
        for endpoint in ("no-scheme", "http://[x"):  # urlsplit cannot read the second
            doc = MINIMAL.replace('endpoint="https://e/x"', f'endpoint="{endpoint}"')
            with pytest.raises(MalformedXml) as err:
                parse_descriptor(doc)
            assert (err.value.line, err.value.column) == (1, 1)

    def test_empty_name(self):
        doc = MINIMAL.replace('name="Echo"', 'name="  "')
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_content_after_root(self):
        with pytest.raises(MalformedXml):
            parse_descriptor(MINIMAL + "<tail/>")

    def test_control_character_rejected(self):
        with pytest.raises(MalformedXml):
            parse_descriptor(MINIMAL.replace("doc", "d\x00c"))

    def test_invalid_utf8(self):
        with pytest.raises(MalformedXml):
            parse_descriptor(b"<service \xff\xfe>")

    def test_depth_limit(self):
        doc = "<a>" * 40
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)

    def test_unexpected_element(self):
        doc = MINIMAL.replace("</service>", "<pricing/></service>", 1)
        with pytest.raises(MalformedXml):
            parse_descriptor(doc)


BILLION_LAUGHS = (
    '<?xml version="1.0"?>\n<!DOCTYPE service [\n  <!ENTITY lol0 "lol">\n'
    + "".join(f'  <!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">\n' for i in range(1, 10))
    + "]>\n"
    + MINIMAL.replace(">doc<", ">&lol9;<", 1)
)


class TestParserHardening:
    def test_nested_entity_doctype_rejected_quickly(self):
        started = time.perf_counter()
        with pytest.raises(UnsupportedFeature):
            parse_descriptor(BILLION_LAUGHS)
        assert time.perf_counter() - started < 1.0

    def test_text_between_many_children_read_in_linear_time(self):
        # 20,000 children with 200 characters before each: about 4 MB. Were
        # each text piece appended to its parent's text so far, this would
        # copy about 40 GB and take seconds.
        doc = "<service>" + ("x" * 200 + "<a/>") * 20_000 + "</service>"
        started = time.perf_counter()
        with pytest.raises(MissingElement):
            parse_descriptor(doc)
        assert time.perf_counter() - started < 1.0

    def test_external_doctype_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_descriptor('<!DOCTYPE service SYSTEM "file:///etc/passwd">\n' + MINIMAL)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-16-be"])
    def test_utf16_rejected(self, encoding):
        with pytest.raises(MalformedXml):
            parse_descriptor(MINIMAL.encode(encoding))

    def test_declared_latin1_is_still_read_as_utf8(self):
        doc = '<?xml version="1.0" encoding="ISO-8859-1"?>\n' + MINIMAL.replace(">doc<", ">d\xe9c<")
        with pytest.raises(MalformedXml):
            parse_descriptor(doc.encode("latin-1"))

    def test_lone_surrogate_in_str_rejected(self):
        with pytest.raises(MalformedXml):
            parse_descriptor(MINIMAL.replace(">doc<", ">d\ud800c<"))

    def test_character_references(self):
        assert parse_descriptor(MINIMAL.replace(">doc<", ">&#233;&#xe9;<")).documentation == "éé"
        with pytest.raises(MalformedXml):
            parse_descriptor(MINIMAL.replace(">doc<", ">&#1;<"))

    def test_xml_line_end_and_attribute_normalization(self):
        doc = MINIMAL.replace(">doc<", ">a\r\nb\rc<").replace('name="Echo"', 'name="E\tc\nho"')
        parsed = parse_descriptor(doc)
        assert parsed.documentation == "a\nb\nc"
        assert parsed.name == "E c ho"

    def test_parse_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            parse_descriptor(MINIMAL)
            with pytest.raises(MalformedXml):
                parse_descriptor("<service>")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_whitespace_survives_round_trip_as_references(self):
        descriptor = minimal(name="E\tc\r\nho", documentation="a\r\nb\tc")
        data = serialize_descriptor(descriptor)
        assert b'name="E&#9;c&#13;&#10;ho"' in data
        assert b">a&#13;\nb\tc<" in data
        assert parse_descriptor(data) == descriptor


class TestSerialize:
    def test_round_trip_fixture(self):
        for path in DESCRIPTOR_FILES:
            descriptor = parse_descriptor(path.read_bytes())
            assert parse_descriptor(serialize_descriptor(descriptor)) == descriptor

    def test_fixtures_are_canonical(self):
        for path in DESCRIPTOR_FILES:
            raw = path.read_bytes()
            assert serialize_descriptor(parse_descriptor(raw)) == raw

    def test_zero_operations_rejected(self):
        with pytest.raises(InvariantViolation):
            serialize_descriptor(minimal(operations=()))

    def test_angle_bracket_in_name_round_trips(self):
        descriptor = minimal(name="a < b & c")
        data = serialize_descriptor(descriptor)
        assert b"&lt;" in data and b"&amp;" in data
        assert parse_descriptor(data) == descriptor

    def test_validate_catches_duplicate_ops(self):
        op = OperationSig("echo", "", (), "string")
        with pytest.raises(InvariantViolation):
            serialize_descriptor(minimal(operations=(op, op)))

    def test_validate_catches_bad_type(self):
        with pytest.raises(InvariantViolation):
            serialize_descriptor(minimal(operations=(OperationSig("op", "", (), "float"),)))

    def test_validate_catches_control_chars(self):
        with pytest.raises(InvariantViolation):
            serialize_descriptor(minimal(documentation="a\x01b"))
        for not_xml in ("\ufffe", "\uffff", "\ud800"):
            with pytest.raises(InvariantViolation):
                serialize_descriptor(minimal(documentation=f"a{not_xml}b"))

    @pytest.mark.parametrize("overrides", [
        {"name": "  "},
        {"language": "english"},
        {"category_terms": (("a b#c", "en"),)},
        {"endpoint": "http://[x"},
    ], ids=["blank-name", "bad-language", "spaced-term", "unparsable-endpoint"])
    def test_refusal_names_the_parser_error(self, overrides):
        with pytest.raises(InvariantViolation, match="^descriptor cannot be stored: "):
            serialize_descriptor(minimal(**overrides))

    def test_refused_if_read_back_differs(self, monkeypatch):
        parse = descriptor_module.parse_descriptor
        monkeypatch.setattr(
            descriptor_module, "parse_descriptor",
            lambda data: replace(parse(data), documentation="another"),
        )
        with pytest.raises(InvariantViolation, match="reads back as another descriptor"):
            serialize_descriptor(minimal())

    def test_descriptor_to_dict_shape(self):
        doc = descriptor_to_dict(parse_descriptor(EN_FIXTURE.read_bytes()))
        assert doc["name"] == "SquareRootService"
        assert doc["operations"][0]["inputs"] == [{"name": "x", "type": "decimal"}]
        assert doc["categories"] == [{"term": "math#square_root", "lang": "en"}]


class TestTokenize:
    def test_camel_case_name(self):
        tokens = field_tokens(minimal(name="SquareRootService"))
        assert [t for f, t in tokens if f == "name"] == ["square", "root", "service"]

    def test_operation_tokens(self):
        tokens = field_tokens(minimal(operations=(OperationSig("sqrt", "", (), "string"),)))
        assert [t for f, t in tokens if f == "operation"] == ["sqrt"]

    def test_documentation_tokens(self):
        tokens = field_tokens(minimal(documentation="finds the square root."))
        docs = [t for f, t in tokens if f == "documentation"]
        assert docs == ["finds", "the", "square", "root"]

    def test_operation_docs_count_as_documentation(self):
        descriptor = minimal(
            documentation="",
            operations=(OperationSig("op", "square root helper", (), "string"),),
        )
        docs = [t for f, t in field_tokens(descriptor) if f == "documentation"]
        assert docs == ["square", "root", "helper"]

    def test_duplicates_kept(self):
        tokens = field_tokens(minimal(documentation="root root root"))
        assert [pair for pair in tokens if pair == ("documentation", "root")] != []
        assert sum(1 for _, t in tokens if t == "root") == 3


# --- generated round trips ---

_text = st.text(alphabet=list("abc déθر &<>\"'\t\n\r"), max_size=12)
_required = _text.filter(lambda s: s.strip())
_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def descriptors(draw):
    op_names = draw(st.lists(_ident, min_size=1, max_size=3, unique=True))
    operations = []
    for op_name in op_names:
        input_names = draw(st.lists(_ident, max_size=3, unique=True))
        inputs = tuple((n, draw(st.sampled_from(SIMPLE_TYPES))) for n in input_names)
        operations.append(
            OperationSig(op_name, draw(_text), inputs, draw(st.sampled_from(SIMPLE_TYPES)))
        )
    categories = tuple(
        (TermId(f"math#{draw(_ident)}"), draw(st.sampled_from(["ar", "en", "fr"])))
        for _ in range(draw(st.integers(0, 2)))
    )
    return ServiceDescriptor(
        name=draw(_required),
        documentation=draw(_text),
        language=draw(st.sampled_from(["ar", "en", "fr"])),
        endpoint="https://example.com/svc",
        provider=draw(_required),
        operations=tuple(operations),
        category_terms=categories,
    )


_any = st.text(max_size=8)
_any_type = st.sampled_from(SIMPLE_TYPES) | _any
_any_overrides = {
    "name": _any,
    "documentation": _any,
    "language": _any,
    "provider": _any,
    "endpoint": st.sampled_from(["http://[", "http://[x", "e:"]) | _any,
    "category_terms": st.lists(st.tuples(
        st.builds(lambda d, l: f"{d}#{l}", _any | _ident, _any | _ident),
        st.sampled_from(["en"]) | _any,
    ), max_size=2).map(tuple),
    "operations": st.lists(st.builds(
        OperationSig, _any | _ident, _any,
        st.lists(st.tuples(_any | _ident, _any_type), max_size=2).map(tuple), _any_type,
    ), max_size=2).map(tuple),
    "service_id": _any,
}


@st.composite
def any_descriptors(draw):
    """A storable descriptor with up to two fields set to arbitrary values."""
    fields = draw(st.lists(st.sampled_from(sorted(_any_overrides)), max_size=2, unique=True))
    return replace(draw(descriptors()), **{f: draw(_any_overrides[f]) for f in fields})


class TestProperties:
    @given(descriptors())
    def test_parse_serialize_identity(self, descriptor):
        assert parse_descriptor(serialize_descriptor(descriptor)) == descriptor

    @given(descriptors())
    def test_serialization_is_canonical_fixed_point(self, descriptor):
        once = serialize_descriptor(descriptor)
        assert serialize_descriptor(parse_descriptor(once)) == once

    @given(descriptors())
    def test_tokenize_invariant_under_reserialization(self, descriptor):
        reread = parse_descriptor(serialize_descriptor(descriptor))
        assert field_tokens(reread) == field_tokens(descriptor)

    @given(any_descriptors())
    def test_serializer_refuses_or_reads_back_equal(self, descriptor):
        try:
            data = serialize_descriptor(descriptor)
        except InvariantViolation:
            return
        assert parse_descriptor(data) == replace(descriptor, service_id="")

    @given(st.binary(max_size=200))
    def test_fuzz_smoke_never_crashes(self, data):
        try:
            parse_descriptor(data)
        except MalformedXml:
            pass
