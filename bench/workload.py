"""Seeded workload generation for the polyfind HTTP benchmark.

Everything the server receives is derived here from (workload spec, seed):
the ontology portions, the alignment links, the published descriptors, the
query pool and the per-run stream of publishes and curator edits. The same
spec and seed always give the same bytes.

The generator also keeps what it generated in a form the oracle can use
without asking the server: per-service field token counts, the alignment
confidences, and which service was planted for which (term, language).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

LANGS = ("ar", "en", "fr")
DOMAIN = "bench"
FIELDS = ("name", "operation", "documentation")
# Largest share of a language's services that may hold a keyword-query word.
KEYWORD_MAX_DF = 0.03

# Pseudo-words are built from syllables typical of each language, so that
# undeclared English and French queries are usually, though not always,
# detected correctly by the trigram profiles.
_SYLLABLES = {
    "en": (
        ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "w",
         "th", "sh", "st", "br", "cr", "gr", "tr", "wh", "bl", "sl"),
        ("a", "e", "i", "o", "u", "ea", "oo", "ai", "ow", "ee", "oa"),
        ("", "n", "nd", "ng", "st", "ck", "ll", "rt", "t", "ght", "th", "sh", "w"),
        ("", "", "ing", "er", "ly", "ness", "ed", "s", "ful", "th"),
    ),
    "fr": (
        ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
         "ch", "qu", "gr", "pr", "tr", "br", "j"),
        ("a", "e", "i", "o", "u", "ou", "ai", "eau", "é", "è", "oi", "eu", "au", "ie"),
        ("", "", "n", "r", "s", "x", "nt", "ll", "qu", "rr"),
        ("", "", "ment", "tion", "eur", "ique", "ette", "ée", "oire", "eux", "es", "ais"),
    ),
}
# Arabic base letters without tatweel (U+0640) or any diacritic, so every
# generated word is already in normal form.
_ARABIC = [chr(c) for c in (*range(0x0628, 0x063B), *range(0x0641, 0x064B))]


@dataclass(frozen=True)
class Spec:
    name: str
    terms: int  # terms per language portion
    linked: int  # terms carrying an ar-en and an en-fr link; queries use these
    queryable: int  # linked terms that appear in queries; each gets planted services
    fillers: int  # services besides the planted ones
    vocab: int  # filler words per language (service names, documentation)
    query_terms: tuple[int, int]  # terms per term query, min and max
    keyword_words: tuple[int, int]  # words per direct-keyword query, min and max
    keepalive: bool  # one persistent connection, or Connection: close per request
    setups: int  # timed server starts per run; setup_s is their median
    round: tuple[str, ...]  # the operations of one round, in order
    pool: int  # distinct queries per query kind
    tail_pct: float  # the percentile reported as discover_tail_ms


# Operation tokens: d:<lang> is a term query in that language, d:<lang>+ the
# same with the language declared, d:kw a direct-keyword query (d:kw+
# declared). bind binds the top result of the preceding discover, or the
# service just published. pub publishes, rm removes the last published
# service, put uploads one portion with one curator edit.
WORKLOADS: dict[str, Spec] = {
    "agent-keepalive": Spec(
        name="agent-keepalive",
        terms=200,
        linked=200,
        queryable=60,
        fillers=220,
        vocab=400,
        query_terms=(1, 2),
        keyword_words=(1, 2),
        keepalive=True,
        setups=5,
        round=(
            "d:ar", "bind", "d:en+", "d:fr", "d:kw", "d:en", "bind", "d:fr+",
            "d:ar", "d:kw+", "d:en+", "pub", "bind", "rm", "d:fr", "bind",
            "d:en", "put", "d:ar", "d:fr+", "put", "d:kw", "d:fr",
        ),
        pool=48,
        tail_pct=95.0,
    ),
    "wide-ontology": Spec(
        name="wide-ontology",
        terms=2000,
        linked=600,
        queryable=100,
        fillers=60,
        vocab=300,
        query_terms=(3, 4),
        keyword_words=(3, 5),
        keepalive=False,
        setups=5,
        round=(
            "d:en", "d:fr", "pub", "bind", "rm", "d:ar", "pub", "bind", "rm", "d:kw",
            "d:en", "bind", "d:fr", "pub", "bind", "rm", "d:en+", "d:ar", "pub",
            "bind", "rm", "d:fr", "put",
        ),
        pool=48,
        tail_pct=90.0,
    ),
    "provider-churn": Spec(
        name="provider-churn",
        terms=100,
        linked=100,
        queryable=40,
        fillers=3000,
        vocab=1000,
        query_terms=(1, 2),
        keyword_words=(1, 2),
        keepalive=False,
        setups=5,
        round=(
            "pub", "bind", "rm", "d:kw", "pub", "bind", "rm", "d:en+",
            "pub", "bind", "rm", "d:kw", "d:ar", "bind", "d:fr", "put",
        ),
        pool=48,
        tail_pct=95.0,
    ),
}

SMOKE = {
    name: replace(
        spec,
        terms=30,
        linked=24,
        queryable=12,
        fillers=30,
        vocab=60,
        setups=1,
        pool=4,
    )
    for name, spec in WORKLOADS.items()
}


# --- words ---


class Words:
    """Unique pseudo-words; no word is ever handed out twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _make(self, lang: str) -> str:
        rng = self.rng
        if lang == "ar":
            return "".join(rng.choice(_ARABIC) for _ in range(rng.randint(3, 6)))
        onsets, nuclei, codas, suffixes = _SYLLABLES[lang]
        parts = []
        for _ in range(rng.randint(1, 2)):
            parts += [rng.choice(onsets), rng.choice(nuclei), rng.choice(codas)]
        parts.append(rng.choice(suffixes))
        return "".join(parts)

    def take(self, lang: str) -> str:
        while True:
            word = self._make(lang)
            if len(word) >= 3 and word not in self.used:
                self.used.add(word)
                return word


# --- generated model ---


@dataclass
class Service:
    service_id: str
    language: str
    name: str
    provider: str
    endpoint: str
    documentation: str
    operations: list[tuple[str, str]]  # (operation name, documentation)
    fields: dict[str, Counter]  # field -> token -> term frequency

    @property
    def tokens(self) -> set[str]:
        """Every token the service holds, in any field."""
        if not hasattr(self, "_tokens"):
            self._tokens = set().union(*self.fields.values())
        return self._tokens

    def to_dict(self) -> dict:
        """The descriptor as GET /services/{id} is documented to return it."""
        return {
            "service_id": self.service_id,
            "name": self.name,
            "language": self.language,
            "provider": self.provider,
            "endpoint": self.endpoint,
            "documentation": self.documentation,
            "categories": [],
            "operations": [
                {"name": name, "documentation": doc, "inputs": [], "output": "string"}
                for name, doc in self.operations
            ],
        }


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _xml_attr(value: str) -> str:
    return _xml_text(value).replace('"', "&quot;")


def descriptor_xml(svc: Service) -> bytes:
    lines = [
        f'<service xml:lang="{svc.language}" name="{_xml_attr(svc.name)}"'
        f' provider="{_xml_attr(svc.provider)}" endpoint="{_xml_attr(svc.endpoint)}">',
        f"  <documentation>{_xml_text(svc.documentation)}</documentation>",
    ]
    for name, doc in svc.operations:
        lines += [
            f'  <operation name="{_xml_attr(name)}">',
            f"    <documentation>{_xml_text(doc)}</documentation>",
            '    <output type="string"/>',
            "  </operation>",
        ]
    lines += ["</service>", ""]
    return "\n".join(lines).encode("utf-8")


@dataclass(frozen=True)
class QuerySpec:
    kind: str  # term | kw
    language: str  # the language the words were taken from
    declared: bool
    text: str
    terms: tuple[str, ...]  # term locals, for term queries


@dataclass
class Generated:
    spec: Spec
    seed: int
    portions: dict[str, dict]  # lang -> portion document
    labels: dict[tuple[str, str], tuple[str, ...]]  # (local, lang) -> labels
    links: dict[tuple[tuple[str, str], tuple[str, str]], tuple[str, float]]
    services: dict[str, Service]  # base services by id
    planted: dict[tuple[str, str], str]  # (local, lang) -> service id
    filler_words: dict[str, list[str]]
    queries: dict[str, list[QuerySpec]]  # op token -> pool
    words: Words = field(repr=False)


_ZIPF_CUM: dict[int, list[float]] = {}


def _zipf_choices(rng: random.Random, words: list[str], k: int) -> list[str]:
    cum = _ZIPF_CUM.get(len(words))
    if cum is None:
        cum = _ZIPF_CUM[len(words)] = list(accumulate(1.0 / r for r in range(1, len(words) + 1)))
    return rng.choices(words, cum_weights=cum, k=k)


def make_service(
    rng: random.Random,
    sid: str,
    lang: str,
    vocab: list[str],
    name_words: list[str] | None = None,
) -> Service:
    if name_words is None:
        name_words = rng.sample(vocab, 2)
    doc_words = _zipf_choices(rng, vocab, rng.randint(5, 12))
    operations = []
    op_tokens: list[str] = []
    op_doc_tokens: list[str] = []
    seen_ops: set[str] = set()
    for _ in range(rng.randint(1, 2)):
        op_words = rng.sample(vocab, 2)
        op_name = "_".join(op_words)
        if op_name in seen_ops:
            continue
        seen_ops.add(op_name)
        op_doc = _zipf_choices(rng, vocab, rng.randint(3, 6))
        operations.append((op_name, " ".join(op_doc)))
        op_tokens += op_words
        op_doc_tokens += op_doc
    fields = {
        "name": Counter(name_words),
        "operation": Counter(op_tokens),
        "documentation": Counter(doc_words + op_doc_tokens),
    }
    return Service(
        service_id=sid,
        language=lang,
        name=" ".join(name_words),
        provider=f"provider-{sid}",
        endpoint=f"https://{lang}.services.example/{sid}",
        documentation=" ".join(doc_words),
        operations=operations,
        fields=fields,
    )


def _term_local(i: int) -> str:
    return f"t{i:05d}"


def generate(spec: Spec, seed: int) -> Generated:
    rng = random.Random(f"{spec.name}/{seed}")
    words = Words(rng)

    # Tree of broader/narrower relations plus a few related edges, shared by
    # every language so that the portions are translations of each other.
    parents: dict[int, int] = {}
    related: dict[int, int] = {}
    for i in range(1, spec.terms):
        if rng.random() < 0.7:
            parents[i] = rng.randint(max(0, i - 25), i - 1)
        if rng.random() < 0.1:
            other = rng.randrange(spec.terms)
            if other != i:
                related[i] = other
    children: dict[int, list[int]] = {}
    for child, parent in sorted(parents.items()):
        children.setdefault(parent, []).append(child)

    labels: dict[tuple[str, str], tuple[str, ...]] = {}
    portions: dict[str, dict] = {}
    for lang in LANGS:
        terms = []
        for i in range(spec.terms):
            local = _term_local(i)
            n_words = 2 if rng.random() < 0.3 else 1
            preferred = " ".join(words.take(lang) for _ in range(n_words))
            alts = [words.take(lang)] if rng.random() < 0.2 else []
            labels[(local, lang)] = (preferred, *alts)
            relations = []
            if i in parents:
                relations.append({"kind": "broader", "target": f"{DOMAIN}#{_term_local(parents[i])}"})
            for child in children.get(i, []):
                relations.append({"kind": "narrower", "target": f"{DOMAIN}#{_term_local(child)}"})
            if i in related:
                relations.append({"kind": "related", "target": f"{DOMAIN}#{_term_local(related[i])}"})
            terms.append(
                {
                    "id": f"{DOMAIN}#{local}",
                    "preferred_label": preferred,
                    "alt_labels": alts,
                    "definition": None,
                    "relations": relations,
                }
            )
        terms.sort(key=lambda t: t["id"])
        portions[lang] = {"domain": DOMAIN, "language": lang, "version": 1, "terms": terms}

    # Arabic links only to English and English to French, so Arabic <-> French
    # always translates through English as the pivot.
    linked = sorted(rng.sample(range(spec.terms), spec.linked))
    links = {}
    for i in linked:
        local = _term_local(i)
        for a, b in (("ar", "en"), ("en", "fr")):
            relation = "exact" if rng.random() < 0.8 else "close"
            confidence = rng.choice((1.0, 0.95, 0.9, 0.8, 0.75, 0.6))
            links[((local, a), (local, b))] = (relation, confidence)
    queryable = [_term_local(i) for i in sorted(rng.sample(linked, spec.queryable))]

    filler_words = {lang: [words.take(lang) for _ in range(spec.vocab)] for lang in LANGS}

    # Planted services: one per queryable term and registry language, named
    # after the term's preferred label in that language.
    services: dict[str, Service] = {}
    planted: dict[tuple[str, str], str] = {}
    seq = 0
    for local in queryable:
        for lang in LANGS:
            seq += 1
            sid = f"s-{seq:06d}"
            name_words = labels[(local, lang)][0].split() + [rng.choice(filler_words[lang])]
            services[sid] = make_service(rng, sid, lang, filler_words[lang], name_words)
            planted[(local, lang)] = sid
    for _ in range(spec.fillers):
        seq += 1
        sid = f"s-{seq:06d}"
        lang = rng.choice(LANGS)
        services[sid] = make_service(rng, sid, lang, filler_words[lang])

    # Direct-keyword queries use words some base service holds, so that every
    # query has results and can be followed by a bind. Words held by more than
    # KEYWORD_MAX_DF of the language's services are left out: with them, the
    # cost of the few costliest queries in a pool, and so the tail latency,
    # depended on whether the seed happened to pick one of the top Zipf words.
    label_words = {w for options in labels.values() for label in options for w in label.split()}
    df = Counter(t for s in services.values() for t in s.tokens)
    indexed = {}
    for lang in LANGS:
        own = [s for s in services.values() if s.language == lang]
        cap = max(3, int(KEYWORD_MAX_DF * len(own)))
        held = set().union(*(s.tokens for s in own))
        indexed[lang] = sorted(t for t in held - label_words if df[t] <= cap)
    queries: dict[str, list[QuerySpec]] = {}
    for token in sorted(set(spec.round)):
        if not token.startswith("d:"):
            continue
        kind, declared = token[2:].rstrip("+"), token.endswith("+")
        pool = []
        for _ in range(spec.pool):
            if kind == "kw":
                lang = rng.choice(LANGS)
                k = rng.randint(*spec.keyword_words)
                text = " ".join(rng.sample(indexed[lang], k))
                pool.append(QuerySpec("kw", lang, declared, text, ()))
            else:
                k = rng.randint(*spec.query_terms)
                chosen = tuple(rng.sample(queryable, k))
                parts = []
                for local in chosen:
                    options = labels[(local, kind)]
                    parts.append(options[0] if rng.random() < 0.8 else rng.choice(options))
                pool.append(QuerySpec("term", kind, declared, " ".join(parts), chosen))
        queries[token] = pool

    return Generated(
        spec, seed, portions, labels, links, services, planted, filler_words, queries, words
    )


def alignment_doc(gen: Generated) -> dict:
    out = []
    for ((sl, sg), (tl, tg)), (relation, confidence) in sorted(gen.links.items()):
        out.append(
            {
                "source": {"term": f"{DOMAIN}#{sl}", "lang": sg},
                "target": {"term": f"{DOMAIN}#{tl}", "lang": tg},
                "relation": relation,
                "confidence": confidence,
            }
        )
    return {"links": out}


def write_data_dir(gen: Generated, directory: Path) -> None:
    """Lay out a data directory in the server's on-disk format."""
    (directory / "portions").mkdir(parents=True)
    (directory / "alignments").mkdir()
    (directory / "services").mkdir()
    for lang, doc in gen.portions.items():
        path = directory / "portions" / f"{DOMAIN}.{lang}.json"
        path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", "utf-8")
    (directory / "alignments" / f"{DOMAIN}.json").write_text(
        json.dumps(alignment_doc(gen), ensure_ascii=False, indent=2) + "\n", "utf-8"
    )
    for sid, svc in gen.services.items():
        (directory / "services" / f"{sid}.xml").write_bytes(descriptor_xml(svc))
    (directory / "seq").write_text(f"{len(gen.services)}\n")
