"""`polyfind serve` with timing spans around the public functions of each module.

    python3 bench/traced_serve.py SPANS.json --config CONFIG.json

wraps the functions below where their callers look them up, runs
`polyfind.cli.main(["serve", ...])` until SIGTERM, then writes every span
to SPANS.json. A span is [name, start, end, parent index, request seq,
extra]; the request seq comes from the X-Bench-Seq header the benchmark
client sends, so spans can be joined to the client's latencies. Calls of
textutil.normalize_text are only counted, per request, because a single
discover can make thousands of them.

layer_metrics() turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# span name -> [(module, attribute)], each the place a caller looks the name up
WRAPPED = {
    "state.load_snapshot": [("state", "load_snapshot")],
    "state.atomic_write_bytes": [("state", "atomic_write_bytes")],
    "state.bind_service": [("state", "AppState.bind_service")],
    "discovery.discover": [("state", "discover")],
    "discovery.response_to_dict": [("httpserver", "response_to_dict")],
    "langdetect.detect": [("discovery", "detect")],
    "langdetect.load_profiles": [("state", "load_profiles")],
    "mapping.match_keywords": [("discovery", "match_keywords")],
    "mapping.translate": [("discovery", "translate")],
    "ontology.lookup_label_kinds": [("mapping", "lookup_label_kinds")],
    "ontology.links_from": [("mapping", "links_from")],
    "ontology.add_alignment": [("ontology", "add_alignment")],
    "ontology.set_portion": [("ontology", "set_portion")],
    "ontology.load_portion": [("ontology", "load_portion"), ("httpserver", "load_portion")],
    "ontology.validate_portion": [("ontology", "validate_portion")],
    "registry.find": [("registry", "find")],
    "registry.publish": [("registry", "publish")],
    "registry.remove": [("registry", "remove")],
    "registry.bind": [("registry", "bind")],
    "registry.registry_from_descriptors": [("registry", "registry_from_descriptors")],
    "descriptor.parse_descriptor": [("state", "parse_descriptor")],
}
# Modules that imported normalize_text by name; textutil itself covers split_words.
NORMALIZE_USERS = ("textutil", "ontology", "mapping", "registry", "langdetect")
# Extra value kept with a span, computed after the span has ended: bytes
# written; postings entries find walked (every language's, on each call).
EXTRA = {
    "state.atomic_write_bytes": lambda args, result: len(args[1]),
    "registry.find": lambda args, result: sum(
        len(args[0].postings.get(token, ())) for token in set(args[1])),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.normalize_calls = [0]
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, fn, handler: bool = False):
        """Wrap fn so that each call records a span. A handler span takes its
        request seq from the X-Bench-Seq header, passes it to the spans below
        it, and keeps the normalize_text calls made while it ran (the client
        sends one request at a time)."""
        extra = EXTRA.get(name)
        local = self._local
        spans, lock, calls = self.spans, self._lock, self.normalize_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if handler:
                seq = args[0].headers.get("X-Bench-Seq")
                local.seq = int(seq) if seq else None
                calls_before = calls[0]
            record = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                      getattr(local, "seq", None), None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if handler:
                    local.seq = None
                    record[5] = calls[0] - calls_before
            if extra is not None:
                record[5] = extra(args, result)
            return result

        return wrapper

    def counted(self, fn):
        calls = self.normalize_calls

        @functools.wraps(fn)
        def wrapper(text):
            calls[0] += 1
            return fn(text)

        return wrapper


def install(tracer: Tracer) -> None:
    import importlib

    modules = {}

    def module(name):
        if name not in modules:
            modules[name] = importlib.import_module(f"polyfind.{name}")
        return modules[name]

    for name, places in WRAPPED.items():
        for mod, attr in places:
            owner = module(mod)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            setattr(owner, attr, tracer.span(name, getattr(owner, attr)))
    handler = module("httpserver").ApiHandler
    for _, _, attr in handler.ROUTES:
        setattr(handler, attr, tracer.span(f"httpserver.{attr}", getattr(handler, attr), True))
    # The response starts going out at end_headers. Handler time ends there:
    # the end of a handler span can be held back by the next request's thread
    # taking the interpreter lock after the response was already sent.
    handler.end_headers = tracer.span("httpserver.end_headers", handler.end_headers)
    counted = tracer.counted(module("textutil").normalize_text)
    for mod in NORMALIZE_USERS:
        setattr(module(mod), "normalize_text", counted)


def main(argv: list[str]) -> int:
    spans_path, rest = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from polyfind import cli

    code = cli.main(["serve", *rest])
    spans_path.write_text(json.dumps({"spans": tracer.spans}))
    return code


# --- analysis ---


def layer_metrics(doc: dict, runner) -> dict:
    """Per-layer metrics from the spans of one traced run.

    `runner` supplies the client's side: the seq, operation and latency of
    every timed request, and the result count of each distinct query.
    """
    # A request answered just before SIGTERM may not have closed its span;
    # such requests are the benchmark's own checks, never timed operations.
    spans = [s if s[2] is not None else ["", 0.0, 0.0, -1, None, None] for s in doc["spans"]]
    timed = runner.timed_ops  # seq -> (op, seconds)
    by_op: dict[str, set[int]] = defaultdict(set)
    for seq, (op, _) in timed.items():
        by_op[op].add(seq)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def where(name, ops=None, startup=False):
        """Indices of spans called `name`, inside timed requests of `ops`
        (any timed request when None), or during start-up."""
        out = []
        for i, s in enumerate(spans):
            if s[0] != name:
                continue
            seq = s[4]
            if startup:
                if seq is None:
                    out.append(i)
            elif seq in timed and (ops is None or timed[seq][0] in ops):
                out.append(i)
        return out

    def median_ms(indices):
        return statistics.median(dur(i) for i in indices) * 1000.0 if indices else 0.0

    def total_s(indices):
        return sum(dur(i) for i in indices)

    def per(count, op):
        return count / len(by_op[op]) if by_op[op] else 0.0

    handlers = {s[4]: i for i, s in enumerate(spans)
                if s[0].startswith("httpserver.handle_") and s[4] in timed}
    # Handler time: from entering handle_* until the response headers go out.
    handler_s = {}
    for seq, i in handlers.items():
        sends = [c for c in children[i] if spans[c][0] == "httpserver.end_headers"]
        handler_s[seq] = (spans[sends[0]][1] if sends else spans[i][2]) - spans[i][1]
    discovers = where("discovery.discover", {"discover"})
    binds = where("state.bind_service", {"bind"})
    finds = where("registry.find", {"discover"})
    values = {
        "httpserver.handler_ms": statistics.median(handler_s.values()) * 1000.0,
        "httpserver.transport_ms": statistics.median(
            timed[seq][1] - handler_s[seq] for seq in handlers) * 1000.0,
        "state.load_snapshot_s": total_s(where("state.load_snapshot", startup=True)),
        "state.atomic_write_ms": median_ms(where("state.atomic_write_bytes")),
        "state.atomic_writes_per_publish": per(
            len(where("state.atomic_write_bytes", {"publish"})), "publish"),
        "state.bytes_written_per_put_portion": per(
            sum(spans[i][5] for i in where("state.atomic_write_bytes", {"put"})), "put"),
        "state.bind_journal_ms": statistics.median(
            dur(i) - sum(dur(c) for c in children[i] if spans[c][0] == "registry.bind")
            for i in binds) * 1000.0,
        "discovery.discover_ms": median_ms(discovers),
        "discovery.self_ms": statistics.median(
            dur(i) - sum(dur(c) for c in children[i]) for i in discovers) * 1000.0,
        "discovery.response_to_dict_ms": median_ms(where("discovery.response_to_dict")),
        "discovery.results_per_query": statistics.mean(runner.results_seen.values()),
        "langdetect.detect_ms": median_ms(where("langdetect.detect")),
        "langdetect.load_profiles_s": total_s(where("langdetect.load_profiles", startup=True)),
        "mapping.match_keywords_ms": median_ms(where("mapping.match_keywords")),
        "mapping.translate_ms": median_ms(where("mapping.translate")),
        "mapping.translate_calls_per_query": per(len(where("mapping.translate")), "discover"),
        "ontology.lookup_label_kinds_ms": median_ms(where("ontology.lookup_label_kinds")),
        "ontology.lookup_calls_per_query": per(
            len(where("ontology.lookup_label_kinds", {"discover"})), "discover"),
        "ontology.links_from_calls_per_query": per(
            len(where("ontology.links_from", {"discover"})), "discover"),
        "ontology.add_alignment_s": total_s(where("ontology.add_alignment", startup=True)),
        "ontology.set_portion_ms": median_ms(where("ontology.set_portion", {"put"})),
        "ontology.load_portion_ms": median_ms(where("ontology.load_portion", {"put"})),
        "ontology.validate_portion_ms": median_ms(where("ontology.validate_portion", {"put"})),
        "registry.find_ms": median_ms(finds),
        "registry.find_calls_per_query": per(len(finds), "discover"),
        "registry.candidates_per_result": sum(spans[i][5] for i in finds) / max(
            1, sum(runner.results_count[seq] for seq in by_op["discover"])),
        "registry.publish_ms": median_ms(where("registry.publish", {"publish"})),
        "registry.remove_ms": median_ms(where("registry.remove", {"remove"})),
        "registry.from_descriptors_s": total_s(
            where("registry.registry_from_descriptors", startup=True)),
        "descriptor.parse_ms": median_ms(where("descriptor.parse_descriptor", {"publish"})),
        "textutil.normalize_calls_per_query": per(
            sum(spans[i][5] for seq, i in handlers.items() if seq in by_op["discover"]),
            "discover"),
    }
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
