"""Command line entry points: the server, API client commands, and the
file-based ontology editor."""

from __future__ import annotations

import argparse
import json
import signal
import sys
import urllib.error
import urllib.request
from pathlib import Path

from . import ontology as onto
from .config import load_config
from .errors import PolyfindError
from .httpserver import make_server
from .langdetect import detect, load_profiles, packaged_corpora_dir
from .state import atomic_write_bytes
from .textutil import DIGITS_RE

DEFAULT_SERVER = "http://127.0.0.1:8080"


class CliError(Exception):
    pass


def _call(server: str, method: str, path: str, body=None, content_type="application/json"):
    url = server.rstrip("/") + path
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", content_type)
    try:
        with urllib.request.urlopen(request) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except Exception:
            payload = {"error": f"HTTP {exc.code}", "detail": str(exc.reason)}
        raise CliError(f"{payload.get('error')}: {payload.get('detail')}") from exc
    except urllib.error.URLError as exc:
        raise CliError(f"cannot reach server at {server}: {exc.reason}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CliError(f"server at {server} answered with a body that is not UTF-8 JSON") from exc


# --- server ---


def cmd_serve(args) -> int:
    config = load_config(args.config)
    server = make_server(config)
    host, port = server.server_address[0], server.server_address[1]
    print(f"listening on http://{host}:{port}", flush=True)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# --- client commands ---


def cmd_publish(args) -> int:
    document = Path(args.file).read_bytes()
    result = _call(args.server, "POST", "/services", document, content_type="application/xml")
    print(result["service_id"])
    return 0


def _print_results(results: list[dict]) -> None:
    if not results:
        print("no services found")
        return
    print(f"{'rank':<5} {'service':<12} {'score':>10}  {'lang':<4} name")
    for i, entry in enumerate(results, start=1):
        labels = ", ".join(entry.get("requester_language_labels", []))
        suffix = f"  [{labels}]" if labels else ""
        print(
            f"{i:<5} {entry['service_id']:<12} {entry['score']:>10.4f}  "
            f"{entry['language']:<4} {entry['name']}{suffix}"
        )


def cmd_discover(args) -> int:
    body = {
        "text": " ".join(args.keywords),
        "domain": args.domain,
        "requester_id": args.requester,
    }
    if args.lang:
        body["language"] = args.lang
    response = _call(args.server, "POST", "/discover", body)
    results = response["results"]
    _print_results(results)
    selection = args.select
    if selection is None and sys.stdin.isatty() and results:
        raw = input(f"select [1-{len(results)}, empty to skip]: ").strip()
        if not raw:
            return 0
        if not DIGITS_RE.fullmatch(raw):
            raise CliError(f"selection {raw!r} is not a number")
        selection = int(raw)
    if selection is None:
        return 0
    if not 1 <= selection <= len(results):
        raise CliError(f"selection {selection} is out of range 1-{len(results)}")
    chosen = results[selection - 1]["service_id"]
    ticket = _call(
        args.server, "POST", "/bind", {"service_id": chosen, "requester_id": args.requester}
    )
    print(ticket["ticket_id"])
    return 0


def cmd_bind(args) -> int:
    ticket = _call(
        args.server,
        "POST",
        "/bind",
        {"service_id": args.service_id, "requester_id": args.requester},
    )
    print(f"{ticket['ticket_id']} {ticket['endpoint']}")
    return 0


def cmd_detect(args) -> int:
    directory = Path(args.profiles) if args.profiles else packaged_corpora_dir()
    profiles = load_profiles(directory)
    result = detect(args.text, profiles)
    print(f"{result.language} {result.confidence:.3f} {result.method}")
    return 0


# --- ontology editor ---


def _load_portion_file(path: str) -> onto.OntologyPortion:
    return onto.load_portion(Path(path).read_bytes())


def _save_portion_file(path: str, portion: onto.OntologyPortion) -> None:
    atomic_write_bytes(Path(path), onto.save_portion(portion))


def cmd_onto_new(args) -> int:
    target = Path(args.file)
    if target.exists():
        raise CliError(f"{target} already exists")
    _save_portion_file(args.file, onto.create_portion(args.domain, args.lang))
    print(f"created {args.file} ({args.domain}.{args.lang} v1)")
    return 0


def _parse_relation(text: str) -> onto.Relation:
    kind, sep, target = text.partition(":")
    if not sep:
        raise CliError(f"relation {text!r} must look like kind:domain#local")
    return onto.Relation(kind, onto.TermId(target))


def cmd_onto_add_term(args) -> int:
    portion = _load_portion_file(args.file)
    term = onto.Term(
        id=onto.TermId(args.id),
        preferred_label=args.label,
        alt_labels=tuple(args.alt or ()),
        definition=args.definition,
        relations=tuple(_parse_relation(r) for r in (args.relation or ())),
    )
    _save_portion_file(args.file, onto.add_term(portion, term))
    print(f"added {args.id}")
    return 0


def cmd_onto_add_label(args) -> int:
    portion = _load_portion_file(args.file)
    updated = onto.add_label(portion, onto.TermId(args.id), args.label)
    if updated is portion:
        print(f"{args.id} already carries that label")
        return 0
    _save_portion_file(args.file, updated)
    print(f"labeled {args.id}")
    return 0


def _parse_ref(text: str) -> onto.TermRef:
    term, sep, lang = text.partition("@")
    if not sep:
        raise CliError(f"term reference {text!r} must look like domain#local@lang")
    return onto.TermRef(onto.TermId(term), lang)


def cmd_onto_align(args) -> int:
    source = _parse_ref(args.source)
    target = _parse_ref(args.target)
    link = onto.AlignmentLink(source, target, args.relation, args.confidence)
    path = Path(args.file)
    links = onto.load_alignments(path.read_bytes()) if path.exists() else []
    pair = {source, target}
    links = [l for l in links if {l.source, l.target} != pair]
    links.append(link)
    atomic_write_bytes(path, onto.save_alignments(links))
    print(f"aligned {args.source} {args.relation} {args.target} ({args.confidence})")
    return 0


def cmd_onto_validate(args) -> int:
    _load_portion_file(args.file)
    print(f"{args.file}: ok")
    return 0


def cmd_onto_show(args) -> int:
    portion = _load_portion_file(args.file)
    print(f"{portion.domain}.{portion.language} v{portion.version}, {len(portion.terms)} terms")
    for tid in sorted(portion.terms):
        term = portion.terms[tid]
        alts = f" ({', '.join(term.alt_labels)})" if term.alt_labels else ""
        print(f"  {tid}: {term.preferred_label}{alts}")
        for rel in term.relations:
            print(f"    {rel.kind} -> {rel.target}")
    return 0


def cmd_onto_import(args) -> int:
    report = _call(
        args.server,
        "POST",
        "/ontology/import",
        {"repo": args.repo, "domain": args.domain, "language": args.lang},
    )
    before = report["version_before"]
    print(
        f"{report['outcome']}: {report['domain']}.{report['language']} "
        f"v{'-' if before is None else before} -> v{report['version_after']}"
    )
    return 0


# --- argument parsing ---


def _add_server_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", default=DEFAULT_SERVER, help="API base URL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfind", description="multilingual service discovery"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the API server")
    p.add_argument("--config", help="path to the JSON config file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("publish", help="upload a service descriptor")
    p.add_argument("file")
    _add_server_arg(p)
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("discover", help="search for services by keywords")
    p.add_argument("--domain", required=True)
    p.add_argument("--lang", help="declared query language (skips detection)")
    p.add_argument("--select", type=int, help="bind the Nth result without prompting")
    p.add_argument("--requester", default="cli")
    _add_server_arg(p)
    p.add_argument("keywords", nargs="+")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("bind", help="request an access ticket for a service")
    p.add_argument("service_id")
    p.add_argument("--requester", default="cli")
    _add_server_arg(p)
    p.set_defaults(func=cmd_bind)

    p = sub.add_parser("detect", help="identify the language of a text")
    p.add_argument("text")
    p.add_argument("--profiles", help="directory with <lang>.txt corpora or <lang>.json profiles")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("onto", help="ontology file editor and import")
    onto_sub = p.add_subparsers(dest="onto_command", required=True)

    q = onto_sub.add_parser("new", help="create an empty portion file")
    q.add_argument("file")
    q.add_argument("--domain", required=True)
    q.add_argument("--lang", required=True)
    q.set_defaults(func=cmd_onto_new)

    q = onto_sub.add_parser("add-term", help="add a term to a portion file")
    q.add_argument("file")
    q.add_argument("--id", required=True, help="domain#local")
    q.add_argument("--label", required=True, help="preferred label")
    q.add_argument("--alt", action="append", help="alternative label (repeatable)")
    q.add_argument("--definition")
    q.add_argument("--relation", action="append", help="kind:domain#local (repeatable)")
    q.set_defaults(func=cmd_onto_add_term)

    q = onto_sub.add_parser("add-label", help="add an alternative label")
    q.add_argument("file")
    q.add_argument("--id", required=True, help="domain#local")
    q.add_argument("--label", required=True)
    q.set_defaults(func=cmd_onto_add_label)

    q = onto_sub.add_parser("align", help="record a cross-language link in an alignment file")
    q.add_argument("file")
    q.add_argument("--source", required=True, help="domain#local@lang")
    q.add_argument("--target", required=True, help="domain#local@lang")
    q.add_argument("--relation", choices=list(onto.ALIGNMENT_RELATIONS), default="exact")
    q.add_argument("--confidence", type=float, default=1.0)
    q.set_defaults(func=cmd_onto_align)

    q = onto_sub.add_parser("validate", help="check a portion file for structural violations")
    q.add_argument("file")
    q.set_defaults(func=cmd_onto_validate)

    q = onto_sub.add_parser("show", help="print a portion file")
    q.add_argument("file")
    q.set_defaults(func=cmd_onto_show)

    q = onto_sub.add_parser("import", help="ask the server to import a remote portion")
    q.add_argument("--repo", required=True)
    q.add_argument("--domain", required=True)
    q.add_argument("--lang", required=True)
    _add_server_arg(q)
    q.set_defaults(func=cmd_onto_import)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PolyfindError as exc:
        print(f"error: {type(exc).__name__}: {exc.detail}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
