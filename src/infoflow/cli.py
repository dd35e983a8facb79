"""Command-line front end.

Subcommands: translate, compose, analyze, check, export-dot.  Every command
writes machine-readable JSON (or DOT text) to stdout or the ``-o`` path;
human diagnostics go to stderr only.

Exit codes: 0 success, 2 parse or usage error, 3 validation error, 4 rule
rejected the composition, 5 bad query.

Interfaces are named on the command line as ``entity.R`` / ``entity.W``
(explicit) or ``agent#label`` (implicit), matching the DOT node labels.

Importing this module loads only the graph model, the file formats and the
errors, so a program that only loads and queries graphs, or translates and
merges policies through the library, pays for nothing else.  The parser,
built on the first :func:`main` call, loads :mod:`argparse`, and
``policies`` and ``rules``, which own the choices of ``translate`` and
``compose``.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import stat
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TypeVar

from . import serialize
from .errors import SchemaError, UnknownInterfaceError, ValidationError
from .model import Explicit, Implicit, InterfaceId, Mode, component_count, grant, reachable

if TYPE_CHECKING:
    import argparse

_T = TypeVar("_T")


class QueryError(ValueError):
    """A query token is not a well-formed interface name."""


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load(path: str, reader: Callable[[str], _T]) -> _T:
    """The value ``reader`` makes from the text of the file at ``path``;
    every error it raises names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return reader(text)
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _load_json(path: str, reader: Callable[[Any], _T]) -> _T:
    """The value ``reader`` makes from the JSON document in the file at ``path``."""
    return _load(path, lambda text: reader(serialize.decode_json(text)))


def _emit(text: str, output: Optional[str]) -> None:
    """Write ``text`` to stdout or to ``output``.

    A regular or new file is replaced atomically: the text goes to a fresh
    file in the same directory, which then takes the target's name, so a
    failed write leaves the old file whole.  The new file gets the
    permission bits ``open(output, "w")`` would give it.  Devices and pipes
    (``/dev/null``, ``/dev/stdout``) are written in place.  A closed stdout
    is an :class:`OSError`, as a failed write to ``output`` is.
    """
    if output is None:
        if sys.stdout is None:  # file descriptor 1 was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        sys.stdout.write(text)
        return
    target = os.path.realpath(output)
    try:
        info: Optional[os.stat_result] = os.stat(target)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        return
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        # Created the way open(target, "w") creates a file: 0o666 less the umask.
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            if info is not None:
                os.fchmod(fd, stat.S_IMODE(info.st_mode))
            handle.write(text)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _emit_report(command: str, inputs: list[str], outcome: dict[str, Any],
                 output: Optional[str]) -> None:
    """Write a command's machine-readable report: its envelope holds the
    command, its input files, the outcome and an empty diagnostics list.

    A file name byte that is not UTF-8 reads as a lone surrogate, which
    UTF-8 cannot encode; it is written as its JSON escape (``\\udcff``), so
    the report stays UTF-8 and reads back as the same name."""
    report = {"command": command, "inputs": inputs, "outcome": outcome, "diagnostics": []}
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    _emit(text.encode("utf-8", "backslashreplace").decode("utf-8"), output)


def parse_interface_token(token: str) -> InterfaceId:
    """Parse ``entity.R``, ``entity.W`` or ``agent#label``; a name the
    interface constructor refuses is a :class:`QueryError` too."""
    try:
        if "#" in token:
            agent, _, label = token.partition("#")
            return Implicit(agent, label)
        entity, _, mode = token.rpartition(".")
        if mode in Mode._value2member_map_:
            return Explicit(entity, Mode._value2member_map_[mode])
    except ValidationError as exc:
        raise QueryError(f"bad interface token: {exc}") from exc
    raise QueryError(
        f"bad interface token {token!r}: expected entity.R, entity.W or agent#label"
    )


def _cmd_translate(args: argparse.Namespace) -> int:
    from . import policies

    policy = _load_json(args.policy, policies.policy_from_dict)
    cr = policies.policy_to_cr(
        policy, policies.RbacSemantics._value2member_map_[args.rbac_semantics])
    _emit(serialize.dumps(cr), args.output)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    from . import rules

    if len(args.crs) < 2:
        _err("compose needs at least two graph files")
        return 2
    if args.op == "rule" and not args.rule_file:
        _err("compose rule needs --rule RULE_FILE")
        return 2
    if args.op != "rule" and args.rule_file is not None:
        _err(f"compose {args.op} takes no --rule; only compose rule reads a rule file")
        return 2
    crs = [_load(path, serialize.loads) for path in args.crs]
    if args.op != "rule":
        composer = rules._COMPOSERS[rules.Action._value2member_map_[args.op]]
        _emit(serialize.dumps(functools.reduce(composer, crs)), args.output)
        return 0

    rule = _load_json(args.rule_file, rules.rule_from_dict)
    decisions = []
    rejected = False
    acc = crs[0]
    for nxt in crs[1:]:
        decision = rules.apply_rule(rule, acc, nxt)
        decisions.append(
            {
                "action": decision.action_taken.value,
                "evidence": serialize.flows_to_list(decision.evidence),
            }
        )
        if decision.result is None:
            rejected = True
            break
        acc = decision.result
    # The decision report always goes to stdout; -o receives the graph.
    _emit_report(
        "compose",
        list(args.crs) + [args.rule_file],
        {
            "op": "rule",
            "decisions": decisions,
            "rejected": rejected,
            "result": None if rejected else serialize.cr_to_dict(acc),
        },
        None,
    )
    if rejected:
        return 4
    if args.output is not None:
        _emit(serialize.dumps(acc), args.output)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import analyze

    a = _load(args.a, serialize.loads)
    b = _load(args.b, serialize.loads)
    found = analyze.conflicts(a, b)
    _emit_report(
        "analyze",
        [args.a, args.b],
        {
            "conflicting": bool(found),
            "conflicts": serialize.flows_to_list(found),
            "common_flows": serialize.flows_to_list(analyze.common_flows(a, b)),
            "diffs": serialize.flows_to_list(analyze.diffs(a, b)),
        },
        args.output,
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    cr = _load(args.cr, serialize.loads)
    results: list[dict[str, Any]] = []
    for src_tok, dst_tok in args.grant or []:
        outcome = grant(parse_interface_token(src_tok), parse_interface_token(dst_tok), cr)
        results.append(
            {"query": "grant", "from": src_tok, "to": dst_tok, "result": outcome.value}
        )
    for src_tok, dst_tok in args.reachable or []:
        found = reachable(cr, parse_interface_token(src_tok), parse_interface_token(dst_tok))
        results.append(
            {"query": "reachable", "from": src_tok, "to": dst_tok, "result": found}
        )
    if args.lively:
        components = component_count(cr)
        results.append(
            {"query": "lively", "result": components == 1, "components": components}
        )
    _emit_report("check", [args.cr], {"results": results}, args.output)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _emit(serialize.to_dot(_load(args.cr, serialize.loads)), args.output)
    return 0


def _add_output(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("-o", "--output", metavar="PATH", help=f"write {what} here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; nothing may modify it.  argparse reads an argument's
    choices when it is added, so building the parser imports ``policies``
    and ``rules``, which own the choices of ``translate`` and ``compose``;
    importing this module does not, nor does it import :mod:`argparse`."""
    import argparse

    from .policies import RbacSemantics
    from .rules import _COMPOSERS

    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Translate, compose, analyze and query information-flow graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate", help="translate a policy file into a flow graph")
    translate.add_argument("policy", help="policy JSON file (kind: acl, capabilities, lbac, rbac)")
    translate.add_argument(
        "--rbac-semantics",
        choices=[s.value for s in RbacSemantics],
        default=RbacSemantics.LITERAL.value,
        help="flow derivation for role policies (default: literal)",
    )
    _add_output(translate, "the graph")
    translate.set_defaults(handler=_cmd_translate)

    composec = sub.add_parser("compose", help="fold two or more graphs left to right")
    composec.add_argument("op", choices=[*(action.value for action in _COMPOSERS), "rule"])
    composec.add_argument("crs", nargs="+", metavar="CR", help="graph JSON files, in order")
    composec.add_argument("--rule", dest="rule_file", metavar="RULE",
                          help="rule JSON file (the rule op only, which requires it)")
    _add_output(composec, "the composed graph (rule op: report stays on stdout)")
    composec.set_defaults(handler=_cmd_compose)

    analyzec = sub.add_parser("analyze", help="conflict and difference report for two graphs")
    analyzec.add_argument("a", metavar="A")
    analyzec.add_argument("b", metavar="B")
    _add_output(analyzec, "the report")
    analyzec.set_defaults(handler=_cmd_analyze)

    check = sub.add_parser("check", help="run grant/reachability/liveliness queries")
    check.add_argument("cr", metavar="CR")
    check.add_argument("--grant", nargs=2, action="append", metavar=("FROM", "TO"),
                       help="tri-state access check")
    check.add_argument("--reachable", nargs=2, action="append", metavar=("FROM", "TO"),
                       help="directed-walk existence check")
    check.add_argument("--lively", action="store_true",
                       help="report whether the availability graph is one component")
    _add_output(check, "the report")
    check.set_defaults(handler=_cmd_check)

    export = sub.add_parser("export-dot", help="render a graph as DOT text")
    export.add_argument("cr", metavar="CR")
    _add_output(export, "the DOT text")
    export.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except SchemaError as exc:
        _err(str(exc))
        return 2
    except ValidationError as exc:
        _err(str(exc))
        return 3
    except (QueryError, UnknownInterfaceError) as exc:
        _err(str(exc))
        return 5
    except OSError as exc:
        _err(str(exc))
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
