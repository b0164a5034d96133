#!/usr/bin/env python
"""Documentation checker: links resolve, snippets run, examples run.

Six phases, each selectable (all run by default):

- ``--links``: every relative markdown link in the repo's ``*.md`` files
  must point at an existing file/directory (anchors and external URLs
  are ignored).
- ``--snippets``: every ```` ```python ```` block in README.md and
  ARCHITECTURE.md is executed; blocks within one file share a namespace
  and run in order, so later blocks may use names an earlier one
  defined.  Blocks containing a literal ``...`` placeholder, or
  preceded by an ``<!-- no-run -->`` comment, are compile-checked but
  not executed.  Execution happens in a scratch directory so snippets
  may write files.
- ``--examples``: every ``examples/*.py`` script must exit 0.
- ``--cli-flags``: every ``python -m repro <cmd> ...`` command quoted in
  the repo's markdown (fenced blocks and inline code spans) must name a
  real subcommand, and every ``--flag`` it passes must appear in that
  subcommand's ``--help``; and every inline code span of the user-facing
  docs that starts with ``--`` must name only flags that some ``repro``
  subcommand, ``perf/run.py`` or ``tools/check_docs.py`` lists in its
  ``--help``.  Catches docs drifting from the argparse surface.
- ``--kwargs``: every ``SmockRuntime(name=...)``, ``.add_service(...)``,
  ``build_mail_testbed(...)``, ``Simulator(...)``, ``RuntimeTransport(...)``,
  ``ChaosCaseConfig(...)``, ``run_load_cell(...)``,
  ``.enable_self_healing(...)``, ``Planner(...)``, ``TelemetrySampler(...)``
  or ``LeaseConfig(...)`` call quoted in the user-facing docs must only
  pass keywords the real signature has.  Catches docs drifting from the
  constructor surface.  CHANGES.md is history and is not scanned.
- ``--symbols``: every `` `path/file.py:Dotted.name` `` pointer quoted in
  the user-facing docs must name a file in the repo whose path ends
  with ``path/file.py`` and, in it, a module-level definition (or, for
  each further dotted part, a class-level one).  Resolved with ``ast``,
  without importing ``repro``.  Catches docs naming a function, class
  or method that was renamed, moved or deleted.

Stdlib only; exit status is the number of failing checks.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent
SNIPPET_FILES = ("README.md", "ARCHITECTURE.md")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules", ".benchmarks"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(
    r"(?P<prefix>(?:<!--\s*no-run\s*-->\s*\n)?)```python\n(?P<body>.*?)```",
    re.DOTALL,
)


def iter_markdown_files() -> List[Path]:
    files = []
    for path in sorted(REPO.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        files.append(path)
    return files


def check_links() -> List[str]:
    failures = []
    for md in iter_markdown_files():
        text = md.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if "/" not in target and "." not in target:
                # Bare word: almost certainly prose that happens to look
                # like a link (e.g. "ViewMailServer[TL=3](san)" in the
                # Figure-6 chain notation), not a file reference.
                continue
            resolved = (md.parent / target).resolve()
            if not resolved.exists():
                failures.append(
                    f"{md.relative_to(REPO)}: broken link -> {match.group(1)}"
                )
    return failures


def extract_snippets(md: Path) -> List[Tuple[int, str, bool]]:
    """``(line_number, code, runnable)`` per python fence, in order."""
    text = md.read_text(encoding="utf-8")
    snippets = []
    for match in FENCE_RE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        body = match.group("body")
        runnable = not match.group("prefix") and "..." not in body
        snippets.append((line, body, runnable))
    return snippets


def check_snippets() -> List[str]:
    failures = []
    for name in SNIPPET_FILES:
        md = REPO / name
        if not md.exists():
            failures.append(f"{name}: file missing")
            continue
        namespace: dict = {"__name__": f"snippet:{name}"}
        with tempfile.TemporaryDirectory(prefix="docs-snippets-") as scratch:
            cwd = os.getcwd()
            os.chdir(scratch)
            try:
                for line, code, runnable in extract_snippets(md):
                    label = f"{name}:{line}"
                    try:
                        compiled = compile(code, label, "exec")
                    except SyntaxError as exc:
                        failures.append(f"{label}: does not parse: {exc}")
                        continue
                    if not runnable:
                        continue
                    try:
                        exec(compiled, namespace)
                    except Exception as exc:  # noqa: BLE001 - report, don't crash
                        failures.append(
                            f"{label}: raised {type(exc).__name__}: {exc}"
                        )
            finally:
                os.chdir(cwd)
    return failures


def check_examples() -> List[str]:
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for script in sorted((REPO / "examples").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            failures.append(
                f"examples/{script.name}: exit {proc.returncode}\n    {tail}"
            )
    return failures


FLAG_RE = re.compile(r"--[a-zA-Z][\w-]*")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
ANY_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

#: the repo's other command lines whose flags the docs quote bare
OTHER_CLIS = (("perf/run.py",), ("tools/check_docs.py",))

_help_cache: dict = {}


def _help(*argv: str) -> Tuple[int, str]:
    """``(exit_status, combined output)`` of ``python <argv> --help``."""
    if argv not in _help_cache:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, *argv, "--help"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        _help_cache[argv] = (proc.returncode, proc.stdout + proc.stderr)
    return _help_cache[argv]


def _known_flags(failures: List[str]) -> set:
    """Every flag some ``repro`` subcommand or :data:`OTHER_CLIS` lists.

    A ``--help`` that exits non-zero, or a ``repro`` usage line without
    its ``{...}`` subcommand set, is appended to *failures* rather than
    parsed.
    """
    status, usage = _help("-m", "repro")
    choices = re.search(r"\{([\w,-]+)\}", usage) if status == 0 else None
    if choices is None:
        failures.append(
            f"-m repro --help: exited {status}" if status else "-m repro --help: lists no subcommands"
        )
        return set()
    argvs = [("-m", "repro", sub) for sub in choices.group(1).split(",")]
    helps = []
    for argv in argvs + list(OTHER_CLIS):
        status, text = _help(*argv)
        if status != 0:
            failures.append(f"{' '.join(argv)} --help: exited {status}")
        else:
            helps.append(text)
    return set(FLAG_RE.findall("\n".join(helps)))


def _code_spans(text: str) -> List[Tuple[int, str]]:
    """``(line_number, body)`` of each inline code span outside fences."""
    fences = [(m.start(), m.end()) for m in ANY_FENCE_RE.finditer(text)]
    return [
        (text[: m.start()].count("\n") + 1, m.group(1))
        for m in CODE_SPAN_RE.finditer(text)
        if not any(lo <= m.start() < hi for lo, hi in fences)
    ]


def iter_cli_commands(md: Path) -> List[Tuple[int, str]]:
    """``(line_number, command_text)`` for each ``-m repro`` invocation.

    Looks inside fenced blocks of any language and inline code spans;
    backslash continuations inside a fence are joined into one command.
    """
    text = md.read_text(encoding="utf-8")
    commands = []

    def add(line: int, chunk: str) -> None:
        if "-m repro" in chunk:
            commands.append((line, chunk))

    for match in ANY_FENCE_RE.finditer(text):
        body = match.group(1)
        base_line = text[: match.start()].count("\n") + 2
        joined: List[str] = []
        start_line = base_line
        for offset, raw in enumerate(body.splitlines()):
            if not joined:
                start_line = base_line + offset
            joined.append(raw.rstrip("\\").strip())
            if raw.rstrip().endswith("\\"):
                continue
            add(start_line, " ".join(joined))
            joined = []
        if joined:
            add(start_line, " ".join(joined))

    for line, span in _code_spans(text):
        add(line, span)
    return commands


def check_cli_flags() -> List[str]:
    failures = []
    import shlex

    for md in iter_markdown_files():
        for line, command in iter_cli_commands(md):
            label = f"{md.relative_to(REPO)}:{line}"
            try:
                tokens = shlex.split(command)
            except ValueError:
                tokens = command.split()
            try:
                after = tokens[tokens.index("repro") + 1 :]
            except (ValueError, IndexError):
                continue
            subcommand = next((t for t in after if not t.startswith("-")), None)
            if subcommand is None or subcommand[0] in "<{[$":
                # Placeholder, e.g. "<cmd>" or a quoted usage line's
                # "{fig5,fig6,...}" choice set — nothing to validate.
                continue
            status, help_text = _help("-m", "repro", subcommand)
            if status != 0:
                failures.append(f"{label}: unknown subcommand '{subcommand}'")
                continue
            known = set(FLAG_RE.findall(help_text))
            for token in after:
                flag = FLAG_RE.match(token)
                if flag and flag.group(0) not in known:
                    failures.append(
                        f"{label}: '{subcommand}' has no flag {flag.group(0)}"
                    )
    known = _known_flags(failures)
    for rel in KWARGS_FILES:
        for line, span in _code_spans((REPO / rel).read_text(encoding="utf-8")):
            if not span.startswith("--"):
                continue
            for flag in FLAG_RE.findall(span):
                if flag not in known:
                    failures.append(f"{rel}:{line}: no command line has flag {flag}")
    return failures


#: the user-facing docs ``--kwargs``, ``--symbols`` and the bare-flag part
#: of ``--cli-flags`` scan
KWARGS_FILES = (
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmarks/README.md",
)
#: callable -> (module, where its ``**kwargs`` are forwarded, if anywhere);
#: a dotted name is a method, matched in the docs as ``<anything>.name(``
KWARGS_CALLABLES = {
    "SmockRuntime": ("repro.smock", None),
    "build_mail_testbed": ("repro.experiments", "SmockRuntime"),
    "Simulator": ("repro.sim", None),
    "RuntimeTransport": ("repro.smock.transport", None),
    "ChaosCaseConfig": ("repro.chaos", None),
    "run_load_cell": ("repro.load", None),
    "SmockRuntime.enable_self_healing": ("repro.smock", None),
    "SmockRuntime.add_service": ("repro.smock", None),
    "Planner": ("repro.planner", None),
    "TelemetrySampler": ("repro.obs.timeseries", None),
    "LeaseConfig": ("repro.smock", None),
}
_BY_DOC_NAME = {name.rsplit(".", 1)[-1]: name for name in KWARGS_CALLABLES}
CALL_RE = re.compile("|".join(
    (r"(?<=\.)(%s)\(" if "." in name else r"(?<![\w.])(%s)\(") % doc_name
    for doc_name, name in _BY_DOC_NAME.items()
))
KWARG_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*=(?!=)")


def _accepted_keywords(name: str) -> set:
    import functools
    import importlib
    import inspect

    module, forwards_to = KWARGS_CALLABLES[name]
    target = functools.reduce(
        getattr, name.split("."), importlib.import_module(module)
    )
    params = inspect.signature(target).parameters
    accepted = {
        p.name for p in params.values()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    if forwards_to and any(p.kind is p.VAR_KEYWORD for p in params.values()):
        accepted |= _accepted_keywords(forwards_to)
    return accepted


def _top_level_args(text: str, start: int) -> List[str]:
    """The comma-separated arguments of the call whose ``(`` ends at
    ``start``; empty when the parenthesis never closes."""
    args, depth, begin = [], 1, start
    for i in range(start, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return args + [text[begin:i]]
        elif ch == "," and depth == 1:
            args.append(text[begin:i])
            begin = i + 1
    return []


def check_kwargs() -> List[str]:
    failures = []
    accepted = {name: _accepted_keywords(name) for name in KWARGS_CALLABLES}
    for rel in KWARGS_FILES:
        text = (REPO / rel).read_text(encoding="utf-8")
        for match in CALL_RE.finditer(text):
            name = _BY_DOC_NAME[match.group(match.lastindex)]
            line = text[: match.start()].count("\n") + 1
            for arg in _top_level_args(text, match.end()):
                keyword = KWARG_RE.match(arg)
                if keyword and keyword.group(1) not in accepted[name]:
                    failures.append(
                        f"{rel}:{line}: {name}() has no keyword "
                        f"'{keyword.group(1)}'"
                    )
    return failures


#: `path/file.py:Dotted.name` at the start of a code span; a line number
#: (`file.py:12`) or a pytest id (`file.py::test_x`) is not a pointer
SYMBOL_RE = re.compile(r"`([\w./-]+\.py):([A-Za-z_][\w.]*)")


def _defined_names(body: List[ast.stmt]) -> dict:
    """name -> defining node, for the defs, classes and assignments
    directly in ``body`` (a module's or a class's)."""
    names: dict = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def _defines(source: Path, dotted: str) -> bool:
    body = ast.parse(source.read_text(encoding="utf-8")).body
    for part in dotted.split("."):
        node = _defined_names(body).get(part)
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return True


def check_symbols() -> List[str]:
    failures = []
    sources = [
        path for path in sorted(REPO.rglob("*.py"))
        if not any(part in SKIP_DIRS for part in path.parts)
    ]
    for rel in KWARGS_FILES:
        text = (REPO / rel).read_text(encoding="utf-8")
        for match in SYMBOL_RE.finditer(text):
            suffix, dotted = match.group(1), match.group(2).rstrip(".")
            line = text[: match.start()].count("\n") + 1
            label = f"{rel}:{line}"
            candidates = [
                path for path in sources
                if ("/" + path.relative_to(REPO).as_posix()).endswith("/" + suffix)
            ]
            if not candidates:
                failures.append(f"{label}: no file ends with '{suffix}'")
            elif not any(_defines(path, dotted) for path in candidates):
                failures.append(
                    f"{label}: '{suffix}' defines no '{dotted}' at module or "
                    f"class level"
                )
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true")
    parser.add_argument("--snippets", action="store_true")
    parser.add_argument("--examples", action="store_true")
    parser.add_argument("--cli-flags", action="store_true")
    parser.add_argument("--kwargs", action="store_true")
    parser.add_argument("--symbols", action="store_true")
    args = parser.parse_args(argv)
    run_all = not (
        args.links or args.snippets or args.examples or args.cli_flags
        or args.kwargs or args.symbols
    )

    sys.path.insert(0, str(REPO / "src"))
    failures: List[str] = []
    if run_all or args.links:
        failures += check_links()
    if run_all or args.snippets:
        failures += check_snippets()
    if run_all or args.examples:
        failures += check_examples()
    if run_all or args.cli_flags:
        failures += check_cli_flags()
    if run_all or args.kwargs:
        failures += check_kwargs()
    if run_all or args.symbols:
        failures += check_symbols()

    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("docs OK")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
