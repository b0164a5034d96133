#!/usr/bin/env python
"""Documentation checker: links resolve, snippets run, examples run.

Seven phases, each selectable (all run by default):

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
  ``.enable_self_healing(...)``, ``Planner(...)``, ``TelemetrySampler(...)``,
  ``LeaseConfig(...)``, ``RetryPolicy(...)``, ``run_parallel(...)``,
  ``partition_network(...)``, ``FailureDetector(...)``,
  ``FlightRecorder(...)`` or ``AttributeConflictMap(...)`` call quoted
  in the user-facing docs must only pass keywords the real signature
  has.  Catches docs drifting from the constructor surface, and docs
  still quoting a keyword that became a module constant.  CHANGES.md is
  history and is not scanned.
- ``--symbols``: every `` `path/file.py:Dotted.name` `` pointer quoted in
  the user-facing docs must name a file in the repo whose path ends
  with ``path/file.py`` and, in it, a module-level definition (or, for
  each further dotted part, a class-level one); every code span that is
  a bare `` `path/file.py` `` must name such a file too.  Resolved with
  ``ast``, without importing ``repro``.  Catches docs naming a file,
  function, class or method that was renamed, moved or deleted.
- ``--reach``: every public function, class and method in ``src/`` must
  be reachable from an entry point: the ``repro`` CLI (``cmd_*``
  subcommands and Smock's ``op_*`` operations are reached by dispatch),
  the scripts under ``examples/``, ``benchmarks/``, ``perf/`` and
  ``tools/``, every ``src/`` module body, and any name the docs above
  (or ``.github/workflows/ci.yml``) quote in a code span — a definition
  the docs name is kept on purpose.  Resolved with ``ast`` through
  imports, without importing ``repro``.  Prints each definition only
  tests (or nothing) reach as ``path/file.py:Qualified.name``.

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
    "RetryPolicy": ("repro.smock", None),
    "run_parallel": ("repro.sim.parallel", None),
    "partition_network": ("repro.sim.parallel", None),
    "FailureDetector": ("repro.faults", None),
    "FlightRecorder": ("repro.obs.flight", None),
    "AttributeConflictMap": ("repro.coherence", None),
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
#: a code span that is nothing but a file path
PATH_SPAN_RE = re.compile(r"[\w./-]+\.py")


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
        path.relative_to(REPO) for path in sorted(REPO.rglob("*.py"))
        if not any(part in SKIP_DIRS for part in path.parts)
    ]

    def files(suffix: str) -> List[Path]:
        return [REPO / p for p in sources if ("/" + p.as_posix()).endswith("/" + suffix)]

    for rel in KWARGS_FILES:
        text = (REPO / rel).read_text(encoding="utf-8")
        for match in SYMBOL_RE.finditer(text):
            suffix, dotted = match.group(1), match.group(2).rstrip(".")
            line = text[: match.start()].count("\n") + 1
            label = f"{rel}:{line}"
            candidates = files(suffix)
            if not candidates:
                failures.append(f"{label}: no file ends with '{suffix}'")
            elif not any(_defines(path, dotted) for path in candidates):
                failures.append(
                    f"{label}: '{suffix}' defines no '{dotted}' at module or "
                    f"class level"
                )
        for line, span in _code_spans(text):
            if PATH_SPAN_RE.fullmatch(span) and not files(span):
                failures.append(f"{rel}:{line}: no file ends with '{span}'")
    return failures


#: directories of entry-point scripts: everything in them is reached
REACH_ROOT_DIRS = ("examples", "benchmarks", "perf", "tools")
#: function and method name prefixes reached by ``getattr`` dispatch: the
#: CLI's ``cmd_*`` subcommands and the Smock components' ``op_*`` operations
DISPATCH_PREFIXES = ("cmd_", "op_")
#: non-markdown files each of whose identifiers counts as named by the docs
REACH_DOC_FILES = (".github/workflows/ci.yml",)
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_ATTR_CALLS = ("getattr", "hasattr", "setattr")


class _Def:
    """A function or class at module level, or a method of such a class."""

    def __init__(self, module: str, qualname: str, node: ast.AST, owner=None):
        self.module, self.qualname, self.node, self.owner = module, qualname, node, owner
        self.name = qualname.rsplit(".", 1)[-1]
        self.methods: List["_Def"] = []


class _Source:
    """One parsed file and what each of its names is bound to.

    A binding is a :class:`_Def`, ``("mod", dotted)`` for ``import x``
    or ``("from", dotted, name)`` for ``from x import name``.  Imports
    anywhere in the file count, so function-local imports bind too.
    """

    def __init__(self, module: str, path: Path, package: bool, entry: bool):
        self.module, self.path, self.entry = module, path, entry
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.bindings: dict = {}
        self.defs: List[_Def] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bind(alias.asname, ("mod", alias.name))
                    else:
                        top = alias.name.split(".")[0]
                        self.bind(top, ("mod", top))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = module.split(".")[: None if package else -1]
                    parts = parts[: len(parts) - node.level + 1]
                    base = ".".join(parts + ([base] if base else []))
                for alias in node.names:
                    self.bind(alias.asname or alias.name, ("from", base, alias.name))
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definition = _Def(module, node.name, node)
                self.defs.append(definition)
                self.bind(node.name, definition)
                if isinstance(node, ast.ClassDef):
                    definition.methods = [
                        _Def(module, f"{node.name}.{item.name}", item, definition)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
                    self.defs += definition.methods

    def bind(self, name: str, target) -> None:
        self.bindings.setdefault(name, []).append(target)


class _Reach:
    """Definitions in ``src/`` reachable from the repo's entry points.

    Module-level names resolve through imports, so ``x.name`` reaches a
    module-level ``name`` only when ``x`` is a module.  A method is
    reached when its class is and some reached code reads an attribute
    of its name (or passes the name to ``getattr``/``hasattr``), when it
    is a dunder or dispatch-prefixed, or when its class derives from one
    defined outside ``src/`` (``logging.Formatter.format`` overrides are
    called by the library).  A name the docs quote counts as read.
    """

    def __init__(self, root: Path):
        self.sources: dict = {}
        tops = [(root / "src", False)] + [(root / d, True) for d in REACH_ROOT_DIRS]
        for top, entry in tops:
            for path in sorted(top.rglob("*.py")):
                if any(part in SKIP_DIRS for part in path.parts):
                    continue
                parts = list(path.relative_to(top.parent if entry else top).with_suffix("").parts)
                package = parts[-1] == "__init__"
                module = ".".join(parts[:-1] if package else parts)
                self.sources[module] = _Source(module, path, package, entry)
        self.methods: dict = {}
        for source in self.sources.values():
            for definition in source.defs:
                if definition.owner is not None:
                    self.methods.setdefault(definition.name, []).append(definition)
        self.reached: set = set()
        self.attrs: set = set()
        self.queue: List[_Def] = []
        
        named = _doc_names(root)
        for name in named:
            self._read_attr(name)
        for source in self.sources.values():
            if source.entry:
                self._visit(source, [source.tree])
                continue
            self._visit(source, [
                node for node in source.tree.body
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ])
            for definition in source.defs:
                if definition.owner is None and (
                    definition.name in named
                    or definition.name.startswith(DISPATCH_PREFIXES)
                ):
                    self._reach(definition)
        while self.queue:
            definition = self.queue.pop()
            source = self.sources[definition.module]
            node = definition.node
            if not isinstance(node, ast.ClassDef):
                self._visit(source, [node])
                continue
            self._visit(source, node.decorator_list + node.bases + node.keywords + [
                item for item in node.body
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ])
            overrides = self._external_base(source, node)
            for method in definition.methods:
                if (
                    overrides
                    or method.name in self.attrs
                    or method.name.startswith(DISPATCH_PREFIXES)
                    or (method.name.startswith("__") and method.name.endswith("__"))
                ):
                    self._reach(method)

    def unreached(self) -> List[_Def]:
        """Public ``src/`` definitions no entry point reaches; a method
        only when its class is reached."""
        return [
            definition
            for source in self.sources.values() if not source.entry
            for definition in source.defs
            if definition not in self.reached
            and not any(part.startswith("_") for part in definition.qualname.split("."))
            and (definition.owner is None or definition.owner in self.reached)
        ]

    def _reach(self, definition: _Def) -> None:
        if definition not in self.reached:
            self.reached.add(definition)
            self.queue.append(definition)

    def _read_attr(self, name: str) -> None:
        if name in self.attrs:
            return
        self.attrs.add(name)
        for method in self.methods.get(name, ()):
            if method.owner in self.reached:
                self._reach(method)

    def _visit(self, source: _Source, nodes: list) -> None:
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id in _ATTR_CALLS
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    self._read_attr(node.args[1].value)
                if not isinstance(getattr(node, "ctx", None), (ast.Load, ast.Del)):
                    continue
                if isinstance(node, ast.Attribute):
                    self._read_attr(node.attr)
                if isinstance(node, (ast.Name, ast.Attribute)):
                    for target in self._targets(source, node):
                        if isinstance(target, _Def):
                            self._reach(target)

    def _targets(self, source: _Source, expr: ast.expr) -> list:
        """What *expr* (a name or dotted attribute chain) may denote in
        the tree: :class:`_Def` s, and the dotted names of modules."""
        if isinstance(expr, ast.Name):
            return [
                target for binding in source.bindings.get(expr.id, ())
                for target in self._resolve(binding, frozenset())
            ]
        if isinstance(expr, ast.Attribute):
            return [
                target for base in self._targets(source, expr.value)
                if isinstance(base, str)
                for target in self._member(base, expr.attr, frozenset())
            ]
        if isinstance(expr, ast.Subscript):  # Generic[T], Dict[str, X]
            return self._targets(source, expr.value)
        return []

    def _resolve(self, binding, seen: frozenset) -> list:
        if isinstance(binding, _Def):
            return [binding]
        if binding[0] == "mod":
            return [binding[1]] if binding[1] in self.sources else []
        return self._member(binding[1], binding[2], seen)

    def _member(self, module: str, name: str, seen: frozenset) -> list:
        dotted = f"{module}.{name}"
        if dotted in self.sources:
            return [dotted]
        if module not in self.sources or dotted in seen:  # outside, or a cycle
            return []
        return [
            target for binding in self.sources[module].bindings.get(name, ())
            for target in self._resolve(binding, seen | {dotted})
        ]

    def _external_base(self, source: _Source, node: ast.ClassDef, seen=()) -> bool:
        """Whether the class, or an in-tree base of it, has a base class
        defined outside the tree (a builtin, stdlib or third-party class
        whose machinery may call any of its methods)."""
        for base in node.bases:
            in_tree = [t for t in self._targets(source, base) if isinstance(t, _Def)]
            if not in_tree or any(
                isinstance(t.node, ast.ClassDef) and t not in seen
                and self._external_base(self.sources[t.module], t.node, (*seen, t))
                for t in in_tree
            ):
                return True
        return False


def _doc_names(root: Path) -> set:
    """Identifiers quoted in the user-facing docs' code spans, and in
    :data:`REACH_DOC_FILES`."""
    chunks = []
    for rel in KWARGS_FILES:
        path = root / rel
        if path.exists():
            chunks += [span for _, span in _code_spans(path.read_text(encoding="utf-8"))]
    for rel in REACH_DOC_FILES:
        path = root / rel
        if path.exists():
            chunks.append(path.read_text(encoding="utf-8"))
    return {name for chunk in chunks for name in IDENT_RE.findall(chunk)}


def check_reach(root: Path = REPO) -> List[str]:
    reach = _Reach(root)
    return [
        f"{reach.sources[d.module].path.relative_to(root).as_posix()}:{d.qualname}: "
        "no entry point reaches it"
        for d in reach.unreached()
    ]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true")
    parser.add_argument("--snippets", action="store_true")
    parser.add_argument("--examples", action="store_true")
    parser.add_argument("--cli-flags", action="store_true")
    parser.add_argument("--kwargs", action="store_true")
    parser.add_argument("--symbols", action="store_true")
    parser.add_argument("--reach", action="store_true")
    args = parser.parse_args(argv)
    run_all = not (
        args.links or args.snippets or args.examples or args.cli_flags
        or args.kwargs or args.symbols or args.reach
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
    if run_all or args.reach:
        failures += check_reach()

    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("docs OK")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
