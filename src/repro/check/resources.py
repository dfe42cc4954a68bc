"""Resource-discipline lint for the trace/ledger I/O layer.

The trace substrate promises two things about durable files (PR 5/6):
no reader ever observes a torn file (writes go to a unique temporary
sibling and are published by one atomic rename), and a published file
is actually on disk (fsync before rename — ``os.replace`` alone only
orders the *name*, not the bytes, so a crash can publish an empty
file). Handles must be bounded too: an ``open``/``mmap`` with no
reachable ``close`` leaks a descriptor per call, which the parallel
sweeps turn into EMFILE. This analyzer enforces the discipline over
the ASTs of ``repro.trace.io``, ``repro.trace.stream``,
``repro.trace.cache`` and ``repro.obs.ledger``:

* ``res/unmanaged-handle`` — an ``open(...)``/``path.open(...)``/
  ``mmap.mmap(...)`` call that is not context-managed (``with``), not
  assigned to a local with a reachable ``.close()`` in the same
  function, not returned (ownership transfer), and not stored on
  ``self`` with a matching ``self.<attr>.close()`` somewhere in the
  same class (the writer/streamed-trace pattern).
* ``res/non-atomic-write`` — a durable write (``write_text``/
  ``write_bytes``/open-for-write) in a function with no
  ``os.replace``/``Path.replace`` publish step: readers can observe
  the half-written file, and a crash leaves it behind.
  Append-mode opens are exempt (an append-only log is its own
  discipline — see the next rule).
* ``res/replace-without-fsync`` — a function that writes and then
  atomically renames but never calls ``os.fsync``: after a power
  failure the rename may survive while the data does not, publishing
  a truncated file. The fix is flush + ``os.fsync(fileno())`` before
  ``os.replace`` (the pattern ``TraceWriter.finalize`` established).
* ``res/append-without-fsync`` — an append-mode open with no
  ``os.fsync`` in the same function; an append-only ledger's records
  must be durable once ``append`` returns.

Per-line escape hatch: ``# check: allow(<rule>)``, as everywhere in
:mod:`repro.check`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .purity import _pragma_allows
from .report import ERROR, Finding

__all__ = [
    "check_resources",
    "default_paths",
    "scan_source",
]

_ANALYZER = "resources"

_WRITE_MODES = ("w", "a", "x", "+")


def _finding(rule: str, location: str, message: str, severity: str = ERROR) -> Finding:
    return Finding(_ANALYZER, f"res/{rule}", severity, location, message)


def _open_mode(node: ast.Call) -> Optional[str]:
    """The mode string of an ``open``-family call.

    Returns the literal mode, ``"r"`` for a defaulted mode, ``"w"`` for
    a mode that is not a literal (it may write, so the write rules must
    see the call), or ``None`` when the call is not an open.
    """
    func = node.func
    mode_pos: Optional[int] = None
    if isinstance(func, ast.Name) and func.id == "open":
        mode_pos = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_pos = 0
    if mode_pos is None:
        return None
    mode: Optional[ast.expr] = None
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None and len(node.args) > mode_pos:
        mode = node.args[mode_pos]
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "w"


def _targets_tmp(node: ast.Call) -> bool:
    """Whether a write call's destination is a temporary-sibling name.

    Writing a ``tmp``-named target is the sanctioned *first* step of the
    atomic-publish pattern — the durability obligations attach to the
    rename/fsync step, which other rules check — so such writes are not
    in-place durable writes. Recognized: ``tmp.open(...)``,
    ``self._tmp.open(...)``, ``open(tmp, ...)``, ``tmp.write_text(...)``.
    """
    candidates: List[ast.expr] = []
    func = node.func
    if isinstance(func, ast.Attribute):
        candidates.append(func.value)
    elif isinstance(func, ast.Name) and func.id == "open" and node.args:
        candidates.append(node.args[0])
    for expr in candidates:
        if isinstance(expr, ast.Name) and "tmp" in expr.id.lower():
            return True
        if isinstance(expr, ast.Attribute) and "tmp" in expr.attr.lower():
            return True
    return False


def _is_mmap_call(node: ast.Call) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "mmap"
            and isinstance(func.value, ast.Name) and func.value.id == "mmap")


def _is_handle_call(node: ast.Call) -> bool:
    return _open_mode(node) is not None or _is_mmap_call(node)


def _calls_in(node: ast.AST, attr: str) -> bool:
    """Whether any ``<x>.<attr>(...)`` call occurs under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr == attr:
            return True
    return False


def _has_fsync(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "fsync":
            return True
    return False


def _has_replace(fn: ast.AST) -> bool:
    """An atomic publish: ``os.replace(src, dst)`` or the single-argument
    ``Path.replace(target)`` (``str.replace`` needs two arguments, so a
    one-argument ``.replace`` is unambiguous)."""
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "replace" or node.keywords:
            continue
        if isinstance(node.func.value, ast.Name) and node.func.value.id == "os" \
                and len(node.args) == 2:
            return True
        if len(node.args) == 1:
            return True
    return False


def _walk_shallow(fn: ast.AST):
    """Walk ``fn``'s body without descending into nested ``def``s —
    those are scanned as functions in their own right."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _closed_names(fn: ast.AST) -> Set[str]:
    """Local names with a reachable ``name.close()`` under ``fn``."""
    closed: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "close" \
                and isinstance(node.func.value, ast.Name):
            closed.add(node.func.value.id)
    return closed


def _returned_names(fn: ast.AST) -> Set[str]:
    """Names returned *as values* (ownership transfer): ``return x`` or
    ``return x, y``. A name merely used inside the return expression
    (``return stream.read()``) hands nothing to the caller."""
    returned: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            values = (node.value.elts
                      if isinstance(node.value, (ast.Tuple, ast.List))
                      else [node.value])
            for value in values:
                if isinstance(value, ast.Name):
                    returned.add(value.id)
    return returned


def _with_context_calls(fn: ast.AST) -> Set[int]:
    """ids of Call nodes used as ``with`` context expressions (directly
    or through ``contextlib.closing(...)``)."""
    managed: Set[int] = set()
    for node in ast.walk(fn):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                managed.add(id(expr))
                for arg in expr.args:
                    if isinstance(arg, ast.Call):
                        managed.add(id(arg))
    return managed


def _with_entered_names(fn: ast.AST) -> Set[str]:
    """Names later entered as a ``with`` context (``f = open(...); with f:``)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Name):
                    names.add(item.context_expr.id)
    return names


def _self_closed_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes with a ``self.<attr>.close()`` anywhere in the class."""
    closed: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "close":
            receiver = node.func.value
            if isinstance(receiver, ast.Attribute) \
                    and isinstance(receiver.value, ast.Name) \
                    and receiver.value.id == "self":
                closed.add(receiver.attr)
    return closed


class _Scanner:
    def __init__(self, filename: str, source_lines: Sequence[str]) -> None:
        self.filename = filename
        self.source_lines = source_lines
        self.findings: List[Finding] = []

    def _add(self, rule: str, lineno: int, message: str) -> None:
        if _pragma_allows(self.source_lines, lineno, f"res/{rule}"):
            return
        self.findings.append(_finding(rule, f"{self.filename}:{lineno}", message))

    def scan_function(self, fn, cls: Optional[ast.ClassDef]) -> None:
        managed_calls = _with_context_calls(fn)
        closed = _closed_names(fn)
        returned = _returned_names(fn)
        entered = _with_entered_names(fn)
        class_closed = _self_closed_attrs(cls) if cls is not None else set()

        wrote = False          # any durable write happens in this body
        append_lines: List[int] = []
        nonatomic_lines: List[int] = []

        for node in _walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            # -- durable writes ----------------------------------------
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("write_text", "write_bytes"):
                wrote = True
                if not _targets_tmp(node):
                    nonatomic_lines.append(node.lineno)
            mode = _open_mode(node)
            if mode is not None and any(flag in mode for flag in _WRITE_MODES):
                wrote = True
                if "a" in mode:
                    append_lines.append(node.lineno)
                elif not _targets_tmp(node):
                    nonatomic_lines.append(node.lineno)
            # -- handle management -------------------------------------
            if not _is_handle_call(node) or id(node) in managed_calls:
                continue
            parent_assign = self._assignment_target(fn, node)
            if parent_assign is None:
                self._add(
                    "unmanaged-handle", node.lineno,
                    "open/mmap result is neither context-managed nor bound "
                    "to a name; the handle leaks until garbage collection",
                )
                continue
            kind, name = parent_assign
            if kind == "local":
                if name not in closed and name not in returned \
                        and name not in entered:
                    self._add(
                        "unmanaged-handle", node.lineno,
                        f"handle {name!r} is opened but never closed, "
                        "returned or entered as a context in this function",
                    )
            elif kind == "self":
                if name not in class_closed:
                    self._add(
                        "unmanaged-handle", node.lineno,
                        f"self.{name} holds an open handle but no "
                        f"self.{name}.close() exists anywhere in the class",
                    )
            # opaque targets (subscripts, tuple unpacks) are left alone:
            # the analyzer cannot track them without false positives

        if not wrote:
            return
        has_replace = _has_replace(fn)
        has_fsync = _has_fsync(fn)
        if has_replace and not has_fsync:
            self._add(
                "replace-without-fsync", fn.lineno,
                f"{fn.name!r} writes and atomically renames but never "
                "fsyncs; after a crash the rename can survive while the "
                "data does not, publishing a truncated file — flush and "
                "os.fsync(fileno()) before os.replace",
            )
        if not has_replace:
            for lineno in nonatomic_lines:
                self._add(
                    "non-atomic-write", lineno,
                    f"{fn.name!r} writes its destination in place with no "
                    "atomic-rename publish; readers can observe a torn "
                    "file — write a tmp sibling, fsync, then os.replace",
                )
        for lineno in append_lines:
            if not has_fsync:
                self._add(
                    "append-without-fsync", lineno,
                    f"append-mode write in {fn.name!r} is never fsynced; "
                    "records must be durable once the append returns",
                )

    @staticmethod
    def _assignment_target(fn, call: ast.Call) -> Optional[Tuple[str, str]]:
        """(kind, name) when ``call`` is the RHS of a simple assignment:
        ``("local", name)`` or ``("self", attr)``; else ``None``."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or node.value is not call:
                continue
            if len(node.targets) != 1:
                return None
            target = node.targets[0]
            if isinstance(target, ast.Name):
                return ("local", target.id)
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                return ("self", target.attr)
            return None
        return None


def default_paths() -> List[Path]:
    """The durable-I/O surface covered by the resource discipline."""
    package = Path(__file__).resolve().parent.parent
    return [
        package / "trace" / "io.py",
        package / "trace" / "stream.py",
        package / "trace" / "cache.py",
        package / "obs" / "ledger.py",
    ]


class _TopWalk(ast.NodeVisitor):
    """Visit every function with its enclosing class (if any)."""

    def __init__(self, scanner: _Scanner) -> None:
        self.scanner = scanner
        self._cls: Optional[ast.ClassDef] = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        previous, self._cls = self._cls, node
        self.generic_visit(node)
        self._cls = previous

    def _visit_fn(self, node) -> None:
        self.scanner.scan_function(node, self._cls)
        self.generic_visit(node)  # nested defs are scanned independently

    visit_FunctionDef = _visit_fn
    visit_AsyncFunctionDef = _visit_fn


def scan_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Scan one source string (unit-test entry point)."""
    tree = ast.parse(source, filename=filename)
    scanner = _Scanner(filename, source.splitlines())
    _TopWalk(scanner).visit(tree)
    return scanner.findings


def check_resources(
    paths: Optional[Iterable[Path]] = None,
) -> Tuple[List[Finding], int]:
    """Run the resource-discipline lint.

    Returns:
        (findings, number of files examined).
    """
    findings: List[Finding] = []
    count = 0
    for path in default_paths() if paths is None else paths:
        path = Path(path)
        findings.extend(scan_source(path.read_text(encoding="utf-8"), str(path)))
        count += 1
    return findings, count
