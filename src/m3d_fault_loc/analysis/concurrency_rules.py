"""AST lint pass over the Python stack: lock-discipline footguns (M3D3xx).

The serving tier coordinates a dozen ``threading.Lock``/``Event`` instances
across the service worker, watchdog, breaker, and metrics registry.
These rules encode the lock discipline that keeps that coordination sound —
statically, as a complement to the runtime lock-order sanitizer in
:mod:`m3d_fault_loc.testing.racecheck`:

- **M3D301** an instance attribute rebound both inside and outside a
  ``with self._lock:`` block in the same class — the unlocked write makes
  the locked ones theater,
- **M3D302** a blocking call (queue get/put, ``time.sleep``, ``.wait()``,
  file/socket I/O) made while holding a lock — every other thread queues
  behind I/O it never asked for,
- **M3D303** a lock/Event constructed outside ``__init__`` (or module
  scope) — a per-call lock guards nothing,
- **M3D304** ``Thread.join()``/``Event.wait()`` without a timeout in
  library code — an unbounded wait is a hang, not a policy,
- **M3D305** a ``threading.Thread`` created without an explicit ``daemon``
  flag — shutdown behavior becomes an accident of the default,
- **M3D306** a callback attribute (``on_*``/``*_hook``/``*_listener``/
  ``*_callback``) invoked — directly or transitively through same-class
  helpers — while holding a lock: user code running under your lock is the
  classic re-entrancy deadlock.

All escalate from WARNING to ERROR inside ``serve/`` sources, where the
multi-worker scale-out depends on this discipline. Findings are suppressed
in place with ``# m3dlint: disable=M3D30x reason=...``
(:mod:`m3d_fault_loc.analysis.suppress`).
"""

from __future__ import annotations

import ast
from pathlib import Path

from m3d_fault_loc.analysis.code_rules import CodeRule, _dotted_name
from m3d_fault_loc.analysis.violations import Severity, Violation

#: Name fragments that mark an attribute/variable as a mutual-exclusion lock.
LOCK_NAME_HINTS = ("lock", "mutex")

#: Constructors of synchronization primitives (M3D303).
_SYNC_FACTORIES = ("Lock", "RLock", "Event", "Condition", "Semaphore", "BoundedSemaphore")

#: Attribute-name fragments that mark a stored callable as an escaping callback.
_CALLBACK_HINTS = ("callback", "listener", "hook", "observer", "subscriber")

#: Receiver-name fragments that mark a handle as file/socket-like I/O (M3D302).
_IO_RECEIVER_HINTS = (
    "handle", "file", "fh", "fp", "sock", "stream", "wfile", "rfile", "conn", "pipe",
)
_IO_METHODS = ("read", "readline", "readlines", "write", "flush", "recv", "send",
               "sendall", "accept", "connect")

#: Receiver-name fragments that mark a ``.get``/``.put`` target as a queue.
_QUEUE_RECEIVER_HINTS = ("queue", "_q")

#: Receiver-name fragments that mark a ``.join`` target as a thread/process.
_THREAD_RECEIVER_HINTS = ("thread", "worker", "watchdog", "proc", "child")

#: Path parts whose modules are process entry points, not library code.
_ENTRY_POINT_PARTS = ("cli", "scripts", "tests")


def _in_serve(path: Path) -> bool:
    return "serve" in path.parts


def _terminal_name(node: ast.AST) -> str:
    """Last identifier of a dotted expression (``self.a.b`` -> ``"b"``)."""
    dotted = _dotted_name(node)
    return dotted[-1] if dotted else ""


def _is_lock_name(name: str) -> bool:
    return any(hint in name.lower() for hint in LOCK_NAME_HINTS)


def _lock_names_of_with(node: ast.With | ast.AsyncWith) -> list[str]:
    """Lock-looking context managers of a ``with`` statement, by name."""
    names = []
    for item in node.items:
        ctx = item.context_expr
        target = ctx.func if isinstance(ctx, ast.Call) else ctx
        name = _terminal_name(target)
        if name and _is_lock_name(name):
            names.append(name)
    return names


def _self_attr_target(node: ast.AST) -> str | None:
    """``self.x`` -> ``"x"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _has_timeout(call: ast.Call) -> bool:
    return bool(call.args) or any(kw.arg == "timeout" for kw in call.keywords)


class ConcurrencyRule(CodeRule):
    """Shared severity escalation: WARNING everywhere, ERROR under serve/."""

    severity = Severity.WARNING

    def escalated(self, path: Path) -> Severity:
        return Severity.ERROR if _in_serve(path) else Severity.WARNING

    def where(self, path: Path) -> str:
        return " inside serving code" if _in_serve(path) else ""


class _LockScopeVisitor(ast.NodeVisitor):
    """Walks one function body tracking the stack of held (lexical) locks."""

    def __init__(self) -> None:
        self.lock_stack: list[str] = []

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locks = _lock_names_of_with(node)
        self.lock_stack.extend(locks)
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        if locks:
            del self.lock_stack[len(self.lock_stack) - len(locks) :]

    # Nested function/class definitions get their own lock scope: a closure
    # defined under a lock does not *run* under it.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: ast.AST) -> None:
        saved, self.lock_stack = self.lock_stack, []
        self.generic_visit(node)
        self.lock_stack = saved


class LockedAttributeDisciplineRule(ConcurrencyRule):
    """An attribute written under ``with self._lock`` in one method and bare
    in another is only *sometimes* protected — which is never protected.
    ``__init__`` is exempt: construction happens before the object is
    shared."""

    id = "M3D301"
    description = (
        "instance attributes locked anywhere must be locked everywhere "
        "(ERROR inside serve/ code)"
    )

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locked: dict[str, tuple[str, int]] = {}  # attr -> (lock, first line)
            unlocked: dict[str, tuple[str, int]] = {}  # attr -> (method, first line)
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for attr, lock, line in self._attribute_writes(fn):
                    if lock is not None:
                        locked.setdefault(attr, (lock, line))
                    elif fn.name != "__init__":
                        unlocked.setdefault(attr, (fn.name, line))
            for attr in sorted(set(locked) & set(unlocked)):
                lock, locked_line = locked[attr]
                method, bare_line = unlocked[attr]
                findings.append(
                    self.violation(
                        f"attribute 'self.{attr}' of class '{cls.name}' is written "
                        f"under '{lock}' (line {locked_line}) but bare in "
                        f"'{method}' (line {bare_line}){self.where(path)}; "
                        "an unlocked writer defeats every locked one",
                        path,
                        bare_line,
                        self.escalated(path),
                    )
                )
        return findings

    @staticmethod
    def _attribute_writes(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[tuple[str, str | None, int]]:
        """Every ``self.x = ...`` in ``fn`` as (attr, holding lock | None, line)."""
        writes: list[tuple[str, str | None, int]] = []

        class Visitor(_LockScopeVisitor):
            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._note(target, node.lineno)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._note(node.target, node.lineno)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if node.value is not None:
                    self._note(node.target, node.lineno)
                self.generic_visit(node)

            def _note(self, target: ast.AST, line: int) -> None:
                attr = _self_attr_target(target)
                if attr is not None and not _is_lock_name(attr):
                    held = self.lock_stack[-1] if self.lock_stack else None
                    writes.append((attr, held, line))

        visitor = Visitor()
        for stmt in fn.body:
            visitor.visit(stmt)
        return writes


class BlockingCallUnderLockRule(ConcurrencyRule):
    """Sleeping, waiting, queue transfers, or file/socket I/O while holding a
    lock serializes every other thread behind work that is not critical
    section — and is one half of most real deadlocks."""

    id = "M3D302"
    description = "no blocking calls (sleep/wait/queue/file I/O) while holding a lock "\
                  "(ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        rule = self

        class Visitor(_LockScopeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if self.lock_stack:
                    reason = rule._blocking_reason(node)
                    if reason is not None:
                        findings.append(
                            rule.violation(
                                f"{reason} while holding '{self.lock_stack[-1]}'"
                                f"{rule.where(path)}; move the blocking work outside "
                                "the critical section",
                                path,
                                node.lineno,
                                rule.escalated(path),
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(tree)
        return findings

    @staticmethod
    def _blocking_reason(node: ast.Call) -> str | None:
        dotted = _dotted_name(node.func)
        if not dotted:
            return None
        name = dotted[-1]
        receiver = ".".join(dotted[:-1])
        receiver_lower = receiver.lower()
        if dotted == ("open",) or name == "open":
            return f"file open '{'.'.join(dotted)}()'"
        if name == "sleep":
            return f"'{'.'.join(dotted)}()'"
        if name == "wait":
            return f"blocking wait '{'.'.join(dotted)}()'"
        if name == "join" and any(h in receiver_lower for h in _THREAD_RECEIVER_HINTS):
            return f"thread join '{'.'.join(dotted)}()'"
        if name in ("get", "put") and any(
            h in receiver_lower for h in _QUEUE_RECEIVER_HINTS
        ):
            return f"queue transfer '{'.'.join(dotted)}()'"
        if name in _IO_METHODS and any(h in receiver_lower for h in _IO_RECEIVER_HINTS):
            return f"file/socket I/O '{'.'.join(dotted)}()'"
        return None


class LockCreatedOutsideInitRule(ConcurrencyRule):
    """A ``threading.Lock``/``Event`` built inside an ordinary function is a
    fresh, unshared object per call: nothing ever contends on it, so it
    guards nothing. Locks belong in ``__init__`` (or module scope)."""

    id = "M3D303"
    description = "locks/Events must be created in __init__ or module scope "\
                  "(ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        self._visit(tree, path, fn_stack=[], findings=findings)
        return findings

    def _visit(
        self,
        node: ast.AST,
        path: Path,
        fn_stack: list[str],
        findings: list[Violation],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and self._creates_primitive(child) and fn_stack:
                if fn_stack[-1] != "__init__":
                    target = ".".join(_dotted_name(child.func))
                    findings.append(
                        self.violation(
                            f"synchronization primitive '{target}()' created inside "
                            f"'{fn_stack[-1]}'{self.where(path)}; a per-call lock "
                            "guards nothing — create it in __init__ or at module scope",
                            path,
                            child.lineno,
                            self.escalated(path),
                        )
                    )
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(child, path, fn_stack + [child.name], findings)
            else:
                self._visit(child, path, fn_stack, findings)

    @staticmethod
    def _creates_primitive(call: ast.Call) -> bool:
        dotted = _dotted_name(call.func)
        if len(dotted) == 2 and dotted[0] == "threading" and dotted[1] in _SYNC_FACTORIES:
            return True
        return len(dotted) == 1 and dotted[0] in _SYNC_FACTORIES


class UnboundedJoinWaitRule(ConcurrencyRule):
    """``Thread.join()`` or ``Event.wait()`` without a timeout can wait
    forever; library code must bound every wait so a wedged peer becomes an
    observable failure instead of a hang. Entry points (``cli/``,
    ``scripts/``, ``tests/``) are exempt — blocking is their job."""

    id = "M3D304"
    description = "no unbounded Thread.join()/Event.wait() in library code "\
                  "(ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if any(part in _ENTRY_POINT_PARTS for part in path.parts):
            return []
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _has_timeout(node):
                continue
            dotted = _dotted_name(node.func)
            if not dotted:
                continue
            name = dotted[-1]
            receiver = ".".join(dotted[:-1]).lower()
            unbounded = name == "wait" or (
                name == "join" and any(h in receiver for h in _THREAD_RECEIVER_HINTS)
            )
            if unbounded:
                findings.append(
                    self.violation(
                        f"unbounded '{'.'.join(dotted)}()' in library code"
                        f"{self.where(path)}; pass a timeout so a wedged peer "
                        "fails loudly instead of hanging the caller",
                        path,
                        node.lineno,
                        self.escalated(path),
                    )
                )
        return findings


class ImplicitDaemonThreadRule(ConcurrencyRule):
    """Whether a worker outlives (or blocks) interpreter shutdown must be a
    decision, not a default: every ``threading.Thread(...)`` needs an
    explicit ``daemon=`` (or a ``t.daemon = ...`` before start)."""

    id = "M3D305"
    description = "threads must set daemon= explicitly (ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        seen: set[int] = set()  # function scopes first; module walk sees them too
        for scope in self._scopes(tree):
            sets_daemon_attr = any(
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Attribute) and t.attr == "daemon"
                    for t in node.targets
                )
                for node in ast.walk(scope)
            )
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                if _dotted_name(node.func)[-1:] != ("Thread",):
                    continue
                seen.add(id(node))
                if any(kw.arg == "daemon" for kw in node.keywords) or sets_daemon_attr:
                    continue
                findings.append(
                    self.violation(
                        f"Thread created without an explicit daemon= flag"
                        f"{self.where(path)}; shutdown behavior must be chosen, "
                        "not inherited",
                        path,
                        node.lineno,
                        self.escalated(path),
                    )
                )
        return findings

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        """Innermost function scopes plus the module body itself."""
        scopes: list[ast.AST] = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes.append(tree)
        return scopes


class CallbackUnderLockRule(ConcurrencyRule):
    """Invoking a stored callback while holding the lock that protects the
    invoker hands *your* lock to *someone else's* code. If that code calls
    back in — or takes another lock — you get re-entrant deadlock or a
    lock-order inversion. Detected transitively: a ``with self._lock:``
    block calling a same-class helper that (eventually) fires a callback is
    flagged at the call site inside the lock."""

    id = "M3D306"
    description = "no callback/listener/hook invocation while holding a lock "\
                  "(ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                findings.extend(self._check_class(cls, path))
        return findings

    def _check_class(self, cls: ast.ClassDef, path: Path) -> list[Violation]:
        methods = {
            fn.name: fn
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # Methods that directly invoke a callback-looking self attribute.
        direct: dict[str, str] = {}
        calls: dict[str, set[str]] = {name: set() for name in methods}
        for name, fn in methods.items():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                attr = _self_attr_target(node.func)
                if attr is None:
                    continue
                if attr in methods:
                    calls[name].add(attr)
                elif self._is_callback_name(attr):
                    direct.setdefault(name, attr)
        # Transitive closure: which methods eventually fire a callback?
        tainted: dict[str, str] = dict(direct)
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in tainted:
                    continue
                for callee in calls[name]:
                    if callee in tainted:
                        tainted[name] = tainted[callee]
                        changed = True
                        break

        findings: list[Violation] = []
        rule = self

        class Visitor(_LockScopeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if self.lock_stack:
                    attr = _self_attr_target(node.func)
                    callback: str | None = None
                    via = ""
                    if attr is not None and rule._is_callback_name(attr):
                        callback = attr
                    elif attr in tainted:
                        callback = tainted[attr]  # type: ignore[index]
                        via = f" (via 'self.{attr}()')"
                    if callback is not None:
                        findings.append(
                            rule.violation(
                                f"callback 'self.{callback}' of class '{cls.name}' "
                                f"invoked while holding '{self.lock_stack[-1]}'"
                                f"{via}{rule.where(path)}; release the lock before "
                                "running user code",
                                path,
                                node.lineno,
                                rule.escalated(path),
                            )
                        )
                self.generic_visit(node)

        for fn in methods.values():
            visitor = Visitor()
            for stmt in fn.body:
                visitor.visit(stmt)
        return findings

    @staticmethod
    def _is_callback_name(attr: str) -> bool:
        lowered = attr.lower().lstrip("_")
        if lowered.startswith("on_"):
            return True
        return any(hint in lowered for hint in _CALLBACK_HINTS)


#: Full built-in concurrency catalog, in rule-id order.
BUILTIN_CONCURRENCY_RULES: tuple[type[CodeRule], ...] = (
    LockedAttributeDisciplineRule,
    BlockingCallUnderLockRule,
    LockCreatedOutsideInitRule,
    UnboundedJoinWaitRule,
    ImplicitDaemonThreadRule,
    CallbackUnderLockRule,
)
