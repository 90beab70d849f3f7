"""AST lint pass over the Python stack: GNN-training footguns.

These rules target silent-failure patterns specific to GNN training/serving
code rather than general style (which ruff covers):

- **M3D203** ad-hoc global seeding outside the blessed
  :mod:`m3d_fault_loc.utils.seed` utility,
- **M3D204** bare ``except:`` handlers (escalated to ERROR inside training
  code, where they can swallow OOM/keyboard interrupts mid-epoch),
- **M3D205** unbounded module-level dict caches (escalated to ERROR inside
  the serving layer, where they grow with every unique request),
- **M3D206** thread-target worker loops without a broad exception guard
  (escalated to ERROR inside the serving layer, where a silently dead
  worker strands every queued request),
- **M3D207** ``print()`` or root-``logging`` calls in library code, which
  bypass the structured JSON logger and lose the request trace id
  (escalated to ERROR inside the serving layer; CLI entry points and
  scripts are exempt — stdout is their interface),
- **M3D209** draws from the process-global numpy stream (``np.random.*``)
  or unseeded ``default_rng()`` (escalated to ERROR inside scenario and
  dataset generators, whose whole contract is byte-identical regeneration
  from a spec'd seed),
- **M3D210** socket/HTTP client constructions without an explicit
  ``timeout`` (escalated to ERROR inside the serving layer: the router and
  health prober must never block forever on a dead replica — an unbounded
  connect turns one sick backend into a hung router thread),
- **M3D211** ``time.time()`` used to measure a duration (``t1 - t0``
  subtraction patterns over wall-clock reads) — the wall clock steps under
  NTP corrections and DST, so elapsed times must come from
  ``time.monotonic()``/``time.perf_counter()`` (escalated to ERROR inside
  ``serve/`` and ``obs/``, where those durations feed latency metrics,
  traces, and SLO math).
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from pathlib import Path

from m3d_fault_loc.analysis.suppress import apply_suppressions
from m3d_fault_loc.analysis.violations import Severity, Violation

#: Module basenames allowed to call global seeding primitives directly.
BLESSED_SEED_MODULES = ("seed.py",)

#: Global-seeding call targets banned outside the blessed seed utility.
SEEDING_CALLS = {
    ("random", "seed"),
    ("np", "random", "seed"),
    ("numpy", "random", "seed"),
    ("torch", "manual_seed"),
    ("torch", "cuda", "manual_seed"),
    ("torch", "cuda", "manual_seed_all"),
}


class CodeRule(ABC):
    """One AST lint rule over a parsed Python module."""

    id: str
    severity: Severity
    description: str

    @abstractmethod
    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        """Return all findings for the module at ``path``."""

    def violation(
        self, message: str, path: Path, line: int, severity: Severity | None = None
    ) -> Violation:
        return Violation(
            rule_id=self.id,
            severity=self.severity if severity is None else severity,
            message=message,
            location=f"{path}:{line}",
        )


def _dotted_name(node: ast.AST) -> tuple[str, ...]:
    """Flatten ``a.b.c`` attribute chains to ``("a", "b", "c")``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class AdHocSeedingRule(CodeRule):
    """Global RNG seeding belongs in one place (``utils/seed.py``); scattered
    ``random.seed``/``torch.manual_seed`` calls make runs irreproducible the
    moment two call sites disagree."""

    id = "M3D203"
    severity = Severity.ERROR
    description = "global seeding only inside the blessed seed utility"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if path.name in BLESSED_SEED_MODULES:
            return []
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted in SEEDING_CALLS:
                    findings.append(
                        self.violation(
                            f"ad-hoc global seeding via {'.'.join(dotted)}(); "
                            "call m3d_fault_loc.utils.seed.seed_everything() instead",
                            path,
                            node.lineno,
                        )
                    )
        return findings


class BareExceptRule(CodeRule):
    """Bare ``except:`` swallows SystemExit/KeyboardInterrupt; inside training
    code it can silently eat a mid-epoch failure and corrupt the checkpoint,
    so it escalates from WARNING to ERROR there."""

    id = "M3D204"
    severity = Severity.WARNING
    description = "no bare except handlers (ERROR inside training code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        findings: list[Violation] = []
        self._visit(tree, path, in_train=False, findings=findings)
        return findings

    def _visit(
        self, node: ast.AST, path: Path, in_train: bool, findings: list[Violation]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_train = in_train
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_in_train = in_train or "train" in child.name.lower()
            if isinstance(child, ast.ExceptHandler) and child.type is None:
                severity = Severity.ERROR if in_train else Severity.WARNING
                where = " inside training code" if in_train else ""
                findings.append(
                    self.violation(f"bare except handler{where}", path, child.lineno, severity)
                )
            self._visit(child, path, child_in_train, findings)


class UnboundedModuleCacheRule(CodeRule):
    """A module-level ``dict`` named like a cache never evicts: in serving
    code it grows with every unique request — a slow memory leak under
    production traffic — so it escalates from WARNING to ERROR inside
    ``serve/`` sources, where the bounded
    :class:`~m3d_fault_loc.serve.cache.LRUResultCache` is the blessed tool."""

    id = "M3D205"
    severity = Severity.WARNING
    description = "no unbounded module-level dict caches (ERROR inside serve/ code)"

    #: Name fragments marking a binding as a cache.
    CACHE_NAME_HINTS = ("cache", "memo")
    #: Call targets that build a plain (unbounded) mapping.
    _DICT_CALLS = (("dict",), ("collections", "defaultdict"), ("defaultdict",), ("OrderedDict",))

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        in_serve = "serve" in path.parts
        findings: list[Violation] = []
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not self._is_unbounded_dict(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id.lower()
                if any(hint in name for hint in self.CACHE_NAME_HINTS):
                    where = " inside serving code" if in_serve else ""
                    findings.append(
                        self.violation(
                            f"module-level dict cache '{target.id}' is unbounded{where}; "
                            "use a bounded LRU (m3d_fault_loc.serve.cache.LRUResultCache)",
                            path,
                            node.lineno,
                            Severity.ERROR if in_serve else Severity.WARNING,
                        )
                    )
        return findings

    @classmethod
    def _is_unbounded_dict(cls, value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return True
        return isinstance(value, ast.Call) and _dotted_name(value.func) in cls._DICT_CALLS


class UnguardedThreadLoopRule(CodeRule):
    """A function used as a ``threading.Thread`` target whose loop body has
    no broad exception guard dies silently on the first unexpected error —
    in serving code that strands every queued future forever, so it
    escalates from WARNING to ERROR inside ``serve/`` sources. The guard
    must catch ``Exception`` (or broader); typed handlers like
    ``except queue.Empty`` do not count."""

    id = "M3D206"
    severity = Severity.WARNING
    description = "thread-target loops need a broad exception guard (ERROR inside serve/ code)"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        targets = self._thread_target_names(tree)
        if not targets:
            return []
        in_serve = "serve" in path.parts
        findings: list[Violation] = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in targets:
                continue
            for loop in ast.walk(fn):
                if isinstance(loop, ast.While) and not self._loop_guarded(loop):
                    where = " inside serving code" if in_serve else ""
                    findings.append(
                        self.violation(
                            f"thread target '{fn.name}' has a loop without a broad "
                            f"exception guard{where}; one uncaught error kills the "
                            "worker thread and strands its queue",
                            path,
                            loop.lineno,
                            Severity.ERROR if in_serve else Severity.WARNING,
                        )
                    )
        return findings

    @staticmethod
    def _thread_target_names(tree: ast.Module) -> set[str]:
        """Base names of every ``target=`` passed to a ``Thread(...)`` call."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _dotted_name(node.func)[-1:] != ("Thread",):
                continue
            for kw in node.keywords:
                if kw.arg == "target":
                    dotted = _dotted_name(kw.value)
                    if dotted:
                        names.add(dotted[-1])
        return names

    @staticmethod
    def _loop_guarded(loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    return True
                if _dotted_name(handler.type)[-1:] in (("Exception",), ("BaseException",)):
                    return True
        return False


class UnstructuredOutputRule(CodeRule):
    """Library code must log through the structured JSON logger
    (``m3d_fault_loc.obs.logging.get_logger``) — a bare ``print()`` or a
    root-``logging`` call (``logging.info(...)``, ``logging.basicConfig``)
    bypasses the trace-id-carrying formatter, so the line can never be
    correlated with the request that produced it. Escalates from WARNING to
    ERROR inside ``serve/`` sources, where log/trace correlation is the
    whole point. CLI entry points, scripts, and tests are exempt: stdout is
    their user interface."""

    id = "M3D207"
    severity = Severity.WARNING
    description = "no print()/root-logging in library code (ERROR inside serve/ code)"

    #: Path parts whose modules talk to a terminal on purpose.
    EXEMPT_PARTS = ("cli", "scripts", "tests")
    #: Module-level ``logging.<attr>(...)`` calls that hit the root logger.
    _ROOT_LOGGING_ATTRS = (
        "debug", "info", "warning", "warn", "error", "exception", "critical",
        "log", "basicConfig",
    )

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if any(part in self.EXEMPT_PARTS for part in path.parts) or path.stem == "cli":
            return []
        in_serve = "serve" in path.parts
        severity = Severity.ERROR if in_serve else Severity.WARNING
        where = " inside serving code" if in_serve else ""
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted == ("print",):
                findings.append(
                    self.violation(
                        f"print() in library code{where}; use "
                        "m3d_fault_loc.obs.logging.get_logger(__name__) so the "
                        "line carries the request trace id",
                        path,
                        node.lineno,
                        severity,
                    )
                )
            elif len(dotted) == 2 and dotted[0] == "logging" and dotted[1] in (
                self._ROOT_LOGGING_ATTRS
            ):
                findings.append(
                    self.violation(
                        f"root-logger call logging.{dotted[1]}() in library code{where}; "
                        "use m3d_fault_loc.obs.logging.get_logger(__name__) instead",
                        path,
                        node.lineno,
                        severity,
                    )
                )
        return findings


class ScenarioRngDisciplineRule(CodeRule):
    """Scenario and dataset generators promise byte-identical regeneration
    from ``ScenarioSpec.seed`` — a draw from the process-global numpy stream
    (``np.random.uniform(...)``) or an unseeded ``default_rng()`` silently
    breaks that promise: the output depends on import order and whatever ran
    before. Thread an explicitly seeded ``numpy.random.Generator``
    (``ScenarioSpec.rng()``) through instead. WARNING elsewhere, ERROR under
    ``scenarios/`` and ``data/`` sources. ``np.random.seed`` is M3D203's
    finding, not this rule's; the blessed seed utility is exempt."""

    id = "M3D209"
    severity = Severity.WARNING
    description = (
        "no global-stream np.random draws or unseeded default_rng() "
        "(ERROR under scenarios/ and data/ code)"
    )

    #: Path parts where determinism is the module's contract.
    STRICT_PARTS = ("scenarios", "data")
    #: ``np.random`` attributes that are not global-stream draws.
    _NON_DRAW_ATTRS = {
        "default_rng", "seed", "get_state", "set_state",
        "Generator", "RandomState", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    }
    _NP_ROOTS = ("np", "numpy")

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if path.name in BLESSED_SEED_MODULES:
            return []
        strict = any(part in self.STRICT_PARTS for part in path.parts)
        severity = Severity.ERROR if strict else Severity.WARNING
        where = " inside generator code" if strict else ""
        rng_aliases = self._default_rng_aliases(tree)
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            unseeded = not node.args and not node.keywords
            if len(dotted) == 1 and dotted[0] in rng_aliases:
                if unseeded:
                    findings.append(self._unseeded_rng(path, node.lineno, severity, where))
                continue
            if len(dotted) != 3 or dotted[0] not in self._NP_ROOTS or dotted[1] != "random":
                continue
            attr = dotted[2]
            if attr == "default_rng":
                if unseeded:
                    findings.append(self._unseeded_rng(path, node.lineno, severity, where))
            elif attr not in self._NON_DRAW_ATTRS:
                findings.append(
                    self.violation(
                        f"np.random.{attr}() draws from the process-global "
                        f"stream{where}; thread a seeded numpy.random.Generator "
                        "(e.g. ScenarioSpec.rng()) instead",
                        path,
                        node.lineno,
                        severity,
                    )
                )
        return findings

    def _unseeded_rng(
        self, path: Path, line: int, severity: Severity, where: str
    ) -> Violation:
        return self.violation(
            f"unseeded default_rng(){where} makes output depend on entropy, "
            "not the spec; pass an explicit seed (e.g. ScenarioSpec.rng())",
            path,
            line,
            severity,
        )

    @staticmethod
    def _default_rng_aliases(tree: ast.Module) -> set[str]:
        """Local names bound to ``numpy.random.default_rng`` by imports."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for a in node.names:
                    if a.name == "default_rng":
                        aliases.add(a.asname or a.name)
        return aliases


class MissingClientTimeoutRule(CodeRule):
    """A network client call without an explicit ``timeout`` inherits the
    global socket default — usually *no* timeout — so one dead peer parks
    the calling thread forever. In the serving layer that is how a single
    unreachable replica wedges the router (or its health prober), which is
    why the finding escalates from WARNING to ERROR inside ``serve/``
    sources. Pass ``timeout=`` (or the documented positional slot) on every
    ``HTTPConnection``/``HTTPSConnection``, ``socket.create_connection``,
    and ``urllib.request.urlopen`` call."""

    id = "M3D210"
    severity = Severity.WARNING
    description = (
        "socket/HTTP client calls must pass an explicit timeout "
        "(ERROR inside serve/ code)"
    )

    #: Canonical dotted call target → index of the positional slot that can
    #: carry the timeout (``HTTPConnection(host, port, timeout)`` etc.).
    _TARGETS: dict[tuple[str, ...], int] = {
        ("http", "client", "HTTPConnection"): 2,
        ("http", "client", "HTTPSConnection"): 2,
        ("socket", "create_connection"): 1,
        ("urllib", "request", "urlopen"): 2,
    }

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        in_serve = "serve" in path.parts
        severity = Severity.ERROR if in_serve else Severity.WARNING
        where = " inside serving code" if in_serve else ""
        module_aliases = self._module_aliases(tree)
        name_aliases = self._from_import_aliases(tree)
        findings: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve(node.func, module_aliases, name_aliases)
            if target is None:
                continue
            timeout_pos = self._TARGETS[target]
            explicit_kw = any(kw.arg == "timeout" or kw.arg is None for kw in node.keywords)
            explicit_pos = len(node.args) > timeout_pos
            if explicit_kw or explicit_pos:
                continue
            pretty = ".".join(target)
            findings.append(
                self.violation(
                    f"{pretty}() without an explicit timeout{where} blocks "
                    "forever on a dead peer; pass timeout= so the failure is "
                    "a bounded error, not a hung thread",
                    path,
                    node.lineno,
                    severity,
                )
            )
        return findings

    def _resolve(
        self,
        func: ast.AST,
        module_aliases: dict[str, tuple[str, ...]],
        name_aliases: dict[str, tuple[str, ...]],
    ) -> tuple[str, ...] | None:
        """Canonical target for a call expression, alias-aware; else None."""
        dotted = _dotted_name(func)
        if not dotted:
            return None
        if len(dotted) == 1:
            target = name_aliases.get(dotted[0])
            return target if target in self._TARGETS else None
        expanded = module_aliases.get(dotted[0], (dotted[0],)) + dotted[1:]
        return expanded if expanded in self._TARGETS else None

    @staticmethod
    def _module_aliases(tree: ast.Module) -> dict[str, tuple[str, ...]]:
        """``import http.client as hc`` → ``{"hc": ("http", "client")}``."""
        aliases: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    local = a.asname or a.name.split(".")[0]
                    canonical = tuple(a.name.split(".")) if a.asname else (local,)
                    aliases[local] = canonical
        return aliases

    def _from_import_aliases(self, tree: ast.Module) -> dict[str, tuple[str, ...]]:
        """``from socket import create_connection as cc`` → canonical path."""
        by_module: dict[str, list[tuple[str, ...]]] = {}
        for target in self._TARGETS:
            by_module.setdefault(".".join(target[:-1]), []).append(target)
        aliases: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module not in by_module:
                continue
            for target in by_module[node.module]:
                for a in node.names:
                    if a.name == target[-1]:
                        aliases[a.asname or a.name] = target
        return aliases


class WallClockDurationRule(CodeRule):
    """``time.time()`` answers "what o'clock is it", not "how long did this
    take": the wall clock steps backwards/forwards under NTP slew and leap
    adjustments, so subtracting two wall-clock reads yields durations that
    can be negative or wildly wrong. Duration measurement must use
    ``time.monotonic()`` or ``time.perf_counter()``. Flagged patterns: a
    ``-`` subtraction where both operands are wall-clock values (a direct
    ``time.time()`` call or a local name assigned from one), or a direct
    ``time.time()`` call minus any non-constant operand. Subtracting a
    numeric literal (``time.time() - 300``, a cutoff timestamp) is fine —
    that is timestamp arithmetic, not elapsed-time measurement. Bare
    ``time.time()`` reads used as timestamps are never flagged."""

    id = "M3D211"
    severity = Severity.WARNING
    description = (
        "time.time() must not measure durations; use time.monotonic()/"
        "perf_counter() (ERROR inside serve/ and obs/ code)"
    )

    _TARGET = ("time", "time")

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        in_hot = "serve" in path.parts or "obs" in path.parts
        severity = Severity.ERROR if in_hot else Severity.WARNING
        where = " inside latency-critical code" if in_hot else ""
        module_aliases = self._module_aliases(tree)
        name_aliases = self._from_import_aliases(tree)
        findings: list[Violation] = []
        for scope in self._scopes(tree):
            tainted = self._tainted_names(scope, module_aliases, name_aliases)
            for node in self._scope_walk(scope):
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
                    continue
                left = self._time_value(node.left, module_aliases, name_aliases, tainted)
                right = self._time_value(node.right, module_aliases, name_aliases, tainted)
                if left is None and right is None:
                    continue
                # A numeric-literal operand is cutoff/timestamp arithmetic
                # (e.g. ``time.time() - 3600``), not a duration.
                other = node.right if left is not None else node.left
                if isinstance(other, ast.Constant) and isinstance(other.value, (int, float)):
                    continue
                # Flag when both sides are wall-clock values, or when one
                # side is a *direct* time.time() call (t - time.time() is a
                # duration however t was made).
                if not (
                    (left is not None and right is not None)
                    or left == "call"
                    or right == "call"
                ):
                    continue
                findings.append(
                    self.violation(
                        "duration measured by subtracting time.time() values"
                        f"{where}; the wall clock steps under NTP — use "
                        "time.monotonic() or time.perf_counter() for elapsed time",
                        path,
                        node.lineno,
                        severity,
                    )
                )
        return findings

    # -- scope handling ----------------------------------------------------

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        return [tree] + [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _scope_walk(scope: ast.AST):
        """Walk a scope's nodes without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _tainted_names(
        self,
        scope: ast.AST,
        module_aliases: dict[str, tuple[str, ...]],
        name_aliases: set[str],
    ) -> set[str]:
        """Local names assigned directly from a wall-clock read."""
        tainted: set[str] = set()
        for node in self._scope_walk(scope):
            value: ast.AST | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            if value is None or not self._is_wallclock_call(
                value, module_aliases, name_aliases
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        return tainted

    # -- wall-clock detection ----------------------------------------------

    def _time_value(
        self,
        node: ast.AST,
        module_aliases: dict[str, tuple[str, ...]],
        name_aliases: set[str],
        tainted: set[str],
    ) -> str | None:
        """``"call"`` for a direct time.time() call, ``"name"`` for a
        tainted local, ``None`` otherwise."""
        if self._is_wallclock_call(node, module_aliases, name_aliases):
            return "call"
        if isinstance(node, ast.Name) and node.id in tainted:
            return "name"
        return None

    def _is_wallclock_call(
        self,
        node: ast.AST,
        module_aliases: dict[str, tuple[str, ...]],
        name_aliases: set[str],
    ) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted_name(node.func)
        if not dotted:
            return False
        if len(dotted) == 1:
            return dotted[0] in name_aliases
        expanded = module_aliases.get(dotted[0], (dotted[0],)) + dotted[1:]
        return expanded == self._TARGET

    @staticmethod
    def _module_aliases(tree: ast.Module) -> dict[str, tuple[str, ...]]:
        """``import time as t`` → ``{"t": ("time",)}``."""
        aliases: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    local = a.asname or a.name.split(".")[0]
                    canonical = tuple(a.name.split(".")) if a.asname else (local,)
                    aliases[local] = canonical
        return aliases

    @staticmethod
    def _from_import_aliases(tree: ast.Module) -> set[str]:
        """``from time import time [as now]`` → the local callable names."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for a in node.names:
                    if a.name == "time":
                        names.add(a.asname or a.name)
        return names


#: Full built-in catalog, in rule-id order.
BUILTIN_CODE_RULES: tuple[type[CodeRule], ...] = (
    AdHocSeedingRule,
    BareExceptRule,
    UnboundedModuleCacheRule,
    UnguardedThreadLoopRule,
    UnstructuredOutputRule,
    ScenarioRngDisciplineRule,
    MissingClientTimeoutRule,
    WallClockDurationRule,
)


def lint_source(source: str, path: Path, rules: list[CodeRule] | None = None) -> list[Violation]:
    """Lint one module's source text; syntax errors become findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule_id="M3D200",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                location=f"{path}:{exc.lineno or 0}",
            )
        ]
    active = rules if rules is not None else [cls() for cls in BUILTIN_CODE_RULES]
    findings: list[Violation] = []
    for rule in active:
        findings.extend(rule.check(tree, path))
    return apply_suppressions(
        findings, source, path, active_rule_ids={rule.id for rule in active}
    )


def lint_paths(paths: list[Path], rules: list[CodeRule] | None = None) -> list[Violation]:
    """Lint every ``*.py`` file under the given files/directories."""
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[Violation] = []
    for f in files:
        findings.extend(lint_source(f.read_text(), f, rules=rules))
    return findings
