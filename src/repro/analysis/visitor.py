"""Single-pass AST walker and per-file analysis context.

One parse, one walk: the :class:`Walker` visits every node once and
dispatches to each rule's ``check_<NodeType>`` hooks, sharing the
bookkeeping every rule needs — import aliases, the enclosing
class/function stacks, scheduler-class detection, and inline-suppression
handling — so individual rules stay small and declarative.

Inline suppression
------------------
A trailing ``# simlint: disable=<RULE>[,<RULE>...]`` comment suppresses the
listed rules (or ``all``) on that physical line.  Prose after the id
list ("-- audited because ...") is ignored, so the justification can
live in the directive itself.  Unknown rule ids in a directive are
themselves reported (:data:`~repro.analysis.registry.META_RULE_ID`)
— a typo in a suppression must not silently disable nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .config import LintConfig
from .findings import Finding, Severity
from .registry import META_RULE_ID, RuleInfo, RuleRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import CallGraph
    from .dataflow import RawFinding

__all__ = ["LintRule", "FileContext", "Walker", "parse_suppressions"]

# Ids are comma-separated; anything after the id list (a justification,
# "-- see audit note") is deliberately not captured.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: ``datetime``-module calls that read the host clock.
WALLCLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: The paper's narrow scheduler-plugin contract (Section III-B).
CHOOSE_METHODS = frozenset({"choose_next_map_task", "choose_next_reduce_task"})

#: Scheduler-contract entry points the engine invokes on valid traces;
#: API002 checks their (transitive) callees for undeclared raises.
CONTRACT_METHODS = CHOOSE_METHODS | frozenset({
    "priority_key", "preemption_requests", "on_job_arrival", "on_job_departure",
})

#: Function names that embody a scheduling / tie-breaking decision.
DECISION_FUNC_RE = re.compile(
    r"^(choose_next_|_choose\b|choose\b|priority_key$|preemption_requests$"
    r"|_allocate|tie_break|_tie_break)"
)


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line number -> set of rule ids disabled on that line."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
            if ids:
                out[lineno] = ids
    return out


@dataclass
class ClassInfo:
    """Facts about the class currently being visited."""

    node: ast.ClassDef
    base_names: tuple[str, ...]
    is_scheduler: bool
    declares_static_priority: bool = False
    inherits_static_priority: bool = False
    has_priority_key: bool = False
    own_choose_defs: list[ast.FunctionDef] = field(default_factory=list)

    @property
    def static_priority(self) -> bool:
        return self.declares_static_priority or self.inherits_static_priority


@dataclass
class FunctionInfo:
    """Facts about the function currently being visited."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    name: str
    is_choose: bool
    is_handler: bool
    is_decision: bool
    #: A scheduler-contract entry point (choose_next_*, priority_key,
    #: preemption_requests, on_job_*) defined on a scheduler class.
    is_contract: bool = False
    #: Names bound (directly or via min/max/sorted/next/for) from the
    #: job-queue parameter of a ``choose_next_*`` method.
    jobish_names: set[str] = field(default_factory=set)


class FileContext:
    """Everything rules need to know about the file under analysis."""

    def __init__(
        self,
        path: str,
        source: str,
        config: LintConfig,
        registry: RuleRegistry,
        callgraph: "Optional[CallGraph]" = None,
        program_findings: "Optional[list[RawFinding]]" = None,
        suppressions: Optional[dict[int, set[str]]] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.config = config
        self.registry = registry
        #: Whole-program call graph (DET004/SIM004/API002); ``None`` when
        #: the caller did not build one — cross-module rules then no-op.
        self.callgraph = callgraph
        #: Whole-program CONC/RES findings for *this* path, computed by
        #: the runner over the finalized graph; the thin rule classes
        #: replay them through :meth:`report` so config selection and
        #: inline suppression apply like any per-file finding.
        self.program_findings = program_findings or []
        self.findings: list[Finding] = []
        # The runner parses suppressions once per file and shares the
        # result here and with the call graph; standalone construction
        # still parses its own.
        self.suppressions = (
            suppressions if suppressions is not None else parse_suppressions(source)
        )
        # Import alias tracking: local name -> dotted module/object path.
        self.aliases: dict[str, str] = {}
        self.class_stack: list[ClassInfo] = []
        self.func_stack: list[FunctionInfo] = []
        self.is_sim_path = config.is_sim_path(path)
        self.is_test_path = config.is_test_path(path)
        self.is_timing_whitelisted = config.is_timing_whitelisted(path)
        self._check_suppression_ids()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def report(
        self,
        info: RuleInfo,
        node: ast.AST,
        message: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> None:
        """File a finding for ``info`` at ``node`` unless suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if not self.config.is_enabled(info.rule_id):
            return
        disabled = self.suppressions.get(line, ())
        if info.rule_id in disabled or "all" in disabled:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                rule_id=info.rule_id,
                severity=info.severity,
                message=message if message is not None else info.title,
                hint=hint if hint is not None else info.hint,
            )
        )

    def report_meta(self, line: int, message: str) -> None:
        """File a LINT000 meta finding (bad directive / unparsable file)."""
        if not self.config.is_enabled(META_RULE_ID):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=1,
                rule_id=META_RULE_ID,
                severity=Severity.ERROR,
                message=message,
                hint=self.registry.info(META_RULE_ID).hint,
            )
        )

    def _check_suppression_ids(self) -> None:
        for line, ids in sorted(self.suppressions.items()):
            for rule_id in sorted(ids):
                if rule_id != "all" and rule_id not in self.registry:
                    self.report_meta(
                        line,
                        f"unknown rule id {rule_id!r} in simlint directive; "
                        f"known: {', '.join(self.registry.known_ids())} or 'all'",
                    )

    # ------------------------------------------------------------------ #
    # name resolution
    # ------------------------------------------------------------------ #

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve ``Name``/``Attribute`` chains through import aliases.

        ``_time.perf_counter`` (after ``import time as _time``) resolves
        to ``"time.perf_counter"``; ``rng.random`` (a local variable)
        resolves to ``None`` — locals are not modules.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def record_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                self.aliases[local] = target
        else:
            if node.module is None or node.level:
                return  # relative imports are in-package, never time/random
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------------ #
    # scope queries used by rules
    # ------------------------------------------------------------------ #

    @property
    def current_class(self) -> Optional[ClassInfo]:
        return self.class_stack[-1] if self.class_stack else None

    def in_scheduler_class(self) -> bool:
        return any(c.is_scheduler for c in self.class_stack)

    def in_sim_scope(self) -> bool:
        """Is this node inside simulation logic (for DET001)?

        True when the file lives under a configured simulation path, or
        — regardless of path — inside a scheduler class or an event
        handler, so plugin files anywhere are still covered.
        """
        if self.is_timing_whitelisted:
            return False
        if self.is_sim_path:
            return True
        if self.in_scheduler_class():
            return True
        return any(f.is_handler or f.is_decision for f in self.func_stack)

    def in_decision_scope(self) -> bool:
        return any(f.is_decision for f in self.func_stack)

    def in_choose_method(self) -> Optional[FunctionInfo]:
        for f in reversed(self.func_stack):
            if f.is_choose:
                return f
        return None

    def in_contract_method(self) -> Optional[FunctionInfo]:
        for f in reversed(self.func_stack):
            if f.is_contract:
                return f
        return None

    def program_findings_for(self, rule_id: str) -> "list[RawFinding]":
        return [raw for raw in self.program_findings if raw.rule_id == rule_id]


class LintRule:
    """Base class for rules.

    Subclasses define ``check_<NodeType>(node, ctx)`` hooks; the walker
    calls them as it encounters matching nodes.  ``ClassDef`` hooks run
    *after* the class body was pre-scanned into :class:`ClassInfo` but
    before the body is visited; ``finish_ClassDef`` runs after the body.
    """

    info: RuleInfo  # injected by RuleRegistry.register

    def hooks(self) -> dict[str, "list"]:
        """Node-type name -> bound check methods, discovered by prefix."""
        out: dict[str, list] = {}
        for name in dir(self):
            if name.startswith(("check_", "finish_")):
                out.setdefault(name, []).append(getattr(self, name))
        return out


def _base_names(node: ast.ClassDef) -> tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _is_scheduler_class(bases: tuple[str, ...]) -> bool:
    return any(b == "Scheduler" or b.endswith("Scheduler") for b in bases)


_HANDLER_RE = re.compile(r"^_?on_[a-z]")


class Walker(ast.NodeVisitor):
    """Drives every rule over one file's AST in a single traversal."""

    def __init__(self, ctx: FileContext, rules: "list[LintRule]") -> None:
        self.ctx = ctx
        # hook name ("check_Call") -> list of bound rule methods.
        self._hooks: dict[str, list] = {}
        for rule in rules:
            for name, fns in rule.hooks().items():
                self._hooks.setdefault(name, []).extend(fns)

    def run(self, tree: ast.Module) -> None:
        # Module-level hooks bracket the walk; the whole-program rule
        # shims (CONC/RES replay) hang off check_Module.
        self._dispatch("check", tree)
        self.visit(tree)
        self._dispatch("finish", tree)

    def _dispatch(self, phase: str, node: ast.AST) -> None:
        for fn in self._hooks.get(f"{phase}_{type(node).__name__}", ()):
            fn(node, self.ctx)

    # ------------------------------------------------------------------ #
    # structure-tracking visits
    # ------------------------------------------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        self.ctx.record_import(node)
        self._dispatch("check", node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.ctx.record_import(node)
        self._dispatch("check", node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = _base_names(node)
        info = ClassInfo(
            node=node,
            base_names=bases,
            is_scheduler=_is_scheduler_class(bases) or node.name.endswith("Scheduler"),
            inherits_static_priority="StaticPriorityScheduler" in bases,
        )
        # Pre-scan the class body so rules see the whole contract at once.
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "static_priority"
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is True
                    ):
                        info.declares_static_priority = True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "static_priority"
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is True
                ):
                    info.declares_static_priority = True
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "priority_key":
                    info.has_priority_key = True
                elif stmt.name in CHOOSE_METHODS:
                    info.own_choose_defs.append(stmt)  # type: ignore[arg-type]
        self.ctx.class_stack.append(info)
        self._dispatch("check", node)
        self.generic_visit(node)
        self._dispatch("finish", node)
        self.ctx.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        in_class = bool(self.ctx.class_stack) and not self.ctx.func_stack
        is_choose = in_class and node.name in CHOOSE_METHODS
        info = FunctionInfo(
            node=node,
            name=node.name,
            is_choose=is_choose,
            is_handler=in_class and bool(_HANDLER_RE.match(node.name)),
            is_decision=bool(DECISION_FUNC_RE.match(node.name)),
            is_contract=(
                in_class
                and node.name in CONTRACT_METHODS
                and self.ctx.in_scheduler_class()
            ),
        )
        if is_choose:
            # The job-queue parameter: everything flowing out of it is an
            # engine-owned Job (tracked for SIM002's mutation checks).
            params = [a.arg for a in node.args.args if a.arg != "self"]
            if params:
                info.jobish_names.add(params[0])
        self.ctx.func_stack.append(info)
        self._dispatch("check", node)
        self.generic_visit(node)
        self._dispatch("finish", node)
        self.ctx.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_For(self, node: ast.For) -> None:
        self._track_jobish_binding(node.target, node.iter)
        self._dispatch("check", node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            self._track_jobish_binding(node.targets[0], node.value)
        self._dispatch("check", node)
        self.generic_visit(node)

    def _track_jobish_binding(self, target: ast.AST, value: ast.AST) -> None:
        """Propagate job-ness: ``for j in queue`` / ``j = min(queue, ...)``."""
        fn = self.ctx.in_choose_method()
        if fn is None or not isinstance(target, ast.Name):
            return
        source = value
        if (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Name)
            and source.func.id in {"min", "max", "sorted", "next", "list", "reversed"}
            and source.args
        ):
            source = source.args[0]
        if isinstance(source, ast.Name) and source.id in fn.jobish_names:
            fn.jobish_names.add(target.id)

    # ------------------------------------------------------------------ #
    # plain dispatch visits
    # ------------------------------------------------------------------ #

    def _plain(self, node: ast.AST) -> None:
        self._dispatch("check", node)
        self.generic_visit(node)

    visit_Call = _plain
    visit_Compare = _plain
    visit_AugAssign = _plain
    # ``comprehension`` nodes (the ``for x in y`` clauses of list/set/
    # dict comprehensions and generator expressions) are reached through
    # generic_visit and dispatch like any other node type.
    visit_comprehension = _plain
