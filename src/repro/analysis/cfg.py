"""Per-function control-flow graphs for simlint's dataflow rules.

The CONC/RES rule families reason about *paths*: "is this lock released
on every exit?", "can an exception escape between acquiring a
``SharedMemory`` segment and registering it for cleanup?".  Those are
questions the per-file AST walker cannot answer — it sees structure, not
flow.  :func:`build_cfg` lowers one function body into a small
statement-granular control-flow graph with explicit *exceptional* edges,
which :mod:`repro.analysis.dataflow` then walks.

Design notes (deliberate over-approximations, all in the direction of
"more paths exist than really do"):

* Each simple statement is one node; compound statements contribute a
  node for their evaluated fragment only (an ``if``'s test, a ``for``'s
  iterable) — bodies are lowered recursively.
* A node *can raise* when its evaluated fragment contains a call,
  attribute access, subscript, arithmetic, or comparison; such nodes get
  an edge to the innermost exception target (handler dispatch, enclosing
  ``finally``, or the synthetic raise-exit).
* ``with`` blocks get explicit enter/exit nodes on both the normal and
  the exceptional path, so lock- and resource-analyses can key GEN/KILL
  facts to the ``withitem``.
* ``finally`` bodies are lowered once; their exit fans out to every
  continuation that routed through them (fall-through, re-raise,
  ``return``/``break``/``continue``).  This merges paths a real
  interpreter keeps separate — acceptable for leak/guard analyses, which
  only need "a path exists".
* A handler list without a catch-all (``except:``/``except Exception``/
  ``except BaseException``) also routes the exception onward — an
  uncaught kind keeps propagating.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

__all__ = ["CFG", "CFGNode", "build_cfg", "can_raise"]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Expression node types whose evaluation can raise at runtime.  Plain
#: name/constant traffic (``x = y``) cannot; anything that calls,
#: dereferences, indexes, or computes can.  Comprehensions run implicit
#: calls and iteration, so they count.
_RAISING_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.Compare,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Await,
)

#: Handler types treated as catching *everything* (so the exception does
#: not also propagate outward).  ``except Exception`` technically misses
#: ``KeyboardInterrupt``; treating it as a catch-all keeps the common
#: cleanup idiom from producing noise findings.
_CATCH_ALL_NAMES = frozenset({"BaseException", "Exception"})


def _node_can_raise(node: ast.AST) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False  # defining it raises nothing; the body runs elsewhere
    if isinstance(node, _RAISING_EXPRS) or isinstance(node, (ast.Raise, ast.Assert)):
        return True
    return any(_node_can_raise(child) for child in ast.iter_child_nodes(node))


def can_raise(nodes: Sequence[ast.AST]) -> bool:
    """Whether evaluating any of ``nodes`` can raise at runtime.

    Nested function/lambda definitions are not descended into: defining
    them raises nothing, and their bodies run elsewhere.
    """
    return any(_node_can_raise(root) for root in nodes)


@dataclass
class CFGNode:
    """One node of a function CFG.

    ``kind`` is one of ``entry`` / ``exit`` / ``raise_exit`` / ``stmt``
    / ``test`` / ``with_enter`` / ``with_exit`` / ``dispatch`` /
    ``finally`` — synthetic nodes carry no statement.  ``scan`` holds
    the AST fragments this node *evaluates* (what dataflow analyses
    should inspect); for compound statements that is the test/iterable
    only, never the body.
    """

    index: int
    kind: str
    node: Optional[ast.AST] = None
    scan: tuple[ast.AST, ...] = ()
    succs: list[int] = field(default_factory=list)
    #: Exceptional successors: taken when evaluating this node raises.
    exc_succs: list[int] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class CFG:
    """A function's control-flow graph; node 0/1/2 are entry/exit/raise."""

    nodes: list[CFGNode]
    func: FuncDef

    ENTRY = 0
    EXIT = 1
    RAISE_EXIT = 2

    def successors(self, index: int) -> list[tuple[int, bool]]:
        """All outgoing edges of ``index`` as ``(target, is_exceptional)``."""
        node = self.nodes[index]
        out = [(s, False) for s in node.succs]
        out.extend((s, True) for s in node.exc_succs)
        return out


@dataclass
class _Finally:
    """One pending ``finally`` block while lowering its ``try``."""

    enter: int
    #: Node indexes the finally's exit must fan out to (collected while
    #: lowering the protected region: fall-through, outer exception
    #: target, routed jumps).
    continuations: set[int] = field(default_factory=set)


@dataclass
class _Loop:
    """Jump targets of the innermost enclosing loop."""

    continue_target: int
    break_collector: list[int]
    #: Finally stack depth at loop entry — jumps route through finallys
    #: pushed *after* this depth.
    finally_depth: int


class _Builder:
    """Recursive-descent lowering of one function body."""

    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.nodes: list[CFGNode] = []
        self._new("entry")
        self._new("exit")
        self._new("raise_exit")
        #: Innermost-last exception targets (dispatch/finally/raise-exit).
        self._exc_stack: list[int] = [CFG.RAISE_EXIT]
        self._finally_stack: list[_Finally] = []
        self._loops: list[_Loop] = []
        #: Frontier: nodes whose normal successor is the next lowered node.
        self._frontier: list[int] = [CFG.ENTRY]

    # -- plumbing ------------------------------------------------------- #

    def _new(
        self,
        kind: str,
        node: Optional[ast.AST] = None,
        scan: tuple[ast.AST, ...] = (),
    ) -> int:
        idx = len(self.nodes)
        self.nodes.append(CFGNode(index=idx, kind=kind, node=node, scan=scan))
        return idx

    def _link(self, sources: Sequence[int], target: int) -> None:
        for src in sources:
            if target not in self.nodes[src].succs:
                self.nodes[src].succs.append(target)

    def _place(self, idx: int) -> None:
        """Attach ``idx`` after the current frontier and make it the frontier."""
        self._link(self._frontier, idx)
        self._frontier = [idx]

    def _maybe_raise(self, idx: int) -> None:
        node = self.nodes[idx]
        if node.scan and can_raise(node.scan):
            target = self._exc_stack[-1]
            if target not in node.exc_succs:
                node.exc_succs.append(target)
            if self._finally_stack and target == self._finally_stack[-1].enter:
                self._finally_stack[-1].continuations.add(self._outer_exc())

    def _outer_exc(self) -> int:
        """The exception target *outside* the innermost finally frame."""
        for target in reversed(self._exc_stack[:-1]):
            return target
        return CFG.RAISE_EXIT

    def _route_jump(self, source: int, target: int, through_depth: int) -> None:
        """Route a return/break/continue from ``source`` to ``target``
        through every finally pushed above ``through_depth``."""
        pending = self.nodes[source]
        chain = self._finally_stack[through_depth:]
        if not chain:
            if target not in pending.succs:
                pending.succs.append(target)
            return
        # Innermost finally first; each finally continues into the next
        # one outward, the outermost continues to the jump target.
        first = chain[-1]
        if first.enter not in pending.succs:
            pending.succs.append(first.enter)
        for inner, outer in zip(reversed(chain), list(reversed(chain))[1:]):
            inner.continuations.add(outer.enter)
        chain[0].continuations.add(target)

    # -- statements ----------------------------------------------------- #

    def lower(self) -> CFG:
        self._body(self.func.body)
        self._link(self._frontier, CFG.EXIT)
        return CFG(nodes=self.nodes, func=self.func)

    def _body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if not self._frontier:
                break  # unreachable code after return/raise/break
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loop(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, ast.Match):
            self._match(stmt)
        elif isinstance(stmt, ast.Return):
            scan = (stmt.value,) if stmt.value is not None else ()
            idx = self._new("stmt", stmt, scan)
            self._place(idx)
            self._maybe_raise(idx)
            self._route_jump(idx, CFG.EXIT, 0)
            self._frontier = []
        elif isinstance(stmt, ast.Raise):
            idx = self._new("stmt", stmt, tuple(n for n in (stmt.exc, stmt.cause) if n))
            self._place(idx)
            target = self._exc_stack[-1]
            self.nodes[idx].exc_succs.append(target)
            if self._finally_stack and target == self._finally_stack[-1].enter:
                self._finally_stack[-1].continuations.add(self._outer_exc())
            self._frontier = []
        elif isinstance(stmt, ast.Break):
            idx = self._new("stmt", stmt)
            self._place(idx)
            if self._loops:
                loop = self._loops[-1]
                collector = self._new("stmt")  # landing pad after the loop
                loop.break_collector.append(collector)
                self._route_jump(idx, collector, loop.finally_depth)
            self._frontier = []
        elif isinstance(stmt, ast.Continue):
            idx = self._new("stmt", stmt)
            self._place(idx)
            if self._loops:
                loop = self._loops[-1]
                self._route_jump(idx, loop.continue_target, loop.finally_depth)
            self._frontier = []
        else:
            # Simple statement (assign, expr, import, def, ...): one node.
            idx = self._new("stmt", stmt, (stmt,))
            self._place(idx)
            self._maybe_raise(idx)

    def _if(self, stmt: ast.If) -> None:
        test = self._new("test", stmt, (stmt.test,))
        self._place(test)
        self._maybe_raise(test)
        after: list[int] = []
        self._frontier = [test]
        self._body(stmt.body)
        after.extend(self._frontier)
        self._frontier = [test]
        if stmt.orelse:
            self._body(stmt.orelse)
            after.extend(self._frontier)
        else:
            after.append(test)
        self._frontier = after

    def _match(self, stmt: ast.Match) -> None:
        head = self._new("test", stmt, (stmt.subject,))
        self._place(head)
        self._maybe_raise(head)
        after: list[int] = [head]  # no case may match
        for case in stmt.cases:
            self._frontier = [head]
            self._body(case.body)
            after.extend(self._frontier)
        self._frontier = after

    def _loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor]) -> None:
        if isinstance(stmt, ast.While):
            scan: tuple[ast.AST, ...] = (stmt.test,)
        else:
            scan = (stmt.iter, stmt.target)
        head = self._new("test", stmt, scan)
        self._place(head)
        self._maybe_raise(head)
        loop = _Loop(
            continue_target=head,
            break_collector=[],
            finally_depth=len(self._finally_stack),
        )
        self._loops.append(loop)
        self._frontier = [head]
        self._body(stmt.body)
        self._link(self._frontier, head)  # back edge
        self._loops.pop()
        exits = [head, *loop.break_collector]
        self._frontier = exits
        if stmt.orelse:
            self._frontier = [head]
            self._body(stmt.orelse)
            self._frontier = [*self._frontier, *loop.break_collector]

    def _with(self, stmt: Union[ast.With, ast.AsyncWith]) -> None:
        self._with_items(stmt, 0)

    def _with_items(self, stmt: Union[ast.With, ast.AsyncWith], i: int) -> None:
        if i >= len(stmt.items):
            self._body(stmt.body)
            return
        item = stmt.items[i]
        scan: tuple[ast.AST, ...] = (item.context_expr,)
        if item.optional_vars is not None:
            scan = (item.context_expr, item.optional_vars)
        enter = self._new("with_enter", item, scan)
        self._place(enter)
        self._maybe_raise(enter)
        # Exceptions inside the body run __exit__ before propagating.
        exc_exit = self._new("with_exit", item)
        self.nodes[exc_exit].succs.append(self._exc_stack[-1])
        if self._finally_stack and self._exc_stack[-1] == self._finally_stack[-1].enter:
            self._finally_stack[-1].continuations.add(self._outer_exc())
        self._exc_stack.append(exc_exit)
        self._with_items(stmt, i + 1)
        self._exc_stack.pop()
        norm_exit = self._new("with_exit", item)
        self._link(self._frontier, norm_exit)
        self._frontier = [norm_exit]

    def _try(self, stmt: ast.Try) -> None:
        fin: Optional[_Finally] = None
        if stmt.finalbody:
            fin = _Finally(enter=self._new("finally", stmt))
            self._finally_stack.append(fin)
            self._exc_stack.append(fin.enter)

        after: list[int] = []
        if stmt.handlers:
            dispatch = self._new("dispatch", stmt)
            self._exc_stack.append(dispatch)
            self._body(stmt.body)
            self._exc_stack.pop()
            body_exits = list(self._frontier)
            if stmt.orelse:
                self._frontier = body_exits
                self._body(stmt.orelse)
                body_exits = list(self._frontier)
            after.extend(body_exits)
            caught_all = False
            for handler in stmt.handlers:
                if _is_catch_all(handler):
                    caught_all = True
                h_entry = self._new("stmt", handler, tuple(
                    n for n in (handler.type,) if n is not None
                ))
                self.nodes[dispatch].succs.append(h_entry)
                self._frontier = [h_entry]
                self._body(handler.body)
                after.extend(self._frontier)
            if not caught_all:
                # An uncaught kind keeps propagating outward.
                target = self._exc_stack[-1]
                self.nodes[dispatch].succs.append(target)
                if fin is not None and target == fin.enter:
                    fin.continuations.add(self._outer_exc())
        else:
            self._body(stmt.body)
            after.extend(self._frontier)
            if stmt.orelse:
                self._frontier = after
                self._body(stmt.orelse)
                after = list(self._frontier)

        if fin is not None:
            self._finally_stack.pop()
            self._exc_stack.pop()
            # Normal fall-through also runs the finally.
            self._link(after, fin.enter)
            # The pad must be held locally: a try/finally nested inside
            # *this* finally body allocates its own pad, and resuming
            # from that inner pad would dead-end the outer continuation.
            pad = self._fresh_after()
            fin.continuations.add(pad)
            self._frontier = [fin.enter]
            self._body(stmt.finalbody)
            fin_exits = list(self._frontier)
            for continuation in sorted(fin.continuations):
                self._link(fin_exits, continuation)
            # Resume lowering from the landing pad created above.
            self._frontier = [pad]
        else:
            self._frontier = after

    def _fresh_after(self) -> int:
        """A landing-pad node for code following a try/finally."""
        return self._new("stmt")


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    node = handler.type
    if isinstance(node, ast.Name):
        return node.id in _CATCH_ALL_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _CATCH_ALL_NAMES
    return False


def build_cfg(func: FuncDef) -> CFG:
    """Lower ``func``'s body to a :class:`CFG`."""
    return _Builder(func).lower()
