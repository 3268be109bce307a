"""EL7xx — commit-protocol effect ordering for the pipelined write path.

Recovery correctness rests on a strict effect order: WAL bytes hit the
host (``wal.write``), are made durable (``wal.fsync`` or an epoch roll),
and only then may a seal advertise them (``seal`` — the monotonic-
counter commit every verifier trusts).  Likewise a seal taken after a
flush install must carry the advanced ``flushed_ts``, or recovery
replays records the flush already persisted.  The ``[protocol]`` table
in ``analysis/zones.toml`` declares the effect alphabet (call patterns
and effect-attributes) and the happens-before rules; this checker walks
every function matching ``protocol.functions`` and validates each rule
intraprocedurally:

* **EL701** — a ``requires`` rule violated: the effect occurs with none
  of its prerequisite alternatives established (``reset-by`` effects
  un-establish them, so an un-fsynced append poisons a stale fsync);
  or a ``before-return`` rule violated: the function can return with
  the follow-up effect outstanding.
* **EL702** — same machinery, reserved for the ``flushed_ts`` advance:
  a seal in a flush path (``when flush.install``) without the advance.
* **EL703** — crash-point coverage: every path between two *distinct*
  durable effects must cross a named ``crash_point`` (the EL302/303
  bijection stays honest — if a state transition cannot be crashed
  into, the recovery tests cannot witness it).

Branches join conservatively (established = intersection, pending
crash-coverage = union); an ``if`` whose test names a declared guard
terminal (``if self.wal is not None: ... sync()``) establishes the
guarded effect at the join — the else-branch is vacuously ordered.

Calls into other in-scope functions are handled with a *sentinel
summary*: the callee's own abstract walk runs once (memoized) with a
sentinel marker as the incoming pending set, recording which of the
callee's durable effects can meet un-crash-covered caller state, what
the callee leaves pending at return, and what it establishes.  The
summary is branch-aware — a helper like ``_commit``, crash-pointed on
both sides of its hook, is correctly seen to absorb pending durable
effects — while each function's *internal* violations are still
reported exactly once, by its own analysis.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, _chain_of, _terminals, get_callgraph
from repro.analysis.engine import ProjectIndex
from repro.analysis.model import Finding, Severity
from repro.analysis.taint import Matcher
from repro.analysis.zones import OrderRule, ProtocolConfig

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Marker for "whatever the caller had pending" in sentinel summaries.
_SENT = "\x00incoming"


@dataclass
class _Summary:
    """Branch-aware carrier behaviour of one in-scope function."""

    #: Durable effects that can meet uncovered incoming pending state.
    paired: set[str] = field(default_factory=set)
    #: Pending set at return (may contain the sentinel: the callee is
    #: transparent to incoming pending on at least one path).
    end_pending: set[str] = field(default_factory=lambda: {_SENT})
    #: Effects established on every path.
    end_established: set[str] = field(default_factory=set)

    @property
    def consumes(self) -> bool:
        """Every path crash-covers incoming pending before any durable."""
        return not self.paired and _SENT not in self.end_pending


@dataclass
class _State:
    """Abstract state while walking one function body."""

    established: set[str] = field(default_factory=set)
    #: Durable effects awaiting a crash point (EL703); a set because
    #: branch joins union.
    pending: set[str] = field(default_factory=set)
    #: Outstanding before-return obligations, by rule index.
    owed: set[int] = field(default_factory=set)

    def copy(self) -> "_State":
        return _State(set(self.established), set(self.pending), set(self.owed))


def _join(a: _State, b: _State) -> _State:
    return _State(
        established=a.established & b.established,
        pending=a.pending | b.pending,
        owed=a.owed | b.owed,
    )


class ProtocolAnalysis:
    def __init__(self, index: ProjectIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.cfg: ProtocolConfig = index.config.protocol
        self.findings: list[Finding] = []
        self.matchers = {
            effect: Matcher(patterns)
            for effect, patterns in self.cfg.effects.items()
        }
        self.attr_effects = {
            attr: effect
            for effect, attrs in self.cfg.effect_attrs.items()
            for attr in attrs
        }
        self.durable = set(self.cfg.durable)
        self.requires_rules = [r for r in self.cfg.order if r.kind == "requires"]
        self.br_rules = [r for r in self.cfg.order if r.kind == "before-return"]
        self._summaries: dict[str, _Summary] = {}
        self._in_progress: set[str] = set()
        # Per-walk context (swapped when computing sentinel summaries).
        self._qual = ""
        self._module = None
        self._context: set[str] = set()
        self._br_active: list[int] = []
        self._sentinel_mode = False
        self._sentinel_paired: set[str] = set()

    # ------------------------------------------------------------------
    def _in_scope(self, qual: str) -> bool:
        return any(fnmatch.fnmatchcase(qual, p) for p in self.cfg.functions)

    def _effects_of_call(self, call: ast.Call) -> tuple[set[str], str | None]:
        """(matched effects, resolved in-scope callee qualname)."""
        site = self.graph.calls.get(id(call))
        target = site.target if site else None
        display = site.display if site else ".".join(_chain_of(call.func))
        effects = {
            effect
            for effect, matcher in self.matchers.items()
            if matcher.match(target, display or None)
        }
        callee = (
            target
            if target
            and target in self.graph.functions
            and self._in_scope(target)
            else None
        )
        return effects, callee

    def _effects_of_stmt_targets(self, stmt: ast.stmt) -> list[tuple[str, int]]:
        """Effect-attribute assignments in one statement."""
        out: list[tuple[str, int]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in self.attr_effects:
                out.append((self.attr_effects[target.attr], target.lineno))
        return out

    # ------------------------------------------------------------------
    # Sentinel summaries
    # ------------------------------------------------------------------
    def _summary(self, qual: str) -> _Summary:
        cached = self._summaries.get(qual)
        if cached is not None:
            return cached
        if qual in self._in_progress:
            return _Summary()  # recursion: pending-transparent fallback
        self._in_progress.add(qual)
        saved = (
            self._qual,
            self._module,
            self._context,
            self._br_active,
            self._sentinel_mode,
            self._sentinel_paired,
        )
        fn = self.graph.functions[qual]
        self._qual = qual
        self._module = self.index.modules[fn.module]
        self._context = self._function_context(fn.node)
        self._br_active = []
        self._sentinel_mode = True
        self._sentinel_paired = set()
        state = self._walk(fn.node.body, _State(pending={_SENT}))
        summary = _Summary(
            paired=set(self._sentinel_paired),
            end_pending=set(state.pending),
            end_established=set(state.established),
        )
        (
            self._qual,
            self._module,
            self._context,
            self._br_active,
            self._sentinel_mode,
            self._sentinel_paired,
        ) = saved
        self._in_progress.discard(qual)
        self._summaries[qual] = summary
        return summary

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        if not self.cfg.enabled:
            return []
        for qual in sorted(self.graph.functions):
            if self._in_scope(qual):
                self._check_function(qual)
        unique = {(f.rule, f.path, f.line, f.message): f for f in self.findings}
        return sorted(
            unique.values(), key=lambda f: (f.path, f.line, f.rule, f.message)
        )

    def _check_function(self, qual: str) -> None:
        fn = self.graph.functions[qual]
        self._qual = qual
        self._module = self.index.modules[fn.module]
        self._context = self._function_context(fn.node)
        self._br_active = [
            i
            for i, rule in enumerate(self.br_rules)
            if fnmatch.fnmatchcase(qual, rule.scope or "*")
        ]
        self._sentinel_mode = False
        state = self._walk(fn.node.body, _State())
        self._check_owed(state, fn.node.lineno, at_return=False)

    def _function_context(self, fn_node: ast.AST) -> set[str]:
        """Every effect occurring anywhere in the body (``when`` gating)."""
        context: set[str] = set()
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Call):
                effects, _ = self._effects_of_call(node)
                context |= effects
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                context |= {e for e, _ in self._effects_of_stmt_targets(node)}
        return context

    def _emit(self, rule: str, line: int, message: str) -> None:
        if self._sentinel_mode:
            return  # callee-internal findings come from its own analysis
        self.findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                path=self._module.relpath,
                line=line,
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # Effect application
    # ------------------------------------------------------------------
    def _apply_effect(self, effect: str, line: int, state: _State) -> None:
        for rule in self.requires_rules:
            if rule.effect != effect:
                continue
            if rule.when is not None and rule.when not in self._context:
                continue
            if not any(alt in state.established for alt in rule.requires):
                alts = "|".join(rule.requires)
                self._emit(
                    rule.rule,
                    line,
                    f"{effect} in {self._qual} without a preceding {alts}"
                    + (
                        f" (required when {rule.when} occurs)"
                        if rule.when
                        else ""
                    )
                    + f"; ordering rule: {rule.raw}",
                )
        for rule in self.requires_rules:
            if effect in rule.reset_by:
                state.established.difference_update(rule.requires)
        state.established.add(effect)
        for i in self._br_active:
            rule = self.br_rules[i]
            if effect == rule.effect:
                state.owed.add(i)
            if effect == rule.then:
                state.owed.discard(i)
        if effect in self.durable:
            for prior in sorted(state.pending):
                if prior == effect:
                    continue
                if prior == _SENT:
                    self._sentinel_paired.add(effect)
                    continue
                self._emit(
                    "EL703",
                    line,
                    f"durable effects {prior} and {effect} in {self._qual} "
                    f"with no crash_point between them; the fault plan "
                    f"cannot witness the intermediate state",
                )
            state.pending = {effect}

    def _apply_call(self, call: ast.Call, state: _State) -> None:
        effects, callee = self._effects_of_call(call)
        if "crash_point" in effects:
            state.pending.clear()
            state.established.add("crash_point")
            return
        summary = self._summary(callee) if callee else None
        if summary is not None and summary.consumes:
            state.pending.clear()
        if effects:
            for effect in sorted(effects):
                self._apply_effect(effect, call.lineno, state)
            if summary is not None and not summary.end_pending:
                # The callee ends crash-covered on every path, so nothing
                # (including the effect this call models) stays pending.
                state.pending.clear()
            return
        if summary is None:
            return
        if summary.paired and state.pending:
            for prior in sorted(state.pending):
                for durable in sorted(summary.paired):
                    if prior == durable:
                        continue
                    if prior == _SENT:
                        self._sentinel_paired.add(durable)
                        continue
                    self._emit(
                        "EL703",
                        call.lineno,
                        f"durable effects {prior} and {durable} "
                        f"(inside {callee.rsplit('.', 1)[-1]}) with no "
                        f"crash_point between them in {self._qual}; the "
                        f"fault plan cannot witness the intermediate state",
                    )
        new_pending = set(summary.end_pending) - {_SENT}
        if _SENT in summary.end_pending:
            new_pending |= state.pending
        state.pending = new_pending
        state.established |= summary.end_established - {_SENT}

    # ------------------------------------------------------------------
    # Abstract walk
    # ------------------------------------------------------------------
    def _walk(self, stmts: list[ast.stmt], state: _State) -> _State:
        for stmt in stmts:
            state = self._walk_stmt(stmt, state)
        return state

    def _eval_exprs(self, node: ast.stmt | ast.expr, state: _State) -> None:
        """Apply call effects in source order within one simple node."""
        calls = [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            self._apply_call(call, state)

    def _walk_stmt(self, stmt: ast.stmt, state: _State) -> _State:
        if isinstance(stmt, ast.If):
            self._eval_exprs(stmt.test, state)
            terminals = _terminals(stmt.test)
            body_state = self._walk(stmt.body, state.copy())
            else_state = self._walk(stmt.orelse, state.copy())
            joined = _join(body_state, else_state)
            for effect in body_state.established - joined.established:
                if set(self.cfg.guards.get(effect, ())) & terminals:
                    joined.established.add(effect)
            return joined
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval_exprs(stmt.iter, state)
            once = self._walk(stmt.body, state.copy())
            twice = self._walk(stmt.body, once.copy())  # back-edge pairs
            return self._walk(stmt.orelse, _join(state, twice))
        if isinstance(stmt, ast.While):
            self._eval_exprs(stmt.test, state)
            once = self._walk(stmt.body, state.copy())
            twice = self._walk(stmt.body, once.copy())  # back-edge pairs
            return self._walk(stmt.orelse, _join(state, twice))
        if isinstance(stmt, ast.Try):
            joined = self._walk(stmt.body, state.copy())
            for handler in stmt.handlers:
                joined = _join(joined, self._walk(handler.body, state.copy()))
            joined = self._walk(stmt.orelse, joined)
            return self._walk(stmt.finalbody, joined)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval_exprs(item.context_expr, state)
            return self._walk(stmt.body, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval_exprs(stmt.value, state)
            self._check_owed(state, stmt.lineno, at_return=True)
            return state
        if isinstance(stmt, _FuncDef + (ast.ClassDef,)):
            return state  # nested scopes are analyzed on their own
        # Simple statement: calls first, then effect-attribute stores.
        self._eval_exprs(stmt, state)
        for effect, line in self._effects_of_stmt_targets(stmt):
            self._apply_effect(effect, line, state)
        return state

    def _check_owed(self, state: _State, line: int, at_return: bool) -> None:
        for i in sorted(state.owed):
            rule = self.br_rules[i]
            where = "returns" if at_return else "ends"
            self._emit(
                rule.rule,
                line,
                f"{self._qual} {where} with {rule.effect} not followed by "
                f"{rule.then}; ordering rule: {rule.raw}",
            )
        state.owed.clear()


def run_protocol(index: ProjectIndex) -> list[Finding]:
    """Entry point: EL701–EL703 over the indexed project."""
    if not index.config.protocol.enabled:
        return []
    analysis = ProtocolAnalysis(index, get_callgraph(index))
    return analysis.run()
