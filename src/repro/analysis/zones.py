"""Zone classification: which side of the trust boundary a module is on.

The paper's architecture splits the codebase in three (Section 4):

* **enclave** — code that runs inside the enclave and handles trusted
  state (verifier, digest registry, Merkle forest, sealing, crypto);
* **untrusted** — the host side: provers, block fetchers, caches, the
  simulated disk — everything an adversary controls;
* **boundary** — the ECall/OCall shims (:mod:`repro.sgx.env`,
  :mod:`repro.sgx.boundary`) which are the *only* sanctioned way for
  enclave code to touch untrusted bytes.

Everything else is **neutral**: pure data codecs, orchestration that
legitimately spans both worlds (the stores), telemetry, tooling.  The
mapping lives in a checked-in ``analysis/zones.toml`` so refactors that
move a module across the boundary are a reviewed one-line diff, not an
implicit re-classification.

Patterns are dotted module names with ``fnmatch`` globs; an exact entry
beats a glob, and among globs the longest pattern wins.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11: fall back to the mini-parser
    tomllib = None
from enum import Enum
from pathlib import Path


class Zone(str, Enum):
    ENCLAVE = "enclave"
    UNTRUSTED = "untrusted"
    BOUNDARY = "boundary"
    NEUTRAL = "neutral"


DEFAULT_CONFIG_RELPATH = Path("analysis") / "zones.toml"


@dataclass
class TaintConfig:
    """The ``[taint]`` section: sources, sanitizers and sinks for EL5xx.

    Every entry is an ``fnmatch`` pattern matched against the *resolved*
    qualified name of a call/attribute when the call graph can resolve
    it, and against the syntactic dotted form (``env.copy_in``) as a
    fallback; a pattern without dots also matches as a dotted suffix
    (``copy_in`` matches ``repro.sgx.env.ExecutionEnv.copy_in``).
    """

    #: Calls whose result is attacker-influenced host data.
    untrusted_calls: list[str] = field(default_factory=list)
    #: Attribute reads that yield host data (proof pools, raw blobs).
    untrusted_attrs: list[str] = field(default_factory=list)
    #: Functions whose (non-self) parameters arrive from the host.
    untrusted_params: list[str] = field(default_factory=list)
    #: Calls whose result is enclave secret material.
    secret_calls: list[str] = field(default_factory=list)
    #: Attribute reads that yield secret material (sealing keys).
    secret_attrs: list[str] = field(default_factory=list)
    #: Calls that launder UNTRUSTED (verification against a trusted root).
    sanitizers: list[str] = field(default_factory=list)
    #: Calls that launder SECRET (sealing/hashing is the sanctioned exit).
    declassifiers: list[str] = field(default_factory=list)
    #: Trusted-state writes that must never receive UNTRUSTED (EL501).
    trusted_sinks: list[str] = field(default_factory=list)
    #: Host-visible outputs that must never receive SECRET (EL502).
    untrusted_sinks: list[str] = field(default_factory=list)
    #: Verification calls whose result must not be discarded (EL503).
    verifiers: list[str] = field(default_factory=list)


#: Legal ownership tokens for ``[concurrency]`` ``shared`` entries.
_OWNERSHIP = re.compile(
    r"^(lock:[A-Za-z_]\w*"
    r"|single-writer:(foreground|background)"
    r"|event-handoff"
    r"|frozen-after-publish)$"
)

#: ``ELnnn: B requires A1|A2 [when C] [reset-by R1|R2]``
_ORDER_REQUIRES = re.compile(
    r"^(?P<rule>EL\d{3}):\s*(?P<effect>[\w.]+)\s+requires\s+"
    r"(?P<requires>[\w.]+(?:\s*\|\s*[\w.]+)*)"
    r"(?:\s+when\s+(?P<when>[\w.]+))?"
    r"(?:\s+reset-by\s+(?P<reset>[\w.]+(?:\s*\|\s*[\w.]+)*))?$"
)

#: ``ELnnn: A then B before-return in <fn-glob>``
_ORDER_BEFORE_RETURN = re.compile(
    r"^(?P<rule>EL\d{3}):\s*(?P<effect>[\w.]+)\s+then\s+(?P<then>[\w.]+)\s+"
    r"before-return\s+in\s+(?P<scope>\S+)$"
)


def _parse_assignments(entries: list[str], where: str) -> dict[str, str]:
    """``["a.b = rhs", ...]`` -> {"a.b": "rhs"}; malformed lines raise."""
    out: dict[str, str] = {}
    for entry in entries:
        key, sep, value = entry.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{where}: expected '<key> = <value>', got {entry!r}")
        if key in out:
            raise ValueError(f"{where}: duplicate key {key!r}")
        out[key] = value
    return out


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


@dataclass
class ConcurrencyConfig:
    """The ``[concurrency]`` section: the EL6xx shared-state policy.

    ``shared`` entries are ``"<Class-qualname>.<attr> = <ownership>"``
    strings (the attribute part may be an ``fnmatch`` glob) with
    ownership one of ``lock:<attr>`` (every access holds the named
    lock), ``single-writer:<side>`` (only that side writes; reads are
    free), ``event-handoff`` (a thread-safe signalling object), or
    ``frozen-after-publish`` (written only during construction).
    """

    #: Function-qualname patterns for background thread entry points
    #: (auto-discovery adds ``threading.Thread(target=...)`` targets and
    #: functions that open a ``parallel_track``).
    background_entries: list[str] = field(default_factory=list)
    #: Function-qualname patterns for foreground operations.
    foreground_entries: list[str] = field(default_factory=list)
    #: ``"<class>.<attr>" -> ownership token`` (attr part may glob).
    ownership: dict[str, str] = field(default_factory=dict)
    #: Published containers whose *elements* are frozen: attr pattern ->
    #: forbidden element mutators (EL602).
    published: dict[str, list[str]] = field(default_factory=dict)
    #: Methods that freeze an object in place (EL602 freeze-then-mutate).
    freeze_methods: list[str] = field(default_factory=lambda: ["freeze"])
    #: Mutator names forbidden on a value frozen in the same scope.
    frozen_mutators: list[str] = field(
        default_factory=lambda: [
            "add", "append", "extend", "insert", "remove", "update", "clear",
        ]
    )
    #: Error-ring recorder methods a thread entry must route exceptions
    #: through (EL604; the family is off while this list is empty).
    error_recorders: list[str] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.background_entries or self.foreground_entries)

    def shared_classes(self) -> set[str]:
        """Class qualnames owning at least one declared attribute."""
        keys = list(self.ownership) + list(self.published)
        return {key.rsplit(".", 1)[0] for key in keys if "." in key}

    def ownership_of(self, qualattr: str) -> str | None:
        """Ownership for ``pkg.mod.Class.attr`` (exact beats glob)."""
        best: tuple[int, int, str] | None = None
        for pattern, token in self.ownership.items():
            if qualattr == pattern:
                key = (1, len(pattern), token)
            elif fnmatch.fnmatchcase(qualattr, pattern):
                key = (0, len(pattern), token)
            else:
                continue
            if best is None or key[:2] > best[:2]:
                best = key
        return best[2] if best is not None else None

    def published_mutators(self, qualattr: str) -> list[str] | None:
        for pattern, mutators in self.published.items():
            if qualattr == pattern or fnmatch.fnmatchcase(qualattr, pattern):
                return mutators
        return None


@dataclass
class OrderRule:
    """One parsed ``[protocol]`` ``order`` entry."""

    rule: str  # "EL701"
    kind: str  # "requires" | "before-return"
    effect: str  # B (requires) / A (before-return)
    requires: tuple[str, ...] = ()  # satisfying alternatives (requires)
    reset_by: tuple[str, ...] = ()  # effects that un-establish them
    when: str | None = None  # context effect gating the rule
    then: str | None = None  # B (before-return)
    scope: str | None = None  # function-qualname glob (before-return)
    raw: str = ""


@dataclass
class ProtocolConfig:
    """The ``[protocol]`` section: the EL7xx commit-ordering policy."""

    #: Function-qualname patterns subject to the effect-order checks.
    functions: list[str] = field(default_factory=list)
    #: effect name -> call patterns (taint-style qual/display/suffix).
    effects: dict[str, list[str]] = field(default_factory=dict)
    #: effect name -> attribute names whose *assignment* is the effect.
    effect_attrs: dict[str, list[str]] = field(default_factory=dict)
    #: Effects that change durable state (EL703 separation alphabet).
    durable: list[str] = field(default_factory=list)
    #: effect -> guard terminals: an ``if`` naming one of these whose
    #: body establishes the effect counts as establishing it (the else
    #: branch is vacuous, e.g. ``if self.wal is not None: ...sync()``).
    guards: dict[str, list[str]] = field(default_factory=dict)
    order: list[OrderRule] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.functions and self.order)

    def effect_names(self) -> set[str]:
        return set(self.effects) | set(self.effect_attrs)


def _parse_order_rule(raw: str) -> OrderRule:
    match = _ORDER_REQUIRES.fullmatch(raw.strip())
    if match:
        return OrderRule(
            rule=match.group("rule"),
            kind="requires",
            effect=match.group("effect"),
            requires=tuple(
                p.strip() for p in match.group("requires").split("|")
            ),
            reset_by=tuple(
                p.strip() for p in (match.group("reset") or "").split("|") if p.strip()
            ),
            when=match.group("when"),
            raw=raw,
        )
    match = _ORDER_BEFORE_RETURN.fullmatch(raw.strip())
    if match:
        return OrderRule(
            rule=match.group("rule"),
            kind="before-return",
            effect=match.group("effect"),
            then=match.group("then"),
            scope=match.group("scope"),
            raw=raw,
        )
    raise ValueError(
        f"protocol.order: cannot parse {raw!r} (expected "
        f"'ELnnn: B requires A1|A2 [when C] [reset-by R]' or "
        f"'ELnnn: A then B before-return in <fn-glob>')"
    )


@dataclass
class CostConfig:
    """The ``[costmodel]`` section: the EL8xx cost-certification policy.

    Drives :mod:`repro.analysis.costmodel` — the abstract interpreter
    that derives per-entry-point effect certificates (``analysis/
    costs.toml``) and gates boundary/IO amplification anti-patterns.
    """

    #: certificate name -> entry-point function qualname.
    entry_points: dict[str, str] = field(default_factory=dict)
    #: Entry names that take a batch of items (EL801/EL802 scope):
    #: per-item loops inside them are loops over the *request*.
    batch_entries: list[str] = field(default_factory=list)
    #: Entry names whose result carries a verification proof (EL804).
    proof_entries: list[str] = field(default_factory=list)
    #: effect name -> call patterns (taint-style qual/display/suffix).
    effects: dict[str, list[str]] = field(default_factory=dict)
    #: Effects that cross the enclave boundary (EL801 alphabet).
    boundary_effects: list[str] = field(default_factory=list)
    #: Effects that force durable IO (EL802 alphabet).
    durable_effects: list[str] = field(default_factory=list)
    #: Effect naming a cache-bypassing block fetch (EL804 alphabet).
    bypass_effects: list[str] = field(default_factory=list)
    #: Branch-guard terminals: an ``if`` naming one of these runs its
    #: body on the configured happy path, so body costs count toward
    #: the *lower* bound (``if self.wal is not None: ... fsync()``).
    guards: list[str] = field(default_factory=list)
    #: Call patterns whose cost is amortised across operations and
    #: certified under their own entry point instead of the caller's
    #: (``_maybe_flush`` belongs to the flush certificate, not put's).
    amortized: list[str] = field(default_factory=list)
    #: Iterable patterns of constant cardinality (listener registries):
    #: looping over them does not multiply per-item cost.
    unit_loops: list[str] = field(default_factory=list)
    #: Merge-loop functions subject to EL810 (drop-through-filter).
    compaction_merge: list[str] = field(default_factory=list)
    #: Call patterns that digest one consumed input record (Filter()).
    compaction_filter_hooks: list[str] = field(default_factory=list)
    #: Driver functions subject to EL811 (prepare-before-publish).
    compaction_drivers: list[str] = field(default_factory=list)
    #: Call patterns that run the authenticated merge + table-file
    #: hooks and the per-level Merkle root update (the prepare step).
    compaction_prepare: list[str] = field(default_factory=list)
    #: Call patterns that publish the result to the manifest.
    compaction_publish: list[str] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.entry_points and self.effects)


@dataclass
class ZoneConfig:
    """Parsed ``zones.toml``: zone patterns plus rule-scoping roles."""

    zones: dict[Zone, list[str]] = field(default_factory=dict)
    #: Modules whose error handling must fail closed (EL2xx scope).
    fail_closed: list[str] = field(default_factory=list)
    #: Proof (de)serialisation modules (EL204 scope).
    wire: list[str] = field(default_factory=list)
    #: The module defining CRASH_SITES (EL302/EL303 anchor).
    crash_plan: str = "repro.faults.plan"
    #: Modules allowed to catch SimulatedCrash (the harness, by design).
    crash_catchers: list[str] = field(default_factory=list)
    #: Where every registered metric name must be documented (EL402).
    telemetry_doc: str = "docs/observability.md"
    #: ``component.noun[.verb]`` metric-name convention (EL401).
    metric_name_pattern: str = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$"
    #: Span-name convention (EL401 over ``.span("name")`` openings).
    span_name_pattern: str = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,2}$"
    #: Event-kind convention (EL401 over ``.emit("kind")`` sites).
    event_name_pattern: str = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$"
    #: Taint sources/sanitizers/sinks for the EL5xx dataflow rules.
    taint: TaintConfig = field(default_factory=TaintConfig)
    #: Shared-state ownership policy for the EL6xx concurrency rules.
    concurrency: ConcurrencyConfig = field(default_factory=ConcurrencyConfig)
    #: Commit-ordering policy for the EL7xx protocol rules.
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: Cost-certification policy for the EL8xx rules.
    costmodel: CostConfig = field(default_factory=CostConfig)

    def zone_of(self, module: str) -> Zone:
        """Classify a dotted module name (NEUTRAL when nothing matches)."""
        zone = self.explicit_zone_of(module)
        return zone if zone is not None else Zone.NEUTRAL

    def explicit_zone_of(self, module: str) -> Zone | None:
        """Like :meth:`zone_of`, but ``None`` when no pattern matched.

        The distinction feeds EL104: a module may be *deliberately*
        neutral (listed under ``zones.neutral``) or merely *unclassified*
        (matched nothing) — only the latter is a coverage gap.
        """
        best: tuple[int, int, Zone] | None = None
        for zone, patterns in self.zones.items():
            for pattern in patterns:
                if module == pattern:
                    exactness, length = 1, len(pattern)
                elif fnmatch.fnmatchcase(module, pattern):
                    exactness, length = 0, len(pattern)
                else:
                    continue
                key = (exactness, length, zone)
                if best is None or key[:2] > best[:2]:
                    best = key
        return best[2] if best is not None else None

    def matches_any(self, module: str, patterns: list[str]) -> bool:
        return any(fnmatch.fnmatchcase(module, p) for p in patterns)

    def is_fail_closed(self, module: str) -> bool:
        return (
            self.zone_of(module) is Zone.ENCLAVE
            or self.matches_any(module, self.fail_closed)
        )


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out)


def _bracket_balance(text: str) -> int:
    depth = 0
    quote = None
    for ch in text:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
    return depth


_QUOTED = re.compile(r"'([^']*)'|\"([^\"]*)\"")


def _parse_toml_subset(text: str) -> dict:
    """Parse the TOML subset ``zones.toml`` and ``costs.toml`` use:
    tables (dotted headers nest, as in TOML), quoted strings, and
    (possibly multiline) arrays of quoted strings.  Used only when
    :mod:`tomllib` is unavailable (Python 3.10)."""
    root: dict = {}
    table = root
    pending = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if pending:
            pending += " " + line
        elif line.startswith("[") and line.endswith("]") and "=" not in line:
            table = root
            for part in line[1:-1].split("."):
                table = table.setdefault(part.strip(), {})
            continue
        else:
            pending = line
        key, _, value = pending.partition("=")
        if value.lstrip().startswith("[") and _bracket_balance(value) > 0:
            continue  # multiline array: keep accumulating
        pending = ""
        key, value = key.strip(), value.strip()
        if value.startswith("["):
            table[key] = [a or b for a, b in _QUOTED.findall(value)]
        else:
            match = _QUOTED.fullmatch(value)
            if match is None:
                raise ValueError(f"unsupported TOML value for {key!r}: {value}")
            table[key] = match.group(1) or match.group(2) or ""
    return root


def load_toml(path: Path) -> dict:
    """Parse a TOML file with :mod:`tomllib`, or with the subset parser
    where it is unavailable (Python 3.10)."""
    if tomllib is not None:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    return _parse_toml_subset(path.read_text(encoding="utf-8"))


def load_zone_config(path: Path) -> ZoneConfig:
    """Load ``zones.toml``; unknown keys are rejected to keep the file honest."""
    raw = load_toml(path)
    config = ZoneConfig()
    zones_raw = raw.pop("zones", {})
    for name, patterns in zones_raw.items():
        config.zones[Zone(name)] = list(patterns)
    roles = raw.pop("roles", {})
    config.fail_closed = list(roles.pop("fail_closed", []))
    config.wire = list(roles.pop("wire", []))
    config.crash_plan = roles.pop("crash_plan", config.crash_plan)
    config.crash_catchers = list(roles.pop("crash_catchers", []))
    telemetry = raw.pop("telemetry", {})
    config.telemetry_doc = telemetry.pop("doc", config.telemetry_doc)
    config.metric_name_pattern = telemetry.pop(
        "name_pattern", config.metric_name_pattern
    )
    config.span_name_pattern = telemetry.pop(
        "span_name_pattern", config.span_name_pattern
    )
    config.event_name_pattern = telemetry.pop(
        "event_name_pattern", config.event_name_pattern
    )
    taint = raw.pop("taint", {})
    for key in (
        "untrusted_calls",
        "untrusted_attrs",
        "untrusted_params",
        "secret_calls",
        "secret_attrs",
        "sanitizers",
        "declassifiers",
        "trusted_sinks",
        "untrusted_sinks",
        "verifiers",
    ):
        setattr(config.taint, key, list(taint.pop(key, [])))
    concurrency = raw.pop("concurrency", {})
    config.concurrency.background_entries = list(
        concurrency.pop("background_entries", [])
    )
    config.concurrency.foreground_entries = list(
        concurrency.pop("foreground_entries", [])
    )
    ownership = _parse_assignments(
        list(concurrency.pop("shared", [])), "concurrency.shared"
    )
    for qualattr, token in ownership.items():
        if not _OWNERSHIP.fullmatch(token):
            raise ValueError(
                f"concurrency.shared: bad ownership {token!r} for {qualattr!r} "
                f"(want lock:<name>, single-writer:<side>, event-handoff "
                f"or frozen-after-publish)"
            )
    config.concurrency.ownership = ownership
    config.concurrency.published = {
        attr: _split_list(mutators)
        for attr, mutators in _parse_assignments(
            list(concurrency.pop("published", [])), "concurrency.published"
        ).items()
    }
    if "freeze_methods" in concurrency:
        config.concurrency.freeze_methods = list(concurrency.pop("freeze_methods"))
    if "frozen_mutators" in concurrency:
        config.concurrency.frozen_mutators = list(concurrency.pop("frozen_mutators"))
    config.concurrency.error_recorders = list(
        concurrency.pop("error_recorders", [])
    )
    protocol = raw.pop("protocol", {})
    config.protocol.functions = list(protocol.pop("functions", []))
    config.protocol.effects = {
        effect: _split_list(patterns)
        for effect, patterns in _parse_assignments(
            list(protocol.pop("effects", [])), "protocol.effects"
        ).items()
    }
    config.protocol.effect_attrs = {
        effect: _split_list(attrs)
        for effect, attrs in _parse_assignments(
            list(protocol.pop("effect_attrs", [])), "protocol.effect_attrs"
        ).items()
    }
    config.protocol.durable = list(protocol.pop("durable", []))
    config.protocol.guards = {
        effect: _split_list(terminals)
        for effect, terminals in _parse_assignments(
            list(protocol.pop("guards", [])), "protocol.guards"
        ).items()
    }
    config.protocol.order = [
        _parse_order_rule(raw_rule) for raw_rule in protocol.pop("order", [])
    ]
    known = config.protocol.effect_names()
    for rule in config.protocol.order:
        names = {rule.effect, rule.then, rule.when, *rule.requires, *rule.reset_by}
        unknown = sorted(n for n in names if n is not None and n not in known)
        if unknown:
            raise ValueError(
                f"protocol.order: {rule.raw!r} references undeclared "
                f"effect(s): {', '.join(unknown)}"
            )
    for effect in config.protocol.durable + list(config.protocol.guards):
        if effect not in known:
            raise ValueError(
                f"protocol: undeclared effect {effect!r} in durable/guards"
            )
    costmodel = raw.pop("costmodel", {})
    config.costmodel.entry_points = _parse_assignments(
        list(costmodel.pop("entry_points", [])), "costmodel.entry_points"
    )
    config.costmodel.effects = {
        effect: _split_list(patterns)
        for effect, patterns in _parse_assignments(
            list(costmodel.pop("effects", [])), "costmodel.effects"
        ).items()
    }
    for key in (
        "batch_entries",
        "proof_entries",
        "boundary_effects",
        "durable_effects",
        "bypass_effects",
        "guards",
        "amortized",
        "unit_loops",
        "compaction_merge",
        "compaction_filter_hooks",
        "compaction_drivers",
        "compaction_prepare",
        "compaction_publish",
    ):
        setattr(config.costmodel, key, list(costmodel.pop(key, [])))
    for entry in (
        config.costmodel.batch_entries + config.costmodel.proof_entries
    ):
        if entry not in config.costmodel.entry_points:
            raise ValueError(
                f"costmodel: undeclared entry point {entry!r} in "
                f"batch_entries/proof_entries"
            )
    for effect in (
        config.costmodel.boundary_effects
        + config.costmodel.durable_effects
        + config.costmodel.bypass_effects
    ):
        if effect not in config.costmodel.effects:
            raise ValueError(
                f"costmodel: undeclared effect {effect!r} in "
                f"boundary/durable/bypass_effects"
            )
    leftovers = (
        [f"top-level [{key}]" for key in raw]
        + [f"roles.{key}" for key in roles]
        + [f"telemetry.{key}" for key in telemetry]
        + [f"taint.{key}" for key in taint]
        + [f"concurrency.{key}" for key in concurrency]
        + [f"protocol.{key}" for key in protocol]
        + [f"costmodel.{key}" for key in costmodel]
    )
    if leftovers:
        raise ValueError(f"unknown keys in {path}: {', '.join(leftovers)}")
    return config
