"""The WebdamLog per-peer engine.

A computation **stage** of a peer is broken down into the three steps
described in the paper:

1. the peer loads the inputs received from the remote peers since the
   previous stage (fact updates and delegations);
2. the peer runs a fixpoint computation of its program (its own rules plus
   the rules delegated to it);
3. the peer sends facts (updates) and rules (delegations) to other peers.

:class:`WebdamLogEngine` implements exactly this loop for one peer.  It is
transport-agnostic: incoming inputs are pushed through ``receive_*`` methods
(by the runtime layer, by wrappers, or directly by tests), and the outputs of
a stage are returned in a :class:`StageResult` for the caller to deliver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.delegation import Delegation, DelegationDiff
from repro.core.errors import EvaluationError, SchemaError
from repro.core.evaluation import RuleEvaluator, RuleOutcome
from repro.core.facts import Delta, Fact
from repro.core.parser import ParsedProgram, parse_fact, parse_program, parse_rule
from repro.core.rules import Atom, Rule
from repro.core.schema import RelationKind, RelationSchema, SchemaRegistry
from repro.core.state import PeerState
from repro.planner import BodyPlanner, StagePlan, StatsProvider, resolve_planner_mode
from repro.planner.magic import MAGIC_PREFIX
from repro.store.backend import resolve_backend

#: Predicate marker for atoms whose relation or peer position is still a
#: variable at analysis time — they may read from (or derive into) any
#: relation, so dependency analysis treats them as depending on everything.
_WILDCARD = "*any*"


def _predicate_of(atom: Atom) -> str:
    relation = atom.relation_constant()
    peer = atom.peer_constant()
    if relation is None or peer is None:
        return _WILDCARD
    return f"{relation}@{peer}"


def stratify_local_rules(rules: Sequence[Rule]) -> List[List[Rule]]:
    """Group a peer's rules into strata for negation-safe fixpoint evaluation.

    A rule sits in the stratum of its head predicate.  A head predicate is at
    least as high as every predicate its rules read, and strictly higher
    than every predicate they read under negation.  A body literal whose
    relation or peer is a variable may read any derived relation, so it
    depends on every head predicate of the program.  Strata are returned in
    increasing order, with rule order preserved inside each stratum.

    When a cycle runs through negation the rules are returned as a single
    stratum: the engine still evaluates them, but negation-as-failure is then
    only best-effort, as in the original system, which had no negation.  A
    rule whose *head* relation or peer is a variable is likewise best-effort
    under negation: its target is data-dependent, so the readers of the
    relation it actually derives into are not ordered after it.
    """
    heads = [_predicate_of(rule.head) for rule in rules]
    every_head = set(heads)
    # (body predicate, head predicate) -> read under negation somewhere.
    edges: Dict[Tuple[str, str], bool] = {}
    for rule, head in zip(rules, heads):
        for atom in rule.body:
            predicate = _predicate_of(atom)
            for source in every_head if predicate == _WILDCARD else (predicate,):
                edges[source, head] = edges.get((source, head), False) or atom.negated
    # Only head predicates rise above stratum 0, and a stratifiable program
    # climbs at most one stratum per head; climbing further means a cycle
    # through negation.
    stratum = dict.fromkeys(every_head, 0)
    changed = True
    while changed:
        changed = False
        for (source, head), negative in edges.items():
            required = stratum.get(source, 0) + negative
            if stratum[head] < required:
                if required > len(every_head):
                    return [list(rules)]
                stratum[head] = required
                changed = True
    grouped: Dict[int, List[Rule]] = {}
    for rule, head in zip(rules, heads):
        grouped.setdefault(stratum[head], []).append(rule)
    return [grouped[s] for s in sorted(grouped)]


class _ProgramAnalysis:
    """Precomputed dependency structure of a peer's current program.

    Cached on the engine and rebuilt whenever the rule set changes (own
    rules added/removed/replaced, delegations installed or retracted) — the
    cache is validated by object identity against ``state.all_rules()``, so
    any mutation path invalidates it, including ones that bypass the engine
    API (e.g. the delegation controller installing an approved rule).
    """

    __slots__ = ("rules", "strata", "body_predicates", "negated_predicates",
                 "head_predicate")

    def __init__(self, rules: Tuple[Rule, ...]):
        self.rules = rules
        self.strata = stratify_local_rules(rules)
        self.body_predicates: Dict[Rule, FrozenSet[str]] = {}
        self.head_predicate: Dict[Rule, str] = {}
        self.negated_predicates: Set[str] = set()
        for rule in rules:
            predicates = set()
            for atom in rule.body:
                predicate = _predicate_of(atom)
                predicates.add(predicate)
                if atom.negated:
                    self.negated_predicates.add(predicate)
            self.body_predicates[rule] = frozenset(predicates)
            self.head_predicate[rule] = _predicate_of(rule.head)

    def matches(self, rules: Tuple[Rule, ...]) -> bool:
        """``True`` when the analysis still describes exactly these rules."""
        return len(self.rules) == len(rules) and all(
            cached is current for cached, current in zip(self.rules, rules))

    def triggered(self, rule: Rule, delta_predicates: Set[str]) -> bool:
        """``True`` when a delta over these predicates can re-fire ``rule``."""
        body = self.body_predicates[rule]
        return _WILDCARD in body or not delta_predicates.isdisjoint(body)

    def touches_negation(self, delta_predicates: Set[str]) -> bool:
        """``True`` when the delta reaches a negated body occurrence."""
        negated = self.negated_predicates
        if not negated:
            return False
        return _WILDCARD in negated or not delta_predicates.isdisjoint(negated)

    def derivation_closure(self, seed_predicates: Set[str]) -> Optional[Set[str]]:
        """Every predicate the seed predicates can derive into, transitively.

        Follows rule bodies forward to heads only (unlike
        :meth:`affected_closure` it does not pull in sibling definitions of
        reached heads — it answers "what can this delta change", not "what
        must be recomputed").  Returns ``None`` when a wildcard-headed rule
        is reachable, meaning the delta could derive anywhere.
        """
        reachable = set(seed_predicates)
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                head = self.head_predicate[rule]
                if head in reachable:
                    continue
                body = self.body_predicates[rule]
                if _WILDCARD in body or not reachable.isdisjoint(body):
                    if head == _WILDCARD:
                        return None
                    reachable.add(head)
                    changed = True
        return reachable

    def affected_closure(self, seed_predicates: Set[str]
                         ) -> Tuple[Set[str], Set[Rule], bool]:
        """Predicates and rules transitively reachable from a delta.

        A rule is affected when its body reads an affected predicate *or*
        its head derives into one (every definition of a cleared predicate
        must re-fire, not only the ones the delta touched).  The returned
        flag is ``True`` when a wildcard-headed rule is affected, in which
        case the caller must fall back to a full recompute.
        """
        affected = set(seed_predicates)
        affected_rules: Set[Rule] = set()
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if rule in affected_rules:
                    continue
                body = self.body_predicates[rule]
                head = self.head_predicate[rule]
                if (_WILDCARD in body or not affected.isdisjoint(body)
                        or head in affected):
                    affected_rules.add(rule)
                    changed = True
                    if head == _WILDCARD:
                        return set(), set(), True
                    affected.add(head)
        return affected, affected_rules, False


@dataclass(frozen=True)
class OutgoingUpdate:
    """Fact updates addressed to one remote peer."""

    target: str
    inserted: FrozenSet[Fact] = frozenset()
    deleted: FrozenSet[Fact] = frozenset()

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def __bool__(self) -> bool:
        return bool(self.inserted) or bool(self.deleted)


@dataclass
class StageResult:
    """Everything produced by one computation stage of a peer."""

    peer: str
    stage: int
    consumed_inputs: int = 0
    fixpoint_iterations: int = 0
    rules_evaluated: int = 0
    substitutions_explored: int = 0
    #: Number of rule bodies this stage that ran as a single compiled SQL
    #: statement inside the storage backend instead of tuple-at-a-time.
    compiled_sql: int = 0
    derived_intensional: int = 0
    derived_changed: bool = False
    deferred_local_updates: int = 0
    #: Which fixpoint strategy the stage used: ``"full"`` (clear everything
    #: and recompute — program/schema change or naive mode), ``"delta"``
    #: (seminaive over the input delta), ``"rederive"`` (scoped
    #: delete-and-rederive of the affected predicate closure) or ``"skip"``
    #: (no input delta — nothing evaluated at all).
    evaluation_path: str = "full"
    outgoing_updates: List[OutgoingUpdate] = field(default_factory=list)
    delegations_to_install: List[Delegation] = field(default_factory=list)
    delegations_to_retract: List[Delegation] = field(default_factory=list)
    #: Net change of the facts *visible* at the peer during this stage —
    #: extensional, derived and provided facts combined, with deletions that
    #: are still visible through another source filtered out.  This is what
    #: the :mod:`repro.api` subscription machinery consumes, so observers are
    #: fed from deltas as stages complete instead of re-scanning relations.
    visible_delta: Delta = field(default_factory=Delta.empty)
    #: The plans the stage's fixpoint executed (literal orders, estimated vs.
    #: actual cardinalities) plus the magic predicates active in the program.
    #: ``None`` when the planner is off or the stage evaluated nothing.
    plan: Optional[StagePlan] = None

    def outgoing_fact_count(self) -> int:
        """Total number of facts shipped to remote peers this stage."""
        return sum(len(update) for update in self.outgoing_updates)

    def outgoing_message_count(self) -> int:
        """Number of messages (updates + delegation installs/retracts) emitted."""
        return (len(self.outgoing_updates) + len(self.delegations_to_install)
                + len(self.delegations_to_retract))

    def has_outgoing(self) -> bool:
        """``True`` when the stage produced anything for other peers."""
        return bool(self.outgoing_updates or self.delegations_to_install
                    or self.delegations_to_retract)

    def is_quiescent(self) -> bool:
        """``True`` when the stage neither consumed inputs nor produced changes.

        A network of peers has converged when every peer reports a quiescent
        stage and no messages are in flight.
        """
        return (self.consumed_inputs == 0
                and not self.has_outgoing()
                and not self.derived_changed
                and self.deferred_local_updates == 0)


class WebdamLogEngine:
    """The WebdamLog engine of a single peer."""

    def __init__(self, peer: str, schemas: Optional[SchemaRegistry] = None,
                 strict_stage_inputs: bool = False,
                 evaluation_mode: str = "incremental",
                 use_indexes: bool = True,
                 storage=None, storage_options: Optional[Dict] = None,
                 planner: Optional[str] = None):
        if evaluation_mode not in ("incremental", "naive"):
            raise ValueError(
                f"unknown evaluation_mode {evaluation_mode!r}; "
                "expected 'incremental' or 'naive'"
            )
        self.peer = peer
        backend = resolve_backend(storage, peer=peer, options=storage_options)
        self.state = PeerState(peer, schemas, backend=backend)
        # Cost-based planner mode: ``off`` (written order), ``order`` (join
        # ordering) or ``magic`` (ordering + demand transformation of live
        # views).  ``None`` defers to REPRO_PLANNER / the default.  Ordering
        # is tied to the indexes — with use_indexes=False the engine is the
        # scan-everything seed baseline and must stay order-identical to it.
        self.planner_mode = resolve_planner_mode(planner)
        self._planner = (
            BodyPlanner(peer, StatsProvider(self.state), mode=self.planner_mode)
            if self.planner_mode != "off" and use_indexes else None)
        # Monotonically increasing program version: bumped whenever the rule
        # set changes (rules added/removed/replaced, delegations installed or
        # retracted, programs loaded).  The planner's plan cache is keyed on
        # it, so uninstalling a view's rules can never leave a stale plan.
        self.program_version = 0
        # Strict per-stage semantics (facts received for local intensional
        # relations are visible for exactly one stage, as in the PODS model);
        # the default keeps them until the sender retracts them, which is the
        # behaviour the Wepic demo relies on.
        self.strict_stage_inputs = strict_stage_inputs
        # ``"incremental"`` runs the seminaive / scoped-rederive fixpoint;
        # ``"naive"`` forces the historical clear-and-recompute at every
        # stage (the differential tests and benchmarks use it as baseline).
        self.evaluation_mode = evaluation_mode
        # When False the evaluator falls back to full relation scans instead
        # of the incrementally-maintained hash indexes (seed behaviour).
        self.use_indexes = use_indexes
        # Optional provenance tracker (see :mod:`repro.provenance`): when set,
        # every derivation of the fixpoint is recorded through its ``record``
        # method, which the access-control view policies build upon.  Its
        # maintenance hooks (``on_base_deleted`` / ``on_rederive`` /
        # ``on_full_recompute``) keep the graph consistent along the delta,
        # rederive and full paths.
        self.provenance = None
        # Facts addressed to remote peers by the local user (or wrappers),
        # flushed at the next stage.
        self._pending_remote_inserts: Dict[str, Set[Fact]] = {}
        self._pending_remote_deletes: Dict[str, Set[Fact]] = {}
        # Facts previously shipped to each target as the result of rule
        # derivations; used to avoid re-sending and to retract view facts.
        self._sent_remote: Dict[str, Set[Fact]] = {}
        # Whether the engine needs a stage for reasons the stores cannot see
        # (rule or program changes).  Starts ``True``: a freshly built peer
        # has never evaluated its program.
        self._dirty = True
        # --- incremental-fixpoint state --------------------------------- #
        # Cached dependency analysis of the current program (rebuilt when the
        # rule set changes); explicit invalidation points are add_rule /
        # remove_rule / replace_rule / load_program and delegation installs,
        # with an identity check against state.all_rules() as the backstop.
        self._analysis: Optional[_ProgramAnalysis] = None
        # Set by declare(): a schema (re)declaration can change how head
        # facts are classified, which the rule-set identity check cannot see.
        self._schema_changed = False
        # Per-rule cumulative outputs (remote facts, delegations, deferred
        # extensional updates) of the last fixpoint.  The stage outcome fed
        # to _emit_outputs is the union over the current rules, so skipping
        # un-affected rules never loses (or spuriously retracts) outputs.
        self._rule_memo: Dict[Rule, RuleOutcome] = {}
        # Deletions performed by end-of-stage housekeeping (non-persistent
        # relation clears, strict provided clears) that the next fixpoint
        # must treat as part of its input delta.
        self._carryover_delta: Delta = Delta.empty()
        # Lifetime work counters across all stages (benchmark / test probes).
        self.eval_counters: Dict[str, int] = {
            "substitutions_explored": 0,
            "fixpoint_iterations": 0,
            "rules_evaluated": 0,
            "compiled_sql": 0,
            "stages_full": 0,
            "stages_delta": 0,
            "stages_rederive": 0,
            "stages_skip": 0,
            "plans_computed": 0,
            "plans_cached": 0,
            "plans_reordered": 0,
        }

    # ------------------------------------------------------------------ #
    # program loading and direct updates (the "user" API)
    # ------------------------------------------------------------------ #

    def load_program(self, program: Union[str, ParsedProgram]) -> ParsedProgram:
        """Load a WebdamLog program (text or already parsed).

        Schema declarations are registered, facts of local relations are
        inserted, facts of remote relations are queued to be pushed at the
        next stage, and rules are added to the peer's own program.
        """
        if isinstance(program, str):
            program = parse_program(program, default_peer=self.peer, author=self.peer)
        for schema in program.schemas:
            self.state.declare(schema)
        for fact in program.facts:
            if fact.peer == self.peer:
                self.state.insert_fact(fact)
            else:
                self.send_fact(fact)
        for rule in program.rules:
            self.state.add_rule(rule)
        self._invalidate_program_cache()
        self._schema_changed = True
        self.mark_dirty()
        return program

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Declare a relation schema."""
        self._schema_changed = True
        self.mark_dirty()
        return self.state.declare(schema)

    def add_rule(self, rule: Union[str, Rule]) -> Rule:
        """Add a rule to the peer's own program (parsed if given as text)."""
        if isinstance(rule, str):
            rule = parse_rule(rule, default_peer=self.peer, author=self.peer)
        self._invalidate_program_cache()
        self.mark_dirty()
        return self.state.add_rule(rule)

    def remove_rule(self, rule_id: str) -> Optional[Rule]:
        """Remove an own rule by identifier."""
        removed = self.state.remove_rule(rule_id)
        if removed is not None:
            self._invalidate_program_cache()
            self.mark_dirty()
        return removed

    def remove_rules(self, rule_ids: Iterable[str]) -> List[Rule]:
        """Remove several own rules at once (one cache invalidation).

        Used by the live-view machinery to uninstall a compiled query: the
        next stage's full recompute clears the view's derived facts, and the
        delegation diff retracts whatever the removed rules had delegated.
        Unknown identifiers are skipped; the removed rules are returned.
        """
        removed = [rule for rule_id in rule_ids
                   if (rule := self.state.remove_rule(rule_id)) is not None]
        if removed:
            self._invalidate_program_cache()
            self.mark_dirty()
        return removed

    def replace_rule(self, rule_id: str, new_rule: Union[str, Rule]) -> Rule:
        """Replace an own rule (the Wepic *customize rules* operation)."""
        if isinstance(new_rule, str):
            new_rule = parse_rule(new_rule, default_peer=self.peer, author=self.peer)
        self._invalidate_program_cache()
        self.mark_dirty()
        return self.state.replace_rule(rule_id, new_rule)

    def _invalidate_program_cache(self) -> None:
        """Drop the cached program analysis (rule set is about to change).

        Also bumps :attr:`program_version`, which keys the planner's plan
        cache — so removing rules (e.g. a live view uninstalling its magic
        predicates on ``close()``) can never leave a stale plan behind.
        """
        self._analysis = None
        self.program_version += 1
        if self._planner is not None:
            self._planner.sync(self.program_version)

    def rules(self) -> Tuple[Rule, ...]:
        """The peer's own rules."""
        return tuple(self.state.own_rules)

    def installed_delegations(self):
        """Delegations installed at this peer by remote delegators."""
        return self.state.delegations_in.all()

    def insert_fact(self, fact: Union[str, Fact]) -> Delta:
        """Insert a base fact.  Local facts go to the store, remote facts are queued."""
        if isinstance(fact, str):
            fact = parse_fact(fact, default_peer=self.peer)
        if fact.peer == self.peer:
            return self.state.insert_fact(fact)
        self.send_fact(fact)
        return Delta.insertion([fact])

    def insert_facts(self, facts: Iterable[Union[str, Fact]]) -> Delta:
        """Insert many base facts in one batch (the bulk-load fast path).

        Local facts flow through the storage backend's batched insert
        (``executemany`` on SQLite) instead of one round trip per fact;
        remote facts are queued individually like :meth:`insert_fact`.
        Returns the delta of the local insertions.
        """
        local: List[Fact] = []
        for fact in facts:
            if isinstance(fact, str):
                fact = parse_fact(fact, default_peer=self.peer)
            if fact.peer == self.peer:
                local.append(fact)
            else:
                self.send_fact(fact)
        if not local:
            return Delta.empty()
        return self.state.insert_facts(local)

    def delete_fact(self, fact: Union[str, Fact]) -> Delta:
        """Delete a base fact.  Local facts are removed, remote deletions are queued."""
        if isinstance(fact, str):
            fact = parse_fact(fact, default_peer=self.peer)
        if fact.peer == self.peer:
            return self.state.delete_fact(fact)
        self._pending_remote_deletes.setdefault(fact.peer, set()).add(fact)
        return Delta.deletion([fact])

    def send_fact(self, fact: Fact) -> None:
        """Queue a fact addressed to a remote peer (shipped at the next stage)."""
        if fact.peer == self.peer:
            raise SchemaError(f"fact {fact} is local; use insert_fact")
        self._pending_remote_inserts.setdefault(fact.peer, set()).add(fact)

    # ------------------------------------------------------------------ #
    # transport-facing input methods (step 1 inputs)
    # ------------------------------------------------------------------ #

    def receive_facts(self, sender: str, inserted: Iterable[Fact] = (),
                      deleted: Iterable[Fact] = ()) -> None:
        """Record fact updates received from ``sender`` for the next stage."""
        for fact in inserted:
            self.state.pending.inserted_facts.append((sender, fact))
        for fact in deleted:
            self.state.pending.deleted_facts.append((sender, fact))

    def receive_delegation(self, sender: str, delegation_id: str, rule: Rule) -> None:
        """Record a delegation install received from ``sender`` for the next stage."""
        self.state.pending.delegations_to_install.append((sender, delegation_id, rule))

    def receive_delegation_retraction(self, sender: str, delegation_id: str) -> None:
        """Record a delegation retraction received from ``sender`` for the next stage."""
        self.state.pending.delegations_to_retract.append((sender, delegation_id))

    def has_pending_input(self) -> bool:
        """``True`` when inputs are waiting to be consumed by the next stage."""
        return (not self.state.pending.is_empty()
                or bool(self.state.deferred_updates)
                or bool(self._pending_remote_inserts)
                or bool(self._pending_remote_deletes))

    def mark_dirty(self) -> None:
        """Flag that the peer's next stage may produce new results.

        Called on program mutations (and by the runtime when wrappers touch
        the store outside a stage); event-driven schedulers use
        :meth:`needs_stage` to decide which peers to activate.
        """
        self._dirty = True

    def needs_stage(self) -> bool:
        """``True`` when running a stage could change anything.

        A peer whose program is unchanged, whose stores saw no writes since
        the last stage, and which has no pending inputs is guaranteed to run
        a quiescent stage — an event-driven scheduler can safely skip it.
        """
        return (self._dirty
                or self.has_pending_input()
                or self.state.store.has_pending_changes()
                or self.state.has_provided_changes())

    # ------------------------------------------------------------------ #
    # the computation stage
    # ------------------------------------------------------------------ #

    def run_stage(self, commit: bool = True) -> StageResult:
        """Run one three-step computation stage and return its outputs.

        ``commit=False`` leaves the stage-boundary transaction open: the
        caller must invoke ``state.commit()`` itself after folding its own
        writes into the same transaction (causal replication persists its
        channel state this way, so the dots and the facts they delivered
        become durable atomically).
        """
        self.state.stage_counter += 1
        self._dirty = False
        result = StageResult(peer=self.peer, stage=self.state.stage_counter)

        # ---- step 1: load inputs ------------------------------------- #
        result.consumed_inputs = self._consume_inputs()

        # ---- step 2: local fixpoint ----------------------------------- #
        outcome = self._run_fixpoint(result)

        # ---- step 3: emit updates and delegations ---------------------- #
        self._emit_outputs(outcome, result)

        # End-of-stage housekeeping.  The deletions these clears perform are
        # carried over into the next fixpoint's input delta: the facts were
        # visible to *this* stage's evaluation, so their consequences must be
        # retracted by the next one.
        housekeeping = Delta.empty()
        if self.strict_stage_inputs:
            housekeeping = housekeeping.merge(self.state.clear_provided())
        housekeeping = housekeeping.merge(self.state.store.clear_nonpersistent())
        self._carryover_delta = self._carryover_delta.merge(housekeeping)
        if outcome.local_extensional:
            deferred = {fact for fact in outcome.local_extensional
                        if not self.state.store.contains(fact)}
        else:
            deferred = set()
        self.state.deferred_updates = Delta.insertion(deferred)
        result.deferred_local_updates = len(self.state.deferred_updates)

        # Lifetime work accounting (benchmarks and tests read these).
        counters = self.eval_counters
        counters["substitutions_explored"] += result.substitutions_explored
        counters["fixpoint_iterations"] += result.fixpoint_iterations
        counters["rules_evaluated"] += result.rules_evaluated
        counters["compiled_sql"] += result.compiled_sql
        counters[f"stages_{result.evaluation_path}"] += 1

        # Delta accounting: the stores accumulated every change since the end
        # of the previous stage (including user updates made between stages).
        # Taking the deltas here nets out intra-stage churn — in particular
        # the clear-and-recompute of the derived store, whose net delta is
        # exactly "what changed in the derived relations this stage".
        store_delta = self.state.store.take_delta()
        derived_delta = self.state.derived.take_delta()
        provided_delta = self.state.take_provided_delta()
        result.derived_changed = bool(derived_delta)
        result.visible_delta = self._visible_delta(store_delta, derived_delta,
                                                   provided_delta)
        # Stage boundary: everything this stage wrote — facts, schemas, rules,
        # delegations — becomes durable in one transaction.  This is the
        # recovery unit: a peer that dies mid-stage reopens at the previous
        # stage boundary.
        if commit:
            self.state.commit()
        return result

    def _visible_delta(self, store_delta: Delta, derived_delta: Delta,
                       provided_delta: Delta) -> Delta:
        """Combine the per-source deltas into one delta of *visible* facts.

        A fact reported deleted by one source may still be visible through
        another (e.g. a derivation that vanished while the same fact is still
        provided by a remote sender); such deletions are dropped so the delta
        describes actual visibility transitions.
        """
        combined = store_delta.merge(derived_delta).merge(provided_delta)
        if not combined.deleted:
            return combined
        still_visible = {
            fact for fact in combined.deleted
            if fact in self.state.provided
            or self.state.derived.contains(fact)
            or self.state.store.contains(fact)
        }
        if not still_visible:
            return combined
        return Delta(combined.inserted, combined.deleted - still_visible)

    def run_to_quiescence(self, max_stages: int = 50) -> List[StageResult]:
        """Run stages until the peer is locally quiescent (single-peer helper).

        Outgoing messages are *not* delivered anywhere; use
        :class:`repro.runtime.system.WebdamLogSystem` to run a network of
        peers.  Raises :class:`EvaluationError` if quiescence is not reached
        within ``max_stages``.
        """
        results: List[StageResult] = []
        for _ in range(max_stages):
            result = self.run_stage()
            results.append(result)
            if result.is_quiescent():
                return results
        raise EvaluationError(
            f"peer {self.peer} did not reach quiescence within {max_stages} stages"
        )

    def close(self) -> None:
        """Commit outstanding writes and release the storage backend.

        On a durable backend the peer can later be rebuilt over the same
        database and will restore its facts, rules and installed delegations.
        """
        self.state.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, relation: str, peer: Optional[str] = None) -> Tuple[Fact, ...]:
        """Facts of ``relation@peer`` currently visible at this peer."""
        return self.state.query(relation, peer)

    def snapshot(self) -> Dict[str, Tuple[Fact, ...]]:
        """Snapshot of every non-empty relation visible at this peer."""
        return self.state.snapshot()

    def counts(self) -> Dict[str, int]:
        """Size counters of the peer state plus lifetime work counters."""
        combined = self.state.counts()
        combined.update(self.eval_counters)
        return combined

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _consume_inputs(self) -> int:
        consumed = 0
        pending = self.state.pending

        # Deferred local extensional updates decided by the previous stage.
        if self.state.deferred_updates:
            consumed += len(self.state.deferred_updates)
            self.state.store.apply(self.state.deferred_updates)
            self.state.deferred_updates = Delta.empty()

        for _sender, fact in pending.inserted_facts:
            consumed += 1
            if fact.peer != self.peer:
                # Mis-routed fact; ignore (the runtime should not let this happen).
                continue
            if self.state.is_local_intensional(fact):
                self.state.add_provided(fact)
            else:
                self.state.store.insert(fact)
        for _sender, fact in pending.deleted_facts:
            consumed += 1
            if fact.peer != self.peer:
                continue
            if self.state.is_local_intensional(fact):
                self.state.remove_provided(fact)
            else:
                self.state.store.delete(fact)
        for sender, delegation_id, rule in pending.delegations_to_install:
            consumed += 1
            self.state.install_delegation(delegation_id, sender, rule)
            self._invalidate_program_cache()
        for sender, delegation_id in pending.delegations_to_retract:
            installed = self.state.retract_delegation(delegation_id)
            if installed is None:
                # Unknown (or already-retracted) delegation: a duplicated
                # retraction delivery must be a strict no-op — in particular
                # it must not invalidate the program cache, whose resulting
                # recompute would touch provenance support counts twice.
                continue
            if installed.delegator != sender:
                # Only the original delegator may retract; re-install (the
                # rule set is net unchanged, so the cache stays valid too).
                self.state.install_delegation(
                    delegation_id, installed.delegator, installed.rule
                )
                continue
            consumed += 1
            self._invalidate_program_cache()
        pending.clear()
        return consumed

    def _run_fixpoint(self, result: StageResult) -> RuleOutcome:
        """Run the local fixpoint, choosing the cheapest sound strategy.

        * **full** — clear every local intensional relation and recompute
          (the seed engine's behaviour).  Used when the program or a schema
          changed, and in ``"naive"`` mode.
        * **skip** — the input delta is empty: nothing can change, the
          memoised outcome is returned without evaluating anything.
        * **delta** — the input delta is insert-only and does not reach a
          negated literal: seminaive evaluation seeds from the delta and
          re-fires only the rules whose body reads a delta predicate.
        * **rederive** — the delta contains deletions (or reaches negation):
          the affected predicate closure is cleared and recomputed; rules and
          relations outside the closure are untouched.

        In every case the outcome handed to :meth:`_emit_outputs` is the
        union of the per-rule memo, so remote updates, delegations and
        deferred extensional writes diff against complete sets — exactly what
        a full recompute would have produced.
        """
        rules = self.state.all_rules()
        analysis = self._analysis
        program_changed = analysis is None or not analysis.matches(rules)
        if program_changed:
            analysis = self._analysis = _ProgramAnalysis(rules)
            # Identity backstop: rule mutations that bypassed the engine API
            # still move the program version (and drop cached plans).
            self.program_version += 1
            if self._planner is not None:
                self._planner.sync(self.program_version)

        input_delta = (self._carryover_delta
                       .merge(self.state.store.peek_delta())
                       .merge(self.state.peek_provided_delta()))
        self._carryover_delta = Delta.empty()

        force_full = (self.evaluation_mode == "naive"
                      or program_changed
                      or self._schema_changed)
        self._schema_changed = False

        # Deleted input facts die in the provenance graph regardless of the
        # evaluation path chosen below: their derivations (and transitive
        # dependents) are retracted, and the rederive/full pass re-records
        # whatever is still derivable.
        if self.provenance is not None and input_delta.deleted:
            self.provenance.on_base_deleted(input_delta.deleted)

        delta_predicates = ({fact.qualified_relation for fact in input_delta.inserted}
                            | {fact.qualified_relation for fact in input_delta.deleted})
        if not force_full and not delta_predicates:
            result.evaluation_path = "skip"
            return self._memo_outcome(analysis)

        evaluator = RuleEvaluator(
            peer=self.peer,
            fact_source=self.state.fact_view,
            kind_resolver=self.state.kind_of,
            on_derivation=self.provenance.record if self.provenance is not None else None,
            use_indexes=self.use_indexes,
            # Whole-body SQL pushdown: only meaningful on SQL-capable
            # backends, and only when no provenance hook needs per-derivation
            # support tuples.  Disabled together with the indexes so the
            # scan-everything baseline stays a true baseline.
            pushdown=(self.state.pushdown
                      if self.use_indexes and self.provenance is None else None),
            planner=self._planner,
        )
        if force_full:
            result.evaluation_path = "full"
            outcome = self._fixpoint_rederive(analysis, evaluator, result,
                                              None, None)
            self._record_stage_plan(evaluator, analysis, result)
            return outcome

        # Negation makes insertions non-monotone: check the *derivation
        # closure* of the delta against the negated predicates — an insert
        # may only reach a negated occurrence through derived intermediates.
        reachable = analysis.derivation_closure(delta_predicates)
        if input_delta.deleted or reachable is None or analysis.touches_negation(reachable):
            affected_predicates, affected_rules, needs_full = (
                analysis.affected_closure(delta_predicates))
            if reachable is None or needs_full:
                result.evaluation_path = "full"
                outcome = self._fixpoint_rederive(analysis, evaluator, result,
                                                  None, None)
            else:
                result.evaluation_path = "rederive"
                outcome = self._fixpoint_rederive(analysis, evaluator, result,
                                                  affected_predicates,
                                                  affected_rules)
            self._record_stage_plan(evaluator, analysis, result)
            return outcome

        result.evaluation_path = "delta"
        outcome = self._fixpoint_seminaive(analysis, evaluator, result,
                                           input_delta.inserted)
        self._record_stage_plan(evaluator, analysis, result)
        return outcome

    def _record_stage_plan(self, evaluator: RuleEvaluator,
                           analysis: _ProgramAnalysis,
                           result: StageResult) -> None:
        """Surface the executed plans (and planner counters) on the stage."""
        planner = self._planner
        if planner is None:
            return
        magic = tuple(sorted({
            head for rule in analysis.rules
            if (head := rule.head.relation_constant()) is not None
            and head.startswith(MAGIC_PREFIX)}))
        plans = tuple(evaluator.plans_used.values())
        if plans or magic:
            result.plan = StagePlan(rule_plans=plans, magic_relations=magic)
        # Planner counters are lifetime totals, like the other eval counters.
        for key, value in planner.counters.items():
            self.eval_counters[key] = value

    def _fixpoint_seminaive(self, analysis: _ProgramAnalysis,
                            evaluator: RuleEvaluator, result: StageResult,
                            inserted: FrozenSet[Fact]) -> RuleOutcome:
        """Seminaive pass over an insert-only input delta.

        The derived store is *not* cleared: previous derivations stay valid
        under insertions (negation is excluded by the caller).  Each stratum
        drains a delta of facts new this stage; rules re-fire only when their
        body reads a delta predicate, restricted to the delta facts.
        """
        accumulated: Dict[str, Set[Fact]] = {}
        for fact in inserted:
            accumulated.setdefault(fact.qualified_relation, set()).add(fact)

        for stratum in analysis.strata:
            delta = {predicate: set(facts)
                     for predicate, facts in accumulated.items()}
            while delta:
                result.fixpoint_iterations += 1
                delta_predicates = set(delta)
                new_facts: Set[Fact] = set()
                for rule in stratum:
                    if not analysis.triggered(rule, delta_predicates):
                        continue
                    result.rules_evaluated += 1
                    outcome = evaluator.evaluate_rule_delta(rule, delta)
                    result.substitutions_explored += outcome.substitutions_explored
                    self._memo_merge(rule, outcome)
                    for fact in outcome.local_intensional:
                        insert_delta = self.state.derived.insert(fact)
                        if insert_delta.deleted:
                            # Primary-key replacement on a derived relation:
                            # the insertion displaced an existing fact, which
                            # is no longer monotone — fall back to a full
                            # recompute for this stage.
                            result.evaluation_path = "full"
                            return self._fixpoint_rederive(analysis, evaluator,
                                                           result, None, None)
                        if insert_delta:
                            result.derived_intensional += 1
                            new_facts.add(fact)
                delta = {}
                for fact in new_facts:
                    delta.setdefault(fact.qualified_relation, set()).add(fact)
                    accumulated.setdefault(fact.qualified_relation, set()).add(fact)
        return self._memo_outcome(analysis)

    def _fixpoint_rederive(self, analysis: _ProgramAnalysis,
                           evaluator: RuleEvaluator, result: StageResult,
                           affected_predicates: Optional[Set[str]],
                           affected_rules: Optional[Set[Rule]]) -> RuleOutcome:
        """Delete-and-rederive: clear the affected derived relations and
        recompute their defining rules stratum by stratum.

        ``affected_* = None`` means *everything* — the seed engine's
        clear-and-recompute.  The clear-deltas stay pending and net out
        against the re-derivations, so the delta taken at the end of the
        stage is still the true derived change.
        """
        full = affected_rules is None
        if self.provenance is not None:
            # Mirror the store clears in the provenance graph: the cleared
            # predicates' derivations die here and are re-recorded by the
            # re-evaluation below, so the graph tracks exact derivability.
            if full:
                self.provenance.on_full_recompute()
            else:
                self.provenance.on_rederive(affected_predicates)
        for schema in list(self.state.schemas.intensional()):
            if schema.peer != self.peer:
                continue
            if full or f"{schema.name}@{schema.peer}" in affected_predicates:
                self.state.derived.clear_relation(schema.name, schema.peer)
        if full:
            self._rule_memo = {}
        else:
            for rule in affected_rules:
                self._rule_memo.pop(rule, None)

        for stratum in analysis.strata:
            selected = stratum if full else [r for r in stratum if r in affected_rules]
            if not selected:
                continue
            changed = True
            while changed:
                changed = False
                result.fixpoint_iterations += 1
                for rule in selected:
                    result.rules_evaluated += 1
                    outcome = evaluator.evaluate_rule(rule)
                    result.substitutions_explored += outcome.substitutions_explored
                    result.compiled_sql += outcome.compiled_sql
                    self._memo_merge(rule, outcome)
                    for fact in outcome.local_intensional:
                        if self.state.derived.insert(fact):
                            changed = True
                            result.derived_intensional += 1
        return self._memo_outcome(analysis)

    def _memo_merge(self, rule: Rule, outcome: RuleOutcome) -> None:
        """Fold one evaluation's non-intensional outputs into the rule's memo.

        Local intensional facts live in the derived store (which *is* their
        memo); only the outputs that :meth:`_emit_outputs` diffs are kept.
        """
        entry = self._rule_memo.get(rule)
        if entry is None:
            entry = self._rule_memo[rule] = RuleOutcome()
        entry.local_extensional |= outcome.local_extensional
        entry.remote_facts |= outcome.remote_facts
        entry.delegations |= outcome.delegations

    def _memo_outcome(self, analysis: _ProgramAnalysis) -> RuleOutcome:
        """The stage outcome: the union of every current rule's memo."""
        total = RuleOutcome()
        for rule in analysis.rules:
            entry = self._rule_memo.get(rule)
            if entry is not None:
                total.local_extensional |= entry.local_extensional
                total.remote_facts |= entry.remote_facts
                total.delegations |= entry.delegations
        return total

    def _emit_outputs(self, outcome: RuleOutcome, result: StageResult) -> None:
        # -- facts derived for remote peers ------------------------------ #
        current_by_target: Dict[str, Set[Fact]] = {}
        for fact in outcome.remote_facts:
            current_by_target.setdefault(fact.peer, set()).add(fact)

        targets = set(current_by_target) | set(self._sent_remote)
        derived_updates: Dict[str, Tuple[Set[Fact], Set[Fact]]] = {}
        for target in targets:
            current = current_by_target.get(target, set())
            previous = self._sent_remote.get(target, set())
            newly_derived = current - previous
            vanished = previous - current
            # Facts destined to relations known to be intensional at the
            # remote peer are view facts: retract them when no longer
            # derivable.  Unknown or extensional relations are insert-only
            # updates (the paper's semantics for updates to extensional
            # relations of other peers).
            to_delete = {
                fact for fact in vanished
                if self.state.kind_of(fact.relation, fact.peer) is RelationKind.INTENSIONAL
            }
            if newly_derived or to_delete:
                derived_updates[target] = (newly_derived, to_delete)
            self._sent_remote[target] = (previous - to_delete) | current

        # -- user-initiated updates to remote relations ------------------ #
        user_targets = set(self._pending_remote_inserts) | set(self._pending_remote_deletes)
        for target in sorted(targets | user_targets):
            derived_ins, derived_del = derived_updates.get(target, (set(), set()))
            user_ins = self._pending_remote_inserts.pop(target, set())
            user_del = self._pending_remote_deletes.pop(target, set())
            inserted = frozenset(derived_ins | user_ins)
            deleted = frozenset(derived_del | user_del)
            if inserted or deleted:
                result.outgoing_updates.append(
                    OutgoingUpdate(target=target, inserted=inserted, deleted=deleted)
                )

        # -- delegations -------------------------------------------------- #
        diff = self.state.delegation_tracker.diff(outcome.delegations)
        self.state.delegation_tracker.commit(diff)
        result.delegations_to_install = list(diff.to_install)
        result.delegations_to_retract = list(diff.to_retract)
