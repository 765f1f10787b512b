"""The ``SKnO`` simulator (Section 4.1, Theorem 4.1, Corollary 1).

``SKnO`` simulates an arbitrary two-way protocol ``P`` on the one-way
omissive models ``I3`` and ``I4``, assuming a known upper bound ``o`` on the
total number of omissions in the execution.  Plugging ``o = 0`` gives a
simulator for the non-omissive Immediate Transmission model ``IT``
(Corollary 1).

The construction is token-based ("reminiscent of the card game Rummy", as
the paper puts it):

* each simulated state ``q`` is represented by a *run* of ``o + 1`` numbered
  state tokens ``<q, 1> ... <q, o+1>``;
* an available agent that acts as a starter with an empty queue becomes
  *pending* and enqueues the full run for its own simulated state; every
  time it acts as a starter it transmits (and discards) the front token of
  its queue;
* a reactor enqueues every token it receives; when an omission is detected a
  *joker* token is enqueued instead (jokers are wildcards that may stand in
  for any missing token, and at most ``o`` of them ever exist);
* an *available* reactor that can assemble a complete run for some state
  ``q`` (using jokers for missing tokens) consumes it, performs the
  reactor side of the simulated interaction (``stateP = delta(q, stateP)[1]``)
  and emits a run of *state-change tokens* recording the simulated
  interaction;
* a *pending* reactor that can assemble a complete run of state-change
  tokens matching its own state consumes it, performs the starter side
  (``stateP = delta(stateP, q')[0]``) and becomes available again;
* a *pending* reactor that sees its own (unconsumed) state run come back
  retracts it and becomes available (the "preliminary check");
* joker bookkeeping: whenever a joker stands in for a token ``<q, i>``, the
  agent remembers ``<q, i>``; if the real ``<q, i>`` arrives later it is
  converted back into a joker, so the global number of (tokens + jokers) per
  run is conserved.

Two deliberate, documented deviations from the paper's prose (both
correctness-preserving; see "Documented deviations from the paper" in
``docs/architecture.md``):

1. State-change tokens carry the pair ``(q, r_old)`` where ``r_old`` is the
   reactor's simulated state *before* its update (the paper's prose writes
   the updated state); the pending starter needs ``r_old`` to compute
   ``delta(q, r_old)[0]``, which is what Definition 3 requires of the
   matching.
2. For model ``I4`` (where the *starter* detects the omission and the
   reactor applies ``g``), the joker is generated by the starter instead of
   the reactor — the symmetric counterpart of the ``I3`` behaviour, which is
   what the paper's "correctness follows from symmetry considerations"
   refers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import SimulatorError, TwoWaySimulator
from repro.core.events import REACTOR_ROLE, STARTER_ROLE, SimulationEvent
from repro.engine.trace import Trace
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

#: Simulator phases.
AVAILABLE = "available"
PENDING = "pending"

#: Supported variants (which one-way omissive model the instance targets).
VARIANT_I3 = "I3"
VARIANT_I4 = "I4"


# ---------------------------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------------------------


@dataclass(frozen=True)
class StateToken:
    """Token ``<q, i>``: the ``i``-th piece of the run representing state ``q``."""

    state: State
    index: int


@dataclass(frozen=True)
class ChangeToken:
    """State-change token ``<(q, r_old), i>`` recording a simulated interaction.

    ``q`` is the pending starter's simulated state, ``r_old`` the reactor's
    simulated state before it performed its half of the interaction.
    """

    starter_state: State
    reactor_old_state: State
    index: int


@dataclass(frozen=True)
class JokerToken:
    """The wildcard token generated when an omission is detected."""


#: The joker the simulator enqueues.  All jokers compare equal; sharing one
#: instance lets queue searches succeed on identity.
JOKER = JokerToken()


# ---------------------------------------------------------------------------------------------
# Agent state
# ---------------------------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SKnOState:
    """Composite state of one agent running ``SKnO``.

    Attributes
    ----------
    sim:
        The simulated protocol state (``stateP``).
    phase:
        ``"available"`` or ``"pending"``.
    sending:
        The queue of tokens to be sent (front at index 0).
    owed:
        The ``Jokers`` multiset of the paper: tokens that jokers stood in
        for, kept so that late-arriving originals can be converted back into
        jokers (stored as a repr-sorted tuple for hashability).
    """

    sim: State
    phase: str = AVAILABLE
    sending: Tuple = ()
    owed: Tuple = ()

    def queue_length(self) -> int:
        """Number of tokens currently queued for sending."""
        return len(self.sending)

    def joker_count(self) -> int:
        """Number of joker tokens currently in the sending queue."""
        return sum(1 for token in self.sending if isinstance(token, JokerToken))


#: A run found in a queue: ``(key, present, missing)``, where ``present``
#: maps each index found to the first token carrying it and ``missing``
#: lists the indices jokers must fill.
_FoundRun = Tuple[State, Dict[int, object], List[int]]

#: ``_find_state_run``'s default target: the run of any state.
_ANY_STATE: State = object()


# ---------------------------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------------------------


class SKnOSimulator(TwoWaySimulator):
    """Token-based simulator for ``I3``/``I4`` with a known omission bound (Theorem 4.1).

    One instance is shared by every run of an experiment, including runs on
    concurrent threads, so the transitions must stay pure functions of their
    arguments.  The only instance state they touch is the memo of token
    runs, which is idempotent.
    """

    #: Tokens carry no agent identities, so the extracted matching only pins
    #: down the multiset of simulated interactions; verification uses the
    #: anonymous (multiset-level) derived replay, which is equivalent for
    #: population protocols because their agents are interchangeable.
    anonymous_matching = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        omission_bound: int = 0,
        variant: str = VARIANT_I3,
        name: Optional[str] = None,
    ) -> None:
        if omission_bound < 0:
            raise SimulatorError("the omission bound must be non-negative")
        if variant not in (VARIANT_I3, VARIANT_I4):
            raise SimulatorError(f"unknown SKnO variant {variant!r}; use 'I3' or 'I4'")
        super().__init__(protocol, name=name or f"SKnO(o={omission_bound},{variant})")
        self.omission_bound = omission_bound
        self.variant = variant
        if variant == VARIANT_I3:
            self.compatible_models = ("I3", "IT") if omission_bound == 0 else ("I3",)
        else:
            self.compatible_models = ("I4", "IT") if omission_bound == 0 else ("I4",)
        self._indices = tuple(range(1, omission_bound + 2))
        self._state_runs: Dict[State, Tuple[StateToken, ...]] = {}
        self._change_runs: Dict[Tuple[State, State], Tuple[ChangeToken, ...]] = {}

    # -- basic quantities ---------------------------------------------------------------------

    @property
    def run_length(self) -> int:
        """Number of tokens per run: ``o + 1``."""
        return self.omission_bound + 1

    def _state_run(self, q: State) -> Tuple[StateToken, ...]:
        run = self._state_runs.get(q)
        if run is None:
            run = self._state_runs.setdefault(
                q, tuple(StateToken(q, i) for i in self._indices))
        return run

    def _change_run(self, q: State, r_old: State) -> Tuple[ChangeToken, ...]:
        run = self._change_runs.get((q, r_old))
        if run is None:
            run = self._change_runs.setdefault(
                (q, r_old), tuple(ChangeToken(q, r_old, i) for i in self._indices))
        return run

    # -- initial states -----------------------------------------------------------------------

    def initial_state(self, p_state: State, **knowledge) -> SKnOState:
        """Composite initial state: available, empty queue, no jokers owed."""
        self.protocol.validate_initial_state(p_state)
        return SKnOState(p_state)

    def initial_configuration(self, p_configuration: Configuration, **knowledge) -> Configuration:
        return Configuration(self.initial_state(p) for p in p_configuration)

    def project(self, state: SKnOState) -> State:
        return state.sim

    # -- starter behaviour (function g) ----------------------------------------------------------

    def outgoing_token(self, state: SKnOState) -> Optional[object]:
        """The token a starter in ``state`` transmits (``None`` if nothing to send).

        An available starter with an empty queue first goes pending and
        enqueues its state run; then the front token of the queue, if any,
        is transmitted.
        """
        if state.sending:
            return state.sending[0]
        if state.phase == AVAILABLE:
            return self._state_run(state.sim)[0]
        return None

    def g(self, starter: SKnOState) -> SKnOState:
        """The starter's post-transmission state: the front token leaves its queue."""
        queue = starter.sending
        if queue:
            return SKnOState(starter.sim, starter.phase, queue[1:], starter.owed)
        if starter.phase == AVAILABLE:
            return SKnOState(starter.sim, PENDING, self._state_run(starter.sim)[1:], starter.owed)
        return starter

    # -- reactor behaviour (function f) -------------------------------------------------------------

    def f(self, starter: SKnOState, reactor: SKnOState) -> SKnOState:
        return self._receive(reactor, self.outgoing_token(starter))[0]

    # -- omission handlers -------------------------------------------------------------------------

    def on_reactor_omission(self, reactor: SKnOState) -> SKnOState:
        """``h`` for the ``I3`` variant: enqueue a joker, then run the usual checks."""
        if self.variant != VARIANT_I3:
            return reactor
        return self._receive(reactor, JOKER)[0]

    def on_starter_omission(self, starter: SKnOState) -> SKnOState:
        """``o`` for the ``I4`` variant: keep the queue intact and enqueue a joker."""
        if self.variant != VARIANT_I4:
            return starter
        return SKnOState(starter.sim, starter.phase, starter.sending + (JOKER,), starter.owed)

    # -- token reception and consumption ----------------------------------------------------------------

    def _receive(
        self, reactor: SKnOState, token: Optional[object]
    ) -> Tuple[SKnOState, Sequence[SimulationEvent]]:
        """Process a received token (or joker, or nothing) and run the check pipeline.

        Returns the new state together with the simulation events generated,
        so the same code path serves both execution (events discarded) and
        post-hoc event extraction.
        """
        state = reactor if token is None else self._enqueue_received(reactor, token)
        return self._core_check(self._preliminary_check(state))

    def _enqueue_received(self, state: SKnOState, token) -> SKnOState:
        """Enqueue a received token, applying the joker bookkeeping of the paper."""
        owed = state.owed
        if owed and type(token) is not JokerToken and token in owed:
            # A real token arrives for a slot that a joker already filled:
            # the original is converted back into a joker so the global
            # token count per run stays (o + 1).
            remaining = list(owed)
            remaining.remove(token)
            return SKnOState(state.sim, state.phase, state.sending + (JOKER,), tuple(remaining))
        return SKnOState(state.sim, state.phase, state.sending + (token,), owed)

    # .. run-completion search ..................................................................

    def _find_state_run(self, queue: Tuple, target: State = _ANY_STATE) -> Optional[_FoundRun]:
        """The completable run of state tokens needing the fewest jokers, in one pass.

        With ``target`` given, only the run of ``target`` is considered.
        Ties are broken by the state's repr, so executions stay
        deterministic.
        """
        runs: Dict[State, Dict[int, StateToken]] = {}
        jokers = 0
        for token in queue:
            kind = type(token)
            if kind is StateToken:
                q = token.state
                if target is not _ANY_STATE and q != target:
                    continue
                present = runs.get(q)
                if present is None:
                    runs[q] = {token.index: token}
                elif token.index not in present:
                    present[token.index] = token
            elif kind is JokerToken:
                jokers += 1
        if target is not _ANY_STATE and target not in runs:
            runs[target] = {}
        return self._best_run(runs, jokers)

    def _find_change_run(self, queue: Tuple, starter_state: State) -> Optional[_FoundRun]:
        """The completable run of change tokens ``<(starter_state, r_old), i>``, in one pass.

        The key of the result is ``r_old``; when several reactor states
        could complete, the one needing the fewest jokers (ties broken by
        repr) is chosen so executions stay deterministic.
        """
        runs: Dict[State, Dict[int, ChangeToken]] = {}
        jokers = 0
        for token in queue:
            kind = type(token)
            if kind is ChangeToken:
                if token.starter_state != starter_state:
                    continue
                r_old = token.reactor_old_state
                present = runs.get(r_old)
                if present is None:
                    runs[r_old] = {token.index: token}
                elif token.index not in present:
                    present[token.index] = token
            elif kind is JokerToken:
                jokers += 1
        if not runs:
            return None
        return self._best_run(runs, jokers)

    def _best_run(self, runs: Dict, jokers: int) -> Optional[_FoundRun]:
        """Among ``runs`` that ``jokers`` can complete, the one missing fewest (then by repr)."""
        best = None
        for key, present in runs.items():
            if len(present) + jokers < len(self._indices):
                continue
            missing = [i for i in self._indices if i not in present]
            if len(missing) > jokers:
                continue
            if best is None or (len(missing), repr(key)) < (len(best[2]), repr(best[0])):
                best = (key, present, missing)
        return best

    def _consume(
        self, state: SKnOState, present: Dict[int, object], missing: List[int], run: Tuple
    ) -> Tuple[Tuple, Tuple]:
        """The queue and ``owed`` left after consuming a run: ``(sending, owed)``.

        The run's tokens found in the queue and one joker per missing index
        leave the queue; the tokens the jokers stood in for are owed.
        """
        queue = list(state.sending)
        for token in present.values():
            queue.remove(token)
        for _ in missing:
            queue.remove(JOKER)
        owed = state.owed
        if missing:  # ``owed`` is kept repr-sorted, so only additions need a sort
            owed = tuple(sorted(owed + tuple(run[i - 1] for i in missing), key=repr))
        return tuple(queue), owed

    # .. the two check passes ...................................................................

    def _preliminary_check(self, state: SKnOState) -> SKnOState:
        """A pending agent that sees its own un-consumed state run retracts it."""
        if state.phase != PENDING or not state.sending:
            return state
        found = self._find_state_run(state.sending, state.sim)
        if found is None:
            return state
        _, present, missing = found
        sending, owed = self._consume(state, present, missing, self._state_run(state.sim))
        return SKnOState(state.sim, AVAILABLE, sending, owed)

    def _core_check(self, state: SKnOState) -> Tuple[SKnOState, Sequence[SimulationEvent]]:
        """The core consumption step; returns the new state and any simulation events.

        The event objects produced here carry ``step=-1`` and ``agent=-1``;
        the trace-level extractor fills those fields in.
        """
        if not state.sending:
            return state, ()
        old_sim = state.sim
        if state.phase == AVAILABLE:
            found = self._find_state_run(state.sending)
            if found is None:
                return state, ()
            q, present, missing = found
            new_sim = self.delta(q, old_sim)[1]
            sending, owed = self._consume(state, present, missing, self._state_run(q))
            event = SimulationEvent(step=-1, agent=-1, role=REACTOR_ROLE, pre_sim=old_sim,
                                    post_sim=new_sim, partner_pre_sim=q, key=(q, old_sim))
            sending += self._change_run(q, old_sim)
            return SKnOState(new_sim, AVAILABLE, sending, owed), (event,)
        found = self._find_change_run(state.sending, old_sim) if state.phase == PENDING else None
        if found is None:
            return state, ()
        reactor_old, present, missing = found
        new_sim = self.delta(old_sim, reactor_old)[0]
        run = self._change_run(old_sim, reactor_old)
        sending, owed = self._consume(state, present, missing, run)
        event = SimulationEvent(step=-1, agent=-1, role=STARTER_ROLE, pre_sim=old_sim,
                                post_sim=new_sim, partner_pre_sim=reactor_old,
                                key=(old_sim, reactor_old))
        return SKnOState(new_sim, AVAILABLE, sending, owed), (event,)

    # -- event extraction ----------------------------------------------------------------------------

    def extract_events(self, trace: Trace) -> List[SimulationEvent]:
        """Recompute, per trace step, which simulated-state updates happened.

        The reactor is the only agent whose simulated state can change in a
        step (``g`` and the omission handlers never touch ``sim``), so the
        extractor replays the reactor-side pipeline from the recorded
        pre-states, which is deterministic and therefore reproduces exactly
        the events of the original execution.
        """
        events: List[SimulationEvent] = []
        for step in trace.steps:
            interaction = step.interaction
            if interaction.is_omissive:
                if self.variant == VARIANT_I3:
                    _, step_events = self._receive(step.reactor_pre, JOKER)
                else:
                    step_events = ()
            else:
                token = self.outgoing_token(step.starter_pre)
                _, step_events = self._receive(step.reactor_pre, token)
            events.extend(
                SimulationEvent(step=step.index, agent=interaction.reactor, role=event.role,
                                pre_sim=event.pre_sim, post_sim=event.post_sim,
                                partner_pre_sim=event.partner_pre_sim, key=event.key)
                for event in step_events)
        return events
