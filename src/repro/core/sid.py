"""The ``SID`` simulator (Section 4.2, Figure 3, Theorem 4.5).

``SID`` simulates an arbitrary two-way protocol ``P`` on the Immediate
Observation model, assuming every agent knows a unique identifier.  The IDs
are used to implement a locking protocol that guarantees the consistent
matching of simulated state changes:

* an *available* reactor that observes an available starter enters the
  *pairing* state, remembering the starter's ID and simulated state — a soft
  commitment to simulate a two-way interaction with that specific agent;
* the chosen agent, next time it acts as a *reactor* and observes the
  pairing agent pointing at it with a still-accurate state snapshot, becomes
  *locked* and performs the starter side of the simulated transition
  (``stateP = delta(stateP, state_other)[0]``);
* when the pairing agent later observes its partner locked on it, it
  performs the reactor side (``stateP = delta(q_s, stateP)[1]`` where
  ``q_s`` is the snapshot it saved when pairing) and becomes available;
* the locked agent unlocks when it next observes its former partner no
  longer pointing at it; a pairing agent whose chosen partner moved on rolls
  back the same way (lines 14-16 of Figure 3).

Documented deviation from Figure 3 (correctness-preserving; see "Documented
deviations from the paper" in ``docs/architecture.md``): line 13 computes
the reactor side from the locked partner's *current* simulated state, which
line 9 has already updated; we use the snapshot ``state_other`` saved when
pairing (the partner's pre-lock state), which is the value ``delta_P`` must
be applied to for the matching of Definition 3 to be consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.base import SimulatorError, TwoWaySimulator
from repro.core.events import (
    Matching,
    REACTOR_ROLE,
    STARTER_ROLE,
    SimulationEvent,
)
from repro.engine.trace import Trace
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

#: Simulator phases (the ``statesim`` variable of Figure 3).
AVAILABLE = "available"
PAIRING = "pairing"
LOCKED = "locked"


@dataclass(frozen=True)
class SIDState:
    """Composite state of one agent running ``SID`` (the variables of Figure 3)."""

    my_id: Hashable
    sim: State
    phase: str = AVAILABLE
    id_other: Optional[Hashable] = None
    state_other: Optional[State] = None


class SIDSimulator(TwoWaySimulator):
    """ID-based locking simulator for the Immediate Observation model (Theorem 4.5)."""

    compatible_models = ("IO", "IT", "I1", "I2", "I3")

    def __init__(self, protocol: PopulationProtocol, name: Optional[str] = None) -> None:
        super().__init__(protocol, name=name or "SID")

    # -- initial states -------------------------------------------------------------------------

    def initial_state(self, p_state: State, agent_id: Optional[Hashable] = None, **knowledge) -> SIDState:
        """Composite initial state for an agent with unique identifier ``agent_id``."""
        if agent_id is None:
            raise SimulatorError("SID requires a unique agent_id for every agent")
        self.protocol.validate_initial_state(p_state)
        return SIDState(my_id=agent_id, sim=p_state)

    def initial_configuration(
        self,
        p_configuration: Configuration,
        ids: Optional[Sequence[Hashable]] = None,
        **knowledge,
    ) -> Configuration:
        """Composite initial configuration; ``ids`` defaults to ``0 .. n-1``.

        The IDs must be pairwise distinct — that is precisely the knowledge
        assumption of Theorem 4.5.
        """
        n = len(p_configuration)
        if ids is None:
            ids = list(range(n))
        ids = list(ids)
        if len(ids) != n:
            raise SimulatorError(f"expected {n} ids, got {len(ids)}")
        if len(set(ids)) != n:
            raise SimulatorError("agent ids must be pairwise distinct")
        return Configuration(
            self.initial_state(p_state, agent_id=agent_id)
            for p_state, agent_id in zip(p_configuration, ids)
        )

    def project(self, state: SIDState) -> State:
        return state.sim

    # -- transition function (g is the identity: IO) -------------------------------------------------

    def f(self, starter: SIDState, reactor: SIDState) -> SIDState:
        """The reactor update of Figure 3 (the starter is left untouched by IO)."""
        new_state, _ = self._observe(starter, reactor)
        return new_state

    def _observe(
        self, starter: SIDState, reactor: SIDState
    ) -> Tuple[SIDState, List[SimulationEvent]]:
        """Apply the Figure 3 rules; also report any simulated-state update as an event."""
        events: List[SimulationEvent] = []

        # Lines 3-5: start pairing with an available starter.
        if reactor.phase == AVAILABLE and starter.phase == AVAILABLE:
            return (
                replace(
                    reactor,
                    phase=PAIRING,
                    id_other=starter.my_id,
                    state_other=starter.sim,
                ),
                events,
            )

        # Lines 6-9: lock with a pairing agent that chose us (and whose snapshot
        # of our state is still accurate), performing the starter side of the
        # simulated interaction.
        if (
            reactor.phase == AVAILABLE
            and starter.phase == PAIRING
            and starter.id_other == reactor.my_id
            and starter.state_other == reactor.sim
        ):
            old_sim = reactor.sim
            partner_sim = starter.sim
            new_sim = self.delta(old_sim, partner_sim)[0]
            events.append(
                SimulationEvent(
                    step=-1,
                    agent=-1,
                    role=STARTER_ROLE,
                    pre_sim=old_sim,
                    post_sim=new_sim,
                    partner_pre_sim=partner_sim,
                    key=None,
                )
            )
            return (
                replace(
                    reactor,
                    phase=LOCKED,
                    id_other=starter.my_id,
                    state_other=partner_sim,
                    sim=new_sim,
                ),
                events,
            )

        # Lines 10-13: complete the simulated interaction with our locked partner,
        # performing the reactor side (using the saved pre-lock snapshot).
        if (
            reactor.phase == PAIRING
            and reactor.id_other == starter.my_id
            and starter.id_other == reactor.my_id
            and starter.phase == LOCKED
        ):
            old_sim = reactor.sim
            partner_old_sim = reactor.state_other
            new_sim = self.delta(partner_old_sim, old_sim)[1]
            events.append(
                SimulationEvent(
                    step=-1,
                    agent=-1,
                    role=REACTOR_ROLE,
                    pre_sim=old_sim,
                    post_sim=new_sim,
                    partner_pre_sim=partner_old_sim,
                    key=None,
                )
            )
            return (
                replace(
                    reactor,
                    phase=AVAILABLE,
                    id_other=None,
                    state_other=None,
                    sim=new_sim,
                ),
                events,
            )

        # Lines 14-16: roll back (pairing agent abandoned, or locked agent released).
        if reactor.id_other == starter.my_id and starter.id_other != reactor.my_id:
            return (
                replace(reactor, phase=AVAILABLE, id_other=None, state_other=None),
                events,
            )

        return reactor, events

    # -- event extraction and exact matching ------------------------------------------------------------

    def extract_events(self, trace: Trace) -> List[SimulationEvent]:
        """Recompute the simulated-state updates of every step of a trace."""
        events: List[SimulationEvent] = []
        for step in trace.steps:
            if step.interaction.is_omissive:
                # Under an omissive one-way model with g = identity, an omissive
                # interaction leaves both agents untouched: no event.
                continue
            _, step_events = self._observe(step.starter_pre, step.reactor_pre)
            for event in step_events:
                partner_agent = step.interaction.starter
                events.append(
                    SimulationEvent(
                        step=step.index,
                        agent=step.interaction.reactor,
                        role=event.role,
                        pre_sim=event.pre_sim,
                        post_sim=event.post_sim,
                        partner_pre_sim=event.partner_pre_sim,
                        partner_agent=partner_agent,
                        key=None,
                    )
                )
        return events

    def extract_matching(self, trace: Trace) -> Matching:
        """Exact matching: each completion event pairs with its partner's latest lock event.

        When agent ``r`` completes a simulated interaction (lines 10-13) upon
        observing agent ``s`` locked on it, the matching partner event is the
        most recent lock event (lines 6-9) of ``s`` — ``s`` stays locked from
        that moment until after ``r`` completes, so the association is
        unambiguous.
        """
        events = self.extract_events(trace)
        last_unmatched_lock_by_agent = {}
        pairs: List[Tuple[int, int]] = []
        for index, event in enumerate(events):
            if event.role == STARTER_ROLE:
                last_unmatched_lock_by_agent[event.agent] = index
            else:
                partner = event.partner_agent
                lock_index = last_unmatched_lock_by_agent.pop(partner, None)
                if lock_index is not None:
                    pairs.append((lock_index, index))
        return Matching.from_explicit_pairs(events, pairs)
