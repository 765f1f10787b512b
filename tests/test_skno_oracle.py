"""SKnO's transitions against a frozen reference implementation (hypothesis).

``ReferenceSKnO`` below is a verbatim copy of an earlier, straightforward
formulation of the simulator's transition code, in which every step
rebuilds states with ``dataclasses.replace``, builds fresh tokens and
scans the queue once per candidate run.  It is kept frozen here as an
oracle: the optimised :class:`repro.core.skno.SKnOSimulator` must give
equal results for ``g``, ``f``, both omission handlers and
``extract_events`` on arbitrary composite states — mixed state and change
tokens, jokers, non-empty ``owed`` multisets, omission bounds 0 to 2 and
both variants.  Do not "tidy" the oracle: its value is that it is the old
code.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import REACTOR_ROLE, STARTER_ROLE, SimulationEvent
from repro.core.skno import (
    AVAILABLE,
    PENDING,
    VARIANT_I3,
    VARIANT_I4,
    ChangeToken,
    JokerToken,
    SKnOSimulator,
    SKnOState,
    StateToken,
)
from repro.engine.engine import SimulationEngine
from repro.interaction.models import get_model
from repro.interaction.omissions import NO_OMISSION, REACTOR_OMISSION
from repro.protocols import ExactMajorityProtocol, PairingProtocol
from repro.protocols.state import Configuration
from repro.scheduling.runs import Interaction, Run


def _is_joker(token) -> bool:
    return isinstance(token, JokerToken)


class ReferenceSKnO:
    """The frozen reference transitions (see the module docstring)."""

    def __init__(self, protocol, omission_bound: int, variant: str) -> None:
        self.protocol = protocol
        self.omission_bound = omission_bound
        self.variant = variant

    def delta(self, starter, reactor):
        return self.protocol.delta(starter, reactor)

    @property
    def run_length(self) -> int:
        return self.omission_bound + 1

    def _state_run(self, q):
        return tuple(StateToken(q, i) for i in range(1, self.run_length + 1))

    def _change_run(self, q, r_old):
        return tuple(ChangeToken(q, r_old, i) for i in range(1, self.run_length + 1))

    def _effective_outgoing(self, state: SKnOState) -> Tuple[Optional[object], SKnOState]:
        phase = state.phase
        queue = state.sending
        if phase == AVAILABLE and not queue:
            phase = PENDING
            queue = self._state_run(state.sim)
        if queue:
            token = queue[0]
            return token, replace(state, phase=phase, sending=queue[1:])
        return None, replace(state, phase=phase, sending=queue)

    def outgoing_token(self, state: SKnOState) -> Optional[object]:
        token, _ = self._effective_outgoing(state)
        return token

    def g(self, starter: SKnOState) -> SKnOState:
        _, new_state = self._effective_outgoing(starter)
        return new_state

    def f(self, starter: SKnOState, reactor: SKnOState) -> SKnOState:
        token = self.outgoing_token(starter)
        new_state, _ = self._receive(reactor, token)
        return new_state

    def on_reactor_omission(self, reactor: SKnOState) -> SKnOState:
        if self.variant != VARIANT_I3:
            return reactor
        new_state, _ = self._receive(reactor, JokerToken())
        return new_state

    def on_starter_omission(self, starter: SKnOState) -> SKnOState:
        if self.variant != VARIANT_I4:
            return starter
        return replace(starter, sending=starter.sending + (JokerToken(),))

    def _receive(self, reactor: SKnOState, token) -> Tuple[SKnOState, List[SimulationEvent]]:
        state = reactor
        if token is not None:
            state = self._enqueue_received(state, token)
        state = self._preliminary_check(state)
        state, events = self._core_check(state)
        return state, events

    def _enqueue_received(self, state: SKnOState, token) -> SKnOState:
        if not _is_joker(token) and token in state.owed:
            owed = list(state.owed)
            owed.remove(token)
            return replace(
                state,
                sending=state.sending + (JokerToken(),),
                owed=tuple(owed),
            )
        return replace(state, sending=state.sending + (token,))

    def _find_state_run(self, state: SKnOState, target):
        present: Dict[int, StateToken] = {}
        for token in state.sending:
            if isinstance(token, StateToken) and token.state == target and token.index not in present:
                present[token.index] = token
        missing = [i for i in range(1, self.run_length + 1) if i not in present]
        jokers = [token for token in state.sending if _is_joker(token)]
        if len(missing) > len(jokers):
            return None
        to_remove: List[object] = list(present.values()) + jokers[: len(missing)]
        joker_slots = [StateToken(target, i) for i in missing]
        return to_remove, joker_slots

    def _find_change_run(self, state: SKnOState):
        candidates: Dict[object, Dict[int, ChangeToken]] = {}
        for token in state.sending:
            if isinstance(token, ChangeToken) and token.starter_state == state.sim:
                candidates.setdefault(token.reactor_old_state, {})
                candidates[token.reactor_old_state].setdefault(token.index, token)
        jokers = [token for token in state.sending if _is_joker(token)]
        best = None
        for reactor_old, present in candidates.items():
            missing = [i for i in range(1, self.run_length + 1) if i not in present]
            if len(missing) > len(jokers):
                continue
            key = (len(missing), repr(reactor_old))
            if best is None or key < best[0]:
                to_remove = list(present.values()) + jokers[: len(missing)]
                joker_slots = [ChangeToken(state.sim, reactor_old, i) for i in missing]
                best = (key, to_remove, joker_slots, reactor_old)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def _consume(
        self, state: SKnOState, to_remove: Sequence[object], joker_slots: Sequence[object]
    ) -> SKnOState:
        queue = list(state.sending)
        for token in to_remove:
            queue.remove(token)
        owed = tuple(sorted(state.owed + tuple(joker_slots), key=repr))
        return replace(state, sending=tuple(queue), owed=owed)

    def _preliminary_check(self, state: SKnOState) -> SKnOState:
        if state.phase != PENDING:
            return state
        found = self._find_state_run(state, state.sim)
        if found is None:
            return state
        to_remove, joker_slots = found
        state = self._consume(state, to_remove, joker_slots)
        return replace(state, phase=AVAILABLE)

    def _core_check(self, state: SKnOState) -> Tuple[SKnOState, List[SimulationEvent]]:
        events: List[SimulationEvent] = []
        if state.phase == AVAILABLE:
            candidate_states = sorted(
                {
                    token.state
                    for token in state.sending
                    if isinstance(token, StateToken)
                },
                key=repr,
            )
            best = None
            for q in candidate_states:
                found = self._find_state_run(state, q)
                if found is None:
                    continue
                to_remove, joker_slots = found
                key = (len(joker_slots), repr(q))
                if best is None or key < best[0]:
                    best = (key, q, to_remove, joker_slots)
            if best is not None:
                _, q, to_remove, joker_slots = best
                old_sim = state.sim
                new_sim = self.delta(q, old_sim)[1]
                state = self._consume(state, to_remove, joker_slots)
                state = replace(
                    state,
                    sim=new_sim,
                    sending=state.sending + self._change_run(q, old_sim),
                )
                events.append(
                    SimulationEvent(
                        step=-1,
                        agent=-1,
                        role=REACTOR_ROLE,
                        pre_sim=old_sim,
                        post_sim=new_sim,
                        partner_pre_sim=q,
                        key=(q, old_sim),
                    )
                )
        elif state.phase == PENDING:
            found = self._find_change_run(state)
            if found is not None:
                to_remove, joker_slots, reactor_old = found
                old_sim = state.sim
                new_sim = self.delta(old_sim, reactor_old)[0]
                state = self._consume(state, to_remove, joker_slots)
                state = replace(state, sim=new_sim, phase=AVAILABLE)
                events.append(
                    SimulationEvent(
                        step=-1,
                        agent=-1,
                        role=STARTER_ROLE,
                        pre_sim=old_sim,
                        post_sim=new_sim,
                        partner_pre_sim=reactor_old,
                        key=(old_sim, reactor_old),
                    )
                )
        return state, events

    def extract_events(self, trace) -> List[SimulationEvent]:
        events: List[SimulationEvent] = []
        for step in trace.steps:
            interaction = step.interaction
            if interaction.is_omissive:
                if self.variant == VARIANT_I3:
                    _, step_events = self._receive(step.reactor_pre, JokerToken())
                else:
                    step_events = []
            else:
                token = self.outgoing_token(step.starter_pre)
                _, step_events = self._receive(step.reactor_pre, token)
            for event in step_events:
                events.append(
                    SimulationEvent(
                        step=step.index,
                        agent=interaction.reactor,
                        role=event.role,
                        pre_sim=event.pre_sim,
                        post_sim=event.post_sim,
                        partner_pre_sim=event.partner_pre_sim,
                        key=event.key,
                    )
                )
        return events


# ---------------------------------------------------------------------------------------------
# Random composite states
# ---------------------------------------------------------------------------------------------

PROTOCOLS = (PairingProtocol(), ExactMajorityProtocol())


@st.composite
def setups(draw):
    """A protocol, an omission bound ``o`` in {0, 1, 2} and a variant."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    omission_bound = draw(st.integers(min_value=0, max_value=2))
    variant = draw(st.sampled_from((VARIANT_I3, VARIANT_I4)))
    return protocol, omission_bound, variant


def tokens(protocol, omission_bound):
    states = st.sampled_from(sorted(protocol.states, key=repr))
    indices = st.integers(min_value=1, max_value=omission_bound + 1)
    return st.one_of(
        st.builds(StateToken, states, indices),
        st.builds(ChangeToken, states, states, indices),
        st.builds(JokerToken),
    )


def composite_states(protocol, omission_bound):
    real_tokens = tokens(protocol, omission_bound).filter(
        lambda token: not isinstance(token, JokerToken))
    return st.builds(
        SKnOState,
        st.sampled_from(sorted(protocol.states, key=repr)),
        st.sampled_from((AVAILABLE, PENDING)),
        st.lists(tokens(protocol, omission_bound), max_size=8).map(tuple),
        # ``owed`` is kept repr-sorted by the simulator.
        st.lists(real_tokens, max_size=3).map(lambda owed: tuple(sorted(owed, key=repr))),
    )


@st.composite
def transition_cases(draw):
    protocol, omission_bound, variant = draw(setups())
    states = composite_states(protocol, omission_bound)
    return protocol, omission_bound, variant, draw(states), draw(states)


@st.composite
def trace_cases(draw):
    protocol, omission_bound, variant = draw(setups())
    n = draw(st.integers(min_value=2, max_value=4))
    initial = draw(st.lists(composite_states(protocol, omission_bound), min_size=n, max_size=n))
    length = draw(st.integers(min_value=0, max_value=30))
    interactions = []
    for _ in range(length):
        starter = draw(st.integers(0, n - 1))
        reactor = draw(st.integers(0, n - 2))
        if reactor >= starter:
            reactor += 1
        omissive = draw(st.booleans()) if omission_bound else False
        interactions.append(Interaction(
            starter, reactor, omission=REACTOR_OMISSION if omissive else NO_OMISSION))
    return protocol, omission_bound, variant, initial, Run(interactions)


def pair(protocol, omission_bound, variant):
    return (SKnOSimulator(protocol, omission_bound=omission_bound, variant=variant),
            ReferenceSKnO(protocol, omission_bound, variant))


# ---------------------------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------------------------


class TestMatchesReference:
    @given(transition_cases())
    @settings(max_examples=150, deadline=None)
    def test_transitions_equal_reference(self, case):
        protocol, omission_bound, variant, starter, reactor = case
        simulator, reference = pair(protocol, omission_bound, variant)
        assert simulator.outgoing_token(starter) == reference.outgoing_token(starter)
        assert simulator.g(starter) == reference.g(starter)
        assert simulator.f(starter, reactor) == reference.f(starter, reactor)
        assert simulator.on_reactor_omission(reactor) == reference.on_reactor_omission(reactor)
        assert simulator.on_starter_omission(starter) == reference.on_starter_omission(starter)

    @given(trace_cases())
    @settings(max_examples=50, deadline=None)
    def test_executions_and_events_equal_reference(self, case):
        protocol, omission_bound, variant, initial, run = case
        simulator, reference = pair(protocol, omission_bound, variant)
        model = get_model(variant)
        trace = SimulationEngine(simulator, model, scheduler=None).replay(
            Configuration(initial), run)
        for step in trace.steps:
            expected = model.apply(
                reference, step.starter_pre, step.reactor_pre, step.interaction.omission)
            assert (step.starter_post, step.reactor_post) == expected
        assert simulator.extract_events(trace) == reference.extract_events(trace)
