"""Per-session state and fleet membership for the serving front ends.

A :class:`ServingSession` is one participant's end of the serving system: it
owns the simulated board, the preprocessing/smoothing state (via a
classifier-less :class:`RealTimeInferenceLoop`) and the actuation stack
(controller + voice-mode multiplexer).  It deliberately does *not* own a
classifier — classification is the shared, batched resource a fleet
amortises across sessions — so the session exposes the loop's two-phase API
instead:

``prepare_window()``
    advance one label period and return the filtered classification window
    (or ``None`` when the session is stalled this tick), then
``apply_result(probabilities)``
    consume the centrally computed class probabilities and produce the
    session's next action tick, driving the arm controller.

Because both phases delegate to the very same primitives
``RealTimeInferenceLoop.tick`` is built from, a one-session fleet is
tick-for-tick identical to the single-session loop.

:class:`SessionFleet` is the one copy of fleet membership (id allocation,
attach-time checks, departure, per-session shed/supersession counters)
shared by the two session-owning front ends:
:class:`~repro.serving.scheduler.AsyncFleetScheduler` and
:class:`~repro.streams.producer.StreamFleetProducer`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.acquisition.board import BoardConfig, SimulatedCytonDaisyBoard
from repro.arm.controller import ArmController
from repro.asr.commands import CommandGrammar
from repro.core.config import CognitiveArmConfig
from repro.core.multiplexer import ModeMultiplexer
from repro.core.realtime import InferenceTick, RealTimeInferenceLoop
from repro.signals.montage import Montage
from repro.signals.synthetic import ACTION_IDLE, ACTIONS, ParticipantProfile
from repro.utils.timing import Clock


class ServingSession:
    """One concurrent user of a serving fleet.

    Parameters
    ----------
    session_id:
        Unique identifier used to route batched results back to this session.
    profile:
        Participant whose EEG the session's board streams (heterogeneous
        fleets pass a different profile per session).
    config:
        Per-session system configuration; every session in one fleet must
        share ``window_size``/``n_channels`` so windows stack into one batch.
    stall_ticks:
        Tick indices at which this session is stalled: its board keeps
        streaming but no window is prepared, so the fleet batch shrinks by
        one that tick and the session's backlog grows.  On the next healthy
        tick the session catches up by classifying only the latest window
        (real-time behaviour: stale windows are dropped, not replayed).
    """

    def __init__(
        self,
        session_id: str,
        profile: Optional[ParticipantProfile] = None,
        config: Optional[CognitiveArmConfig] = None,
        controller: Optional[ArmController] = None,
        grammar: Optional[CommandGrammar] = None,
        class_names: Tuple[str, ...] = ("left", "right", "idle"),
        stall_ticks: Optional[Iterable[int]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.session_id = str(session_id)
        self.config = config or CognitiveArmConfig()
        self.profile = profile or ParticipantProfile(participant_id=self.session_id)
        self.board = SimulatedCytonDaisyBoard(
            profile=self.profile,
            config=BoardConfig(
                sampling_rate_hz=self.config.sampling_rate_hz,
                n_channels=self.config.n_channels,
            ),
            montage=Montage(),
        )
        self.loop = RealTimeInferenceLoop(
            self.board, None, self.config, class_names, clock=clock
        )
        self.controller = controller or ArmController()
        self.multiplexer = ModeMultiplexer(
            grammar or CommandGrammar(), initial_mode=self.controller.mode
        )
        self._stall_ticks = frozenset(int(t) for t in (stall_ticks or ()))
        self.current_action = ACTION_IDLE
        self.tick_index = 0
        self.backlog_depth = 0
        self.dropped_windows = 0
        self.last_window: Optional[np.ndarray] = None
        self._intended: List[str] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Prepare the board, start streaming and fill the filter buffer."""
        if self._started:
            return
        self.board.prepare_session()
        self.board.start_stream()
        self.loop.warmup()
        self._started = True

    def stop(self) -> None:
        """Release the board session (idempotent)."""
        if not self._started:
            return
        self.board.release_session()
        self._started = False

    def set_action(self, action: str) -> None:
        """Set the mental task the simulated participant performs."""
        if action not in ACTIONS:
            raise ValueError(f"Unknown action {action!r}; expected one of {ACTIONS}")
        self.current_action = action
        self.board.set_action(action)

    def handle_keyword(self, keyword: str) -> bool:
        """Apply a voice keyword to the session's mode multiplexer."""
        changed = self.multiplexer.handle_keyword(keyword, self.board.sim_time_s)
        self.controller.set_mode(self.multiplexer.mode)
        return changed

    # ------------------------------------------------------------------ #
    # two-phase serving API
    # ------------------------------------------------------------------ #
    def prepare_window(self) -> Optional[np.ndarray]:
        """Advance one label period; return the filtered window or ``None``.

        ``None`` means the session is stalled this tick: EEG keeps streaming
        into the ring buffer, but no window reaches the classifier, so the
        caller should simply leave this session out of the micro-batch.
        """
        if not self._started:
            raise RuntimeError("start() must be called before prepare_window()")
        index = self.tick_index
        self.tick_index += 1
        if index in self._stall_ticks:
            self.board.advance(self.config.label_period_s)
            self.backlog_depth += 1
            self.last_window = None
            return None
        window = self.loop.prepare_window()
        if self.backlog_depth:
            # Recovery: the freshest window supersedes everything missed.
            self.dropped_windows += self.backlog_depth
            self.backlog_depth = 0
        self.last_window = window
        return window

    def apply_result(
        self, probabilities: np.ndarray, classify_latency_s: float = 0.0
    ) -> InferenceTick:
        """Consume batched probabilities, smooth, gate and actuate."""
        tick = self.loop.apply_result(probabilities, classify_latency_s)
        if tick.should_actuate(self.config.confidence_threshold):
            self.controller.apply_action(tick.smoothed_action, tick.confidence)
        self._intended.append(self.current_action)
        return tick

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def ticks(self) -> List[InferenceTick]:
        return self.loop.ticks

    def labels_emitted(self) -> int:
        return len(self.loop.ticks)

    def accuracy(self) -> float:
        """Fraction of emitted ticks whose smoothed action matched the intent."""
        if not self._intended:
            return 0.0
        correct = sum(
            tick.smoothed_action == intent
            for tick, intent in zip(self.loop.ticks, self._intended)
        )
        return correct / len(self._intended)


class SessionFleet:
    """Session membership for a front end that owns its sessions.

    Hosts set ``config`` and ``clock``, call :meth:`_init_sessions` from
    their constructor and implement :meth:`_attach_cohort`.  Sessions are
    duck-typed: anything with ``session_id``, ``prepare_window()`` and
    ``apply_result(probabilities, latency_s)`` serves
    (``start``/``stop``/``config`` are honoured when present).
    """

    config: CognitiveArmConfig
    clock: Optional[Clock]

    def _init_sessions(self) -> None:
        self._sessions: Dict[str, Any] = {}
        self._session_cohort: Dict[str, str] = {}
        self._departed: List[Any] = []
        self.shed_by_session: Dict[str, int] = {}
        self.superseded_by_session: Dict[str, int] = {}

    def _attach_cohort(self, cohort: Optional[str]) -> str:
        """Resolve (and prepare) the cohort a joining session is served in."""
        raise NotImplementedError

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> List[Any]:
        return list(self._sessions.values())

    def get_session(self, session_id: str) -> Any:
        return self._sessions[session_id]

    def cohort_of(self, session_id: str) -> str:
        return self._session_cohort[session_id]

    def add_session(
        self,
        session: Optional[Any] = None,
        *,
        cohort: Optional[str] = None,
        session_id: Optional[str] = None,
        profile: Optional[ParticipantProfile] = None,
        **session_kwargs,
    ) -> Any:
        """Attach a session to a cohort (building a ServingSession if needed).

        Auto-generated ids are the smallest free ``session-N``; departed
        sessions' ids stay reserved for the life of the fleet.  The session
        is started immediately, so it is eligible for the very next
        submission or tick.
        """
        cohort = self._attach_cohort(cohort)
        if session is None:
            if session_id is None:
                taken = set(self._sessions)
                taken.update(s.session_id for s in self._departed)
                index = len(taken)
                while f"session-{index}" in taken:
                    index += 1
                session_id = f"session-{index}"
            session = ServingSession(
                session_id,
                profile=profile,
                config=self.config,
                clock=self.clock,
                **session_kwargs,
            )
        if session.session_id in self._sessions:
            raise ValueError(f"session {session.session_id!r} already attached")
        session_config = getattr(session, "config", None)
        if session_config is not None:
            if (
                session_config.n_channels != self.config.n_channels
                or session_config.window_size != self.config.window_size
            ):
                raise ValueError(
                    "session window/channel shape does not match the fleet; "
                    "windows from one cohort must stack into one batch"
                )
            if (
                session_config.label_rate_hz != self.config.label_rate_hz
                or session_config.sampling_rate_hz != self.config.sampling_rate_hz
            ):
                raise ValueError(
                    "session clock does not match the fleet; all boards advance "
                    "in lock-step simulated time at the fleet's label rate"
                )
        start = getattr(session, "start", None)
        if start is not None:
            start()
        self._sessions[session.session_id] = session
        self._session_cohort[session.session_id] = cohort
        self.shed_by_session.setdefault(session.session_id, 0)
        self.superseded_by_session.setdefault(session.session_id, 0)
        return session

    def remove_session(self, session_id: str) -> Any:
        """Detach a session; its stats remain in the final report.

        Rows still owed to it (queued or in flight) are dropped on arrival.
        """
        session = self._sessions.pop(session_id)
        self._session_cohort.pop(session_id)
        stop = getattr(session, "stop", None)
        if stop is not None:
            stop()
        self._departed.append(session)
        return session
