"""Label accounting and outside-in span tracing for the label-loop benchmark.

Nothing here edits the library: every measurement point is an instance
attribute that shadows a public method on one of the benchmark's own objects
(a session, its board, its filter pipeline, the classifier, the executor, the
scheduler or the stream plane) and calls through to the original.

Two kinds of wrapper exist:

- :class:`LabelBook` probes stay on in every run.  They sit on each session's
  ``prepare_window`` and ``apply_result`` and give every label its due time,
  prepare interval, terminal state and apply time, which is all the
  end-to-end metrics need.
- :class:`Tracer` spans are installed only for the traced slices of a
  ``--trace 1`` run.  Each span records its start, duration and self time
  (duration minus the time its child spans cover), so per-layer costs add up
  to the time they were measured inside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter

#: Terminal states of a due label.
APPLIED = "applied"
SHED = "shed"
SUPERSEDED = "superseded"
STALLED = "stalled"
#: Dropped unprepared by the load generator because the session's next label
#: was already due when this one could start (a miss).
SKIPPED = "skipped"
PENDING = "pending"


def _shadow(obj: Any, attr: str, replacement: Callable) -> Tuple[Any, str, bool, Any]:
    """Set ``obj.attr`` to ``replacement``; return what restores it."""
    had_own = attr in vars(obj)
    previous = vars(obj)[attr] if had_own else None
    setattr(obj, attr, replacement)
    return obj, attr, had_own, previous


def _restore(handle: Tuple[Any, str, bool, Any]) -> None:
    obj, attr, had_own, previous = handle
    if had_own:
        setattr(obj, attr, previous)
    else:
        delattr(obj, attr)


@dataclass
class Label:
    """One due label of one session."""

    session_id: str
    due_s: float
    slice_index: int
    prepare_start_s: float = 0.0
    prepare_end_s: float = 0.0
    apply_end_s: float = 0.0
    state: str = PENDING
    actuated: bool = False

    @property
    def latency_s(self) -> float:
        return self.apply_end_s - self.due_s


class LabelBook:
    """Per-label due/apply accounting through always-on session probes.

    A label is created when its session's ``prepare_window`` starts.  Its due
    time is the start of that call in a closed loop, or the scheduled submit
    time the driver announced through :meth:`expect` in an open loop.  When
    ``apply_result`` returns for a session, its most recent pending label is
    applied and any older pending ones were superseded by it: every front end
    serves the freshest window of a session and drops the stale ones.
    """

    def __init__(self, confidence_threshold: float, sample: Callable) -> None:
        self.labels: List[Label] = []
        self.recording = False
        self.slice_index = 0
        self._threshold = confidence_threshold
        self._sample = sample
        self._pending: Dict[str, List[Label]] = {}
        self._due: Dict[str, float] = {}
        self._handles: List[Tuple] = []

    def attach(self, session: Any) -> None:
        """Probe one session's two-phase serving API."""
        sid = session.session_id
        self._pending.setdefault(sid, [])
        prepare = session.prepare_window
        apply = session.apply_result
        book = self

        def probed_prepare():
            start = now()
            window = prepare()
            if not book.recording:
                return window
            label = Label(sid, book._due.pop(sid, start), book.slice_index, start, now())
            book.labels.append(label)
            if window is None:
                label.state = STALLED
            else:
                book._pending[sid].append(label)
            return window

        def probed_apply(probabilities, classify_latency_s=0.0):
            tick = apply(probabilities, classify_latency_s)
            end = now()
            pending = book._pending[sid]
            if pending:
                label = pending.pop()
                label.apply_end_s = end
                label.state = APPLIED
                label.actuated = tick.should_actuate(book._threshold)
                for stale in pending:
                    stale.state = SUPERSEDED
                pending.clear()
                book._sample(session, probabilities, label)
            return tick

        self._handles.append(_shadow(session, "prepare_window", probed_prepare))
        self._handles.append(_shadow(session, "apply_result", probed_apply))

    def expect(self, session_id: str, due_s: float) -> None:
        """Announce the scheduled due time of a session's next label."""
        self._due[session_id] = due_s

    def mark_shed(self, session_id: str) -> None:
        """The front end refused the label just prepared for this session."""
        self._pending[session_id].pop().state = SHED

    def skip(self, session_id: str, due_s: float, at_s: float) -> None:
        """The generator dropped a label due at ``due_s`` at time ``at_s``."""
        if self.recording:
            self.labels.append(
                Label(session_id, due_s, self.slice_index, at_s, at_s, state=SKIPPED)
            )

    def start(self) -> None:
        """Begin recording labels (after set-up and warm-up)."""
        self.recording = True

    def detach(self) -> None:
        while self._handles:
            _restore(self._handles.pop())

    def counts(self) -> Dict[str, int]:
        counts = {APPLIED: 0, SHED: 0, SUPERSEDED: 0, STALLED: 0, SKIPPED: 0, PENDING: 0}
        for label in self.labels:
            counts[label.state] += 1
        return counts


@dataclass
class Span:
    """One traced call: wall interval, self time and what it contained."""

    name: str
    start_s: float
    duration_s: float
    self_s: float
    #: Time of descendant spans in :attr:`Tracer.work_stages`.
    work_s: float
    #: Whether a plan call ran inside this span.
    planned: bool
    #: Number of traced spans enclosing this one (0 = called by the driver).
    depth: int
    rows: int = 0


@dataclass
class _Frame:
    children_s: float = 0.0
    work_s: float = 0.0
    planned: bool = False


class Tracer:
    """Span recorder over wrapped public calls, switched on per slice.

    :meth:`wrap` registers a call site; :meth:`install` shadows every
    registered method and :meth:`uninstall` restores the originals, so the
    untraced slices of a run execute exactly the untraced code.
    """

    #: Stages whose time counts as label work (prepare, plan, apply) when a
    #: scheduler call's own overhead is derived from its span.
    work_stages = ("core.prepare", "nn.plan", "core.apply")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.installed = False
        self._sites: List[Tuple[Any, str, str, Optional[Callable]]] = []
        self._handles: List[Tuple] = []
        self._stack: List[_Frame] = []

    def wrap(
        self, obj: Any, attr: str, name: str, rows: Optional[Callable] = None
    ) -> None:
        """Trace ``obj.attr`` as stage ``name`` while installed.

        ``rows`` maps the call's positional arguments to the number of
        windows it processed (plan calls).
        """
        self._sites.append((obj, attr, name, rows))

    def install(self) -> None:
        for obj, attr, name, rows in self._sites:
            self._handles.append(
                _shadow(obj, attr, self._traced(getattr(obj, attr), name, rows))
            )
        self.installed = True

    def uninstall(self) -> None:
        while self._handles:
            _restore(self._handles.pop())
        self.installed = False

    def _traced(self, inner: Callable, name: str, rows: Optional[Callable]) -> Callable:
        stack = self._stack
        spans = self.spans
        is_work = name in self.work_stages
        is_plan = name == "nn.plan"

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = now()
            try:
                return inner(*args, **kwargs)
            finally:
                duration = now() - start
                stack.pop()
                spans.append(
                    Span(
                        name,
                        start,
                        duration,
                        duration - frame.children_s,
                        frame.work_s,
                        frame.planned or is_plan,
                        len(stack),
                        rows(*args) if rows is not None else 0,
                    )
                )
                if stack:
                    parent = stack[-1]
                    parent.children_s += duration
                    parent.work_s += duration if is_work else frame.work_s
                    parent.planned = parent.planned or frame.planned or is_plan

        return traced

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


class Slices:
    """The measured window, cut into slices of about ``slice_s`` each.

    End-to-end metrics are computed over the faster half of the slices (see
    ``metrics.py``).  In a traced run the slices alternate untraced and
    traced, starting untraced, so drift on the host hits both kinds alike
    and the cost per label of the two kinds gives the tracing overhead.
    The driver calls :meth:`at` between steps; a switch to a traced slice
    installs the spans and a switch back removes them.
    """

    def __init__(
        self,
        book: LabelBook,
        tracer: Optional[Tracer],
        start_s: float,
        seconds: float,
        slice_s: float = 1.0,
    ) -> None:
        self.book = book
        self.tracer = tracer
        n = max(2, int(round(seconds / slice_s)))
        n += n % 2
        self.starts = [start_s + i * seconds / n for i in range(n)]
        self.busy_s = [0.0] * n
        self.index = 0
        book.slice_index = 0

    def traced(self, index: int) -> bool:
        return self.tracer is not None and index % 2 == 1

    def at(self, t: float) -> None:
        """Move to the slice that contains time ``t``."""
        while self.index + 1 < len(self.starts) and t >= self.starts[self.index + 1]:
            self.index += 1
            self.book.slice_index = self.index
            if self.tracer is not None:
                if self.traced(self.index):
                    self.tracer.install()
                else:
                    self.tracer.uninstall()

    def add_busy(self, seconds: float) -> None:
        self.busy_s[self.index] += seconds

    def finish(self) -> None:
        if self.tracer is not None and self.tracer.installed:
            self.tracer.uninstall()
