"""Geodesic shooting from the boundary with first-return event detection.

Geodesics are launched along the inward unit normal and integrated with an
adaptive embedded Runge-Kutta pair, whose dense output a flow keeps once, as
the table of its steps' polynomials (``FlowResult.steps``). Boundary returns
are located by bracketed root refinement on them. A local minimum of b where
b < 0 inside a step, found by a tangency event or, in a step whose ends do
not show it, on the step polynomial, cuts the flow at the exit it proves.
Exits through deck faces of the fundamental domain are handled by
teleporting the state.

Every run integrates through ``lockstep_flows``, which steps a stack of
states together: the launches of a sweep, or the Jacobi frames of the
``jacobi`` analysis. Everything it does is done on stacks: the steps and
initial steps of scipy's RK45, as ``zollab.rk45`` copies them; which events
a chunk watches and which fire in a step; the roots of every fired event of
an iteration, found together on the step polynomials by the stacked
``brentq`` of ``zollab.scalar``; and its record of the chunks, a log of
arrays appended once per iteration. ``integrate_flow`` integrates one state
with scipy's ``solve_ivp``, imported on its first call so that a run loads
no scipy; it is the one-state reference the tests compare
``lockstep_flows`` against, flow by flow and bit for bit. Both keep their
chunks in the same record, ``_StepLog``, which stitches every flow at the
end: one sort of the log, one search for the dips of b hidden inside steps,
and each flow's exit cut.

A sweep (``first_return_map``) keeps one record per returned geodesic, its
``GeodesicPath``, which reads everything it reports off its flow; a launch
that does not return keeps only its index and error message.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
# the first call of np.unique (or np.setdiff1d) imports numpy.ma, 13 ms; at
# import, it is set-up time, not a run's
import numpy.ma  # noqa: F401

from . import rk45
from .geometry import (
    ChartError,
    ManifoldSpec,
    check_regular_boundary,
    christoffel_raw,
    inward_unit_normal,
    metric_inner,
    metric_norm,
    row_dot,
)
from .scalar import brentq, minimize_bounded, require

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
GRAZING_TOL = 1e-6
MAX_CHUNKS = 400
DIP_SAMPLES = 32             # samples of a step polynomial that may hide a dip of b
MAX_STEP_SCALE = 0.25        # largest integration step, times spec.scale_hint
RETURN_HORIZON_SCALE = 50.0  # time a launch has to come back, times spec.scale_hint
SAMPLING_STRATEGIES = ("uniform", "low-discrepancy")


class NoReturnError(RuntimeError):
    """Raised when a geodesic fails to return to the boundary before t_max."""


class IntegrationError(RuntimeError):
    """Raised when a flow cannot be integrated on: its step size falls below
    the spacing of the floating-point numbers at its time, it crosses deck
    faces ``MAX_CHUNKS`` times, a deck map sends it out of M, or it is found
    outside M where its chunk started."""


# ---------------------------------------------------------------------------
# chunked event-driven integration

class _FlowTable:
    """The step tables of flows, concatenated: the states of many flows, each
    at its own time, read with one ``rk45.dense_states`` call."""

    def __init__(self, flows):
        self.steps = tuple(map(np.concatenate, zip(*(flow.steps for flow in flows))))
        counts = [len(flow.steps[2]) for flow in flows]
        self.first = np.cumsum([0] + counts[:-1])
        # each flow's step start times, padded with inf
        self.starts = np.full((len(flows), max(counts, default=0)), np.inf)
        for k, flow in enumerate(flows):
            self.starts[k, :counts[k]] = flow.steps[2]
        self.t_first = np.array([flow.times[0] for flow in flows])
        self.t_last = np.array([flow.times[-1] for flow in flows])

    def states(self, flows, t):
        """(k, N) state of flow ``flows[i]`` at t[i], for the index and time
        arrays (k,); row i is bit-equal to ``state_at(t[i])`` of its flow, whose
        step it takes as ``FlowResult._pieces`` does."""
        t = np.minimum(np.maximum(t, self.t_first[flows]), self.t_last[flows])
        before = np.sum(self.starts[flows] < t[:, None], axis=1)
        step = self.first[flows] + np.maximum(before - 1, 0)
        return rk45.dense_states(*(a[step] for a in self.steps), t)


@dataclass
class FlowResult:
    """A flow's samples, step table and events, its chunks stitched in time
    order. ``nfev`` and ``n_steps`` count all the integration done, past the
    exit of a flow cut at a boundary crossing (``_StepLog.stitch``) too."""

    times: np.ndarray            # stitched sample times
    states: np.ndarray           # (k, len(y)) stitched samples
    steps: tuple                 # (Q, y_old, t_old, h) polynomial of every step, stacked
    status: str                  # "boundary" | "t_end"
    event_time: Optional[float]
    event_state: Optional[np.ndarray]
    grazing_times: list[float]
    deck_crossings: list[tuple[float, str]]
    nfev: int                    # right-hand-side evaluations, as solve_ivp counts them
    n_steps: int                 # accepted steps: len(t) - 1 of every solve_ivp chunk

    @property
    def grazing(self):
        return bool(self.grazing_times)

    def _pieces(self, t):
        """Pieces of the step each time of t (k,) falls in, and t clipped to the flow.

        scipy's dense output of a chunk takes the last step that starts before
        t (the first step if none does). Chunks are contiguous and each step
        starts where the one before it ended, so that is the last step of the
        whole flow that starts before t clipped to the flow.
        """
        Q, y_old, t_old, h = self.steps
        t = np.minimum(np.maximum(t, self.times[0]), self.times[-1])
        step = np.maximum(np.searchsorted(t_old, t) - 1, 0)
        return Q[step], y_old[step], t_old[step], h[step], t

    def state_at(self, t):
        """State at time t, or the (k, len(y)) states at the times of an array (k,).

        Each state is bit-equal to one scalar call of scipy's dense output of
        its chunk; a call on a time array rounds differently, so the step
        polynomials are evaluated here.
        """
        t = np.asarray(t, dtype=float)
        return rk45.dense_states(*self._pieces(t.reshape(-1))).reshape(t.shape + (-1,))


def geodesic_rhs(spec: ManifoldSpec):
    """Right-hand side of the geodesic equation for a state (2n,) or a stack of
    states (m, 2n), each row bit-equal to its state alone."""
    metric = spec.metric
    n = spec.dimension

    def rhs(t, y):
        v = y[..., n:2 * n]
        # the module-level name is looked up on every call, so rebinding
        # christoffel_raw (as a call counter does) reaches this closure
        gamma = christoffel_raw(metric, y[..., :n])
        out = np.empty_like(y)
        out[..., :n] = v
        # a batch index on every operand, no einsum optimize
        np.negative(np.einsum("...kij,...i,...j->...k", gamma, v, v), out=out[..., n:])
        return out

    return rhs


def _event_functions(spec, detect_boundary):
    """Event functions of a flow and their tags: b and db/dt where boundary
    returns are detected, then every deck face. Each takes a state (N,) or a
    stack of states (m, N), each row bit-equal to its state alone."""
    n = spec.dimension
    boundary = spec.boundary
    events = []
    tags = []
    if detect_boundary:
        def hit(t_, y_):
            return boundary.value(y_[..., :n])
        hit.terminal = True
        hit.direction = -1
        events.append(hit)
        tags.append(("boundary", None))

        def graze(t_, y_):
            return row_dot(boundary.gradient(y_[..., :n]), y_[..., n:2 * n])
        graze.terminal = False
        graze.direction = 1
        events.append(graze)
        tags.append(("graze", None))

    for deck in spec.deck_maps:
        def face_ev(t_, y_, _d=deck):
            return _d.face_value(y_[..., :n])
        face_ev.terminal = True
        face_ev.direction = -1
        events.append(face_ev)
        tags.append(("deck", deck))
    return events, tags


def _event_values(events, Y):
    """(m, k) values of the k event functions ``events`` at the states Y (m, N),
    one stacked call per function; row i is bit for bit the functions at Y[i]."""
    columns = [event(None, Y) for event in events]
    return np.stack(columns, axis=1) if columns else np.empty((len(Y), 0))


def _watched_events(spec, Y, G, tags):
    """(m, k) flags of the events watched by chunks that start at the states Y
    (m, N), where the event values are G (m, k): all but the deck faces a
    trajectory is riding (face ~ 0, no transversal motion)."""
    n = spec.dimension
    watched = np.ones(G.shape, dtype=bool)
    probe = Y[:, :n] + 1e-6 * spec.scale_hint * Y[:, n:2 * n]
    for k, (kind, deck) in enumerate(tags):
        if kind == "deck":
            watched[:, k] = ~((np.abs(G[:, k]) < 1e-12)
                              & (np.abs(deck.face_value(probe) - G[:, k]) < 1e-10))
    return watched


def _chunk_end(spec, t_stop, fired, crossings, vector_blocks, detect_boundary):
    """End a flow's chunk at t_stop, at t_end (fired None) or at the terminal
    event fired = (tag, state). Returns the flow's ending (status, event time,
    event state), status "t_end" or "boundary"; or, after a deck crossing,
    which it appends to ``crossings``, ("deck", time, state) to go on from."""
    if fired is None:
        return "t_end", None, None
    (kind, deck), y_stop = fired
    if kind == "boundary":
        return "boundary", t_stop, y_stop
    if len(crossings) + 1 == MAX_CHUNKS:
        raise IntegrationError(f"too many deck crossings on {spec.name!r} "
                               "(runaway trajectory?)")

    # deck exit: teleport the state and continue; corner exits may need
    # a second application, transported the same way
    n = spec.dimension
    y_new = _apply_deck_to_state(deck, y_stop, n, vector_blocks)
    for _ in range(len(spec.deck_maps) + 1):
        offending = next((d for d in spec.deck_maps
                          if d.face_value(y_new[:n]) < -1e-13), None)
        if offending is None:
            break
        y_new = _apply_deck_to_state(offending, y_new, n, vector_blocks)
    if detect_boundary:
        b = float(spec.boundary.value(y_new[:n]))
        if b < -spec.boundary.eps:
            raise IntegrationError(f"deck map {deck.name!r} of {spec.name!r} sends a flow "
                                   f"out of M, to {y_new[:n]} where b = {b:.3g}")
    crossings.append((t_stop, deck.name))
    return "deck", t_stop, y_new


def _hides_dip(g0, g1):
    """Whether a step can hide a dip of b from the tangency event: db/dt has one
    sign at both of its ends and b changes the other way, so b has a local
    minimum inside it. g0 and g1, the event values at the step's ends, start
    with b and db/dt; for stacks of them, (b, db/dt) columns, one flag per step."""
    return (g0[1] * g1[1] > 0) & ((g1[0] - g0[0]) * g0[1] < 0)


def _step_state(piece):
    """The polynomials of steps, piece = (Q, y_old, t_old, h) of one step or
    of a stack of them (a leading axis on each): ``state(t, rows)``, the
    states (k, N) at the times t (k,) on the steps ``rows`` (k,) of the stack,
    or the state (N,) at a time; ``rows`` defaults to the first step."""
    # C-ordered, so both steppers' copies of a step give the same bits
    step = [np.array(a, dtype=float, order="C") for a in piece]
    if step[2].ndim == 0:
        step = [a[None] for a in step]

    def state(t, rows=0):
        t = np.asarray(t, dtype=float)
        rows = np.broadcast_to(rows, t.shape).reshape(-1)
        return rk45.dense_states(*(a[rows] for a in step), t.reshape(-1)).reshape(t.shape + (-1,))

    return state


def _event_roots(events, active, state, lo, hi, rows=0):
    """Row i: the time in [lo[i], hi[i]] where ``events[active[i]]`` vanishes
    on the step ``rows[i]`` of ``state`` (``_step_state``), found as scipy's
    ``solve_event_equation`` finds it (``brentq``, xtol = rtol = 4 eps), for
    every row at once; each event is evaluated on its rows' states together."""
    active = np.asarray(active)
    lo, hi, rows = (np.broadcast_to(v, active.shape) for v in (lo, hi, rows))

    def f(t, i):
        y = state(t, rows[i])
        values = np.empty(len(i))
        for e in np.unique(active[i]):
            on = active[i] == e
            values[on] = events[e](None, y[on])
        return values

    return require(*brentq(f, lo, hi, xtol=4 * rk45.EPS, rtol=4 * rk45.EPS))


def _active_events(g, g_new, direction):
    """(m, k) flags of the events whose values change sign from g to g_new
    (m, k) in their direction, 1 or -1 each: row by row, the events scipy's
    ``find_active_events`` finds (a value 0 at either end counts)."""
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    return np.where(direction > 0, up, down)


def _first_terminal(terminal, active, roots):
    """Positions in ``active`` (event indices, ascending) of the events that
    fire in one step, where their ``roots`` are, as scipy's ``handle_events``
    keeps them: all of them where none is terminal, else in time order up to
    the first terminal one. (A terminal event ends its chunk, so it has
    reached its count exactly where it is active.)"""
    if not terminal[active].any():
        return np.arange(len(active))
    order = np.argsort(roots)
    return order[:np.flatnonzero(terminal[active[order]])[0] + 1]


def _hidden_dips(spec, steps):
    """Where b has its local minimum inside each of the steps (Q, y_old, t_old,
    h), stacked, and whether b < 0 there, sought on the step polynomial: the
    least b of ``DIP_SAMPLES`` + 1 even samples, refined by bounded Brent
    (``minimize_bounded``) between the samples next to it; every step at
    once."""
    m = len(steps[2])
    if not m:
        return np.empty(0), np.empty(0, dtype=bool)
    n = spec.dimension
    state = _step_state(steps)

    def b_at(t, rows):
        return spec.boundary.value(state(t, rows)[:, :n])

    ts = steps[2][:, None] + steps[3][:, None] * np.linspace(0.0, 1.0, DIP_SAMPLES + 1)
    j = np.argmin(b_at(ts.ravel(), np.repeat(np.arange(m), DIP_SAMPLES + 1)).reshape(ts.shape),
                  axis=1)
    every = np.arange(m)
    end = ts[:, -1]
    x, fun = minimize_bounded(b_at, ts[every, np.maximum(j - 1, 0)],
                              ts[every, np.minimum(j + 1, DIP_SAMPLES)],
                              xatol=4 * rk45.EPS * np.where(end > 1.0, end, 1.0))
    return x, fun < 0


def _cut_at_exit(flow, spec, t_dip):
    """The flow cut where b first vanishes on the step of the candidate t_dip,
    between the step's start and t_dip, found as an event's root is."""
    n = spec.dimension
    piece = [a[0] for a in flow._pieces(np.array([t_dip]))[:4]]
    state = _step_state(piece)
    start = float(piece[2])
    if not spec.boundary.value(state(start)[:n]) > 0:
        # only a launch step starts on the boundary
        raise IntegrationError(f"geodesic leaves {spec.name!r} within its first step")
    hit = _event_functions(spec, True)[0][0]
    t_exit = float(_event_roots([hit], [0], state, start, t_dip)[0])
    y_exit = state(t_exit)
    kept = flow.times < t_exit
    return replace(flow, times=np.append(flow.times[kept], t_exit),
                   states=np.vstack([flow.states[kept], y_exit]),
                   steps=tuple(a[flow.steps[2] < t_exit] for a in flow.steps),
                   status="boundary", event_time=t_exit, event_state=y_exit,
                   deck_crossings=[c for c in flow.deck_crossings if c[0] < t_exit])


def solve_ivp(fun, t_span, y0, **options):
    """scipy's ``solve_ivp``, imported on the first call: only ``integrate_flow``
    calls it, and no run does."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(fun, t_span, y0, **options)


def integrate_flow(spec, rhs, y0, t_end, *, vector_blocks, detect_boundary=True,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Integrate ``rhs`` with boundary-return and deck-face events.

    ``vector_blocks`` lists (offset, rows, cols) slices of the state that
    transform as matrices of tangent vectors under deck differentials; the
    leading n entries of the state are always the chart position.

    Each ``solve_ivp`` call is one chunk of a ``_StepLog``, which stitches the
    flow as it does those of ``lockstep_flows``; its samples, steps, tangency
    roots and the steps that may hide a dip are read off scipy's output.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    max_step = MAX_STEP_SCALE * spec.scale_hint
    log = _StepLog(len(y))
    crossings, nfev = [], 0
    all_events, all_tags = _event_functions(spec, detect_boundary)
    while True:
        watched = np.flatnonzero(_watched_events(
            spec, y[None], _event_values(all_events, y[None]), all_tags)[0])
        events = [all_events[k] for k in watched]
        tags = [all_tags[k] for k in watched]
        sol = solve_ivp(rhs, (t, t_end), y, method="RK45", events=events,
                        dense_output=True, rtol=rtol, atol=atol, max_step=max_step)
        if sol.status == -1:
            raise IntegrationError(f"integration failed on {spec.name!r}: {sol.message}")
        nfev += sol.nfev
        # the one place scipy's interpolants are read
        steps = tuple(map(np.array, zip(*[(p.Q, p.y_old, p.t_old, p.h)
                                          for p in sol.sol.interpolants])))
        chunk = log.open(np.zeros(1, dtype=int), np.array([t]), y[None])
        rows = np.repeat(chunk, len(sol.t) - 1)
        hides = np.zeros(len(rows), dtype=bool)
        if detect_boundary:
            # b and db/dt at each sample, as the lockstep stepper has them; a
            # terminal event cut the last step short, so its end values do not count
            g = np.array([[event(t_, y_) for event in events[:2]]
                          for t_, y_ in zip(sol.t, sol.y.T)]).T
            hides = _hides_dip(g[:, :-1], g[:, 1:])
            if sol.status == 1:
                hides[-1:] = False
            log.grazes.append((np.repeat(chunk, len(sol.t_events[1])), sol.t_events[1]))
        log.samples.append((rows, sol.t[1:], sol.y.T[1:]))
        log.steps.append((rows, *steps, hides))
        # a terminal event ends its chunk, so only the one that fired has a root
        fired = next(((tag, y_e[-1].copy()) for tag, y_e in zip(tags, sol.y_events)
                      if tag[0] != "graze" and len(y_e)), None)
        status, t, y = _chunk_end(spec, float(sol.t[-1]), fired, crossings, vector_blocks,
                                  detect_boundary)
        if status != "deck":
            return log.stitch(spec, [(status, t, y)], [crossings], [nfev], [None],
                              grazing_tol)[0]


# ---------------------------------------------------------------------------
# lockstep shooting: scipy's RK45 over a stack of geodesics

def _by_flow(parts, flow_of):
    """The columns of ``parts``, a list of (chunk, ...) tuples of arrays, each
    concatenated and put in the order of the chunks' flows ``flow_of[chunk]``
    by one stable sort; ``parts`` is emptied."""
    columns = [np.concatenate(column) for column in zip(*parts)]
    parts.clear()
    order = np.argsort(flow_of[columns[0]], kind="stable")
    return [column[order] for column in columns]


class _StepLog:
    """The record of a run's flows, as arrays: the flow of each chunk,
    numbered as they open, and the samples, steps and tangency roots of the
    chunks, each row tagged with its chunk and appended in time order. Each
    integrator appends to it as it goes, ``lockstep_flows`` once per iteration
    and ``integrate_flow`` once per ``solve_ivp`` call, and ``stitch`` makes
    the flows of it at the end."""

    def __init__(self, N):
        self.count = 0
        self.flows = []
        self.samples = []             # (chunk, t, y): chunk openings and step ends
        self.steps = [(np.empty(0, dtype=int), np.empty((0, N, rk45.P.shape[1])),
                       np.empty((0, N)), np.empty(0), np.empty(0), np.empty(0, dtype=bool))]
        self.grazes = [(np.empty(0, dtype=int), np.empty(0))]
        self.stopped = [np.empty(0, dtype=int)]  # chunks a terminal event ended

    def open(self, flows, t, y):
        """Open a chunk of each of the ``flows`` at the times t and states y,
        and return their numbers."""
        chunks = self.count + np.arange(len(flows))
        self.count += len(flows)
        self.flows.append(flows)
        self.samples.append((chunks, t, y))
        return chunks

    def stitch(self, spec, endings, crossings, nfev, errors, grazing_tol):
        """The flows of the log: flow i ends as ``endings[i]`` (status, event
        time, event state) says, with the deck ``crossings[i]`` and ``nfev[i]``
        right-hand-side evaluations. A stable sort by flow puts the log in
        (flow, chunk) order, so each ``FlowResult`` is a slice of it, and one
        ``_hidden_dips`` call searches the steps flagged as hiding a dip; in a
        chunk a terminal event ended, the end values of the last step do not
        count, so it is not searched (the stopped step, or the step before it
        where the stopped one was dropped).

        A tangency candidate (a root of db/dt, or a hidden dip: a local minimum
        of b) is grazing where |b| < grazing_tol. The first where b < 0 proves
        that the flow left M inside its step, and ``_cut_at_exit`` ends the
        flow there; ``nfev`` and ``n_steps`` still count the integration past
        the exit. The first error in flow order is raised: ``errors[i]``, or
        ``_cut_at_exit``'s.
        """
        n = spec.dimension
        flow_of = np.concatenate(self.flows)
        sample_chunk, times, states = _by_flow(self.samples, flow_of)
        chunk, Q, y_old, t_old, h, hides = _by_flow(self.steps, flow_of)
        stopped = np.zeros(self.count, dtype=bool)
        stopped[np.concatenate(self.stopped)] = True
        final = np.append(chunk[1:] != chunk[:-1], True)  # each chunk's last step
        hides[final & stopped[chunk]] = False
        searched = np.flatnonzero(hides)
        x, dip = _hidden_dips(spec, (Q[searched], y_old[searched], t_old[searched], h[searched]))
        graze_chunk, grazes = map(np.concatenate, zip(*self.grazes))
        candidate_flow = np.concatenate([flow_of[graze_chunk], flow_of[chunk[searched[dip]]]])
        candidates = np.concatenate([grazes, x[dip]])
        order = np.lexsort((candidates, candidate_flow))
        candidate_flow, candidates = candidate_flow[order], candidates[order]
        sample_first, step_first, candidate_first = (
            np.searchsorted(f, np.arange(len(endings) + 1)).tolist()
            for f in (flow_of[sample_chunk], flow_of[chunk], candidate_flow))

        flows = []
        for i, (ending, error) in enumerate(zip(endings, errors)):
            if error is not None:
                raise error
            samples = slice(sample_first[i], sample_first[i + 1])
            rows = slice(step_first[i], step_first[i + 1])
            flow = FlowResult(times[samples], states[samples],
                              (Q[rows], y_old[rows], t_old[rows], h[rows]), *ending, [],
                              crossings[i], int(nfev[i]), rows.stop - rows.start)
            tg = candidates[candidate_first[i]:candidate_first[i + 1]]
            if tg.size:
                b = spec.boundary.value(flow.state_at(tg)[:, :n])
                exits = np.flatnonzero(b < 0)
                # the exit's own tangency counts, whichever side of b = 0 rounding puts it
                last = exits[0] + 1 if exits.size else len(b)
                flow.grazing_times = tg[:last][np.abs(b[:last]) < grazing_tol].tolist()
                if exits.size:
                    flow = _cut_at_exit(flow, spec, float(tg[exits[0]]))
            flows.append(flow)
        return flows


def lockstep_flows(spec: ManifoldSpec, rhs, y0, t_end, *, vector_blocks, detect_boundary=True,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Flows of ``rhs`` from the states y0 (m, N), integrated together up to
    t_end, one time or one per state.

    Flow i is bit for bit ``integrate_flow(spec, rhs, y0[i], t_end[i],
    vector_blocks=vector_blocks, detect_boundary=detect_boundary, ...)``:
    every flow keeps its own time, step size and state, and takes the steps
    and events scipy's RK45 takes for it alone, while everything else is
    done on stacks. Each iteration tries one step of every running flow,
    evaluates the events at the ends of the accepted steps, locates the
    fired ones, and appends the accepted rows to a ``_StepLog``; Python
    loops only over rows where several events fire or a chunk ends. The
    chunks that open together, the launches and the flows restarting after
    deck crossings of one iteration, take their right-hand side, events and
    initial steps (``rk45.initial_steps``) in one call each. The log is
    stitched into flows once, at the end (``_StepLog.stitch``).

    ``rhs`` must take a stack (m, N) and give each row what it gives that
    state alone; it gets no stage times, so the equation must be
    autonomous. A flow whose integration fails does not stop the others; the
    error of the first such flow is raised at the end.
    """
    Y = np.array(y0, dtype=float)
    Y = Y.reshape(-1, Y.shape[-1])
    m, N = Y.shape
    T_end = np.broadcast_to(np.asarray(t_end, dtype=float), (m,))
    if not np.all(T_end > 0):
        # solve_ivp would integrate backwards, or take one step of length 0
        raise ValueError(f"t_end must be positive, not {t_end!r}")
    max_step = MAX_STEP_SCALE * spec.scale_hint
    rtol, atol = rk45.validate_tol(rtol, atol, N)

    # the flows' event functions, their values at each flow's last step end
    # (G), and the events each flow's chunk watches (W)
    events, tags = _event_functions(spec, detect_boundary)
    direction = np.array([event.direction for event in events])
    terminal = np.array([event.terminal for event in events], dtype=bool)
    log = _StepLog(N)
    endings, errors = [None] * m, [None] * m
    crossings = [[] for _ in range(m)]
    T = np.zeros(m)
    F = np.empty((m, N))
    G = np.empty((m, len(events)))
    W = np.empty((m, len(events)), dtype=bool)
    H = np.empty(m)
    chunk = np.empty(m, dtype=int)      # each flow's open chunk
    T_open = np.empty(m)                # and the time it opened at
    nfev = np.zeros(m, dtype=int)

    def open_chunks(rows):
        """Open a chunk of each flow of ``rows`` at its time T and state Y."""
        y = Y[rows]
        F[rows] = rhs(None, y)
        G[rows] = _event_values(events, y)
        W[rows] = _watched_events(spec, y, G[rows], tags)
        H[rows], probed = rk45.initial_steps(rhs, y, F[rows], T_end[rows] - T[rows],
                                             max_step, rtol, atol)
        nfev[rows] += 1 + probed
        chunk[rows] = log.open(rows, T[rows], y)
        T_open[rows] = T[rows]

    open_chunks(np.arange(m))
    min_step = np.empty(m)
    attempts = np.zeros(m, dtype=int)  # steps tried in the current chunk
    rejected = np.zeros(m, dtype=bool)
    fresh = np.ones(m, dtype=bool)      # about to start a step
    run = np.arange(m)
    while run.size:
        # RK45._step_impl, one try for every running geodesic at once
        new = run[fresh[run]]
        if new.size:
            t = T[new]
            min_step[new] = 10 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs = H[new]
            H[new] = np.where(h_abs > max_step, max_step,
                              np.where(h_abs < min_step[new], min_step[new], h_abs))
            rejected[new] = False
            fresh[new] = False
        too_small = H[run] < min_step[run]
        for i in run[too_small]:
            errors[i] = IntegrationError(
                f"integration failed on {spec.name!r}: {rk45.TOO_SMALL_STEP}")
        run = run[~too_small]
        if not run.size:
            break

        t = T[run]
        t_new = t + H[run]
        t_new = np.where(t_new - T_end[run] > 0, T_end[run], t_new)
        h = t_new - t
        y = Y[run]
        y_new, K, error_norm = rk45.try_step(rhs, y, F[run], h, rtol, atol)
        attempts[run] += 1
        H[run] = np.abs(h) * rk45.step_factor(error_norm, rejected[run])
        ok = error_norm < 1
        rejected[run[~ok]] = True
        if not ok.any():
            continue

        acc = run[ok]
        t, t_new, h, y, y_new = t[ok], t_new[ok], h[ok], y[ok], y_new[ok]
        T[acc] = t_new
        Y[acc] = y_new
        F[acc] = K[ok, -1]
        fresh[acc] = True
        Q = np.matmul(K[ok].swapaxes(1, 2), rk45.P)
        # the events of every accepted geodesic at its step end, and the
        # watched ones that fire in its step
        g, g_new = G[acc], _event_values(events, y_new)
        G[acc] = g_new
        hides_dip = _hides_dip(g.T, g_new.T) if detect_boundary else np.zeros(len(acc), bool)
        active = _active_events(g, g_new, direction) & W[acc]

        # each step's sample: its end, or where the terminal event that ends
        # its chunk fired (``stop_event``, the event's index, -1 for none)
        t_stop, y_stop = t_new, y_new
        stop_event = np.full(len(acc), -1)
        fired_row, fired_event = np.nonzero(active)
        if fired_row.size:
            # the roots of every fired (geodesic, event) pair, found together,
            # and the ones handle_events keeps: a step's one event, or of
            # several, those in time order up to the first terminal one
            state = _step_state((Q, y, t, h))
            roots = _event_roots(events, fired_event, state, t[fired_row], t_new[fired_row],
                                 fired_row)
            count = np.bincount(fired_row)
            kept = count[fired_row] == 1
            for j in np.flatnonzero(count > 1):
                own = np.flatnonzero(fired_row == j)
                kept[own[_first_terminal(terminal, fired_event[own], roots[own])]] = True
            ends = kept & terminal[fired_event]
            grazes = kept & ~terminal[fired_event]
            log.grazes.append((chunk[acc[fired_row[grazes]]], roots[grazes]))
            stops = fired_row[ends]
            stop_event[stops] = fired_event[ends]
            if stops.size:
                t_stop, y_stop = t_new.copy(), y_new.copy()
                t_stop[stops] = roots[ends]
                y_stop[stops] = state(t_stop[stops], stops)
        stopped = stop_event >= 0
        # solve_ivp drops a step that ends where the one before it did
        logged = ~(stopped & (t_stop == t) & (t != T_open[acc]))
        log.samples.append((chunk[acc[logged]], t_stop[logged], y_stop[logged]))
        log.steps.append((chunk[acc[logged]], Q[logged], y[logged], t[logged], h[logged],
                          hides_dip[logged]))
        log.stopped.append(chunk[acc[stopped]])

        ending = np.flatnonzero(stopped | (t_new - T_end[acc] >= 0))
        if not ending.size:
            continue
        nfev[acc[ending]] += rk45.n_stages * attempts[acc[ending]]
        attempts[acc[ending]] = 0
        done, restarts = [], []
        for j in ending:
            i = acc[j]
            fired = (tags[stop_event[j]], y_stop[j].copy()) if stopped[j] else None
            try:
                endings[i] = _chunk_end(spec, float(t_stop[j]), fired, crossings[i],
                                        vector_blocks, detect_boundary)
            except IntegrationError as exc:
                errors[i] = exc
            if errors[i] is None and endings[i][0] == "deck":
                T[i], Y[i] = endings[i][1:]
                restarts.append(i)
            else:
                done.append(i)
        if restarts:
            open_chunks(np.array(restarts))
        if done:
            run = np.setdiff1d(run, done)

    return log.stitch(spec, endings, crossings, nfev, errors, grazing_tol)


def _apply_deck_to_state(deck, y, n, vector_blocks):
    x = y[:n]
    d_mat = np.asarray(deck.differential(x), dtype=float)
    out = y.copy()
    out[:n] = deck.apply_point(x)
    for off, rows, cols in vector_blocks:
        block = y[off:off + rows * cols].reshape(rows, cols)
        out[off:off + rows * cols] = (d_mat @ block).ravel()
    return out


# ---------------------------------------------------------------------------
# geodesic paths

@dataclass
class GeodesicPath:
    """Unit-speed geodesic launched orthogonally from the boundary, up to its
    return: launch ``index`` of its sweep, read off its flow."""

    spec: ManifoldSpec
    index: int
    flow: FlowResult             # a flow that returned to the boundary
    normal_deviation: float      # arrival_orthogonality at its return

    # views of the flow: its samples, first state and boundary return
    times = property(lambda self: self.flow.times)
    points = property(lambda self: self.flow.states[:, :self.spec.dimension])
    velocities = property(lambda self: self.flow.states[:, self.spec.dimension:])
    launch_point = property(lambda self: self.flow.states[0, :self.spec.dimension])
    launch_velocity = property(lambda self: self.flow.states[0, self.spec.dimension:])
    return_time = property(lambda self: self.flow.event_time)
    arrival_point = property(lambda self: self.flow.event_state[:self.spec.dimension])
    arrival_velocity = property(lambda self: self.flow.event_state[self.spec.dimension:])
    grazing = property(lambda self: self.flow.grazing)

    def state_at(self, t):
        """Position and velocity at time t, or their (k, n) stacks at times (k,)."""
        n = self.spec.dimension
        y = self.flow.state_at(t)
        return y[..., :n], y[..., n:2 * n]

    def position_at(self, t):
        return self.state_at(t)[0]


def project_to_boundary(spec: ManifoldSpec, p):
    """One Newton step onto b = 0 from a point (n,) or each row of a stack (cleans
    up round-off); ``ChartError`` names the first point where grad b vanishes."""
    p = np.asarray(p, dtype=float)
    db = spec.boundary.gradient(p)
    sq = row_dot(db, db)
    check_regular_boundary(spec, p, np.sqrt(sq))
    return p - np.asarray(spec.boundary.value(p))[..., None] * db / sq[..., None]


def _shoot_all(spec: ManifoldSpec, points, t_max, rtol, atol, grazing_tol):
    """The geodesic paths from the boundary points (m, n), projected onto b = 0, that come
    back before t_max, and (index, message) of each one that does not."""
    if t_max is None:
        t_max = RETURN_HORIZON_SCALE * spec.scale_hint
    n = spec.dimension
    if not len(points):
        return [], []
    launch_points = project_to_boundary(spec, points)
    off = ~spec.boundary.on_boundary(launch_points)
    if off.any():
        raise ChartError(f"launch point {launch_points[np.argmax(off)]} "
                         f"not on the boundary of {spec.name!r}")
    y0 = np.concatenate([launch_points, inward_unit_normal(spec, launch_points)], axis=1)
    flows = lockstep_flows(spec, geodesic_rhs(spec), y0, t_max, vector_blocks=[(n, n, 1)],
                           rtol=rtol, atol=atol, grazing_tol=grazing_tol)
    returned = [i for i, flow in enumerate(flows) if flow.status == "boundary"]
    arrivals = np.array([flows[i].event_state for i in returned]).reshape(-1, 2 * n)
    deviations = arrival_orthogonality(spec, arrivals[:, :n], arrivals[:, n:])
    paths = [GeodesicPath(spec, i, flows[i], dev) for i, dev in zip(returned, deviations)]
    errors = [(i, f"no return (not Zoll or t_max too small): {spec.name!r} from {p}")
              for i, (p, flow) in enumerate(zip(launch_points, flows))
              if flow.status != "boundary"]
    return paths, errors


def shoot(spec: ManifoldSpec, p, t_max=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
          grazing_tol=GRAZING_TOL):
    """Integrate the orthogonal geodesic from boundary point p to first return.

    A tangential approach counts as grazing where b dips below ``grazing_tol``.
    """
    paths, errors = _shoot_all(spec, [p], t_max, rtol, atol, grazing_tol)
    if errors:
        raise NoReturnError(errors[0][1])
    return paths[0]


def arrival_orthogonality(spec: ManifoldSpec, points, velocities):
    """g-norm of the boundary-tangential component of the arrival velocity at
    a boundary point (n,), or the (m,) array of them for stacks of arrival
    points and velocities (m, n)."""
    g = spec.metric.matrix(points)
    nu = inward_unit_normal(spec, points)
    tangential = velocities - metric_inner(g, velocities, nu)[..., None] * nu
    return metric_norm(g, tangential)


# ---------------------------------------------------------------------------
# launch sets and sweeps

@dataclass
class LaunchSet:
    points: np.ndarray           # (N, n)
    patch_ids: np.ndarray        # (N,)
    params: list                 # per-launch parameter vectors
    strategy: str


def launch_params(d, m, strategy="uniform", seed=0):
    """Parameters (k, d) of the launches on a boundary patch of dimension d >= 1
    asked for m > 0 of them: the cell centres of a uniform grid, or the first
    m points of a Halton sequence scrambled by ``seed``. A grid on d >= 2 axes
    has sides near m ** (1/d), so k need not be m."""
    if strategy == "uniform":
        side = max(1, int(round(m ** (1.0 / d))))
        # the last side makes the product land near m
        sides = [side] * (d - 1) + [max(1, m // side ** (d - 1))]
        mesh = np.meshgrid(*[(np.arange(s) + 0.5) / s for s in sides], indexing="ij")
        return np.stack([a.ravel() for a in mesh], axis=1)
    if strategy == "low-discrepancy":
        from scipy.stats import qmc  # slow to import, and only this strategy uses it
        return qmc.Halton(d=d, seed=seed).random(m)
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def _patch_shares(spec: ManifoldSpec, count):
    """Launches asked of each boundary patch: ``count`` split as evenly as possible."""
    n_patches = len(spec.boundary_patches)
    if n_patches == 0:
        return []
    per = [count // n_patches] * n_patches
    for i in range(count - sum(per)):
        per[i] += 1
    return per


def launch_count(spec: ManifoldSpec, count, strategy="uniform"):
    """Number of launches ``sample_boundary`` gives when asked for ``count``; it
    differs where a uniform grid cannot hold a patch's share (dimension >= 2)."""
    return sum(len(launch_params(patch.param_dim, m, strategy))
               for patch, m in zip(spec.boundary_patches, _patch_shares(spec, count)) if m)


def nearest_exact_launch_counts(spec: ManifoldSpec, count, strategy="uniform"):
    """Nearest counts below and above ``count`` that ``sample_boundary`` gives
    exactly, each None where there is none (above: up to twice ``count``)."""
    below = next((c for c in range(count - 1, 0, -1)
                  if launch_count(spec, c, strategy) == c), None)
    above = next((c for c in range(count + 1, 2 * count + 2)
                  if launch_count(spec, c, strategy) == c), None)
    return below, above


def sample_boundary(spec: ManifoldSpec, count, strategy="uniform", seed=0):
    """Sample launch points across the boundary patches of the spec.

    The launch set can hold fewer (or more) points than ``count``; see
    ``launch_count``.
    """
    if not spec.boundary_patches:
        raise ValueError(f"{spec.name!r} has no boundary sampler")
    pts, ids, params = [], [], []
    for pid, (patch, m) in enumerate(zip(spec.boundary_patches, _patch_shares(spec, count))):
        if m == 0:
            continue
        u = launch_params(patch.param_dim, m, strategy, seed + 7919 * pid)
        p = project_to_boundary(spec, patch.points(u))
        off = ~spec.boundary.on_boundary(p)
        p[off] = project_to_boundary(spec, p[off])
        pts.extend(p)
        ids.extend([pid] * len(p))
        params.extend(u.copy())
    return LaunchSet(np.array(pts), np.array(ids), params, strategy)


@dataclass
class SweepResult:
    spec: ManifoldSpec
    launch_set: LaunchSet
    paths: list[GeodesicPath]        # the launches that returned, in launch order
    errors: list[tuple[int, str]]    # (launch index, message) of those that did not

    @property
    def return_times(self):
        return np.array([p.return_time for p in self.paths])

    @property
    def half_length(self):
        """Half the mean return time of the returned launches (None if none returned)."""
        rt = self.return_times
        return float(rt.mean() / 2.0) if rt.size else None

    @cached_property
    def _table(self):
        return _FlowTable([p.flow for p in self.paths])

    def states_at(self, t, paths=None):
        """(k, 2n) position and velocity of the returned geodesics of the index
        array ``paths`` (k,), every one by default, at t, a time or one time
        per geodesic; row i is bit-equal to its own ``state_at``."""
        if not self.paths:
            return np.empty((0, 2 * self.spec.dimension))
        paths = np.arange(len(self.paths)) if paths is None else np.asarray(paths)
        return self._table.states(paths, np.broadcast_to(np.asarray(t, dtype=float), paths.shape))

    @property
    def midpoints(self):
        """Position of each returned geodesic at half its return time."""
        return self.states_at(self.return_times / 2.0)[:, :self.spec.dimension]

    def summary(self):
        """Launch counts, grazing count and, where any launch returned, the
        return-time statistics and the worst arrival angle."""
        rt = self.return_times
        out = {
            "n_launches": len(self.launch_set.points),
            "n_returned": len(self.paths),
            "n_errors": len(self.errors),
            "grazing_count": int(sum(p.grazing for p in self.paths)),
        }
        if rt.size:
            out.update({
                "return_time_min": float(rt.min()),
                "return_time_max": float(rt.max()),
                "return_time_mean": float(rt.mean()),
                "return_time_spread": float(rt.max() - rt.min()),
                "max_normal_deviation": float(max(p.normal_deviation for p in self.paths)),
            })
        return out


def first_return_map(spec: ManifoldSpec, launch_set: LaunchSet, t_max=None,
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Shoot every launch point, all in one lockstep integration; a launch that
    does not return is recorded, not raised."""
    return SweepResult(spec, launch_set,
                       *_shoot_all(spec, launch_set.points, t_max, rtol, atol, grazing_tol))


# ---------------------------------------------------------------------------
# exports

def sweep_to_csv(sweep: SweepResult, stream):
    """Every returned path of the sweep as ``launch,t,x1..,v1..`` rows."""
    n = sweep.spec.dimension
    stream.write("launch," + ",".join(
        ["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)]) + "\n")
    # %.17g of a float writes what {:.17g} writes, nan, inf and -0 included
    values = ",".join(["%.17g"] * (2 * n + 1)) + "\n"
    for path in sweep.paths:
        row = f"{path.index}," + values
        stream.write("".join(row % tuple(vals) for vals in np.column_stack(
            [path.times, path.points, path.velocities]).tolist()))


def sweep_to_json(sweep: SweepResult):
    """The sweep's summary and one entry per launch in launch order; a launch
    that did not return has its launch-set point and its error message."""
    ls = sweep.launch_set
    entries = {i: {"launch": [float(c) for c in ls.points[i]], "return_time": None,
                   "arrival": None, "normal_deviation": None, "grazing": False, "error": msg}
               for i, msg in sweep.errors}
    entries.update((p.index, {"launch": [float(c) for c in p.launch_point],
                              "return_time": float(p.return_time),
                              "arrival": [float(c) for c in p.arrival_point],
                              "normal_deviation": float(p.normal_deviation),
                              "grazing": p.grazing, "error": None})
                   for p in sweep.paths)
    return {
        "manifold": sweep.spec.name,
        "strategy": ls.strategy,
        "summary": sweep.summary(),
        "launches": [{"index": i, "patch": int(ls.patch_ids[i]), **entries[i]}
                     for i in range(len(ls.points))],
    }
