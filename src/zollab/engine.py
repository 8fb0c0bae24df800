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
``jacobi`` analysis. ``integrate_flow`` integrates one state with
``solve_ivp``; it is the one-state reference the tests compare
``lockstep_flows`` against, flow by flow and bit for bit.

A sweep (``first_return_map``) keeps one record per returned geodesic, its
``GeodesicPath``, which reads everything it reports off its flow; a launch
that does not return keeps only its index and error message.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
# solve_ivp's own pieces, so lockstep shooting takes the steps it takes
from scipy.integrate._ivp.common import EPS, select_initial_step, validate_tol
from scipy.integrate._ivp.ivp import find_active_events, handle_events, prepare_events
from scipy.integrate._ivp.rk import RK45, RkDenseOutput
from scipy.optimize import brentq, minimize_scalar

from .geometry import (
    ManifoldSpec,
    christoffel_raw,
    inward_unit_normal,
    metric_inner,
    metric_norm,
    row_dot,
    scalar_pow,
)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
GRAZING_TOL = 1e-6
MAX_CHUNKS = 400
DIP_SAMPLES = 32             # samples of a step polynomial that may hide a dip of b


class NoReturnError(RuntimeError):
    """Raised when a geodesic fails to return to the boundary before t_max."""


# ---------------------------------------------------------------------------
# chunked event-driven integration

@dataclass
class FlowResult:
    """A flow's samples, step table and events, its chunks stitched in time
    order. ``nfev`` and ``n_steps`` count all the integration done, past the
    exit of a flow cut at a boundary crossing (``_Chunks.flow``) too."""

    times: np.ndarray            # stitched sample times
    states: np.ndarray           # (k, len(y)) stitched samples
    steps: tuple                 # RkDenseOutput (Q, y_old, t_old, h) of every step, stacked
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
        return _dense_states(*self._pieces(t.reshape(-1))).reshape(t.shape + (-1,))


def _dense_states(Q, y_old, t_old, h, t):
    """Row i: the ``RkDenseOutput`` (Q[i], y_old[i], t_old[i], h[i]) at t[i], with
    its arithmetic (``np.dot`` of one row becomes a stacked ``matmul``)."""
    x = (t - t_old) / h
    p = np.cumprod(np.repeat(x[:, None], Q.shape[-1], axis=1), axis=1)
    y = h[:, None] * np.matmul(Q, p[:, :, None])[:, :, 0]
    y += y_old
    return y


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
    """Event functions of a flow at one state, and their tags: b and db/dt
    where boundary returns are detected, then every deck face. They are the
    columns of ``_event_values``, in its order."""
    n = spec.dimension
    boundary = spec.boundary
    events = []
    tags = []
    if detect_boundary:
        def hit(t_, y_):
            return boundary.value(y_[:n])
        hit.terminal = True
        hit.direction = -1
        events.append(hit)
        tags.append(("boundary", None))

        def graze(t_, y_):
            return float(boundary.gradient(y_[:n]) @ y_[n:2 * n])
        graze.terminal = False
        graze.direction = 1
        events.append(graze)
        tags.append(("graze", None))

    for deck in spec.deck_maps:
        def face_ev(t_, y_, _d=deck):
            return _d.face_value(y_[:n])
        face_ev.terminal = True
        face_ev.direction = -1
        events.append(face_ev)
        tags.append(("deck", deck))
    return events, tags


def _event_values(spec, Y, detect_boundary):
    """(m, k) values of the k ``_event_functions`` at the states Y (m, N), one
    stacked call per function; row i is bit for bit the functions at Y[i]."""
    n = spec.dimension
    X = Y[:, :n]
    columns = []
    if detect_boundary:
        columns += [spec.boundary.value(X), row_dot(spec.boundary.gradient(X), Y[:, n:2 * n])]
    columns += [deck.face_value(X) for deck in spec.deck_maps]
    return np.stack(columns, axis=1) if columns else np.empty((len(Y), 0))


def _watched_events(spec, y, g, tags):
    """Indices of the events a chunk that starts at state y, where the event
    values are g, watches: all but the deck faces the trajectory is riding
    (face ~ 0, no transversal motion)."""
    n = spec.dimension
    watched = []
    for k, (kind, deck) in enumerate(tags):
        if kind == "deck" and abs(g[k]) < 1e-12:
            probe = y[:n] + 1e-6 * spec.scale_hint * y[n:2 * n]
            if abs(deck.face_value(probe) - g[k]) < 1e-10:
                continue
        watched.append(k)
    return np.array(watched, dtype=np.intp)


class _Chunks:
    """What a flow keeps across its chunks: one chunk per ``solve_ivp`` call,
    ended by t_end, a boundary return or a deck crossing."""

    def __init__(self):
        self.times, self.states = [], []
        self.steps: list[tuple] = []  # (Q, y_old, t_old, h) of each step
        self.candidates: list[float] = []
        self.crossings: list[tuple[float, str]] = []
        self.nfev = self.n_steps = 0

    def add(self, spec, t, states, steps, tags, t_events, nfev, hidden, stopped):
        """Keep a chunk: its samples t (k,) and states, its k - 1 steps, and its
        tangency candidates in time order. ``hidden`` indexes the steps that
        may hide a dip of b (``_hides_dip``); ``stopped`` tells that a terminal
        event cut the last step short, so its end values do not count."""
        self.times.append(t)
        self.states.append(states)
        self.steps.extend(steps)
        self.nfev += nfev
        self.n_steps += len(t) - 1
        candidates = [float(tg) for (kind, _), times in zip(tags, t_events)
                      if kind == "graze" for tg in times]
        candidates += _hidden_dips(spec, [steps[k] for k in hidden if k < len(steps) - stopped])
        self.candidates.extend(sorted(candidates))

    def stop(self, spec, tags, t_events, y_events, vector_blocks):
        """Deck crossed by a chunk that a terminal event stopped, and the state to
        go on from; no deck (None) and the event state for a boundary return."""
        n = spec.dimension
        t_stop = self.times[-1][-1]
        fired = None
        for idx, (kind, deck) in enumerate(tags):
            if kind == "graze" or len(t_events[idx]) == 0:
                continue
            if abs(t_events[idx][-1] - t_stop) <= 1e-12 * max(1.0, abs(t_stop)):
                fired = (kind, deck, idx)
                break
        if fired is None:
            raise RuntimeError(f"terminal event bookkeeping failed on {spec.name!r}")

        kind, deck, idx = fired
        y_stop = y_events[idx][-1].copy()
        if kind == "boundary":
            return None, y_stop
        if len(self.crossings) + 1 == MAX_CHUNKS:
            raise RuntimeError(f"too many deck crossings on {spec.name!r} (runaway trajectory?)")

        # deck exit: teleport the state and continue; corner exits may need
        # a second application, transported the same way
        y_new = _apply_deck_to_state(deck, y_stop, n, vector_blocks)
        for _ in range(len(spec.deck_maps) + 1):
            offending = next((d for d in spec.deck_maps
                              if d.face_value(y_new[:n]) < -1e-13), None)
            if offending is None:
                break
            y_new = _apply_deck_to_state(offending, y_new, n, vector_blocks)
        self.crossings.append((float(t_stop), deck.name))
        return deck, y_new

    def flow(self, spec, status, t_event, y_event, grazing_tol):
        """The flow of the chunks. A tangency candidate (a local minimum of b)
        is grazing where |b| < grazing_tol. The first where b < 0 proves that
        the flow left M inside its step, and ends it there: its samples, steps,
        deck crossings and grazing times stop at the exit, a boundary return."""
        n = spec.dimension
        flow = FlowResult(np.concatenate(self.times), np.vstack(self.states),
                          tuple(map(np.array, zip(*self.steps))), status, t_event, y_event,
                          [], self.crossings, self.nfev, self.n_steps)
        if not self.candidates:
            return flow
        dips = spec.boundary.value(flow.state_at(self.candidates)[:, :n])
        exits = [i for i, b in enumerate(dips) if b < 0]
        # the exit's own tangency counts, whichever side of b = 0 rounding puts it
        last = exits[0] + 1 if exits else len(dips)
        flow.grazing_times = [tg for tg, b in zip(self.candidates[:last], dips)
                              if abs(b) < grazing_tol]
        return _cut_at_exit(flow, spec, self.candidates[exits[0]]) if exits else flow


def _hides_dip(g0, g1):
    """Whether a step can hide a dip of b from the tangency event: db/dt has one
    sign at both of its ends and b changes the other way, so b has a local
    minimum inside it. g0 and g1, the event values at the step's ends, start
    with b and db/dt; for stacks of them, (b, db/dt) columns, one flag per step."""
    return (g0[1] * g1[1] > 0) & ((g1[0] - g0[0]) * g0[1] < 0)


def _hidden_dips(spec, steps):
    """Times where b < 0 at the local minimum of b inside each step, sought on
    the step polynomial: the least b of ``DIP_SAMPLES`` + 1 even samples,
    refined by bounded Brent between the samples next to it."""
    n = spec.dimension
    dips = []
    for piece in steps:
        # C-ordered, so both steppers' copies of a step give the same bits
        step = [np.array(a, dtype=float, order="C")[None] for a in piece]

        def b_at(t):
            return spec.boundary.value(_dense_states(*step, np.atleast_1d(t))[:, :n])

        ts = step[2][0] + step[3][0] * np.linspace(0.0, 1.0, DIP_SAMPLES + 1)
        j = int(np.argmin(b_at(ts)))
        res = minimize_scalar(lambda t: b_at(t)[0], method="bounded",
                              bounds=(ts[max(j - 1, 0)], ts[min(j + 1, DIP_SAMPLES)]),
                              options={"xatol": 4 * EPS * max(1.0, ts[-1])})
        if res.fun < 0:
            dips.append(float(res.x))
    return dips


def _cut_at_exit(flow, spec, t_dip):
    """The flow cut where b first vanishes on the step of the candidate t_dip,
    between the step's start and t_dip, found on the step polynomial as scipy's
    ``solve_event_equation`` finds an event."""
    n = spec.dimension
    step = flow._pieces(np.array([t_dip]))[:4]

    def state(t):
        return _dense_states(*step, np.array([t]))[0]

    start = float(step[2][0])
    if not spec.boundary.value(state(start)[:n]) > 0:
        # only a launch step starts on the boundary
        raise RuntimeError(f"geodesic leaves {spec.name!r} within its first step")
    t_exit = brentq(lambda t: spec.boundary.value(state(t)[:n]), start, t_dip,
                    xtol=4 * EPS, rtol=4 * EPS)
    y_exit = state(t_exit)
    kept = flow.times < t_exit
    return replace(flow, times=np.append(flow.times[kept], t_exit),
                   states=np.vstack([flow.states[kept], y_exit]),
                   steps=tuple(a[flow.steps[2] < t_exit] for a in flow.steps),
                   status="boundary", event_time=t_exit, event_state=y_exit,
                   deck_crossings=[c for c in flow.deck_crossings if c[0] < t_exit])


def integrate_flow(spec, rhs, y0, t_end, *, vector_blocks, detect_boundary=True,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Integrate ``rhs`` with boundary-return and deck-face events.

    ``vector_blocks`` lists (offset, rows, cols) slices of the state that
    transform as matrices of tangent vectors under deck differentials; the
    leading n entries of the state are always the chart position.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    max_step = 0.25 * spec.scale_hint
    chunks = _Chunks()
    all_events, all_tags = _event_functions(spec, detect_boundary)
    while True:
        watched = _watched_events(spec, y, [event(t, y) for event in all_events], all_tags)
        events = [all_events[k] for k in watched]
        tags = [all_tags[k] for k in watched]
        sol = solve_ivp(rhs, (t, t_end), y, method="RK45", events=events,
                        dense_output=True, rtol=rtol, atol=atol, max_step=max_step)
        if sol.status == -1:
            raise RuntimeError(f"integration failed on {spec.name!r}: {sol.message}")
        hidden = []
        if detect_boundary:
            # b and db/dt at each sample, as the lockstep stepper has them
            g = [[event(t_, y_) for event in events[:2]] for t_, y_ in zip(sol.t, sol.y.T)]
            hidden = [k for k in range(len(g) - 1) if _hides_dip(g[k], g[k + 1])]
        # the one place scipy's interpolants are read
        chunks.add(spec, sol.t, sol.y.T,
                   [(p.Q, p.y_old, p.t_old, p.h) for p in sol.sol.interpolants],
                   tags, sol.t_events, sol.nfev, hidden, sol.status == 1)
        if sol.status == 0:
            return chunks.flow(spec, "t_end", None, None, grazing_tol)
        deck, y = chunks.stop(spec, tags, sol.t_events, sol.y_events, vector_blocks)
        if deck is None:
            return chunks.flow(spec, "boundary", float(sol.t[-1]), y, grazing_tol)
        t = float(sol.t[-1])


# ---------------------------------------------------------------------------
# lockstep shooting: scipy's RK45 over a stack of geodesics

_RK_EXPONENT = -1 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_STAGES = RK45.n_stages


def _rk45_try(rhs, y, f, h, rtol, atol):
    """``rk_step`` and the error norm of ``RK45._step_impl`` for states y (m, N)
    with derivatives f over steps h (m,): each ``np.dot`` of one state is a
    stacked ``matmul``, the RMS norm the square root of a stacked dot.

    Returns the new states, the stages K (m, 7, N) and the error norms. The
    geodesic equation is autonomous, so ``rhs`` gets no stage times.
    """
    K = np.empty((len(y), _STAGES + 1, y.shape[1]))
    K[:, 0] = f
    for s in range(1, _STAGES):
        dy = np.matmul(K[:, :s].swapaxes(1, 2), RK45.A[s, :s]) * h[:, None]
        K[:, s] = rhs(None, y + dy)
    y_new = y + h[:, None] * np.matmul(K[:, :-1].swapaxes(1, 2), RK45.B)
    K[:, -1] = rhs(None, y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    err = np.matmul(K.swapaxes(1, 2), RK45.E) * h[:, None] / scale
    error_norm = np.sqrt(np.matmul(err[:, None, :], err[:, :, None])[:, 0, 0]) / y.shape[1] ** 0.5
    return y_new, K, error_norm


def _step_factor(error_norm, rejected):
    """Factor ``RK45._step_impl`` scales each step size by after a try: Python's
    min(a, x) is x where x < a, and max(a, x) is x where x > a."""
    zero = error_norm == 0
    grow = np.full(len(error_norm), np.nan)
    grow[~zero] = _SAFETY * scalar_pow(error_norm[~zero], _RK_EXPONENT)
    accepted = np.where(zero, _MAX_FACTOR, np.where(grow < _MAX_FACTOR, grow, _MAX_FACTOR))
    accepted = np.where(rejected & ~(accepted < 1), 1, accepted)
    return np.where(error_norm < 1, accepted, np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR))


class _Launch:
    """One geodesic of a lockstep sweep: what ``solve_ivp`` keeps for the chunk
    it is in (events, samples, step table) and what ``integrate_flow`` keeps
    across its chunks."""

    def __init__(self):
        self.chunks = _Chunks()
        self.flow = None
        self.error = None

    def start(self, spec, rhs, t, y, f, g, events, tags, t_end, max_step, rtol, atol):
        """Open a chunk at (t, y), where the right-hand side is f and the values
        of the flow's event functions ``events`` are g; the chunk watches those
        ``_watched_events`` gives. Returns the initial step size, from scipy's
        ``select_initial_step``."""
        self.watched = _watched_events(spec, y, g, tags)
        self.events = [events[k] for k in self.watched]
        self.tags = [tags[k] for k in self.watched]
        _, self.max_events, _ = prepare_events(self.events)
        self.event_count = np.zeros(len(self.events))
        self.hidden = []  # steps that can hide a dip of b
        self.t_events = [[] for _ in self.events]
        self.y_events = [[] for _ in self.events]
        self.ts, self.ys, self.steps = [t], [y], []
        self.nfev = 1  # f

        def fun(t_, y_):
            self.nfev += 1
            return rhs(t_, y_)

        direction = np.sign(t_end - t) if t_end != t else 1
        return select_initial_step(fun, t, y, t_end, max_step, f, direction,
                                   RK45.error_estimator_order, rtol, atol)

    def accept(self, t_old, t, y_old, y, Q, finished, hides_dip, active):
        """Take one accepted step as ``solve_ivp`` does: interpolant, events,
        sample. ``active`` holds the events ``find_active_events`` finds between
        the event values at the step's ends, and ``hides_dip`` whether
        ``_hides_dip`` holds for them (never where no boundary is watched). Returns the chunk's status: None while it
        runs, 0 at t_end and 1 where a terminal event stopped it."""
        self.steps.append((Q, y_old, t_old, t - t_old))
        status = 0 if finished else None
        if active.size > 0:
            sol = RkDenseOutput(t_old, t, y_old, Q)
            self.event_count[active] += 1
            root_indices, roots, terminate = handle_events(
                sol, self.events, active, self.event_count, self.max_events, t_old, t)
            for e, te in zip(root_indices, roots):
                self.t_events[e].append(te)
                self.y_events[e].append(sol(te))
            if terminate:
                status = 1
                t = roots[-1]
                y = sol(t)
        if status != 1 and hides_dip:
            self.hidden.append(len(self.steps) - 1)
        if len(self.ts) > 1 and self.ts[-1] == t:
            self.steps.pop()
        else:
            self.ts.append(t)
            self.ys.append(y)
        return status

    def close(self, spec, status, grazing_tol, vector_blocks):
        """End the chunk; returns the time and state a deck crossing restarts
        from, else None."""
        ts = np.array(self.ts)
        self.chunks.add(spec, ts, np.vstack(self.ys), self.steps, self.tags, self.t_events,
                        self.nfev, self.hidden, status == 1)
        if status == 0:
            self.flow = self.chunks.flow(spec, "t_end", None, None, grazing_tol)
            return None
        deck, y = self.chunks.stop(spec, self.tags, self.t_events, self.y_events,
                                   vector_blocks)
        if deck is None:
            self.flow = self.chunks.flow(spec, "boundary", float(ts[-1]), y, grazing_tol)
            return None
        return float(ts[-1]), y


def lockstep_flows(spec: ManifoldSpec, rhs, y0, t_end, *, vector_blocks, detect_boundary=True,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Flows of ``rhs`` from the states y0 (m, N), integrated together up to
    t_end, one time or one per state.

    Flow i is bit for bit ``integrate_flow(spec, rhs, y0[i], t_end[i],
    vector_blocks=vector_blocks, detect_boundary=detect_boundary, ...)``:
    every flow keeps its own time, step size and state, and takes the steps
    and events scipy's RK45 takes for it alone, while the right-hand side of
    each stage, and the event values at the ends of the accepted steps, are
    evaluated on the stack of flows that are still running.
    ``rhs`` must take such a stack (m, N) and give each row what it gives
    that state alone; it gets no stage times, so the equation must be
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
    max_step = 0.25 * spec.scale_hint
    rtol, atol = validate_tol(rtol, atol, N)

    # the flows' event functions, their values at each flow's last step end
    # (G), and the place of each among the events the flow's chunk watches
    # (slot; -1 for one it does not watch)
    events, tags = _event_functions(spec, detect_boundary)
    direction = np.array([event.direction for event in events], dtype=float)
    slot = np.full((m, len(events)), -1)
    launches = [_Launch() for _ in range(m)]
    T = np.zeros(m)
    F = rhs(None, Y)
    G = _event_values(spec, Y, detect_boundary)
    H = np.empty(m)

    def start(i, t):
        """Open a chunk of flow i at time t and state Y[i], where F[i] and G[i]
        hold the right-hand side and the event values."""
        launch = launches[i]
        H[i] = launch.start(spec, rhs, t, Y[i].copy(), F[i], G[i], events, tags, T_end[i],
                            max_step, rtol, atol)
        slot[i] = -1
        slot[i, launch.watched] = np.arange(len(launch.watched))

    for i in range(m):
        start(i, 0.0)
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
            launches[i].error = RuntimeError(
                f"integration failed on {spec.name!r}: {RK45.TOO_SMALL_STEP}")
        run = run[~too_small]
        if not run.size:
            break

        t = T[run]
        t_new = t + H[run]
        t_new = np.where(t_new - T_end[run] > 0, T_end[run], t_new)
        h = t_new - t
        y = Y[run]
        y_new, K, error_norm = _rk45_try(rhs, y, F[run], h, rtol, atol)
        attempts[run] += 1
        H[run] = np.abs(h) * _step_factor(error_norm, rejected[run])
        ok = error_norm < 1
        rejected[run[~ok]] = True
        if not ok.any():
            continue

        acc = run[ok]
        t, t_new, y, y_new = t[ok], t_new[ok], y[ok], y_new[ok]
        T[acc] = t_new
        Y[acc] = y_new
        F[acc] = K[ok, -1]
        fresh[acc] = True
        Q = np.matmul(K[ok].swapaxes(1, 2), RK45.P)
        # the events of every accepted geodesic at its step end, and the
        # watched ones find_active_events finds, in one call each
        g, g_new = G[acc], _event_values(spec, y_new, detect_boundary)
        G[acc] = g_new
        hides_dip = _hides_dip(g.T, g_new.T) if detect_boundary else np.zeros(len(acc), bool)
        rows, columns = np.divmod(
            find_active_events(g.ravel(), g_new.ravel(), np.tile(direction, len(acc))),
            len(events))
        fired = {}
        for j, e in zip(rows, slot[acc[rows], columns]):
            if e >= 0:
                fired.setdefault(j, []).append(e)
        finished = t_new - T_end[acc] >= 0
        done = []
        for j, i in enumerate(acc):
            launch = launches[i]
            status = launch.accept(t[j], t_new[j], y[j], y_new[j], Q[j], finished[j],
                                   hides_dip[j], np.array(fired.get(j, ()), dtype=np.intp))
            if status is None:
                continue
            launch.nfev += _STAGES * int(attempts[i])
            attempts[i] = 0
            try:
                restart = launch.close(spec, status, grazing_tol, vector_blocks)
            except RuntimeError as exc:
                launch.error = exc
                restart = None
            if restart is None:
                done.append(i)
                continue
            t_start, y_start = restart
            T[i], Y[i], F[i] = t_start, y_start, rhs(t_start, y_start)
            G[i] = _event_values(spec, y_start[None], detect_boundary)[0]
            start(i, t_start)
        if done:
            run = np.setdiff1d(run, done)

    for launch in launches:
        if launch.error is not None:
            raise launch.error
    return [launch.flow for launch in launches]


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
    normal_deviation: float = field(init=False)

    def __post_init__(self):
        self.normal_deviation = arrival_orthogonality(self)

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
    """One Newton step onto b = 0 (cleans up manifest round-off)."""
    p = np.asarray(p, dtype=float)
    b = spec.boundary.value(p)
    db = spec.boundary.gradient(p)
    return p - b * db / float(db @ db)


def _launch_state(spec: ManifoldSpec, p):
    """Boundary point p, projected onto b = 0, and the state (p, inward unit normal)."""
    p = project_to_boundary(spec, np.asarray(p, dtype=float))
    if not spec.boundary.on_boundary(p):
        raise ValueError(f"launch point {p} not on the boundary of {spec.name!r}")
    return p, np.concatenate([p, inward_unit_normal(spec, p)])


def _shoot_all(spec: ManifoldSpec, points, t_max, rtol, atol, grazing_tol):
    """The geodesic paths from the boundary points that come back before t_max,
    and (index, message) of each one that does not."""
    if t_max is None:
        t_max = 50.0 * spec.scale_hint
    n = spec.dimension
    if not len(points):
        return [], []
    launch_points, y0 = zip(*(_launch_state(spec, p) for p in points))
    flows = lockstep_flows(spec, geodesic_rhs(spec), y0, t_max, vector_blocks=[(n, n, 1)],
                           rtol=rtol, atol=atol, grazing_tol=grazing_tol)
    paths = [GeodesicPath(spec, i, flow) for i, flow in enumerate(flows)
             if flow.status == "boundary"]
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


def arrival_orthogonality(path: GeodesicPath):
    """g-norm of the boundary-tangential component of the arrival velocity."""
    spec = path.spec
    q = path.arrival_point
    v = path.arrival_velocity
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    tangential = v - metric_inner(g, v, nu) * nu
    return metric_norm(g, tangential)


# ---------------------------------------------------------------------------
# launch sets and sweeps

@dataclass
class LaunchSet:
    points: np.ndarray           # (N, n)
    patch_ids: np.ndarray        # (N,)
    params: list                 # per-launch parameter vectors
    strategy: str


def _grid_sides(m, d):
    """Sides of the grid ``_uniform_grid`` lays on a patch of dimension d >= 2
    when asked for m points; their product need not be m."""
    sides = [max(1, int(round(m ** (1.0 / d))))] * d
    # adjust the last side so the product lands near m
    prod = int(np.prod(sides[:-1]))
    sides[-1] = max(1, m // prod)
    return sides


def _uniform_grid(m, d):
    if d == 0:
        return np.zeros((1, 0))
    if d == 1:
        return ((np.arange(m) + 0.5) / m).reshape(-1, 1)
    axes = [(np.arange(s) + 0.5) / s for s in _grid_sides(m, d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=1)


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
    """Number of launches ``sample_boundary`` gives when asked for ``count``.

    It differs from ``count`` where a uniform grid cannot hold a patch's share
    exactly (patches of dimension >= 2) and where a patch is a single point.
    """
    total = 0
    for patch, m in zip(spec.boundary_patches, _patch_shares(spec, count)):
        if m == 0:
            continue
        if patch.param_dim == 0:
            total += 1
        elif strategy == "uniform" and patch.param_dim >= 2:
            total += int(np.prod(_grid_sides(m, patch.param_dim)))
        else:
            total += m
    return total


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
        if patch.param_dim == 0:
            u = np.zeros((1, 0))
        elif strategy == "uniform":
            u = _uniform_grid(m, patch.param_dim)
        elif strategy == "low-discrepancy":
            from scipy.stats import qmc  # slow to import, and only this strategy uses it
            sampler = qmc.Halton(d=patch.param_dim, seed=seed + 7919 * pid)
            u = sampler.random(m)
        else:
            raise ValueError(f"unknown sampling strategy {strategy!r}")
        raw = patch.points(u)
        for row, prm in zip(raw, u):
            p = project_to_boundary(spec, row)
            if not spec.boundary.on_boundary(p):
                p = project_to_boundary(spec, p)
            pts.append(p)
            ids.append(pid)
            params.append(prm.copy())
    pts = np.array(pts)
    return LaunchSet(pts, np.array(ids), params, strategy)


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

    def states_at(self, t):
        """(m, 2n) position and velocity of each returned geodesic at t, a time or
        one time per returned launch; row i is bit-equal to its own ``state_at``."""
        times = np.broadcast_to(np.asarray(t, dtype=float), (len(self.paths),))
        parts = [p.flow._pieces(tp.reshape(1)) for p, tp in zip(self.paths, times)]
        if not parts:
            return np.empty((0, 2 * self.spec.dimension))
        return _dense_states(*map(np.concatenate, zip(*parts)))

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
