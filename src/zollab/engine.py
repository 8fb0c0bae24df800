"""Geodesic shooting from the boundary with first-return event detection.

Geodesics are launched along the inward unit normal and integrated with an
adaptive embedded Runge-Kutta pair (dense output); boundary returns are
located by bracketed root refinement on the dense output, and exits through
deck faces of the fundamental domain are handled by teleporting the state.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import (
    ManifoldSpec,
    christoffel_raw,
    inward_unit_normal,
    metric_inner,
    metric_norm,
    normalize_into_domain,
)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
GRAZING_TOL = 1e-6
MAX_CHUNKS = 400


class NoReturnError(RuntimeError):
    """Raised when a geodesic fails to return to the boundary before t_max."""


# ---------------------------------------------------------------------------
# chunked event-driven integration

@dataclass
class FlowResult:
    times: np.ndarray            # stitched sample times
    states: np.ndarray           # (k, len(y)) stitched samples
    segments: list               # [(t_lo, t_hi, OdeSolution)]
    status: str                  # "boundary" | "t_end"
    event_time: Optional[float]
    event_state: Optional[np.ndarray]
    grazing_times: list[float]
    grazing: bool
    deck_crossings: list[tuple[float, str]]

    @cached_property
    def _steps(self):
        """The ``RkDenseOutput`` pieces Q, y_old, t_old, h of every integration
        step, stacked in time order."""
        pieces = [p for _, _, sol in self.segments for p in sol.interpolants]
        return tuple(np.array([getattr(p, name) for p in pieces])
                     for name in ("Q", "y_old", "t_old", "h"))

    def _pieces(self, t):
        """Pieces of the step each time of t (k,) falls in, and t clipped to the flow.

        ``state_at`` used to take the first segment that reaches t, clip t to it
        and call the segment's ``OdeSolution``, which takes the last step that
        starts before t (the first step if none does). Segments are contiguous
        and each step starts where the one before it ended, so that is the last
        step of the whole flow that starts before t clipped to the flow.
        """
        Q, y_old, t_old, h = self._steps
        t = np.minimum(np.maximum(t, self.segments[0][0]), self.segments[-1][1])
        step = np.maximum(np.searchsorted(t_old, t) - 1, 0)
        return Q[step], y_old[step], t_old[step], h[step], t

    def state_at(self, t):
        """State at time t, or the (k, len(y)) states at the times of an array (k,).

        Each state is bit-equal to one scalar call of its segment's
        ``OdeSolution``; an ``OdeSolution`` called on a time array rounds
        differently, so the step polynomials are evaluated here.
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
    metric = spec.metric
    n = spec.dimension

    def rhs(t, y):
        v = y[n:2 * n]
        # the module-level name is looked up on every call, so rebinding
        # christoffel_raw (as a call counter does) reaches this closure
        gamma = christoffel_raw(metric, y[:n])
        out = np.empty(2 * n)
        out[:n] = v
        np.negative(np.einsum("kij,i,j->k", gamma, v, v), out=out[n:])
        return out

    return rhs


def integrate_flow(spec, rhs, y0, t_end, *, vector_blocks, detect_boundary=True,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Integrate ``rhs`` with boundary-return and deck-face events.

    ``vector_blocks`` lists (offset, rows, cols) slices of the state that
    transform as matrices of tangent vectors under deck differentials; the
    leading n entries of the state are always the chart position.
    """
    n = spec.dimension
    boundary = spec.boundary
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    max_step = 0.25 * spec.scale_hint

    seg_times, seg_states, segments = [], [], []
    grazing_times: list[float] = []
    crossings: list[tuple[float, str]] = []

    for _ in range(MAX_CHUNKS):
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
            f0 = deck.face_value(y[:n])
            # skip faces the trajectory is riding (face ~ 0, no transversal motion)
            if abs(f0) < 1e-12:
                probe = y[:n] + 1e-6 * spec.scale_hint * y[n:2 * n]
                if abs(deck.face_value(probe) - f0) < 1e-10:
                    continue

            def face_ev(t_, y_, _d=deck):
                return _d.face_value(y_[:n])
            face_ev.terminal = True
            face_ev.direction = -1
            events.append(face_ev)
            tags.append(("deck", deck))

        sol = solve_ivp(rhs, (t, t_end), y, method="RK45", events=events,
                        dense_output=True, rtol=rtol, atol=atol, max_step=max_step)
        if sol.status == -1:
            raise RuntimeError(f"integration failed on {spec.name!r}: {sol.message}")

        seg_times.append(sol.t)
        seg_states.append(sol.y.T)
        segments.append((sol.t[0], sol.t[-1], sol.sol))

        for idx, (kind, _) in enumerate(tags):
            if kind == "graze":
                for tg in sol.t_events[idx]:
                    grazing_times.append(float(tg))

        if sol.status == 0:
            times = np.concatenate(seg_times)
            states = np.vstack(seg_states)
            grazes = _confirm_grazing(spec, segments, grazing_times, n, grazing_tol)
            return FlowResult(times, states, segments, "t_end", None, None,
                              grazes, bool(grazes), crossings)

        # terminal event: identify which one fired at the stopping time
        t_stop = sol.t[-1]
        fired = None
        for idx, (kind, deck) in enumerate(tags):
            if kind == "graze" or len(sol.t_events[idx]) == 0:
                continue
            if abs(sol.t_events[idx][-1] - t_stop) <= 1e-12 * max(1.0, abs(t_stop)):
                fired = (kind, deck, idx)
                break
        if fired is None:
            raise RuntimeError(f"terminal event bookkeeping failed on {spec.name!r}")

        kind, deck, idx = fired
        y_stop = sol.y_events[idx][-1].copy()
        if kind == "boundary":
            times = np.concatenate(seg_times)
            states = np.vstack(seg_states)
            grazes = _confirm_grazing(spec, segments, grazing_times, n, grazing_tol)
            return FlowResult(times, states, segments, "boundary", float(t_stop),
                              y_stop, grazes, bool(grazes), crossings)

        # deck exit: teleport the state and continue; corner exits may need
        # a second application, transported the same way
        y_new = _apply_deck_to_state(deck, y_stop, n, vector_blocks)
        for _ in range(len(spec.deck_maps) + 1):
            offending = next((d for d in spec.deck_maps
                              if d.face_value(y_new[:n]) < -1e-13), None)
            if offending is None:
                break
            y_new = _apply_deck_to_state(offending, y_new, n, vector_blocks)
        crossings.append((float(t_stop), deck.name))
        t, y = float(t_stop), y_new

    raise RuntimeError(f"too many deck crossings on {spec.name!r} (runaway trajectory?)")


def _apply_deck_to_state(deck, y, n, vector_blocks):
    x = y[:n]
    d_mat = np.asarray(deck.differential(x), dtype=float)
    out = y.copy()
    out[:n] = deck.apply_point(x)
    for off, rows, cols in vector_blocks:
        block = y[off:off + rows * cols].reshape(rows, cols)
        out[off:off + rows * cols] = (d_mat @ block).ravel()
    return out


def _confirm_grazing(spec, segments, candidate_times, n, tol):
    """Keep only boundary-tangency minima where b dips below the threshold."""
    out = []
    for tg in candidate_times:
        for t_lo, t_hi, sol in segments:
            if t_lo - 1e-12 <= tg <= t_hi + 1e-12:
                b = spec.boundary.value(sol(tg)[:n])
                if abs(b) < tol:
                    out.append(tg)
                break
    return out


# ---------------------------------------------------------------------------
# geodesic paths

@dataclass
class GeodesicPath:
    """Unit-speed geodesic launched orthogonally from the boundary."""

    spec: ManifoldSpec
    launch_point: np.ndarray
    launch_velocity: np.ndarray
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    return_time: Optional[float]
    arrival_point: Optional[np.ndarray]
    arrival_velocity: Optional[np.ndarray]
    normal_deviation: Optional[float]
    grazing: bool
    flow: FlowResult

    @property
    def returned(self):
        return self.return_time is not None

    def state_at(self, t):
        """Position and velocity at time t, or their (k, n) stacks at times (k,)."""
        n = self.spec.dimension
        y = self.flow.state_at(t)
        return y[..., :n], y[..., n:2 * n]

    def position_at(self, t):
        return self.state_at(t)[0]

    def velocity_at(self, t):
        return self.state_at(t)[1]


def project_to_boundary(spec: ManifoldSpec, p):
    """One Newton step onto b = 0 (cleans up manifest round-off)."""
    p = np.asarray(p, dtype=float)
    b = spec.boundary.value(p)
    db = spec.boundary.gradient(p)
    return p - b * db / float(db @ db)


def shoot(spec: ManifoldSpec, p, t_max=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
          grazing_tol=GRAZING_TOL):
    """Integrate the orthogonal geodesic from boundary point p to first return.

    A tangential approach counts as grazing where b dips below ``grazing_tol``.
    """
    p = project_to_boundary(spec, np.asarray(p, dtype=float))
    if abs(spec.boundary.value(p)) > spec.boundary.eps:
        raise ValueError(f"launch point {p} not on the boundary of {spec.name!r}")
    if t_max is None:
        t_max = 50.0 * spec.scale_hint
    v0 = inward_unit_normal(spec, p)
    n = spec.dimension
    y0 = np.concatenate([p, v0])
    flow = integrate_flow(spec, geodesic_rhs(spec), y0, t_max,
                          vector_blocks=[(n, n, 1)], rtol=rtol, atol=atol,
                          grazing_tol=grazing_tol)
    if flow.status != "boundary":
        raise NoReturnError(
            f"no return (not Zoll or t_max too small): {spec.name!r} from {p}")
    times = flow.times
    pts = flow.states[:, :n]
    vels = flow.states[:, n:2 * n]
    q = flow.event_state[:n]
    v_arr = flow.event_state[n:2 * n]
    path = GeodesicPath(spec, p, v0, times, pts, vels, flow.event_time,
                        q, v_arr, None, flow.grazing, flow)
    path.normal_deviation = arrival_orthogonality(path)
    return path


def arrival_orthogonality(path: GeodesicPath):
    """g-norm of the boundary-tangential component of the arrival velocity."""
    if not path.returned:
        raise ValueError("path has no boundary return")
    spec = path.spec
    q = path.arrival_point
    v = path.arrival_velocity
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    tangential = v - metric_inner(g, v, nu) * nu
    return metric_norm(g, tangential)


def boundary_involution(spec: ManifoldSpec, p, t_max=None):
    """Far endpoint of the orthogonal geodesic from p, in the fundamental domain."""
    path = shoot(spec, p, t_max=t_max)
    q, _ = normalize_into_domain(spec, path.arrival_point)
    return q


# ---------------------------------------------------------------------------
# launch sets and sweeps

@dataclass
class LaunchSet:
    points: np.ndarray           # (N, n)
    patch_ids: np.ndarray        # (N,)
    params: list                 # per-launch parameter vectors
    strategy: str
    count: int


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
            if abs(spec.boundary.value(p)) > spec.boundary.eps:
                p = project_to_boundary(spec, p)
            pts.append(p)
            ids.append(pid)
            params.append(prm.copy())
    pts = np.array(pts)
    return LaunchSet(pts, np.array(ids), params, strategy, len(pts))


@dataclass
class ShootRecord:
    index: int
    patch_id: int
    launch: np.ndarray
    return_time: Optional[float]
    arrival: Optional[np.ndarray]
    arrival_velocity: Optional[np.ndarray]
    normal_deviation: Optional[float]
    grazing: bool
    error: Optional[str]
    path: Optional[GeodesicPath]


@dataclass
class SweepResult:
    spec: ManifoldSpec
    launch_set: LaunchSet
    records: list[ShootRecord]

    @property
    def ok_records(self):
        return [r for r in self.records if r.error is None]

    @property
    def return_times(self):
        return np.array([r.return_time for r in self.ok_records])

    @property
    def half_length(self):
        """Half the mean return time of the returned launches (None if none returned)."""
        rt = self.return_times
        return float(rt.mean() / 2.0) if rt.size else None

    def states_at(self, t):
        """(m, 2n) position and velocity of each returned geodesic at t, a time or
        one time per returned launch; row i is bit-equal to its own ``state_at``."""
        recs = self.ok_records
        times = np.broadcast_to(np.asarray(t, dtype=float), (len(recs),))
        parts = [r.path.flow._pieces(tr.reshape(1)) for r, tr in zip(recs, times)]
        if not parts:
            return np.empty((0, 2 * self.spec.dimension))
        return _dense_states(*map(np.concatenate, zip(*parts)))

    @property
    def midpoints(self):
        """Position of each returned geodesic at half its return time."""
        return self.states_at(self.return_times / 2.0)[:, :self.spec.dimension]

    @property
    def errors(self):
        return [(r.index, r.error) for r in self.records if r.error is not None]

    def summary(self):
        rt = self.return_times
        out = {
            "n_launches": len(self.records),
            "n_returned": len(self.ok_records),
            "n_errors": len(self.errors),
            "grazing_count": int(sum(r.grazing for r in self.records)),
        }
        if rt.size:
            out.update({
                "return_time_min": float(rt.min()),
                "return_time_max": float(rt.max()),
                "return_time_mean": float(rt.mean()),
                "return_time_spread": float(rt.max() - rt.min()),
                "max_normal_deviation": float(max(r.normal_deviation for r in self.ok_records)),
            })
        return out


def first_return_map(spec: ManifoldSpec, launch_set: LaunchSet, t_max=None,
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, grazing_tol=GRAZING_TOL):
    """Shoot every launch point; per-launch errors are recorded, not raised."""
    records = []
    for i, (p, pid) in enumerate(zip(launch_set.points, launch_set.patch_ids)):
        try:
            path = shoot(spec, p, t_max=t_max, rtol=rtol, atol=atol,
                         grazing_tol=grazing_tol)
        except NoReturnError as exc:
            records.append(ShootRecord(i, int(pid), p, None, None, None, None, False,
                                       str(exc), None))
            continue
        records.append(ShootRecord(
            i, int(pid), path.launch_point, path.return_time, path.arrival_point,
            path.arrival_velocity, path.normal_deviation, path.grazing, None, path))
    return SweepResult(spec, launch_set, records)


# ---------------------------------------------------------------------------
# exports

def path_to_csv(path: GeodesicPath, stream):
    n = path.spec.dimension
    writer = csv.writer(stream)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)])
    for t, x, v in zip(path.times, path.points, path.velocities):
        writer.writerow([f"{t:.17g}"] + [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in v])


def sweep_to_csv(sweep: SweepResult, stream):
    """Every returned path of the sweep as ``launch,t,x1..,v1..`` rows."""
    n = sweep.spec.dimension
    stream.write("launch," + ",".join(
        ["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)]) + "\n")
    for r in sweep.ok_records:
        for t, x, v in zip(r.path.times, r.path.points, r.path.velocities):
            stream.write(f"{r.index}," + ",".join(f"{c:.17g}" for c in [t, *x, *v]) + "\n")


def path_to_polyline(path: GeodesicPath):
    return {
        "manifold": path.spec.name,
        "return_time": path.return_time,
        "grazing": path.grazing,
        "times": [float(t) for t in path.times],
        "points": [[float(c) for c in x] for x in path.points],
    }


def sweep_to_json(sweep: SweepResult):
    return {
        "manifold": sweep.spec.name,
        "strategy": sweep.launch_set.strategy,
        "summary": sweep.summary(),
        "launches": [
            {
                "index": r.index,
                "patch": r.patch_id,
                "launch": [float(c) for c in r.launch],
                "return_time": None if r.return_time is None else float(r.return_time),
                "arrival": None if r.arrival is None else [float(c) for c in r.arrival],
                "normal_deviation": None if r.normal_deviation is None else float(r.normal_deviation),
                "grazing": bool(r.grazing),
                "error": r.error,
            }
            for r in sweep.records
        ],
    }
