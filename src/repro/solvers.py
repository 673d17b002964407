"""The two generic solvers under the planners: an LP driver and a max-flow.

* :func:`solve_lp` — the one LP entry point.  Both Dinkelbach loops
  solve through it: the allocation LP of
  :func:`repro.coding.privacy.plan_y_allocation` and the level LP of
  :func:`repro.theory.efficiency.group_allocation_profile`.
* The flow core — :func:`route_direct` (Dinic's first phase on plain
  lists), :func:`flow_matrix`, :class:`TransportGraph` (the later
  phases and the Hall certificate) and :func:`solve_transport_counts`
  (a one-shot integral transportation max-flow).  The per-packet
  session assigns x-ids to blocks through
  :func:`solve_transport_counts`; the batched engine's realised planner
  (:func:`repro.theory.allocation.realised_support_flow`) runs
  :func:`route_direct` and :class:`TransportGraph` on reception-pattern
  histograms, once per distinct round of each accounted cell.

Both are deterministic functions of their input order, so the same
inputs give the same bits in every process.  This module imports only
numpy and scipy: the theory and coding layers both sit on top of it.

:func:`solve_lp` needs one compiled module of scipy, its HiGHS binding
``scipy.optimize._highspy._core``.  Importing it by name would first run
all of ``scipy/optimize/__init__.py``, which loads ``scipy.linalg``,
``scipy.sparse``, ``scipy.fft`` and more: about 0.6 s and 36 MB in every
process that imports :mod:`repro`, shard workers included, for modules
nothing here calls.  So :func:`_load_highs` finds the extension file
under ``scipy.__path__`` and loads it alone, under its real name.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from types import ModuleType
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy

__all__ = [
    "solve_lp",
    "route_direct",
    "flow_matrix",
    "TransportGraph",
    "solve_transport_counts",
]

#: scipy's HiGHS binding, a private module: setup.py pins scipy's minor
#: version for it.
_HIGHS_NAME = "scipy.optimize._highspy._core"


def _highs_spec(scipy_path: Sequence[str]) -> importlib.machinery.ModuleSpec:
    """The spec of ``optimize/_highspy/_core`` under a scipy package path."""
    search = [os.path.join(root, "optimize", "_highspy") for root in scipy_path]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_NAME, search)
    if spec is None:
        raise ImportError(
            f"repro.solvers needs scipy's HiGHS binding {_HIGHS_NAME} "
            f"(optimize/_highspy/_core under {list(scipy_path)}); "
            "install scipy>=1.17,<1.18 as setup.py pins it"
        )
    return spec


def _load_highs() -> ModuleType:
    """scipy's HiGHS binding, without importing ``scipy.optimize``.

    The module lives in ``sys.modules`` under its real name.  If
    ``scipy.optimize`` was imported first, that module object is reused:
    loading the ``.so`` a second time under another name makes pybind11
    refuse its types ("ObjSense" is already registered).

    One gap: when this runs first and ``scipy.optimize`` is imported
    later, the ``_core`` attribute of ``scipy.optimize._highspy`` stays
    unset, because the package never imported it.  scipy's own imports
    of it (``from ._highspy._core import ...``, ``import
    scipy.optimize._highspy._core as _h``) resolve through
    ``sys.modules``, so ``linprog`` and ``milp`` keep working.
    """
    module = sys.modules.get(_HIGHS_NAME)
    if module is None:
        spec = _highs_spec(scipy.__path__)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_NAME] = module
        assert spec.loader is not None  # a spec found on a path has one
        spec.loader.exec_module(module)
    return module


_highs = _load_highs()


#: The one option scipy's own HiGHS wrappers set for a plain LP;
#: everything else, presolve included, stays at HiGHS's default.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.log_to_console = False

#: Each thread's HiGHS instance (a forked child inherits its parent's).
_SOLVERS = threading.local()


def _solver():
    """This thread's HiGHS instance, with no model and no solver state.

    Clearing the model and the solver leaves nothing of the last solve
    behind (no basis, no hot start), so a reused instance returns the
    same bits as a fresh one.  Not building, configuring and freeing an
    instance per LP took a level LP from 470 to 299 us and an
    allocation LP from 505 to 360 us (medians of 5 alternating runs
    over the LPs ``tests/coding/test_lp_helper.py`` captures; 2-core
    x86-64, Python 3.11, scipy 1.17).
    """
    solver = getattr(_SOLVERS, "highs", None)
    if solver is None:
        solver = _SOLVERS.highs = _highs._Highs()
        solver.passOptions(_HIGHS_OPTIONS)
    solver.clearModel()
    solver.clearSolver()
    return solver


def solve_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> Optional[np.ndarray]:
    """Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``.

    The one LP entry point of the planners: scipy's bundled HiGHS
    binding, called directly.  The model is the one scipy's public
    wrappers hand HiGHS — the nonzeros of ``a_ub`` in column-major
    order, columns in ``[0, inf)``, rows in ``(-inf, b_ub]`` — so the
    returned ``x`` equals ``linprog(method="highs")``'s to the last
    bit, without the wrappers' cost.  Each thread solves on its own
    HiGHS instance, cleared before every model (:func:`_solver`), so
    concurrent callers share no state.  Returns None when HiGHS reports
    no optimum.
    """
    a_ub = np.asarray(a_ub, dtype=np.float64)
    n_rows, n_cols = a_ub.shape
    cols, rows = np.nonzero(a_ub.T)  # CSC order, explicit zeros dropped
    lp = _highs.HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = np.asarray(c, dtype=np.float64)
    lp.col_lower_ = np.zeros(n_cols)
    lp.col_upper_ = np.full(n_cols, np.inf)
    lp.row_lower_ = np.full(n_rows, -np.inf)
    lp.row_upper_ = np.asarray(b_ub, dtype=np.float64)
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_cols))))
    matrix.index_ = rows
    matrix.value_ = a_ub.T[cols, rows]
    solver = _solver()
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        return None
    return np.array(solver.getSolution().col_value)


def route_direct(
    demands: Sequence[int], capacities: Sequence[int], arcs: Sequence[Sequence[int]]
) -> Tuple[list, int]:
    """Dinic's first phase on plain lists, before any graph exists.

    Demand node ``j`` may draw from the supply nodes ``arcs[j]``
    (ascending).  While a direct path source -> ``j`` -> ``k`` -> sink
    has residual left, the sink sits at BFS level 3 and Dinic's first
    phase pushes exactly those paths: demand nodes in order, each
    through its arcs in order, every path as far as it goes.  This is
    that phase without the layering or the edge arrays.  (A
    demand-to-supply edge carries its row's demand, so it never limits
    a direct path.)

    Returns ``(pushes, routed)``: one ``(arc, j, k, units)`` per path
    that carried flow, ``arc`` counting every row's arcs row-major (the
    graph's link order), and the total.  When ``routed`` is the whole
    demand the pushes are a maximum flow (:func:`flow_matrix`), and no
    graph is needed; otherwise :meth:`TransportGraph.residual` loads
    them and :meth:`TransportGraph.augment` runs the later phases.
    """
    room = [int(c) for c in capacities]
    pushes = []
    routed = 0
    arc = 0
    for j, row_arcs in enumerate(arcs):
        left = start = int(demands[j])
        if left:
            i = arc
            for k in row_arcs:
                free = room[k]
                if free:
                    pushed = left if left < free else free
                    room[k] = free - pushed
                    pushes.append((i, j, k, pushed))
                    left -= pushed
                    if not left:
                        break
                i += 1
            routed += start - left
        arc += len(row_arcs)
    return pushes, routed


def flow_matrix(pushes: Sequence[tuple], n_demands: int, n_supplies: int) -> np.ndarray:
    """The ``(J, K)`` flow matrix of :func:`route_direct`'s pushes."""
    out = np.zeros((n_demands, n_supplies), dtype=np.int64)
    if pushes:
        _, rows, cols, units = zip(*pushes)
        out[rows, cols] = units
    return out


class TransportGraph:
    """The bipartite transportation network of one plan, built once.

    Demand node ``j`` may draw from the supply nodes listed in
    ``arcs[j]``, ascending.  The graph holds only that structure, as
    edge arrays; demands and capacities arrive per solve, so one plan
    builds its graph once however many flows it solves on it.

    Layout: source 0, demand nodes ``1..J``, supply nodes
    ``J+1..J+K``, sink ``J+K+1``.  Edges come in pairs (edge ``e ^ 1``
    is the reverse of ``e``), added in a fixed order — source to every
    demand node, every supply node to the sink, then demand to supply
    along the arcs, row-major — so node and arc order follow the input
    order alone.  A *residual* is the list of per-edge residual
    capacities; the flow on a forward edge is its reverse's residual.

    A solve (:meth:`solve`) starts from :func:`route_direct`'s flow
    (Dinic's first phase, run without the graph), loads it into a
    residual (:meth:`residual`), runs Dinic's later phases on it
    (:meth:`augment`) and reads the flow matrix off it (:meth:`flow`).
    When the demand does not route in full, the same residual yields a
    Hall certificate (:meth:`hall_cut`).
    """

    def __init__(self, arcs: Sequence[Sequence[int]], n_supplies: int) -> None:
        n_demands = len(arcs)
        self.n_demands = n_demands
        self.n_supplies = n_supplies
        sink = self.sink = n_demands + n_supplies + 1
        first_link = 2 * (n_demands + n_supplies)
        #: ``(j, k)`` per demand-to-supply edge; link ``i`` is edge
        #: ``first_link + 2 * i``.
        links = [(j, k) for j, row_arcs in enumerate(arcs) for k in row_arcs]
        edge_to = [0] * (first_link + 2 * len(links))
        edge_to[0 : 2 * n_demands : 2] = range(1, n_demands + 1)
        edge_to[2 * n_demands : first_link : 2] = [sink] * n_supplies
        edge_to[2 * n_demands + 1 : first_link : 2] = range(n_demands + 1, sink)
        adjacency = (
            [list(range(0, 2 * n_demands, 2))]
            + [[2 * j + 1] for j in range(n_demands)]
            + [[2 * (n_demands + k)] for k in range(n_supplies)]
            + [list(range(2 * n_demands + 1, first_link, 2))]
        )
        e = first_link
        for j, k in links:
            edge_to[e] = n_demands + 1 + k
            edge_to[e + 1] = j + 1
            adjacency[j + 1].append(e)
            adjacency[n_demands + 1 + k].append(e + 1)
            e += 2
        self.links = links
        self.edge_to = edge_to
        self.adjacency = adjacency

    def residual(
        self,
        demands: Sequence[int],
        capacities: Sequence[int],
        pushes: Sequence[tuple] = (),
    ) -> list:
        """The residual of :func:`route_direct`'s ``pushes`` (none: the
        zero flow).

        At zero flow every forward edge is at full capacity: source
        edges carry the demands, sink edges the capacities, and each
        demand-to-supply edge its row's demand.  Each pushed unit moves
        from a forward edge's residual to its reverse's along its path
        source -> ``j`` -> ``k`` -> sink.
        """
        demands = [int(d) for d in demands]
        n_demands = self.n_demands
        first_link = 2 * (n_demands + self.n_supplies)
        cap = [0] * len(self.edge_to)
        cap[0 : 2 * n_demands : 2] = demands
        cap[2 * n_demands : first_link : 2] = [int(c) for c in capacities]
        cap[first_link::2] = [demands[j] for j, _ in self.links]
        for arc, j, k, pushed in pushes:
            link = first_link + 2 * arc
            to_sink = 2 * (n_demands + k)
            cap[2 * j] -= pushed
            cap[2 * j + 1] += pushed
            cap[link] -= pushed
            cap[link + 1] += pushed
            cap[to_sink] -= pushed
            cap[to_sink + 1] += pushed
        return cap

    def augment(self, cap: list) -> int:
        """Dinic's phases after the first, to a maximum flow, in place.

        ``cap`` is a residual with no direct path source -> ``j`` ->
        ``k`` -> sink left, as :func:`route_direct`'s flow leaves it
        (on any other residual this is still Dinic, to the same maximum
        flow value).  Returns the flow added.  Each phase layers the
        residual graph by BFS distance from the source, then pushes one
        augmenting path at a time along the first usable arc of each
        node, arcs taken in adjacency order — the same paths, in the
        same order, on every run.  A path visits source, demand and
        supply nodes alternately (a supply node reaches another demand
        node only back through a reverse edge), so it holds at most
        ``2 * min(J, K) + 2`` nodes.
        """
        edge_to = self.edge_to
        adjacency = self.adjacency
        sink = self.sink
        n_nodes = sink + 1
        # Once every source edge is saturated no path can leave the
        # source, so stop there instead of proving it with another BFS.
        want = sum(cap[0 : 2 * self.n_demands : 2])
        total = 0
        while total < want:
            # BFS layering.  ``forward[u]`` keeps u's arcs that lead one
            # level deeper with residual left, in adjacency order: within
            # a phase such arcs only ever saturate, never reopen, so the
            # blocking flow scans these lists instead of all arcs.
            level = [-1] * n_nodes
            level[0] = 0
            forward: list = [()] * n_nodes
            queue = [0]
            for u in queue:
                deeper = level[u] + 1
                if deeper > level[sink] >= 0:
                    break  # every node that can lie on a path is layered
                arcs = []
                for e in adjacency[u]:
                    if cap[e] > 0:
                        v = edge_to[e]
                        if level[v] < 0:
                            level[v] = deeper
                            queue.append(v)
                            arcs.append(e)
                        elif level[v] == deeper:
                            arcs.append(e)
                forward[u] = arcs
            if level[sink] < 0:
                break
            next_arc = [0] * n_nodes
            path: list = []  # edges from the source to ``u``
            u = 0
            while True:
                if u == sink:
                    pushed = min([cap[e] for e in path])
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    total += pushed
                    # Resume at the tail of the first saturated edge:
                    # the arcs before it are still usable and current.
                    cut = 0
                    while cap[path[cut]]:
                        cut += 1
                    u = edge_to[path[cut] ^ 1]
                    del path[cut:]
                    continue
                arcs = forward[u]
                i = next_arc[u]
                n_arcs = len(arcs)
                while i < n_arcs and not cap[arcs[i]]:
                    i += 1
                next_arc[u] = i
                if i < n_arcs:
                    path.append(arcs[i])
                    u = edge_to[arcs[i]]
                elif path:  # dead end: retreat and skip the arc here
                    u = edge_to[path.pop() ^ 1]
                    next_arc[u] += 1
                else:
                    break
        return total

    def flow(self, cap: list) -> np.ndarray:
        """The ``(J, K)`` demand-to-supply flow matrix of residual ``cap``."""
        out = np.zeros((self.n_demands, self.n_supplies), dtype=np.int64)
        e = 2 * (self.n_demands + self.n_supplies) + 1
        for j, k in self.links:
            if cap[e]:
                out[j, k] = cap[e]
            e += 2
        return out

    def solve(
        self,
        demands: Sequence[int],
        capacities: Sequence[int],
        pushes: Sequence[tuple] = (),
    ) -> np.ndarray:
        """A maximum flow from :func:`route_direct`'s ``pushes``, as a
        flow matrix."""
        cap = self.residual(demands, capacities, pushes)
        self.augment(cap)
        return self.flow(cap)

    def hall_cut(self, cap: list) -> Tuple[list, int]:
        """Hall certificate read from the minimum cut of a maximum flow.

        ``cap`` is the residual of a maximum flow that left some demand
        unrouted.  Returns ``(rows, room)``: ``rows`` are the demand
        nodes reachable from the source in ``cap`` (ascending), ``room``
        the summed capacity of the supply nodes reachable from them.

        Every supply node the rows may draw from is reachable, and no
        other is (the sink is not, the flow being maximum): an edge from
        a reached row saturates only when the row's whole demand flows
        down it, and then the row was reached through that very supply.
        So ``room`` is the capacity of the rows' neighbourhood, which
        max-flow/min-cut says their demand exceeds.  By Hall's condition
        no demand vector whose ``rows`` want more than ``room`` routes in
        full on this graph, whatever the other rows want.
        """
        edge_to = self.edge_to
        adjacency = self.adjacency
        n_demands = self.n_demands
        seen = [False] * (self.sink + 1)
        seen[0] = True
        queue = [0]
        for u in queue:
            for e in adjacency[u]:
                if cap[e]:
                    v = edge_to[e]
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
        rows = sorted(v - 1 for v in queue if 0 < v <= n_demands)
        # Node ``v`` of a supply is ``n_demands + 1 + k``; its sink edge
        # is ``2 * (v - 1)`` and holds the capacity as residual + flow.
        room = sum(cap[2 * v - 2] + cap[2 * v - 1] for v in queue if v > n_demands)
        return rows, room


def solve_transport_counts(
    demands: Sequence[int],
    capacities: Sequence[int],
    allowed: Sequence[Sequence[bool]],
) -> np.ndarray:
    """Integral transportation max-flow on counts (no ids involved).

    Bipartite flow: demand node ``j`` wants up to ``demands[j]`` units,
    supply node ``k`` holds ``capacities[k]`` units, and an edge exists
    where ``allowed[j][k]`` is true.  Returns the ``(J, K)`` integer
    flow matrix of a maximum flow.

    Every call starts from the zero flow.  :func:`route_direct` runs
    Dinic's first phase on the lists; only when it leaves demand
    unrouted is a :class:`TransportGraph` built for the later phases.

    This is the shared max-flow core of the protocol's support
    assignment: :func:`repro.coding.privacy._assign_ids_by_flow` routes
    concrete x-ids through it for the per-packet session, and the
    batched engine's per-round realised planner
    (:func:`repro.theory.allocation.realised_support_flow`) runs the
    same :func:`route_direct` and :class:`TransportGraph` on
    reception-pattern histograms, at most one graph per plan and one
    plan per distinct round of each cell — thousands of plans per
    campaign (3,168 per pass of perfbench's ``fig2_testbed``), nothing
    cached across cells, which is why this is a
    dependency-free Dinic on lists and edge arrays rather than a graph
    library call (per-call overhead dominates at these sizes).

    Determinism matters as much as speed: node and arc order are fixed
    by the input order alone (no hashing of arbitrary keys), so the same
    inputs always yield the same — not merely equally optimal — flow
    matrix, keeping campaigns reproducible across processes.
    """
    arcs = [[k for k, ok in enumerate(row) if ok] for row in allowed]
    pushes, routed = route_direct(demands, capacities, arcs)
    if routed < sum(int(d) for d in demands):
        return TransportGraph(arcs, len(capacities)).solve(demands, capacities, pushes)
    return flow_matrix(pushes, len(arcs), len(capacities))
