"""Phase 2: resolve the over-constrained displacement graph (Section III).

The pairwise translations over-constrain absolute positions: any cycle in
the grid graph gives two path-sums for the same tile, and stage noise makes
them disagree.  The paper offers two resolution strategies, both
implemented here:

``mst``
    Select a subset of displacements forming a maximum-correlation spanning
    tree and read positions off tree paths.  Low-confidence edges (blank
    overlaps) are simply never selected when any better path exists.
``least_squares``
    Global adjustment: minimize ``sum_ij w_ij * ||p_j - p_i - d_ij||^2``
    over all edges, with confidence-derived weights, anchored at tile
    (0, 0).  This is the "global optimization approach to adjust them to a
    path invariant state" the paper describes; it uses every measurement
    instead of discarding the off-tree ones.

Both return integer pixel positions normalized so ``min == (0, 0)``.

Both consume one edge table (:func:`_edge_table`, DESIGN.md section 5d):
what a pair contributes -- its measurement or, when demoted, the nominal
prior -- is decided there and nowhere else; connectivity, degraded placement
and the result are handled once in :func:`resolve_absolute_positions`.

Robustness (docs/ROBUSTNESS.md): with a
:class:`~repro.core.quality_gate.QualityConfig`, every pair is scored by
:func:`~repro.core.quality_gate.assess_quality` first.  Gated pairs --
low correlation, diffuse correlation peak, or stage-model outliers -- are
*demoted* to nominal-prior edges: their measured (garbage) translation is
replaced by the stage model's median step at a token weight, so they keep
the graph connected without pulling on their neighbours.  The
least-squares solver additionally supports IRLS residue damping
(``residue_mode: huber | threshold``): after each solve, edges with large
residuals are down-weighted and the system is re-solved until the weights
converge.  Non-finite correlations are always clamped to a finite floor
before any weight is derived from them.

Degraded operation: when phase 1 dropped tiles (fault tolerance), the
displacement graph may be disconnected.  ``on_disconnected="nominal"``
places each disconnected component by anchoring it at the nominal stage
coordinate of its local root -- the grid-index position scaled by the
nominal step, estimated from the median of the surviving edges (or
supplied explicitly from acquisition metadata).  Such tiles are flagged
in ``GlobalPositions.degraded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.displacement import DisplacementResult, Translation
from repro.core.quality_gate import (
    QualityAssessment,
    QualityConfig,
    assess_quality,
    finite_correlation,
)

_MIN_WEIGHT = 1e-3  # least-squares weight floor of a measured edge
#: Least-squares weight of a stranded tile's nominal-position row: pins its
#: otherwise-free gauge to the nominal grid without perturbing measured edges.
_PRIOR_WEIGHT = 1e-6

_Tile = tuple[int, int]


@dataclass
class GlobalPositions:
    """Absolute tile origins ``positions[rows, cols, 2]`` as ``(y, x)``.

    ``mosaic_shape`` is the bounding canvas for a given tile size.
    """

    positions: np.ndarray  # int64 [rows, cols, 2] (y, x), min at (0, 0)
    method: str
    #: ``mst`` only: sum of the finite-clamped correlations of the tree's
    #: measured edges (a demoted edge counts as its prior does: 0.0).
    spanning_tree_correlation: float | None = None
    #: Sub-pixel positions (float64, same normalization) when the
    #: displacements carried fractional estimates; ``None`` otherwise.
    positions_f: np.ndarray | None = None
    #: Bool mask [rows, cols]; True where the position is a nominal-grid
    #: fallback (tile disconnected from the anchor component).  ``None``
    #: when the graph was fully connected.
    degraded: np.ndarray | None = None
    #: JSON-able gating/IRLS summary when a quality gate ran (pair
    #: counts, gate reasons, stage models, IRLS iterations and damped
    #: edge counts); ``None`` for ungated solves.
    quality_report: dict | None = None

    @property
    def rows(self) -> int:
        return self.positions.shape[0]

    @property
    def cols(self) -> int:
        return self.positions.shape[1]

    @property
    def degraded_count(self) -> int:
        return 0 if self.degraded is None else int(self.degraded.sum())

    def degraded_tiles(self) -> list[tuple[int, int]]:
        if self.degraded is None:
            return []
        return [tuple(rc) for rc in np.argwhere(self.degraded)]

    def mosaic_shape(self, tile_shape: tuple[int, int]) -> tuple[int, int]:
        h = int(self.positions[..., 0].max()) + tile_shape[0]
        w = int(self.positions[..., 1].max()) + tile_shape[1]
        return h, w


class _Edge(NamedTuple):
    """One row of the edge table: tile ``v`` sits at ``u + translation``."""

    u: _Tile  # v's west/north peer
    v: _Tile
    translation: Translation  # measured -- or, when gated, the nominal prior
    confidence: float  # finite-clamped correlation of the *measurement*
    gated: bool  # demoted to a nominal-prior edge by the quality gate

    def step(self, subpixel: bool) -> tuple[float, float]:
        t = self.translation
        return (t.fy, t.fx) if subpixel else (float(t.ty), float(t.tx))


def _nominal_prior_translation(
    assessment: QualityAssessment, direction: str
) -> Translation | None:
    """The stage model's step as a demoted edge's replacement value."""
    nominal = assessment.nominal_translation(direction)
    if nominal is None:
        return None
    dy, dx = nominal
    return Translation(
        correlation=0.0, tx=int(round(dx)), ty=int(round(dy)),
        tx_f=float(dx), ty_f=float(dy),
    )


def _edge_table(
    disp: DisplacementResult, assessment: QualityAssessment | None
) -> list[_Edge]:
    """Every computed pair, west then north, row-major -- demotion applied.

    The one place the quality verdict is read: a gated pair's measured
    (garbage) translation is replaced by the stage model's nominal step,
    so whichever solver is forced through it (connectivity) places the
    tile on the stage grid.  ``confidence`` clamps a non-finite
    correlation to the floor, so every weight derived from it is finite.
    """
    table: list[_Edge] = []
    for r in range(disp.rows):
        for c in range(disp.cols):
            for direction, u, t in (
                ("west", (r, c - 1), disp.west[r][c]),
                ("north", (r - 1, c), disp.north[r][c]),
            ):
                if t is None:
                    continue
                confidence = finite_correlation(t.correlation)
                prior = None
                if assessment is not None:
                    q = assessment.quality(direction, r, c)
                    if q is not None and q.gated:
                        prior = _nominal_prior_translation(assessment, direction)
                gated = prior is not None
                table.append(_Edge(u, (r, c), prior if gated else t, confidence, gated))
    return table


class _TileSets:
    """Union-find over tiles; a set's root is its smallest ``(row, col)``."""

    def __init__(self) -> None:
        self._parent: dict[_Tile, _Tile] = {}

    def root(self, tile: _Tile) -> _Tile:
        while (up := self._parent.get(tile, tile)) != tile:
            self._parent[tile] = tile = self._parent.get(up, up)  # path halving
        return tile

    def join(self, a: _Tile, b: _Tile) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were one already."""
        a, b = self.root(a), self.root(b)
        if a == b:
            return False
        self._parent[max(a, b)] = min(a, b)
        return True


def estimate_nominal_step(
    disp: DisplacementResult,
    nominal_step: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Nominal ``((west_dy, west_dx), (north_dy, north_dx))`` grid step.

    Estimated as the per-direction median of the surviving phase-1
    translations (robust to the occasional blank-overlap outlier); a
    direction with no surviving edges falls back to the supplied
    ``nominal_step`` (typically derived from acquisition metadata).
    """
    west = [(t.fy, t.fx) for row in disp.west for t in row if t is not None]
    north = [(t.fy, t.fx) for row in disp.north for t in row if t is not None]

    def median_or_fallback(samples, fallback, direction):
        if samples:
            arr = np.asarray(samples, dtype=np.float64)
            return (float(np.median(arr[:, 0])), float(np.median(arr[:, 1])))
        if fallback is not None:
            return (float(fallback[0]), float(fallback[1]))
        raise ValueError(
            f"cannot estimate nominal {direction} step: no surviving "
            f"{direction} displacements and no nominal_step supplied"
        )

    return (
        median_or_fallback(west, nominal_step[0] if nominal_step else None, "west"),
        median_or_fallback(north, nominal_step[1] if nominal_step else None, "north"),
    )


def _nominal_position(
    rc: _Tile, step: tuple[tuple[float, float], tuple[float, float]]
) -> np.ndarray:
    (wy, wx), (ny, nx_) = step
    r, c = rc
    return np.array([r * ny + c * wy, r * nx_ + c * wx], dtype=np.float64)


def _mst_positions(
    shape: tuple[int, int],
    table: list[_Edge],
    nominal: dict[_Tile, np.ndarray],
    subpixel: bool,
) -> tuple[np.ndarray, dict, float]:
    """Maximum-confidence spanning forest, positions read off its paths.

    ``nominal`` maps each tile cut off from the anchor component to its
    nominal position.  Returns the positions, the solver's report counter
    and the summed correlation of the tree -- the minimum tree of
    ``1 - confidence``, identical to the historical ``1 - correlation`` on
    clean data.  A demoted edge carries a penalty of 2.0, so any measured
    edge (weight <= 2.0) is preferred to any demoted one and, among
    demoted edges, higher confidence wins.
    """
    # Tie order is a contract (noise-free overlaps all score exactly 1.0):
    # equal weights are taken in the order the historical graph library
    # listed edges -- tiles ranked by first appearance in the table, each
    # edge listed at its earlier-ranked endpoint, one tile's edges in
    # table order.  ``sorted`` is stable, so the key below is that order.
    rank: dict[_Tile, int] = {}
    for e in table:
        rank.setdefault(e.u, len(rank))
        rank.setdefault(e.v, len(rank))
    weights = [1.0 - e.confidence + (2.0 if e.gated else 0.0) for e in table]
    order = sorted(
        range(len(table)),
        key=lambda i: (weights[i], min(rank[table[i].u], rank[table[i].v]), i),
    )
    joined = _TileSets()
    tree = [i for i in order if joined.join(table[i].u, table[i].v)]
    adjacent: dict[_Tile, list[tuple[_Tile, float, _Edge]]] = {}
    for i in tree:
        e = table[i]
        adjacent.setdefault(e.u, []).append((e.v, 1.0, e))
        adjacent.setdefault(e.v, []).append((e.u, -1.0, e))

    pos = np.zeros((*shape, 2), dtype=np.float64)
    placed: set[_Tile] = set()
    # Row-major, so the first unplaced tile of a component is its root: the
    # anchor (0, 0) at the origin, a stranded one on the nominal grid.
    for root in np.ndindex(shape):
        if root in placed:
            continue
        pos[root] = nominal.get(root, 0.0)
        placed.add(root)
        stack = [root]
        while stack:  # accumulate signed translations away from the root
            u = stack.pop()
            for v, sign, e in adjacent.get(u, ()):
                if v not in placed:
                    pos[v] = pos[u] + sign * np.array(e.step(subpixel))
                    placed.add(v)
                    stack.append(v)
    # A demoted edge whose measurement scored exactly 1.0 weighs 2.0, level
    # with a measured edge at the floor, and is not counted.
    counters = {"gated_edges_in_tree": sum(weights[i] > 2.0 for i in tree)}
    correlation = math.fsum(table[i].confidence for i in tree if not table[i].gated)
    return pos, counters, correlation


def _residue_damping(
    residuals: np.ndarray, mode: str, residue_len: float
) -> np.ndarray:
    """Per-edge IRLS damping factors in ``(0, 1]`` from residual lengths.

    ``huber`` is the classic Huber IRLS weight (quadratic inside the
    delta, linear beyond: weight ``residue_len / |r|``); ``threshold``
    collapses offending edges to a token weight, the hard-rejection
    analogue.
    """
    if mode == "huber":
        return np.minimum(
            1.0, residue_len / np.maximum(residuals, 1e-12)
        )
    if mode == "threshold":
        return np.where(residuals <= residue_len, 1.0, 1e-3)
    raise ValueError(f"unknown residue mode {mode!r}")


def _least_squares_positions(
    shape: tuple[int, int],
    table: list[_Edge],
    nominal: dict[_Tile, np.ndarray],
    subpixel: bool,
    cfg: QualityConfig | None,
) -> tuple[np.ndarray, dict]:
    """Weighted least squares over every edge, anchored at tile (0, 0).

    ``nominal`` as for :func:`_mst_positions`.  Returns the positions and
    the solver's report counters.  A demoted edge weighs
    ``cfg.gate_weight``: the graph stays connected without the replaced
    value pulling on anyone.
    """
    rows, cols = shape
    n_edges = len(table)
    iu = np.array([e.u[0] * cols + e.u[1] for e in table], dtype=np.int64)
    iv = np.array([e.v[0] * cols + e.v[1] for e in table], dtype=np.int64)
    steps = np.array([e.step(subpixel) for e in table], dtype=np.float64).reshape(-1, 2)
    gated = np.array([e.gated for e in table], dtype=bool)
    base_w = np.array([
        cfg.gate_weight if e.gated else max(_MIN_WEIGHT, (e.confidence + 1.0) / 2.0)
        for e in table
    ], dtype=np.float64)

    # One equation per edge, ``[+w at v, -w at u] . p = w * step``, then the
    # gauge anchor and the weak nominal priors of the stranded tiles.  The
    # layout is fixed; a re-weighted solve only recomputes the values.
    a_shape = (n_edges + 1 + len(nominal), rows * cols)
    a_rows = np.concatenate(
        [np.repeat(np.arange(n_edges), 2), np.arange(n_edges, a_shape[0])]
    )
    a_cols = np.concatenate(
        [np.stack([iv, iu], axis=1).ravel(), [0], [r * cols + c for r, c in nominal]]
    ).astype(np.int64)
    extra_vals = np.array([1.0] + [_PRIOR_WEIGHT] * len(nominal))
    extra_b = np.array([np.zeros(2)] + [_PRIOR_WEIGHT * at for at in nominal.values()])

    # Imported by their only user: an MST-only run never pays for them.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    def solve(weights: np.ndarray) -> np.ndarray:
        edge_vals = np.stack([weights, -weights], axis=1).ravel()
        vals = np.concatenate([edge_vals, extra_vals])
        a = sp.csr_matrix((vals, (a_rows, a_cols)), shape=a_shape)
        b = np.concatenate([weights[:, None] * steps, extra_b])
        return np.stack([
            spla.lsqr(a, np.ascontiguousarray(b[:, axis]), atol=1e-12, btol=1e-12)[0]
            for axis in (0, 1)
        ], axis=-1)

    residue_mode = cfg.residue_mode if cfg is not None else "none"
    damp = np.ones(n_edges, dtype=np.float64)
    irls_iterations = 0
    pos = solve(base_w)
    if residue_mode != "none" and n_edges:
        # IRLS: damp edges whose residual exceeds the Huber delta /
        # threshold and re-solve until the damping stabilizes.  Demoted
        # (nominal-prior) edges are exempt -- they are already priors.
        for _ in range(cfg.max_irls_iterations):
            residuals = np.hypot(*(pos[iv] - pos[iu] - steps).T)
            new_damp = _residue_damping(residuals, residue_mode, cfg.residue_len)
            new_damp[gated] = 1.0
            if float(np.max(np.abs(new_damp - damp))) <= cfg.irls_tol:
                break
            damp = new_damp
            irls_iterations += 1
            pos = solve(base_w * damp)
    counters = {
        "irls_iterations": irls_iterations,
        "residue_damped_edges": int((damp < 1.0).sum()),
    }
    return pos.reshape(rows, cols, 2), counters


def resolve_absolute_positions(
    disp: DisplacementResult,
    method: str = "mst",
    subpixel: bool = False,
    on_disconnected: str = "error",
    nominal_step: tuple[tuple[float, float], tuple[float, float]] | None = None,
    quality: QualityConfig | None = None,
) -> GlobalPositions:
    """Phase 2 entry point; ``method`` is ``"mst"`` or ``"least_squares"``.

    ``subpixel=True`` resolves over the fractional translation estimates
    (where present) and exposes ``GlobalPositions.positions_f`` alongside
    the rounded integer positions composition uses.

    ``on_disconnected`` controls degraded operation when phase 1 dropped
    tiles and split the displacement graph: ``"error"`` (default)
    preserves the strict behaviour and raises ``ValueError``;
    ``"nominal"`` places each stranded component on the nominal grid
    (step from :func:`estimate_nominal_step`, seeded by ``nominal_step``
    metadata when the surviving edges cannot define it) and flags its
    tiles in ``GlobalPositions.degraded``.

    ``quality`` enables the registration quality gate
    (:mod:`repro.core.quality_gate`): pairs failing the confidence /
    peak-sharpness / stage-model gates are demoted to nominal-prior
    edges, solver weights become confidence-derived, and -- for the
    least-squares method -- ``residue_mode`` selects Huber or threshold
    IRLS damping of large residuals.  The gating/IRLS summary lands in
    ``GlobalPositions.quality_report``.  With the default gate and clean
    data, nothing gates and positions are bit-identical to ``quality=
    None``.
    """
    if on_disconnected not in ("error", "nominal"):
        raise ValueError(
            f"unknown on_disconnected {on_disconnected!r} (use 'error' or 'nominal')"
        )
    if not disp.is_complete() and disp.pair_count() == 0 and len(disp.west) * len(disp.west[0]) > 1:
        if on_disconnected != "nominal":
            raise ValueError("no displacements computed")
        if nominal_step is None:
            raise ValueError(
                "no displacements computed and no nominal_step to fall back on"
            )
    if method not in ("mst", "least_squares"):
        raise ValueError(f"unknown method {method!r} (use 'mst' or 'least_squares')")
    assessment = assess_quality(disp, quality) if quality is not None else None
    table = _edge_table(disp, assessment)

    # Connectivity.  The anchor component is (0, 0)'s; every other one is
    # rooted at its smallest (row, col) member and placed on the nominal
    # grid, its tiles -- listed row-major -- flagged as degraded.
    shape = (disp.rows, disp.cols)
    components = _TileSets()
    for e in table:
        components.join(e.u, e.v)
    stranded = [rc for rc in np.ndindex(shape) if components.root(rc) != (0, 0)]
    if stranded and on_disconnected != "nominal":
        raise ValueError("displacement graph is disconnected; cannot stitch")
    step = estimate_nominal_step(disp, nominal_step) if stranded else None
    nominal = {rc: _nominal_position(rc, step) for rc in stranded}
    degraded = np.zeros(shape, dtype=bool)
    for rc in stranded:
        degraded[rc] = True

    tree_correlation = None
    if method == "mst":
        pos, counters, tree_correlation = _mst_positions(
            shape, table, nominal, subpixel
        )
    else:
        pos, counters = _least_squares_positions(
            shape, table, nominal, subpixel, quality
        )

    quality_report = None
    if assessment is not None:
        quality_report = assessment.report()
        quality_report.update(counters)
    pos = pos - pos.reshape(-1, 2).min(axis=0)
    return GlobalPositions(
        positions=np.rint(pos).astype(np.int64),
        method=method,
        spanning_tree_correlation=tree_correlation,
        positions_f=pos if subpixel else None,
        degraded=degraded if stranded else None,
        quality_report=quality_report,
    )
