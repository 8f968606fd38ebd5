"""Phase 2: MST selection and least-squares adjustment."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.displacement import DisplacementResult, Translation
from repro.core.global_opt import (
    _edge_table,
    estimate_nominal_step,
    resolve_absolute_positions,
)
from repro.core.quality_gate import QualityConfig, assess_quality, finite_correlation


def exact_displacements(positions: np.ndarray, corr: float = 1.0) -> DisplacementResult:
    """Build a consistent DisplacementResult from known absolute positions."""
    rows, cols = positions.shape[:2]
    d = DisplacementResult.empty(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if c > 0:
                dy, dx = positions[r, c] - positions[r, c - 1]
                d.west[r][c] = Translation(corr, int(dx), int(dy))
            if r > 0:
                dy, dx = positions[r, c] - positions[r - 1, c]
                d.north[r][c] = Translation(corr, int(dx), int(dy))
    return d


def random_positions(rows, cols, seed, step=50, jitter=4):
    rng = np.random.default_rng(seed)
    pos = np.zeros((rows, cols, 2), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (
                r * step + rng.integers(-jitter, jitter + 1),
                c * step + rng.integers(-jitter, jitter + 1),
            )
    return pos


class TestBothMethods:
    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_recovers_consistent_system_exactly(self, method):
        pos = random_positions(4, 5, seed=0)
        gp = resolve_absolute_positions(exact_displacements(pos), method)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.array_equal(gp.positions, expected)

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_normalized_to_origin(self, method):
        pos = random_positions(3, 3, seed=1)
        gp = resolve_absolute_positions(exact_displacements(pos), method)
        assert gp.positions.reshape(-1, 2).min(axis=0).tolist() == [0, 0]

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.integers(1, 5), cols=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        method=st.sampled_from(["mst", "least_squares"]),
    )
    def test_path_invariance_property(self, rows, cols, seed, method):
        """For any consistent system, recovered positions re-derive every
        pairwise displacement (path invariance, the phase-2 contract)."""
        pos = random_positions(rows, cols, seed)
        disp = exact_displacements(pos)
        gp = resolve_absolute_positions(disp, method)
        for r in range(rows):
            for c in range(cols):
                if c > 0:
                    d = gp.positions[r, c] - gp.positions[r, c - 1]
                    t = disp.west[r][c]
                    assert (d[0], d[1]) == (t.ty, t.tx)
                if r > 0:
                    d = gp.positions[r, c] - gp.positions[r - 1, c]
                    t = disp.north[r][c]
                    assert (d[0], d[1]) == (t.ty, t.tx)


class TestMstSelection:
    def test_bad_edge_avoided_when_alternative_exists(self):
        """A low-correlation (wrong) edge must be bypassed by the MST."""
        pos = random_positions(2, 2, seed=2)
        disp = exact_displacements(pos)
        # Corrupt one edge badly but mark it low-confidence.
        disp.west[1][1] = Translation(-0.5, 999, 999)
        gp = resolve_absolute_positions(disp, "mst")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.array_equal(gp.positions, expected)

    def test_tree_correlation_reported(self):
        pos = random_positions(3, 3, seed=3)
        gp = resolve_absolute_positions(exact_displacements(pos, corr=0.8), "mst")
        assert gp.spanning_tree_correlation == pytest.approx(0.8 * 8)


class TestLeastSquares:
    def test_averages_inconsistent_measurements(self):
        """LS splits the disagreement of a noisy cycle instead of ignoring it."""
        pos = random_positions(2, 2, seed=4)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(t.correlation, t.tx + 2, t.ty)  # +2 px error
        gp = resolve_absolute_positions(disp, "least_squares")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        err = np.abs(gp.positions - expected).max()
        assert err <= 2  # bounded by the injected inconsistency

    def test_downweights_low_confidence_edges(self):
        pos = random_positions(2, 2, seed=5)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(-0.99, t.tx + 40, t.ty + 40)  # garbage, low corr
        gp = resolve_absolute_positions(disp, "least_squares")
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.abs(gp.positions - expected).max() <= 2


class TestInterface:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            resolve_absolute_positions(
                exact_displacements(random_positions(2, 2, 0)), "magic"
            )

    def test_method_is_checked_before_anything_is_built(self, monkeypatch):
        monkeypatch.setattr("repro.core.global_opt.assess_quality", None)
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            resolve_absolute_positions(
                exact_displacements(random_positions(2, 2, 0)), "magic",
                quality=QualityConfig(),
            )

    def test_mosaic_shape(self):
        pos = random_positions(2, 3, seed=6, step=40, jitter=0)
        gp = resolve_absolute_positions(exact_displacements(pos), "mst")
        h, w = gp.mosaic_shape((48, 48))
        assert h == 40 + 48
        assert w == 80 + 48

    def test_disconnected_graph_rejected(self):
        d = DisplacementResult.empty(2, 2)  # no edges at all
        with pytest.raises(ValueError):
            resolve_absolute_positions(d, "mst")


class TestNonFiniteCorrelations:
    """Regression: NaN correlations used to poison the solvers.

    The MST edge weight was computed as ``1.0 - nan`` (corrupting
    spanning-tree selection), and the least-squares weight
    ``max(min_weight, (nan + 1) / 2)`` survived only by ``max()``'s
    argument-order behaviour with NaN.  Both now derive from the edge
    table's ``confidence``, clamped to a finite floor first.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_mst_weight_is_finite(self, bad):
        pos = random_positions(2, 2, seed=7)
        disp = exact_displacements(pos)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(bad, t.tx, t.ty)
        table = _edge_table(disp, None)
        assert len(table) == 4
        assert all(np.isfinite(1.0 - e.confidence) for e in table)

    def test_tree_correlation_is_finite_over_a_nan_bridge(self):
        disp = DisplacementResult.empty(1, 2)
        disp.west[0][1] = Translation(float("nan"), 10, 0)
        gp = resolve_absolute_positions(disp, "mst")
        assert gp.spanning_tree_correlation == -1.0  # the clamped floor

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_nan_edge_avoided_like_worst_correlation(self, method):
        # The NaN pair is garbage; clamping it to the floor means both
        # solvers treat it exactly like a correlation of -1 and the
        # redundant cycle recovers the truth.
        pos = random_positions(2, 2, seed=8)
        disp = exact_displacements(pos)
        disp.west[1][1] = Translation(float("nan"), 999, 999)
        gp = resolve_absolute_positions(disp, method)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        assert np.abs(gp.positions - expected).max() <= 2

    def test_all_finite_positions_out(self):
        pos = random_positions(3, 3, seed=9)
        disp = exact_displacements(pos)
        disp.north[1][1] = Translation(float("nan"), 0, 50)
        for method in ("mst", "least_squares"):
            gp = resolve_absolute_positions(disp, method)
            assert np.isfinite(gp.positions).all()


def corrupted_system(seed=10, rows=4, cols=4):
    """A consistent grid with one confidently-wrong and one garbage pair."""
    pos = random_positions(rows, cols, seed)
    disp = exact_displacements(pos, corr=0.9)
    disp.west[1][1] = Translation(0.95, 999, 40)   # confident, wrong offset
    disp.north[2][2] = Translation(0.01, -30, 700)  # garbage, low confidence
    expected = pos - pos.reshape(-1, 2).min(axis=0)
    return disp, expected


class TestQualityGatedSolve:
    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_clean_data_bit_identical_with_default_gate(self, method):
        """With defaults and nothing to gate, the gated solve must build
        the identical system: positions are bit-for-bit the ungated ones."""
        pos = random_positions(4, 5, seed=11)
        disp = exact_displacements(pos, corr=0.9)
        ungated = resolve_absolute_positions(disp, method)
        gated = resolve_absolute_positions(disp, method, quality=QualityConfig())
        assert np.array_equal(ungated.positions, gated.positions)
        assert gated.quality_report["gated_pairs"] == 0

    @pytest.mark.parametrize("method", ["mst", "least_squares"])
    def test_demotes_corrupted_pairs(self, method):
        disp, expected = corrupted_system()
        gp = resolve_absolute_positions(disp, method, quality=QualityConfig())
        assert gp.quality_report["gated_pairs"] == 2
        reasons = gp.quality_report["gate_reasons"]
        assert reasons.get("stage_outlier", 0) >= 1
        assert reasons.get("low_correlation", 0) >= 1
        assert np.abs(gp.positions - expected).max() <= 2

    def test_gated_solve_beats_ungated(self):
        disp, expected = corrupted_system()
        ungated = resolve_absolute_positions(disp, "least_squares")
        gated = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig(residue_mode="huber")
        )
        err_ungated = np.abs(ungated.positions - expected).max()
        err_gated = np.abs(gated.positions - expected).max()
        assert err_gated <= 2
        assert err_ungated > err_gated

    def test_huber_irls_damps_surviving_outlier(self):
        # An outlier small enough to pass the gates but large enough to
        # trip the residue damping: IRLS must iterate and improve on the
        # single-solve result.
        pos = random_positions(3, 3, seed=12, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(0.9, t.tx + 6, t.ty)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        plain = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig(stage_radius=100.0)
        )
        huber = resolve_absolute_positions(
            disp, "least_squares",
            quality=QualityConfig(stage_radius=100.0, residue_mode="huber"),
        )
        assert huber.quality_report["irls_iterations"] >= 1
        assert huber.quality_report["residue_damped_edges"] >= 1
        err_plain = np.abs(plain.positions - expected).sum()
        err_huber = np.abs(huber.positions - expected).sum()
        assert err_huber <= err_plain

    def test_threshold_mode_hard_rejects(self):
        pos = random_positions(3, 3, seed=13, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        t = disp.west[1][1]
        disp.west[1][1] = Translation(0.9, t.tx + 6, t.ty)
        expected = pos - pos.reshape(-1, 2).min(axis=0)
        gp = resolve_absolute_positions(
            disp, "least_squares",
            quality=QualityConfig(stage_radius=100.0, residue_mode="threshold"),
        )
        assert gp.quality_report["residue_damped_edges"] >= 1
        assert np.abs(gp.positions - expected).max() <= 1

    def test_residue_mode_none_never_iterates(self):
        disp, _ = corrupted_system()
        gp = resolve_absolute_positions(
            disp, "least_squares", quality=QualityConfig()
        )
        assert gp.quality_report["irls_iterations"] == 0
        assert gp.quality_report["residue_damped_edges"] == 0

    def test_mst_reports_gated_edges_in_tree(self):
        # Only a gated edge can reach tile (1,1): the tree is forced
        # through a demoted (nominal) edge and must say so.
        pos = random_positions(3, 3, seed=14, jitter=0)
        disp = exact_displacements(pos, corr=0.9)
        disp.west[1][1] = Translation(0.95, 999, 40)  # confident, wrong
        disp.west[1][2] = None
        disp.north[1][1] = None
        disp.north[2][1] = None
        gp = resolve_absolute_positions(disp, "mst", quality=QualityConfig())
        assert gp.quality_report["gated_edges_in_tree"] == 1
        # The demoted edge places the tile on the stage model's step, not
        # at the garbage measurement.
        assert np.abs(gp.positions).max() < 200


# -- oracles: phase 2 against references that share no code with it ----------
#
# ``resolve_absolute_positions`` hands both solvers one edge table, so
# checking them against each other proves nothing about the table.  The
# references below rebuild the system pair by pair: the spanning tree with
# the graph library phase 2 used to run on (tie order included -- it is a
# contract, noise-free overlaps all score exactly 1.0), least squares as a
# dense ``lstsq`` of the weighted equations.

NOMINAL_STEP = ((0.0, 50.0), (50.0, 0.0))


def oracle_grid(seed, style, holes, subpixel):
    """A seeded grid: tied correlations, outliers to demote, optional holes."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(n) for n in rng.integers(2, 7, 2))
    pos = random_positions(rows, cols, seed)
    palette = {"equal": [1.0], "partly": [1.0, 1.0, 0.9, 0.2, -1.0],
               "trusted": [1.0, 0.9, 0.6]}[style]
    disp = DisplacementResult.empty(rows, cols)
    for r, c in np.ndindex(rows, cols):
        for arr, (pr, pc) in ((disp.west, (r, c - 1)), (disp.north, (r - 1, c))):
            if min(pr, pc) < 0 or (holes and rng.random() < 0.3):
                continue
            dy, dx = pos[r, c] - pos[pr, pc]
            if rng.random() < 0.15:  # confidently wrong: what the stage gate demotes
                dy, dx = (dy, dx) + rng.integers(-40, 40, 2)
            corr = float(rng.choice(palette))
            if subpixel:
                fy, fx = rng.uniform(-0.5, 0.5, 2)
                arr[r][c] = Translation(corr, int(dx), int(dy), float(dx + fx), float(dy + fy))
            else:
                arr[r][c] = Translation(corr, int(dx), int(dy))
    return disp


def reference_edges(disp, quality):
    """``(u, v, translation, confidence, gated)`` per pair, demotion applied."""
    assessment = assess_quality(disp, quality) if quality else None
    for r, c in np.ndindex(disp.rows, disp.cols):
        for direction, u, t in (("west", (r, c - 1), disp.west[r][c]),
                                ("north", (r - 1, c), disp.north[r][c])):
            if t is None:
                continue
            confidence = finite_correlation(t.correlation)
            q = assessment.quality(direction, r, c) if assessment else None
            gated = q is not None and q.gated
            if gated:
                dy, dx = assessment.nominal_translation(direction)
                t = Translation(0.0, int(round(dx)), int(round(dy)), float(dx), float(dy))
            yield u, (r, c), t, confidence, gated


def step_of(t, subpixel):
    return np.array((t.fy, t.fx) if subpixel else (t.ty, t.tx), dtype=np.float64)


def nominal_at(rc, disp):
    (wy, wx), (ny, nx_) = estimate_nominal_step(disp, NOMINAL_STEP)
    return np.array([rc[0] * ny + rc[1] * wy, rc[0] * nx_ + rc[1] * wx])


def networkx_mst(disp, quality, subpixel):
    """Phase 2 as the parent commit ran it: graph, library MST, path sums."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    for u, v, t, confidence, gated in reference_edges(disp, quality):
        g.add_edge(u, v, weight=(2.0 if gated else 0.0) + (1.0 - confidence),
                   t=t, forward=(u, v))
    g.add_nodes_from(np.ndindex(disp.rows, disp.cols))
    tree = nx.minimum_spanning_tree(g, weight="weight")
    pos = np.zeros((disp.rows, disp.cols, 2))
    degraded = np.zeros((disp.rows, disp.cols), dtype=bool)
    gated_in_tree = 0
    for comp in nx.connected_components(g):
        root = min(comp)
        degraded[tuple(zip(*comp))] = root != (0, 0)
        if degraded[root]:
            pos[root] = nominal_at(root, disp)
        for u, v in nx.dfs_edges(tree, root):
            data = tree.edges[u, v]
            sign = 1.0 if data["forward"] == (u, v) else -1.0
            pos[v] = pos[u] + sign * step_of(data["t"], subpixel)
            gated_in_tree += data["weight"] > 2.0
    pos -= pos.reshape(-1, 2).min(axis=0)
    return np.rint(pos).astype(np.int64), pos, degraded, gated_in_tree


MST_MATRIX = list(itertools.product(
    range(6), ["equal", "partly"], [False, True], [None, QualityConfig()], [False, True]))


def mst_case_id(seed, style, holes, quality, subpixel):
    return "-".join([str(seed), style, "holes" if holes else "full",
                     "gate" if quality else "nogate",
                     "subpixel" if subpixel else "integer"])


@pytest.mark.parametrize("seed,style,holes,quality,subpixel", MST_MATRIX,
                         ids=[mst_case_id(*case) for case in MST_MATRIX])
def test_mst_equals_the_graph_library_oracle(seed, style, holes, quality, subpixel):
    disp = oracle_grid(seed, style, holes, subpixel)
    positions, positions_f, degraded, gated_in_tree = networkx_mst(disp, quality, subpixel)
    gp = resolve_absolute_positions(
        disp, "mst", subpixel=subpixel, quality=quality,
        on_disconnected="nominal", nominal_step=NOMINAL_STEP)
    assert np.array_equal(gp.positions, positions)
    if subpixel:
        assert np.array_equal(gp.positions_f, positions_f)
    assert np.array_equal(
        gp.degraded if gp.degraded is not None else np.zeros_like(degraded), degraded)
    if quality:
        assert gp.quality_report["gated_edges_in_tree"] == gated_in_tree


def dense_least_squares(disp, quality, damping=None):
    """Sub-pixel positions from a dense ``lstsq`` of the weighted system."""
    edges = list(reference_edges(disp, quality))
    n = disp.rows * disp.cols
    stranded = sorted(set(np.ndindex(disp.rows, disp.cols)) - anchor_component(edges))
    a = np.zeros((len(edges) + 1 + len(stranded), n))
    b = np.zeros((len(a), 2))
    for k, (u, v, t, confidence, gated) in enumerate(edges):
        w = quality.gate_weight if gated else max(1e-3, (confidence + 1.0) / 2.0)
        if damping is not None and not gated:
            w *= damping(t, u, v)
        a[k, v[0] * disp.cols + v[1]], a[k, u[0] * disp.cols + u[1]] = w, -w
        b[k] = w * step_of(t, True)
    a[len(edges), 0] = 1.0
    for k, rc in enumerate(stranded, len(edges) + 1):
        a[k, rc[0] * disp.cols + rc[1]] = 1e-6
        b[k] = 1e-6 * nominal_at(rc, disp)
    pos = np.linalg.lstsq(a, b, rcond=None)[0].reshape(disp.rows, disp.cols, 2)
    return pos - pos.reshape(-1, 2).min(axis=0)


def anchor_component(edges):
    seen, grew = {(0, 0)}, True
    while grew:
        grew = False
        for u, v, *_ in edges:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                grew = True
    return seen


@pytest.mark.parametrize("quality", [None, QualityConfig()], ids=["nogate", "gate"])
@pytest.mark.parametrize("seed", range(6))
def test_least_squares_equals_the_dense_solve(seed, quality):
    disp = oracle_grid(seed, "trusted", holes=False, subpixel=True)
    gp = resolve_absolute_positions(disp, "least_squares", subpixel=True, quality=quality)
    assert np.abs(gp.positions_f - dense_least_squares(disp, quality)).max() <= 1e-6


@pytest.mark.parametrize("quality", [None, QualityConfig()], ids=["nogate", "gate"])
def test_least_squares_with_a_stranded_component_equals_the_dense_solve(quality):
    # Two tiles cut off together: only their 1e-6-weight prior rows tie them
    # to the grid, which lsqr resolves loosely -- hence the wider bound (and
    # on other seeds it stops at its iteration limit first, far from it).
    disp = oracle_grid(1, "trusted", holes=False, subpixel=True)
    rows, cols = disp.rows, disp.cols
    disp.north[rows - 1][cols - 1] = disp.north[rows - 1][cols - 2] = None
    disp.west[rows - 1][cols - 2] = None
    gp = resolve_absolute_positions(
        disp, "least_squares", subpixel=True, quality=quality,
        on_disconnected="nominal", nominal_step=NOMINAL_STEP)
    assert gp.degraded_tiles() == [(rows - 1, cols - 2), (rows - 1, cols - 1)]
    assert np.abs(gp.positions_f - dense_least_squares(disp, quality)).max() <= 1e-3


@pytest.mark.parametrize("seed", range(6))
def test_huber_run_is_a_fixed_point_of_the_dense_solve(seed):
    """The dense solve under the damping the run converged to reproduces it."""
    quality = QualityConfig(stage_radius=100.0, residue_mode="huber")
    disp = oracle_grid(seed, "trusted", holes=False, subpixel=True)
    gp = resolve_absolute_positions(disp, "least_squares", subpixel=True, quality=quality)
    assert gp.quality_report["residue_damped_edges"] >= 1

    def damping(t, u, v):
        residual = np.hypot(*(gp.positions_f[v] - gp.positions_f[u] - step_of(t, True)))
        return min(1.0, quality.residue_len / max(residual, 1e-12))

    dense = dense_least_squares(disp, quality, damping)
    assert np.abs(gp.positions_f - dense).max() <= 1e-4
