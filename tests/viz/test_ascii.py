"""Unit tests for the ASCII figure renderings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.exceptions import ReproError
from repro.viz.ascii import render_dendrogram, render_hit_map, render_som_map


class TestRenderSomMap:
    def test_symbols_and_legend(self):
        rendered = render_som_map(
            {"alpha": (0, 0), "beta": (2, 3)}, rows=3, columns=4
        )
        assert "A  alpha @ (0, 0)" in rendered
        assert "B  beta @ (2, 3)" in rendered
        assert "legend" in rendered

    def test_shared_cell_marker(self):
        rendered = render_som_map(
            {"x": (1, 1), "y": (1, 1)}, rows=2, columns=2
        )
        assert "*" in rendered
        assert "(shared cell)" in rendered

    def test_title_line(self):
        rendered = render_som_map({"x": (0, 0)}, 1, 1, title="Figure 3")
        assert rendered.splitlines()[0] == "Figure 3"

    def test_grid_dimensions_rendered(self):
        rendered = render_som_map({"x": (0, 0)}, rows=2, columns=5)
        grid_rows = [
            line for line in rendered.splitlines() if line.strip().startswith(("0 |", "1 |"))
        ]
        assert len(grid_rows) == 2

    def test_rejects_position_outside_grid(self):
        with pytest.raises(ReproError, match="outside"):
            render_som_map({"x": (5, 5)}, rows=2, columns=2)

    def test_rejects_bad_grid(self):
        with pytest.raises(ReproError, match="bad grid"):
            render_som_map({}, rows=0, columns=2)


class TestRenderHitMap:
    def test_counts_and_dots(self):
        rendered = render_hit_map(np.array([[0, 2], [1, 0]]))
        assert rendered.splitlines() == [". 2", "1 ."]

    def test_rejects_1d(self):
        with pytest.raises(ReproError, match="2-D"):
            render_hit_map(np.array([1, 2]))


class TestRenderDendrogram:
    @pytest.fixture()
    def dendrogram(self):
        points = np.array([[0.0], [0.1], [5.0], [5.1]])
        return AgglomerativeClustering().fit(
            points, labels=["a", "b", "c", "d"]
        )

    def test_all_leaves_present(self, dendrogram):
        rendered = render_dendrogram(dendrogram)
        for label in ("a", "b", "c", "d"):
            assert label in rendered

    def test_merge_distances_annotated(self, dendrogram):
        rendered = render_dendrogram(dendrogram)
        assert "[d=0.10]" in rendered
        assert rendered.count("[d=") == 3

    def test_precision_parameter(self, dendrogram):
        rendered = render_dendrogram(dendrogram, precision=3)
        assert "[d=0.100]" in rendered

    def test_single_leaf(self):
        single = AgglomerativeClustering().fit([[1.0]], labels=["only"])
        assert render_dendrogram(single) == "only"

    def test_1200_level_chain(self):
        # Single linkage on growing gaps absorbs one point per merge.
        points = (np.arange(1200.0) ** 1.5)[:, None]
        chain = AgglomerativeClustering(linkage="single").fit(points)
        lines = render_dendrogram(chain).splitlines()
        assert len(lines) == 2 * 1200 - 1
        assert lines[0].startswith("`-- [d=")
        assert lines[-1] == "   `-- point-1199"


class TestRenderUMatrix:
    def test_shading_follows_magnitude(self):
        from repro.viz.ascii import render_u_matrix

        rendered = render_u_matrix([[0.0, 1.0], [0.5, 0.0]])
        rows = rendered.splitlines()
        assert rows[0][0] == " "   # minimum -> lightest
        assert rows[0][-1] == "@"  # maximum -> darkest

    def test_constant_matrix_is_all_light(self):
        from repro.viz.ascii import render_u_matrix

        rendered = render_u_matrix([[2.0, 2.0], [2.0, 2.0]])
        assert set(rendered.replace("\n", "")) <= {" "}

    def test_rejects_empty(self):
        from repro.viz.ascii import render_u_matrix

        with pytest.raises(ReproError, match="non-empty"):
            render_u_matrix(np.empty((0, 2)))

    def test_rejects_nan(self):
        from repro.viz.ascii import render_u_matrix

        with pytest.raises(ReproError, match="NaN"):
            render_u_matrix([[float("nan")]])


class TestRenderDendrogramVertical:
    @pytest.fixture()
    def dendrogram(self):
        points = np.array([[0.0], [0.4], [5.0], [5.6], [20.0], [21.0]])
        return AgglomerativeClustering().fit(
            points, labels=["a1", "a2", "b1", "b2", "c1", "c2"]
        )

    def test_contains_axis_and_legend(self, dendrogram):
        from repro.viz.ascii import render_dendrogram_vertical

        rendered = render_dendrogram_vertical(dendrogram)
        assert "merging distance" in rendered
        for label in ("a1", "b2", "c1"):
            assert label in rendered

    def test_one_bar_per_merge(self, dendrogram):
        from repro.viz.ascii import render_dendrogram_vertical

        rendered = render_dendrogram_vertical(dendrogram)
        # Each merge contributes exactly two '+' corners.
        assert rendered.count("+") == 2 * len(dendrogram.merges)

    def test_taller_merges_sit_higher(self, dendrogram):
        from repro.viz.ascii import render_dendrogram_vertical

        rendered = render_dendrogram_vertical(dendrogram, height=12)
        lines = rendered.splitlines()
        # The root bar (largest distance) appears above the leaf pairs.
        first_bar_row = next(
            i for i, line in enumerate(lines) if "+" in line
        )
        last_bar_row = max(
            i for i, line in enumerate(lines) if "+" in line
        )
        assert first_bar_row < last_bar_row

    def test_single_leaf(self):
        from repro.viz.ascii import render_dendrogram_vertical

        single = AgglomerativeClustering().fit([[1.0]], labels=["only"])
        assert "only" in render_dendrogram_vertical(single)

    def test_rejects_tiny_height(self, dendrogram):
        from repro.viz.ascii import render_dendrogram_vertical

        with pytest.raises(ReproError, match="height"):
            render_dendrogram_vertical(dendrogram, height=1)
