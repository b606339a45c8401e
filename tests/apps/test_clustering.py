"""Tests for repro.apps.clustering."""

import math

import numpy as np
import pytest

from repro.apps.clustering import AgglomerativeClustering, random_points
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError
from repro.runtime.engine import make_engine


class TestRandomPoints:
    def test_shape_and_range(self):
        pts = random_points(200, clusters=5, seed=0)
        assert pts.shape == (200, 2)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ApplicationError):
            random_points(0)
        with pytest.raises(ApplicationError):
            random_points(10, clusters=0)


class TestClusteringRun:
    @pytest.fixture
    def finished(self):
        pts = random_points(300, clusters=6, spread=0.02, seed=1)
        app = AgglomerativeClustering(pts, merge_threshold=0.05)
        res = make_engine(app, HybridController(0.25), seed=2).run(max_steps=5000)
        return pts, app, res

    def test_terminates(self, finished):
        _, app, _ = finished
        assert len(app.workset) == 0

    def test_mass_conserved(self, finished):
        pts, app, _ = finished
        assert app.total_mass() == 300

    def test_cluster_count_reduced(self, finished):
        _, app, _ = finished
        assert app.num_clusters() < 300

    def test_labels_partition_points(self, finished):
        _, app, _ = finished
        labels = app.labels()
        assert labels.shape == (300,)
        assert set(labels.tolist()) == set(range(app.num_clusters()))

    def test_dendrogram_merges_under_threshold(self, finished):
        _, app, _ = finished
        for a, b, parent, dist in app.dendrogram:
            assert dist <= app.merge_threshold + 1e-12
            assert parent > max(a, b)  # parents created after children

    def test_final_clusters_mutually_distant(self, finished):
        """No two surviving centroids are within the merge threshold."""
        _, app, _ = finished
        cents = [c.centroid for c in app._clusters.values()]
        for i in range(len(cents)):
            for j in range(i + 1, len(cents)):
                d = math.hypot(cents[i][0] - cents[j][0], cents[i][1] - cents[j][1])
                assert d > app.merge_threshold

    def test_centroid_is_member_mean(self, finished):
        pts, app, _ = finished
        for c in app._clusters.values():
            mean = pts[c.members].mean(axis=0)
            assert c.centroid[0] == pytest.approx(mean[0], abs=1e-9)
            assert c.centroid[1] == pytest.approx(mean[1], abs=1e-9)


class TestEdgeCases:
    def test_single_point(self):
        app = AgglomerativeClustering(np.array([[0.5, 0.5]]), merge_threshold=0.1)
        make_engine(app, FixedController(1), seed=0).run(max_steps=10)
        assert app.num_clusters() == 1

    def test_two_distant_points_stay_apart(self):
        app = AgglomerativeClustering(
            np.array([[0.0, 0.0], [1.0, 1.0]]), merge_threshold=0.1
        )
        make_engine(app, FixedController(2), seed=0).run(max_steps=10)
        assert app.num_clusters() == 2

    def test_two_close_points_merge(self):
        app = AgglomerativeClustering(
            np.array([[0.5, 0.5], [0.52, 0.5]]), merge_threshold=0.1
        )
        make_engine(app, FixedController(2), seed=0).run(max_steps=10)
        assert app.num_clusters() == 1
        assert len(app.dendrogram) == 1

    def test_validation(self):
        with pytest.raises(ApplicationError):
            AgglomerativeClustering(np.zeros((3, 3)))
        with pytest.raises(ApplicationError):
            AgglomerativeClustering(np.zeros((3, 2)), merge_threshold=0.0)
