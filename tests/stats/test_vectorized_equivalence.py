"""Equivalence of vectorised kernels with the loops they replaced.

The k-means centroid update and the hierarchical-clustering merge loop
were rewritten for speed (indicator-matrix GEMM; cached row minima with
Lance-Williams-aware updates). These tests pin the rewrites to reference
implementations of the historical per-centroid / full-matrix-scan loops:
k-means must agree to floating-point accumulation order (allclose),
dendrograms must be *identical* including tie-breaking.

The SFA information-gain binning (every candidate scored from one sort)
and the regression-tree split search (one presort per fit, all features
scored per node) must make exactly the decisions of the historical
per-candidate ``information_gain`` loop and per-node argsort scan: equal
boundaries, equal ``(feature, threshold)`` trees, bitwise-equal
probabilities.
Scoring every SFA word position in one batch must pick, position by
position, the boundaries of that loop.

The bag-of-patterns vocabulary and counts are built in numpy (first
occurrence from ``np.unique``, ``searchsorted`` columns, one
``bincount``); they must equal the historical per-token ``dict`` loops:
the same vocabulary in the same insertion order and bitwise-equal counts,
on the training series and on unseen ones.

The OC-SVM box-simplex projection decides each bisection step from the
sorted coordinates' prefix sums, falling back to numpy within a rounding
bound; it must return bitwise the projection of the historical loop that
evaluated ``np.clip(alpha - shift, 0, upper).sum()`` at every step, and
``OneClassSVM.fit`` must learn bitwise the same ``alpha`` and ``rho``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from repro.stats.backends import get_backend
from repro.stats.boosting import GradientBoostingClassifier
from repro.stats.distance import pairwise_squared_euclidean
from repro.stats.feature_selection import information_gain
from repro.stats.hierarchical import linkage_merge_order
from repro.stats import svm
from repro.stats.kmeans import KMeans
from repro.stats.svm import OneClassSVM, _project_box_simplex
from repro.stats.tree import DecisionTreeRegressor, _Node, _validate_matrix
from repro.transform.bop import BagOfPatterns
from repro.transform.sfa import (
    SFATransformer,
    _equi_depth_boundaries,
    _information_gain_boundaries,
    _split_gains,
    fourier_coefficients,
)


def _reference_lloyd_update(rows, centroids, n_clusters):
    """The historical per-centroid Python-loop update step."""
    distances = pairwise_squared_euclidean(rows, centroids)
    assignment = distances.argmin(axis=1)
    new_centroids = centroids.copy()
    for cluster in range(n_clusters):
        members = rows[assignment == cluster]
        if len(members):
            new_centroids[cluster] = members.mean(axis=0)
        else:
            farthest = distances.min(axis=1).argmax()
            new_centroids[cluster] = rows[farthest]
    return new_centroids


def _reference_merge_order(rows, linkage):
    """The historical full-matrix argmin-scan agglomeration."""
    from repro.stats.hierarchical import Merge

    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    if n < 2:
        return []
    distances = np.sqrt(pairwise_squared_euclidean(rows))
    np.fill_diagonal(distances, np.inf)
    active = {i: i for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    merges = []
    next_id = n
    for _ in range(n - 1):
        flat = np.argmin(distances)
        slot_a, slot_b = divmod(int(flat), n)
        if slot_a > slot_b:
            slot_a, slot_b = slot_b, slot_a
        best = float(distances[slot_a, slot_b])
        merges.append(Merge(active[slot_a], active[slot_b], next_id, best))
        size_a, size_b = sizes[slot_a], sizes[slot_b]
        row_a, row_b = distances[slot_a].copy(), distances[slot_b].copy()
        if linkage == "single":
            updated = np.minimum(row_a, row_b)
        elif linkage == "complete":
            updated = np.maximum(row_a, row_b)
        else:
            updated = (size_a * row_a + size_b * row_b) / (size_a + size_b)
        distances[slot_a, :] = updated
        distances[:, slot_a] = updated
        distances[slot_a, slot_a] = np.inf
        distances[slot_b, :] = np.inf
        distances[:, slot_b] = np.inf
        active[slot_a] = next_id
        sizes[slot_a] = size_a + size_b
        del active[slot_b], sizes[slot_b]
        next_id += 1
    return merges


class TestKMeansVectorisedUpdate:
    def test_update_step_matches_per_centroid_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            rows = rng.normal(size=(30, 6))
            n_clusters = int(rng.integers(2, 6))
            model = KMeans(n_clusters=n_clusters, n_init=1, max_iter=1, seed=trial)
            model.fit(rows)
            # Re-derive one reference update from the same k-means++ seed.
            init = model._init_centroids(
                rows, np.random.default_rng(trial)
            )
            expected = _reference_lloyd_update(rows, init, n_clusters)
            vectorised, _ = model._lloyd(
                rows, np.random.default_rng(trial)
            )
            # max_iter=1: _lloyd returns exactly one update of the same
            # seeding; GEMM sums differ from .mean() only by float order.
            assert_allclose(vectorised, expected, rtol=1e-12, atol=1e-12)

    def test_empty_cluster_reseeded_at_farthest_point(self):
        # Three coincident groups, k=3, with an initialisation that
        # leaves one centroid unassigned: the empty cluster must jump to
        # the farthest point, exactly like the historical loop.
        rows = np.array([[0.0], [0.0], [10.0], [10.0], [50.0]])
        centroids = np.array([[0.0], [10.0], [10.0]])  # duplicate: one empty
        expected = _reference_lloyd_update(rows, centroids, 3)
        distances = pairwise_squared_euclidean(rows, centroids)
        assignment = distances.argmin(axis=1)
        cluster_ids = np.arange(3)
        indicator = assignment[None, :] == cluster_ids[:, None]
        counts = indicator.sum(axis=1)
        sums = indicator.astype(float) @ rows
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        farthest = distances.min(axis=1).argmax()
        new_centroids[empty] = rows[farthest]
        assert_allclose(new_centroids, expected)

    def test_fit_remains_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(40, 5))
        first = KMeans(n_clusters=3, seed=1).fit(rows)
        second = KMeans(n_clusters=3, seed=1).fit(rows)
        assert_allclose(first.centroids_, second.centroids_)
        assert first.inertia_ == second.inertia_


class TestHierarchicalCachedMinima:
    def test_dendrogram_identical_to_full_scan(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 18))
            rows = rng.normal(size=(n, 4))
            for linkage in ("single", "complete", "average"):
                assert linkage_merge_order(rows, linkage) == (
                    _reference_merge_order(rows, linkage)
                ), f"trial={trial} linkage={linkage}"

    def test_ties_resolve_like_flat_argmin(self):
        # Duplicate points force exact distance ties everywhere; the
        # cached-minima pick must still match the flat row-major argmin.
        rng = np.random.default_rng(1)
        for trial in range(15):
            base = rng.integers(0, 3, size=(10, 2)).astype(float)
            for linkage in ("single", "complete", "average"):
                assert linkage_merge_order(base, linkage) == (
                    _reference_merge_order(base, linkage)
                ), f"trial={trial} linkage={linkage}"


def _reference_ig_boundaries(column, labels, n_bins):
    """The historical greedy loop: ``information_gain`` per candidate."""
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    distinct = sorted_values[1:] > sorted_values[:-1]
    candidates = 0.5 * (sorted_values[1:] + sorted_values[:-1])[distinct]
    if candidates.size == 0:
        return _equi_depth_boundaries(column, n_bins)
    if candidates.size > 64:
        candidates = candidates[
            np.linspace(0, candidates.size - 1, 64).astype(int)
        ]
    boundaries = []
    for _ in range(n_bins - 1):
        best_gain = -np.inf
        best_candidate = None
        for candidate in candidates:
            if any(abs(candidate - b) < 1e-12 for b in boundaries):
                continue
            gain = information_gain(column, labels, candidate)
            if gain > best_gain:
                best_gain = gain
                best_candidate = float(candidate)
        if best_candidate is None:
            break
        boundaries.append(best_candidate)
    while len(boundaries) < n_bins - 1:
        filler = _equi_depth_boundaries(column, n_bins)
        for value in filler:
            if len(boundaries) >= n_bins - 1:
                break
            if all(abs(value - b) > 1e-12 for b in boundaries):
                boundaries.append(float(value))
        break
    return np.sort(np.asarray(boundaries))


def _column(kind, n, rng):
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "ties":
        return rng.integers(0, 5, n) * 0.5
    if kind == "adjacent":  # neighbouring floats: midpoints round onto values
        steps = np.nextafter(1.0, 2.0) - 1.0
        return 1.0 + rng.integers(0, 4, n) * steps
    return rng.normal(size=n)


COLUMN_KINDS = ["continuous", "ties", "constant", "adjacent"]


class TestSFABinningFromOneSort:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 300),
        n_classes=st.integers(2, 4),
        n_bins=st.integers(2, 6),
        kind=st.sampled_from(COLUMN_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boundaries_match_greedy_information_gain_loop(
        self, n, n_classes, n_bins, kind, seed
    ):
        rng = np.random.default_rng(seed)
        column = _column(kind, n, rng)
        labels = rng.integers(0, n_classes, n)
        assert np.array_equal(
            _information_gain_boundaries(column, labels, n_bins),
            _reference_ig_boundaries(column, labels, n_bins),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 300),
        n_classes=st.sampled_from([2, 3, 4, 7, 11]),
        kind=st.sampled_from(COLUMN_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_gains_equal_information_gain_bitwise(
        self, n, n_classes, kind, seed
    ):
        rng = np.random.default_rng(seed)
        column = _column(kind, n, rng)
        labels = rng.integers(0, n_classes, n)
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        # Midpoints and the values themselves (``<=`` must include them).
        thresholds = np.concatenate(
            [0.5 * (sorted_values[1:] + sorted_values[:-1]), sorted_values]
        )
        expected = [information_gain(column, labels, t) for t in thresholds]
        _, classes = np.unique(labels, return_inverse=True)
        gains = _split_gains(
            sorted_values[:, None], classes[order][:, None], [thresholds]
        )
        assert np.array_equal(gains, expected)

    def test_many_candidates_many_classes_and_string_labels(self):
        rng = np.random.default_rng(3)
        for n_classes in (2, 7, 11):
            column = rng.normal(size=500)  # > 64 candidates, subsampled
            labels = np.asarray(
                [f"c{k}" for k in rng.integers(0, n_classes, 500)]
            )
            for n_bins in (2, 4, 6):
                assert np.array_equal(
                    _information_gain_boundaries(column, labels, n_bins),
                    _reference_ig_boundaries(column, labels, n_bins),
                )

    def test_transformer_fit_matches_reference_per_coefficient(self):
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(120, 16))
        labels = rng.integers(0, 3, 120)
        sfa = SFATransformer(word_length=4, alphabet_size=4).fit(
            windows, labels
        )
        coefficients = fourier_coefficients(windows, 4)
        for position in range(4):
            assert np.array_equal(
                sfa.boundaries_[position],
                _reference_ig_boundaries(coefficients[:, position], labels, 4),
            )


def _sfa_windows(kind, n, width, rng):
    if kind == "ties":
        return rng.integers(0, 3, size=(n, width)).astype(float)
    if kind == "constant":  # every coefficient column is constant
        return np.repeat(rng.normal(size=(n, 1)), width, axis=1)
    return rng.normal(size=(n, width)).cumsum(axis=1)


def _labels(n, n_classes, as_strings, rng):
    labels = rng.integers(0, n_classes, n)
    if as_strings:
        return np.asarray([f"c{label}" for label in labels])
    return labels


class TestSFAPositionsInOneBatch:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 160),
        width=st.integers(2, 24),
        word_length=st.integers(1, 8),
        alphabet_size=st.integers(2, 6),
        n_classes=st.integers(1, 4),
        as_strings=st.booleans(),
        kind=st.sampled_from(["continuous", "ties", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_position_matches_greedy_information_gain_loop(
        self, n, width, word_length, alphabet_size, n_classes, as_strings,
        kind, seed,
    ):
        # Narrow windows leave zero-padded (constant) coefficient columns.
        rng = np.random.default_rng(seed)
        windows = _sfa_windows(kind, n, width, rng)
        labels = _labels(n, n_classes, as_strings, rng)
        sfa = SFATransformer(word_length, alphabet_size).fit(windows, labels)
        coefficients = fourier_coefficients(windows, word_length)
        for position in range(word_length):
            expected = np.full(alphabet_size - 1, np.inf)
            reference = _reference_ig_boundaries(
                coefficients[:, position], labels, alphabet_size
            )
            expected[: reference.size] = reference
            assert np.array_equal(sfa.boundaries_[position], expected)


def _reference_extract_windows(series_matrix, window):
    """The historical windows: one strided view per row, concatenated."""
    n_series, length = series_matrix.shape
    stacked = [
        np.lib.stride_tricks.sliding_window_view(row, window)
        for row in series_matrix
    ]
    owners = np.repeat(np.arange(n_series), length - window + 1)
    return np.concatenate(stacked, axis=0), owners


def _reference_tokens(bag, word_sequence):
    """The historical ``_emit_tokens``: one series' unigrams then bigrams."""
    base = bag._sfa.vocabulary_size
    if not bag.use_bigrams or word_sequence.size <= bag.window:
        return word_sequence
    left = word_sequence[: -bag.window]
    right = word_sequence[bag.window :]
    return np.concatenate([word_sequence, base + left * base + right])


def _reference_bop_fit(bag, series_matrix, labels):
    """The historical ``fit``: one ``dict`` insertion per new token."""
    windows, owners = _reference_extract_windows(series_matrix, bag.window)
    words = bag._sfa.fit_transform_words(windows, np.asarray(labels)[owners])
    vocabulary = {}
    for series_index in range(series_matrix.shape[0]):
        for token in _reference_tokens(bag, words[owners == series_index]):
            token = int(token)
            if token not in vocabulary:
                vocabulary[token] = len(vocabulary)
    return vocabulary


def _reference_bop_transform(bag, vocabulary, series_matrix):
    """The historical ``transform``: ``counts[row, column] += 1.0`` per token."""
    counts = np.zeros((series_matrix.shape[0], len(vocabulary)), dtype=float)
    if series_matrix.shape[1] < bag.window:
        return counts
    windows, owners = _reference_extract_windows(series_matrix, bag.window)
    words = bag._sfa.transform_words(windows)
    for series_index in range(series_matrix.shape[0]):
        for token in _reference_tokens(bag, words[owners == series_index]):
            column = vocabulary.get(int(token))
            if column is not None:
                counts[series_index, column] += 1.0
    return counts


def _bop_series(kind, n, length, rng):
    if kind == "ties":  # few distinct words: repeats and ties everywhere
        return rng.integers(0, 3, size=(n, length)).astype(float)
    if kind == "constant":
        return np.full((n, length), rng.normal())
    return rng.normal(size=(n, length)).cumsum(axis=1)


BOP_CASE = dict(
    n_series=st.integers(1, 6),
    length=st.integers(1, 40),
    window_fraction=st.floats(0.0, 1.0),
    word_length=st.integers(1, 4),
    alphabet_size=st.integers(2, 4),
    use_bigrams=st.booleans(),
    n_classes=st.integers(1, 3),
    as_strings=st.booleans(),
    kind=st.sampled_from(["continuous", "ties", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)


def _assert_bop_matches_token_loops(
    n_series, length, window, word_length, alphabet_size,
    use_bigrams, n_classes, as_strings, kind, seed,
):
    rng = np.random.default_rng(seed)
    series = _bop_series(kind, n_series, length, rng)
    labels = _labels(n_series, n_classes, as_strings, rng)
    params = dict(
        window=window,
        word_length=word_length,
        alphabet_size=alphabet_size,
        use_bigrams=use_bigrams,
    )
    bag = BagOfPatterns(**params)
    counts = bag.fit_transform(series, labels)
    reference = BagOfPatterns(**params)
    vocabulary = _reference_bop_fit(reference, series, labels)
    assert list(bag.vocabulary_.items()) == list(vocabulary.items())
    expected = _reference_bop_transform(reference, vocabulary, series)
    assert counts.dtype == expected.dtype and counts.shape == expected.shape
    assert counts.tobytes() == expected.tobytes()
    assert bag.transform(series).tobytes() == expected.tobytes()
    # Unseen series, which carry unseen tokens, and single-series prefixes
    # shorter than, equal to and just longer than the window.
    unseen = [_bop_series(kind, int(rng.integers(1, 4)), length, rng) * 1.5]
    unseen += [
        rng.normal(size=(1, prefix)).cumsum(axis=1)
        for prefix in (window - 1, window, window + 1)
    ]
    for matrix in unseen:
        assert (
            bag.transform(matrix).tobytes()
            == _reference_bop_transform(reference, vocabulary, matrix).tobytes()
        )


def _with_window(window_fraction, **case):
    """A case with a window from 1 to the whole series length."""
    return dict(case, window=1 + int(window_fraction * (case["length"] - 1)))


class TestBagOfPatternsCountsInNumpy:
    @settings(max_examples=200, deadline=None)
    @given(**BOP_CASE)
    def test_vocabulary_and_counts_match_token_loops(self, **case):
        _assert_bop_matches_token_loops(**_with_window(**case))

    @pytest.mark.slow
    @pytest.mark.conformance
    @settings(max_examples=2000, deadline=None)
    @given(**BOP_CASE)
    def test_vocabulary_and_counts_match_token_loops_deep(self, **case):
        _assert_bop_matches_token_loops(**_with_window(**case))

    @pytest.mark.parametrize("use_bigrams", [False, True])
    @pytest.mark.parametrize("length, window", [(12, 6), (12, 7), (12, 12), (20, 4)])
    def test_bigram_boundary_and_unigram_only(self, length, window, use_bigrams):
        # 12 - 6 + 1 = 7 positions > window: one bigram per series; with
        # window 7 (6 positions) and 12 (1 position) there is none.
        _assert_bop_matches_token_loops(
            n_series=4, length=length, window=window,
            word_length=3, alphabet_size=3, use_bigrams=use_bigrams,
            n_classes=2, as_strings=False, kind="continuous", seed=window,
        )


def _reference_best_split_mse(column, targets, min_samples_leaf):
    """The historical per-node, per-feature argsort scan."""
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    sorted_targets = targets[order]
    n = len(sorted_targets)
    prefix = np.cumsum(sorted_targets)
    total = prefix[-1]
    positions = np.arange(1, n)
    valid = (positions >= min_samples_leaf) & (positions <= n - min_samples_leaf)
    valid &= sorted_values[1:] > sorted_values[:-1]
    if not valid.any():
        return None
    left_sum = prefix[:-1]
    left_count = positions.astype(float)
    right_count = n - left_count
    gain = left_sum**2 / left_count + (total - left_sum) ** 2 / right_count
    gain = np.where(valid, gain, -np.inf)
    best = int(gain.argmax())
    threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
    return threshold, float(gain[best])


class _ReferenceTree(DecisionTreeRegressor):
    """The historical tree: re-argsorts every feature at every node."""

    def _reference_build(self, features, targets, depth):
        node = _Node(value=float(targets.mean()))
        if depth >= self.max_depth or len(targets) < self.min_samples_split:
            return node
        best_gain = -np.inf
        best_feature = -1
        best_threshold = 0.0
        for feature in range(features.shape[1]):
            split = _reference_best_split_mse(
                features[:, feature], targets, self.min_samples_leaf
            )
            if split is not None and split[1] > best_gain:
                best_threshold, best_gain = split
                best_feature = feature
        baseline = targets.sum() ** 2 / len(targets)
        if best_feature < 0 or best_gain <= baseline + 1e-12:
            return node
        mask = features[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._reference_build(
            features[mask], targets[mask], depth + 1
        )
        node.right = self._reference_build(
            features[~mask], targets[~mask], depth + 1
        )
        return node

    def fit(self, features, targets):
        features, targets = _validate_matrix(features, targets)
        self._root = self._reference_build(
            features, targets.astype(float), depth=0
        )
        return self


class _ReferenceBoosting(GradientBoostingClassifier):
    """The historical fit loop: each tree fits ``features[chosen]``."""

    def fit(self, features, labels):
        from repro.stats.linear import softmax

        features = np.asarray(features, dtype=float)
        encoded = self._encoder.fit_transform(labels)
        n_samples = features.shape[0]
        n_classes = len(self._encoder.classes_)
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), encoded] = 1.0
        priors = np.clip(one_hot.mean(axis=0), 1e-12, None)
        self._base_logits = np.log(priors)
        logits = np.tile(self._base_logits, (n_samples, 1))
        rng = np.random.default_rng(self.seed)
        self._stages = []
        if n_classes < 2:
            return self
        for _ in range(self.n_estimators):
            residuals = one_hot - softmax(logits)
            if self.subsample < 1.0:
                chosen = rng.random(n_samples) < self.subsample
                if not chosen.any():
                    chosen[rng.integers(n_samples)] = True
            else:
                chosen = np.ones(n_samples, dtype=bool)
            stage = []
            for class_index in range(n_classes):
                tree = _ReferenceTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                tree.fit(features[chosen], residuals[chosen, class_index])
                logits[:, class_index] += self.learning_rate * tree.predict(
                    features
                )
                stage.append(tree)
            self._stages.append(stage)
        return self


def _shape(node):
    """A tree as nested ``(feature, threshold, left, right)`` / leaf value."""
    if node.feature < 0:
        return float(node.value)
    return (
        node.feature,
        float(node.threshold),
        _shape(node.left),
        _shape(node.right),
    )


def _tree_features(kind, n, n_features, rng):
    if kind == "ties":
        return rng.integers(0, 4, size=(n, n_features)).astype(float)
    features = rng.normal(size=(n, n_features))
    if kind == "duplicated":  # identical columns tie on every split
        features[:, 1:] = features[:, :1]
    return features


class TestTreeSplitsFromOnePresort:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 80),
        n_features=st.integers(1, 6),
        max_depth=st.integers(1, 4),
        min_samples_leaf=st.integers(1, 4),
        kind=st.sampled_from(["continuous", "ties", "duplicated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_regressor_matches_per_node_argsort(
        self, n, n_features, max_depth, min_samples_leaf, kind, seed
    ):
        rng = np.random.default_rng(seed)
        features = _tree_features(kind, n, n_features, rng)
        targets = rng.normal(size=n)
        params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        tree = DecisionTreeRegressor(**params).fit(features, targets)
        reference = _ReferenceTree(**params).fit(features, targets)
        assert _shape(tree._root) == _shape(reference._root)
        probe = rng.normal(size=(20, n_features))
        assert np.array_equal(tree.predict(probe), reference.predict(probe))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 60),
        n_features=st.integers(1, 5),
        n_classes=st.integers(2, 4),
        subsample=st.sampled_from([1.0, 0.8]),
        kind=st.sampled_from(["continuous", "ties", "duplicated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boosting_matches_per_node_argsort(
        self, n, n_features, n_classes, subsample, kind, seed
    ):
        rng = np.random.default_rng(seed)
        features = _tree_features(kind, n, n_features, rng)
        labels = rng.integers(0, n_classes, n)
        params = dict(n_estimators=6, subsample=subsample, seed=seed % 1000)
        model = GradientBoostingClassifier(**params).fit(features, labels)
        reference = _ReferenceBoosting(**params).fit(features, labels)
        assert [[_shape(t._root) for t in stage] for stage in model._stages] == [
            [_shape(t._root) for t in stage] for stage in reference._stages
        ]
        assert np.array_equal(
            model.predict_proba(features), reference.predict_proba(features)
        )


def _reference_project_box_simplex(alpha, upper):
    """The historical loop: one numpy clip-and-sum per bisection step."""
    low = alpha.min() - upper
    high = alpha.max()
    for _ in range(100):
        shift = 0.5 * (low + high)
        total = np.clip(alpha - shift, 0.0, upper).sum()
        if total > 1.0:
            low = shift
        else:
            high = shift
        if high - low < 1e-12:
            break
    return np.clip(alpha - 0.5 * (low + high), 0.0, upper)


def _box_upper(n, nu):
    """The box ``OneClassSVM.fit`` projects onto; ``nu=None`` is relaxed."""
    if nu is None:
        return 1.0 / n + 1e-12
    return 1.0 / max(nu * n, 1.0)


def _alpha(kind, n, upper, scale, rng):
    """A point to project: the magnitudes and shapes the proof must cover."""
    if kind == "equal":
        return np.full(n, scale * rng.normal())
    if kind == "ties":
        return rng.integers(-3, 4, n) * scale
    if kind == "dyadic":  # bisection midpoints hit the root exactly
        return rng.integers(-8, 9, n) / 8.0
    if kind == "breakpoint":
        # The root shift lands on a coordinate: k coordinates sit at or
        # above ``root + upper`` (one exactly on it), the rest share the
        # remaining mass below ``upper`` each, and the others sit at
        # ``root`` itself.
        root = scale * rng.normal()
        k = int(rng.integers(0, min(n, int(1.0 / upper)) + 1))
        top = root + upper + scale * rng.uniform(0.0, 1.0, k)
        if k:
            top[0] = root + upper
        mass, rest = 1.0 - k * upper, n - k
        m = min(rest, int(np.ceil(mass / upper)) + 1) if mass > 0 else 0
        middle = root + rng.dirichlet(np.ones(m)) * mass if m else []
        bottom = np.full(rest - m, root)
        return rng.permutation(np.concatenate([top, middle, bottom]))
    return scale * rng.normal(size=n)


ALPHA_KINDS = ["continuous", "equal", "ties", "dyadic", "breakpoint"]
NUS = [None, 0.05, 0.1, 0.5, 1.0]


def _projection_case(n, kind, nu, exponent, seed):
    rng = np.random.default_rng(seed)
    upper = _box_upper(n, nu)
    return _alpha(kind, n, upper, 10.0**exponent, rng), upper


def _assert_projection_matches(alpha, upper):
    fast = _project_box_simplex(alpha, upper)
    reference = _reference_project_box_simplex(alpha, upper)
    assert fast.tobytes() == reference.tobytes()


class TestBoxSimplexProjectionFromBreakpoints:
    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("value", [-1e3, -0.5, 0.0, 1e-8, 0.25, 7.0])
    def test_single_coordinate(self, value, nu):
        _assert_projection_matches(np.array([value]), _box_upper(1, nu))

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_all_equal_coordinates(self, n, nu):
        for value in (-3.0, 0.0, 1.0 / n, 1e-8, 1e3):
            _assert_projection_matches(np.full(n, value), _box_upper(n, nu))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 120),
        kind=st.sampled_from(ALPHA_KINDS),
        nu=st.sampled_from(NUS),
        exponent=st.floats(-8.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projection_matches_per_step_numpy_loop(
        self, n, kind, nu, exponent, seed
    ):
        _assert_projection_matches(
            *_projection_case(n, kind, nu, exponent, seed)
        )

    @pytest.mark.slow
    @pytest.mark.conformance
    @settings(max_examples=2500, deadline=None)
    @given(
        n=st.integers(1, 400),
        kind=st.sampled_from(ALPHA_KINDS),
        nu=st.sampled_from(NUS),
        exponent=st.floats(-8.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projection_matches_per_step_numpy_loop_deep(
        self, n, kind, nu, exponent, seed
    ):
        _assert_projection_matches(
            *_projection_case(n, kind, nu, exponent, seed)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        n_features=st.integers(1, 4),
        kind=st.sampled_from(["continuous", "ties", "constant"]),
        nu=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
        exponent=st.floats(-4.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_matches_per_step_numpy_loop(
        self, n, n_features, kind, nu, exponent, seed
    ):
        rng = np.random.default_rng(seed)
        rows = _tree_features(kind, n, n_features, rng) * 10.0**exponent
        if kind == "constant":
            rows[:] = rows[0]
        model = OneClassSVM(nu=nu).fit(rows)
        with mock.patch.object(
            svm, "_project_box_simplex", _reference_project_box_simplex
        ):
            reference = OneClassSVM(nu=nu).fit(rows)
        assert model._alpha.tobytes() == reference._alpha.tobytes()
        assert model._rho == reference._rho
        probe = np.concatenate([rows, rng.normal(size=(5, n_features))])
        assert (
            model.decision_function(probe).tobytes()
            == reference.decision_function(probe).tobytes()
        )


def _seed_sliding_window(pattern, matrix):
    """The seed window-matching kernel, built on ``sliding_window_view``."""
    windows = np.lib.stride_tricks.sliding_window_view(
        matrix, pattern.size, axis=1
    )
    differences = windows - pattern[None, None, :]
    return np.sqrt(np.einsum("nij,nij->ni", differences, differences))


class TestSlidingWindowFromOneStridedView:
    @settings(max_examples=300, deadline=None)
    @given(
        n_rows=st.integers(1, 6),
        length=st.integers(1, 60),
        width_share=st.floats(0.0, 1.0),
        layout=st.sampled_from(["c", "fortran", "column-slice", "row-step"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distances_bitwise_equal_sliding_window_view(
        self, n_rows, length, width_share, layout, seed
    ):
        rng = np.random.default_rng(seed)
        width = 1 + int(width_share * (length - 1))
        base = rng.normal(size=(2 * n_rows, length + 3)) * 10.0
        matrix = {
            "c": base[:n_rows, :length],
            "fortran": np.asfortranarray(base[:n_rows, :length]),
            "column-slice": base[:n_rows, 3:],
            "row-step": base[::2, :length],
        }[layout]
        pattern = rng.normal(size=width)
        got = get_backend("numpy").sliding_window(pattern, matrix)
        expected = _seed_sliding_window(pattern, matrix)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _seed_equi_depth_boundaries(column, n_bins):
    """The seed form: ``np.quantile`` on every column."""
    return np.quantile(column, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])


class TestEquiDepthConstantColumns:
    VALUES = [-0.0, 0.0, 1.5, -3.0, 1e308, 5e-324, np.inf, -np.inf, np.nan]

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 40),
        n_bins=st.integers(2, 8),
        values=st.lists(st.sampled_from(VALUES), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boundaries_bitwise_equal_np_quantile(
        self, n, n_bins, values, seed
    ):
        # Constant columns (of either zero, or mixed zeros) take the
        # shortcut; np.quantile turns some -0.0 into +0.0 and infinities
        # into NaN, so the signs are compared as well as the values.
        column = np.random.default_rng(seed).choice(values, n)
        with np.errstate(invalid="ignore"):
            expected = _seed_equi_depth_boundaries(column, n_bins)
            got = _equi_depth_boundaries(column, n_bins)
        np.testing.assert_array_equal(got, expected)
        assert (np.signbit(got) == np.signbit(expected)).all()
