"""The one-tree-at-a-time forest that `mvelma.forest` must reproduce.

`reference_fit_forest` grows each tree alone, depth first, with one split
search per node; `reference_predict_forest` calls `RegressionTree.predict`
tree by tree and sums the predictions in tree order. The lockstep builder and the all-trees
traversal in `mvelma.forest` must return the same arrays, bit for bit.
"""

import math

import numpy as np

from mvelma.forest import Forest, RegressionTree


class _TreeBuilder:
    def __init__(self, x, y, cfg, m_features, rng):
        self.x = x
        self.y = y
        self.cfg = cfg
        self.m = m_features
        self.rng = rng
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []
        self.gain_by_feature = np.zeros(x.shape[1])

    def new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, root_idx):
        msl = self.cfg.min_samples_leaf
        n_root = root_idx.size
        stack = [(self.new_node(), root_idx, 0)]
        while stack:
            node, idx, depth = stack.pop()
            yy = self.y[idx]
            n = idx.size
            mean = yy.mean()
            self.value[node] = mean

            if n < 2 * msl or (self.cfg.max_depth is not None and depth >= self.cfg.max_depth):
                continue
            sse = float(yy @ yy) - n * mean * mean
            if sse <= n * 1e-14 * (1.0 + mean * mean):
                continue  # numerically pure node

            split = self._best_split(idx, yy)
            if split is None:
                continue
            feat, thr, gain = split
            mask = self.x[idx, feat] <= thr
            n_left = int(mask.sum())
            if n_left < msl or n - n_left < msl:
                continue  # midpoint rounding collapsed one side

            self.gain_by_feature[feat] += gain / n_root
            self.feature[node] = feat
            self.threshold[node] = thr
            left_id = self.new_node()
            right_id = self.new_node()
            self.left[node] = left_id
            self.right[node] = right_id
            stack.append((right_id, idx[~mask], depth + 1))
            stack.append((left_id, idx[mask], depth + 1))
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value),
        )

    def _best_split(self, idx, yy):
        """Maximize SSE reduction over candidate features and positions.

        Ties break toward the lowest feature index, then the lowest
        threshold: the gain grid is scanned feature-major over ascending
        feature indices and ascending thresholds, and argmax takes the
        first maximum.
        """
        n = idx.size
        msl = self.cfg.min_samples_leaf
        d = self.x.shape[1]
        feats = np.sort(self.rng.choice(d, size=self.m, replace=False))
        sub = self.x[np.ix_(idx, feats)]
        order = np.argsort(sub, axis=0, kind="stable")
        svals = np.take_along_axis(sub, order, axis=0)
        sy = yy[order]

        cum = np.cumsum(sy, axis=0)
        total = cum[-1, 0]
        n_l = np.arange(1, n, dtype=np.float64)[:, None]
        n_r = n - n_l
        cum_l = cum[:-1, :]
        with np.errstate(invalid="ignore"):
            gains = cum_l**2 / n_l + (total - cum_l) ** 2 / n_r - total * total / n

        valid = svals[1:, :] > svals[:-1, :]
        if msl > 1:
            pos = np.arange(1, n)[:, None]
            valid &= (pos >= msl) & (n - pos >= msl)
        gains = np.where(valid, gains, -np.inf)

        flat = gains.T.ravel()  # feature-major: lowest feature, then lowest threshold
        best = int(np.argmax(flat))
        best_gain = flat[best]
        if not (best_gain > 0.0) or not np.isfinite(best_gain):
            return None
        col, row = divmod(best, n - 1)
        thr = 0.5 * (svals[row, col] + svals[row + 1, col])
        return int(feats[col]), float(thr), float(best_gain)


def reference_fit_forest(x, y, cfg) -> Forest:
    """Grow the trees one after another; inputs must already be validated."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    m = cfg.features_per_split if cfg.features_per_split is not None else math.ceil(d / 3)
    trees = []
    gain_totals = np.zeros(d)
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(cfg.seed + t)
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        builder = _TreeBuilder(x, y, cfg, m, rng)
        trees.append(builder.build(idx))
        gain_totals += builder.gain_by_feature

    s = gain_totals.sum()
    importances = gain_totals / s if s > 0 else gain_totals
    return Forest(trees=trees, importances=importances, n_features=d, config=cfg)


def reference_predict_forest(f, x) -> np.ndarray:
    """Mean of the per-tree predictions, summed in tree order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    out = np.zeros(x.shape[0])
    for tree in f.trees:
        out += tree.predict(x)
    return out / len(f.trees)
