"""The one-tree-at-a-time forest that `mvelma.forest` must reproduce.

`reference_fit_forest` grows each tree alone, level by level, with one
split search per node; `reference_predict_forest` walks one tree at a
time and sums the predictions in tree order. The all-trees builder and traversal in `mvelma.forest` must return
the same arrays, bit for bit.

The draw rule both builders share: tree t's rng is default_rng(seed + t),
its first call draws the bootstrap rows, and at each depth level one
rng.random((c, d)) call gives a key row to each of the c nodes that need a
split search, in node order; a node searches the features of its
m = ceil(d/3) lowest keys. A node's value and sum of squares are
np.add.reduceat sums over its own rows. Nodes are numbered in level order,
the right child at left + 1.
"""

import math

import numpy as np

from mvelma.forest import Forest, RegressionTree


def _grow_tree(x, y, cfg, m, rng, root_rows):
    """One tree and its gain totals by feature."""
    msl = cfg.min_samples_leaf
    d = x.shape[1]
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    gain_by_feature = np.zeros(d)
    level = [(0, root_rows)]
    while level:
        searched = []
        for node, idx in level:
            yy = y[idx]
            n = idx.size
            mean = np.add.reduceat(yy, [0])[0] / n
            value[node] = mean
            if n < 2 * msl:
                continue
            sse = np.add.reduceat(yy * yy, [0])[0] - n * mean * mean
            if sse <= n * 1e-14 * (1.0 + mean * mean):
                continue  # numerically pure node
            searched.append((node, idx))

        children = []
        for (node, idx), keys in zip(searched, rng.random((len(searched), d))):
            feats = np.sort(np.argsort(keys, kind="stable")[:m])
            split = _best_split(x, y, idx, feats, msl)
            if split is None:
                continue
            feat, thr, gain = split
            mask = x[idx, feat] <= thr
            n_left = int(mask.sum())
            if n_left < msl or idx.size - n_left < msl:
                continue  # midpoint rounding collapsed one side

            gain_by_feature[feat] += gain / root_rows.size
            feature[node] = feat
            threshold[node] = thr
            left[node], right[node] = len(feature), len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            value += [0.0, 0.0]
            children += [(left[node], idx[mask]), (right[node], idx[~mask])]
        level = children
    tree = RegressionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )
    return tree, gain_by_feature


def _best_split(x, y, idx, feats, msl):
    """Maximize SSE reduction over the features `feats` and positions.

    Ties break toward the lowest feature index, then the lowest threshold:
    the gain grid is scanned feature-major over ascending feature indices
    and ascending thresholds, and argmax takes the first maximum.
    """
    n = idx.size
    sub = x[np.ix_(idx, feats)]
    order = np.argsort(sub, axis=0, kind="stable")
    svals = np.take_along_axis(sub, order, axis=0)
    sy = y[idx][order]

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
    m = math.ceil(d / 3)
    trees = []
    gain_totals = np.zeros(d)
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(cfg.seed + t)
        idx = rng.integers(0, n, size=n)
        tree, gain_by_feature = _grow_tree(x, y, cfg, m, rng, idx)
        trees.append(tree)
        gain_totals += gain_by_feature

    s = gain_totals.sum()
    importances = gain_totals / s if s > 0 else gain_totals
    return Forest(trees=trees, importances=importances, n_features=d, config=cfg)


def _predict_tree(tree, x) -> np.ndarray:
    """Each row's leaf value in one tree, moving every row down a level per pass."""
    nodes = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        active = np.flatnonzero(tree.feature[nodes] >= 0)
        if active.size == 0:
            return tree.value[nodes]
        cur = nodes[active]
        go_left = x[active, tree.feature[cur]] <= tree.threshold[cur]
        nodes[active] = np.where(go_left, tree.left[cur], tree.right[cur])


def reference_predict_forest(f, x) -> np.ndarray:
    """Mean of the per-tree predictions, summed in tree order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    out = np.zeros(x.shape[0])
    for tree in f.trees:
        out += _predict_tree(tree, x)
    return out / len(f.trees)
