"""Random-forest regression with variance-reduction feature importance.

Bootstrap-resampled trees, a uniformly sampled feature subset per node, and
midpoint thresholds between consecutive distinct sorted values. All trees
grow in lockstep: each step runs one batched split search over the next
split node of every tree, and prediction walks all trees at once. Both give
the same numbers, bit for bit, as growing and walking the trees one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NonFiniteInput


@dataclass
class ForestConfig:
    n_trees: int = 500
    max_depth: int | None = None  # None = unlimited
    min_samples_leaf: int = 2
    features_per_split: int | None = None  # None = ceil(d/3)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DegenerateInput("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise DegenerateInput("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise DegenerateInput("max_depth must be >= 0")


@dataclass
class RegressionTree:
    """Flat node arrays; feature == -1 marks a leaf, whose value is the mean
    of its training targets."""

    feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray  # int child ids
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        nodes = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[nodes]
            active = np.flatnonzero(feats >= 0)
            if active.size == 0:
                return self.value[nodes]
            cur = nodes[active]
            go_left = x[active, self.feature[cur]] <= self.threshold[cur]
            nodes[active] = np.where(go_left, self.left[cur], self.right[cur])


@dataclass
class Forest:
    trees: list
    importances: np.ndarray
    n_features: int
    config: ForestConfig = field(default_factory=ForestConfig)


# Cell budget of one batched array: a chunk of same-size nodes is padded to
# at most this many (node, feature, row) cells, which bounds the memory of
# the split search and of the all-trees traversal. 2**19 float64 cells are
# 4 MiB per array.
_BATCH_CELLS = 1 << 19


class _Grower:
    """Growth state of one tree: its rng, its node arrays and its depth-first
    stack of (node, lo, hi, depth). A node owns rows[lo:hi] of the tree's
    slice of the shared row array, in bootstrap order."""

    __slots__ = ("rng", "rows", "stack", "feature", "threshold", "left", "right", "value")

    def __init__(self, rng, rows):
        self.rng = rng
        self.rows = rows
        self.stack = [(0, 0, rows.size, 0)]
        self.feature = [-1]
        self.threshold = [0.0]
        self.left = [-1]
        self.right = [-1]
        self.value = [0.0]

    def next_search(self, y, cfg, d, m):
        """Pop nodes, setting each one's value, until one needs a split search;
        draw its feature subset and return (node, lo, hi, depth, features).
        None once the stack is empty."""
        msl, max_depth = cfg.min_samples_leaf, cfg.max_depth
        stack = self.stack
        while stack:
            node, lo, hi, depth = stack.pop()
            # mean and dot product stay per node, over the node's rows in
            # bootstrap order: their rounding depends on the length
            yy = y[self.rows[lo:hi]]
            n = hi - lo
            mean = np.add.reduce(yy) / n  # what yy.mean() computes, minus its wrapper
            self.value[node] = mean
            if n < 2 * msl or (max_depth is not None and depth >= max_depth):
                continue
            sse = float(yy @ yy) - n * mean * mean
            if sse <= n * 1e-14 * (1.0 + mean * mean):
                continue  # numerically pure node
            feats = np.sort(self.rng.choice(d, size=m, replace=False))
            return node, lo, hi, depth, feats
        return None

    def split(self, node, lo, hi, depth, feat, thr, n_left):
        left_id = len(self.feature)
        right_id = left_id + 1
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = left_id
        self.right[node] = right_id
        self.feature += [-1, -1]
        self.threshold += [0.0, 0.0]
        self.left += [-1, -1]
        self.right += [-1, -1]
        self.value += [0.0, 0.0]
        self.stack.append((right_id, lo + n_left, hi, depth + 1))
        self.stack.append((left_id, lo, lo + n_left, depth + 1))

    def tree(self) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value),
        )


class _SplitSearch:
    """Best-split search over a batch of nodes from any of the trees.

    Node b owns rows[starts[b] : starts[b] + lens[b]] of the flat row array
    (one slice of n rows per tree) and searches the features feats[b]. A
    batch holds nodes of at most `size` rows, a power of two; each node is
    padded to `size` with the pad row n (features +inf, target 0).
    """

    def __init__(self, x, y, rows, min_samples_leaf):
        n, d = x.shape
        self.x = np.vstack([x, np.full((1, d), np.inf)])
        self.y = np.append(y, 0.0)
        # Each value's rank among the distinct values of its column; the pad
        # row ranks above them all. Equal values share a rank, so sorting the
        # distinct keys rank * size + position orders a node's rows exactly as
        # a stable sort of the values does, with an integer sort.
        self.rank = np.full((n + 1, d), n, dtype=np.int64)
        for j in range(d):
            self.rank[:n, j] = np.unique(x[:, j], return_inverse=True)[1]
        self.rows = rows
        self.msl = min_samples_leaf

    def __call__(self, starts, lens, feats, size):
        """Search every node of the batch as if alone: pads sort last and get
        gain -inf, so the prefix sums over the real rows, the gains and the
        first-maximum tie-break (lowest feature, then lowest threshold) come
        out the same. The rows of every node that splits are stably
        partitioned in place, left rows first.

        Returns per node: feature, threshold, gain, left count and whether
        the split is taken.
        """
        b, m = feats.shape
        d, msl = self.x.shape[1], self.msl
        pos = np.arange(size)
        real = pos < lens[:, None]
        r = np.full((b, size), self.x.shape[0] - 1)
        r[real] = self.rows[(starts[:, None] + pos)[real]]

        # gathers index flattened arrays: one take, not a multi-array index
        keys = self.rank.take(r[:, None, :] * d + feats[:, :, None])  # node x feature x row
        shift = size.bit_length() - 1
        keys <<= shift
        keys += pos
        keys.sort(axis=2)
        sorted_rows = r.take((keys & (size - 1)) + (np.arange(b) * size)[:, None, None])
        keys >>= shift  # ranks in sorted order
        cum = np.cumsum(self.y.take(sorted_rows), axis=2)

        nodes = np.arange(b)
        n = lens.astype(np.float64)[:, None, None]
        total = cum[nodes, 0, lens - 1][:, None, None]
        n_l = np.arange(1, size, dtype=np.float64)
        cum_l = cum[:, :, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # cum_l**2 / n_l + (total - cum_l)**2 / n_r - total**2 / n: the
            # same operations in the same order, in place
            gains = np.square(cum_l)
            gains /= n_l
            right = total - cum_l
            np.square(right, out=right)
            right /= n - n_l
            gains += right
            gains -= total * total / n

        valid = keys[:, :, 1:] > keys[:, :, :-1]
        cut = np.arange(1, size)
        valid &= (cut >= msl) & (lens[:, None, None] - cut >= msl)
        gains[~valid] = -np.inf
        gains = gains.reshape(b, -1)  # feature-major per node
        best = np.argmax(gains, axis=1)
        best_gain = gains[nodes, best]
        col, row = np.divmod(best, size - 1)
        feat = feats[nodes, col]
        thr = 0.5 * (
            self.x[sorted_rows[nodes, col, row], feat]
            + self.x[sorted_rows[nodes, col, row + 1], feat]
        )

        go_left = self.x[r, feat[:, None]] <= thr[:, None]  # pads are +inf: never left
        n_left = go_left.sum(axis=1)
        # the last two terms catch midpoint rounding that collapsed one side
        taken = (
            (best_gain > 0.0) & np.isfinite(best_gain)
            & (n_left >= msl) & (lens - n_left >= msl)
        )
        moved = np.take_along_axis(r, np.argsort(~go_left, axis=1, kind="stable"), axis=1)
        keep = real & taken[:, None]
        self.rows[(starts[:, None] + pos)[keep]] = moved[keep]
        return feat, thr, best_gain, n_left, taken


def _grow_forest(x, y, cfg: ForestConfig, m: int):
    """Grow all cfg.n_trees trees in lockstep.

    Each step pops every unfinished tree's next split-search node (in the
    tree's own depth-first order, drawing its features from the tree's own
    rng) and searches them together: nodes are bucketed by size rounded up to
    a power of two and each bucket is searched in chunks of at most
    _BATCH_CELLS cells. Every tree sees the same random draws and the same
    arithmetic as when grown alone, so the forest is the same bit for bit.
    Returns the trees and the per-tree gain totals by feature.
    """
    n, d = x.shape
    rows = np.empty((cfg.n_trees, n), dtype=np.int64)
    growers = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(cfg.seed + t)
        rows[t] = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        growers.append(_Grower(rng, rows[t]))
    search = _SplitSearch(x, y, rows.reshape(-1), cfg.min_samples_leaf)
    gain_by_feature = np.zeros((cfg.n_trees, d))

    active = range(cfg.n_trees)
    while True:
        pending = []
        for t in active:
            found = growers[t].next_search(y, cfg, d, m)
            if found is not None:
                pending.append((t,) + found)
        if not pending:
            break
        active = [p[0] for p in pending]

        starts = np.array([t * n + lo for t, _, lo, _, _, _ in pending])
        lens = np.array([hi - lo for _, _, lo, hi, _, _ in pending])
        feats = np.array([p[5] for p in pending])
        buckets: dict = {}
        for i, size in enumerate(lens.tolist()):
            buckets.setdefault(1 << (size - 1).bit_length(), []).append(i)
        feat = np.empty(len(pending), dtype=np.int64)
        thr = np.empty(len(pending))
        gain = np.empty(len(pending))
        n_left = np.empty(len(pending), dtype=np.int64)
        taken = np.empty(len(pending), dtype=bool)
        for size, members in buckets.items():
            per_chunk = max(1, _BATCH_CELLS // (m * size))
            for c in range(0, len(members), per_chunk):
                sel = np.array(members[c:c + per_chunk])
                out = search(starts[sel], lens[sel], feats[sel], size)
                feat[sel], thr[sel], gain[sel], n_left[sel], taken[sel] = out

        for (t, node, lo, hi, depth, _), f, th, g, nl, ok in zip(
            pending, feat.tolist(), thr.tolist(), gain.tolist(), n_left.tolist(),
            taken.tolist(),
        ):
            if ok:
                gain_by_feature[t, f] += g / n
                growers[t].split(node, lo, hi, depth, f, th, nl)
    return [g.tree() for g in growers], gain_by_feature


def fit_forest(x, y, cfg: ForestConfig | None = None) -> Forest:
    """Grow cfg.n_trees trees; tree t draws its own rng from seed + t, so the
    forest is reproducible and trees stay independent."""
    cfg = cfg or ForestConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    if n != y.size:
        raise DimensionMismatch(f"{n} rows vs {y.size} targets")
    if n < 2:
        raise DegenerateInput("forest fitting needs at least 2 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("forest inputs contain NaN or Inf")
    m = cfg.features_per_split if cfg.features_per_split is not None else math.ceil(d / 3)
    if not 1 <= m <= d:
        raise DegenerateInput(f"features_per_split {m} outside [1, {d}]")

    trees, gain_by_feature = _grow_forest(x, y, cfg, m)
    gain_totals = np.zeros(d)
    for row in gain_by_feature:  # tree order, as the totals have always summed
        gain_totals += row
    s = gain_totals.sum()
    importances = gain_totals / s if s > 0 else gain_totals
    return Forest(trees=trees, importances=importances, n_features=d, config=cfg)


def _node_table(trees):
    """Every tree's node arrays concatenated, children shifted by the tree's
    node offset, plus the offsets themselves (the roots)."""
    sizes = np.array([t.feature.size for t in trees])
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    shift = np.repeat(roots, sizes)
    return (
        roots,
        np.concatenate([t.feature for t in trees]),
        np.concatenate([t.threshold for t in trees]),
        np.concatenate([t.left for t in trees]) + shift,
        np.concatenate([t.right for t in trees]) + shift,
        np.concatenate([t.value for t in trees]),
    )


def _leaf_values(table, x) -> np.ndarray:
    """n_trees x rows leaf values, walking every tree at once.

    Hummingbird's tree traversal (Nakandala et al., OSDI 2020): each pass
    moves every (tree, row) pair not yet at a leaf one level down.
    """
    roots, feature, threshold, left, right, value = table
    n_rows = x.shape[0]
    node = np.repeat(roots, n_rows)  # tree-major: pair i is row i % n_rows
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = x[active % n_rows, feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[active] = nxt
        active = active[feature[nxt] >= 0]
    return value[node].reshape(roots.size, n_rows)


def predict_forest(f: Forest, x) -> np.ndarray:
    """Arithmetic mean of the per-tree predictions."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape[1] != f.n_features:
        raise DimensionMismatch(f"expected {f.n_features} features, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("forest query rows contain NaN or Inf")
    table = _node_table(f.trees)
    out = np.zeros(x.shape[0])
    step = max(1, _BATCH_CELLS // len(f.trees))
    for start in range(0, x.shape[0], step):
        acc = out[start:start + step]
        for leaf in _leaf_values(table, x[start:start + step]):
            acc += leaf  # in tree order, as when summing tree by tree
    return out / len(f.trees)


def feature_importance(f: Forest) -> np.ndarray:
    """Normalized total variance reduction per feature (all zeros when no
    split anywhere had positive gain)."""
    return f.importances.copy()
