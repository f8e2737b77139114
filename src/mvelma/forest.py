"""Random-forest regression with variance-reduction feature importance.

Bootstrap-resampled trees, a uniformly sampled feature subset per node, and
midpoint thresholds between consecutive distinct sorted values. The tree ids
are split into contiguous ranges, one per CPU this process may use, and each
range grows on its own thread, the calling thread growing the first. The
trees of a range grow together, one depth level at a time: each level's
nodes are array rows and one batched split search serves the whole level.
The ranges share the search's cell budget, and their threads overlap inside
numpy's sorts, gathers and prefix sums, which release the GIL. Prediction
walks all trees at once. Both give the same numbers, bit for bit, as growing
each tree alone level by level and walking the trees one by one, whatever
the number of ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import numcore as nc
from .errors import DegenerateInput, DimensionMismatch


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
        if self.features_per_split is not None and self.features_per_split < 1:
            raise DegenerateInput("features_per_split must be >= 1")
        if self.seed < 0:
            raise DegenerateInput("seed must be >= 0")


@dataclass
class RegressionTree:
    """Flat node arrays; feature == -1 marks a leaf, whose value is the mean
    of its training targets. _leaf_values walks all trees at once. Any
    numbering with parents before children walks the same: fit_forest numbers
    nodes level by level, older model files depth first."""

    feature: NDArray[np.int64]  # -1 for leaves
    threshold: NDArray[np.float64]
    left: NDArray[np.int64]  # child ids
    right: NDArray[np.int64]
    value: NDArray[np.float64]


@dataclass
class Forest:
    trees: list[RegressionTree]
    importances: NDArray[np.float64]
    n_features: int
    config: ForestConfig = field(default_factory=ForestConfig)


# Cell budget of one batched array: a chunk of same-size nodes is padded to
# at most this many (node, feature, row) cells, which bounds the memory of
# the split search and of the all-trees traversal. 2**19 float64 cells are
# 4 MiB per array. fit_forest's workers split it evenly.
_BATCH_CELLS = 1 << 19


class _SplitSearch:
    """Best-split search over a batch of nodes from any of the trees.

    Node b owns rows[starts[b] : starts[b] + lens[b]] of the flat row array
    (one slice of n rows per tree) and searches the features feats[b]. A
    batch holds nodes of at most `size` rows, a power of two; each node is
    padded to `size` with the pad row n (features +inf, target 0). The
    node x feature x row arrays of a batch live in work buffers that the
    next batch reuses, until the owner clears ``work``.
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
        self.work = {}

    def _buffer(self, k, shape, dtype):
        """An array of ``shape`` and ``dtype`` in work buffer k, a byte buffer
        kept from batch to batch and grown when a batch needs more. With its
        largest arrays in a few reused buffers, a search allocates little per
        batch, so two searches on two threads do not fragment the one heap
        they share (numcore._retain_freed_heap) with a stream of large
        blocks freed out of order."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if k not in self.work or self.work[k].size < nbytes:
            self.work[k] = np.empty(nbytes, np.uint8)
        return self.work[k][:nbytes].view(dtype).reshape(shape)

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

        # Gathers index flattened arrays: one take, not a multi-array index.
        # Buffer 0 holds the gather indices, then the sorted targets, then the
        # gains; 1 the sort keys, then the right-hand terms; 2 the sorted
        # rows, 3 the valid cuts and 4 the prefix sums. A take into a given
        # array is unbuffered only in "clip" mode; no index is clipped.
        cells = (b, m, size)  # node x feature x row
        idx = self._buffer(0, cells, np.int64)
        np.multiply(r[:, None, :], d, out=idx)
        idx += feats[:, :, None]
        keys = self.rank.take(idx, out=self._buffer(1, cells, np.int64), mode="clip")
        shift = size.bit_length() - 1
        keys <<= shift
        keys += pos
        keys.sort(axis=2)
        np.bitwise_and(keys, size - 1, out=idx)
        idx += (np.arange(b) * size)[:, None, None]
        sorted_rows = r.take(idx, out=self._buffer(2, cells, np.int64), mode="clip")
        keys >>= shift  # ranks in sorted order
        cuts = (b, m, size - 1)
        valid = np.greater(keys[:, :, 1:], keys[:, :, :-1], out=self._buffer(3, cuts, bool))
        ys = self.y.take(sorted_rows, out=self._buffer(0, cells, np.float64), mode="clip")
        cum = np.cumsum(ys, axis=2, out=self._buffer(4, cells, np.float64))

        nodes = np.arange(b)
        n = lens.astype(np.float64)[:, None, None]
        total = cum[nodes, 0, lens - 1][:, None, None]
        n_l = np.arange(1, size, dtype=np.float64)
        cum_l = cum[:, :, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # cum_l**2 / n_l + (total - cum_l)**2 / n_r - total**2 / n: the
            # same operations in the same order, in place
            gains = np.square(cum_l, out=self._buffer(0, cuts, np.float64))
            gains /= n_l
            right = np.subtract(total, cum_l, out=self._buffer(1, cuts, np.float64))
            np.square(right, out=right)
            right /= n - n_l
            gains += right
            gains -= total * total / n

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


def _grow_forest(x, y, cfg: ForestConfig, m: int, trees: range, cells: int):
    """Grow the trees with ids in ``trees`` together, one depth level at a time.

    A level holds every tree's nodes at that depth as arrays, in tree order
    and, within a tree, in node order: the tree, the node's first row in the
    flat row array (one slice of n rows per tree, a node's rows contiguous)
    and its row count. A node's value and sum of squares are np.add.reduceat
    sums over its rows. Tree t draws the features of its c nodes that pass
    the leaf tests with one rng_t.random((c, d)) call, each node keeping the
    m lowest keys of its row. Those nodes are searched together: bucketed by
    size rounded up to a power of two, each bucket in chunks of at most
    ``cells`` cells. Each tree numbers its nodes in level order, the right
    child at left + 1. Returns the trees and the per-tree gain totals by
    feature.
    """
    n, d = x.shape
    n_trees, msl = len(trees), cfg.min_samples_leaf
    rngs = [np.random.default_rng(cfg.seed + t) for t in trees]
    rows = np.concatenate(
        [rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n) for rng in rngs])
    search = _SplitSearch(x, y, rows, msl)
    gain_by_feature = np.zeros((n_trees, d))
    n_nodes = np.ones(n_trees, dtype=np.int64)
    tree = np.arange(n_trees)
    start, count = tree * n, np.full(n_trees, n)
    levels = []
    depth = 0
    while tree.size:
        first = np.cumsum(count) - count  # each node's offset among the level's rows
        yy = y[rows[np.repeat(start - first, count) + np.arange(count.sum())]]
        value = np.add.reduceat(yy, first) / count
        sse = np.add.reduceat(yy * yy, first) - count * value * value
        deep = cfg.max_depth is not None and depth >= cfg.max_depth
        # the last test skips numerically pure nodes
        searched = np.flatnonzero(
            (count >= 2 * msl) & (not deep) & ~(sse <= count * 1e-14 * (1.0 + value * value)))

        owners, lo, c = np.unique(tree[searched], return_index=True, return_counts=True)
        keys = np.empty((searched.size, d))
        for t, a, k in zip(owners.tolist(), lo.tolist(), c.tolist()):
            keys[a:a + k] = rngs[t].random((k, d))  # one draw per tree per level
        feats = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)

        starts, lens = start[searched], count[searched]
        sizes = 1 << np.frexp(lens - 1)[1]  # exact: the exponent is (lens - 1).bit_length()
        found = [np.empty(searched.size, dt) for dt in (np.int64, float, float, np.int64, bool)]
        for size in np.unique(sizes).tolist():
            members = np.flatnonzero(sizes == size)
            per_chunk = max(1, cells // (m * size))
            for c0 in range(0, members.size, per_chunk):
                sel = members[c0:c0 + per_chunk]
                for out, got in zip(found, search(starts[sel], lens[sel], feats[sel], size)):
                    out[sel] = got
        search.work.clear()  # before the next level draws its features
        feat, thr, gain, n_left, taken = found
        split = searched[taken]
        feat, thr, gain, n_left = feat[taken], thr[taken], gain[taken], n_left[taken]

        owner = tree[split]
        np.add.at(gain_by_feature, (owner, feat), gain / n)  # adds in node order
        left = n_nodes[owner] + 2 * (np.arange(split.size) - np.searchsorted(owner, owner))
        n_nodes += 2 * np.bincount(owner, minlength=n_trees)
        node_feature = np.full(tree.size, -1)
        node_threshold = np.zeros(tree.size)
        node_left = np.full(tree.size, -1)
        node_right = np.full(tree.size, -1)
        node_feature[split], node_threshold[split] = feat, thr
        node_left[split], node_right[split] = left, left + 1
        levels.append((tree, node_feature, node_threshold, node_left, node_right, value))

        # the search partitioned each split node's rows, left rows first
        tree = np.repeat(owner, 2)
        start = np.column_stack([start[split], start[split] + n_left]).ravel()
        count = np.column_stack([n_left, count[split] - n_left]).ravel()
        depth += 1

    tree_of, *columns = map(np.concatenate, zip(*levels))
    order = np.argsort(tree_of, kind="stable")  # each tree's nodes in level order
    cuts = np.cumsum(n_nodes)[:-1]
    trees = [RegressionTree(*arrays)
             for arrays in zip(*(np.split(col[order], cuts) for col in columns))]
    return trees, gain_by_feature


def fit_forest(x, y, cfg: ForestConfig | None = None) -> Forest:
    """Grow cfg.n_trees trees; tree t draws its own rng from seed + t, so the
    forest is reproducible and trees stay independent.

    The tree ids are split into contiguous ranges, one per CPU this process
    may use but no more than the trees, and each range grows on its own
    thread (numcore.run_parts) in an equal share of _BATCH_CELLS. Every node
    is searched as if alone, so the forest is the same bits for any split.
    """
    cfg = cfg or ForestConfig()
    x = nc.as_matrix(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    if n != y.size:
        raise DimensionMismatch(f"{n} rows vs {y.size} targets")
    if n < 2:
        raise DegenerateInput("forest fitting needs at least 2 samples")
    nc.require_finite(x, "forest inputs")
    nc.require_finite(y, "forest targets")
    m = cfg.features_per_split if cfg.features_per_split is not None else math.ceil(d / 3)
    if not 1 <= m <= d:
        raise DegenerateInput(f"features_per_split {m} outside [1, {d}]")

    workers = min(nc.cpu_count(), cfg.n_trees)
    cuts = [cfg.n_trees * k // workers for k in range(workers + 1)]
    parts = nc.run_parts(lambda k: _grow_forest(
        x, y, cfg, m, range(cuts[k], cuts[k + 1]), _BATCH_CELLS // workers), workers)
    trees = [tree for part, _ in parts for tree in part]
    gain_by_feature = np.vstack([gains for _, gains in parts])
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
    x = nc.as_matrix(x)
    if x.shape[1] != f.n_features:
        raise DimensionMismatch(f"expected {f.n_features} features, got {x.shape[1]}")
    nc.require_finite(x, "forest query rows")
    table = _node_table(f.trees)
    out = np.zeros(x.shape[0])
    step = max(1, _BATCH_CELLS // len(f.trees))
    for start in range(0, x.shape[0], step):
        acc = out[start:start + step]
        for leaf in _leaf_values(table, x[start:start + step]):
            acc += leaf  # in tree order, as when summing tree by tree
    return out / len(f.trees)
