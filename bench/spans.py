"""In-memory spans and counters around the public functions of each layer.

`Tracer.instrument()` swaps wrappers into the mvelma modules for the length
of a `with` block and puts the originals back afterwards. A wrapper records a
span (name, start, end, parent) and the counters of its layer; nothing inside
the program is changed. Functions that a module imports by name, such as
`pipeline.fit_forest`, are wrapped where the caller looks them up.

Spans stay in memory until `document()` turns them into one JSON document.
A layer's self time is the time its spans cover minus the part their direct
child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers whose self time is reported; optim is only counted (Adam steps).
LAYERS = ("encoder", "gp", "numcore", "forest", "dataio", "pipeline", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    # -- summaries ----------------------------------------------------------

    def span_totals(self):
        """Total duration and number of spans per span name."""
        total, calls = defaultdict(float), defaultdict(int)
        for name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return total, calls

    def self_times(self):
        """Self time per layer: span durations minus direct-child durations.

        The layer is the span name up to its first dot."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return out

    def document(self, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "meta": meta,
            "spans": [
                {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)
            ],
            "counters": dict(self.counts),
            "self_s": dict(self.self_times()),
        }

    # -- instrumentation ----------------------------------------------------

    @contextmanager
    def instrument(self):
        from mvelma import dataio, encoder, forest, gp, numcore, optim, pipeline

        patches = []  # (owner, attribute, original, replacement)

        def wrap(owner, attr, name, after=None):
            """A span around owner.attr, named `name` or name(args, kwargs);
            after(result, args) updates the layer's counters."""
            fn = getattr(owner, attr)

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                with self.span(name(args, kwargs) if callable(name) else name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args)
                return out

            patches.append((owner, attr, fn, timed))

        # encoder: forward, and the reverse callback it hands to numcore.custom
        wrap(encoder, "forward", "encoder.forward",
             lambda out, args: self.count("encoder.forward.rows", len(args[1])))
        custom = numcore.custom

        def timed_custom(tape, value, parents, vjp):
            def timed_vjp(g):
                with self.span("encoder.backward"):
                    return vjp(g)

            return custom(tape, value, parents, timed_vjp)

        patches.append((numcore, "custom", custom, timed_custom))

        wrap(gp, "nmll_node", "gp.nmll_node")
        wrap(gp, "fit", "gp.fit")
        wrap(gp, "posterior", "gp.posterior",
             lambda out, args: self.count("gp.posterior.rows", len(out.mean)))
        wrap(gp.GPState, "refresh", "gp.refresh")

        wrap(numcore, "backward", "numcore.backward",
             lambda out, args: self.count("numcore.tape_nodes", len(args[0].nodes)))
        wrap(numcore, "cholesky", "numcore.cholesky",
             lambda out, args: self.count("numcore.cholesky.jittered", int(out.jitter > 0.0)))
        wrap(numcore, "solve_spd", "numcore.solve_spd")

        def fitted(out, args):
            self.count("forest.fit.trees", len(out.trees))
            self.count("forest.fit.nodes", sum(len(t.feature) for t in out.trees))

        def predicted(out, args):
            self.count("forest.predict.tree_rows", len(args[0].trees) * len(out))

        for owner in (forest, pipeline):  # pipeline imports both by name
            wrap(owner, "fit_forest", "forest.fit", fitted)
            wrap(owner, "predict_forest", "forest.predict", predicted)

        wrap(dataio, "load_dataset", "dataio.load_dataset",
             lambda out, args: self.count("dataio.load_dataset.rows", out[0].n))
        wrap(dataio, "synth_generate", "dataio.synth_generate")
        wrap(dataio, "write_dataset", "dataio.write_dataset")

        def variant(args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            return f"pipeline.train_joint.{cfg.ablation if cfg else 'full'}"

        wrap(pipeline, "train_joint", variant)
        wrap(pipeline, "predict", "pipeline.predict")
        wrap(pipeline, "save_model", "pipeline.save_model")
        wrap(pipeline, "load_model", "pipeline.load_model")

        # optim: a step count only; a span per Adam step would cost more than it tells
        step = optim.Adam.step

        def counted_step(adam, params, grad):
            self.count("optim.adam.steps")
            return step(adam, params, grad)

        patches.append((optim.Adam, "step", step, counted_step))

        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
