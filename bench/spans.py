"""Outside-in tracing: spans around calls into the package's public functions.

`install` replaces module attributes with timing wrappers, at the names the
code actually calls (a function bound by name into another module is
wrapped at that binding too). Each call records one span: name, start,
end and parent, kept in flat arrays and summarised when the run ends. A
layer's self time is its spans' durations minus the time their child spans
cover, so the self times of all layers add up to the root span.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

# Defined in polydeepwalk, called by both SGD trainers: its spans belong to
# the layer of the trainer that called it.
SHARED = frozenset({"polydeepwalk.NegativeSampler.sample_batch"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a span-recording wrapper. A missing
        attribute is skipped, so a renamed function reads as 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: total and self seconds and calls; per layer: self
        seconds. A span's layer is its name's first component, except for
        SHARED names, whose spans take their parent's layer."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        layers = sorted({nm.split(".")[0] for nm in self.names})
        span_layer = np.array([layers.index(nm.split(".")[0]) for nm in self.names])[names]
        shared = {}
        for nm in SHARED & set(self.names):
            mine = (names == self.name_id[nm]) & nested
            span_layer[mine] = span_layer[parent[mine]]
            for lid in np.unique(span_layer[mine]):
                shared[f"{layers[lid]}:{nm}"] = float(dur[mine & (span_layer == lid)].sum())
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        calls = np.bincount(names, minlength=k)
        per_layer = np.bincount(span_layer, weights=own, minlength=len(layers))
        return {
            "spans": len(dur),
            "names": {nm: {"total_s": float(total[i]), "self_s": float(self_s[i]),
                           "calls": int(calls[i])}
                      for i, nm in enumerate(self.names)},
            "layers": {lay: float(per_layer[i]) for i, lay in enumerate(layers)},
            "shared": shared,
            "counters": dict(self.counters),
        }

    def save(self, path) -> None:
        """Write the raw spans (name table, start, end, parent)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _nmf_iterations(tracer, args, kwargs, result):
    tracer.count("nmf_iterations", result.iterations)


def _dense_bytes(tracer, args, kwargs, result):
    tracer.count("dense_bytes", result.nbytes)


def _pool(tracer, args, kwargs, result):
    requested = args[2] if len(args) > 2 else kwargs.get("num_negatives", 200)
    tracer.count("candidate_queries", 1)
    tracer.count("pool_short", float(len(result) - 1 < requested))


def _saved_bytes(tracer, args, kwargs, result):
    tracer.count("table_bytes", os.path.getsize(args[0]))


def _walk_count(tracer, args, kwargs, result):
    tracer.count("walks", len(result))


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries. Per-step functions are wrapped
    only where the trainers' sampling and gradient split is wanted; the
    facet samplers would cost more to wrap than they take."""
    from polyembed import (cli, evaluation, facets, inference, polydeepwalk,
                           polygcn, polypte, tables, walks)
    from polyembed import graph as graphmod

    w = tracer.wrap
    w(cli, "run", "cli.run")
    w(graphmod, "load_edge_list", "graph.load_edge_list")
    w(graphmod, "save_edge_list", "graph.save_edge_list")
    w(graphmod, "adjacency_dense", "graph.adjacency_dense", _dense_bytes)
    w(graphmod, "from_edges", "graph.from_edges")
    w(facets, "symmetric_nmf", "facets.symmetric_nmf", _nmf_iterations)
    w(facets, "asymmetric_nmf", "facets.asymmetric_nmf", _nmf_iterations)
    w(facets, "save_prior_file", "facets.save_prior_file")
    w(walks, "generate_walks", "walks.generate_walks", _walk_count)
    w(walks, "save_corpus", "walks.save_corpus")
    w(polydeepwalk, "train", "polydeepwalk.train")
    w(polydeepwalk, "sgns_loss_and_grads", "polydeepwalk.sgns_loss_and_grads")
    w(polydeepwalk.NegativeSampler, "sample_batch",
      "polydeepwalk.NegativeSampler.sample_batch")
    w(polypte, "train_pte", "polypte.train_pte")
    w(polypte, "sgns_loss_and_grads", "polypte.sgns_loss_and_grads")
    w(polygcn, "decompose_adjacency", "polygcn.decompose_adjacency")
    w(polygcn, "train_gcn", "polygcn.train_gcn")
    w(polygcn, "init_gcn_model", "polygcn.init_gcn_model")
    w(polygcn, "gcn_loss_and_grads", "polygcn.gcn_loss_and_grads")
    w(polygcn, "forward_facet", "polygcn.forward_facet")
    w(polygcn, "backward_facet", "polygcn.backward_facet")
    w(evaluation, "split_links", "evaluation.split_links")
    w(evaluation, "link_prediction_report", "evaluation.link_prediction_report")
    w(evaluation, "candidate_protocol", "evaluation.candidate_protocol", _pool)
    w(evaluation, "load_labels", "evaluation.load_labels")
    w(evaluation, "classify", "evaluation.classify")
    w(evaluation, "write_report", "evaluation.write_report")
    w(inference, "rank_candidates", "inference.rank_candidates")
    w(inference, "score_candidates", "inference.score_candidates")
    w(inference, "concat", "inference.concat")
    w(inference, "save_joint", "inference.save_joint")
    w(tables, "save_embeddings", "tables.save_embeddings", _saved_bytes)
    w(cli, "save_embeddings", "tables.save_embeddings", _saved_bytes)
