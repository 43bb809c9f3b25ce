"""Command-line entry point tying the pipeline together.

Subcommands: facets, walks, train-deepwalk, train-pte, train-gcn, embed,
eval-link, eval-class, pipeline. Every run resolves its parameters as
command-line flags over config-file entries (`key=value` lines, `#`
comments) over built-in defaults, writes its outputs, and drops a
`<output>.manifest` recording every resolved parameter and the seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, facets, inference, polydeepwalk, polygcn, polypte, walks
from . import graph as graphmod
from .errors import (ParseError, PolyembedError, ValidationError, parse_numbers,
                     text_lines)
from .tables import EmbeddingTables, load_matrix, save_matrix


def parse_config_file(path) -> dict:
    out = {}
    for line_no, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path} line {line_no}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _coerce(value: str, like):
    """`value` as the type of `like`; ValueError when it does not parse."""
    if isinstance(like, bool):
        word = value.lower()
        if word not in BOOL_WORDS:
            raise ValueError(value)
        return BOOL_WORDS[word]
    if isinstance(like, (int, float)):
        return type(like)(value)
    return value


def resolve_params(args, defaults: dict) -> dict:
    """Flags beat config-file entries beat defaults; a config-file key
    that is not a parameter of the subcommand is a ValidationError."""
    config = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(config.keys() - defaults.keys())
    if unknown:
        raise ValidationError(f"{args.config}: unknown config key(s) "
                              f"{', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in config:
            try:
                resolved[key] = _coerce(config[key], default)
            except ValueError:
                raise ValidationError(
                    f"{args.config}: {key}={config[key]!r} is not a valid "
                    f"{type(default).__name__}") from None
        else:
            resolved[key] = default
    return resolved


def write_manifest(out_path, subcommand: str, params: dict) -> None:
    lines = [f"subcommand={subcommand}"]
    lines += [f"{k}={params[k]}" for k in sorted(params)]
    Path(str(out_path) + ".manifest").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")


def _load_prior_for(kind: str, path, alpha=0.05):
    if kind == "bipartite":
        return facets.load_prior(f"{path}.a", f"{path}.b", alpha=alpha)
    return facets.load_prior(path, alpha=alpha)


def _load_tables_for(mode: str, path) -> EmbeddingTables:
    if mode == "homogeneous":
        u = load_matrix(path, "N K D")
        return EmbeddingTables(u=u, h=np.zeros_like(u))
    return EmbeddingTables(u=load_matrix(f"{path}.a", "N K D"),
                           h=load_matrix(f"{path}.b", "N K D"))


def _save_test_edges(path, test_edges, g) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for a, b in test_edges:
            if isinstance(g, graphmod.BipartiteGraph):
                a_tok = g.a_labels[a] if g.a_labels else str(a)
                b_tok = g.b_labels[b] if g.b_labels else str(b)
            else:
                a_tok = g.node_labels[a] if g.node_labels else str(a)
                b_tok = g.node_labels[b] if g.node_labels else str(b)
            fh.write(f"{a_tok} {b_tok}\n")


def _load_test_edges(path, g) -> list[tuple[int, int]]:
    """Test edges `a b`, as labels or integer ids of nodes of `g`."""
    if isinstance(g, graphmod.BipartiteGraph):
        sides = ((g.a_labels, g.num_a), (g.b_labels, g.num_b))
    else:
        sides = ((g.node_labels, g.num_nodes),) * 2
    maps = [{lab: i for i, lab in enumerate(labels)} if labels else None
            for labels, _ in sides]
    out = []
    for line_no, line in text_lines(path):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        where = f"{path} line {line_no}"
        if len(fields) != 2:
            raise ParseError(f"{where}: test edges need two fields per line")
        pair = tuple(index.get(token, -1) if index is not None
                     else parse_numbers([token], int, where)[0]
                     for token, index in zip(fields, maps))
        if not all(0 <= v < limit for v, (_, limit) in zip(pair, sides)):
            raise ParseError(f"{where}: {line.strip()!r} names a node not in the graph")
        out.append(pair)
    if not out:
        raise ValidationError(f"{path}: no test edges")
    return out


def _parse_ks(text) -> tuple[int, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(int(k) for k in text)
    try:
        ks = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        ks = ()
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"bad --ks value {text!r}")
    return ks


# ---------------------------------------------------------------- subcommands

FACETS_DEFAULTS = dict(kind="homogeneous", k=5, alpha=0.05, max_iters=500,
                       tol=1e-5, seed=0)


def cmd_facets(args) -> None:
    params = resolve_params(args, FACETS_DEFAULTS)
    if params["k"] < 1:
        raise ValidationError("--k must be at least 1")
    g = graphmod.load_edge_list(args.input, kind=params["kind"])
    if params["kind"] == "homogeneous":
        result = facets.symmetric_nmf(g.adj, params["k"], alpha=params["alpha"],
                                      max_iters=params["max_iters"],
                                      tol=params["tol"], seed=params["seed"])
        dist = facets.normalize_prior(result.factors[0])
        save_matrix(args.out, dist)
        print(f"wrote {args.out} ({dist.shape[0]} nodes, {params['k']} facets, "
              f"objective {result.objective:.6g}, {result.iterations} iterations)")
    else:
        result = facets.asymmetric_nmf(g.adj, params["k"], alpha=params["alpha"],
                                       max_iters=params["max_iters"],
                                       tol=params["tol"], seed=params["seed"])
        p, q = result.factors
        save_matrix(f"{args.out}.a", facets.normalize_prior(p))
        save_matrix(f"{args.out}.b", facets.normalize_prior(q))
        print(f"wrote {args.out}.a / {args.out}.b "
              f"(objective {result.objective:.6g}, {result.iterations} iterations)")
    write_manifest(args.out, "facets", dict(params, input=args.input, out=args.out))


WALKS_DEFAULTS = dict(walks_per_node=110, walk_length=11, window=8, seed=0,
                      weighted=True)


def cmd_walks(args) -> None:
    params = resolve_params(args, WALKS_DEFAULTS)
    if getattr(args, "uniform", False):
        params["weighted"] = False
    g = graphmod.load_edge_list(args.input, kind="homogeneous")
    config = walks.WalkConfig(walks_per_node=params["walks_per_node"],
                              walk_length=params["walk_length"],
                              window=params["window"], seed=params["seed"],
                              weighted=params["weighted"])
    corpus = walks.generate_walks(g, config)
    walks.save_corpus(corpus, args.out)
    print(f"wrote {args.out} ({len(corpus)} walks)")
    write_manifest(args.out, "walks", dict(params, input=args.input, out=args.out))


DEEPWALK_DEFAULTS = dict(dim=32, negatives=10, facet_rate=1, epochs=5,
                         learning_rate=0.025, window=8, seed=0, alpha=0.05)


def cmd_train_deepwalk(args) -> None:
    params = resolve_params(args, DEEPWALK_DEFAULTS)
    g = graphmod.load_edge_list(args.input, kind="homogeneous")
    prior = facets.load_prior(args.prior, alpha=params["alpha"])
    corpus = walks.load_corpus(args.corpus)
    config = polydeepwalk.TrainConfig(
        dim=params["dim"], negatives=params["negatives"],
        facet_rate=params["facet_rate"], epochs=params["epochs"],
        learning_rate=params["learning_rate"], window=params["window"],
        seed=params["seed"])
    result = polydeepwalk.train(g, prior, corpus, config)
    save_matrix(args.out, result.tables.u)
    if args.export_context:
        save_matrix(args.export_context, result.tables.h)
    losses = ", ".join(f"{x:.4f}" for x in result.epoch_losses)
    print(f"wrote {args.out} (epoch losses: {losses})")
    write_manifest(args.out, "train-deepwalk",
                   dict(params, input=args.input, prior=args.prior,
                        corpus=args.corpus, out=args.out, engine=result.engine))


PTE_DEFAULTS = dict(dim=30, negatives=30, facet_rate=0, total_samples=0,
                    learning_rate=0.025, seed=0, facet_mode="observation",
                    weighted_edges=False, alpha=0.05)


def cmd_train_pte(args) -> None:
    params = resolve_params(args, PTE_DEFAULTS)
    g = graphmod.load_edge_list(args.input, kind="bipartite")
    prior = _load_prior_for("bipartite", args.prior, alpha=params["alpha"])
    config = polypte.PteConfig(
        dim=params["dim"], negatives=params["negatives"],
        facet_rate=params["facet_rate"] or None,
        total_samples=params["total_samples"] or None,
        learning_rate=params["learning_rate"], seed=params["seed"],
        facet_mode=params["facet_mode"],
        weighted_edges=params["weighted_edges"])
    result = polypte.train_pte(g, prior, config)
    save_matrix(f"{args.out}.a", result.tables.u)
    save_matrix(f"{args.out}.b", result.tables.h)
    print(f"wrote {args.out}.a / {args.out}.b "
          f"(final loss {result.loss_trace[-1]:.4f})")
    write_manifest(args.out, "train-pte",
                   dict(params, input=args.input, prior=args.prior, out=args.out,
                        engine=result.engine))


GCN_DEFAULTS = dict(dim=16, depth=2, iterations=400, learning_rate=0.01,
                    negatives=1, threshold=0.0, neighbor_mode="bipartite",
                    seed=0, alpha=0.05)


def cmd_train_gcn(args) -> None:
    params = resolve_params(args, GCN_DEFAULTS)
    g = graphmod.load_edge_list(args.input, kind="bipartite")
    prior = _load_prior_for("bipartite", args.prior, alpha=params["alpha"])
    fadj = polygcn.decompose_adjacency(g.adj, prior.p, prior.q)
    config = polygcn.GcnConfig(
        dim=params["dim"], depth=params["depth"],
        iterations=params["iterations"],
        learning_rate=params["learning_rate"], negatives=params["negatives"],
        threshold=params["threshold"], neighbor_mode=params["neighbor_mode"],
        seed=params["seed"])
    result = polygcn.train_gcn(g, fadj, config)
    save_matrix(f"{args.out}.a", result.tables.u)
    save_matrix(f"{args.out}.b", result.tables.h)
    if args.export_fadj:
        polygcn.save_facet_adjacency(args.export_fadj, fadj)
    print(f"wrote {args.out}.a / {args.out}.b")
    write_manifest(args.out, "train-gcn",
                   dict(params, input=args.input, prior=args.prior, out=args.out))


def cmd_embed(args) -> None:
    params = resolve_params(args, dict(weighted=True, alpha=0.05))
    if getattr(args, "plain", False):
        params["weighted"] = False
    u = load_matrix(args.emb, "N K D")
    prior = facets.load_prior(args.prior, alpha=params["alpha"])
    tables = EmbeddingTables(u=u, h=np.zeros_like(u))
    joint = inference.concat(tables, prior, weighted=params["weighted"])
    save_matrix(args.out, joint)
    print(f"wrote {args.out} ({joint.shape[0]} x {joint.shape[1]})")
    write_manifest(args.out, "embed",
                   dict(params, emb=args.emb, prior=args.prior, out=args.out))


EVAL_LINK_DEFAULTS = dict(mode="homogeneous", num_negatives=200,
                          ks="10,50,100,200", seed=0, alpha=0.05)


def cmd_eval_link(args) -> None:
    params = resolve_params(args, EVAL_LINK_DEFAULTS)
    kind = "homogeneous" if params["mode"] == "homogeneous" else "bipartite"
    g = graphmod.load_edge_list(args.graph, kind=kind)
    test_edges = _load_test_edges(args.test, g)
    prior = _load_prior_for(kind, args.prior, alpha=params["alpha"])
    tables = _load_tables_for(params["mode"] if kind == "homogeneous" else "bipartite",
                              args.emb)
    report = evaluation.link_prediction_report(
        g, test_edges, tables, prior, params["mode"],
        num_negatives=params["num_negatives"], ks=_parse_ks(params["ks"]),
        seed=params["seed"])
    evaluation.write_report(report, args.out)
    print(report.table())
    write_manifest(args.out, "eval-link",
                   dict(params, graph=args.graph, test=args.test,
                        emb=args.emb, prior=args.prior, out=args.out))


EVAL_CLASS_DEFAULTS = dict(train_fraction=0.8, seed=0, shuffle=True)


def cmd_eval_class(args) -> None:
    params = resolve_params(args, EVAL_CLASS_DEFAULTS)
    if getattr(args, "no_shuffle", False):
        params["shuffle"] = False
    features = load_matrix(args.features, "N KD")
    labels, classes = evaluation.load_labels(args.labels, features.shape[0])
    micro, macro = evaluation.classify(features, labels,
                                       train_fraction=params["train_fraction"],
                                       seed=params["seed"],
                                       shuffle=params["shuffle"])
    report = evaluation.EvalReport(micro_f1=micro, macro_f1=macro,
                                   metadata={"num_classes": len(classes),
                                             "seed": params["seed"]})
    evaluation.write_report(report, args.out)
    print(report.table())
    write_manifest(args.out, "eval-class",
                   dict(params, features=args.features, labels=args.labels,
                        out=args.out))


PIPELINE_DEFAULTS = dict(kind="homogeneous", model="deepwalk", k=5, dim=32,
                         alpha=0.05, max_iters=500, tol=1e-5,
                         walks_per_node=110, walk_length=11, window=8,
                         negatives=10, facet_rate=0, epochs=5,
                         total_samples=0, learning_rate=0.0, iterations=400,
                         depth=2, num_negatives=200, ks="10,50,100,200",
                         seed=0, split="")


def cmd_pipeline(args) -> None:
    params = resolve_params(args, PIPELINE_DEFAULTS)
    kind, model = params["kind"], params["model"]
    if model in ("pte", "gcn") and kind != "bipartite":
        raise ValidationError(f"model {model!r} needs --kind bipartite")
    if model == "deepwalk" and kind != "homogeneous":
        raise ValidationError("model 'deepwalk' needs --kind homogeneous")
    prefix = str(args.workdir)
    seed = params["seed"]
    g = graphmod.load_edge_list(args.input, kind=kind)

    split = params["split"] or ("one-per-node" if kind == "homogeneous"
                                else "latest-per-user")
    train_g, test_edges = evaluation.split_links(g, split, seed=seed)
    graphmod.save_edge_list(train_g, f"{prefix}.train.edges")
    _save_test_edges(f"{prefix}.test.edges", test_edges, g)

    if kind == "homogeneous":
        nmf = facets.symmetric_nmf(train_g.adj, params["k"], alpha=params["alpha"],
                                   max_iters=params["max_iters"],
                                   tol=params["tol"], seed=seed)
        prior = facets.FacetPrior.from_factor(nmf.factors[0], alpha=params["alpha"])
        save_matrix(f"{prefix}.prior", prior.dist)
    else:
        nmf = facets.asymmetric_nmf(train_g.adj, params["k"], alpha=params["alpha"],
                                    max_iters=params["max_iters"],
                                    tol=params["tol"], seed=seed)
        prior = facets.FacetPrior.from_factors(*nmf.factors, alpha=params["alpha"])
        save_matrix(f"{prefix}.prior.a", prior.dist)
        save_matrix(f"{prefix}.prior.b", prior.dist_b)

    if model == "deepwalk":
        wconfig = walks.WalkConfig(walks_per_node=params["walks_per_node"],
                                   walk_length=params["walk_length"],
                                   window=params["window"], seed=seed)
        corpus = walks.generate_walks(train_g, wconfig)
        walks.save_corpus(corpus, f"{prefix}.walks")
        config = polydeepwalk.TrainConfig(
            dim=params["dim"], negatives=params["negatives"],
            facet_rate=params["facet_rate"] or 1, epochs=params["epochs"],
            learning_rate=params["learning_rate"] or 0.025,
            window=params["window"], seed=seed)
        result = polydeepwalk.train(train_g, prior, corpus, config)
        tables, engine = result.tables, {"engine": result.engine}
        save_matrix(f"{prefix}.emb", tables.u)
        mode = "homogeneous"
    elif model == "pte":
        config = polypte.PteConfig(
            dim=params["dim"], negatives=params["negatives"],
            facet_rate=params["facet_rate"] or None,
            total_samples=params["total_samples"] or None,
            learning_rate=params["learning_rate"] or 0.025, seed=seed)
        result = polypte.train_pte(train_g, prior, config)
        tables, engine = result.tables, {"engine": result.engine}
        save_matrix(f"{prefix}.emb.a", tables.u)
        save_matrix(f"{prefix}.emb.b", tables.h)
        mode = "cross"
    else:
        fadj = polygcn.decompose_adjacency(train_g.adj, prior.p, prior.q)
        config = polygcn.GcnConfig(
            dim=params["dim"], depth=params["depth"],
            iterations=params["iterations"],
            learning_rate=params["learning_rate"] or 0.01,
            negatives=1, seed=seed)
        tables, engine = polygcn.train_gcn(train_g, fadj, config).tables, {}
        save_matrix(f"{prefix}.emb.a", tables.u)
        save_matrix(f"{prefix}.emb.b", tables.h)
        mode = "cross-diagonal"

    report = evaluation.link_prediction_report(
        train_g, test_edges, tables, prior, mode,
        num_negatives=params["num_negatives"], ks=_parse_ks(params["ks"]),
        seed=seed)

    if args.labels and kind == "homogeneous":
        joint = inference.concat(tables, prior, weighted=True)
        save_matrix(f"{prefix}.joint", joint)
        y, classes = evaluation.load_labels(args.labels, train_g.num_nodes)
        micro, macro = evaluation.classify(joint, y, seed=seed, shuffle=True)
        report.micro_f1, report.macro_f1 = micro, macro
        report.metadata["num_classes"] = len(classes)

    evaluation.write_report(report, f"{prefix}.report")
    print(report.table())
    print(f"wrote {prefix}.report")
    write_manifest(f"{prefix}.report", "pipeline",
                   dict(params, input=args.input, workdir=prefix,
                        labels=args.labels or "", **engine))


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyembed",
        description="Multi-facet node embeddings: facet estimation, training, "
                    "inference export and evaluation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("facets", help="estimate node-facet priors via NMF")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["homogeneous", "bipartite"])
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("walks", help="generate a random-walk corpus")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--walks-per-node", dest="walks_per_node", type=int)
    p.add_argument("--walk-length", dest="walk_length", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--uniform", action="store_true",
                   help="ignore edge weights when stepping")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("train-deepwalk", help="train walk-based facet embeddings")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--facet-rate", dest="facet_rate", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--export-context", dest="export_context",
                   help="also write the context table H to this path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_deepwalk)

    p = sub.add_parser("train-pte", help="train edge-sampling facet embeddings")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--prior", required=True,
                   help="prior stem; reads <stem>.a and <stem>.b")
    p.add_argument("--dim", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--facet-rate", dest="facet_rate", type=int)
    p.add_argument("--total-samples", dest="total_samples", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--facet-mode", dest="facet_mode",
                   choices=["observation", "min"])
    p.add_argument("--weighted-edges", dest="weighted_edges",
                   action="store_const", const=True)
    p.add_argument("--out", required=True,
                   help="output stem; writes <stem>.a and <stem>.b")
    p.set_defaults(func=cmd_train_pte)

    p = sub.add_parser("train-gcn", help="train per-facet GCN encoders")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--neighbor-mode", dest="neighbor_mode",
                   choices=["bipartite", "co"])
    p.add_argument("--export-fadj", dest="export_fadj",
                   help="write the facet adjacency as `k i j value` triples")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_gcn)

    p = sub.add_parser("embed", help="export joint (concatenated) embeddings")
    add_common(p)
    p.add_argument("--emb", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--plain", action="store_true",
                   help="concatenate without prior weighting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-link", help="held-out link prediction metrics")
    add_common(p)
    p.add_argument("--graph", required=True, help="training graph")
    p.add_argument("--test", required=True, help="held-out edge list")
    p.add_argument("--emb", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--mode", choices=["homogeneous", "cross", "cross-diagonal"])
    p.add_argument("--num-negatives", dest="num_negatives", type=int)
    p.add_argument("--ks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_link)

    p = sub.add_parser("eval-class", help="classification on joint embeddings")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--no-shuffle", dest="no_shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_class)

    p = sub.add_parser("pipeline",
                       help="split, estimate facets, train and evaluate")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["homogeneous", "bipartite"])
    p.add_argument("--model", choices=["deepwalk", "pte", "gcn"])
    p.add_argument("--k", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--split", choices=["one-per-node", "latest-per-user"])
    p.add_argument("--walks-per-node", dest="walks_per_node", type=int)
    p.add_argument("--walk-length", dest="walk_length", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--facet-rate", dest="facet_rate", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--total-samples", dest="total_samples", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--num-negatives", dest="num_negatives", type=int)
    p.add_argument("--ks")
    p.add_argument("--labels")
    p.add_argument("--workdir", required=True,
                   help="output prefix for all pipeline artifacts")
    p.set_defaults(func=cmd_pipeline)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except PolyembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
