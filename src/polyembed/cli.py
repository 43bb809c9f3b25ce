"""Command-line entry point tying the pipeline together.

Subcommands: facets, walks, train-deepwalk, train-pte, train-gcn, embed,
eval-link, eval-class, pipeline. Every run resolves its parameters as
command-line flags over config-file entries (`key=value` lines, `#`
comments) over defaults, writes its outputs, and drops a
`<output>.manifest` recording every resolved parameter and the seed.

Each parameter is declared once, in PARAMS; COMMANDS lists the parameters
each subcommand takes. The flags, the config keys and their types, the
manifest and the trainer configs are all built from these two tables, and
a default that a config dataclass owns is read from that dataclass. A run
accepts only the settings it reads: a parameter with no default for the
run (such as `epochs` for `pipeline --model gcn`) is an error when given
and is left out of the manifest otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
# every command draws random numbers; numpy loads numpy.random on first use,
# which would put its import (about 13 ms) inside the first command's run
import numpy.random  # noqa: F401

from . import evaluation, facets, inference, polydeepwalk, polygcn, polypte, walks
from . import graph as graphmod
from .errors import PolyembedError, ValidationError, check_settings, text_lines
from .tables import EmbeddingTables, load_matrix, save_matrix


@dataclass(frozen=True)
class Param:
    """One parameter; its config key is `dest`, else its name. A default of
    None means: from the subcommand's config dataclasses, else not read. A
    switch (`const` set) is a flag without a value that stores `const`."""

    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    const: object = None
    dest: str | None = None


SPLITS = {"homogeneous": "one-per-node", "bipartite": "latest-per-user"}

PARAMS = {
    "kind": Param(str, "homogeneous", choices=tuple(SPLITS)),
    "model": Param(str, "deepwalk", choices=("deepwalk", "pte", "gcn")),
    "k": Param(int, 5, "number of facets K"),
    "alpha": Param(float, 0.05, "NMF penalty"),
    "max_iters": Param(int, 500, "NMF iteration limit"),
    "tol": Param(float, 1e-5, "NMF relative tolerance"),
    "split": Param(str, help="held-out link split; default: by --kind",
                   choices=tuple(SPLITS.values())),
    "walks_per_node": Param(int),
    "walk_length": Param(int),
    "window": Param(int),
    "uniform": Param(bool, help="ignore edge weights when stepping",
                     const=False, dest="weighted"),
    "dim": Param(int, help="dimensions per facet"),
    "negatives": Param(int, help="negative samples per positive"),
    "facet_rate": Param(int, help="facet draws per observation"),
    "epochs": Param(int),
    "total_samples": Param(int, help="edge samples; default: 100 per edge"),
    "learning_rate": Param(float),
    "facet_mode": Param(str, choices=("observation", "min")),
    "weighted_edges": Param(bool, help="sample edges by weight", const=True),
    "depth": Param(int, help="GCN layers"),
    "iterations": Param(int, help="GCN training iterations"),
    "threshold": Param(float, help="facet adjacency threshold"),
    "neighbor_mode": Param(str, choices=("bipartite", "co")),
    "plain": Param(bool, True, "concatenate without prior weighting",
                   const=False, dest="weighted"),
    "mode": Param(str, "homogeneous",
                  choices=("homogeneous", "cross", "cross-diagonal")),
    "num_negatives": Param(int, 200, "sampled non-neighbours per query"),
    "ks": Param(str, "10,50,100,200", "comma-separated HR@k cut-offs"),
    "train_fraction": Param(float, 0.8),
    "no_shuffle": Param(bool, True, "keep the rows in file order",
                        const=False, dest="shuffle"),
    "seed": Param(int, 0),
}

PATHS = {
    "input": "edge list",
    "graph": "training graph",
    "test": "held-out edge list",
    "prior": "prior file, or the stem of <stem>.a and <stem>.b",
    "corpus": "walk corpus",
    "emb": "embedding file, or the stem of <stem>.a and <stem>.b",
    "features": "joint embedding",
    "labels": "node labels",
    "export_context": "also write the context table H to this path",
    "export_fadj": "write the facet adjacency as `k i j value` triples",
    "out": "output file, or the stem of <stem>.a and <stem>.b",
    "workdir": "output prefix for all pipeline artifacts",
}

BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _field_defaults(*sources) -> dict:
    """Field name -> default of the first source that has it. A source is a
    config dataclass, or a (dataclass, "names") pair taking only those."""
    out = {}
    for source in reversed(sources):
        cls, names = source if isinstance(source, tuple) else (source, None)
        out.update((f.name, f.default) for f in fields(cls)
                   if f.default is not MISSING
                   and (names is None or f.name in names.split()))
    return out


def _config(cls, params: dict):
    """A `cls` config from the parameters named like its fields."""
    return cls(**{f.name: params[f.name] for f in fields(cls) if f.name in params})


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


def _coerce(path, key: str, text: str, param: Param):
    """Config value `text` as the parameter's type, or a ValidationError."""
    try:
        value = BOOL_WORDS[text.lower()] if param.type is bool else param.type(text)
        if param.choices is None or value in param.choices:
            return value
    except (KeyError, ValueError):
        pass
    expected = (f"one of {', '.join(param.choices)}" if param.choices
                else f"a valid {param.type.__name__}")
    raise ValidationError(f"{path}: {key}={text!r} is not {expected}")


def resolve_params(args) -> dict:
    """Flags beat config-file entries beat defaults; a config-file key
    that is not a parameter of the subcommand is a ValidationError. A
    parameter with a default neither in PARAMS nor from the command's
    configs is one the run does not read: a ValidationError when given,
    else left out."""
    cmd = COMMANDS[args.subcommand]
    keys = {PARAMS[name].dest or name: PARAMS[name] for name in cmd.params.split()}
    config = parse_config_file(args.config) if args.config else {}
    unknown = sorted(config.keys() - keys.keys())
    if unknown:
        raise ValidationError(f"{args.config}: unknown config key(s) "
                              f"{', '.join(unknown)}")
    params = {}
    for key, param in keys.items():
        params[key] = getattr(args, key, None)
        if params[key] is None and key in config:
            params[key] = _coerce(args.config, key, config[key], param)
        if params[key] is None:
            params[key] = param.default
    defaults = (cmd.configs(params) if callable(cmd.configs)
                else _field_defaults(*cmd.configs))
    unread = {key for key, param in keys.items()
              if param.default is None and key not in defaults}
    given = sorted(key for key in unread if params[key] is not None)
    if given:
        raise ValidationError(f"this run does not read {', '.join(given)}")
    if params.get("seed", 0) < 0:
        raise ValidationError(f"--seed must be non-negative, got {params['seed']}")
    return {key: defaults.get(key) if value is None else value
            for key, value in params.items() if key not in unread}


def write_manifest(out_path, args, params: dict, **extra) -> None:
    """Every resolved parameter, the input and output paths (not the
    optional `export_*` side outputs) and `extra`, one `key=value` a line."""
    record = dict(params, **extra)
    for name, _ in COMMANDS[args.subcommand].path_flags():
        if not name.startswith("export_"):
            record[name] = getattr(args, name) or ""
    lines = [f"subcommand={args.subcommand}"]
    lines += [f"{k}={record[k]}" for k in sorted(record)]
    Path(str(out_path) + ".manifest").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")


def _estimate_prior(kind: str, adj, params: dict):
    """(FacetPrior, NmfResult) of a symmetric or asymmetric NMF of `adj`."""
    homogeneous = kind == "homogeneous"
    nmf = facets.symmetric_nmf if homogeneous else facets.asymmetric_nmf
    result = nmf(adj, params["k"], alpha=params["alpha"],
                 max_iters=params["max_iters"], tol=params["tol"],
                 seed=params["seed"])
    build = (facets.FacetPrior.from_factor if homogeneous
             else facets.FacetPrior.from_factors)
    return build(*result.factors), result


def _files(kind: str, path) -> list[str]:
    """An artifact's files: `path` alone for a homogeneous graph, else
    <path>.a for the type-A side and <path>.b for the type-B side."""
    return [str(path)] if kind == "homogeneous" else [f"{path}.a", f"{path}.b"]


def _save(kind: str, path, *arrays) -> None:
    """Each array into its file of `_files`: a homogeneous graph keeps the
    first alone."""
    for file, array in zip(_files(kind, path), arrays):
        save_matrix(file, array)


def _load_test_edges(path, g) -> list[tuple[int, int]]:
    """Test edges `a b`, as labels or integer ids of nodes of `g`."""
    out = graphmod.read_node_lines(path, graphmod.sides(g))
    if not out:
        raise ValidationError(f"{path}: no test edges")
    return out


def _link_ks(params) -> tuple[int, ...]:
    """The link report's HR@k cut-offs, parsed from `ks` once
    `num_negatives` is checked: before anything is loaded or trained."""
    check_settings(params, "num_negatives")
    text = params["ks"]
    try:
        ks = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        ks = ()
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"bad --ks value {text!r}")
    return ks


# ---------------------------------------------------------------- subcommands

def cmd_facets(args, params) -> None:
    g = graphmod.load_edge_list(args.input, kind=params["kind"])
    prior, result = _estimate_prior(params["kind"], g.adj, params)
    _save(params["kind"], args.out, prior.dist, prior.dist_b)
    print(f"wrote {args.out} ({params['kind']} prior, {params['k']} facets, "
          f"objective {result.objective:.6g}, {result.iterations} iterations)")
    write_manifest(args.out, args, params)


def cmd_walks(args, params) -> None:
    g = graphmod.load_edge_list(args.input, kind="homogeneous")
    corpus = walks.generate_walks(g, _config(walks.WalkConfig, params))
    walks.save_corpus(corpus, args.out)
    print(f"wrote {args.out} ({len(corpus)} walks)")
    write_manifest(args.out, args, params)


def cmd_train_deepwalk(args, params) -> None:
    g = graphmod.load_edge_list(args.input, kind="homogeneous")
    prior = facets.load_prior(args.prior)
    corpus = walks.load_corpus(args.corpus)
    result = polydeepwalk.train(g, prior, corpus,
                                _config(polydeepwalk.TrainConfig, params))
    save_matrix(args.out, result.tables.u)
    if args.export_context:
        save_matrix(args.export_context, result.tables.h)
    losses = ", ".join(f"{x:.4f}" for x in result.epoch_losses)
    print(f"wrote {args.out} (epoch losses: {losses})")
    write_manifest(args.out, args, params, **_sgd_record(result))


def cmd_train_pte(args, params) -> None:
    g = graphmod.load_edge_list(args.input, kind="bipartite")
    if params["weighted_edges"] and g.num_edges and not g.weights.any():
        raise ValidationError(f"{args.input}: every edge weighs 0, so "
                              "--weighted-edges has no edge to draw")
    prior = facets.load_prior(*_files("bipartite", args.prior))
    result = polypte.train_pte(g, prior, _config(polypte.PteConfig, params))
    _save("bipartite", args.out, result.tables.u, result.tables.h)
    print(f"wrote {args.out}.a / {args.out}.b "
          f"(final loss {result.loss_trace[-1]:.4f})")
    write_manifest(args.out, args, params, **_sgd_record(result))


def cmd_train_gcn(args, params) -> None:
    g = graphmod.load_edge_list(args.input, kind="bipartite")
    prior = facets.load_prior(*_files("bipartite", args.prior))
    fadj = polygcn.decompose_adjacency(g.adj, prior.p, prior.q)
    result = polygcn.train_gcn(g, fadj, _config(polygcn.GcnConfig, params))
    _save("bipartite", args.out, result.tables.u, result.tables.h)
    if args.export_fadj:
        polygcn.save_facet_adjacency(args.export_fadj, fadj)
    print(f"wrote {args.out}.a / {args.out}.b")
    write_manifest(args.out, args, params, **_gcn_record(result))


def _sgd_record(result) -> dict:
    """The manifest lines of a PolyDeepWalk or PolyPTE run: the engine and
    how often each facet was activated."""
    return {"engine": result.engine,
            "train.facet_counts": ",".join(map(str, result.facet_counts))}


def _gcn_record(result) -> dict:
    """The manifest lines of a PolyGCN run: each facet's final loss (empty
    for a facet with no edges) and how many processes trained the facets."""
    return {"train.final_loss": ",".join(repr(trace[-1]) if trace else ""
                                         for trace in result.loss_traces),
            "train.processes": result.processes}


def cmd_embed(args, params) -> None:
    prior = facets.load_prior(args.prior)
    u = load_matrix(args.emb, "N K D")
    joint = inference.concat(EmbeddingTables(u=u, h=np.zeros_like(u)), prior,
                             weighted=params["weighted"])
    save_matrix(args.out, joint)
    print(f"wrote {args.out} ({joint.shape[0]} x {joint.shape[1]})")
    write_manifest(args.out, args, params)


def cmd_eval_link(args, params) -> None:
    ks = _link_ks(params)
    kind = "homogeneous" if params["mode"] == "homogeneous" else "bipartite"
    g = graphmod.load_edge_list(args.graph, kind=kind)
    test_edges = _load_test_edges(args.test, g)
    prior = facets.load_prior(*_files(kind, args.prior))
    u, *h = (load_matrix(file, "N K D") for file in _files(kind, args.emb))
    tables = EmbeddingTables(u=u, h=h[0] if h else np.zeros_like(u))
    report = evaluation.link_prediction_report(
        g, test_edges, tables, prior, params["mode"],
        num_negatives=params["num_negatives"], ks=ks, seed=params["seed"])
    evaluation.write_report(report, args.out)
    print(report.table())
    write_manifest(args.out, args, params, **report.run)


def cmd_eval_class(args, params) -> None:
    features = load_matrix(args.features, "N KD")
    labels, classes = evaluation.load_labels(args.labels, features.shape[0])
    micro, macro = evaluation.classify(features, labels, **params)
    report = evaluation.EvalReport(micro_f1=micro, macro_f1=macro,
                                   metadata={"num_classes": len(classes),
                                             "seed": params["seed"]})
    evaluation.write_report(report, args.out)
    print(report.table())
    write_manifest(args.out, args, params)


def _pipeline_defaults(params: dict) -> dict:
    """The defaults `pipeline` has always run with, kept so that its outputs
    stay the same: TrainConfig's dim for every model and its negatives for
    both table trainers (PteConfig alone would give pte 30 and 30), the
    rest from the model's own configs, and the split the kind supports.
    A parameter of another model has no default here, so it is not read."""
    model = {"deepwalk": (polydeepwalk.TrainConfig, walks.WalkConfig),
             "pte": ((polydeepwalk.TrainConfig, "dim negatives"), polypte.PteConfig),
             "gcn": ((polydeepwalk.TrainConfig, "dim"), polygcn.GcnConfig)}
    return dict(_field_defaults(*model[params["model"]]),
                split=SPLITS[params["kind"]])


def cmd_pipeline(args, params) -> None:
    kind, model = params["kind"], params["model"]
    if model in ("pte", "gcn") and kind != "bipartite":
        raise ValidationError(f"model {model!r} needs --kind bipartite")
    if model == "deepwalk" and kind != "homogeneous":
        raise ValidationError("model 'deepwalk' needs --kind homogeneous")
    if args.labels and kind != "homogeneous":
        raise ValidationError("--labels needs --kind homogeneous")
    # every setting is checked before anything is loaded or written
    ks = _link_ks(params)
    config = _config({"deepwalk": polydeepwalk.TrainConfig, "pte": polypte.PteConfig,
                      "gcn": polygcn.GcnConfig}[model], params)
    if model == "deepwalk":
        walk_config = _config(walks.WalkConfig, params)
    prefix = args.workdir
    g = graphmod.load_edge_list(args.input, kind=kind)
    if args.labels:
        (names, num_nodes), _ = graphmod.sides(g)
        y, classes = evaluation.load_labels(args.labels, num_nodes, names)

    train_g, test_edges = evaluation.split_links(g, params["split"],
                                                 seed=params["seed"])
    # before any file is written: the NMF rejects a bad --k or NMF setting
    prior, _ = _estimate_prior(kind, train_g.adj, params)
    graphmod.save_edge_list(train_g, f"{prefix}.train.edges")
    graphmod.write_pairs(f"{prefix}.test.edges", test_edges, graphmod.sides(g))
    _save(kind, f"{prefix}.prior", prior.dist, prior.dist_b)

    if model == "deepwalk":
        corpus = walks.generate_walks(train_g, walk_config)
        walks.save_corpus(corpus, f"{prefix}.walks")
        result = polydeepwalk.train(train_g, prior, corpus, config)
    elif model == "pte":
        result = polypte.train_pte(train_g, prior, config)
    else:
        fadj = polygcn.decompose_adjacency(train_g.adj, prior.p, prior.q)
        result = polygcn.train_gcn(train_g, fadj, config)
    tables = result.tables
    _save(kind, f"{prefix}.emb", tables.u, tables.h)
    record = (_gcn_record if model == "gcn" else _sgd_record)(result)
    mode = {"deepwalk": "homogeneous", "pte": "cross", "gcn": "cross-diagonal"}[model]

    report = evaluation.link_prediction_report(
        train_g, test_edges, tables, prior, mode,
        num_negatives=params["num_negatives"], ks=ks, seed=params["seed"])

    if args.labels:
        joint = inference.concat(tables, prior, weighted=True)
        save_matrix(f"{prefix}.joint", joint)
        micro, macro = evaluation.classify(joint, y, seed=params["seed"],
                                           shuffle=True)
        report.micro_f1, report.macro_f1 = micro, macro
        report.metadata["num_classes"] = len(classes)

    evaluation.write_report(report, f"{prefix}.report")
    print(report.table())
    print(f"wrote {prefix}.report")
    write_manifest(f"{prefix}.report", args, params, **record, **report.run)


# ------------------------------------------------------------------- parser

@dataclass(frozen=True)
class Command:
    """A subcommand: its path flags (`[name]` optional), the parameters it
    takes as flags and as config keys, and the config dataclasses its
    defaults come from (or a function of the parameters resolved so far
    that gives the defaults). A parameter without a default in PARAMS or
    from `configs` is not read by the run, which then rejects it."""

    func: Callable
    help: str
    paths: str
    params: str
    configs: tuple | Callable = ()

    def path_flags(self) -> list[tuple[str, bool]]:
        """(name, required) of each path flag."""
        return [(p.strip("[]"), not p.startswith("[")) for p in self.paths.split()]


COMMANDS = {
    "facets": Command(cmd_facets, "estimate node-facet priors via NMF",
                      "input out", "kind k alpha max_iters tol seed"),
    "walks": Command(cmd_walks, "generate a random-walk corpus", "input out",
                     "walks_per_node walk_length uniform seed", (walks.WalkConfig,)),
    "train-deepwalk": Command(
        cmd_train_deepwalk, "train walk-based facet embeddings",
        "input prior corpus [export_context] out",
        "dim negatives facet_rate epochs learning_rate window seed",
        (polydeepwalk.TrainConfig,)),
    "train-pte": Command(
        cmd_train_pte, "train edge-sampling facet embeddings", "input prior out",
        "dim negatives facet_rate total_samples learning_rate facet_mode "
        "weighted_edges seed", (polypte.PteConfig,)),
    "train-gcn": Command(
        cmd_train_gcn, "train per-facet GCN encoders",
        "input prior [export_fadj] out",
        "dim depth iterations learning_rate negatives threshold neighbor_mode "
        "seed", (polygcn.GcnConfig,)),
    "embed": Command(cmd_embed, "export joint (concatenated) embeddings",
                     "emb prior out", "plain"),
    "eval-link": Command(cmd_eval_link, "held-out link prediction metrics",
                         "graph test emb prior out", "mode num_negatives ks seed"),
    "eval-class": Command(cmd_eval_class, "classification on joint embeddings",
                          "features labels out", "train_fraction no_shuffle seed"),
    "pipeline": Command(
        cmd_pipeline, "split, estimate facets, train and evaluate",
        "input [labels] workdir",
        "kind model k dim alpha max_iters tol split walks_per_node walk_length "
        "window negatives facet_rate epochs total_samples learning_rate "
        "iterations depth num_negatives ks seed", _pipeline_defaults),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv`. Every subcommand is registered, but when
    `argv` names one, only that one gets its flags: the others' flags are
    about half the cost of a parse. Help and errors read the same either
    way."""
    named = next((a for a in argv or () if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="polyembed",
        description="Multi-facet node embeddings: facet estimation, training, "
                    "inference export and evaluation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.set_defaults(func=cmd.func)
        if named in COMMANDS and name != named:
            continue
        p.add_argument("--config", help="key=value config file")
        for dest, required in cmd.path_flags():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           required=required, help=PATHS[dest])
        for key in cmd.params.split():
            param = PARAMS[key]
            flag = "--" + key.replace("_", "-")
            if param.const is not None:
                p.add_argument(flag, dest=param.dest or key, action="store_const",
                               const=param.const, help=param.help)
            else:
                p.add_argument(flag, dest=key, type=param.type,
                               choices=param.choices, help=param.help)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        args.func(args, resolve_params(args))
    except (PolyembedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
