"""Pipeline benchmark for polyembed.

usage (from the repository root):
    python3 bench/run.py [--workload walk-sbm|edge-bipartite|gcn-wide|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload generates a planted-block graph from --seed (bench/workloads.py)
and then runs `polyembed pipeline` on it again and again for --seconds
seconds: one run at a time, closed loop, one client, each run `cli.run` in a
fresh child interpreter (bench/child.py) with PYTHONPATH=src, the BLAS
thread count pinned to the number of usable CPUs and a fixed hash seed.
Every run's outputs are checked (exit code, report, table and prior shapes
and values, split integrity, and an output digest that must repeat across
runs); a failed check counts as a failed run.

End-to-end metrics (medians over the runs, tracing off): pipeline_s (wall
time of cli.run after import), setup_s (time to import polyembed.cli),
peak_rss_mb (the child's ru_maxrss), and the quality guards auc, hr_at_10,
macro_f1, and oracle_auc, the AUC that true-block vectors reach on the
same split and candidates.

With --trace 1 the runs alternate between untraced and traced; a traced run
wraps the package's layer boundaries from outside (bench/spans.py) and the
per-layer metrics are medians over the traced runs. trace.overhead_s is the
traced minus the untraced median pipeline_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names, units and directions are
those of BENCHMARK.json. The exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
# Outputs differ bitwise between OpenBLAS thread counts, so the count is
# pinned (for this process and every child) before numpy is imported.
BLAS_ENV = {var: str(NPROC) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

CHILD_HASH_SEED = "0"
MIN_RUNS = 3          # per kind (untraced, traced): a median and a digest check
DEADLINE_S = 150      # start no run that could end after this
SUM_TOL = 1e-9


class CheckFailed(Exception):
    """A run's outputs are wrong."""


# ----------------------------------------------------------------- inputs

def flag(w: workloads.Workload, name: str) -> str:
    return w.flags[w.flags.index(name) + 1]


def pipeline_argv(w, inputs, seed, cfg, prefix) -> list[str]:
    argv = ["pipeline", "--input", inputs.edges_path, "--kind", w.kind,
            "--seed", str(seed), "--config", str(cfg), *w.flags,
            "--workdir", str(prefix)]
    if inputs.labels_path:
        argv += ["--labels", inputs.labels_path]
    return argv


# ----------------------------------------------------------------- checks

def read_pairs(path) -> np.ndarray:
    """First two integer columns of an edge file, comments skipped."""
    rows = np.loadtxt(path, comments="#", ndmin=2, usecols=(0, 1))
    return rows.astype(np.int64)


def read_report(path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    out = {}
    for line in text.split("\n\n", 1)[1].splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckFailed(f"report line {line!r} is not key=value")
        out[key] = value
    return out


def report_value(report, key) -> float:
    if key not in report:
        raise CheckFailed(f"report has no {key}")
    value = float(report[key])
    if not 0.0 <= value <= 1.0:
        raise CheckFailed(f"report {key}={value} outside [0, 1]")
    return value


def read_table(path, n, k, d) -> np.ndarray:
    """An `N K D` embedding file, checked for shape, coverage and values."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    if header != [str(n), str(k), str(d)]:
        raise CheckFailed(f"{Path(path).name}: header {header}, expected {n} {k} {d}")
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    if rows.shape != (n * k, d + 2):
        raise CheckFailed(f"{Path(path).name}: {rows.shape} rows, expected {(n * k, d + 2)}")
    ids = rows[:, 0].astype(np.int64) * k + rows[:, 1].astype(np.int64)
    if not np.array_equal(np.sort(ids), np.arange(n * k)):
        raise CheckFailed(f"{Path(path).name}: (node, facet) rows missing or repeated")
    if not np.isfinite(rows).all():
        raise CheckFailed(f"{Path(path).name}: non-finite values")
    table = np.empty((n * k, d))
    table[ids] = rows[:, 2:]
    return table.reshape(n, k, d)


def read_prior(path, n, k) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    if header != [str(n), str(k)]:
        raise CheckFailed(f"{Path(path).name}: header {header}, expected {n} {k}")
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    if rows.shape != (n, k + 1) or not np.array_equal(rows[:, 0], np.arange(n)):
        raise CheckFailed(f"{Path(path).name}: rows do not cover nodes 0..{n - 1}")
    dist = rows[:, 1:]
    if not np.isfinite(dist).all() or (dist < 0).any():
        raise CheckFailed(f"{Path(path).name}: negative or non-finite probabilities")
    if np.abs(dist.sum(axis=1) - 1.0).max() > SUM_TOL:
        raise CheckFailed(f"{Path(path).name}: a row does not sum to 1")
    return dist


def pair_keys(pairs, homogeneous, width) -> np.ndarray:
    if homogeneous:
        pairs = np.sort(pairs, axis=1)
    return pairs[:, 0] * width + pairs[:, 1]


def digest(prefix: Path) -> str:
    """sha256 over every output file of the run except the manifests,
    which hold paths."""
    h = hashlib.sha256()
    for path in sorted(prefix.parent.glob(prefix.name + ".*")):
        if not path.name.endswith(".manifest"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(w, inputs, prefix: Path) -> dict:
    """Check one run's files; return its report values and output digest."""
    k, d = int(flag(w, "--k")), int(flag(w, "--dim"))
    homogeneous = w.kind == "homogeneous"
    report = read_report(f"{prefix}.report")
    values = {"auc": report_value(report, "auc"),
              "hr_at_10": report_value(report, "hr@10")}
    if values["auc"] <= 0.5:
        raise CheckFailed(f"auc {values['auc']} is not above chance")
    if homogeneous:
        (n,) = w.sizes
        read_table(f"{prefix}.emb", n, k, d)
        read_prior(f"{prefix}.prior", n, k)
        joint = np.loadtxt(f"{prefix}.joint", skiprows=1, ndmin=2)
        if joint.shape != (n, 1 + k * d) or not np.isfinite(joint).all():
            raise CheckFailed(f"joint embeddings: shape {joint.shape} or non-finite values")
        values["macro_f1"] = report_value(report, "macro_f1")
        width = n
    else:
        num_a, num_b = w.sizes
        read_table(f"{prefix}.emb.a", num_a, k, d)
        read_table(f"{prefix}.emb.b", num_b, k, d)
        read_prior(f"{prefix}.prior.a", num_a, k)
        read_prior(f"{prefix}.prior.b", num_b, k)
        width = num_b
    test = read_pairs(f"{prefix}.test.edges")
    train = read_pairs(f"{prefix}.train.edges")
    given = read_pairs(inputs.edges_path)
    test_keys = pair_keys(test, homogeneous, width)
    train_keys = pair_keys(train, homogeneous, width)
    if len(test) == 0:
        raise CheckFailed("no held-out test edges")
    if np.isin(test_keys, train_keys).any():
        raise CheckFailed("a held-out test edge appears in the training edges")
    if not np.isin(test_keys, pair_keys(given, homogeneous, width)).all():
        raise CheckFailed("a held-out test edge is not an input edge")
    if len(train) + len(test) != len(given):
        raise CheckFailed(f"split lost edges: {len(train)} + {len(test)} != {len(given)}")
    values["digest"] = digest(prefix)
    return values


# ------------------------------------------------------------- reference

def quality_reference(w, inputs, seed, prefix: Path) -> dict:
    """Oracle AUC/HR@10 from one-hot true-block vectors with a uniform K=1
    prior, through the public link_prediction_report on the run's own split
    and candidates. On bipartite workloads, where the CLI ignores --labels,
    also macro-F1 of block labels from the run's type-A tables by the CLI's
    own concat + classify steps."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from polyembed import evaluation, facets, inference, tables
    from polyembed import graph as graphmod

    train_g = graphmod.load_edge_list(f"{prefix}.train.edges", kind=w.kind)
    test_edges = [(int(a), int(b)) for a, b in read_pairs(f"{prefix}.test.edges")]
    blocks = np.eye(w.blocks)
    u = blocks[inputs.block_a][:, None, :]
    if w.kind == "homogeneous":
        oracle = tables.EmbeddingTables(u=u, h=np.zeros_like(u))
        prior = facets.FacetPrior.uniform(len(inputs.block_a), 1)
        mode = "homogeneous"
    else:
        oracle = tables.EmbeddingTables(u=u, h=blocks[inputs.block_b][:, None, :])
        prior = facets.FacetPrior.uniform(len(inputs.block_a), 1,
                                          num_b=len(inputs.block_b))
        mode = "cross"
    ks = tuple(int(x) for x in flag(w, "--ks").split(","))
    report = evaluation.link_prediction_report(
        train_g, test_edges, oracle, prior, mode,
        num_negatives=int(flag(w, "--num-negatives")), ks=ks, seed=seed)
    out = {"oracle_auc": report.auc, "oracle_hr_at_10": report.hr_at_k[10]}
    if w.kind == "bipartite":
        num_a, _ = w.sizes
        k, d = int(flag(w, "--k")), int(flag(w, "--dim"))
        u_a = read_table(f"{prefix}.emb.a", num_a, k, d)
        prior_a = facets.load_prior(f"{prefix}.prior.a")
        joint = inference.concat(tables.EmbeddingTables(u=u_a, h=np.zeros_like(u_a)),
                                 prior_a, weighted=True)
        _, macro = evaluation.classify(joint, blocks[inputs.block_a], seed=seed,
                                       shuffle=True)
        out["macro_f1"] = macro
    return out


def pairs_per_walk(length: int, window: int) -> int:
    i = np.arange(length)
    return int((np.minimum(i, window) + np.minimum(length - 1 - i, window)).sum())


def work_counts(w, inputs, prefix: Path) -> dict:
    """Work done by the run, computed from its inputs and written files
    rather than from call counts: SGD steps or GCN edge passes, held-out
    queries, input edges."""
    counts = {"input_edges": inputs.num_edges,
              "queries": len(read_pairs(f"{prefix}.test.edges"))}
    model = flag(w, "--model")
    if model == "deepwalk":
        window = int(flag(w, "--window"))
        with open(f"{prefix}.walks", encoding="utf-8") as fh:
            lengths = [len(line.split()) for line in fh if line.strip()]
        pairs = sum(pairs_per_walk(n, window) for n in lengths)
        counts["steps"] = pairs * int(flag(w, "--facet-rate")) * int(flag(w, "--epochs"))
    elif model == "pte":
        counts["steps"] = int(flag(w, "--total-samples")) * int(flag(w, "--facet-rate"))
    else:
        # A^k(i, j) > 0 iff A(i, j) > 0 and P(i, k) Q(j, k) > 0; a cell whose
        # products all vanish is split uniformly over the K facets.
        num_a, num_b = w.sizes
        k = int(flag(w, "--k"))
        p = read_prior(f"{prefix}.prior.a", num_a, k)
        q = read_prior(f"{prefix}.prior.b", num_b, k)
        train = read_pairs(f"{prefix}.train.edges")
        live = (p[train[:, 0]] * q[train[:, 1]] > 0).sum(axis=1)
        nnz = int(np.where(live == 0, k, live).sum())
        counts["steps"] = int(flag(w, "--iterations")) * nnz
    return counts


# ------------------------------------------------------------------ runs

def run_once(argv, traced, work: Path, env, timeout) -> dict:
    """One child run of the pipeline; returns its measurements or raises
    CheckFailed."""
    for old in work.glob("run.*"):
        old.unlink()
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if traced else "0", "--", *argv]
    with open(work / "child.log", "wb") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"run exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        raise CheckFailed(f"child exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    if result["rc"] != 0:
        raise CheckFailed(f"cli.run returned {result['rc']}")
    if not Path(result["polyembed_file"]).resolve().is_relative_to(ROOT / "src"):
        raise CheckFailed(f"imported polyembed from {result['polyembed_file']}")
    return result


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced run, named `<module>.<metric>`;
    `trainer.*` is whichever trainer ran and `self.<layer>_s` a layer's
    self time."""
    names, cnt = summary["names"], summary["counters"]

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def own(name):
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["graph.parse_s"] = total("graph.load_edge_list")
    m["graph.parse_edges_per_s"] = ratio(counts["input_edges"], m["graph.parse_s"])
    m["graph.dense_s"] = total("graph.adjacency_dense")
    m["graph.dense_mb"] = cnt.get("dense_bytes", 0.0) / 2**20
    m["graph.save_s"] = total("graph.save_edge_list")
    m["facets.nmf_s"] = total("facets.symmetric_nmf") + total("facets.asymmetric_nmf")
    m["facets.nmf_iterations"] = cnt.get("nmf_iterations", 0.0)
    m["facets.nmf_ms_per_iter"] = ratio(1000.0 * m["facets.nmf_s"], m["facets.nmf_iterations"])
    m["facets.save_s"] = total("facets.save_prior_file")
    m["walks.generate_s"] = total("walks.generate_walks")
    m["walks.walks_per_s"] = ratio(cnt.get("walks", 0.0), m["walks.generate_s"])
    m["walks.save_s"] = total("walks.save_corpus")

    trained = {"polydeepwalk": "polydeepwalk.train", "polypte": "polypte.train_pte",
               "polygcn": "polygcn.train_gcn"}
    for layer in ("polydeepwalk", "polypte"):
        train_s = total(trained[layer])
        steps = counts["steps"] if train_s else 0
        m[f"{layer}.train_s"] = train_s
        m[f"{layer}.steps"] = steps
        m[f"{layer}.steps_per_s"] = ratio(steps, train_s)
        m[f"{layer}.negatives_s"] = summary["shared"].get(
            f"{layer}:polydeepwalk.NegativeSampler.sample_batch", 0.0)
        m[f"{layer}.grad_s"] = total(f"{layer}.sgns_loss_and_grads")
        m[f"{layer}.self_s"] = own(trained[layer])
    gcn_s = total("polygcn.train_gcn")
    m["polygcn.decompose_s"] = total("polygcn.decompose_adjacency")
    m["polygcn.train_s"] = gcn_s
    m["polygcn.forward_s"] = total("polygcn.forward_facet")
    m["polygcn.backward_s"] = total("polygcn.backward_facet")
    m["polygcn.optimizer_s"] = own("polygcn.train_gcn")
    m["polygcn.edge_passes_per_s"] = ratio(counts["steps"] if gcn_s else 0, gcn_s)

    m["trainer.train_s"] = sum(total(fn) for fn in trained.values())
    m["trainer.steps"] = counts["steps"]
    m["trainer.steps_per_s"] = ratio(counts["steps"], m["trainer.train_s"])
    m["trainer.self_s"] = sum(own(fn) for fn in trained.values())

    queries = counts["queries"]
    m["evaluation.split_s"] = total("evaluation.split_links")
    m["evaluation.link_s"] = total("evaluation.link_prediction_report")
    m["evaluation.queries_per_s"] = ratio(queries, m["evaluation.link_s"])
    m["evaluation.candidates_s"] = total("evaluation.candidate_protocol")
    m["evaluation.pool_short_ratio"] = ratio(cnt.get("pool_short", 0.0),
                                             cnt.get("candidate_queries", 0.0))
    m["evaluation.classify_s"] = total("evaluation.classify")
    m["inference.score_s"] = total("inference.score_candidates")
    m["inference.score_calls_per_query"] = ratio(calls("inference.score_candidates"), queries)
    m["inference.concat_s"] = total("inference.concat")
    m["inference.save_s"] = total("inference.save_joint")
    m["tables.save_s"] = total("tables.save_embeddings")
    m["tables.save_mb"] = cnt.get("table_bytes", 0.0) / 2**20

    layers = summary["layers"]
    for layer in ("cli", "graph", "facets", "walks", "polydeepwalk", "polypte",
                  "polygcn", "evaluation", "inference", "tables"):
        m[f"self.{layer}_s"] = layers.get(layer, 0.0)
    m["self.trainer_s"] = sum(layers.get(lay, 0.0) for lay in trained)
    m["trace.pipeline_s"] = total("cli.run")
    return m


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.write_inputs(w, seed, str(work / "input"))
    cfg = work / "input.cfg"
    cfg.write_text("\n".join(w.config) + "\n", encoding="utf-8")
    prefix = work / "run"
    argv = pipeline_argv(w, inputs, seed, cfg, prefix)
    # A fixed hash seed makes every child lay out its dicts and sets alike,
    # so runs differ only by the host, not by per-process randomisation.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=CHILD_HASH_SEED)

    runs, errors, digests, walls = [], [], set(), []
    start = time.monotonic()
    kinds = [False, True] if trace else [False]
    while True:
        elapsed = time.monotonic() - start
        done = min(sum(r["traced"] == t for r in runs) for t in kinds)
        # Stop when the next run would end after the window (or the deadline).
        if done >= MIN_RUNS and elapsed + statistics.median(walls) > seconds:
            break
        if walls and elapsed + max(walls) > DEADLINE_S:
            break
        traced = trace and len(runs) % 2 == 1
        t0 = time.monotonic()
        try:
            result = run_once(argv, traced, work, env, DEADLINE_S - elapsed)
            result.update(check_outputs(w, inputs, prefix))
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            result = None
        walls.append(time.monotonic() - t0)
        if result is None:
            runs.append({"traced": traced, "ok": False})
            continue
        result.update(traced=traced, ok=True)
        if digests and result["digest"] not in digests:
            errors.append("output digest differs between runs of one seed")
            result["ok"] = False
        digests.add(result["digest"])
        runs.append(result)

    ok = [r for r in runs if r["ok"]]
    out = {"workload": w.name, "seed": seed, "attempted": len(runs),
           "failed": len(runs) - len(ok), "errors": errors,
           "digest": sorted(digests), "metrics": {}, "samples": {},
           "per_layer": {}, "detail": {}}
    plain = [r for r in ok if not r["traced"]]
    if plain and not errors:
        for key in ("pipeline_s", "setup_s", "peak_rss_mb"):
            out["metrics"][key] = statistics.median(r[key] for r in plain)
            out["samples"][key] = len(plain)
            out["detail"][f"{key}_runs"] = [round(r[key], 4) for r in plain]
        last = ok[-1]
        for key in ("auc", "hr_at_10", "macro_f1"):
            if key in last:
                out["metrics"][key] = last[key]
        reference = quality_reference(w, inputs, seed, prefix)
        out["metrics"].setdefault("macro_f1", reference.get("macro_f1"))
        out["metrics"]["oracle_auc"] = reference["oracle_auc"]
        out["detail"]["oracle_hr_at_10"] = reference["oracle_hr_at_10"]
        for key in ("auc", "hr_at_10", "macro_f1", "oracle_auc"):
            out["samples"][key] = len(ok)
        traced_runs = [r for r in ok if r["traced"]]
        if traced_runs:
            counts = work_counts(w, inputs, prefix)
            per_run = [layer_metrics(r["trace"], counts) for r in traced_runs]
            for key in per_run[0]:
                out["per_layer"][key] = statistics.median(m[key] for m in per_run)
            out["per_layer"]["trace.overhead_s"] = (
                out["per_layer"]["trace.pipeline_s"] - out["metrics"]["pipeline_s"])
            out["detail"]["traced_runs"] = len(traced_runs)
            out["detail"]["spans_per_run"] = traced_runs[-1]["trace"]["spans"]
            kept = work.parent / f"{w.name}-seed{seed}.spans.npz"
            shutil.move(work / "child.json.spans.npz", kept)
            out["detail"]["spans_file"] = str(kept.relative_to(ROOT))
    if not errors:
        shutil.rmtree(work, ignore_errors=True)
    return out


# ---------------------------------------------------------------- output

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": NPROC, "python_hash_seed": CHILD_HASH_SEED,
            "nproc": NPROC, "cpu": cpu or platform.machine()}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(spec, results, seconds) -> None:
    cols = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    cols.append(("error_rate", "ratio", "lower"))
    print(f"end-to-end: closed loop, one client, one run at a time, "
          f"{seconds:g} s per workload; cells are median (n = samples)")
    head = ["workload"] + [f"{n} [{u}, {b}]" for n, u, b in cols]
    rows = []
    for res in results:
        cells = [res["workload"]]
        for name, _, _ in cols:
            if name == "error_rate":
                cells.append(f"{res['failed'] / max(res['attempted'], 1):.3g} "
                             f"(n={res['attempted']})")
            elif name in res["metrics"]:
                cells.append(f"{fmt(res['metrics'][name])} (n={res['samples'][name]})")
            else:
                cells.append("-")
        rows.append(cells)
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())


def print_per_layer(results) -> None:
    for res in results:
        pl = res["per_layer"]
        if not pl:
            continue
        pipe = pl["trace.pipeline_s"]
        print(f"\nper-layer ({res['workload']}, medians of "
              f"{res['detail']['traced_runs']} traced runs; traced pipeline_s "
              f"{pipe:.4g} s, untraced {res['metrics']['pipeline_s']:.4g} s, "
              f"overhead {pl['trace.overhead_s']:.4g} s)")
        selfs = sorted(((k, v) for k, v in pl.items()
                        if k.startswith("self.") and k != "self.trainer_s"),
                       key=lambda kv: -kv[1])
        print("  self time by layer (share of traced pipeline_s):")
        for key, value in selfs:
            if value:
                print(f"    {key[5:-2]:<13} {value:9.4f} s  {100 * value / pipe:5.1f}%")
        print(f"    {'sum':<13} {sum(v for _, v in selfs):9.4f} s")
        for key in sorted(pl):
            if not key.startswith("self."):
                print(f"  {key:<36} {fmt(pl[key])}")


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "polyembed" / "cli.py").is_file():
        print(f"error: no polyembed sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    chosen = names if args.workload == "all" else [args.workload]

    results = [run_workload(workloads.WORKLOADS[n], args.seed, args.seconds,
                            bool(args.trace)) for n in chosen]
    print("env: " + json.dumps(environment()))
    for res in results:
        print(f"{res['workload']}: seed {res['seed']}, digest "
              f"{','.join(d[:16] for d in res['digest'])}, detail "
              f"{json.dumps(res['detail'])}")
        for err in res["errors"]:
            print(f"{res['workload']}: CHECK FAILED: {err}", file=sys.stderr)
    print_end_to_end(spec, results, args.seconds)
    if args.trace:
        print_per_layer(results)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = all(not r["errors"] for r in results)
    metrics = {}
    if correct:
        for res in results:
            values = res["per_layer"] if args.trace else res["metrics"]
            for m in wanted:
                key = m["name"] if len(results) == 1 else f"{res['workload']}.{m['name']}"
                metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
