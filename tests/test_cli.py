import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from polyembed import cli, facets, graph, kernel, polydeepwalk, polygcn, polypte, walks
from polyembed.tables import load_matrix, save_matrix


@pytest.fixture
def sbm_file(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "g.edges"
    lines = []
    n_block = 12
    for i in range(2 * n_block):
        for j in range(i + 1, 2 * n_block):
            pr = 0.5 if (i < n_block) == (j < n_block) else 0.05
            if rng.random() < pr:
                lines.append(f"{i} {j}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def bipartite_file(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "b.edges"
    lines = []
    half = 10
    for a in range(2 * half):
        for b in range(2 * half):
            pr = 0.5 if (a < half) == (b < half) else 0.05
            if rng.random() < pr:
                lines.append(f"{a} {b}")
    path.write_text("\n".join(lines) + "\n")
    return path


def run_ok(argv):
    assert cli.run(argv) == 0


def engine_line():
    """The manifest line of the SGD engine that runs here."""
    return f"engine={'numpy' if kernel.function('sgd_steps') is None else 'c'}\n"


def test_facets_shape_contract(tmp_path, sbm_file):
    out = tmp_path / "g.prior"
    run_ok(["facets", "--input", str(sbm_file), "--k", "6",
            "--alpha", "0.05", "--out", str(out)])
    dist = load_matrix(out, "N K")
    assert dist.shape == (24, 6)
    assert (tmp_path / "g.prior.manifest").exists()


def test_walks_and_train_and_embed_round_trip(tmp_path, sbm_file):
    corpus_path = tmp_path / "g.walks"
    prior_path = tmp_path / "g.prior"
    emb_path = tmp_path / "g.emb"
    joint_path = tmp_path / "g.joint"
    run_ok(["facets", "--input", str(sbm_file), "--k", "2",
            "--out", str(prior_path), "--seed", "0"])
    run_ok(["walks", "--input", str(sbm_file), "--walks-per-node", "5",
            "--walk-length", "6", "--out", str(corpus_path), "--seed", "0"])
    run_ok(["train-deepwalk", "--input", str(sbm_file),
            "--prior", str(prior_path), "--corpus", str(corpus_path),
            "--dim", "6", "--epochs", "1", "--window", "3",
            "--out", str(emb_path), "--seed", "0"])
    run_ok(["embed", "--emb", str(emb_path), "--prior", str(prior_path),
            "--out", str(joint_path)])
    corpus = walks.load_corpus(corpus_path)
    assert len(corpus) and corpus.shape[1] <= 6
    table = load_matrix(emb_path, "N K D")
    assert table.shape == (24, 2, 6)
    joint = load_matrix(joint_path, "N KD")
    assert joint.shape == (24, 12)


def test_deterministic_embeddings_byte_identical(tmp_path, sbm_file):
    prior_path = tmp_path / "g.prior"
    corpus_path = tmp_path / "g.walks"
    run_ok(["facets", "--input", str(sbm_file), "--k", "2",
            "--out", str(prior_path), "--seed", "3"])
    run_ok(["walks", "--input", str(sbm_file), "--walks-per-node", "4",
            "--walk-length", "5", "--out", str(corpus_path), "--seed", "3"])
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run_ok(["train-deepwalk", "--input", str(sbm_file),
                "--prior", str(prior_path), "--corpus", str(corpus_path),
                "--dim", "4", "--epochs", "1", "--window", "3",
                "--out", str(out), "--seed", "3"])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_bipartite_pte_report(tmp_path, bipartite_file):
    workdir = tmp_path / "run"
    run_ok(["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
            "--model", "pte", "--k", "2", "--dim", "6",
            "--total-samples", "3000", "--num-negatives", "8",
            "--ks", "3,8", "--workdir", str(workdir), "--seed", "1"])
    report = (tmp_path / "run.report").read_text()
    assert "auc=" in report
    # every artifact reloads
    train_g = graph.load_edge_list(tmp_path / "run.train.edges", kind="bipartite")
    assert train_g.num_a == 20
    prior = facets.load_prior(tmp_path / "run.prior.a", tmp_path / "run.prior.b")
    assert prior.k == 2
    assert load_matrix(tmp_path / "run.emb.a", "N K D").shape == (20, 2, 6)
    assert engine_line() in (tmp_path / "run.report.manifest").read_text()


def test_pipeline_homogeneous_with_labels(tmp_path, sbm_file):
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(f"{i} {'x' if i < 12 else 'y'}"
                                for i in range(24)) + "\n")
    workdir = tmp_path / "dw"
    run_ok(["pipeline", "--input", str(sbm_file), "--kind", "homogeneous",
            "--model", "deepwalk", "--k", "2", "--dim", "4",
            "--walks-per-node", "8", "--walk-length", "6", "--window", "3",
            "--epochs", "1", "--num-negatives", "8", "--ks", "3",
            "--labels", str(labels), "--workdir", str(workdir), "--seed", "0"])
    report = (tmp_path / "dw.report").read_text()
    assert "auc=" in report and "micro_f1=" in report


def test_pipeline_labels_name_the_nodes_of_a_named_graph(tmp_path, sbm_file,
                                                         monkeypatch):
    # node i is named 23 - i, and node 23 is "a", so the graph's ids are
    # names in first-appearance order and a name like "0" is not node 0
    def name(i):
        return "a" if i == 23 else str(23 - i)
    edges = tmp_path / "named.edges"
    edges.write_text("".join(" ".join(name(int(v)) for v in line.split()) + "\n"
                             for line in sbm_file.read_text().splitlines()))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{name(i)} {'x' if i < 12 else 'y'}\n"
                              for i in range(24)))
    seen = []

    def classify(features, y, **kwargs):
        seen.append(y)
        return 1.0, 1.0
    monkeypatch.setattr(cli.evaluation, "classify", classify)
    run_ok(["pipeline", "--input", str(edges), "--kind", "homogeneous",
            "--model", "deepwalk", "--k", "2", "--dim", "4",
            "--walks-per-node", "2", "--walk-length", "4", "--window", "2",
            "--epochs", "1", "--num-negatives", "8", "--ks", "3",
            "--labels", str(labels), "--workdir", str(tmp_path / "dw")])
    names = graph.load_edge_list(edges, kind="homogeneous").node_labels
    expected = np.zeros((24, 2))
    for i in range(24):
        expected[names.index(name(i)), int(i >= 12)] = 1.0
    assert np.array_equal(seen[0], expected)


def test_pipeline_gcn(tmp_path, bipartite_file):
    workdir = tmp_path / "gcn"
    run_ok(["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
            "--model", "gcn", "--k", "2", "--dim", "4", "--iterations", "40",
            "--num-negatives", "8", "--ks", "3", "--workdir", str(workdir),
            "--seed", "0"])
    assert "auc=" in (tmp_path / "gcn.report").read_text()
    assert "engine=" not in (tmp_path / "gcn.report.manifest").read_text()


# the three ways PolyGCN may train its facets: one forked child per facet
# but the first, the serial loop, and the choice on a host with one CPU
GCN_PATHS = {"forked": (lambda m: m.setattr(polygcn, "_facet_workers",
                                            lambda k: k - 1), "3"),
             "serial": (lambda m: m.setattr(polygcn, "_facet_workers",
                                            lambda k: 0), "1"),
             "one-cpu": (lambda m: m.setattr(os, "sched_getaffinity",
                                             lambda pid: {0}), "1")}
GCN_RUNS = {
    "train-gcn-bipartite": ["train-gcn", "--prior", "b.prior", "--dim", "3",
                            "--iterations", "6"],
    "train-gcn-co": ["train-gcn", "--prior", "b.prior", "--dim", "3",
                     "--iterations", "6", "--neighbor-mode", "co"],
    "pipeline-gcn": ["pipeline", "--kind", "bipartite", "--model", "gcn",
                     "--k", "3", "--dim", "3", "--iterations", "6",
                     "--num-negatives", "5", "--ks", "3"],
}


def gcn_run(tmp_path, bipartite_file, run, path, monkeypatch):
    """The bytes of every output file of `run` (the manifest's lines but
    its output path and train.processes), and the train.processes line."""
    prior = tmp_path / "b.prior"
    if not (tmp_path / "b.prior.a").exists():
        run_ok(["facets", "--input", str(bipartite_file), "--kind", "bipartite",
                "--k", "3", "--out", str(prior)])
    out = tmp_path / path / "o"
    out.parent.mkdir()
    argv = [str(prior) if a == "b.prior" else a for a in GCN_RUNS[run]]
    with monkeypatch.context() as m:
        GCN_PATHS[path][0](m)
        run_ok(argv + ["--input", str(bipartite_file),
                       "--workdir" if run == "pipeline-gcn" else "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    manifest = next(name for name in files if name.endswith(".manifest"))
    lines = files[manifest].decode().splitlines()
    files[manifest] = [line for line in lines if not line.startswith(
        ("train.processes=", "out=", "workdir="))]
    processes = [line for line in lines if line.startswith("train.processes=")]
    return files, processes


@pytest.mark.parametrize("run", GCN_RUNS)
def test_gcn_outputs_do_not_depend_on_the_path(tmp_path, bipartite_file, run,
                                               monkeypatch):
    outputs = {}
    for path, (_, processes) in GCN_PATHS.items():
        outputs[path], seen = gcn_run(tmp_path, bipartite_file, run, path,
                                      monkeypatch)
        assert seen == [f"train.processes={processes}"], path
    assert outputs["forked"] == outputs["serial"] == outputs["one-cpu"]
    assert len(outputs["serial"]) == (8 if run == "pipeline-gcn" else 3)


def test_gcn_manifest_records_each_facets_final_loss(tmp_path, bipartite_file,
                                                     monkeypatch):
    # facet 1 has no cells: every node's prior puts no weight on it
    g = graph.load_edge_list(bipartite_file, kind="bipartite")
    for side, n in (("a", g.num_a), ("b", g.num_b)):
        (tmp_path / f"z.prior.{side}").write_text(
            f"{n} 3\n" + "".join(f"{i} 0.5 0 0.5\n" for i in range(n)))
    monkeypatch.setattr(polygcn, "_facet_workers", lambda k: k - 1)
    run_ok(["train-gcn", "--input", str(bipartite_file), "--prior",
            str(tmp_path / "z.prior"), "--dim", "3", "--iterations", "4",
            "--out", str(tmp_path / "z.emb")])
    manifest = (tmp_path / "z.emb.manifest").read_text().splitlines()
    prior = facets.load_prior(tmp_path / "z.prior.a", tmp_path / "z.prior.b")
    fadj = polygcn.decompose_adjacency(g.adj, prior.p, prior.q)
    monkeypatch.setattr(polygcn, "_facet_workers", lambda k: 0)
    traces = polygcn.train_gcn(g, fadj, polygcn.GcnConfig(
        dim=3, iterations=4)).loss_traces
    assert traces[1] == [] and traces[0] and traces[2]
    assert f"train.final_loss={traces[0][-1]!r},,{traces[2][-1]!r}" in manifest
    assert "train.processes=3" in manifest


def test_a_diverging_forked_facet_is_an_error(tmp_path, bipartite_file,
                                              monkeypatch, capsys):
    run_ok(["facets", "--input", str(bipartite_file), "--kind", "bipartite",
            "--k", "2", "--out", str(tmp_path / "b.prior")])
    real, parent = polygcn.gcn_loss_and_grads, os.getpid()

    def loss_and_grads(*args):
        loss, grads = real(*args)
        return (loss if os.getpid() == parent else float("nan")), grads

    monkeypatch.setattr(polygcn, "_facet_workers", lambda k: k - 1)
    monkeypatch.setattr(polygcn, "gcn_loss_and_grads", loss_and_grads)
    capsys.readouterr()
    assert cli.run(["train-gcn", "--input", str(bipartite_file), "--prior",
                    str(tmp_path / "b.prior"), "--iterations", "3",
                    "--out", str(tmp_path / "o")]) == 1
    assert (capsys.readouterr().err
            == "error: facet 1 diverged at iteration 1\n")
    assert not list(tmp_path.glob("o*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eval_link_standalone(tmp_path, bipartite_file):
    workdir = tmp_path / "w"
    run_ok(["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
            "--model", "pte", "--k", "2", "--dim", "4",
            "--total-samples", "1500", "--num-negatives", "5", "--ks", "3",
            "--workdir", str(workdir), "--seed", "2"])
    out = tmp_path / "standalone.report"
    run_ok(["eval-link", "--graph", str(tmp_path / "w.train.edges"),
            "--test", str(tmp_path / "w.test.edges"),
            "--emb", str(tmp_path / "w.emb"),
            "--prior", str(tmp_path / "w.prior"), "--mode", "cross",
            "--num-negatives", "5", "--ks", "3", "--out", str(out),
            "--seed", "2"])
    assert "auc=" in out.read_text()


def test_config_file_precedence(tmp_path, sbm_file):
    config = tmp_path / "run.cfg"
    config.write_text("k=3\nalpha=0.1\n# comment line\n")
    out = tmp_path / "p1"
    run_ok(["facets", "--input", str(sbm_file), "--config", str(config),
            "--out", str(out)])
    assert load_matrix(out, "N K").shape[1] == 3  # config beats default
    out2 = tmp_path / "p2"
    run_ok(["facets", "--input", str(sbm_file), "--config", str(config),
            "--k", "4", "--out", str(out2)])
    assert load_matrix(out2, "N K").shape[1] == 4  # flag beats config


def test_unknown_config_key_is_an_error(tmp_path, capsys, sbm_file):
    config = tmp_path / "run.cfg"
    config.write_text("k=3\ndimm=64\n")
    rc = cli.run(["facets", "--input", str(sbm_file), "--config", str(config),
                  "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err and "dimm" in err
    assert not (tmp_path / "p").exists()


def loaded_scipy(code, cwd=None) -> list[str]:
    """The scipy modules loaded after running `code` in a fresh process."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # scipy.sparse alone took about half of the import's 0.4 s
    assert loaded_scipy("import polyembed.cli") == []


def test_pipeline_runs_load_no_scipy(tmp_path):
    # a lazy import on any path of a run would move its cost into the run;
    # the sparse products import nothing with or without the kernel
    (tmp_path / "g.edges").write_text("".join(f"{i} {(i + 1) % 12}\n"
                                              f"{i} {(i + 3) % 12}\n"
                                              for i in range(12)))
    (tmp_path / "b.edges").write_text("".join(f"{a} {b}\n" for a in range(8)
                                              for b in range(6) if (a + b) % 3 == 0))
    small = "--k 2 --dim 2 --num-negatives 3 --ks 1 --workdir".split()
    runs = [["--input", "g.edges", "--walks-per-node", "2", "--walk-length", "4",
             "--window", "2", "--epochs", "1", *small, "w"],
            ["--input", "b.edges", "--kind", "bipartite", "--model", "pte",
             "--total-samples", "200", *small, "p"],
            ["--input", "b.edges", "--kind", "bipartite", "--model", "gcn",
             "--iterations", "3", *small, "c"]]
    code = ("import polyembed.cli as cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.run(['pipeline', *argv]) == 0\n")
    assert loaded_scipy(code, cwd=tmp_path) == []


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The files of a homogeneous pipeline with labels (w.*) and of a
    bipartite one (b.*), their inputs, and a config file."""
    d = tmp_path_factory.mktemp("artifacts")
    (d / "g.edges").write_text("".join(f"{i} {(i + 1) % 12}\n{i} {(i + 3) % 12}\n"
                                       for i in range(12)))
    (d / "l.txt").write_text("".join(f"{i} {'xy'[i % 2]}\n" for i in range(12)))
    (d / "b.edges").write_text("".join(f"{a} {b}\n" for a in range(8)
                                       for b in range(6) if (a + b) % 3 == 0))
    (d / "c.cfg").write_text("k=2\n")
    small = ["--k", "2", "--dim", "2", "--num-negatives", "3", "--ks", "1"]
    run_ok(["pipeline", "--input", str(d / "g.edges"), "--labels", str(d / "l.txt"),
            "--walks-per-node", "2", "--walk-length", "4", "--window", "2",
            "--epochs", "1", *small, "--workdir", str(d / "w")])
    run_ok(["pipeline", "--input", str(d / "b.edges"), "--kind", "bipartite",
            "--model", "pte", "--total-samples", "200", *small,
            "--workdir", str(d / "b")])
    return d


def in_artifacts(argv, d):
    """`argv` with each file name (a name with a dot, `o`, or one under
    `nope`) made a path into `d`."""
    return [str(d / a) if "." in a or a == "o" or a.startswith("nope") else a
            for a in argv]


EVAL_W = ["eval-link", "--graph", "w.train.edges", "--test", "w.test.edges",
          "--emb", "w.emb", "--prior", "w.prior", "--out", "o"]
EVAL_B = ["eval-link", "--mode", "cross", "--graph", "b.train.edges",
          "--test", "b.test.edges", "--emb", "b.emb", "--prior", "b.prior",
          "--out", "o"]
DEEPWALK_W = ["train-deepwalk", "--input", "g.edges", "--prior", "w.prior",
              "--corpus", "w.walks", "--out", "o"]
CLASS_W = ["eval-class", "--features", "w.joint", "--labels", "l.txt", "--out", "o"]


def replaced(argv, flag, value):
    return [value if prev == flag else a for prev, a in zip([None] + argv, argv)]


@pytest.mark.parametrize("argv", [
    pytest.param(["facets", "--input", "nope.edges", "--out", "o"], id="input"),
    pytest.param(["facets", "--input", "g.edges", "--config", "nope.cfg",
                  "--out", "o"], id="config"),
    pytest.param(replaced(EVAL_W, "--graph", "nope.edges"), id="graph"),
    pytest.param(replaced(EVAL_W, "--test", "nope.edges"), id="test"),
    pytest.param(replaced(EVAL_W, "--emb", "nope.emb"), id="emb"),
    pytest.param(replaced(EVAL_W, "--prior", "nope.prior"), id="prior"),
    # the stem of nope.prior.a and nope.prior.b
    pytest.param(replaced(EVAL_B, "--prior", "nope.prior"), id="prior-cross"),
    pytest.param(replaced(EVAL_B, "--emb", "nope.emb"), id="emb-cross"),
    pytest.param(replaced(DEEPWALK_W, "--corpus", "nope.walks"), id="corpus"),
    pytest.param(replaced(CLASS_W, "--features", "nope.joint"), id="features"),
    pytest.param(replaced(CLASS_W, "--labels", "nope.txt"), id="labels"),
    pytest.param(["pipeline", "--input", "g.edges", "--labels", "nope.txt",
                  "--workdir", "o"], id="pipeline-labels"),
    pytest.param(["facets", "--input", "g.edges", "--out", "nope/o"], id="out"),
    pytest.param(["pipeline", "--input", "g.edges", "--workdir", "nope/w"],
                 id="workdir"),
])
def test_missing_file_returns_nonzero(artifacts, capsys, argv):
    capsys.readouterr()
    assert cli.run(in_artifacts(argv, artifacts)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(artifacts / "nope") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, words", [
    # a prior of another facet count than the tables
    pytest.param(replaced(EVAL_W, "--prior", "k3.prior"), "prior", id="prior-k"),
    # a prior of another node count than the tables
    pytest.param(replaced(EVAL_W, "--prior", "b.prior.a"), "prior", id="prior-nodes"),
    # a graph with more nodes than the tables have rows
    pytest.param(replaced(EVAL_W, "--graph", "g13.edges"), "graph", id="graph-nodes"),
    pytest.param(replaced(EVAL_B, "--graph", "b7.edges"), "graph", id="graph-cross"),
])
def test_eval_link_rejects_mismatched_inputs(artifacts, capsys, argv, words):
    run_ok(["facets", "--input", str(artifacts / "w.train.edges"), "--k", "3",
            "--out", str(artifacts / "k3.prior")])
    for name, header, more in (("g13", "12", "13"), ("b7", "8 6", "8 7")):
        train = (artifacts / f"{name[0].replace('g', 'w')}.train.edges").read_text()
        assert train.startswith(f"# nodes {header}\n")
        (artifacts / f"{name}.edges").write_text(train.replace(header, more, 1))
    capsys.readouterr()
    assert cli.run(in_artifacts(argv, artifacts)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "disagree" in err and words in err


def test_bad_parameter_returns_nonzero(tmp_path, sbm_file):
    rc = cli.run(["facets", "--input", str(sbm_file), "--k", "0",
                  "--out", str(tmp_path / "x")])
    assert rc == 1


def test_unknown_flag_exits_with_usage_error(sbm_file):
    with pytest.raises(SystemExit) as exc:
        cli.run(["facets", "--input", str(sbm_file), "--bogus", "1",
                 "--out", "x"])
    assert exc.value.code == 2


def test_manifest_records_resolved_parameters(tmp_path, sbm_file):
    out = tmp_path / "g.prior"
    run_ok(["facets", "--input", str(sbm_file), "--k", "2", "--seed", "5",
            "--out", str(out)])
    manifest = (tmp_path / "g.prior.manifest").read_text()
    assert "subcommand=facets" in manifest
    assert "seed=5" in manifest
    assert "alpha=0.05" in manifest


def test_manifest_records_the_engine(tmp_path, sbm_file, bipartite_file):
    run_ok(["facets", "--input", str(sbm_file), "--k", "2",
            "--out", str(tmp_path / "g.prior")])
    run_ok(["walks", "--input", str(sbm_file), "--walks-per-node", "2",
            "--walk-length", "4", "--out", str(tmp_path / "g.walks")])
    run_ok(["train-deepwalk", "--input", str(sbm_file),
            "--prior", str(tmp_path / "g.prior"),
            "--corpus", str(tmp_path / "g.walks"), "--dim", "3", "--epochs", "1",
            "--out", str(tmp_path / "dw")])
    run_ok(["facets", "--input", str(bipartite_file), "--kind", "bipartite",
            "--k", "2", "--out", str(tmp_path / "b.prior")])
    run_ok(["train-pte", "--input", str(bipartite_file),
            "--prior", str(tmp_path / "b.prior"), "--dim", "3",
            "--total-samples", "200", "--out", str(tmp_path / "pte")])
    for out in ("dw", "pte"):
        assert engine_line() in (tmp_path / f"{out}.manifest").read_text()


def test_manifest_records_the_values_that_ran(tmp_path, sbm_file, bipartite_file):
    small = ["--k", "2", "--dim", "3", "--num-negatives", "5", "--ks", "3"]
    run_ok(["pipeline", "--input", str(sbm_file), "--walks-per-node", "2",
            "--epochs", "1", *small, "--workdir", str(tmp_path / "dw")])
    run_ok(["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
            "--model", "pte", "--total-samples", "300", *small,
            "--workdir", str(tmp_path / "pte")])
    run_ok(["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
            "--model", "gcn", "--iterations", "3", *small,
            "--workdir", str(tmp_path / "gcn")])
    expected = {
        "dw": ["learning_rate=0.025", "facet_rate=1", "split=one-per-node"],
        "pte": ["learning_rate=0.025", "facet_rate=None",
                "split=latest-per-user"],
        "gcn": ["learning_rate=0.01", "negatives=1"],
    }
    for run, lines in expected.items():
        manifest = (tmp_path / f"{run}.report.manifest").read_text().splitlines()
        assert set(lines) <= set(manifest), run
    # a parameter the model does not read is left out
    gcn = (tmp_path / "gcn.report.manifest").read_text()
    assert "\nepochs=" not in gcn and "\nwindow=" not in gcn


def test_pipeline_rejects_the_parameters_of_another_model(tmp_path, capsys,
                                                         bipartite_file):
    config = tmp_path / "c.cfg"
    config.write_text("walk_length=4\n")
    gcn = ["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
           "--model", "gcn", "--workdir", str(tmp_path / "gcn")]
    for extra, name in ((["--epochs", "3"], "epochs"),
                        (["--config", str(config)], "walk_length")):
        assert cli.run(gcn + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
    assert not list(tmp_path.glob("gcn*"))


@pytest.mark.parametrize("argv", [
    ["pipeline", "--input", "g.edges", "--facet-rate", "0", "--workdir", "o"],
    ["pipeline", "--input", "g.edges", "--learning-rate", "0", "--workdir", "o"],
    ["pipeline", "--input", "b.edges", "--kind", "bipartite", "--model", "pte",
     "--total-samples", "0", "--workdir", "o"],
    ["train-pte", "--input", "b.edges", "--prior", "b.prior", "--facet-rate", "0",
     "--out", "o"],
    # node labels classify homogeneous nodes only; they are not dropped silently
    ["pipeline", "--input", "b.edges", "--kind", "bipartite", "--model", "pte",
     "--labels", "l.txt", "--workdir", "o"],
])
def test_explicit_zero_is_an_error(tmp_path, capsys, sbm_file, bipartite_file,
                                   argv):
    run_ok(["facets", "--input", str(bipartite_file), "--kind", "bipartite",
            "--k", "2", "--out", str(tmp_path / "b.prior")])
    (tmp_path / "l.txt").write_text("0 x\n1 y\n")
    capsys.readouterr()
    files = {"g.edges", "b.edges", "b.prior", "o", "l.txt"}
    assert cli.run([str(tmp_path / a) if a in files else a for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["facets", "--input", "g.edges", "--out", "o"],
    ["walks", "--input", "g.edges", "--out", "o"],
    ["pipeline", "--input", "g.edges", "--workdir", "o"],
    DEEPWALK_W,
    ["train-pte", "--input", "b.edges", "--prior", "b.prior", "--out", "o"],
    ["train-gcn", "--input", "b.edges", "--prior", "b.prior", "--out", "o"],
    CLASS_W,
    EVAL_W,
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_an_error(artifacts, capsys, tmp_path, argv, where):
    if where == "flag":
        extra = ["--seed", "-1"]
    else:
        (tmp_path / "seed.cfg").write_text("seed=-1\n")
        extra = ["--config", str(tmp_path / "seed.cfg")]
    capsys.readouterr()
    assert cli.run(in_artifacts(argv, artifacts) + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert not (artifacts / "o").exists()


@pytest.mark.parametrize("argv, config, message", [
    pytest.param(["train-gcn", "--input", "b.edges", "--prior", "b.prior",
                  "--threshold", "nan", "--out", "o"], None,
                 "threshold must be nonnegative", id="threshold"),
    pytest.param(["train-pte", "--input", "b.edges", "--prior", "b.prior",
                  "--learning-rate", "nan", "--out", "o"], None,
                 "learning_rate must be positive", id="learning_rate"),
    pytest.param(["facets", "--input", "g.edges", "--out", "o"], "max_iters=-5\n",
                 "max_iters must be positive", id="max_iters"),
    pytest.param(["facets", "--input", "g.edges", "--out", "o"], "tol=nan\n",
                 "tol must be nonnegative", id="tol"),
    pytest.param(EVAL_W + ["--num-negatives", "0"], None,
                 "num_negatives must be positive", id="eval-link-num_negatives"),
    pytest.param(EVAL_W + ["--ks", "10,x"], None, "bad --ks value '10,x'",
                 id="eval-link-ks"),
])
def test_a_setting_out_of_bounds_is_an_error(artifacts, capsys, tmp_path, argv,
                                             config, message):
    # a NaN threshold trained nothing, a NaN rate diverged, max_iters=-5
    # wrote the NMF's random start and tol=nan never stopped early
    extra = []
    if config:
        (tmp_path / "bounds.cfg").write_text(config)
        extra = ["--config", str(tmp_path / "bounds.cfg")]
    capsys.readouterr()
    assert cli.run(in_artifacts(argv, artifacts) + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (artifacts / "o").exists()


@pytest.mark.parametrize("kind, flag, value", [
    ("homogeneous", "--k", "0"), ("bipartite", "--k", "0"),
    ("homogeneous", "--alpha", "nan")])
def test_a_rejected_nmf_setting_leaves_no_pipeline_artifacts(
        tmp_path, capsys, sbm_file, kind, flag, value):
    model = "deepwalk" if kind == "homogeneous" else "pte"
    capsys.readouterr()
    assert cli.run(["pipeline", "--input", str(sbm_file), "--kind", kind,
                    "--model", model, flag, value,
                    "--workdir", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == [sbm_file.name]


@pytest.mark.parametrize("model, flag, value, message", [
    pytest.param("deepwalk", "--learning-rate", "nan", "learning_rate must be positive",
                 id="deepwalk-learning-rate"),
    pytest.param("pte", "--learning-rate", "nan", "learning_rate must be positive",
                 id="pte-learning-rate"),
    pytest.param("gcn", "--learning-rate", "nan", "learning_rate must be positive",
                 id="gcn-learning-rate"),
    pytest.param("deepwalk", "--walks-per-node", "0", "walks_per_node must be positive",
                 id="deepwalk-walks-per-node"),
    pytest.param("deepwalk", "--num-negatives", "0", "num_negatives must be positive",
                 id="deepwalk-num-negatives"),
    pytest.param("pte", "--num-negatives", "0", "num_negatives must be positive",
                 id="pte-num-negatives"),
    pytest.param("deepwalk", "--ks", "0", "bad --ks value '0'",
                 id="deepwalk-ks"),
    pytest.param("gcn", "--ks", "x", "bad --ks value 'x'",
                 id="gcn-ks"),
])
def test_a_rejected_setting_leaves_no_pipeline_artifacts(tmp_path, capsys, model,
                                                         flag, value, message):
    # the split, the prior and the walks were written before the trainer's
    # settings were checked, and the tables before the report's
    (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    kind = "homogeneous" if model == "deepwalk" else "bipartite"
    capsys.readouterr()
    assert cli.run(["pipeline", "--input", str(tmp_path / "g.edges"), "--kind", kind,
                    "--model", model, "--k", "2", flag, value,
                    "--workdir", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.edges"]


def test_manifest_records_the_candidate_draw(tmp_path, bipartite_file, monkeypatch):
    pipeline = ["pipeline", "--input", str(bipartite_file), "--kind", "bipartite",
                "--model", "pte", "--k", "2", "--dim", "3", "--total-samples", "300",
                "--num-negatives", "3", "--ks", "3"]
    evaluate = ["eval-link", "--mode", "cross", "--num-negatives", "19"]

    def run(path):
        run_ok(pipeline + ["--workdir", str(tmp_path / path)])
        with pytest.warns(UserWarning, match="non-neighbors"):
            run_ok(evaluate + [f"--{name}={tmp_path / path}.{suffix}" for name, suffix in (
                ("graph", "train.edges"), ("test", "test.edges"), ("emb", "emb"),
                ("prior", "prior"))] + ["--out", str(tmp_path / f"{path}.eval")])

    run("c")
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        run("numpy")
    # 20 items: every user's pool holds 3 items, and none holds 19
    compiled = "numpy" if kernel.function("draw_candidates") is None else "c"
    users = len((tmp_path / "c.test.edges").read_text().splitlines())
    for path, draw in (("c", compiled), ("numpy", "numpy")):
        for out, short in ((f"{path}.report", 0), (f"{path}.eval", users)):
            manifest = (tmp_path / f"{out}.manifest").read_text().splitlines()
            assert {f"eval.candidates={draw}", f"eval.pool_short={short}"} <= set(manifest)
            assert "eval." not in (tmp_path / out).read_text()
    for out in ("report", "eval"):
        assert (tmp_path / f"c.{out}").read_bytes() == (tmp_path / f"numpy.{out}").read_bytes()


def test_num_negatives_beyond_the_graph_take_every_pool(tmp_path):
    """The candidate matrix is sized by the graph, not by --num-negatives:
    on 4 nodes, 10^12 negatives report what 1000 do."""
    path = tmp_path / "g.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    pipeline = ["pipeline", "--input", str(path), "--k", "2", "--dim", "3",
                "--walks-per-node", "2", "--epochs", "1", "--ks", "1"]
    metrics = []
    for n in ("1000", "1000000000000"):
        with pytest.warns(UserWarning, match="non-neighbors"):
            run_ok(pipeline + ["--num-negatives", n, "--workdir", str(tmp_path / n)])
        lines = (tmp_path / f"{n}.report").read_text().splitlines()
        metrics.append([line for line in lines if line.startswith(("hr@", "auc="))])
    assert len(metrics[0]) == 2 and metrics[0] == metrics[1]


def test_manifest_records_the_facet_counts(tmp_path, sbm_file, bipartite_file,
                                          monkeypatch):
    """train.facet_counts of the table trainers: the same on both decode
    paths, two activations a step, none of a facet every prior rules out,
    and never in the report."""
    dist = np.random.default_rng(0).random((24, 3))
    dist[:, 2] = 0.0
    save_matrix(tmp_path / "g.prior", dist)
    run_ok(["walks", "--input", str(sbm_file), "--walks-per-node", "2",
            "--walk-length", "4", "--out", str(tmp_path / "g.walks")])
    run_ok(["facets", "--input", str(bipartite_file), "--kind", "bipartite",
            "--k", "2", "--out", str(tmp_path / "b.prior")])
    small = ["--dim", "3", "--total-samples", "200", "--facet-rate", "3"]
    runs = {
        "dw": ["train-deepwalk", "--input", str(sbm_file), "--prior",
               str(tmp_path / "g.prior"), "--corpus", str(tmp_path / "g.walks"),
               "--dim", "3", "--epochs", "1", "--out"],
        "pte": ["train-pte", "--input", str(bipartite_file), "--prior",
                str(tmp_path / "b.prior"), *small, "--out"],
        "pipeline-dw": ["pipeline", "--input", str(sbm_file), "--k", "2",
                        "--dim", "3", "--walks-per-node", "2", "--epochs", "1",
                        "--num-negatives", "5", "--ks", "3", "--workdir"],
        "pipeline-pte": ["pipeline", "--input", str(bipartite_file), "--kind",
                         "bipartite", "--model", "pte", "--k", "2", *small,
                         "--num-negatives", "5", "--ks", "3", "--workdir"]}

    def counts(path):
        out = {}
        for run, argv in runs.items():
            prefix = tmp_path / f"{path}-{run}"
            run_ok(argv + [str(prefix)])
            manifest = Path(f"{prefix}{'.report' * run.startswith('pipeline')}.manifest")
            line, = [x for x in manifest.read_text().splitlines()
                     if x.startswith("train.facet_counts=")]
            out[run] = [int(c) for c in line.split("=")[1].split(",")]
        assert "facet_counts" not in (tmp_path / f"{path}-pipeline-pte.report").read_text()
        return out

    compiled = counts("c")
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        assert counts("numpy") == compiled
    assert len(compiled["dw"]) == 3 and compiled["dw"][2] == 0
    assert min(compiled["dw"][:2]) > 0
    assert sum(compiled["pte"]) == sum(compiled["pipeline-pte"]) == 2 * 200 * 3
    assert all(len(c) == 2 and min(c) > 0 for run, c in compiled.items() if run != "dw")


FIVE_NODES = "0 1\n1 2\n2 3\n3 4\n"
NOT_UTF8 = b"0 1\n1 \xff\n"
FACETS = ["facets", "--input", "g.edges", "--config", "c.cfg", "--out", "out"]
EVAL_LINK = ["eval-link", "--graph", "g.edges", "--test", "t.edges", "--emb", "e",
             "--prior", "p", "--out", "out"]
MALFORMED = {
    # name: (files, argv, line the error must name)
    "edge-list-node-count": (
        {"g.edges": "# nodes abc\n0 1\n1 2\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 1"),
    "edge-list-weight": (
        {"g.edges": "0 1\n1 2 x\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 2"),
    "edge-list-field-count": (
        {"g.edges": "0 1\n1 2 1 5 9\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 2"),
    "edge-list-negative-weight": (
        {"g.edges": "0 1\n1 2 -1\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 2"),
    "edge-list-nodes-count": (
        {"g.edges": "# nodes 3 4\n0 1\n1 2\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 1"),
    # integers beyond int64
    "edge-list-id-beyond-int64": (
        {"g.edges": "0 1\n0 99999999999999999999\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 2"),
    "edge-list-count-beyond-int64": (
        {"g.edges": "# nodes 99999999999999999999\n0 1\n"},
        ["walks", "--input", "g.edges", "--out", "out"], "g.edges line 1"),
    "edge-list-timestamp-beyond-int64": (
        {"g.edges": "0 1 1 99999999999999999999\n"},
        ["facets", "--input", "g.edges", "--kind", "bipartite", "--out", "out"],
        "g.edges line 1"),
    # ids and counts within int64 whose graph numpy cannot allocate
    "edge-list-id-beyond-memory": (
        {"g.edges": "0 4611686018427387904\n"},
        ["walks", "--input", "g.edges", "--out", "out"],
        "g.edges: a graph of 4611686018427387905 nodes"),
    "edge-list-count-beyond-memory": (
        {"g.edges": "# nodes 4611686018427387904\n0 1\n"},
        ["walks", "--input", "g.edges", "--out", "out"],
        "g.edges: a graph of 4611686018427387904 nodes"),
    "corpus-id-beyond-int64": (
        {"g.edges": "0 1\n1 2\n", "p.prior": "3 1\n0 1\n1 1\n2 1\n",
         "c.walks": "0 1 99999999999999999999\n"},
        ["train-deepwalk", "--input", "g.edges", "--prior", "p.prior",
         "--corpus", "c.walks", "--out", "out"], "c.walks line 1"),
    "embedding-field": (
        {"e.emb": "2 1 2\n0 0 0.1 0.2\n1 0 0.3 zz\n", "p.prior": "2 1\n0 1\n1 1\n"},
        ["embed", "--emb", "e.emb", "--prior", "p.prior", "--out", "out"],
        "e.emb line 3"),
    "prior-header": (
        {"e.emb": "2 1 2\n0 0 0.1 0.2\n1 0 0.3 0.4\n", "p.prior": "2 x\n0 1\n1 1\n"},
        ["embed", "--emb", "e.emb", "--prior", "p.prior", "--out", "out"],
        "p.prior line 1"),
    "prior-value": (
        {"e.emb": "2 1 2\n0 0 0.1 0.2\n1 0 0.3 0.4\n", "p.prior": "2 1\n0 1\n1 abc\n"},
        ["embed", "--emb", "e.emb", "--prior", "p.prior", "--out", "out"],
        "p.prior line 3"),
    "corpus-token": (
        {"g.edges": "0 1\n1 2\n", "p.prior": "3 1\n0 1\n1 1\n2 1\n",
         "c.walks": "0 1 2\n1 q\n"},
        ["train-deepwalk", "--input", "g.edges", "--prior", "p.prior",
         "--corpus", "c.walks", "--out", "out"], "c.walks line 2"),
    "corpus-negative-id": (
        {"g.edges": "0 1\n1 2\n", "p.prior": "3 1\n0 1\n1 1\n2 1\n",
         "c.walks": "0 1 2\n1 -1\n"},
        ["train-deepwalk", "--input", "g.edges", "--prior", "p.prior",
         "--corpus", "c.walks", "--out", "out"], "c.walks line 2"),
    "joint-field": (
        {"j.joint": "2 2\n0 1 2\n1 x 3\n", "l.txt": "0 a\n1 b\n"},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "j.joint line 3"),
    "label-node-id": (
        {"j.joint": "2 2\n0 1 2\n1 3 4\n", "l.txt": "0 a\nx b\n"},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "l.txt line 2"),
    "label-one-field": (
        {"j.joint": "2 2\n0 1 2\n1 3 4\n", "l.txt": "0 a\n1\n"},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "l.txt line 2: expected 2 fields"),
    "label-node-out-of-range": (
        {"j.joint": "2 2\n0 1 2\n1 3 4\n", "l.txt": "0 a\n5 b\n"},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "l.txt line 2"),
    # pipeline resolves label-file nodes through the graph's names
    "label-unknown-name": (
        {"g.edges": "3 2\n2 1\n1 0\na 3\n", "l.txt": "a x\nzz y\n"},
        ["pipeline", "--input", "g.edges", "--labels", "l.txt", "--workdir", "out"],
        "l.txt line 2"),
    # eval-link reads the test edges before the prior and the tables
    "test-edge-token": (
        {"g.edges": FIVE_NODES, "t.edges": "0 1\n0 x1\n"}, EVAL_LINK, "t.edges line 2"),
    "test-edge-out-of-range": (
        {"g.edges": FIVE_NODES, "t.edges": "0 1\n0 99\n"}, EVAL_LINK, "t.edges line 2"),
    "test-edge-negative-id": (
        {"g.edges": FIVE_NODES, "t.edges": "0 1\n-1 2\n"}, EVAL_LINK, "t.edges line 2"),
    "test-edge-unknown-label": (
        {"g.edges": "a b\nb c\n", "t.edges": "a b\na zz\n"}, EVAL_LINK,
        "t.edges line 2"),
    "prior-negative-count": (
        {"e.emb": "2 1 2\n0 0 0.1 0.2\n1 0 0.3 0.4\n", "p.prior": "-1 2\n"},
        ["embed", "--emb", "e.emb", "--prior", "p.prior", "--out", "out"],
        "p.prior line 1"),
    "embedding-negative-count": (
        {"e.emb": "2 -1 2\n", "p.prior": "2 1\n0 1\n1 1\n"},
        ["embed", "--emb", "e.emb", "--prior", "p.prior", "--out", "out"],
        "e.emb line 1"),
    "joint-negative-count": (
        {"j.joint": "-2 2\n", "l.txt": "0 a\n1 b\n"},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "j.joint line 1"),
    # a config value must parse as the key's type and be one of its choices
    "config-int": ({"g.edges": FIVE_NODES, "c.cfg": "k=abc\n"}, FACETS,
                   "c.cfg: k='abc'"),
    "config-float": ({"g.edges": FIVE_NODES, "c.cfg": "alpha=0.1x\n"}, FACETS,
                     "c.cfg: alpha='0.1x'"),
    "config-choice": ({"g.edges": FIVE_NODES, "c.cfg": "kind=tree\n"}, FACETS,
                      "c.cfg: kind='tree'"),
    "config-bool": (
        {"g.edges": FIVE_NODES, "c.cfg": "weighted=maybe\n"},
        ["walks", "--input", "g.edges", "--config", "c.cfg", "--out", "out"],
        "c.cfg: weighted='maybe'"),
    # every text input must be UTF-8
    "edge-list-not-utf8": (
        {"g.edges": NOT_UTF8}, ["walks", "--input", "g.edges", "--out", "out"],
        "g.edges: not UTF-8"),
    "labels-not-utf8": (
        {"j.joint": "2 2\n0 1 2\n1 3 4\n", "l.txt": NOT_UTF8},
        ["eval-class", "--features", "j.joint", "--labels", "l.txt",
         "--out", "out"], "l.txt: not UTF-8"),
    "corpus-not-utf8": (
        {"g.edges": "0 1\n1 2\n", "p.prior": "3 1\n0 1\n1 1\n2 1\n",
         "c.walks": NOT_UTF8},
        ["train-deepwalk", "--input", "g.edges", "--prior", "p.prior",
         "--corpus", "c.walks", "--out", "out"], "c.walks: not UTF-8"),
    "test-edges-not-utf8": (
        {"g.edges": FIVE_NODES, "t.edges": NOT_UTF8}, EVAL_LINK,
        "t.edges: not UTF-8"),
    "config-not-utf8": ({"g.edges": FIVE_NODES, "c.cfg": NOT_UTF8}, FACETS,
                        "c.cfg: not UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_number_is_a_parse_error(tmp_path, capsys, case):
    files, argv, where = MALFORMED[case]
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes)
                                      else text.encode())
    flags_with_paths = {"--input", "--emb", "--prior", "--corpus", "--out",
                        "--features", "--labels", "--graph", "--test",
                        "--config", "--workdir"}
    argv = [str(tmp_path / a) if i and argv[i - 1] in flags_with_paths else a
            for i, a in enumerate(argv)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


def test_graph_over_the_dense_guard_runs_sparse(tmp_path):
    # 20,000 x 6,000 cells exceed graph.DENSE_GUARD; only the edges are stored
    rng = np.random.default_rng(4)
    num_a, num_b = 20_000, 6_000
    assert num_a * num_b > graph.DENSE_GUARD
    a_ids = np.concatenate([np.arange(num_a), rng.integers(0, num_a, 2_000)])
    b_ids = rng.integers(0, num_b, len(a_ids))
    path = tmp_path / "wide.edges"
    path.write_text(f"# nodes {num_a} {num_b}\n"
                    + "".join(f"{a} {b}\n" for a, b in zip(a_ids, b_ids)))
    prior = tmp_path / "wide.prior"
    run_ok(["facets", "--input", str(path), "--kind", "bipartite", "--k", "2",
            "--max-iters", "20", "--out", str(prior)])
    run_ok(["train-gcn", "--input", str(path), "--prior", str(prior),
            "--dim", "2", "--iterations", "2", "--out", str(tmp_path / "wide.emb")])
    assert load_matrix(tmp_path / "wide.emb.b", "N K D").shape == (num_b, 2, 2)


# Every long flag (besides `--config`, which every subcommand has) and every
# config key of each subcommand.
CLI_SURFACE = {
    "facets": ("--input --kind --k --alpha --max-iters --tol --seed --out",
               "kind k alpha max_iters tol seed"),
    "walks": ("--input --walks-per-node --walk-length --uniform --seed --out",
              "walks_per_node walk_length weighted seed"),
    "train-deepwalk": (
        "--input --prior --corpus --dim --negatives --facet-rate --epochs "
        "--learning-rate --window --seed --export-context --out",
        "dim negatives facet_rate epochs learning_rate window seed"),
    "train-pte": (
        "--input --prior --dim --negatives --facet-rate --total-samples "
        "--learning-rate --facet-mode --weighted-edges --seed --out",
        "dim negatives facet_rate total_samples learning_rate facet_mode "
        "weighted_edges seed"),
    "train-gcn": (
        "--input --prior --dim --depth --iterations --learning-rate --negatives "
        "--threshold --neighbor-mode --seed --export-fadj --out",
        "dim depth iterations learning_rate negatives threshold neighbor_mode "
        "seed"),
    "embed": ("--emb --prior --plain --out", "weighted"),
    "eval-link": ("--graph --test --emb --prior --mode --num-negatives --ks "
                  "--seed --out", "mode num_negatives ks seed"),
    "eval-class": ("--features --labels --train-fraction --no-shuffle --seed --out",
                   "train_fraction shuffle seed"),
    "pipeline": (
        "--input --kind --model --k --dim --alpha --max-iters --tol --split "
        "--walks-per-node --walk-length --window --negatives --facet-rate "
        "--epochs --total-samples --learning-rate --iterations --depth "
        "--num-negatives --ks --seed --labels --workdir",
        "kind model k dim alpha max_iters tol walks_per_node walk_length window "
        "negatives facet_rate epochs total_samples learning_rate iterations "
        "depth num_negatives ks split seed"),
}


def test_cli_surface_is_pinned(tmp_path, capsys):
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(CLI_SURFACE)
    every_key = {k for _, keys in CLI_SURFACE.values() for k in keys.split()}
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{k}=1\n" for k in sorted(every_key | {"zz"})))
    for name, (flags, keys) in CLI_SURFACE.items():
        actions = subparsers[name]._actions
        long_flags = {s for a in actions for s in a.option_strings
                      if s.startswith("--")}
        assert long_flags == set(flags.split()) | {"--config", "--help"}
        # the unknown-key error names exactly the keys the subcommand lacks
        argv = [name, "--config", str(config)]
        argv += [s for a in actions if a.required for s in (a.option_strings[0], "x")]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        unknown = set(err.split("unknown config key(s) ", 1)[1].strip().split(", "))
        assert every_key - unknown == set(keys.split()), name


def parse_output(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing `argv`, which must exit."""
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_parser_for_one_command_reads_as_the_full_parser(name, capsys):
    """`build_parser(argv)` adds flags only to the subcommand argv names;
    its help and its errors equal those of the parser with every flag."""
    for argv in ([name, "--help"], [name, "--bogus", "1"], [name]):
        assert (parse_output(cli.build_parser(argv), argv, capsys)
                == parse_output(cli.build_parser(), argv, capsys)), argv
    subparsers = cli.build_parser([name])._subparsers._group_actions[0].choices
    assert set(subparsers) == set(cli.COMMANDS)
    assert [len(p._actions) > 1 for p in subparsers.values()] == [
        other == name for other in cli.COMMANDS]


@pytest.mark.parametrize("argv", [["--help"], ["nope"], [], ["-x"]])
def test_parser_without_a_command_builds_every_flag(argv, capsys):
    parser = cli.build_parser(argv)
    subparsers = parser._subparsers._group_actions[0].choices
    assert all(len(p._actions) > 1 for p in subparsers.values())
    assert (parse_output(parser, argv, capsys)
            == parse_output(cli.build_parser(), argv, capsys))


# ------------------------------------------------------------ settings sweep

# The changed value of each parameter that takes a number or text. A switch
# is given bare, and a parameter with choices takes the choice after the one
# the base run used, as its manifest records it.
CHANGED = {"k": 3, "alpha": 0.5, "max_iters": 3, "tol": 0.1, "walks_per_node": 3,
           "walk_length": 5, "window": 3, "dim": 4, "negatives": 3,
           "facet_rate": 2, "epochs": 2, "total_samples": 300,
           "learning_rate": 0.05, "depth": 1, "iterations": 4, "threshold": 0.3,
           "num_negatives": 6, "ks": "2", "train_fraction": 0.6, "seed": 1}
# settings that these subcommands took and never read; they must stay rejected
DROPPED = [("walks", "window"), ("embed", "seed")] + [
    (name, "alpha") for name in ("train-deepwalk", "train-pte", "train-gcn",
                                 "embed", "eval-link")]
SMALL = ["--k", "2", "--dim", "3", "--negatives", "2", "--num-negatives", "5",
         "--ks", "3"]
SWEEP_RUNS = {
    "facets": ["facets", "--input", "g.edges", "--k", "2"],
    "walks": ["walks", "--input", "g.edges", "--walks-per-node", "2",
              "--walk-length", "4"],
    "train-deepwalk": ["train-deepwalk", "--input", "g.edges", "--prior", "g.prior",
                       "--corpus", "g.walks", "--dim", "3", "--negatives", "2",
                       "--epochs", "1", "--window", "2"],
    "train-pte": ["train-pte", "--input", "b.edges", "--prior", "b.prior",
                  "--dim", "3", "--negatives", "2", "--total-samples", "200"],
    "train-gcn": ["train-gcn", "--input", "b.edges", "--prior", "b.prior",
                  "--dim", "3", "--iterations", "3"],
    "embed": ["embed", "--emb", "g.emb", "--prior", "g.prior"],
    "eval-link": ["eval-link", "--graph", "w.train.edges", "--test", "w.test.edges",
                  "--emb", "w.emb", "--prior", "w.prior", "--mode", "cross",
                  "--num-negatives", "5", "--ks", "3"],
    "eval-class": ["eval-class", "--features", "g.joint", "--labels", "g.labels"],
    "pipeline-deepwalk": ["pipeline", "--input", "g.edges", "--model", "deepwalk",
                          *SMALL, "--walks-per-node", "2", "--walk-length", "4",
                          "--window", "2", "--epochs", "1"],
    "pipeline-pte": ["pipeline", "--input", "b.edges", "--kind", "bipartite",
                     "--model", "pte", *SMALL, "--total-samples", "200"],
    "pipeline-gcn": ["pipeline", "--input", "b.edges", "--kind", "bipartite",
                     "--model", "gcn", *SMALL, "--iterations", "3"],
}
SWEEP_CASES = [pytest.param(run, key, id=f"{run}-{key}")
               for run, argv in SWEEP_RUNS.items()
               for key in dict.fromkeys(cli.COMMANDS[argv[0]].params.split()
                                        + [k for n, k in DROPPED if n == argv[0]])]


PATH_FLAGS = {"--input", "--prior", "--corpus", "--emb", "--graph", "--test",
              "--features", "--labels", "--out", "--workdir"}


def in_dir(argv, d):
    """`argv` with the value of each path flag taken as a name in `d`."""
    return [str(d / a) if i and argv[i - 1] in PATH_FLAGS else a
            for i, a in enumerate(argv)]


def out_flag(argv):
    return "--workdir" if argv[0] == "pipeline" else "--out"


def outputs(argv):
    """Exit code of `argv`, then the bytes of each file under its output
    prefix but the manifest, and the manifest as a dict."""
    code = cli.run(argv)
    prefix = Path(argv[argv.index(out_flag(argv)) + 1])
    files = {p.name[len(prefix.name):]: p.read_bytes()
             for p in prefix.parent.glob(prefix.name + "*")}
    manifest = files.pop((".report" if argv[0] == "pipeline" else "") + ".manifest",
                         b"").decode()
    return code, files, dict(line.split("=", 1) for line in manifest.splitlines())


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The directory of the small weighted fixtures the sweep runs on, and
    the outputs of each base run, computed once."""
    d = tmp_path_factory.mktemp("sweep")
    rng = np.random.default_rng(3)
    for name, offset in (("g.edges", 1), ("b.edges", 0)):
        (d / name).write_text("".join(
            f"{i} {j} {rng.integers(1, 4)}\n" for i in range(20)
            for j in range(i + offset, 20)
            if rng.random() < (0.5 if (i < 10) == (j < 10) else 0.05)))
    (d / "g.labels").write_text("".join(f"{i} {'xy'[i >= 10]}\n" for i in range(20)))
    for argv in (SWEEP_RUNS["facets"] + ["--out", "g.prior"],
                 ["facets", "--input", "b.edges", "--kind", "bipartite", "--k", "2",
                  "--out", "b.prior"],
                 SWEEP_RUNS["walks"] + ["--out", "g.walks"],
                 SWEEP_RUNS["train-deepwalk"] + ["--out", "g.emb"],
                 SWEEP_RUNS["embed"] + ["--out", "g.joint"],
                 SWEEP_RUNS["pipeline-pte"] + ["--workdir", "w"]):
        assert cli.run(in_dir(argv, d)) == 0
    base = {run: outputs(in_dir(argv + [out_flag(argv), f"base-{run}"], d))
            for run, argv in SWEEP_RUNS.items()}
    return d, base


@pytest.mark.parametrize("run, key", SWEEP_CASES)
def test_every_parameter_changes_the_run(tmp_path, capsys, sweep, run, key):
    """Every setting a run accepts changes an output byte or is rejected."""
    d, base = sweep
    code, files, manifest = base[run]
    assert code == 0 and files
    argv = SWEEP_RUNS[run]
    param = cli.PARAMS[key]
    if param.const is not None:
        value = param.const
    elif param.choices:
        used = manifest.get(key, param.choices[-1])
        value = param.choices[(param.choices.index(used) + 1) % len(param.choices)]
    else:
        value = CHANGED[key]
        assert str(value) != manifest.get(key)
    flag = "--" + key.replace("_", "-")
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    if flag in subparsers[argv[0]]._option_string_actions:
        change = [flag] if param.const is not None else [flag, str(value)]
    else:
        (tmp_path / "c.cfg").write_text(f"{param.dest or key}={value}\n")
        change = ["--config", str(tmp_path / "c.cfg")]
    changed_code, changed_files, _ = outputs(
        in_dir(argv, d) + change + [out_flag(argv), str(tmp_path / "o")])
    capsys.readouterr()
    assert changed_code == 1 or (changed_code == 0 and changed_files != files)


def test_every_config_field_is_a_parameter():
    """A trainer setting no run can set is a hidden knob: every field of the
    CLI's config dataclasses is a PARAMS key, by its `dest` or its name."""
    keys = {param.dest or name for name, param in cli.PARAMS.items()}
    hidden = [f"{cls.__name__}.{f.name}"
              for cls in (walks.WalkConfig, polydeepwalk.TrainConfig,
                          polypte.PteConfig, polygcn.GcnConfig)
              for f in fields(cls) if f.name not in keys]
    assert hidden == []
