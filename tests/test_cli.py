import csv
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from corpus import generate, write_csv
from geoscatt import cli, graphcore
from geoscatt.cli import main
from geoscatt.evalhead import LogRegConfig
from geoscatt.scatter2d import rasterize
from geoscatt.fileio import read_fmat, write_fmat


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "mols.csv"
    write_csv(path, generate(60, seed=14))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, dataset_csv):
    wd = tmp_path_factory.mktemp("wd")
    rc = main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
               "--seed", "7"])
    assert rc == 0
    rc = main(["featurize-gst", "--workdir", str(wd), "--seed", "7",
               "--threads", "2"])
    assert rc == 0
    return wd


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_ingest_writes_manifest_and_records(workdir):
    manifest = (workdir / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "canonical_key,label,split"
    assert len(manifest) == 61
    splits = [line.split(",")[2] for line in manifest[1:]]
    assert splits.count("test") == 12  # 20% of 60, stratified
    log = (workdir / "logs" / "ingest.log").read_text()
    assert "seed=7" in log and "config_digest=" in log


def test_gst_features_have_table_dimensions(workdir):
    m = read_fmat(workdir / "ggs.fmat")
    assert m.shape == (60, 595)
    cols = (workdir / "ggs.columns.csv").read_text().strip().splitlines()
    assert len(cols) == 596
    assert cols[1].endswith("hann.m0.f0")


def test_reruns_are_byte_identical(workdir, dataset_csv):
    before = {p.name: digest(p) for p in workdir.iterdir() if p.is_file()}
    assert main(["ingest", "--input", str(dataset_csv), "--workdir",
                 str(workdir), "--seed", "7"]) == 0
    assert main(["featurize-gst", "--workdir", str(workdir), "--seed", "7",
                 "--threads", "4"]) == 0
    after = {name: digest(workdir / name) for name in before}
    assert before == after


def test_full_pipeline_and_artifacts(workdir):
    wd = str(workdir)
    assert main(["train-gin", "--workdir", wd, "--seed", "7",
                 "--epochs", "8"]) == 0
    assert main(["export-embeddings", "--workdir", wd, "--seed", "7"]) == 0
    assert main(["build-metagraph", "--workdir", wd, "--seed", "7"]) == 0
    assert main(["train-sage", "--workdir", wd, "--seed", "7",
                 "--epochs", "40"]) == 0
    assert main(["fit-head", "--workdir", wd, "--seed", "7",
                 "--features", wd + "/ggs.fmat"]) == 0
    assert main(["evaluate", "--workdir", wd, "--seed", "7",
                 "--features", wd + "/ggs.fmat",
                 "--head", wd + "/head.json"]) == 0
    assert main(["evaluate", "--workdir", wd, "--seed", "7", "--sage"]) == 0
    assert main(["cv", "--workdir", wd, "--seed", "7",
                 "--features", wd + "/ggs.fmat", "--k", "4"]) == 0

    emb = read_fmat(workdir / "gin_embeddings.fmat")
    assert emb.shape == (60, 128)
    weights = read_fmat(workdir / "metagraph_weights.fmat")
    assert weights.shape == (60, 60)
    assert np.max(np.abs(weights - weights.T)) == 0.0
    assert (workdir / "cv_ggs.csv").exists()
    assert (workdir / "eval_sage.csv").exists()
    curve = (workdir / "gin_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_loss"
    assert len(curve) == 9

    def log_fields(command):
        text = (workdir / "logs" / f"{command}.log").read_text()
        return dict(line.split("=", 1) for line in text.splitlines())

    for command in ("ingest", "featurize-gst", "train-gin", "export-embeddings",
                    "build-metagraph", "train-sage", "fit-head", "evaluate",
                    "cv"):
        fields = log_fields(command)
        assert float(fields["wall_s"]) > 0.0, command
        assert float(fields["peak_rss_mb"]) > 10.0, command
    sage = log_fields("train-sage")
    assert float(sage["layer1_input_s"]) > 0.0
    for command in ("train-gin", "train-sage"):
        fields = log_fields(command)
        assert 0.0 < float(fields["epoch_s_mean"]) <= float(fields["epoch_s_max"])
    head = log_fields("fit-head")
    assert float(head["grad_norm"]) < float(head["tol"]) == 1e-6
    assert 1 <= int(head["newton_iters"]) <= 100
    cv = log_fields("cv")
    assert float(cv["max_grad_norm"]) < float(cv["tol"]) == 1e-6
    assert 1 <= int(cv["max_newton_iters"]) <= 100


def test_cv_on_all_rows(workdir, tmp_path):
    wd = tmp_path / "wd"
    assert main(["cv", "--workdir", str(wd), "--seed", "7",
                 "--manifest", str(workdir / "manifest.csv"),
                 "--features", str(workdir / "ggs.fmat"), "--k", "3",
                 "--split", "all"]) == 0
    manifest = (workdir / "manifest.csv").read_text().splitlines()[1:]
    log = (wd / "logs" / "cv.log").read_text().splitlines()
    assert f"rows={len(manifest)}" in log
    assert any(line.endswith(",test") for line in manifest)
    with open(wd / "cv_ggs.csv", newline="") as fh:
        first_cells = [row[0] for row in csv.reader(fh)]
    assert first_cells == ["fold", "0", "1", "2", "mean", "std", "pooled_auc"]


def test_featurize_2d_with_selection(tmp_path, dataset_csv):
    wd = tmp_path / "wd2d"
    config = tmp_path / "run.ini"
    config.write_text("[scatter2d]\nj = 4\nl = 4\nsize = 32\n")
    small = tmp_path / "small.csv"
    write_csv(small, generate(24, seed=3))
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "3"]) == 0
    assert main(["featurize-2d", "--workdir", str(wd), "--seed", "3",
                 "--config", str(config), "--k-select", "50"]) == 0
    m = read_fmat(wd / "scat2d.fmat")
    assert m.shape == (24, 50)
    selected = (wd / "scat2d.selected.csv").read_text().splitlines()
    assert len(selected) == 51


def test_config_file_flag_precedence(tmp_path, dataset_csv):
    config = tmp_path / "cfg.ini"
    config.write_text("[run]\nseed = 1\ntest_fraction = 0.5\n")
    wd = tmp_path / "wd"
    # flag --seed wins over the config value
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--config", str(config), "--seed", "9"]) == 0
    log = (wd / "logs" / "ingest.log").read_text()
    assert "seed=9" in log
    manifest = (wd / "manifest.csv").read_text().strip().splitlines()[1:]
    splits = [line.split(",")[2] for line in manifest]
    assert splits.count("test") == 30  # config test_fraction still applies


def test_seed_is_mandatory(tmp_path, dataset_csv):
    rc = main(["ingest", "--input", str(dataset_csv),
               "--workdir", str(tmp_path / "wd")])
    assert rc == 2


def test_error_reports_category(tmp_path, capsys):
    # missing upstream artifact -> io category, non-zero exit
    rc = main(["featurize-gst", "--workdir", str(tmp_path / "nothing"),
               "--seed", "1"])
    assert rc == 2
    assert "error[io]" in capsys.readouterr().err
    # a malformed dataset row in strict mode maps to a parse category
    bad = tmp_path / "bad.csv"
    bad.write_text("smiles,label\nC1CC,1\n")
    rc = main(["ingest", "--input", str(bad), "--workdir",
               str(tmp_path / "wd"), "--seed", "1", "--strict"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error[parse.ring]" in captured.err


def test_nonstrict_ingest_skips_bad_rows(tmp_path, capsys):
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("smiles,label\nCC,1\nC1CC,1\nCCO,0\nOCC,1\n")
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(mixed), "--workdir", str(wd),
                 "--seed", "2", "--test-fraction", "0.34"]) == 0
    out = capsys.readouterr().out
    assert "1 skipped" in out
    # CCO and OCC deduplicate by canonical key with positive preference
    records = (wd / "records.csv").read_text().strip().splitlines()
    assert len(records) == 3  # header + CC + CCO(label 1)


def test_ingest_writes_skipped_rows(tmp_path):
    bad = {"": "parse.empty", "C[Xx]": "parse.element", "C1CC": "parse.ring",
           "CC(C": "parse.paren", "CC==C": "parse", "[Na+]": "ingest.empty"}
    data = tmp_path / "mixed.csv"
    rows = ["CC,1", "CCO,0", "CCN,1", "CCCl,0"] + [f"{smiles},1"
                                                   for smiles in bad]
    data.write_text("smiles,label\n" + "\n".join(rows) + "\n")
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(data), "--workdir", str(wd),
                 "--seed", "2", "--test-fraction", "0.5"]) == 0
    with open(wd / "skipped.csv", newline="") as fh:
        skipped = list(csv.DictReader(fh))
    assert [(int(r["row"]), r["smiles"], r["category"]) for r in skipped] == \
        [(i + 4, smiles, category)
         for i, (smiles, category) in enumerate(bad.items())]
    assert all(r["message"] for r in skipped)
    assert "skipped=6" in (wd / "logs" / "ingest.log").read_text()


@pytest.mark.parametrize("command", ["fit-head", "cv"])
def test_head_without_convergence_exits_2(workdir, monkeypatch, capsys,
                                          command):
    monkeypatch.setattr("geoscatt.cli.LogRegConfig",
                        lambda: LogRegConfig(max_iter=1))
    capsys.readouterr()
    assert main([command, "--workdir", str(workdir), "--seed", "7",
                 "--features", str(workdir / "ggs.fmat")]) == 2
    err = capsys.readouterr().err
    assert "error[linalg.convergence]" in err
    assert "after 1 Newton steps" in err


def test_unknown_flag_is_hard_error(dataset_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--input", str(dataset_csv),
              "--workdir", str(tmp_path), "--seed", "1", "--bogus"])
    assert exc.value.code != 0


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--input", "--workdir", "--seed", "--config", "--threads",
                 "--test-fraction", "--strict"):
        assert flag in text


def test_molecule_stages_start_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    small = tmp_path / "small.csv"
    write_csv(small, generate(20, seed=8))
    wd = str(tmp_path / "wd")
    common = ["--workdir", wd, "--seed", "5", "--threads", "4"]
    for argv in (["ingest", "--input", str(small)], ["featurize-gst"],
                 ["train-gin", "--epochs", "1"], ["export-embeddings"]):
        assert main(argv + common) == 0, argv


def test_featurize_2d_threads_change_no_byte(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[scatter2d]\nj = 3\nl = 2\nsize = 16\n")
    small = tmp_path / "small.csv"
    write_csv(small, generate(12, seed=6))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5"]) == 0
    digests, used = {}, {}
    for threads in ("1", "2", "16"):
        assert main(["featurize-2d", "--workdir", str(wd), "--seed", "5",
                     "--config", str(config), "--threads", threads]) == 0
        digests[threads] = digest(wd / "scat2d.fmat")
        log = (wd / "logs" / "featurize-2d.log").read_text().splitlines()
        used[threads] = [line for line in log if line.startswith("threads=")]
    assert digests["2"] == digests["16"] == digests["1"]
    # at most one thread per image
    assert used == {"1": ["threads=1"], "2": ["threads=2"],
                    "16": ["threads=12"]}


def test_k_select_checked_before_rasterizing(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[scatter2d]\nj = 4\nl = 2\nsize = 16\n")  # 33 columns
    small = tmp_path / "small.csv"
    write_csv(small, generate(12, seed=6))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5"]) == 0

    def refuse(*_args, **_kwargs):
        raise AssertionError("rasterize called before k_select was checked")

    monkeypatch.setattr(cli, "rasterize", refuse)
    capsys.readouterr()
    assert main(["featurize-2d", "--workdir", str(wd), "--seed", "5",
                 "--config", str(config), "--k-select", "40"]) == 2
    err = capsys.readouterr().err
    assert "error[shapes.dimension]" in err and "33 columns" in err


def test_featurize_2d_needs_no_eigensolver(tmp_path, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("2D featurization called the Jacobi solver")

    monkeypatch.setattr(graphcore, "eig_sym", refuse)
    monkeypatch.setattr(graphcore, "build_matrices", refuse)
    config = tmp_path / "run.ini"
    config.write_text("[scatter2d]\nj = 3\nl = 2\nsize = 16\n")
    small = tmp_path / "small.csv"
    write_csv(small, generate(12, seed=6))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5"]) == 0
    assert main(["featurize-2d", "--workdir", str(wd), "--seed", "5",
                 "--config", str(config), "--k-select", "10"]) == 0
    assert read_fmat(wd / "scat2d.fmat").shape == (12, 10)


def test_featurize_csv_format_and_image_dump(tmp_path, monkeypatch):
    config = tmp_path / "run.ini"
    config.write_text("[scatter2d]\nj = 3\nl = 2\nsize = 16\n")
    small = tmp_path / "small.csv"
    write_csv(small, generate(12, seed=6))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5"]) == 0
    assert main(["featurize-gst", "--workdir", str(wd), "--seed", "5",
                 "--format", "csv"]) == 0
    from geoscatt.fileio import read_feature_csv
    matrix, labels = read_feature_csv(wd / "ggs.csv")
    assert matrix.shape == (12, 595)
    assert labels[0] == "hann.m0.f0"
    calls = []

    def counted(g, size):
        calls.append(g)
        return rasterize(g, size)

    monkeypatch.setattr(cli, "rasterize", counted)
    assert main(["featurize-2d", "--workdir", str(wd), "--seed", "5",
                 "--config", str(config), "--dump-images"]) == 0
    assert len(calls) == 12  # one drawing per molecule, shared with the dump
    images = sorted((wd / "images").glob("*.pgm"))
    assert len(images) == 12
    from geoscatt.fileio import read_pgm, write_pgm
    img = read_pgm(images[0])
    assert img.shape == (16, 16)
    _, _, _, graphs = cli.load_graphs(wd)
    for i, (path, g) in enumerate(zip(images, graphs)):
        want = tmp_path / f"want{i}.pgm"
        write_pgm(want, rasterize(g, 16).pixels)
        assert path.read_bytes() == want.read_bytes()


def test_build_metagraph_topk(tmp_path):
    small = tmp_path / "small.csv"
    write_csv(small, generate(20, seed=8))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5", "--test-fraction", "0.25"]) == 0
    assert main(["featurize-gst", "--workdir", str(wd), "--seed", "5"]) == 0
    assert main(["build-metagraph", "--workdir", str(wd), "--seed", "5",
                 "--top-k", "4"]) == 0
    W = read_fmat(wd / "metagraph_weights.fmat")
    assert np.max(np.abs(W - W.T)) == 0.0
    assert ((W > 0).sum(axis=1) <= 19).all()
    assert ((W == 0).sum() > 20 * 2)  # actually sparsified


@pytest.mark.parametrize("command", ["fit-head", "evaluate", "cv"])
def test_feature_rows_checked_against_manifest(tmp_path, dataset_csv, capsys,
                                               command):
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--seed", "7"]) == 0
    short = tmp_path / "short.fmat"
    write_fmat(short, np.zeros((10, 5)))
    head = tmp_path / "head.json"
    head.write_text(json.dumps({"weights": [0.0] * 5, "bias": 0.0,
                                "l2": 1e-3, "features": short.name}))
    argv = [command, "--workdir", str(wd), "--seed", "7",
            "--features", str(short)]
    if command == "evaluate":
        argv += ["--head", str(head)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "10 rows, manifest has 60" in err


def test_train_gin_honours_readout(tmp_path):
    data = tmp_path / "mols.csv"
    write_csv(data, generate(60, seed=108))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(data), "--workdir", str(wd),
                 "--seed", "3"]) == 0
    digests = {}
    for readout in ("default", "sum", "mean"):
        argv = ["train-gin", "--workdir", str(wd), "--seed", "3",
                "--epochs", "3"]
        if readout != "default":
            config = tmp_path / f"{readout}.ini"
            config.write_text(f"[gin]\nreadout = {readout}\n")
            argv += ["--config", str(config)]
        assert main(argv) == 0
        digests[readout] = digest(wd / "gin.gprm")
    assert digests["default"] == digests["sum"]
    assert digests["mean"] != digests["sum"]


def test_removed_hann_keys_are_unknown(tmp_path, dataset_csv, capsys):
    config = tmp_path / "cfg.ini"
    for section, key, value in (("gst", "hann_variant", "standard-hann"),
                                ("run", "threads", "2")):
        config.write_text(f"[{section}]\n{key} = {value}\n")
        rc = main(["featurize-gst", "--workdir", str(tmp_path / "wd"),
                   "--seed", "1", "--config", str(config)])
        assert rc == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_manifest_stages_parse_no_smiles(tmp_path, monkeypatch):
    small = tmp_path / "small.csv"
    write_csv(small, generate(20, seed=8))
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(small), "--workdir", str(wd),
                 "--seed", "5", "--test-fraction", "0.25"]) == 0
    assert main(["featurize-gst", "--workdir", str(wd), "--seed", "5"]) == 0
    # the manifest alone, without records.csv beside it, must be enough
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    manifest = elsewhere / "manifest.csv"
    manifest.write_bytes((wd / "manifest.csv").read_bytes())

    def refuse(text):
        raise AssertionError(f"parsed {text}")

    monkeypatch.setattr("geoscatt.cli.parse_smiles", refuse)
    feats = str(wd / "ggs.fmat")
    common = ["--workdir", str(wd), "--seed", "5", "--manifest", str(manifest)]
    for argv in (["build-metagraph"],
                 ["train-sage", "--epochs", "3"],
                 ["fit-head", "--features", feats],
                 ["evaluate", "--features", feats, "--head", str(wd / "head.json")],
                 ["evaluate", "--sage"],
                 ["cv", "--features", feats, "--k", "3"]):
        assert main(argv + common) == 0, argv


def test_manifest_key_missing_from_records(tmp_path, dataset_csv, capsys):
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--seed", "7"]) == 0
    records = (wd / "records.csv").read_text().splitlines()
    (wd / "records.csv").write_text("\n".join(records[:1] + records[2:]) + "\n")
    capsys.readouterr()
    assert main(["featurize-gst", "--workdir", str(wd), "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert records[1].split(",")[0] in err


def test_unknown_readout_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.ini"
    config.write_text("[gin]\nreadout = max\n")
    rc = main(["train-gin", "--workdir", str(tmp_path / "wd"), "--seed", "1",
               "--config", str(config)])
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,ini,named", [
    ("fit-head", ["--features", "ggs.fmat", "--l2", "-1"], None, "l2 -1.0"),
    ("fit-head", ["--features", "ggs.fmat"], "[run]\nl2 = nan\n", "l2 nan"),
    ("train-sage", [], "[sage]\ndropout = 1.0\n", "dropout 1.0"),
    ("train-sage", ["--epochs", "0"], None, "[sage] epochs 0"),
    ("train-gin", ["--epochs", "0"], None, "[gin] epochs 0"),
    ("featurize-2d", ["--k-select", "-3"], None, "[scatter2d] k_select -3"),
    ("featurize-2d", ["--threads", "0"], None, "--threads 0"),
    ("featurize-2d", ["--threads", "-1"], None, "--threads -1"),
], ids=["l2-negative", "l2-nan", "dropout-one", "sage-epochs-zero",
        "gin-epochs-zero", "k-select-negative", "threads-zero",
        "threads-negative"])
def test_training_knobs_validated(tmp_path, capsys, command, flags, ini, named):
    wd = tmp_path / "wd"
    argv = [command, "--workdir", str(wd), "--seed", "1"] + flags
    if ini is not None:
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        argv += ["--config", str(config)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and named in err
    assert not wd.exists()


def test_evaluate_head_checked_against_features(tmp_path, dataset_csv, capsys):
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--seed", "7"]) == 0
    feats = tmp_path / "feats.fmat"
    write_fmat(feats, np.zeros((60, 5)))
    head = tmp_path / "head.json"
    head.write_text(json.dumps({"weights": [0.0] * 3, "bias": 0.0,
                                "l2": 1e-3, "features": "other.fmat"}))
    capsys.readouterr()
    assert main(["evaluate", "--workdir", str(wd), "--seed", "7",
                 "--features", str(feats), "--head", str(head)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "3 weights" in err and "5 columns" in err


def test_evaluate_head_checked_against_feature_file(tmp_path, dataset_csv,
                                                    capsys):
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--seed", "7"]) == 0
    feats = tmp_path / "feats.fmat"
    write_fmat(feats, np.zeros((60, 5)))
    head = tmp_path / "head.json"
    # the right width, but fitted on another feature file
    head.write_text(json.dumps({"weights": [0.0] * 5, "bias": 0.0,
                                "l2": 1e-3, "features": "other.fmat"}))
    capsys.readouterr()
    assert main(["evaluate", "--workdir", str(wd), "--seed", "7",
                 "--features", str(feats), "--head", str(head)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "other.fmat" in err and str(feats) in err
