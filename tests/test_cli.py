import hashlib
import json
import os

import numpy as np
import pytest

from corpus import generate, write_csv
from geoscatt.cli import main
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


def test_threads_env_fallback(tmp_path, dataset_csv, monkeypatch):
    monkeypatch.setenv("GEOSCATT_THREADS", "2")
    wd = tmp_path / "wd"
    assert main(["ingest", "--input", str(dataset_csv), "--workdir", str(wd),
                 "--seed", "4"]) == 0
    assert main(["featurize-gst", "--workdir", str(wd), "--seed", "4"]) == 0
    m = read_fmat(wd / "ggs.fmat")
    assert m.shape[1] == 595


def test_featurize_csv_format_and_image_dump(tmp_path):
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
    assert main(["featurize-2d", "--workdir", str(wd), "--seed", "5",
                 "--config", str(config), "--dump-images"]) == 0
    images = sorted((wd / "images").glob("*.pgm"))
    assert len(images) == 12
    from geoscatt.fileio import read_pgm
    img = read_pgm(images[0])
    assert img.shape == (16, 16)


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
    config.write_text("[gst]\nhann_variant = standard-hann\n")
    rc = main(["featurize-gst", "--workdir", str(tmp_path / "wd"),
               "--seed", "1", "--config", str(config)])
    assert rc == 2
    assert "unknown key 'hann_variant'" in capsys.readouterr().err


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
