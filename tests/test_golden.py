"""Golden bytes: the CSV output of every experiment, on small configs, is
pinned by sha256 at seeds 0 and 42.  A refactor that changes any row
fails here."""

import hashlib
import json

import pytest

from linprobe.cli import main as cli_main
from linprobe.experiments import ExperimentConfig, rows_to_csv, run_experiment

SMALL = {
    "probe_cost": dict(families=("poly2", "poly2_seq", "poly3", "poly5", "tabulation", "random"),
                       n_values=(256,), table_trials=2, query_trials=400),
    "interval_concentration": dict(families=("poly5", "random"), n_values=(256,),
                                   table_trials=20),
    "max_run": dict(families=("random", "tabulation"), n_values=(256, 1024), table_trials=4),
    "three_indep": dict(n_values=(256,), table_trials=2, query_trials=400),
    "filter_fpr": dict(b_values=(4, 8), n_values=(256,), query_trials=1000),
}

PINS = {
    ("probe_cost", 0): "30bf1a29fbba33750fee636609ad97e65247c30917c4fa661113e1bc008df84f",
    ("probe_cost", 42): "11a9843a4f91a1cbc38c57f48f5f08ae0ea77249b135819691fb1a5a146c236b",
    ("interval_concentration", 0):
        "ce57735986456ae57d27509e2f641c273e81156274e8d595a1439bd9a8227f05",
    ("interval_concentration", 42):
        "baa25857475a2b407a7eadd7fb34e5277ccf339562f0f095f4541035dff1cee0",
    ("max_run", 0): "6a34e41e0c67ef03f273cd451e83f2705371a8b87c51b8c0b81846ee8e70728c",
    ("max_run", 42): "3d1e2ff11b32ba5198fe5f0b469f832eb1b4e80280fc6070519e4a16df89b611",
    ("three_indep", 0): "5fb519280936193e8eb9ac8021807e2969f43f33786ea6f8727b315c570bad8a",
    ("three_indep", 42): "c594c0ab62069ec32e3b3f7ae619ec6e1f655c777b3ec857f85bbff78e76db64",
    ("filter_fpr", 0): "91fe769b25fa7be15382b15cff168eb7b5f2ecff2ea7ff64102ca429e3b9eec9",
    ("filter_fpr", 42): "d4bcb6fe9dc7e6a959b6dc9c0c674cb3d0b91ba0dbdac0900f8737b2b221943d",
}


# the sha256 of the default-config CSV (`linprobe --experiment E --seed S`)
DEFAULT_PINS = {
    ("max_run", 0): "f9255d8d4ff0ea94b79c75fc1fed11c7bd63bae2151ce178f8e29944fc7c51c6",
    ("max_run", 42): "cf32c4d649c8d2fd3c57f1f3566579e2677532571ed902fb83bde277011488c6",
    ("interval_concentration", 0):
        "c7719f09d41bc5781af5f197739fb03e46c1d378200c5b72e8f9b080940c8ce3",
    ("interval_concentration", 42):
        "d5caa2e1aea815e1c4b1819677e209f3df911e27678d732d893950a84c98ac67",
    ("three_indep", 0): "5f45e1ce70aadb0ac538a57ace6996fb7a89527479bfd0030371fda30f4f0ada",
    ("three_indep", 42): "0a69c0b481f74486f1343d9336ce6f6d6fffcee16fb3648b6d9c4d40bc8a9a32",
    # the only full-size run of the hash_of_signature mode, which the bench leaves out
    ("filter_fpr", 0): "09a44307c8bb9dc551e9d7f5f3e381ef5a949097c0ae12933eb9356aae5fc56e",
    ("filter_fpr", 42): "1307d1aef5590787d8816dc51e9ec0c5443ab89b0d30317f87e2553334a980e8",
}


# threads = 2 sends every multi-cell config through the worker pool
@pytest.mark.parametrize("experiment,seed,threads", [
    pytest.param(e, s, threads, id=f"{e}-{s}" + ("" if threads == 1 else f"-threads{threads}"))
    for threads in (1, 2) for e, s in sorted(PINS)])
def test_csv_bytes_pinned(experiment, seed, threads):
    config = ExperimentConfig(experiment=experiment, seed=seed, **SMALL[experiment])
    digest = hashlib.sha256(rows_to_csv(run_experiment(config, threads)).encode()).hexdigest()
    assert digest == PINS[experiment, seed]


@pytest.mark.parametrize("experiment,seed", sorted(DEFAULT_PINS))
def test_default_cli_bytes_pinned(tmp_path, experiment, seed):
    out = tmp_path / "rows.csv"
    assert cli_main(["--experiment", experiment, "--seed", str(seed), "--out", str(out),
                     "--threads", "2"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_PINS[experiment, seed]


# a config file that names only the seed runs the experiment's default config
@pytest.mark.parametrize("experiment,seed", [k for k in sorted(DEFAULT_PINS)
                                             if k[0] in ("max_run", "interval_concentration")])
def test_seed_only_config_file_bytes_pinned(tmp_path, experiment, seed):
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"seed": seed}))
    assert cli_main(["--experiment", experiment, "--config", str(cfg), "--out", str(out),
                     "--threads", "2"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_PINS[experiment, seed]
