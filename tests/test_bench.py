"""The sweep driver, config plumbing, deterministic output emission, CLI."""

import json
import math
import os

import numpy as np
import pytest

from bbope.bench import (
    CSV_HEADER,
    EXPERIMENTS,
    ExperimentConfig,
    KernelSpec,
    build_config,
    emit_outputs,
    run_experiment,
    run_identity_check,
)
from bbope.cli import main
from bbope.envs import model_win, model_win_policy
from bbope.estimators import naive_average
from bbope.mdp import sample_dataset
from bbope.rng import derive_seed
from bbope.version import VERSION


def tiny_modelwin_overrides(**extra):
    base = {
        "t_beh_sweep": (4, 8),
        "total_budget": 400,
        "monte_carlo_runs": 2,
    }
    base.update(extra)
    return base


@pytest.fixture(scope="module")
def tiny_modelwin_run():
    cfg = build_config("modelwin_horizon", overrides=tiny_modelwin_overrides())
    rows, extras = run_experiment(cfg)
    return cfg, rows, extras


# ---------------------------------------------------------------------------
# configuration


def test_desk_scale_defaults():
    cfg = build_config("modelwin_horizon")
    assert cfg.total_budget == 50_000
    assert cfg.t_beh_sweep == (4, 8, 16, 32, 64, 128)
    assert cfg.monte_carlo_runs == 10
    assert cfg.optimizer.method == "exp_gradient"

    ctrl = build_config("control_rmse", env_name="cartpole")
    assert ctrl.trajectory_counts == (10, 25, 50)
    assert ctrl.monte_carlo_runs == 10
    assert ctrl.optimizer.method == "sgd_adamlike"
    assert ctrl.optimizer.matrix_dtype == "float32"

    bv = build_config("bias_variance")
    assert bv.monte_carlo_runs == 200
    assert bv.bias_variance_length == 4


def test_paper_scale_enlarges_budgets():
    cfg = build_config("modelwin_horizon", paper_scale=True)
    assert cfg.total_budget == 200_000
    ctrl = build_config("control_rmse", env_name="cartpole", paper_scale=True)
    assert ctrl.trajectory_counts == (10, 25, 50, 100)
    assert ctrl.monte_carlo_runs == 20
    assert ctrl.t_tar == 100_000
    assert ctrl.truth_rollouts == 10


def test_config_round_trips_through_dict():
    cfg = build_config("control_rmse", env_name="pendulum", overrides={"base_seed": 7})
    doc = cfg.to_dict()
    assert doc["config_version"] == 1
    clone = ExperimentConfig.from_dict(doc)
    assert clone == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "modelwin_horizon", "banana": 1})
    with pytest.raises(ValueError, match="unknown kernel keys"):
        ExperimentConfig.from_dict({"experiment": "modelwin_horizon", "kernel": {"spread": 2}})
    with pytest.raises(ValueError, match="unknown optimizer keys"):
        ExperimentConfig.from_dict({"experiment": "modelwin_horizon", "optimizer": {"lr": 0.1}})
    with pytest.raises(ValueError, match="config_version"):
        ExperimentConfig.from_dict({"experiment": "modelwin_horizon", "config_version": 2})


def test_config_validation_errors():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="frisbee").validate()
    with pytest.raises(ValueError, match="alpha1"):
        ExperimentConfig(experiment="sensitivity", env_name="cartpole", alpha1=1.2).validate()
    with pytest.raises(ValueError, match="t_beh_sweep"):
        ExperimentConfig(t_beh_sweep=()).validate()
    with pytest.raises(ValueError, match="not available"):
        ExperimentConfig(experiment="control_rmse", env_name="cartpole", methods=("ips",)).validate()
    with pytest.raises(ValueError, match="env_name"):
        ExperimentConfig(experiment="control_rmse", env_name="model_win").validate()
    with pytest.raises(ValueError, match="total_budget"):
        ExperimentConfig(total_budget=64, t_beh_sweep=(128,)).validate()


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=0.0).validate()


# ---------------------------------------------------------------------------
# output emission


def test_csv_header_and_float_formatting(tmp_path, tiny_modelwin_run):
    cfg, rows, extras = tiny_modelwin_run
    cfg_out = build_config("modelwin_horizon", overrides=tiny_modelwin_overrides(output_dir=str(tmp_path)))
    paths = emit_outputs(rows, cfg_out, extras)
    lines = open(paths["csv"]).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "experiment,method,setting,rmse,bias,std,median,q25,q75,runs,seed"
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert fields[0] == row.experiment
        assert fields[1] == row.method
        # every float prints with 12 significant digits
        assert fields[2] == format(float(row.setting), ".12g")
        assert fields[3] == format(row.rmse, ".12g")
        assert fields[4] == format(row.bias, ".12g")
        assert fields[9] == str(row.runs)
        assert fields[10] == str(row.seed)


def test_rerun_is_byte_identical(tmp_path):
    csvs = []
    for tag in ("a", "b"):
        cfg = build_config(
            "modelwin_horizon",
            overrides=tiny_modelwin_overrides(output_dir=str(tmp_path / tag)),
        )
        rows, extras = run_experiment(cfg)
        paths = emit_outputs(rows, cfg, extras)
        csvs.append(open(paths["csv"], "rb").read())
    assert csvs[0] == csvs[1]


def test_worker_count_does_not_change_bytes(tmp_path):
    csvs = []
    for workers in (1, 2):
        cfg = build_config(
            "modelwin_horizon",
            overrides=tiny_modelwin_overrides(workers=workers, output_dir=str(tmp_path / str(workers))),
        )
        rows, extras = run_experiment(cfg)
        paths = emit_outputs(rows, cfg, extras)
        csvs.append(open(paths["csv"], "rb").read())
    assert csvs[0] == csvs[1]


def test_svg_is_optional_and_embeds_the_data(tmp_path, tiny_modelwin_run):
    _, rows, extras = tiny_modelwin_run
    plain = build_config("modelwin_horizon", overrides=tiny_modelwin_overrides(output_dir=str(tmp_path / "plain")))
    paths = emit_outputs(rows, plain, extras)
    assert paths["svg"] is None
    assert not any(name.endswith(".svg") for name in os.listdir(tmp_path / "plain"))

    with_svg = build_config(
        "modelwin_horizon",
        overrides=tiny_modelwin_overrides(svg=True, output_dir=str(tmp_path / "svg")),
    )
    paths = emit_outputs(rows, with_svg, extras)
    svg = open(paths["svg"]).read()
    assert svg.startswith("<svg xmlns=")
    for row in rows:
        comment = (
            f"<!-- data method={row.method} setting={format(float(row.setting), '.12g')} "
            f"rmse={format(row.rmse, '.12g')} -->"
        )
        assert comment in svg


def test_manifest_echoes_the_configuration(tmp_path, tiny_modelwin_run):
    _, rows, extras = tiny_modelwin_run
    cfg = build_config(
        "modelwin_horizon",
        overrides=tiny_modelwin_overrides(svg=True, output_dir=str(tmp_path)),
    )
    paths = emit_outputs(rows, cfg, extras)
    manifest = json.load(open(paths["manifest"]))
    assert manifest["library_version"] == VERSION
    assert manifest["config"] == cfg.to_dict()
    assert manifest["rows"] == len(rows)
    assert manifest["csv"] == os.path.basename(paths["csv"])
    assert manifest["svg"] == os.path.basename(paths["svg"])
    assert "ground_truth" in manifest["extras"]


def test_emit_rejects_empty_rows(tmp_path):
    cfg = build_config("modelwin_horizon", overrides={"output_dir": str(tmp_path)})
    with pytest.raises(ValueError):
        emit_outputs([], cfg, {})


# ---------------------------------------------------------------------------
# drivers


def test_modelwin_rows_cover_the_sweep(tiny_modelwin_run):
    cfg, rows, extras = tiny_modelwin_run
    assert abs(extras["ground_truth"] - (-0.08)) < 1e-10
    combos = {(r.method, r.setting) for r in rows}
    assert combos == {
        (m, float(t)) for m in ("blackbox", "naive", "model_based", "ips") for t in (4, 8)
    }
    for row in rows:
        assert row.runs == cfg.monte_carlo_runs
        assert row.experiment == "modelwin_horizon"
        assert abs(row.rmse**2 - row.bias**2 - row.std**2) <= 1e-9


def test_modelwin_budget_is_consumed_exactly():
    cfg = build_config(
        "modelwin_horizon",
        overrides={
            "t_beh_sweep": (4,),
            "total_budget": 18,
            "monte_carlo_runs": 1,
            "methods": ("naive",),
        },
    )
    rows, _ = run_experiment(cfg)
    assert len(rows) == 1
    # reproduce the run by hand: ceil(18 / 4) = 5 lockstep trajectories,
    # truncated to exactly the 18-transition budget, with the derived seed
    seed = derive_seed(cfg.base_seed, cfg.experiment, 4, 0)
    ds = sample_dataset(model_win(cfg.win_probability), model_win_policy(cfg.behavior_q),
                        5, 4, seed, total_budget=18)
    assert len(ds) == 18
    assert rows[0].median == naive_average(ds).estimate


def test_failing_run_names_its_experiment_setting_run_and_seed(monkeypatch):
    def broken(dataset):
        raise ValueError("boom")

    monkeypatch.setattr("bbope.bench.naive_average", broken)
    cfg = build_config(
        "modelwin_horizon", overrides=tiny_modelwin_overrides(methods=("naive",), workers=1)
    )
    seed = derive_seed(cfg.base_seed, cfg.experiment, 4, 0)
    message = f"modelwin_horizon failed at setting 4, run 0, seed {seed}: ValueError: boom"
    with pytest.raises(RuntimeError, match=message):
        run_experiment(cfg)


# CSV bytes of three tiny sweeps, recorded from the per-experiment drivers
# that the single sweep driver replaced.  Control sweeps are left out: their
# float32 BLAS products may differ in the last digits between machines.
GOLDEN_CSV = {
    "modelwin_horizon": (
        tiny_modelwin_overrides(),
        [
            "modelwin_horizon,blackbox,4,3.53604211582e-07,3.43292193034e-07,8.47726881192e-08,-0.0799997414805,-0.0799997414805,-0.0799995719351,2,0",
            "modelwin_horizon,naive,4,0.03214031736,0.032,0.003,-0.051,-0.051,-0.045,2,0",
            "modelwin_horizon,model_based,4,9.20013919861e-13,8.72760197446e-13,2.91058843693e-13,-0.0799999999994,-0.0799999999994,-0.0799999999988,2,0",
            "modelwin_horizon,ips,4,0.0119642817534,0.0118660236553,0.00153020275979,-0.0696641791045,-0.0696641791045,-0.0666037735849,2,0",
            "modelwin_horizon,blackbox,8,3.71487579054e-07,3.71390758244e-07,8.48092458761e-09,-0.0799996370902,-0.0799996370902,-0.0799996201283,2,0",
            "modelwin_horizon,naive,8,0.0390512483795,0.039,0.002,-0.043,-0.043,-0.039,2,0",
            "modelwin_horizon,model_based,8,5.816944149e-13,5.81694414858e-13,9.81307786677e-18,-0.0799999999994,-0.0799999999994,-0.0799999999994,2,0",
            "modelwin_horizon,ips,8,0.00840258847895,0.00832580093734,0.00113337191526,-0.0728075709779,-0.0728075709779,-0.0705408271474,2,0",
        ],
    ),
    "bias_variance": (
        {"bias_variance_counts": (10, 40), "monte_carlo_runs": 3},
        [
            "bias_variance,blackbox,10,3.18355983368e-07,3.11233798571e-07,6.69630851499e-08,-0.079999684185,-0.0799997729735,-0.0799996091401,3,0",
            "bias_variance,naive,10,0.0310912635103,0.03,0.00816496580928,-0.05,-0.06,-0.04,3,0",
            "bias_variance,model_based,10,2.72999132354e-12,1.93992507243e-12,1.9208184037e-12,-0.0799999999994,-0.0799999999994,-0.0799999999953,3,0",
            "bias_variance,ips,10,0.0116619770737,0.0109042270428,0.00413515923107,-0.0691588785047,-0.074128440367,-0.064,3,0",
            "bias_variance,blackbox,40,3.67100577889e-07,3.65868594287e-07,3.00500582556e-08,-0.0799996280433,-0.0799996735995,-0.0799996007514,3,0",
            "bias_variance,naive,40,0.0292261298612,0.0283333333333,0.0071686043892,-0.0525,-0.06,-0.0425,3,0",
            "bias_variance,model_based,40,5.03730769926e-13,4.84686365117e-13,1.37199912759e-13,-0.0799999999994,-0.0799999999997,-0.0799999999994,3,0",
            "bias_variance,ips,40,0.0106791313977,0.0100482993699,0.00361600984264,-0.0704186046512,-0.074128440367,-0.065308056872,3,0",
        ],
    ),
    "theorem1_check": (
        {"identity_instances": 4},
        [
            "theorem1_check,identity_check,0,5.82867087928e-16,-5.82867087928e-16,0,0.0519653387709,0.0519653387709,0.0519653387709,1,0",
            "theorem1_check,identity_check,1,8.881784197e-16,8.881784197e-16,0,0.0503572187216,0.0503572187216,0.0503572187216,1,0",
            "theorem1_check,identity_check,2,1.87350135405e-15,-1.87350135405e-15,0,0.106738595355,0.106738595355,0.106738595355,1,0",
            "theorem1_check,identity_check,3,2.60208521397e-15,-2.60208521397e-15,0,0.0288352395332,0.0288352395332,0.0288352395332,1,0",
        ],
    ),
}


@pytest.mark.parametrize("experiment", sorted(GOLDEN_CSV))
def test_csv_bytes_are_pinned(tmp_path, experiment):
    overrides, lines = GOLDEN_CSV[experiment]
    cfg = build_config(experiment, overrides=dict(overrides, output_dir=str(tmp_path)))
    rows, extras = run_experiment(cfg)
    paths = emit_outputs(rows, cfg, extras)
    expected = "\n".join([CSV_HEADER] + lines) + "\n"
    assert open(paths["csv"], "rb").read() == expected.encode()


def test_identity_check_row_semantics():
    cfg = build_config("theorem1_check", overrides={"identity_instances": 5})
    rows, extras = run_identity_check(cfg)
    assert len(rows) == 5
    assert [r.setting for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    for row in rows:
        assert row.method == "identity_check"
        assert row.runs == 1
        assert row.std == 0.0
        assert row.rmse == abs(row.bias)
        assert row.q25 <= row.median <= row.q75 + row.rmse
        assert row.q75 - row.q25 == row.rmse
    assert extras["worst_relative_gap"] <= 1e-8


def test_run_seeds_are_unique_across_settings_and_runs():
    cfg = build_config("modelwin_horizon")
    seeds = [
        derive_seed(cfg.base_seed, cfg.experiment, t_beh, run)
        for t_beh in cfg.t_beh_sweep
        for run in range(cfg.monte_carlo_runs)
    ]
    assert len(seeds) == len(set(seeds))


def test_bias_variance_rows_decompose():
    cfg = build_config(
        "bias_variance",
        overrides={"bias_variance_counts": (10,), "monte_carlo_runs": 3},
    )
    rows, _ = run_experiment(cfg)
    methods = {r.method for r in rows}
    assert methods == {"blackbox", "naive", "model_based", "ips"}
    for row in rows:
        assert row.setting == 10.0
        assert abs(row.rmse**2 - row.bias**2 - row.std**2) <= 1e-9


def tiny_control_overrides(output_dir=None, **extra):
    base = {
        "trajectory_counts": (2,),
        "t_beh": 50,
        "t_tar": 1000,
        "truth_rollouts": 1,
        "monte_carlo_runs": 1,
        "optimizer": {"epochs": 20},
        "kernel": {"tuning_trajectories": 2, "median_subsample": 200},
    }
    if output_dir is not None:
        base["output_dir"] = output_dir
    base.update(extra)
    return base


def test_control_driver_rows_and_determinism():
    runs = []
    for _ in range(2):
        cfg = build_config("control_rmse", env_name="cartpole", overrides=tiny_control_overrides())
        runs.append(run_experiment(cfg))
    (rows_a, extras_a), (rows_b, extras_b) = runs
    assert rows_a == rows_b
    assert extras_a["kernel"] == extras_b["kernel"]
    assert {(r.method, r.setting) for r in rows_a} == {
        ("blackbox", 2.0), ("naive", 2.0), ("model_based", 2.0)
    }
    assert extras_a["kernel"]["bandwidth"] > 0.0
    for row in rows_a:
        assert math.isfinite(row.rmse)


def test_sensitivity_driver_sweeps_the_mixture():
    cfg = build_config(
        "sensitivity",
        env_name="pendulum",
        overrides=tiny_control_overrides(
            alpha1_sweep=(0.9, 0.5), sensitivity_trajectories=2, t_beh=40,
            optimizer={"epochs": 10}, kernel={"tuning_trajectories": 2, "median_subsample": 100},
        ),
    )
    rows, _ = run_experiment(cfg)
    assert {r.setting for r in rows} == {0.9, 0.5}
    assert {r.method for r in rows} == {"blackbox", "naive", "model_based"}
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# command line


def test_cli_writes_the_three_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "theorem1_check", "identity_instances": 2}))
    rc = main(["theorem1", "--config", str(cfg_path), "--output-dir", str(tmp_path), "--svg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "csv:" in out
    assert (tmp_path / "theorem1_check.csv").exists()
    assert (tmp_path / "theorem1_check.svg").exists()
    assert (tmp_path / "theorem1_check.manifest.json").exists()


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"experiment": "theorem1_check", "identity_instances": 2, "base_seed": 5})
    )
    main(["theorem1", "--config", str(cfg_path), "--seed", "9", "--output-dir", str(tmp_path)])
    manifest = json.load(open(tmp_path / "theorem1_check.manifest.json"))
    assert manifest["config"]["base_seed"] == 9  # flag beats file
    assert manifest["config"]["identity_instances"] == 2  # file beats default


def test_cli_rejects_mismatched_config_experiment(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "theorem1_check"}))
    with pytest.raises(SystemExit, match="subcommand"):
        main(["modelwin", "--config", str(cfg_path)])


def test_cli_rejects_unsupported_config_version(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"config_version": 2}))
    with pytest.raises(SystemExit, match="config_version"):
        main(["theorem1", "--config", str(cfg_path)])


def test_cli_worker_environment_variable(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "theorem1_check", "identity_instances": 2}))
    monkeypatch.setenv("BBOPE_WORKERS", "3")
    main(["theorem1", "--config", str(cfg_path), "--output-dir", str(tmp_path / "env")])
    manifest = json.load(open(tmp_path / "env" / "theorem1_check.manifest.json"))
    assert manifest["config"]["workers"] == 3
    main(["theorem1", "--config", str(cfg_path), "--workers", "1",
          "--output-dir", str(tmp_path / "flag")])
    manifest = json.load(open(tmp_path / "flag" / "theorem1_check.manifest.json"))
    assert manifest["config"]["workers"] == 1


def test_cli_subcommands_cover_every_experiment():
    from bbope.cli import _SUBCOMMAND_EXPERIMENT

    assert set(_SUBCOMMAND_EXPERIMENT.values()) == set(EXPERIMENTS)
