import json
import re

import numpy as np
import pytest

from tacsense import calib, cli, fileio
from tacsense.cli import RunConfig


@pytest.fixture(scope="module")
def press_run(tmp_path_factory):
    """A deterministic noiseless ball-press run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("run") / "presses"
    cfg = RunConfig(seed=7, presses=8, placement="random")
    manifest = cli.cmd_simulate(cfg, out)
    return out, manifest


@pytest.fixture(scope="module")
def single_calib(press_run, tmp_path_factory):
    run_dir, _ = press_run
    out = tmp_path_factory.mktemp("calib") / "single.json"
    cli.cmd_calibrate(RunConfig(method="single"), run_dir, out)
    return out


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.load(None)
        assert cfg.seed == 0
        assert cfg.scheme == "standard"
        assert cfg.noise_sigma == 0.0

    def test_file_values_and_flag_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "scheme": "s2"}))
        cfg = RunConfig.load(path, seed=9, noise_sigma=None)
        assert cfg.seed == 9          # flag wins over file
        assert cfg.scheme == "s2"     # file wins over default
        assert cfg.noise_sigma == 0.0  # None override is ignored

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma_noise": 1.0}))
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.load(path)

    def test_unknown_placement_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"placement": "corner"}))
        with pytest.raises(ValueError, match="'placement'.*'corner'"):
            RunConfig.load(path)

    @pytest.mark.parametrize("values, message", [
        ({"seed": "abc"}, "'seed': expected int, got str 'abc'"),
        ({"presses": 2.5}, "'presses': expected int, got float 2.5"),
        ({"seed": True}, "'seed': expected int, got bool"),
        ({"scheme": 3}, "'scheme': expected str"),
        ({"method": "spline"}, "'method': unknown method 'spline'"),
        ({"thickness": 0}, "'thickness': value 0 must be finite and > 0"),
        ({"noise_sigma": -1.0}, "'noise_sigma': value -1.0 must be finite and >= 0"),
        ({"gain": float("nan")}, "'gain': value nan"),
        ({"presses": -1}, "'presses': value -1"),
        ({"frames_per_press": 0}, "'frames_per_press': value 0"),
    ])
    def test_bad_value_names_the_key(self, tmp_path, values, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig.load(path)

    def test_bad_flag_override_rejected(self):
        with pytest.raises(ValueError, match="'seed'"):
            RunConfig.load(None, seed=-3)

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.load(path)

    def test_integer_accepted_for_float_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"thickness": 2}))
        assert RunConfig.load(path).optical().thickness == 2.0

    def test_derived_objects_reflect_config(self):
        cfg = RunConfig(thickness=1.5, attenuation=2.0)
        assert cfg.optical().thickness == 1.5
        assert cfg.geometry().crop_size == 580


class TestSimulate:
    def test_press_run_files(self, press_run):
        run_dir, manifest = press_run
        assert (run_dir / "reference.pgm").exists()
        assert (run_dir / "manifest.json").exists()
        assert manifest["kind"] == "presses"
        assert len(manifest["frames"]) == 8
        for frame in manifest["frames"]:
            assert (run_dir / frame["image"]).exists()
            assert (run_dir / frame["truth"]).exists()

    def test_truth_matches_recorded_press(self, press_run):
        run_dir, manifest = press_run
        frame = manifest["frames"][0]
        truth = fileio.read_depth(run_dir / frame["truth"])
        assert truth.data.max() == pytest.approx(frame["d_max_mm"], abs=1e-3)

    def test_same_seed_is_bit_identical(self, press_run, tmp_path):
        run_dir, manifest = press_run
        again = tmp_path / "again"
        cli.cmd_simulate(RunConfig(seed=7, presses=8, placement="random"), again)
        for frame in manifest["frames"]:
            a = (run_dir / frame["image"]).read_bytes()
            b = (again / frame["image"]).read_bytes()
            assert a == b

    def test_sequence_run_records_poses(self, tmp_path):
        out = tmp_path / "seq"
        manifest = cli.cmd_simulate(RunConfig(), out, object_kind="hex_nut",
                                    n_frames=3, step_deg=5.0)
        assert manifest["kind"] == "sequence"
        assert len(manifest["frames"]) == 3
        pose = cli._pose_from_list(manifest["frames"][1]["pose"])
        assert pose.z_angle_deg() == pytest.approx(5.0, abs=1e-9)


class TestCalibrate:
    def test_single_produces_valid_mapping(self, single_calib):
        model, thickness = cli.load_calibration(single_calib)
        assert isinstance(model, calib.MappingList)
        assert model.depths.shape == (256,)
        assert thickness == 2.0

    def test_regression_round_trips_through_file(self, press_run, tmp_path):
        run_dir, _ = press_run
        out = tmp_path / "reg.json"
        cli.cmd_calibrate(RunConfig(method="regression"), run_dir, out)
        model, _ = cli.load_calibration(out)
        assert isinstance(model, calib.RegressionModel)
        assert model.b_c > 0

    def test_sequence_run_rejected(self, tmp_path):
        seq = tmp_path / "seq"
        cli.cmd_simulate(RunConfig(), seq, object_kind="slab", n_frames=1)
        with pytest.raises(ValueError, match="ball-press run"):
            cli.cmd_calibrate(RunConfig(method="single"), seq,
                              tmp_path / "c.json")

    def test_unknown_method_rejected(self, press_run, tmp_path):
        run_dir, _ = press_run
        with pytest.raises(ValueError, match="unknown method"):
            cli.cmd_calibrate(RunConfig(method="spline"), run_dir,
                              tmp_path / "c.json")

    def test_s4_regression_centre_is_the_study_corner(self, tmp_path):
        run_dir = tmp_path / "s4"
        cli.cmd_simulate(RunConfig(seed=1, scheme="s4", presses=4,
                                   placement="random"), run_dir)
        out = tmp_path / "reg" / "calibration.json"
        cli.cmd_calibrate(RunConfig(method="regression"), run_dir, out)
        payload = json.loads(out.read_text())
        assert (payload["center_u"], payload["center_v"]) == (579.0, 0.0)

    def test_wrong_format_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="unsupported calibration format"):
            cli.load_calibration(bad)


class TestReconstruct:
    def test_outputs_per_frame(self, press_run, single_calib, tmp_path):
        run_dir, manifest = press_run
        out = tmp_path / "recon"
        report = cli.cmd_reconstruct(RunConfig(), run_dir, single_calib, out)
        n = len(manifest["frames"])
        assert report["frames"] == n
        assert len(report["timings_ms"]) == n
        cloud = fileio.read_ply(out / "cloud_000.ply")
        assert len(cloud) == 580 * 580
        depth = fileio.read_depth(out / "depth_000.dtd")
        assert depth.data.shape == (580, 580)

    def test_timings_include_io_stages(self, press_run, single_calib, tmp_path):
        run_dir, _ = press_run
        out = tmp_path / "recon"
        cli.cmd_reconstruct(RunConfig(), run_dir, single_calib, out)
        report = json.loads((out / "timings.json").read_text())
        for stages in report["timings_ms"]:
            assert set(stages) == {"read_ms", "difference_ms", "mapping_ms",
                                   "smoothing_ms", "pointcloud_ms",
                                   "write_depth_ms", "write_ply_ms"}
            assert all(ms >= 0 for ms in stages.values())

    def test_reconstruction_close_to_truth(self, press_run, single_calib, tmp_path):
        run_dir, manifest = press_run
        out = tmp_path / "recon"
        cli.cmd_reconstruct(RunConfig(), run_dir, single_calib, out)
        frame = manifest["frames"][0]
        truth = fileio.read_depth(run_dir / frame["truth"])
        depth = fileio.read_depth(out / "depth_000.dtd")
        assert np.abs(depth.data - truth.data).mean() <= 0.05


class TestEvaluate:
    def test_report_structure_and_determinism(self):
        cfg = RunConfig(seed=3)
        a = cli.run_evaluation(cfg, schemes=("standard",))
        b = cli.run_evaluation(cfg, schemes=("standard",))
        assert a == b
        cell = a["schemes"]["standard"]
        assert set(cell) == {"reference_std", "single_mae", "regression_mae"}
        assert cell["single_mae"] < 0.05

    def test_table_has_one_column_per_scheme(self):
        report = {"schemes": {
            "standard": {"reference_std": 4.7, "single_mae": 0.003,
                         "regression_mae": 0.010},
            "s4": {"error": "NoContactError: dark"},
        }}
        table = cli.format_eval_table(report)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "standard" in lines[0] and "s4" in lines[0]
        assert "error" in lines[1]


class TestTrack:
    def test_static_sequence_tracks_identity(self, single_calib, tmp_path):
        seq = tmp_path / "seq"
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut",
                         n_frames=3, step_deg=0.0)
        out = tmp_path / "track"
        payload = cli.cmd_track(RunConfig(), seq, single_calib, out)
        assert len(payload["frames"]) == 3
        for frame in payload["frames"]:
            assert frame["converged"]
            assert frame["inlier_fraction"] == 1.0
            pose = cli._pose_from_list(frame["pose"])
            # acos near +1 amplifies 1e-16 matrix error to ~1e-6 degrees
            assert pose.rotation_angle_deg() <= 1e-4


class TestMain:
    def test_simulate_exit_zero(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--out", str(out), "--presses", "1"])
        assert code == 0
        assert (out / "reference.pgm").exists()

    def test_missing_run_dir_exit_one(self, tmp_path, capsys):
        code = cli.main(["calibrate", "--run", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "c")])
        assert code == 1
        assert "tacsense calibrate:" in capsys.readouterr().err

    def test_calibrate_run_without_frames_exit_one(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "0"]) == 0
        code = cli.main(["calibrate", "--run", str(run_dir),
                         "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert str(run_dir / "manifest.json") in err
        assert "no frames" in err

    def test_unknown_placement_exit_one_without_frames(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"placement": "corner"}))
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "placement" in err and "corner" in err
        assert not out.exists()

    @pytest.mark.parametrize("values, key", [({"seed": "abc"}, "seed"),
                                             ({"presses": 2.5}, "presses")])
    def test_bad_config_type_exit_one_without_output(self, tmp_path, capsys,
                                                     values, key):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert f"config key '{key}'" in err
        assert not out.exists()

    def test_flag_overrides_reach_pipeline(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--out", str(out), "--presses", "2",
                         "--seed", "11", "--scheme", "s2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["scheme"] == "s2"
        assert len(manifest["frames"]) == 2
