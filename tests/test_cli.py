import contextlib
import importlib.util
import io
import json
import re
import shutil
import sys
import tempfile
import threading
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tacsense import calib, cli, fileio, sim
from tacsense.cli import RunConfig
from tacsense.core import DepthMap, GrayImage, PointCloud, SensorError, SensorGeometry
from tacsense.pose import Pose


def pose_from_list(values) -> Pose:
    """Inverse of the 12-number pose lists in manifests and track reports."""
    v = np.asarray(values, dtype=np.float64)
    return Pose(v[:9].reshape(3, 3), v[9:12])


@pytest.fixture(scope="module")
def press_run(tmp_path_factory):
    """A deterministic noiseless ball-press run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("run") / "presses"
    out.mkdir()
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
    def test_every_field_is_checked(self):
        assert set(cli._CONFIG_FIELDS) == {f.name for f in fields(RunConfig)}

    def test_defaults(self):
        cfg = RunConfig.load(None)
        assert cfg.seed == 0
        assert cfg.scheme == "standard"
        assert cfg.noise_sigma == 0.0

    def test_sensor_defaults_are_the_models_defaults(self):
        assert RunConfig().geometry() == SensorGeometry()
        assert RunConfig().optical() == sim.OpticalModel()

    def test_the_field_checked_is_the_field_lit(self):
        """The led_sigma check builds the field that every later caller gets."""
        sim.make_illumination.cache_clear()
        cfg = RunConfig(crop_size=120, raw_width=120, raw_height=120)
        assert sim.make_illumination.cache_info()[:2] == (0, 1)  # hits, misses
        assert cfg.illumination() is cfg.illumination()
        assert sim.make_illumination.cache_info()[:2] == (2, 1)
        for _ in range(2):
            cli.run_evaluation(cfg, schemes=("standard",))
        assert sim.make_illumination.cache_info().misses == 1
        sim.make_illumination.cache_clear()
        report = cli.run_evaluation(cfg)
        assert sim.make_illumination.cache_info().misses == 5
        assert all("error" not in cell for cell in report["schemes"].values())

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
        with pytest.raises(fileio.FormatError, match="unknown config keys"):
            RunConfig.load(path)

    def test_unknown_placement_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"placement": "corner"}))
        with pytest.raises(fileio.FormatError,
                           match=re.escape(f"{path}: placement: expected one of "
                                           "('center', 'random'), got str 'corner'")):
            RunConfig.load(path)

    @pytest.mark.parametrize("values, message", [
        ({"seed": "abc"}, "seed: expected int >= 0, got str 'abc'"),
        ({"presses": 2.5}, "presses: expected int >= 0, got float 2.5"),
        ({"seed": True}, "seed: expected int >= 0, got bool True"),
        ({"scheme": 3}, "scheme: expected one of "
                        "('standard', 's1', 's2', 's3', 's4'), got int 3"),
        ({"method": "spline"}, "method: expected one of "
                               "('single', 'regression'), got str 'spline'"),
        ({"thickness": 0}, "optical: thickness must be positive, got 0"),
        ({"noise_sigma": -1.0}, "noise_sigma: expected number >= 0 whose square is "
                                "finite, got float -1.0"),
        ({"presses": -1}, "presses: expected int >= 0, got int -1"),
        ({"frames_per_press": 0},
         "frames_per_press: expected int > 0, got int 0"),
        ({"gain": 10 ** 400}, "gain: expected number, got int 1000"),
        ({"gain": 250, "ambient": 10},
         "optical: ambient + gain must not exceed 255"),
        ({"crop_size": 900},
         "geometry: crop window does not fit inside the raw frame"),
        ({"raw_width": 10 ** 400, "raw_height": 10 ** 400, "crop_size": 10 ** 400},
         "geometry: int too large to convert to float"),
        ({"raw_width": 100000, "raw_height": 100000, "crop_size": 100000},
         "geometry: raw_width must be at most 4096 px, got 100000"),
    ])
    def test_bad_value_names_the_key(self, tmp_path, values, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        with pytest.raises(fileio.FormatError, match=re.escape(f"{path}: {message}")):
            RunConfig.load(path)

    def test_largest_frame_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"raw_width": 4096, "raw_height": 4096}))
        assert RunConfig.load(path).geometry().raw_width == 4096

    def test_bad_flag_over_a_file_names_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "crop_size": 64}))
        with pytest.raises(fileio.FormatError) as exc:
            RunConfig.load(path, seed=-3)
        assert str(exc.value) == "config: seed: expected int >= 0, got int -3"
        with pytest.raises(fileio.FormatError) as exc:
            RunConfig.load(path, crop_size=900)
        assert str(exc.value) == ("config: geometry: crop window does not fit "
                                  "inside the raw frame")

    def test_bad_flag_override_rejected(self):
        with pytest.raises(fileio.FormatError,
                           match="config: seed: expected int >= 0, got int -3"):
            RunConfig.load(None, seed=-3)

    def test_non_finite_override_names_the_key(self):
        with pytest.raises(fileio.FormatError,
                           match="config: thickness: expected number, got float nan"):
            RunConfig.load(None, thickness=float("nan"))

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(fileio.FormatError, match="expected a JSON object"):
            RunConfig.load(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("optical", "thickness", -2, "thickness must be positive, got -2"),
        ("optical", "thickness", 0, "thickness must be positive, got 0"),
        ("optical", "attenuation", 0.0, "attenuation must be positive, got 0.0"),
        ("optical", "gain", -1, "gain must be positive, got -1"),
        ("optical", "ambient", -0.5, "ambient must be non-negative, got -0.5"),
        ("optical", "gain", 250, "ambient + gain must not exceed 255"),
        ("geometry", "raw_width", 0, "raw_width must be positive, got 0"),
        ("geometry", "crop_size", -3, "crop_size must be positive, got -3"),
        ("geometry", "crop_size", 900, "crop window does not fit inside the raw frame"),
        ("geometry", "field_mm", 0.0, "field_mm must be finite and positive, got 0.0"),
        ("geometry", "field_mm", 1e-320, "pixel_pitch (field_mm / crop_size) must be a "
                                         "positive normal float, got "),
        ("geometry", "field_mm", 7e38, "field_mm / 2 must fit a float32, got 7e+38"),
        ("optical", "attenuation", 1.7e308, "attenuation * thickness must be finite, "
                                            "got 1.7e+308 * 2.0"),
        ("optical", "thickness", 1.7e308, "attenuation * thickness must be finite, "
                                          "got 1.2 * 1.7e+308"),
    ])
    def test_config_and_manifest_give_one_message(self, tmp_path, section, key,
                                                  value, message):
        """The models own the ranges, so only the file prefix differs."""
        with pytest.raises(fileio.FormatError) as from_config:
            RunConfig(**{key: value})
        manifest = {"format": cli.RUN_FORMAT, "frames": [{"image": "f.pgm"}],
                    "reference": "r.pgm", "kind": "sequence",
                    "geometry": asdict(SensorGeometry()),
                    "optical": asdict(sim.OpticalModel())}
        manifest[section][key] = value
        fileio.write_json(tmp_path / "manifest.json", manifest)
        with pytest.raises(fileio.FormatError) as from_manifest:
            cli.Run.load(tmp_path)
        assert str(from_config.value).startswith(f"config: {section}: {message}")
        tail = str(from_config.value).removeprefix("config: ")
        assert str(from_manifest.value) == f"{tmp_path / 'manifest.json'}: {tail}"

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
        again.mkdir()
        cli.cmd_simulate(RunConfig(seed=7, presses=8, placement="random"), again)
        for frame in manifest["frames"]:
            a = (run_dir / frame["image"]).read_bytes()
            b = (again / frame["image"]).read_bytes()
            assert a == b

    def test_sequence_run_records_poses(self, tmp_path):
        out = tmp_path / "seq"
        out.mkdir()
        manifest = cli.cmd_simulate(RunConfig(), out, object_kind="hex_nut",
                                    n_frames=3, step_deg=5.0)
        assert manifest["kind"] == "sequence"
        assert len(manifest["frames"]) == 3
        pose = pose_from_list(manifest["frames"][1]["pose"])
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
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="slab", n_frames=1)
        with pytest.raises(fileio.FormatError, match=re.escape(
                f"{seq / 'manifest.json'}: kind: calibration needs a ball-press "
                f"run, got 'sequence'")):
            cli.cmd_calibrate(RunConfig(method="single"), seq,
                              tmp_path / "c.json")

    def test_unknown_method_rejected(self, press_run, tmp_path):
        run_dir, _ = press_run
        with pytest.raises(fileio.FormatError,
                           match=re.escape("config: method: expected one of "
                                           "('single', 'regression'), "
                                           "got str 'spline'")):
            cli.cmd_calibrate(RunConfig(method="spline"), run_dir,
                              tmp_path / "c.json")

    def test_s4_regression_centre_is_the_study_corner(self, tmp_path):
        run_dir = tmp_path / "s4"
        run_dir.mkdir()
        cli.cmd_simulate(RunConfig(seed=1, scheme="s4", presses=4,
                                   placement="random"), run_dir)
        out = tmp_path / "reg" / "calibration.json"
        out.parent.mkdir()
        cli.cmd_calibrate(RunConfig(method="regression"), run_dir, out)
        payload = json.loads(out.read_text())
        assert (payload["center_u"], payload["center_v"]) == (579.0, 0.0)

    def test_wrong_format_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(fileio.FormatError,
                           match=re.escape("bad.json: format: expected one of "
                                           "('tacsense-calib-v1',), "
                                           "got str 'something-else'")):
            cli.load_calibration(bad)


class TestReconstruct:
    def test_outputs_per_frame(self, press_run, single_calib, tmp_path):
        run_dir, manifest = press_run
        out = tmp_path / "recon"
        out.mkdir()
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
        out.mkdir()
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
        out.mkdir()
        cli.cmd_reconstruct(RunConfig(), run_dir, single_calib, out)
        frame = manifest["frames"][0]
        truth = fileio.read_depth(run_dir / frame["truth"])
        depth = fileio.read_depth(out / "depth_000.dtd")
        assert np.abs(depth.data - truth.data).mean() <= 0.05


def serial_presses(rig, ball_radius, placement, n, count=1):
    """sim.BallPressRig.presses without the worker: `press` n times in turn."""
    return (rig.press(ball_radius, placement, count) for _ in range(n))


def patch_render_call(monkeypatch, k, replace):
    """Send sim.render_tactile's k-th call (from 1) to `replace`; the list
    returned gets threading.active_count() at every call."""
    render, calls, threads = sim.render_tactile, [0], []

    def patched(depth, *args, **kwargs):
        calls[0] += 1
        threads.append(threading.active_count())
        if calls[0] == k:
            return replace(render, depth, *args, **kwargs)
        return render(depth, *args, **kwargs)
    monkeypatch.setattr(sim, "render_tactile", patched)
    return threads


def render_fails(render, depth, *args, **kwargs):
    raise SensorError("render failed")


def render_no_contact(render, depth, *args, **kwargs):
    return render(DepthMap(np.zeros_like(depth.data)), *args, **kwargs)


class TestEvaluate:
    # A scheme renders its reference (8 frames when noisy), the single press,
    # then 30 regression and 20 test presses.
    @pytest.mark.parametrize("noise_sigma, call, replace, error", [
        (1.0, 8 + 1 + 6, render_fails, "SensorError: render failed"),
        (1.0, 8 + 1 + 30 + 6, render_fails, "SensorError: render failed"),
        (0.0, 1 + 1 + 8, render_no_contact,
         f"NoContactError: press 7: no pixel reaches threshold "
         f"{calib.CONTACT_THRESHOLD}"),
    ])
    def test_a_failed_press_reads_as_in_serial_and_leaves_no_thread(
            self, monkeypatch, noise_sigma, call, replace, error):
        cfg = RunConfig(crop_size=120, raw_width=120, raw_height=120,
                        noise_sigma=noise_sigma)
        alone = cli.run_evaluation(cfg, schemes=("s2",))["schemes"]["s2"]
        assert "error" not in alone
        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(sim.BallPressRig, "presses", serial_presses)
            patch_render_call(patch, call, replace)
            serial = cli.run_evaluation(cfg, schemes=("standard", "s2"))
        seen = patch_render_call(monkeypatch, call, replace)
        report = cli.run_evaluation(cfg, schemes=("standard", "s2"))
        assert threading.active_count() == threads
        assert max(seen) == threads + 1  # one worker, and only one
        assert report == serial
        cell = report["schemes"]["standard"]
        assert set(cell) == {"reference_std", "error"}
        assert cell["error"] == error
        assert report["schemes"]["s2"] == alone

    def test_report_structure_and_determinism(self):
        cfg = RunConfig(seed=3)
        a = cli.run_evaluation(cfg, schemes=("standard",))
        b = cli.run_evaluation(cfg, schemes=("standard",))
        assert a == b
        cell = a["schemes"]["standard"]
        assert set(cell) == {"reference_std", "single_mae", "regression_mae"}
        assert cell["single_mae"] < 0.05

    def test_scheme_that_darkens_the_field_reports_an_error_cell(self):
        """led_sigma 8 lights the standard ring at 240 px but not the s4 cluster."""
        cfg = RunConfig(crop_size=240, led_sigma=8.0)
        report = cli.run_evaluation(cfg, schemes=("s4",))
        assert report["schemes"] == {"s4": {"error": (
            "FormatError: config: led_sigma: 8.0 is too small: the LED light "
            "underflows to 0 on the 240 px field")}}

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
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut",
                         n_frames=3, step_deg=0.0)
        out = tmp_path / "track"
        out.mkdir()
        payload = cli.cmd_track(RunConfig(), seq, single_calib, out)
        assert len(payload["frames"]) == 3
        for frame in payload["frames"]:
            assert frame["converged"] and frame["stop"] in ("settled", "score_rose")
            assert frame["inlier_fraction"] == 1.0
            assert frame["plane_steps"] + frame["svd_steps"] == frame["iterations"]
            assert frame["svd_steps"] == 0  # rim clouds carry normals
            pose = pose_from_list(frame["pose"])
            # acos near +1 amplifies 1e-16 matrix error to ~1e-6 degrees
            assert pose.rotation_angle_deg() <= 1e-4


    def test_model_cloud_tracks_as_its_float64_copy(self, single_calib, tmp_path):
        # A reconstructed cloud reads as float32; the same points stored as
        # double read as float64. ICP widens the first, so both track alike.
        seq = tmp_path / "seq"
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut", n_frames=3)
        rec = tmp_path / "rec"
        rec.mkdir()
        cli.cmd_reconstruct(RunConfig(), seq, single_calib, rec)
        cloud = fileio.read_ply(rec / "cloud_000.ply")
        assert cloud.points.dtype == np.float32
        double = tmp_path / "double.ply"
        double.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex "
                           + str(len(cloud)).encode("ascii") + b"\nproperty double x\n"
                           b"property double y\nproperty double z\nend_header\n"
                           + cloud.points.astype("<f8").tobytes())
        assert fileio.read_ply(double).points.dtype == np.float64
        reports = []
        for model in (rec / "cloud_000.ply", double):
            out = tmp_path / model.stem
            out.mkdir()
            reports.append(cli.cmd_track(RunConfig(), seq, single_calib, out, model))
        assert reports[0] == reports[1]
        assert all(frame["converged"] for frame in reports[0]["frames"])

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_reconstructed_cloud_tracks_as_a_model(self, single_calib, tmp_path,
                                                   noise):
        # Most of a reconstructed cloud is the flat z = 0 plane; track keeps
        # its rim band, as the frames' clouds hold.
        seq = tmp_path / "seq"
        seq.mkdir()
        manifest = cli.cmd_simulate(RunConfig(noise_sigma=noise, seed=3), seq,
                                    object_kind="hex_nut", n_frames=12, step_deg=5.0)
        rec = tmp_path / "rec"
        rec.mkdir()
        cli.cmd_reconstruct(RunConfig(), seq, single_calib, rec)
        out = tmp_path / "track"
        out.mkdir()
        payload = cli.cmd_track(RunConfig(), seq, single_calib, out,
                                rec / "cloud_000.ply")
        truth = [pose_from_list(f["pose"]).z_angle_deg() for f in manifest["frames"]]
        for frame, true in zip(payload["frames"], truth):
            tracked = pose_from_list(frame["pose"]).z_angle_deg()
            assert abs((tracked - (true - truth[0]) + 30.0) % 60.0 - 30.0) <= 0.1


class TestMain:
    @pytest.mark.parametrize("points", [0, 2])
    def test_track_small_model_cloud_exit_one(self, single_calib, tmp_path, capsys,
                                              points):
        seq = tmp_path / "seq"
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut", n_frames=2)
        model_cloud = tmp_path / "model.ply"
        # `points` rim points 0.5 mm deep and one deeper plateau point.
        rim = np.zeros((points, 3)) - [0.0, 0.0, 0.5]
        fileio.write_ply(model_cloud, PointCloud(np.vstack([rim, [0.0, 0.0, -1.0]])))
        out = tmp_path / "out"
        code = cli.main(["track", "--run", str(seq), "--calib", str(single_calib),
                         "--out", str(out), "--model-cloud", str(model_cloud)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert (f"{model_cloud}: model cloud has {points} rim points, "
                f"need at least 3") in err
        assert not out.exists()

    def test_track_icp_failure_names_the_frame(self, single_calib, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut", n_frames=2)
        model_cloud = tmp_path / "model.ply"
        # Three collinear rim points 0.5 mm deep and one deeper plateau point.
        rim = np.outer(np.arange(3.0), [1.0, 0.0, 0.0]) - [0.0, 0.0, 0.5]
        fileio.write_ply(model_cloud, PointCloud(np.vstack([rim, [0.0, 0.0, -1.0]])))
        out = tmp_path / "out"
        code = cli.main(["track", "--run", str(seq), "--calib", str(single_calib),
                         "--out", str(out), "--model-cloud", str(model_cloud)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip() == "tacsense track: frame 0: correspondences are collinear"
        assert not out.exists()

    def test_track_empty_first_frame_exit_one(self, single_calib, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        cli.cmd_simulate(RunConfig(), seq, object_kind="hex_nut", n_frames=2)
        (seq / "frame_000.pgm").write_bytes((seq / "reference.pgm").read_bytes())
        out = tmp_path / "out"
        code = cli.main(["track", "--run", str(seq), "--calib", str(single_calib),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "frame 0: model cloud has 0 points, need at least 3" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["calibrate", "reconstruct", "track"])
    def test_run_without_frames_exit_one_without_output(self, single_calib,
                                                        tmp_path, capsys, command):
        run_dir = tmp_path / "empty"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "0"]) == 0
        out = tmp_path / "out"
        calib_args = [] if command == "calibrate" else ["--calib", str(single_calib)]
        code = cli.main([command, "--run", str(run_dir), *calib_args,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert str(run_dir / "manifest.json") in err
        assert "no frames" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "track"])
    def test_calibration_thickness_mismatch_exit_one(self, single_calib, tmp_path,
                                                     capsys, command):
        run_dir = tmp_path / "thick"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "1",
                         "--thickness", "3.0", "--scheme", "s4"]) == 0
        out = tmp_path / "out"
        code = cli.main([command, "--run", str(run_dir), "--calib",
                         str(single_calib), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert str(single_calib) in err and str(run_dir / "manifest.json") in err
        assert "2.0 mm" in err and "3.0 mm" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "track"])
    def test_frame_error_names_the_frame(self, single_calib, tmp_path, capsys,
                                         command):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "2"]) == 0
        fileio.write_pgm(run_dir / "frame_001.pgm",
                         GrayImage(np.zeros((4, 4), dtype=np.uint8)))
        code = cli.main([command, "--run", str(run_dir), "--calib",
                         str(single_calib), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "frame 1: reference and contact image dimensions differ" in err
        assert f"{run_dir / 'frame_001.pgm'} is 4x4 px" in err
        assert not (tmp_path / "out").exists()

    def test_calibrate_sequence_run_names_the_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "seq"
        assert cli.main(["simulate", "--out", str(run_dir), "--object", "slab",
                         "--frames", "1"]) == 0
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        capsys.readouterr()
        assert cli.main(["calibrate", "--run", str(run_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"tacsense calibrate: {run_dir / 'manifest.json'}: kind: "
                       f"calibration needs a ball-press run, got 'sequence'\n")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_failed_reconstruct_leaves_existing_output_alone(self, single_calib,
                                                             tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "2"]) == 0
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--run", str(run_dir), "--calib",
                         str(single_calib), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fileio.write_pgm(run_dir / "frame_001.pgm",
                         GrayImage(np.zeros((4, 4), dtype=np.uint8)))
        assert cli.main(["reconstruct", "--run", str(run_dir), "--calib",
                         str(single_calib), "--out", str(out)]) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["calibrate", "reconstruct", "track"])
    @pytest.mark.parametrize("edit, message", [
        (lambda m: {k: v for k, v in m.items() if k != "optical"},
         "manifest.json: optical: missing"),
        (lambda m: [1, 2], "manifest.json: expected a JSON object, got list"),
        (lambda m: {**m, "optical": {k: v for k, v in m["optical"].items()
                                     if k not in ("gain", "attenuation")}},
         "manifest.json: optical.attenuation: missing"),
        (lambda m: {**m, "optical": {k: v for k, v in m["optical"].items()
                                     if k != "gain"}},
         "manifest.json: optical.gain: missing"),
        (lambda m: {**m, "optical": {**m["optical"], "ambient": None}},
         "manifest.json: optical.ambient: expected number, got NoneType None"),
        (lambda m: {**m, "optical": {**m["optical"], "thickness": "2"}},
         "manifest.json: optical.thickness: expected number, got str '2'"),
        (lambda m: {**m, "frames": [{}]}, "manifest.json: frames[0].image: missing"),
        (lambda m: {**m, "frames": [{**m["frames"][0], "image": "../b/frame_000.pgm"}]},
         "manifest.json: frames[0].image: expected path inside the run, "
         "got str '../b/frame_000.pgm'"),
        (lambda m: {**m, "frames": [{**m["frames"][0], "image": "/etc/hostname"}]},
         "manifest.json: frames[0].image: expected path inside the run, "
         "got str '/etc/hostname'"),
        (lambda m: {**m, "reference": "../run/reference.pgm"},
         "manifest.json: reference: expected path inside the run, "
         "got str '../run/reference.pgm'"),
        (lambda m: {**m, "geometry": {**m["geometry"], "extra": 1}},
         "manifest.json: geometry: "),
        (lambda m: {**m, "geometry": {**m["geometry"], "crop_size": 500}},
         "manifest.json: geometry.crop_size 500 does not match reference "
         "'reference.pgm', 580x580 px"),
        (lambda m: {**m, "optical": {**m["optical"], "thickness": -2}},
         "manifest.json: optical: thickness must be positive, got -2"),
        (lambda m: {**m, "geometry": {**m["geometry"], "field_mm": 1e-320}},
         "manifest.json: geometry: pixel_pitch (field_mm / crop_size) must be a "
         "positive normal float, got "),
        (lambda m: {**m, "scheme": "zz"},
         "manifest.json: scheme: expected one of ('standard', 's1', 's2', 's3', "
         "'s4'), got str 'zz'"),
        (lambda m: {**m, "optical": {**m["optical"], "thickness": 10 ** 400}},
         "manifest.json: optical.thickness: expected number, got int 1000"),
        (lambda m: {**m, "ball_radius_mm": 1e300},
         "manifest.json: ball_radius_mm: expected number > 0 whose square is "
         "finite, got float 1e+300"),
        (lambda m: {**m, "geometry": dict.fromkeys(
            ("raw_width", "raw_height", "crop_size"), 10 ** 400) | {"field_mm": 24.0}},
         "manifest.json: geometry: int too large to convert to float"),
        (lambda m: {**m, "geometry": {**m["geometry"], "raw_height": 4097}},
         "manifest.json: geometry: raw_height must be at most 4096 px, got 4097"),
        (lambda m: {**m, "frames": ["frame_000.pgm"]},
         "manifest.json: frames[0]: expected object, got str"),
        (lambda m: {**m, "kind": "Presses"}, "manifest.json: kind: expected one of "
         "('presses', 'sequence'), got str 'Presses'"),
        (lambda m: {**m, "reference": "missing.pgm"},
         "manifest.json: reference: [Errno 2] No such file or directory: "),
        (lambda m: {**m, "reference": "."},
         "manifest.json: reference: [Errno 21] Is a directory: "),
        (lambda m: {**m, "frames": [{**m["frames"][0], "image": "missing.pgm"}]},
         "manifest.json: frames[0].image: [Errno 2] No such file or directory: "),
        (lambda m: {**m, "frames": [{**m["frames"][0], "image": "."}]},
         "manifest.json: frames[0].image: [Errno 21] Is a directory: "),
        (lambda m: {k: v for k, v in m.items() if k != "ball_radius_mm"}
         | {"kind": "Presses", "scheme": "bogus"}, "manifest.json: kind: expected "
         "one of ('presses', 'sequence'), got str 'Presses'"),
    ])
    def test_broken_manifest_exit_one(self, single_calib, tmp_path, capsys,
                                      command, edit, message):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "1"]) == 0
        manifest_path = run_dir / "manifest.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        out = tmp_path / "out"
        calib_args = [] if command == "calibrate" else ["--calib", str(single_calib)]
        code = cli.main([command, "--run", str(run_dir), *calib_args,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "track"])
    @pytest.mark.parametrize("edit, message", [
        (lambda f: f[0].update(pose="x"),
         "frames[0].pose: expected numbers, got str 'x'"),
        (lambda f: f[1].pop("pose"), "frames[1].pose: missing"),
        (lambda f: f[1].update(pose=f[1]["pose"][:11]),
         "frames[1].pose: expected 12 numbers, got 11"),
        (lambda f: f[0].update(pose=[2.0, *f[0]["pose"][1:]]),
         "frames[0].pose: rotation is not orthonormal"),
        (lambda f: f[0].update(pose=[-1.0, *f[0]["pose"][1:]]),
         "frames[0].pose: rotation determinant is not +1"),
        (lambda f: f[1].update(pose=[1e200] * 12),
         "frames[1].pose: rotation is not orthonormal"),
        (lambda f: f[1].update(pose=[*f[1]["pose"][:11], "0"]),
         "frames[1].pose: expected numbers, got list"),
    ])
    def test_broken_sequence_pose_exit_one(self, single_calib, tmp_path, capsys,
                                           command, edit, message):
        run_dir = tmp_path / "seq"
        assert cli.main(["simulate", "--out", str(run_dir), "--object", "hex_nut",
                         "--frames", "2"]) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest["frames"])
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--run", str(run_dir), "--calib",
                             str(single_calib), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"tacsense {command}: {manifest_path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "track"])
    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("max_calibrated"), "max_calibrated: missing"),
        (lambda p: p.update(thickness=10 ** 400),
         "thickness: expected number, got int 1000"),
        (lambda p: p["entries"].__setitem__(1, 10 ** 400),
         "entries: expected numbers, got list [0.0, 1000"),
    ])
    def test_broken_calibration_exit_one(self, press_run, single_calib, tmp_path,
                                         capsys, command, edit, message):
        payload = json.loads(single_calib.read_text())
        edit(payload)
        broken = tmp_path / "calibration.json"
        broken.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = cli.main([command, "--run", str(press_run[0]), "--calib", str(broken),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert f"{broken}: {message}" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("values, message", [
        ({"seed": "abc"}, "{config}: seed: expected int >= 0, got str 'abc'"),
        ({"presses": 2.5}, "{config}: presses: expected int >= 0, got float 2.5"),
        ({"led_sigma": 1.0}, "{config}: led_sigma: 1.0 is too small: the LED light "
                             "underflows to 0 on the 580 px field"),
        ({"led_sigma": 1e-200}, "{config}: led_sigma: 1e-200 is too small"),
    ])
    def test_bad_config_type_exit_one_without_output(self, tmp_path, capsys,
                                                     values, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert f"tacsense simulate: {message.format(config=config)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_oversized_frame_in_config_exit_one_without_output(
            self, press_run, single_calib, tmp_path, capsys, command):
        """Refused by its size before any crop-sized array is built."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict.fromkeys(
            ("raw_width", "raw_height", "crop_size"), 100000)))
        out = tmp_path / "out"
        run_args = ([] if command == "simulate"
                    else ["--run", str(press_run[0]), "--calib", str(single_calib)])
        code = cli.main([command, "--config", str(config), *run_args, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"tacsense {command}: {config}: geometry: raw_width must be at most "
            f"4096 px, got 100000\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, square", [
        ("simulate", "ball_radius", 1e300, "finite"),
        ("simulate", "led_sigma", 1e300, "finite"),
        ("evaluate", "led_sigma", 1e300, "finite"),
        ("reconstruct", "gaussian_sigma", 1e300, "a normal float"),
        ("track", "gaussian_sigma", 1e300, "a normal float"),
        ("reconstruct", "gaussian_sigma", 1e-300, "a normal float"),
    ])
    def test_config_value_squared_out_of_range_exit_one(self, press_run, single_calib,
                                                        tmp_path, capsys, command,
                                                        key, value, square):
        """One line naming the key, no warning, and --out left as it was."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        run_args = ([] if command in ("simulate", "evaluate")
                    else ["--run", str(press_run[0]), "--calib", str(single_calib)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(config), *run_args,
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"tacsense {command}: {config}: {key}: expected number > 0 whose square "
            f"is {square}, got float {value!r}\n")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("command, key, value, message", [
        ("simulate", "thickness", 1.7e308,
         "optical: attenuation * thickness must be finite, got 1.2 * 1.7e+308"),
        ("simulate", "attenuation", 1.7e308,
         "optical: attenuation * thickness must be finite, got 1.7e+308 * 2.0"),
        ("simulate", "noise_sigma", 1.7e308, "noise_sigma: expected number >= 0 whose "
                                             "square is finite, got float 1.7e+308"),
        ("simulate", "field_mm", 1e200,
         "geometry: field_mm / 2 must fit a float32, got 1e+200"),
        ("reconstruct", "geometry.field_mm", 7e38,
         "geometry: field_mm / 2 must fit a float32, got 7e+38"),
    ])
    def test_value_the_model_cannot_represent_exit_one(self, press_run, single_calib,
                                                      tmp_path, capsys, command, key,
                                                      value, message):
        """One line naming the file and the key, no warning, --out as it was."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({} if "." in key else {key: value}))
        source = config
        run_args = []
        if command == "reconstruct":
            run_dir = tmp_path / "run"
            shutil.copytree(press_run[0], run_dir)
            source = run_dir / "manifest.json"
            manifest = json.loads(source.read_text())
            manifest["geometry"]["field_mm"] = value
            fileio.write_json(source, manifest)
            run_args = ["--run", str(run_dir), "--calib", str(single_calib)]
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(config), *run_args,
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"tacsense {command}: {source}: {message}\n"
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_led_sigma_with_a_subnormal_square_exit_one_without_warning(self, tmp_path,
                                                                       capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"led_sigma": 1e-160}))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"tacsense simulate: {config}: led_sigma: 1e-160 is too small: the LED "
            f"light underflows to 0 on the 580 px field\n")
        assert not out.exists()

    def test_depth_that_overflows_float32_exit_one_without_output(self, tmp_path,
                                                                  capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--thickness", "1e300", "--ball-radius",
                             "1e150", "--presses", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"tacsense simulate: {out}/frame_000.dtd: depth values "
                       f"overflow float32\n")
        assert ".partial-" not in err
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

    def test_track_empty_frames_write_null_rmse(self, single_calib, tmp_path):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), "--presses", "2",
                         "--ball-radius", "1e-9"]) == 0
        out = tmp_path / "out"
        assert cli.main(["track", "--run", str(run_dir), "--calib",
                         str(single_calib), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads((out / "track_report.json").read_text(),
                             parse_constant=refuse)
        assert [f["rmse"] for f in payload["frames"]] == [None, None]
        assert not any(f["converged"] for f in payload["frames"])
        assert [f["stop"] for f in payload["frames"]] == ["no_points", "no_points"]
        assert all(f["plane_steps"] == f["svd_steps"] == 0 for f in payload["frames"])

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_output_as_it_was(self, tmp_path, capsys,
                                                  monkeypatch, existing):
        out = tmp_path / "run"
        if existing:
            assert cli.main(["simulate", "--out", str(out), "--presses", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        calls = []
        write_pgm = fileio.write_pgm

        def failing_write_pgm(path, img):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(f"{path}: disk full")
            write_pgm(path, img)

        monkeypatch.setattr(fileio, "write_pgm", failing_write_pgm)
        code = cli.main(["simulate", "--out", str(out), "--presses", "3",
                         "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "disk full" in err
        assert len(calls) == 3
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()

    def test_truncated_config_exit_one_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"seed": 1,\n')
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert f"tacsense simulate: {config}: Expecting property name" in err
        assert not out.exists()


    def test_config_integer_too_large_for_a_float_exit_one(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"gain": 1' + "0" * 400 + "}")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert f"{config}: gain: expected number, got int 1000" in err
        assert not out.exists()

    @pytest.mark.parametrize("existing", ["", "a", "a/b"])
    def test_failed_command_removes_the_parents_it_created(self, tmp_path, capsys,
                                                          existing):
        (tmp_path / "tree" / existing).mkdir(parents=True)
        (tmp_path / "tree" / existing / "keep.txt").write_text("kept")
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        code = cli.main(["calibrate", "--run", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "tree" / "a" / "b" / "c")])
        capsys.readouterr()
        assert code == 1
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    def test_successful_command_keeps_the_parents_it_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        assert cli.main(["simulate", "--out", str(out), "--presses", "1"]) == 0
        assert (out / "manifest.json").exists()

    def test_a_directory_in_the_way_leaves_the_output_as_it_was(
            self, small_press_run, tmp_path, capsys):
        run_dir, calib_path = small_press_run
        out = tmp_path / "out"
        (out / "depth_000.dtd").mkdir(parents=True)
        (out / "depth_000.dtd" / "inner.txt").write_text("inner")
        (out / "cloud_000.ply").write_text("kept")

        def tree():
            return {p.relative_to(tmp_path): p.is_dir() or p.read_bytes()
                    for p in tmp_path.rglob("*")}

        before = tree()
        code = cli.main(["reconstruct", "--run", str(run_dir), "--calib",
                         str(calib_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"tacsense reconstruct: {out / 'depth_000.dtd'}: is a directory\n")
        assert tree() == before

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "not UTF-8 at byte 0"),
        (b'{"seed": 1, "note": "caf\xe9"}', "not UTF-8 at byte 24"),
        (b"[" * 200_000, "JSON nested too deeply"),
    ], ids=["utf16_bom", "latin1_byte", "deep_nesting"])
    @pytest.mark.parametrize("role", ["config", "manifest", "calib"])
    def test_undecodable_json_exit_one_naming_the_file(
            self, small_press_run, tmp_path, capsys, role, content, message):
        run_dir, calib_path = small_press_run
        if role == "manifest":
            run_dir = shutil.copytree(run_dir, tmp_path / "run")
            bad = run_dir / "manifest.json"
        else:
            bad = tmp_path / f"{role}.json"
        if role == "calib":
            calib_path = bad
        bad.write_bytes(content)
        config_args = ["--config", str(bad)] if role == "config" else []
        code = cli.main(["reconstruct", *config_args, "--run", str(run_dir),
                         "--calib", str(calib_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"tacsense reconstruct: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestFlags:
    """Each command takes only the flags it reads; argparse refuses the rest."""

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--method"),
        *[("calibrate", f) for f in ("--scheme", "--thickness", "--noise")],
        *[("reconstruct", f) for f in ("--seed", "--method", "--scheme",
                                       "--thickness", "--noise")],
        ("evaluate", "--method"), ("evaluate", "--scheme"),
        *[("track", f) for f in ("--seed", "--method", "--scheme", "--thickness",
                                 "--noise")],
    ])
    def test_unread_flag_exit_two_without_output(self, tmp_path, capsys,
                                                 command, flag):
        value = {"--method": "regression", "--scheme": "s2"}.get(flag, "3")
        run_args = {"calibrate": ["--run", "r"],
                    "reconstruct": ["--run", "r", "--calib", "c"],
                    "track": ["--run", "r", "--calib", "c"]}.get(command, [])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *run_args, "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--frames", "3"], "argument --frames: requires --object"),
        (["--step-deg", "2"], "argument --step-deg: requires --object"),
        (["--object", "hex_nut", "--presses", "7"],
         "argument --presses: not allowed with --object"),
        (["--object", "star", "--ball-radius", "9"],
         "argument --ball-radius: not allowed with --object"),
        (["--object", "slab", "--placement", "random"],
         "argument --placement: not allowed with --object"),
        (["--object", "hex_nut", "--step-deg", "nan"],
         "argument --step-deg: nan must be finite"),
        (["--object", "hex_nut", "--step-deg", "inf"],
         "argument --step-deg: inf must be finite"),
        (["--object", "hex_nut", "--step-deg=-inf"],
         "argument --step-deg: -inf must be finite"),
        (["--object", "hex_nut", "--frames", "-2"],
         "argument --frames: -2 must be >= 0"),
        (["--object", "hex_nut", "--frames", "3", "--step-deg", "1e308"],
         "argument --step-deg: 1e+308 must be finite, and so must each frame's "
         "angle, up to 2 times it"),
        (["--object", "hex_nut", "--step-deg", "2e307"],
         "argument --step-deg: 2e+307 must be finite, and so must each frame's "
         "angle, up to 11 times it"),
    ])
    def test_simulate_modes_refuse_each_others_flags(self, tmp_path, capsys,
                                                     args, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--out", str(out), *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sequence_flags_reach_the_run(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(out), "--object", "hex_nut",
                         "--frames", "2", "--step-deg", "10"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        angles = [pose_from_list(f["pose"]).rotation_angle_deg()
                  for f in manifest["frames"]]
        assert angles == pytest.approx([0.0, 10.0], abs=1e-6)


def test_benchmark_cli_calls_exit_zero(tmp_path, monkeypatch):
    """The simulate and reconstruct argv of perfbench's batch_reconstruct.

    Its set-up and one operation are run as they are, so a flag cut that
    breaks the benchmark's CLI calls fails here.
    """
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    bench = workloads.BatchReconstruct()
    state = bench.setup([11, 12], tmp_path)
    op = bench.op(state, 0)
    assert op.frames == workloads.BATCH_FRAMES_PER_RUN
    assert (tmp_path / "out_0" / "timings.json").exists()


# The RunConfig keys that hold a float.
FLOAT_CONFIG_KEYS = [key for key, kind in cli._CONFIG_FIELDS.items()
                     if isinstance(kind, str) and kind.startswith("number")]
# Log-uniform from 1e-300 to 1e308, plus hypothesis's own floats up to 1.7e308.
WIDE_FLOATS = (st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)
               | st.floats(1e-300, 1.7e308))


@pytest.fixture(scope="module")
def small_press_run(tmp_path_factory):
    """(run, calibration file) of one 64 px press, for fast whole commands."""
    root = tmp_path_factory.mktemp("small")
    config = root / "c.json"
    config.write_text(json.dumps({"crop_size": 64}))
    assert cli.main(["simulate", "--config", str(config), "--out", str(root / "run")]) == 0
    assert cli.main(["calibrate", "--run", str(root / "run"),
                     "--out", str(root / "calib")]) == 0
    return root / "run", root / "calib" / "calibration.json"


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from([*FLOAT_CONFIG_KEYS, "ball_radius_mm", "geometry.field_mm"]),
       value=WIDE_FLOATS)
def test_float_value_exits_zero_or_one_with_one_line(small_press_run, key, value):
    """No float of the whole range ends in a traceback or a warning.

    `simulate` reads most keys, `reconstruct` reads gaussian_sigma and a
    manifest's geometry.field_mm, and `calibrate` reads a press manifest's
    ball_radius_mm. Warnings are errors. A refusal is one stderr line, and
    nothing is written; a success writes nothing to stderr.
    """
    run_dir, calib_path = small_press_run
    in_manifest = key in ("ball_radius_mm", "geometry.field_mm")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "c.json"
        config.write_text(json.dumps({"crop_size": 64}
                                     | ({} if in_manifest else {key: value})))
        out = tmp / "out"
        if in_manifest:
            shutil.copytree(run_dir, tmp / "run")
            manifest = json.loads((tmp / "run" / "manifest.json").read_text())
            *parents, name = key.split(".")
            owner = manifest[parents[0]] if parents else manifest
            owner[name] = value
            fileio.write_json(tmp / "run" / "manifest.json", manifest)
            run_dir = tmp / "run"
        if key == "ball_radius_mm":
            argv = ["calibrate", "--run", str(run_dir)]
        elif key in ("gaussian_sigma", "geometry.field_mm"):
            argv = ["reconstruct", "--run", str(run_dir), "--calib", str(calib_path)]
        else:
            argv = ["simulate"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*argv, "--config", str(config), "--out", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1
            assert not out.exists()
        else:
            assert err.getvalue() == ""


# One-mutation fault injection of the commands that read a run. A mutation is
# (file, where, op, value), the file relative to the directory that holds a
# copy of the run and its calibration:
# op "delete" drops the JSON key at key path `where`, "set" gives it `value`,
# "truncate" cuts a PGM to `value` bytes, and "flip" XORs the PGM byte at
# offset `where` with `value` (offsets and lengths are taken modulo the size).
MANIFEST_KEYS = [
    *[(key,) for key in ("format", "kind", "scheme", "seed", "noise_sigma",
                         "reference", "frames", "geometry", "optical")],
    *[("geometry", key) for key in ("raw_width", "raw_height", "crop_size", "field_mm")],
    *[("optical", key) for key in ("thickness", "attenuation", "gain", "ambient")]]
PRESS_KEYS = [*MANIFEST_KEYS, ("ball_radius_mm",),
              *[("frames", 0, key) for key in ("image", "truth", "center_mm",
                                               "d_max_mm")]]
SEQUENCE_FRAMES = 3
SEQUENCE_KEYS = [*MANIFEST_KEYS, ("object",),
                 *[("frames", i, key) for i in range(SEQUENCE_FRAMES)
                   for key in ("image", "truth", "pose", "in_field")]]
CALIB_KEYS = [(key,) for key in ("format", "method", "thickness", "entries",
                                 "max_calibrated")]
MUTANT_VALUES = (st.sampled_from([None, True, "x", [], {}, [1.0, 2.0], 3, 0.5,
                                  -1, 1e308, 10 ** 400,  # out of range
                                  "Presses", "Sequence", "presses", "sequence",
                                  "regression", "s4"])
                 | st.text(max_size=8))
# Keys whose value must be one of a few strings: any other value is refused.
RUN_CHOICES = {("run/manifest.json", ("kind",)): ("presses", "sequence"),
               ("run/manifest.json", ("format",)): (cli.RUN_FORMAT,)}
PRESS_CHOICES = {**RUN_CHOICES, ("run/manifest.json", ("scheme",)): sim.SCHEMES}
CALIB_CHOICES = {("calibration.json", ("format",)): (calib.CALIB_FORMAT,),
                 ("calibration.json", ("method",)): cli.METHODS}


def mutations(json_keys: dict[str, list], pgm_files: list[str]):
    """One mutation of one file: a JSON key deleted or set, or a PGM truncated
    or one of its bytes flipped."""
    edits = [st.tuples(st.just(name), st.sampled_from(keys), st.just("delete"),
                       st.none())
             | st.tuples(st.just(name), st.sampled_from(keys), st.just("set"),
                         MUTANT_VALUES)
             for name, keys in json_keys.items()]
    pgm = st.sampled_from(pgm_files)
    return st.one_of(*edits,
                     st.tuples(pgm, st.none(), st.just("truncate"),
                               st.integers(0, 10 ** 4)),
                     st.tuples(pgm, st.integers(0, 10 ** 4), st.just("flip"),
                               st.integers(1, 255)))


def apply_mutation(root: Path, mutation) -> Path:
    """Apply `mutation` to the files under `root`; the path of the file."""
    name, where, op, value = mutation
    path = root / name
    if op in ("truncate", "flip"):
        data = bytearray(path.read_bytes())
        if op == "truncate":
            del data[value % len(data):]
        else:
            data[where % len(data)] ^= value
        path.write_bytes(data)
        return path
    payload = json.loads(path.read_text())
    owner = payload
    for step in where[:-1]:
        owner = owner[step]
    if op == "delete":
        del owner[where[-1]]
    else:
        owner[where[-1]] = value
    path.write_text(json.dumps(payload))
    return path


def run_mutated(command: str, run_dir: Path, calib_path: Path, mutation,
                choices: dict, outputs: list[str]) -> None:
    """Run `command` on a copy of the run and calibration with one mutation.

    No exception escapes `cli.main`, and warnings are errors. Either the
    command exits 0 with every output present and an empty stderr, or it exits
    1 with one stderr line naming the mutated file and writes nothing; a
    manifest names the files it lists by their path in the run. A key of
    `choices` set to a value that is not one of its choices exits 1.
    """
    name, where, op, value = mutation
    refused = op == "set" and value not in choices.get((name, where), (value,))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(run_dir, tmp / "run")
        shutil.copy(calib_path, tmp / "calibration.json")
        mutated = apply_mutation(tmp, mutation)
        out = tmp / "out"
        calib_args = ([] if command == "calibrate"
                      else ["--calib", str(tmp / "calibration.json")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--run", str(tmp / "run"), *calib_args,
                             "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0 and not refused:
            assert lines == []
            assert [path for path in outputs if not (out / path).is_file()] == []
        else:
            assert code == 1
            assert len(lines) == 1
            assert lines[0].startswith(f"tacsense {command}: ")
            # An OSError names its file by the repr of the path.
            named = [str(mutated), repr(str(mutated)), repr(mutated.name)]
            assert any(text in lines[0] for text in named)
            assert not out.exists()


@pytest.fixture(scope="module")
def small_sequence_run(tmp_path_factory):
    """A 64 px hex-nut sequence of SEQUENCE_FRAMES frames."""
    root = tmp_path_factory.mktemp("small_sequence")
    config = root / "c.json"
    config.write_text(json.dumps({"crop_size": 64}))
    assert cli.main(["simulate", "--config", str(config), "--out", str(root / "run"),
                     "--object", "hex_nut", "--frames", str(SEQUENCE_FRAMES)]) == 0
    return root / "run"


# Pinned mutations, each refused in one line naming the mutated file: a kind
# that differs from a known one in case, and the faults this fuzzing found.
PRESSES_KIND = ("run/manifest.json", ("kind",), "set", "Presses")
SEQUENCE_KIND = ("run/manifest.json", ("kind",), "set", "Sequence")
NUL_REFERENCE = ("run/manifest.json", ("reference",), "set", "\0")
NARROW_FRAME = ("run/frame_000.pgm", 3, "flip", 2)  # "64" wide becomes "44"
THICKER_RUN = ("run/manifest.json", ("optical", "thickness"), "set", 3)
MISSING_REFERENCE = ("run/manifest.json", ("reference",), "set", "x")
FRAME_DIRECTORY = ("run/manifest.json", ("frames", 0, "image"), "set", "")


@settings(max_examples=100, deadline=None)
@given(mutation=mutations({"run/manifest.json": PRESS_KEYS},
                          ["run/reference.pgm", "run/frame_000.pgm"]))
@example(mutation=PRESSES_KIND)
@example(mutation=SEQUENCE_KIND)
@example(mutation=NUL_REFERENCE)
@example(mutation=NARROW_FRAME)
@example(mutation=("run/manifest.json", ("ball_radius_mm",), "set", 0.5))
@example(mutation=MISSING_REFERENCE)
@example(mutation=FRAME_DIRECTORY)
def test_calibrate_survives_one_mutation(small_press_run, mutation):
    run_mutated("calibrate", *small_press_run, mutation, PRESS_CHOICES,
                ["calibration.json"])


@settings(max_examples=100, deadline=None)
@given(mutation=mutations({"run/manifest.json": PRESS_KEYS,
                           "calibration.json": CALIB_KEYS},
                          ["run/reference.pgm", "run/frame_000.pgm"]))
@example(mutation=PRESSES_KIND)
@example(mutation=SEQUENCE_KIND)
@example(mutation=NUL_REFERENCE)
@example(mutation=NARROW_FRAME)
@example(mutation=THICKER_RUN)
@example(mutation=MISSING_REFERENCE)
@example(mutation=FRAME_DIRECTORY)
def test_reconstruct_survives_one_mutation(small_press_run, mutation):
    run_mutated("reconstruct", *small_press_run, mutation,
                PRESS_CHOICES | CALIB_CHOICES,
                ["timings.json", "depth_000.dtd", "cloud_000.ply"])


@settings(max_examples=100, deadline=None)
@given(mutation=mutations({"run/manifest.json": SEQUENCE_KEYS,
                           "calibration.json": CALIB_KEYS},
                          ["run/reference.pgm", *[f"run/frame_{i:03d}.pgm"
                                                  for i in range(SEQUENCE_FRAMES)]]))
@example(mutation=PRESSES_KIND)
@example(mutation=SEQUENCE_KIND)
@example(mutation=NARROW_FRAME)
@example(mutation=THICKER_RUN)
@example(mutation=MISSING_REFERENCE)
@example(mutation=FRAME_DIRECTORY)
def test_track_survives_one_mutation(small_press_run, small_sequence_run, mutation):
    run_mutated("track", small_sequence_run, small_press_run[1], mutation,
                RUN_CHOICES | CALIB_CHOICES, ["track_report.json"])


# Every RunConfig key, on a 32 px crop with noise, for the simulate mutations.
SIMULATE_CONFIG = ({f.name: f.default for f in fields(RunConfig)}
                   | {"crop_size": 32, "noise_sigma": 1.0})
OBJECT_FRAMES = 2
OBJECT_OUTPUTS = ["manifest.json", "reference.pgm",
                  *[f"frame_{i:03d}.{ext}" for i in range(OBJECT_FRAMES)
                    for ext in ("pgm", "dtd")]]


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sim.OBJECT_KINDS),
       key=st.sampled_from(sorted(SIMULATE_CONFIG)),
       mutation=st.tuples(st.just("delete"), st.none())
       | st.tuples(st.just("set"), st.sampled_from([None, True, "x", [], {}, 0.5, 3,
                                                    -1, 1e308, 10 ** 400])))
@example(kind="hex_nut", key="crop_size", mutation=("set", 3))
@example(kind="ball_array", key="field_mm", mutation=("set", 1e308))
def test_simulate_object_survives_one_config_mutation(kind, key, mutation):
    """`simulate --object` with one config key deleted, of another JSON type,
    or set to -1, 1e308 or 10**400. Warnings are errors. Either it exits 0
    with every output and an empty stderr, or it exits 1 with one stderr line
    naming the config file and writes nothing."""
    op, value = mutation
    config = dict(SIMULATE_CONFIG)
    if op == "delete":
        del config[key]
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", str(path), "--object", kind,
                             "--frames", str(OBJECT_FRAMES), "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert [name for name in OBJECT_OUTPUTS if not (out / name).is_file()] == []
        else:
            assert code == 1
            assert len(lines) == 1
            assert lines[0].startswith(f"tacsense simulate: {path}: ")
            assert not out.exists()
