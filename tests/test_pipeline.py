import ctypes
import hashlib
import json
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from ca_segment import (
    ContractError,
    MultibandImage,
    PipelineConfig,
    load_label_raster,
    load_ppm,
    recompute_stats,
    run_seeds,
    run_segment,
    save_envi_bsq,
)
from ca_segment.cli import _build_parser, _config_from_args, _unmet, main


def write_envi(path, data, depth=8):
    dtype = np.uint8 if depth == 8 else np.uint16
    image = MultibandImage(data=np.asarray(data, dtype=dtype), depth=depth)
    save_envi_bsq(image, str(path))
    return str(path)


def two_region_data(h=64, w=64, left=(20, 20, 20), right=(200, 200, 200)):
    data = np.empty((h, w, 3), dtype=np.uint8)
    data[:, : w // 2] = left
    data[:, w // 2 :] = right
    return data


def base_config(tmp_path, input_path, **overrides):
    settings = dict(
        input_path=input_path,
        out_labels=str(tmp_path / "labels.u32"),
        out_stats=str(tmp_path / "stats.json"),
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


class TestRunSegment:
    def test_two_regions_end_to_end(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        config = base_config(tmp_path, path)
        report = run_segment(config)

        assert report.mode == "segment"
        assert (report.width, report.height, report.bands, report.depth) == (64, 64, 3, 8)
        assert report.seed_count == 64 * 64
        assert report.seed_fraction == 1.0
        assert report.label_count == 2
        assert report.converged
        assert report.steps_to_convergence == 1  # every cell starts at full strength
        assert report.segments_before == 2
        assert report.segments_after == 2
        assert report.rounds_used == 0
        assert report.cleared_per_round == []

        labels = load_label_raster(config.out_labels)
        left, right = labels.labels[0, 0], labels.labels[0, 63]
        assert left != right
        assert (labels.labels[:, :32] == left).all()
        assert (labels.labels[:, 32:] == right).all()

        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["segments_after"] == 2
        assert sorted(s["area"] for s in stats["segments"]) == [2048, 2048]
        signatures = {tuple(s["signature"]) for s in stats["segments"]}
        assert signatures == {(20, 20, 20), (200, 200, 200)}

    def test_rerun_is_byte_identical_outside_timings(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        outputs = []
        for run in ("a", "b"):
            sub = tmp_path / run
            sub.mkdir()
            config = base_config(sub, path)
            run_segment(config)
            labels = (sub / "labels.u32").read_bytes()
            sidecar = (sub / "labels.u32.json").read_bytes()
            stats = json.loads((sub / "stats.json").read_text())
            stats.pop("timings")
            outputs.append((labels, sidecar, stats))
        assert outputs[0] == outputs[1]

    def test_thread_counts_produce_identical_labels(self, tmp_path):
        rng = np.random.default_rng(83)
        path = write_envi(tmp_path / "img.bsq", rng.integers(0, 256, size=(48, 48, 3)))
        payloads = []
        for threads in (1, 4):
            sub = tmp_path / f"t{threads}"
            sub.mkdir()
            config = base_config(sub, path, threads=threads, min_area=1)
            run_segment(config)
            payloads.append((sub / "labels.u32").read_bytes())
        assert payloads[0] == payloads[1]

    def test_min_area_above_every_segment_is_an_error(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        config = base_config(tmp_path, path, min_area=150)
        with pytest.raises(ContractError, match="min_area"):
            run_segment(config)

    def test_band_subset(self, tmp_path):
        data = two_region_data()
        data[:, :, 2] = 7  # flat band that would mute the sum contrast
        path = write_envi(tmp_path / "img.bsq", data)
        config = base_config(tmp_path, path, bands=[0, 1])
        report = run_segment(config)
        assert report.bands == 2
        assert report.label_count == 2

    def test_band_subset_out_of_range(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        with pytest.raises(ContractError, match="band"):
            run_segment(base_config(tmp_path, path, bands=[0, 3]))

    @pytest.mark.parametrize("bands", [[0, 3], [-1]])
    def test_band_subset_out_of_range_message(self, tmp_path, bands):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        with pytest.raises(ContractError) as err:
            run_segment(base_config(tmp_path, path, bands=bands))
        assert str(err.value) == f"band subset {bands} out of range for 3 bands"

    def test_zero_seeds_names_the_knobs(self, tmp_path):
        # the only selected range sits entirely off the stride lattice
        data = np.array([[[10], [200]], [[200], [200]]], dtype=np.uint8)
        path = write_envi(tmp_path / "img.bsq", data)
        config = base_config(
            tmp_path, path, smooth_window=1, max_peaks=1, stride=2, min_area=1
        )
        with pytest.raises(ContractError, match="stride"):
            run_segment(config)

    def test_iteration_cap_reported(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        config = base_config(tmp_path, path, stride=8, max_iters=1, min_area=1)
        report = run_segment(config)
        assert not report.converged
        assert report.steps_to_convergence == 1

    def test_preview_uses_segment_signatures(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        preview_path = tmp_path / "preview.ppm"
        config = base_config(tmp_path, path, out_preview=str(preview_path))
        run_segment(config)
        preview = load_ppm(str(preview_path))
        assert (preview.width, preview.height) == (64, 64)
        assert preview.data[0, 0].tolist() == [20, 20, 20]
        assert preview.data[0, 63].tolist() == [200, 200, 200]

    def test_single_band_preview_is_grayscale(self, tmp_path):
        data = two_region_data()[:, :, :1]
        path = write_envi(tmp_path / "img.bsq", data)
        preview_path = tmp_path / "preview.ppm"
        config = base_config(tmp_path, path, out_preview=str(preview_path))
        run_segment(config)
        preview = load_ppm(str(preview_path))
        assert preview.data[0, 0].tolist() == [20, 20, 20]
        assert preview.data[0, 63].tolist() == [200, 200, 200]

    def test_invalid_config_values(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        for bad in (
            {"min_area": 0},
            {"stride": 0},
            {"threads": 0},
            {"max_rounds": 0},
            {"max_iters": 0},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"epsilon": -0.5},
        ):
            with pytest.raises(ContractError):
                run_segment(base_config(tmp_path, path, **bad))


class TestRunSeeds:
    def test_fully_seeded_image(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        config = base_config(tmp_path, path)
        report = run_seeds(config)
        assert report.mode == "seeds"
        assert report.seed_fraction == 1.0
        assert report.label_count == 2
        assert report.steps_to_convergence is None
        assert "steps_to_convergence" not in report.to_dict()

        seed_raster = load_label_raster(config.out_labels)
        assert (seed_raster.labels != 0).all()
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["mode"] == "seeds"
        assert stats["seed_count"] == 64 * 64
        assert len(stats["ranges"]) == 2

    def test_stride_thins_the_seed_lattice(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        config = base_config(tmp_path, path, stride=4)
        report = run_seeds(config)
        assert report.seed_count == 16 * 16
        assert report.seed_fraction == pytest.approx(1 / 16)


class TestRecomputeStats:
    def test_matches_segment_run(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        config = base_config(tmp_path, path)
        report = run_segment(config)
        stats = recompute_stats(config.out_labels)
        assert stats["segment_count"] == report.segments_after
        assert stats["labeled_pixels"] == 64 * 64
        assert stats["label_count"] == report.label_count
        got = sorted((s["label"], s["area"]) for s in stats["segments"])
        want = sorted((s["label"], s["area"]) for s in report.segments)
        assert got == want


class TestCli:
    def segment_args(self, tmp_path, path, *extra):
        return [
            "segment",
            "--input", path,
            "--out-labels", str(tmp_path / "labels.u32"),
            "--out-stats", str(tmp_path / "stats.json"),
            *extra,
        ]

    def test_segment_command(self, tmp_path, capsys):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        preview = str(tmp_path / "preview.ppm")
        code = main(self.segment_args(tmp_path, path, "--out-preview", preview))
        assert code == 0
        out = capsys.readouterr().out
        assert "2 labels" in out and "segments" in out
        assert (tmp_path / "labels.u32").exists()
        assert (tmp_path / "stats.json").exists()
        assert (tmp_path / "preview.ppm").exists()

    def test_missing_command_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["segment", "--input", "x.bsq"])
        assert err.value.code == 1

    def test_malformed_preview_bands_exits_1(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        with pytest.raises(SystemExit) as err:
            main(self.segment_args(tmp_path, path, "--preview-bands", "1,2"))
        assert err.value.code == 1

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = main(self.segment_args(tmp_path, str(tmp_path / "absent.bsq")))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # an OSError, not a SegmenterError: the output's directory is missing
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        args = self.segment_args(tmp_path, path)
        args[args.index("--out-labels") + 1] = str(tmp_path / "absent" / "labels.u32")
        assert main(args) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("ca-segment: error:")
        assert "absent" in err[0]
        assert captured.out == ""

    def test_header_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "img.bsq"
        path.write_bytes(b"\x00" * 16)
        (tmp_path / "img.bsq.hdr").write_bytes(b"ENVI\n\xff\xfe = 3\n")
        assert main(self.segment_args(tmp_path, str(path))) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ca-segment: error:")
        assert "not valid UTF-8" in err[0]

    def test_contract_violation_exits_2(self, tmp_path, capsys):
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        code = main(self.segment_args(tmp_path, path, "--min-area", "150"))
        assert code == 2
        assert "min_area" in capsys.readouterr().err

    def test_negative_delta_rel_exits_2(self, tmp_path, capsys):
        # a flat (100, 100, 100) region must not be labelled as dominated by band 0
        path = write_envi(tmp_path / "img.bsq", two_region_data(left=(100, 100, 100)))
        for command in ("segment", "seeds"):
            args = self.segment_args(tmp_path, path, "--delta-rel", "-0.5")
            args[0] = command
            assert main(args) == 2
            assert "delta_rel must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--epsilon", "0"), "epsilon"),
            (("--epsilon", "1"), "epsilon"),
            (("--preview-bands", "0,1,9"), "preview bands"),
        ],
    )
    def test_bad_settings_fail_before_the_run(self, tmp_path, capsys, extra, message):
        data = np.concatenate([two_region_data(), two_region_data()[:, :, :1]], axis=2)
        path = write_envi(tmp_path / "img.bsq", data)
        preview = str(tmp_path / "preview.ppm")
        assert main(self.segment_args(tmp_path, path, "--out-preview", preview, *extra)) == 2
        assert message in capsys.readouterr().err
        # nothing is written: no labels, stats or preview next to the input
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.bsq", "img.bsq.hdr"]

    def test_preview_bands_out_of_range_message(self, tmp_path, capsys):
        data = np.concatenate([two_region_data(), two_region_data()[:, :, :1]], axis=2)
        path = write_envi(tmp_path / "img.bsq", data)
        args = self.segment_args(tmp_path, path, "--preview-bands", "0,1,9")
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ca-segment: error: preview bands (0, 1, 9) out of range for 4 bands"
        ]

    def test_unmet_study_scale_is_a_warning_unless_strict(self, tmp_path, capsys):
        # the 20x20 island is below the study scale; two steps regrow only
        # the outer two rings of it, leaving 16 * 16 null cells
        data = np.full((40, 40, 3), 30, dtype=np.uint8)
        data[10:30, 10:30] = 220
        path = write_envi(tmp_path / "img.bsq", data)
        args = self.segment_args(tmp_path, path, "--min-area", "500", "--max-iters", "2")
        assert main(args) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: 256 null cells remain"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "img.bsq", "img.bsq.hdr", "labels.u32", "labels.u32.json", "stats.json",
        ]
        preview = str(tmp_path / "preview.ppm")
        assert main(args + ["--out-preview", preview, "--strict"]) == 2
        assert capsys.readouterr().err.splitlines() == err
        # an unmet strict run leaves none of its outputs behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.bsq", "img.bsq.hdr"]

    def test_undersized_segments_are_unmet(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        report = run_segment(base_config(tmp_path, path))
        assert _unmet(report, 150) == []
        assert _unmet(report, 4096) == ["2 segment(s) below --min-area 4096 remain"]

    def test_iteration_cap_is_a_warning_unless_strict(self, tmp_path, capsys):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        args = self.segment_args(
            tmp_path, path, "--stride", "8", "--max-iters", "1", "--min-area", "1"
        )
        assert main(args) == 0
        assert "iteration cap" in capsys.readouterr().err
        assert main(args + ["--strict"]) == 2

    def test_seeds_command(self, tmp_path, capsys):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        code = main([
            "seeds",
            "--input", path,
            "--out-labels", str(tmp_path / "seeds.u32"),
            "--out-stats", str(tmp_path / "stats.json"),
        ])
        assert code == 0
        assert "2 labels over 2 sum range(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        "--strict", "--threads=2", "--min-area=3", "--max-rounds=2",
        "--neighborhood=moore", "--epsilon=0.5", "--max-iters=9",
    ])
    def test_seeds_rejects_segment_only_flags(self, tmp_path, capsys, flag):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        args = self.segment_args(tmp_path, path, flag)
        args[0] = "seeds"
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.bsq", "img.bsq.hdr"]

    @pytest.mark.parametrize("command", ["segment", "seeds"])
    def test_stray_argument_shows_the_command_usage(self, tmp_path, capsys, command):
        args = self.segment_args(tmp_path, "x.bsq", "--no-such-flag")
        args[0] = command
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ca-segment {command} ")
        assert err.endswith(
            f"ca-segment {command}: error: unrecognized arguments: --no-such-flag\n"
        )

    def test_deeply_nested_sidecar_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.u32"
        labels.write_bytes(b"\x00" * 4)
        (tmp_path / "labels.u32.json").write_text("[" * 100000)
        assert main(["stats", "--labels", str(labels)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ca-segment: error:")

    def test_stats_command(self, tmp_path, capsys):
        path = write_envi(tmp_path / "img.bsq", two_region_data())
        assert main(self.segment_args(tmp_path, path)) == 0
        capsys.readouterr()
        code = main(["stats", "--labels", str(tmp_path / "labels.u32")])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["segment_count"] == 2
        out_path = tmp_path / "recount.json"
        assert main([
            "stats", "--labels", str(tmp_path / "labels.u32"),
            "--out-stats", str(out_path),
        ]) == 0
        assert json.loads(out_path.read_text()) == stats

    @pytest.mark.parametrize("error", [AttributeError, OSError])
    def test_segment_runs_without_mallopt(self, tmp_path, monkeypatch, error):
        # a C library without mallopt (macOS, Windows), or none to load
        def no_mallopt(name):
            if error is OSError:
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        assert main(self.segment_args(tmp_path, path, "--min-area", "10")) == 0
        assert (tmp_path / "labels.u32").exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_segment_pins_malloc_thresholds_on_glibc(self, tmp_path, monkeypatch):
        calls, cdll = [], ctypes.CDLL

        def spy(name):
            mallopt = cdll(name).mallopt

            def spied(param, value):
                calls.append((param, value, mallopt(param, value)))
                return calls[-1][-1]

            return types.SimpleNamespace(mallopt=spied)

        monkeypatch.setattr(ctypes, "CDLL", spy)
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        assert main(self.segment_args(tmp_path, path, "--min-area", "10")) == 0
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB, both accepted
        assert calls == [(-3, 32 << 20, 1), (-1, 64 << 20, 1)]

    def test_module_invocation(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        proc = subprocess.run(
            [
                sys.executable, "-m", "ca_segment.cli",
                "segment",
                "--input", path,
                "--out-labels", str(tmp_path / "labels.u32"),
                "--out-stats", str(tmp_path / "stats.json"),
                "--min-area", "10",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "labels.u32").exists()

    def test_required_flags_alone_give_the_default_config(self):
        for command in ("segment", "seeds"):
            args = _build_parser().parse_args([
                command,
                "--input", "in.bsq",
                "--out-labels", "labels.u32",
                "--out-stats", "stats.json",
            ])
            assert _config_from_args(args) == PipelineConfig(
                input_path="in.bsq", out_labels="labels.u32", out_stats="stats.json"
            )

    def test_segment_run_never_imports_scipy(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", two_region_data(h=16, w=16))
        code = (
            "import sys\n"
            "from ca_segment.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", code,
                "segment",
                "--input", path,
                "--out-labels", str(tmp_path / "labels.u32"),
                "--out-stats", str(tmp_path / "stats.json"),
                "--out-preview", str(tmp_path / "preview.ppm"),
                "--min-area", "10",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # numpy.ma costs 15-25 ms to import and nothing here needs it
        assert proc.stdout.splitlines()[-2:] == ["[]", "False"]

    def test_no_command_imports_numpy_ma(self, tmp_path):
        # plain np.unique imports numpy.ma (10-25 ms) on first use; segment,
        # seeds and stats run in one fresh interpreter and none may load it,
        # nor any module the CLI's import did not: a module loaded during a
        # run costs every fresh process; the 3 x 3 island is below the study
        # scale, so the segment run also takes an elimination round
        data = two_region_data(h=16, w=16)
        data[2:5, 2:5] = 120
        path = write_envi(tmp_path / "img.bsq", data)
        code = (
            "import sys\n"
            "from ca_segment.cli import main\n"
            "scene, out = sys.argv[1:]\n"
            "before = set(sys.modules)\n"
            "intake = ['--input', scene, '--stride', '2', '--prominence', '0.01']\n"
            "for command, *flags in (\n"
            "    ('segment', '--threads', '1', '--min-area', '10', '--out-preview', out + 'preview.ppm'),\n"
            "    ('seeds',),\n"
            "):\n"
            "    rc = main([command, *intake, '--out-labels', out + command + '.u32',\n"
            "               '--out-stats', out + command + '.json', *flags])\n"
            "    assert rc == 0, (command, rc)\n"
            "assert main(['stats', '--labels', out + 'segment.u32']) == 0\n"
            "print(sorted(set(sys.modules) - before))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, path, str(tmp_path / "run-")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "3 -> 2 segments in 1 elimination round(s)" in proc.stdout
        assert proc.stdout.splitlines()[-2:] == ["[]", "False"]

    def test_importing_the_cli_loads_no_thread_pool(self):
        # concurrent.futures (with logging) is imported by the first pool a
        # step of several chunks builds, not by importing the package
        code = (
            "import sys\n"
            "import ca_segment.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "from ca_segment import automaton\n"
            "automaton._pool(2)\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


SEGMENT_KEYS = {
    "steps_to_convergence", "converged", "segments_before", "segments_after",
    "rounds_used", "cleared_per_round", "segments",
}
COMMON_KEYS = {
    "mode", "width", "height", "bands", "depth", "seed_count", "seed_fraction",
    "label_count", "ranges", "labels", "timings",
}


def golden_scene():
    """Three spectral regions, a block below the study scale, fixed ripple."""
    r, c = np.mgrid[0:36, 0:40]
    data = np.empty((36, 40, 3), dtype=np.int64)
    data[:] = (60, 60, 60)
    data[:18, 20:] = (180, 70, 70)
    data[18:, 20:] = (70, 70, 190)
    data[6:10, 6:10] = (200, 200, 200)
    data += ((r * 31 + c * 17) % 7 - 3)[:, :, None]
    return data.astype(np.uint8)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestStatsRecord:
    def test_report_fields_are_the_stats_keys(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", golden_scene())
        for run, keys in ((run_segment, COMMON_KEYS | SEGMENT_KEYS), (run_seeds, COMMON_KEYS)):
            out = run(base_config(tmp_path, path, min_area=30)).to_dict()
            assert set(out) == keys
            assert all(value is not None for value in out.values())
            assert json.loads((tmp_path / "stats.json").read_text()) == out

    def test_outputs_match_pinned_hashes(self, tmp_path):
        # a change to any byte of these outputs shows here, not only in the
        # benchmark's hashes; timings are the one part allowed to vary
        path = write_envi(tmp_path / "img.bsq", golden_scene())
        pinned = {
            "segment": (
                "eddfd1c71fb209817d361ad1b25eb58172ef7b93bf060952d7b89f73f63ffb38",
                "a0ed8179efbe85a9853d4ba29be355953894a7d72632ad6bf18e3b822ea0d2b0",
                "f34828ef7c6e812a62efd2bda9b8ddef22b57276f2c25f2bb2ac2591dabec539",
            ),
            "seeds": (
                "44cbfc8c5f9c45c1fb74d4e102211cae0afa4a7c07c3e63060eb578e3ccf4828",
                "a0ed8179efbe85a9853d4ba29be355953894a7d72632ad6bf18e3b822ea0d2b0",
                "fb61dea95a4e405a11c855a0f8b4f494417f5c5be3f01af0e85b0a4059ab9668",
            ),
        }
        preview = tmp_path / "preview.ppm"
        for mode, run in (("segment", run_segment), ("seeds", run_seeds)):
            run(base_config(tmp_path, path, min_area=30, out_preview=str(preview)))
            stats = json.loads((tmp_path / "stats.json").read_text())
            stats.pop("timings")
            canonical = json.dumps(stats, sort_keys=True, indent=2) + "\n"
            assert (
                sha256((tmp_path / "labels.u32").read_bytes()),
                sha256((tmp_path / "labels.u32.json").read_bytes()),
                sha256(canonical.encode()),
            ) == pinned[mode], mode
        # only the segment run writes a preview
        assert sha256(preview.read_bytes()) == (
            "b554fbb55279b2dd87f5486a533590af6a7fc19784e4f8b5bf712c32ab9c47a2"
        )

    def test_sidecar_count_comes_from_the_label_summary(self, tmp_path):
        path = write_envi(tmp_path / "img.bsq", golden_scene())
        for run in (run_segment, run_seeds):
            report = run(base_config(tmp_path, path, min_area=30))
            sidecar = json.loads((tmp_path / "labels.u32.json").read_text())
            assert sidecar["label_count"] == report.label_count

    @pytest.mark.parametrize("stride", [1, 2])
    def test_seeds_and_segment_runs_agree_on_seeding(self, tmp_path, stride):
        path = write_envi(tmp_path / "img.bsq", golden_scene())
        config = base_config(tmp_path, path, min_area=30, stride=stride)
        seeds = run_seeds(config)
        seed_raster = load_label_raster(config.out_labels)
        segment = run_segment(config)
        shared = ("width", "height", "bands", "depth", "seed_count", "seed_fraction", "ranges")
        assert [getattr(segment, k) for k in shared] == [getattr(seeds, k) for k in shared]
        row_keys = ("label", "range_index", "region", "seeds")
        rows = [[[row[k] for k in row_keys] for row in run.labels] for run in (seeds, segment)]
        assert rows[0] == rows[1]
        assert np.count_nonzero(seed_raster.labels) == seeds.seed_count
