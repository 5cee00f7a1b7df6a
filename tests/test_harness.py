"""Experiment harness, CSV/SVG output and CLI tests."""

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

from parvikit import cli
from parvikit.dynamics import ConfigurationError, NumericalDivergenceError, StepRng
from parvikit.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_target,
    default_hyperparameters,
    init_particles,
    list_methods,
    load_point_cloud_csv,
    parse_config_text,
    read_csv_records,
    reference_cloud,
    run_experiment,
    sweep,
    write_csv,
    write_svg_lineplot,
)
from parvikit.metrics import WeightedCloud
from parvikit.targets import (
    GaussianMixtureTarget,
    GaussianTarget,
    GPHyperparameterTarget,
    ParseError,
)

TINY = "method=BLOB\ntarget=gmm:2\nparticles=8\niterations=10\nrecord_every=5\nreference_samples=50\n"


class TestDefaults:
    def test_table_values_for_wgad_ca_blob_on_gmm(self):
        hp = default_hyperparameters("WGAD-CA-BLOB", "gmm")
        assert hp["eta_pos"] == 1e-2
        assert hp["eta_wei"] == 1e-2  # ratio 1.0 of eta_pos
        assert hp["eta_vel"] == 1.0
        assert hp["gamma"] == 0.3


class TestExperimentConfig:
    def test_target_id_parsing(self):
        assert ExperimentConfig(target="sg10").target_dim == 10
        assert ExperimentConfig(target="sg:4").target_dim == 4
        cfg = ExperimentConfig(target="gmm:2")
        assert (cfg.target_kind, cfg.target_dim) == ("gmm", 2)
        assert ExperimentConfig(target="gp").target_dim == 2
        with pytest.raises(ConfigurationError):
            ExperimentConfig(target="banana")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(target="sg:0")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(particles=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(record_every=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(reference_samples=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(method="NOPE")

    def test_resolved_defaults(self):
        assert ExperimentConfig(target="gmm:2").resolved_iterations() == 2000
        assert ExperimentConfig(target="gp").resolved_iterations() == 10000
        assert ExperimentConfig(target="gp", iterations=5).resolved_iterations() == 5
        mean, scale = ExperimentConfig(target="sg10").resolved_init()
        assert (mean, scale) == (0.0, 0.5)
        mean, scale = ExperimentConfig(target="gp").resolved_init()
        assert np.array_equal(mean, [0.0, -10.0]) and scale == 0.09
        mean, scale = ExperimentConfig(target="gmm:2").resolved_init()
        assert (mean, scale) == (0.0, 1.0)

    def test_build_target_types(self):
        assert isinstance(build_target(ExperimentConfig(target="sg:3")), GaussianTarget)
        assert isinstance(
            build_target(ExperimentConfig(target="gmm:2")), GaussianMixtureTarget
        )
        assert isinstance(
            build_target(ExperimentConfig(target="gp")), GPHyperparameterTarget
        )


class TestConfigText:
    def test_parse_round_trip(self):
        cfg = parse_config_text(TINY + "eta_pos=0.05\nwarmup=false\n# comment\n")
        assert cfg.method == "BLOB" and cfg.particles == 8
        assert cfg.eta_pos == 0.05 and cfg.warmup is False

    def test_errors_name_the_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config_text("not a pair\n")
        with pytest.raises(ParseError, match="unknown config key"):
            parse_config_text("banana=1\n")
        with pytest.raises(ParseError, match="bad value"):
            parse_config_text("particles=many\n")
        with pytest.raises(ParseError, match="boolean"):
            parse_config_text("warmup=maybe\n")

    # one line per ExperimentConfig field: (text value, parsed value)
    KEY_VALUES = {
        "method": ("WGAD-DK-GFSD", "WGAD-DK-GFSD"),
        "target": ("sg:3", "sg:3"),
        "particles": ("12", 12),
        "iterations": ("7", 7),
        "record_every": ("2", 2),
        "seed": ("3", 3),
        "init_mean": ("0.5", 0.5),
        "init_scale": ("2", 2.0),
        "eta_pos": ("0.05", 0.05),
        "eta_vel": ("0.5", 0.5),
        "eta_wei": ("1e-3", 1e-3),
        "gamma": ("0.7", 0.7),
        "lambda_kw": ("2", 2.0),
        "warmup": ("0", False),
        "ca_variant": ("as_printed", "as_printed"),
        "reference_samples": ("100", 100),
        "data_path": ("x.csv", "x.csv"),
        "prior_mode": ("none", "none"),
        "timing": ("1", True),
        "bandwidth_mode": ("fixed", "fixed"),
        "fixed_h": ("3", 3.0),
    }

    def test_every_key_is_covered(self):
        assert list(self.KEY_VALUES) == [f.name for f in fields(ExperimentConfig)]

    @pytest.mark.parametrize("key", list(KEY_VALUES))
    def test_key_parses_to_its_type(self, key):
        text, expected = self.KEY_VALUES[key]
        value = getattr(parse_config_text("%s=%s\n" % (key, text)), key)
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("line", ["iterations=1.5", "init_mean=abc", "fixed_h="])
    def test_bad_typed_value_is_a_parse_error(self, line):
        with pytest.raises(ParseError, match="line 1: bad value"):
            parse_config_text(line + "\n")


class TestInitAndReference:
    def test_init_particles_deterministic(self):
        cfg = ExperimentConfig(target="gmm:2", particles=16)
        a = init_particles(cfg, StepRng(0))
        b = init_particles(cfg, StepRng(0))
        assert np.array_equal(a.positions, b.positions)
        assert np.all(a.velocities == 0.0)
        assert np.allclose(a.weights, 1.0 / 16, atol=1e-15)
        c = init_particles(cfg, StepRng(1))
        assert not np.array_equal(a.positions, c.positions)

    def test_gp_init_location(self):
        cfg = ExperimentConfig(target="gp", particles=64)
        state = init_particles(cfg, StepRng(0))
        assert np.allclose(state.positions.mean(axis=0), [0.0, -10.0], atol=0.2)
        assert np.allclose(state.positions.std(axis=0), 0.3, atol=0.1)

    def test_reference_cloud_kinds(self):
        rng = StepRng(0)
        gmm_cfg = ExperimentConfig(target="gmm:2", reference_samples=100)
        cloud = reference_cloud(gmm_cfg, build_target(gmm_cfg), rng)
        assert isinstance(cloud, WeightedCloud) and cloud.points.shape == (100, 2)
        sg_cfg = ExperimentConfig(target="sg:3", reference_samples=50)
        cloud = reference_cloud(sg_cfg, build_target(sg_cfg), rng)
        assert cloud.points.shape == (50, 3)
        gp_cfg = ExperimentConfig(target="gp")
        assert reference_cloud(gp_cfg, build_target(gp_cfg), rng) is None


class TestRunExperiment:
    def test_record_schedule(self):
        cfg = parse_config_text(TINY)
        records, state = run_experiment(cfg)
        assert [r.iteration for r in records] == [0, 5, 10]
        assert state.iteration == 10

    @pytest.mark.parametrize("method", ["SGAD-CA-BLOB", "SGAD-CA-GFSD"])
    def test_gp_divergence_names_particle_and_iteration(self, method):
        # with the defaults-table step sizes these blow up the GP hyperparameters
        # within 8 steps; the failing Gram factorization is a numerical divergence
        cfg = ExperimentConfig(method=method, target="gp", particles=32, iterations=8,
                               record_every=8)
        with pytest.raises(NumericalDivergenceError, match=r"particle \d+ at iteration [67]\b"):
            run_experiment(cfg)

    def test_final_w2_improves_from_init(self):
        cfg = parse_config_text(TINY.replace("iterations=10", "iterations=200"))
        records, _ = run_experiment(cfg)
        assert records[-1].w2 < records[0].w2

    def test_csv_round_trip(self, tmp_path):
        cfg = parse_config_text(TINY)
        records, _ = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        back = read_csv_records(path)
        assert back == records
        assert {type(getattr(b, name)) for b in back
                for name in ("iteration", "clamp_count", "dk_event_count")} == {int}

    def test_empty_optional_cells_round_trip(self, tmp_path):
        cfg = parse_config_text(
            "method=BLOB\ntarget=gp\nparticles=4\niterations=2\nrecord_every=2\n"
        )
        records, _ = run_experiment(cfg)
        assert records[-1].w2 is None and records[-1].mode_mass is None
        path = tmp_path / "gp.csv"
        write_csv(records, path)
        back = read_csv_records(path)
        assert back[-1].w2 is None and back[-1].mode_mass is None

    def test_timing_writes_wall_seconds(self, tmp_path):
        for timing in (True, False):
            cfg = parse_config_text(TINY + "timing=%s\n" % str(timing).lower())
            records, _ = run_experiment(cfg)
            write_csv(records, tmp_path / "t.csv")
            wall = [r.wall_seconds for r in read_csv_records(tmp_path / "t.csv")]
            if timing:
                assert all(w > 0.0 for w in wall) and wall == sorted(wall)
            else:
                assert wall == [0.0] * len(records)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config_text(TINY)
        for name in ("a.csv", "b.csv"):
            records, _ = run_experiment(cfg)
            write_csv(records, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_svg_is_valid_xml(self, tmp_path):
        cfg = parse_config_text(TINY)
        records, _ = run_experiment(cfg)
        path = tmp_path / "plot.svg"
        write_svg_lineplot(records, "w2", path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root)


class TestSweep:
    def test_small_grid(self, tmp_path):
        cfg = parse_config_text(TINY)
        summary = sweep(cfg, [4, 8], [0, 1], tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary.endswith("summary.csv")
        assert len(lines) == 3  # header + one row per particle count
        assert (tmp_path / "BLOB_gmm:2_M4_seed0.csv").exists()
        assert (tmp_path / "BLOB_gmm:2_M8_seed1.csv").exists()

    def test_seeds_from_a_generator(self, tmp_path):
        # the seeds are iterated once per particle count and counted in the summary
        sweep(parse_config_text(TINY), [4, 8], (s for s in [0, 1]), tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["2", "2"]
        assert len(list(tmp_path.glob("BLOB_gmm:2_M*_seed*.csv"))) == 4


class TestOutputBytes:
    """The CSV bytes of small runs, pinned across commits (byte-identical
    reruns of one build are checked above). The sha256 digests were recorded
    before the CSV columns were derived from ExperimentRecord's fields."""

    HEADER = ("iteration,wall_seconds,w2,mean_err,cov_err,mode_mass,"
              "min_weight,max_weight,clamp_count,dk_event_count")
    RUNS = {
        "gmm:2": ("method=WGAD-CA-BLOB\ntarget=gmm:2\nparticles=8\niterations=10\n"
                  "record_every=5\nreference_samples=50\n",
                  "bd7426731d54f5dd180230bc0b7756ced97d707637e37d2d09fee9abe83bd412"),
        # DK events at iteration 60, no mode mass
        "sg:3": ("method=WGAD-DK-KSDD\ntarget=sg:3\nparticles=16\niterations=60\n"
                 "record_every=10\nreference_samples=64\neta_wei=0.05\n",
                 "fe72f0773deff790abd5a20339676673d18c11e91dacc4b6b98c122559c88557"),
        # empty w2 and mode_mass cells
        "gp": ("method=WGAD-CA-BLOB\ntarget=gp\nparticles=4\niterations=2\nrecord_every=1\n",
               "5294f05dfea65229f7febca585ea61b633004d9ca51106b984793018799d347f"),
    }
    SWEEP_SUMMARY = "52002f63de4798c936921e7056777e952316135ff838a969cb33e99c1282ab7a"

    def test_header(self):
        # test_csv_round_trip checks that write_csv starts with CSV_HEADER
        assert CSV_HEADER == self.HEADER

    @pytest.mark.parametrize("run", list(RUNS))
    def test_run_csv_digest(self, tmp_path, run):
        text, digest = self.RUNS[run]
        records, _ = run_experiment(parse_config_text(text))
        write_csv(records, tmp_path / "out.csv")
        assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest

    def test_sweep_summary_digest(self, tmp_path):
        summary = sweep(parse_config_text(TINY), [4, 8], [0, 1], tmp_path)
        with open(summary, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.SWEEP_SUMMARY


class TestPointCloudCsv:
    def test_plain_cloud(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0,0\n3,4\n")
        cloud = load_point_cloud_csv(p)
        assert cloud.points.shape == (2, 2)
        assert np.allclose(cloud.masses, 0.5)

    def test_mass_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,mass\n0,3\n1,1\n")
        cloud = load_point_cloud_csv(p)
        assert np.allclose(cloud.masses, [0.75, 0.25])
        assert cloud.points.shape == (2, 1)

    def test_errors(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_point_cloud_csv(p)
        p.write_text("0,0\nfoo,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_point_cloud_csv(p)

    @pytest.mark.parametrize("text, line", [("0,0\n1,1,1\n", 2), ("x,y\n0,0\n1\n", 3)],
                             ids=["wider row", "narrower than the header"])
    def test_ragged_rows_name_the_line(self, tmp_path, text, line):
        p = tmp_path / "c.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="line %d: " % line):
            load_point_cloud_csv(p)

    @pytest.mark.parametrize("text, line", [("0,0\nnan,1\n", 2), ("x,mass\n0,1\n1,inf\n", 3),
                                            ("-inf,0\n", 1)],
                             ids=["nan point", "infinite mass", "infinite first row"])
    def test_non_finite_cells_name_the_line(self, tmp_path, text, line):
        p = tmp_path / "c.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="line %d: non-finite" % line):
            load_point_cloud_csv(p)


class TestCli:
    def test_list_methods(self, capsys):
        assert cli.main(["list-methods"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 26
        assert set(out) == set(list_methods())

    def test_missing_config_is_usage_error(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent.cfg"]) == 1
        assert cli.main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_method_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method=NOPE\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1

    def test_divergence_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "gp.cfg"
        cfg.write_text("method=SGAD-CA-GFSD\ntarget=gp\nparticles=32\niterations=8\n"
                       "record_every=8\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "first variation diverged for particle" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert (out_dir / "BLOB_gmm:2_M8_seed0.csv").exists()
        assert (out_dir / "BLOB_gmm:2_M8_seed0.svg").exists()
        assert "final: iteration=10" in printed

    def test_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out_dir = tmp_path / "out"
        assert cli.main(
            ["run", "--config", str(cfg), "--out", str(out_dir), "--seed", "3"]
        ) == 0
        capsys.readouterr()
        assert (out_dir / "BLOB_gmm:2_M8_seed3.csv").exists()

    def test_eval_w2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n")
        b.write_text("3,4\n")
        assert cli.main(["eval-w2", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out.strip() == "5.0"
        assert cli.main(["eval-w2", "--a", str(a), "--b", str(b), "--eps", "0.01"]) == 0
        assert capsys.readouterr().out.startswith("5.0 (entropic,")

    def test_eval_w2_ragged_csv_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n1,0\n2\n")
        b.write_text("3,4\n")
        assert cli.main(["eval-w2", "--a", str(a), "--b", str(b)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [[], ["--eps", "0.01"]], ids=["exact", "entropic"])
    def test_eval_w2_nan_cell_is_usage_error(self, tmp_path, capsys, eps):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n1,nan\n")
        b.write_text("3,4\n")
        assert cli.main(["eval-w2", "--a", str(a), "--b", str(b)] + eps) == 1
        assert "line 2: non-finite" in capsys.readouterr().err

    def test_gp_data_nan_cell_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,2\n3,nan\n5,6\n")
        cfg = tmp_path / "gp.cfg"
        cfg.write_text("method=WGAD-CA-BLOB\ntarget=gp\nparticles=4\niterations=2\n"
                       "data_path=%s\n" % data)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "line 3: non-finite cell" in capsys.readouterr().err

    def test_eval_w2_missing_file_is_usage_error(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("3,4\n")
        assert cli.main(["eval-w2", "--a", str(tmp_path / "none.csv"), "--b", str(b)]) == 1
        assert "none.csv" in capsys.readouterr().err

    def test_eval_w2_over_the_size_guard_is_runtime_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0\n" * 1500)
        b.write_text("1\n" * 1500)
        assert cli.main(["eval-w2", "--a", str(a), "--b", str(b)]) == 2
        assert "wasserstein2_sinkhorn" in capsys.readouterr().err

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out_dir = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(cfg), "--particles", "4", "--seeds", "0:2",
             "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert cli.main(["sweep", "--config", str(cfg), "--particles", "x"]) == 1

    def test_sweep_divergence_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "eta_pos=1e300\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["sweep", "--config", str(cfg), "--particles", "4", "--seeds", "0:1",
                             "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert "non-finite position for particle" in capsys.readouterr().err
