"""End-to-end command tests driven through main(argv) in-process."""

import dataclasses
import json
import logging

import numpy as np
import pytest

from transgcn import __version__, cli
from transgcn.checkpoint import from_bytes, load_checkpoint, to_bytes
from transgcn.cli import build_parser, main, resolve_config
from transgcn.errors import MemoryBudgetError
from transgcn.kg import load_dataset
from transgcn.trainer import Checkpoint, TrainConfig, init_parameters

TOY_ARGS = ["--seed", "0", "--couples", "3", "--valid-size", "20", "--test-size", "20"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    assert main(["gen-toy", "--out", str(d)] + TOY_ARGS) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--data", str(data_dir), "--out", str(out),
        "--assumption", "translation", "--dim", "8", "--layers", "1",
        "--epochs", "3", "--batch", "64", "--seed", "1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def good_run_dir(tmp_path_factory, data_dir):
    """A model trained long enough to place true completions near the top."""
    out = tmp_path_factory.mktemp("goodrun")
    code = main([
        "train", "--data", str(data_dir), "--out", str(out),
        "--assumption", "translation", "--dim", "16", "--layers", "0",
        "--epochs", "150", "--batch", "64", "--lr", "0.01", "--gamma", "2",
        "--negatives", "5", "--eval-every", "25", "--seed", "0",
    ])
    assert code == 0
    return out


class TestGenToy:
    def test_writes_three_files(self, data_dir):
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (data_dir / name).is_file()
        kg = load_dataset(data_dir)
        assert kg.num_entities == 26
        assert kg.num_relations == 10

    def test_deterministic_output(self, tmp_path, data_dir):
        again = tmp_path / "again"
        assert main(["gen-toy", "--out", str(again)] + TOY_ARGS) == 0
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    def test_default_scale(self, tmp_path, capsys):
        out = tmp_path / "full"
        assert main(["gen-toy", "--out", str(out), "--seed", "0"]) == 0
        lines = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["entities"] == "104"
        assert lines["relations"] == "10"
        assert lines["valid"] == "150"
        assert lines["test"] == "150"


class TestTrainCommand:
    def test_artifacts_written(self, run_dir):
        assert (run_dir / "model.ckpt").is_file()
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "train.log").is_file()

    def test_manifest_contents(self, run_dir, data_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        assert manifest["config"]["dim"] == 8
        assert manifest["config"]["assumption"] == "translation"
        assert manifest["config"]["gamma"] == 1.0  # default materialized
        assert manifest["seed"] == 1
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert len(manifest["dataset"]["sha256"][name]) == 64
        assert manifest["artifacts"]["checkpoint"].endswith("model.ckpt")

    def test_epoch_log_lines(self, run_dir):
        lines = (run_dir / "train.log").read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(int(line.split("\t")[0]) == i + 1 for i, line in enumerate(lines))

    def test_byte_identical_reruns(self, tmp_path, data_dir):
        args = [
            "train", "--data", str(data_dir), "--assumption", "translation",
            "--dim", "8", "--layers", "0", "--epochs", "2", "--seed", "7",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, data_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 8\nepochs = 2\nlayers = 0  # keep flat\nseed = 3\n")
        out = tmp_path / "cfgrun"
        code = main([
            "train", "--data", str(data_dir), "--config", str(cfg),
            "--out", str(out), "--dim", "4",
        ])
        assert code == 0
        ck = load_checkpoint(out / "model.ckpt")
        assert ck.config.dim == 4  # flag wins
        assert ck.config.epochs == 2  # file wins over default
        assert ck.config.seed == 3

    def test_unknown_config_key_exits_2(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim = 8\nbogus_key = 3\n")
        code = main([
            "train", "--data", str(data_dir), "--config", str(cfg),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_config_key_given_twice_exits_2(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("dim = 32\nepochs = 1\ndim = 64\n")
        code = main([
            "train", "--data", str(data_dir), "--config", str(cfg),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert f"{cfg}:3: config key 'dim' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_line_without_equals_exits_2(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim = 8\n# flat model\nlayers 0\n")
        code = main([
            "train", "--data", str(data_dir), "--config", str(cfg),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert f"{cfg}:3: expected key = value" in capsys.readouterr().err

    def test_missing_data_flag_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["train"])
        assert info.value.code == 2

    def test_missing_dataset_dir_exits_2(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "train.txt" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_abort_exits_3_with_checkpoint(self, tmp_path, data_dir, capsys):
        out = tmp_path / "blowup"
        code = main([
            "train", "--data", str(data_dir), "--out", str(out),
            "--dim", "8", "--layers", "1", "--epochs", "3", "--lr", "1e200",
            "--norm", "l2", "--clip", "0", "--seed", "2",
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert (out / "model.ckpt").is_file()
        ck = load_checkpoint(out / "model.ckpt")
        assert np.all(np.isfinite(ck.state.entity_embed.values))

    def test_warm_start_from_checkpoint(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "resumed"
        code = main([
            "train", "--data", str(data_dir), "--out", str(out),
            "--init-from", str(run_dir / "model.ckpt"),
            "--assumption", "translation", "--dim", "8", "--layers", "1",
            "--epochs", "1", "--seed", "9",
        ])
        assert code == 0
        first = load_checkpoint(run_dir / "model.ckpt")
        resumed = load_checkpoint(out / "model.ckpt")
        assert not np.array_equal(
            resumed.state.entity_embed.values, first.state.entity_embed.values
        )


# A text value for every TrainConfig field that differs from its default.
NON_DEFAULT_CONFIG = {
    "assumption": "rotation", "layers": "2", "dim": "6", "gamma": "3.25", "alpha": "0.5",
    "negatives": "3", "lr": "0.0125", "epochs": "7", "batch": "17", "eval_every": "3",
    "seed": "11", "norm": "l2", "sampling": "selfadv", "pretrain_epochs": "2", "clip": "2.5",
}


class TestMemoryPreflight:
    TRAIN = ["--assumption", "translation", "--dim", "8", "--epochs", "1", "--batch", "64"]

    @pytest.fixture
    def meminfo(self, tmp_path, monkeypatch):
        path = tmp_path / "meminfo"
        monkeypatch.setattr(cli, "MEMINFO", str(path))
        return path

    def test_train_refused_when_estimate_exceeds_available(self, meminfo, tmp_path,
                                                           data_dir, capsys):
        meminfo.write_text("MemTotal:       1000 kB\nMemAvailable:      16 kB\n")
        out = tmp_path / "refused"
        code = main(["train", "--data", str(data_dir), "--out", str(out)] + self.TRAIN)
        assert code == 2
        assert "estimated" in capsys.readouterr().err
        assert not out.exists()  # refused before writing anything

    def test_sweep_refused_when_estimate_exceeds_available(self, meminfo, data_dir, capsys):
        meminfo.write_text("MemAvailable:      16 kB\n")
        code = main(["sweep", "--data", str(data_dir), "--layer-counts", "0,2"] + self.TRAIN)
        assert code == 2
        assert "estimated" in capsys.readouterr().err

    def test_check_skipped_without_meminfo(self, meminfo, tmp_path, data_dir):
        assert not meminfo.exists()
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run")]
                    + self.TRAIN)
        assert code == 0

    def test_named_error(self, meminfo, data_dir):
        meminfo.write_text("MemAvailable:      16 kB\n")
        kg = load_dataset(data_dir)
        with pytest.raises(MemoryBudgetError):
            cli._check_memory(TrainConfig(dim=8), kg)
        meminfo.write_text(f"MemAvailable: {1 << 30} kB\n")
        cli._check_memory(TrainConfig(dim=8), kg)


class TestConfigSurface:
    def test_flags_and_file_lines_round_trip(self, tmp_path):
        fields = [f.name for f in dataclasses.fields(TrainConfig)]
        assert sorted(NON_DEFAULT_CONFIG) == sorted(fields)
        flags = []
        for key, value in NON_DEFAULT_CONFIG.items():
            flags += ["--" + key.replace("_", "-"), value]
        cfg_file = tmp_path / "all.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in NON_DEFAULT_CONFIG.items()))
        parser = build_parser()
        from_flags = resolve_config(parser.parse_args(["train", "--data", "d", *flags]))
        from_file = resolve_config(
            parser.parse_args(["train", "--data", "d", "--config", str(cfg_file)])
        )
        assert from_flags == from_file
        long_spelling = ["train", "--data", "d", *flags, "--sampling", "self-adversarial"]
        assert resolve_config(parser.parse_args(long_spelling)) == from_flags
        default = TrainConfig()
        for name in fields:
            assert getattr(from_flags, name) != getattr(default, name), name
        state = init_parameters(from_flags, 5, 2, np.random.default_rng(0))
        checkpoint = Checkpoint(
            config=from_flags, state=state, entity_names=list("abcde"),
            relation_names=["r", "s"], best_valid_mrr=0.5, epoch=3,
        )
        assert from_bytes(to_bytes(checkpoint)).config == from_flags


class TestEvalCommand:
    def test_prints_and_writes_report(self, run_dir, data_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main([
            "eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--split", "test", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mrr\t" in stdout and "hits@10\t" in stdout
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {"mrr", "hits1", "hits3", "hits10"}
        assert 0.0 <= report["mrr"] <= 1.0

    def test_buckets_table(self, run_dir, data_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main([
            "eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--split", "test", "--buckets",
            "--out", str(out),
        ])
        assert code == 0
        assert "degree\tqueries\tmrr" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert sum(row["queries"] for row in report["buckets"]) == 40

    def test_valid_split_matches_recorded_best(self, run_dir, data_dir, tmp_path):
        ck = load_checkpoint(run_dir / "model.ckpt")
        out = tmp_path / "rep"
        code = main([
            "eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--split", "valid", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mrr"] == ck.best_valid_mrr

    def test_threads_do_not_change_results(self, run_dir, data_dir, tmp_path):
        reports = []
        for threads, tag in (("1", "t1"), ("4", "t4")):
            out = tmp_path / tag
            assert main([
                "eval", "--checkpoint", str(run_dir / "model.ckpt"),
                "--data", str(data_dir), "--threads", threads, "--out", str(out),
            ]) == 0
            reports.append((out / "report.json").read_text())
        assert reports[0] == reports[1]

    def test_vocabulary_mismatch_exits_2(self, run_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main([
            "gen-toy", "--out", str(other), "--seed", "0", "--couples", "4",
            "--valid-size", "20", "--test-size", "20",
        ]) == 0
        code = main([
            "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(other),
        ])
        assert code == 2
        assert "vocabulary mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_bad_thread_count_exits_2(self, run_dir, data_dir, tmp_path, threads, capsys):
        code = main([
            "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data_dir),
            "--threads", threads, "--out", str(tmp_path),
        ])
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_corrupted_checkpoint_exits_2(self, data_dir, tmp_path, capsys):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(b"JUNKJUNKJUNK" * 10)
        code = main(["eval", "--checkpoint", str(fake), "--data", str(data_dir)])
        assert code == 2
        assert "bad checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_non_finite_checkpoint_exits_2(
        self, run_dir, data_dir, tmp_path, command, bad, capsys
    ):
        checkpoint = load_checkpoint(run_dir / "model.ckpt")
        checkpoint.state.entity_embed.values[0, 0] = bad
        path = tmp_path / "bad.ckpt"
        path.write_bytes(to_bytes(checkpoint))
        data = ["--data", str(data_dir)] if command == "eval" else []
        assert main([command, "--checkpoint", str(path), *data]) == 2
        assert "non-finite" in capsys.readouterr().err


class TestPredictCommand:
    def test_tail_query_rows(self, run_dir, data_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--k", "3", "g2_00", "grandchild", "?",
        ])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        for i, row in enumerate(rows, 1):
            name, score, rank = row.split("\t")
            float(score)
            assert int(rank) == i

    def test_head_query_form(self, run_dir, data_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--k", "2", "?", "parent", "g2_00",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_keep_known_annotates(self, run_dir, data_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--k", "26", "--keep-known",
            "g2_00", "child", "?",
        ])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert any(row.endswith("\tknown") for row in rows)

    def test_large_k_clamps(self, run_dir, data_dir, capsys):
        code = main([
            "predict", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), "--k", "1000", "g2_00", "grandchild", "?",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) <= 26

    def test_filtering_drops_known_completions(self, run_dir, data_dir, capsys):
        # both query forms: (g2_00, child, ?) and (?, parent, g2_00)
        kg = load_dataset(data_dir)
        for query in (["g2_00", "child", "?"], ["?", "parent", "g2_00"]):
            hole = query.index("?")
            known = set()
            for h, r, t in np.concatenate([kg.train, kg.valid, kg.test]).tolist():
                names = [kg.entity_names[h], kg.relation_names[r], kg.entity_names[t]]
                if all(a == b for i, (a, b) in enumerate(zip(names, query)) if i != hole):
                    known.add(names[hole])
            assert known, f"fixture should contain completions of {query}"
            code = main([
                "predict", "--checkpoint", str(run_dir / "model.ckpt"),
                "--data", str(data_dir), "--k", "26", *query,
            ])
            assert code == 0
            rows = capsys.readouterr().out.strip().splitlines()
            assert not ({row.split("\t")[0] for row in rows} & known)

    @pytest.mark.parametrize("query", [["g2_00", "child", "?"], ["?", "parent", "g2_00"]])
    def test_keep_known_minus_known_rows_is_filtered_list(self, run_dir, data_dir, query,
                                                           capsys):
        def names(*flags):
            code = main([
                "predict", "--checkpoint", str(run_dir / "model.ckpt"),
                "--data", str(data_dir), "--k", "26", *flags, *query,
            ])
            assert code == 0
            return [row.split("\t") for row in capsys.readouterr().out.strip().splitlines()]

        kept = names("--keep-known")
        assert any(row[-1] == "known" for row in kept)
        assert [row[0] for row in kept if row[-1] != "known"] == [row[0] for row in names()]

    def test_true_completion_ranks_high_when_kept(self, good_run_dir, data_dir, capsys):
        kg = load_dataset(data_dir)
        h, r, t = kg.train[0]
        head = kg.entity_names[h]
        rel = kg.relation_names[r]
        tail = kg.entity_names[t]
        code = main([
            "predict", "--checkpoint", str(good_run_dir / "model.ckpt"),
            "--data", str(data_dir), "--k", "3", "--keep-known", head, rel, "?",
        ])
        assert code == 0
        names = [row.split("\t")[0] for row in capsys.readouterr().out.strip().splitlines()]
        assert tail in names

    @pytest.mark.parametrize(
        "query", [["zzz", "parent", "?"], ["g2_00", "nosuchrel", "?"],
                  ["g2_00", "parent", "g2_01"], ["?", "parent", "?"],
                  ["g2_00", "?", "g2_01"], ["--k", "0", "g2_00", "parent", "?"]],
    )
    def test_bad_queries_exit_2(self, run_dir, data_dir, query, capsys):
        code = main([
            "predict", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data_dir), *query,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestInspectCommand:
    def test_translation_summary(self, run_dir, capsys):
        code = main(["inspect", "--checkpoint", str(run_dir / "model.ckpt")])
        assert code == 0
        lines = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["config.dim"] == "8"
        assert int(lines["entities"]) == 26
        own = 26 * 8 + 10 * 8 + 2 * 64
        assert int(lines["params.own"]) == own
        assert "rotation_modulus_max_deviation" not in lines

    def test_rotation_modulus_audit(self, tmp_path, data_dir, capsys):
        out = tmp_path / "rot"
        assert main([
            "train", "--data", str(data_dir), "--out", str(out),
            "--assumption", "rotation", "--dim", "8", "--layers", "1",
            "--epochs", "2", "--seed", "4",
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(out / "model.ckpt")]) == 0
        lines = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["rotation_modulus_max_deviation"]) <= 1e-9


class TestSweepCommand:
    def test_two_layer_sweep(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--data", str(data_dir), "--layer-counts", "0,1",
            "--dim", "8", "--epochs", "2", "--batch", "64", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layers\tmrr\thits@10"
        assert len(lines) == 3
        rows = json.loads((out / "sweep.json").read_text())
        assert [row["layers"] for row in rows] == [0, 1]

    def test_bad_layer_counts_exit_2(self, data_dir, capsys):
        code = main(["sweep", "--data", str(data_dir), "--layer-counts", "a,b"])
        assert code == 2
        assert "layer-counts" in capsys.readouterr().err

    def test_bad_layer_count_refused_before_training(self, data_dir, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="transgcn.trainer"):
            code = main(["sweep", "--data", str(data_dir), "--layer-counts", "1,-1",
                         "--dim", "8", "--epochs", "1", "--batch", "64"])
        assert code == 2
        assert "layers must be >= 0" in capsys.readouterr().err
        assert not caplog.records  # no epoch line: nothing was trained

    def test_empty_split_refused_before_training(self, tmp_path, capsys, caplog):
        data = tmp_path / "no-valid"
        assert main(["gen-toy", "--out", str(data), "--seed", "0", "--couples", "3",
                     "--valid-size", "0", "--test-size", "20"]) == 0
        with caplog.at_level(logging.INFO, logger="transgcn.trainer"):
            code = main(["sweep", "--data", str(data), "--split", "valid", "--layer-counts",
                         "0", "--dim", "8", "--epochs", "3", "--batch", "64"])
        assert code == 2
        assert "cannot evaluate an empty valid split" in capsys.readouterr().err
        assert not caplog.records  # no epoch line: nothing was trained


    @pytest.mark.parametrize("flags", [["--couples", "0"], ["--valid-size", "-5"],
                                       ["--test-size", "-1"]])
    def test_gen_toy_refuses_sizes_it_cannot_honour(self, tmp_path, capsys, flags):
        out = tmp_path / "toy"
        assert main(["gen-toy", "--out", str(out), *flags]) == 2
        assert "must be >=" in capsys.readouterr().err
        assert not out.exists()


class TestLoggingAndVersion:
    def test_bad_log_level_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRANSGCN_LOG", "loud")
        code = main(["gen-toy", "--out", str(tmp_path / "d")])
        assert code == 2
        assert "TRANSGCN_LOG" in capsys.readouterr().err

    def test_quiet_console_still_writes_log_file(
        self, tmp_path, data_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("TRANSGCN_LOG", "error")
        out = tmp_path / "quiet"
        code = main([
            "train", "--data", str(data_dir), "--out", str(out),
            "--dim", "8", "--layers", "0", "--epochs", "2", "--seed", "6",
        ])
        assert code == 0
        assert len((out / "train.log").read_text().strip().splitlines()) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["train", "eval", "predict", "inspect", "sweep", "gen-toy"]
    )
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out
