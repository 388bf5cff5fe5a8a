import numpy as np
import pytest

from dvpt import cli
from dvpt.config import load_config
from dvpt.vit import ConfigError

BASE_CONFIG = """\
[run]
task = classification
policy = {policy}

[model]
image_h = 16
image_w = 16
channels = 1
patch_size = 4
embed_dim = 32
depth = 4
heads = 4
num_classes = 5

[dvpt]
num_prompts = 8
hidden_dim = 4
share_every = {share_every}
gate_init = {gate_init}

[optimizer]
lr = {lr}
epochs = {epochs}
batch_size = 8
seed = 0

[data]
source = synthetic
count = {count}
seed = {data_seed}
difficulty = 0.3
family = {family}
"""


def write_config(tmp_path, name="run.ini", policy="dvpt", share_every=1,
                 gate_init=0.0, lr=0.01, epochs=2, count=16, data_seed=7,
                 family="a", mutate=None):
    text = BASE_CONFIG.format(policy=policy, share_every=share_every,
                              gate_init=gate_init, lr=lr, epochs=epochs,
                              count=count, data_seed=data_seed, family=family)
    if mutate:
        text = mutate(text)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_well_formed_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.task == "classification" and cfg.policy == "dvpt"
        assert cfg.model.embed_dim == 32
        assert cfg.dvpt.num_prompts == 8
        assert cfg.optimizer.lr == 0.01
        assert cfg.data.family == "a"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.ini")

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, mutate=lambda t: t + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            mutate=lambda t: t.replace("lr = 0.01", "lr = 0.01\nmomentum = 0.9"))
        with pytest.raises(ConfigError, match="momentum"):
            load_config(path)

    def test_bad_value_type_rejected(self, tmp_path):
        path = write_config(tmp_path, mutate=lambda t: t.replace("depth = 4", "depth = four"))
        with pytest.raises(ConfigError, match="depth"):
            load_config(path)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="policy"):
            load_config(write_config(tmp_path, policy="lora"))

    def test_share_every_beyond_depth_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, share_every=5))

    def test_patch_divisibility_rejected(self, tmp_path):
        path = write_config(tmp_path, mutate=lambda t: t.replace("image_h = 16", "image_h = 17"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_prompt_policy_requires_dvpt_section(self, tmp_path):
        def drop_dvpt(text):
            head, tail = text.split("[dvpt]")
            return head + "[optimizer]" + tail.split("[optimizer]", 1)[1]
        with pytest.raises(ConfigError, match="dvpt"):
            load_config(write_config(tmp_path, mutate=drop_dvpt))

    def test_file_source_requires_path(self, tmp_path):
        path = write_config(tmp_path,
                            mutate=lambda t: t.replace("source = synthetic", "source = file"))
        with pytest.raises(ConfigError, match="path"):
            load_config(path)


class TestCliExitCodes:
    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, policy="lora")
        assert cli.main(["count-params", "--config", path]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_two(self):
        assert cli.main(["count-params", "--config", "/nope.ini"]) == cli.EXIT_CONFIG

    def test_corrupt_checkpoint_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = cli.main(["finetune", "--config", cfg, "--backbone", str(bad),
                         "--out", str(tmp_path / "o.ckpt")])
        assert code == cli.EXIT_CORRUPT
        assert "corrupt" in capsys.readouterr().err

    def test_architecture_mismatch_exits_three(self, tmp_path, capsys):
        from dvpt.checkpoint import save_checkpoint
        cfg = write_config(tmp_path)
        partial = tmp_path / "partial.ckpt"
        save_checkpoint(partial, {"pos_embed": np.zeros((1, 17, 32), dtype=np.float32)})
        code = cli.main(["finetune", "--config", cfg, "--backbone", str(partial),
                         "--out", str(tmp_path / "o.ckpt")])
        assert code == cli.EXIT_ARCH_MISMATCH
        assert "architecture mismatch" in capsys.readouterr().err

    def test_grad_check_passes_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gate_init=0.3, count=4)
        code = cli.main(["grad-check", "--config", cfg, "--samples", "15"])
        assert code == cli.EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_missing_backbone_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        missing = tmp_path / "missing.ckpt"
        code = cli.main(["eval", "--config", cfg, "--backbone", str(missing),
                         "--task-ckpt", str(missing)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and str(missing) in err and "Traceback" not in err

    def test_missing_data_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.dvds"
        cfg = write_config(tmp_path, mutate=lambda t: t.replace(
            "source = synthetic", f"source = file\npath = {missing}"))
        code = cli.main(["synth-data", "--config", cfg, "--out", str(tmp_path / "x.dvds")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and str(missing) in err


def dataset_config(tmp_path, dataset):
    """A run config whose [data] reads ``dataset`` from a DVDS file."""
    from dvpt.data import save_dataset
    path = tmp_path / "data.dvds"
    save_dataset(path, dataset)
    return write_config(tmp_path, mutate=lambda t: t.replace(
        "source = synthetic", f"source = file\npath = {path}"))


class TestNonFiniteLoss:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_huge_pixel_stops_finetune_with_exit_two(self, tmp_path, workspace, capsys):
        from dvpt.data import synth_generate
        ds = synth_generate("classification", 16, seed=5)
        ds.images[3, 5, 7, 0] = 3e38  # finite, so the loader accepts it
        cfg = dataset_config(tmp_path, ds)
        out = tmp_path / "task.ckpt"
        code = cli.main(["finetune", "--config", cfg, "--backbone", str(workspace["backbone"]),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and not out.exists()
        assert "epoch,loss" not in captured.out
        err = captured.err
        # gate 0 hides the huge adapter output from the loss, not from the
        # gate's gradient, whose square overflows float32
        assert err.count("\n") == 1 and err.startswith("config error: gradient of 'adapter")
        assert "at epoch 0, batch" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_pixel_stops_eval_with_exit_two(self, tmp_path, workspace, capsys):
        from dvpt.data import synth_generate
        ds = synth_generate("classification", 16, seed=5)
        ds.images[3, 5, 7, 0] = 3e38
        cfg = dataset_config(tmp_path, ds)
        code = cli.main(["eval", "--config", cfg, "--backbone", str(workspace["backbone"]),
                         "--task-ckpt", str(workspace["task"])])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and not captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("config error: non-finite logits for sample 3: ")


class TestDatasetFitsModel:
    """A well-formed dataset file that does not fit [model] is a config error."""

    def _eval(self, cfg, workspace):
        return cli.main(["eval", "--config", cfg, "--backbone", str(workspace["backbone"]),
                         "--task-ckpt", str(workspace["task"])])

    def test_image_geometry_mismatch_exits_two(self, tmp_path, workspace, capsys):
        from dvpt.data import synth_generate
        cfg = dataset_config(tmp_path, synth_generate("classification", 4, seed=5, h=8, w=8))
        assert self._eval(cfg, workspace) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "(8, 8, 1)" in err

    def test_channel_mismatch_exits_two(self, tmp_path, workspace, capsys):
        from dvpt.data import synth_generate
        cfg = dataset_config(tmp_path, synth_generate("classification", 4, seed=5, channels=3))
        assert self._eval(cfg, workspace) == cli.EXIT_CONFIG
        assert "(16, 16, 3)" in capsys.readouterr().err

    def test_label_outside_num_classes_exits_two(self, tmp_path, workspace, capsys):
        from dvpt.data import Dataset, synth_generate
        ds = synth_generate("classification", 4, seed=5)
        ds = Dataset(ds.images, np.array([0, 8, 1, 2], dtype=np.uint16), ds.task, 9)
        cfg = dataset_config(tmp_path, ds)
        assert self._eval(cfg, workspace) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "label 8" in err

    def test_empty_dataset_exits_two(self, tmp_path, workspace, capsys):
        from dvpt.data import Dataset
        ds = Dataset(np.zeros((0, 16, 16, 1), np.float32), np.zeros(0, np.uint16),
                     "classification", 5)
        cfg = dataset_config(tmp_path, ds)
        assert self._eval(cfg, workspace) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: empty dataset\n" and not captured.out

    def test_grad_check_on_empty_dataset_exits_two(self, tmp_path, capsys):
        from dvpt.data import Dataset
        ds = Dataset(np.zeros((0, 16, 16, 1), np.float32), np.zeros(0, np.uint16),
                     "classification", 5)
        code = cli.main(["grad-check", "--config", dataset_config(tmp_path, ds)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == "config error: empty dataset\n" and not captured.out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """pretrain -> finetune -> eval chain shared by the workflow tests."""
    tmp = tmp_path_factory.mktemp("cliflow")
    pre_cfg = write_config(tmp, "pre.ini", policy="full_finetune",
                           epochs=3, count=24, data_seed=1, family="a")
    ft_cfg = write_config(tmp, "ft.ini", policy="dvpt",
                          epochs=3, count=16, data_seed=2, family="b")
    backbone = tmp / "backbone.ckpt"
    task = tmp / "task.ckpt"
    history = tmp / "history.csv"
    assert cli.main(["pretrain", "--config", pre_cfg,
                     "--out", str(backbone)]) == 0
    assert cli.main(["finetune", "--config", ft_cfg, "--backbone", str(backbone),
                     "--history", str(history), "--out", str(task)]) == 0
    return {"tmp": tmp, "pre_cfg": pre_cfg, "ft_cfg": ft_cfg,
            "backbone": backbone, "task": task, "history": history}


@pytest.fixture(scope="module")
def seg_workspace(tmp_path_factory):
    """pretrain -> finetune chain for the segmentation task."""
    tmp = tmp_path_factory.mktemp("cliseg")

    def segmentation(text):
        return (text.replace("task = classification", "task = segmentation")
                    .replace("num_classes = 5", "num_classes = 2"))

    pre_cfg = write_config(tmp, "pre.ini", policy="full_finetune", epochs=2, count=16,
                           data_seed=1, mutate=segmentation)
    ft_cfg = write_config(tmp, "ft.ini", policy="dvpt", epochs=2, count=12,
                          data_seed=2, family="b", mutate=segmentation)
    backbone = tmp / "backbone.ckpt"
    task = tmp / "task.ckpt"
    assert cli.main(["pretrain", "--config", pre_cfg, "--out", str(backbone)]) == 0
    assert cli.main(["finetune", "--config", ft_cfg, "--backbone", str(backbone),
                     "--out", str(task)]) == 0
    return {"tmp": tmp, "pre_cfg": pre_cfg, "ft_cfg": ft_cfg,
            "backbone": backbone, "task": task}


class TestCliWorkflow:
    def test_synth_data_writes_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, count=6)
        out = tmp_path / "ds.dvds"
        assert cli.main(["synth-data", "--config", cfg, "--out", str(out)]) == 0
        from dvpt.data import load_dataset
        assert len(load_dataset(out)) == 6

    def test_history_csv_well_formed(self, workspace):
        lines = workspace["history"].read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,acc,kappa"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == i and len(fields) == 4

    def test_finetune_rerun_byte_identical(self, workspace, capsys):
        tmp = workspace["tmp"]
        task2 = tmp / "task2.ckpt"
        history2 = tmp / "history2.csv"
        assert cli.main(["finetune", "--config", workspace["ft_cfg"],
                         "--backbone", str(workspace["backbone"]),
                         "--history", str(history2), "--out", str(task2)]) == 0
        assert task2.read_bytes() == workspace["task"].read_bytes()
        assert history2.read_text() == workspace["history"].read_text()

    def test_eval_runs_and_reports(self, workspace, capsys):
        assert cli.main(["eval", "--config", workspace["ft_cfg"],
                         "--backbone", str(workspace["backbone"]),
                         "--task-ckpt", str(workspace["task"])]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "acc,kappa"
        assert "accuracy=" in out and "kappa=" in out

    @pytest.mark.parametrize("name, stdout", [
        ("workspace", "acc,kappa\n0.562500,0.719807\naccuracy=0.562500\nkappa=0.719807\n"),
        ("seg_workspace", "dice,iou\n0.363636,0.222222\ndice=0.363636\niou=0.222222\n"),
    ], ids=["classification", "segmentation"])
    def test_eval_stdout_pinned(self, request, name, stdout, capsys):
        ws = request.getfixturevalue(name)
        capsys.readouterr()  # drop what building the workspace printed
        assert cli.main(["eval", "--config", ws["ft_cfg"], "--backbone", str(ws["backbone"]),
                         "--task-ckpt", str(ws["task"])]) == 0
        assert capsys.readouterr().out == stdout

    def test_eval_deterministic_output(self, workspace, capsys):
        args = ["eval", "--config", workspace["ft_cfg"],
                "--backbone", str(workspace["backbone"]),
                "--task-ckpt", str(workspace["task"])]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_task_switching_on_one_backbone(self, workspace, capsys):
        # two prompt-adapter checkpoints fine-tuned on different pattern
        # families, swapped over the same frozen backbone
        tmp = workspace["tmp"]
        ft_a = write_config(tmp, "ft_a.ini", policy="dvpt",
                            epochs=3, count=16, data_seed=3, family="a")
        task_a = tmp / "task_a.ckpt"
        assert cli.main(["finetune", "--config", ft_a,
                         "--backbone", str(workspace["backbone"]),
                         "--out", str(task_a)]) == 0
        capsys.readouterr()
        for cfg, ckpt in ((ft_a, task_a), (workspace["ft_cfg"], workspace["task"])):
            assert cli.main(["eval", "--config", cfg,
                             "--backbone", str(workspace["backbone"]),
                             "--task-ckpt", str(ckpt)]) == 0
            assert "accuracy=" in capsys.readouterr().out

    def test_finetune_out_into_missing_directory_exits_two(self, workspace, capsys):
        out = workspace["tmp"] / "no_such_dir" / "task.ckpt"
        code = cli.main(["finetune", "--config", workspace["ft_cfg"],
                         "--backbone", str(workspace["backbone"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["finetune --out", "finetune --history",
                                      "pretrain --out", "synth-data --out"])
    def test_unwritable_output_fails_before_any_work(self, workspace, flag, capsys):
        tmp = workspace["tmp"]
        bad = str(tmp / "no_such_dir" / "file")
        unused = tmp / "unused.ckpt"
        finetune = ["finetune", "--config", workspace["ft_cfg"],
                    "--backbone", str(workspace["backbone"])]
        argv = {
            "finetune --out": finetune + ["--out", bad],
            "finetune --history": finetune + ["--history", bad, "--out", str(unused)],
            "pretrain --out": ["pretrain", "--config", workspace["pre_cfg"], "--out", bad],
            "synth-data --out": ["synth-data", "--config", workspace["ft_cfg"], "--out", bad],
        }[flag]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.out == ""  # no report, no CSV: nothing ran
        assert captured.err.count("\n") == 1 and bad in captured.err
        assert ".tmp." not in captured.err and not unused.exists()

    def test_output_path_that_is_a_directory_exits_two(self, workspace, capsys):
        tmp = workspace["tmp"]
        code = cli.main(["synth-data", "--config", workspace["ft_cfg"], "--out", str(tmp)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and captured.out == ""
        assert "is a directory" in captured.err and str(tmp) in captured.err

    def test_relative_output_path_in_working_directory(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, count=4)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth-data", "--config", cfg, "--out", "ds.dvds"]) == 0
        assert (tmp_path / "ds.dvds").exists()

    def test_finetune_prints_param_report(self, workspace, capsys):
        tmp = workspace["tmp"]
        assert cli.main(["finetune", "--config", workspace["ft_cfg"],
                         "--backbone", str(workspace["backbone"]),
                         "--out", str(tmp / "scratch.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "trainable" in out and "epoch,loss,acc,kappa" in out

    def test_count_params_reference_line(self, tmp_path, capsys):
        # paper-scale config triggers the published reference total
        def upscale(text):
            return (text.replace("image_h = 16", "image_h = 224")
                        .replace("image_w = 16", "image_w = 224")
                        .replace("channels = 1", "channels = 3")
                        .replace("patch_size = 4", "patch_size = 16")
                        .replace("embed_dim = 32", "embed_dim = 768")
                        .replace("depth = 4", "depth = 12")
                        .replace("heads = 4", "heads = 12")
                        .replace("num_prompts = 8", "num_prompts = 50")
                        .replace("hidden_dim = 4", "hidden_dim = 20"))
        cfg = write_config(tmp_path, mutate=upscale)
        assert cli.main(["count-params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "457,446" in out and "420,353" in out

    def test_learned_task_beats_chance(self, workspace):
        # the fine-tuned adapter should classify its own training family
        # far above the 1/K chance rate
        from dvpt.checkpoint import load_backbone, load_checkpoint, load_task_params
        from dvpt.config import load_config
        from dvpt.model import model_for_policy
        from dvpt.training import evaluate
        from dvpt.data import synth_generate
        cfg = load_config(workspace["ft_cfg"])
        model, _ = model_for_policy(cfg.model, cfg.dvpt, "dvpt",
                                    seed=cfg.optimizer.seed)
        load_backbone(model, load_checkpoint(workspace["backbone"]))
        load_task_params(model, load_checkpoint(workspace["task"]))
        ds = synth_generate("classification", 16, seed=cfg.data.seed, family="b")
        report = evaluate(model, ds.images, ds.labels)
        assert report.accuracy > 1.0 / 5.0
