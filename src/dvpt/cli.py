"""Command-line interface.

Commands: pretrain, finetune, eval, count-params, grad-check, synth-data.
Exit codes: 0 ok, 1 check failed, 2 config error (including an
unreadable or unwritable path, a dataset that does not fit the model, or
a training batch with a non-finite loss or gradient), 3 architecture
mismatch, 4 corrupt checkpoint or dataset file.
"""

import argparse
import errno
import os
import sys

import numpy as np

from . import accounting, checkpoint, data as data_mod, training
from .binfile import CorruptFileError
from .checkpoint import ArchitectureMismatchError
from .config import load_config
from .data import DatasetError
from .model import model_for_policy
from .training import ContractError
from .vit import ConfigError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ARCH_MISMATCH = 3
EXIT_CORRUPT = 4


def _load_data(cfg, seed_override=None):
    d = cfg.data
    if d.source == "file":
        ds = data_mod.load_dataset(d.path)
        if ds.task != cfg.task:
            raise ConfigError(f"dataset task {ds.task!r} does not match [run] task {cfg.task!r}")
        m = cfg.model
        if ds.images.shape[1:] != (m.image_h, m.image_w, m.channels):
            raise ConfigError(
                f"dataset images are {ds.images.shape[1:]} (H, W, C), [model] expects "
                f"{(m.image_h, m.image_w, m.channels)}")
        if ds.labels.size and ds.labels.max() >= m.num_classes:
            raise ConfigError(
                f"dataset label {ds.labels.max()} outside [model] num_classes = {m.num_classes}")
        return ds
    seed = d.seed if seed_override is None else seed_override
    return data_mod.synth_generate(
        cfg.task, d.count, seed, difficulty=d.difficulty, family=d.family,
        h=cfg.model.image_h, w=cfg.model.image_w, channels=cfg.model.channels,
        num_classes=cfg.model.num_classes,
    )


def _check_writable(*paths):
    """Raise an OSError naming the first path (None is skipped) whose
    directory is missing or not writable, before a command does any work."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        if not os.access(directory, os.W_OK):
            raise PermissionError(errno.EACCES, "output directory is not writable", path)


def _seed(cfg, args):
    return cfg.optimizer.seed if args.seed is None else args.seed


def _reference_total(cfg):
    """Reported reference count, when the config matches the ViT-B/16 setting."""
    dv = cfg.dvpt
    if dv is None:
        return None
    if (dv.num_prompts, dv.hidden_dim, cfg.model.embed_dim, cfg.model.depth) == (50, 20, 768, 12):
        return accounting.REFERENCE_TOTALS_VITB16.get(dv.share_every)
    return None


def cmd_synth_data(cfg, args):
    ds = _load_data(cfg)
    data_mod.save_dataset(args.out, ds)
    print(f"wrote {len(ds)} {ds.task} samples to {args.out}")
    return EXIT_OK


def cmd_pretrain(cfg, args):
    seed = _seed(cfg, args)
    ds = _load_data(cfg)
    model, policy = model_for_policy(cfg.model, cfg.dvpt, "full_finetune",
                                     task=cfg.task, seed=seed)
    history = training.train_loop(
        model, ds.images, ds.labels, policy,
        epochs=cfg.optimizer.epochs, lr=cfg.optimizer.lr,
        batch_size=cfg.optimizer.batch_size, seed=seed,
    )
    sys.stdout.write(training.history_csv(history, cfg.task))
    checkpoint.save_trainable(args.out, model)
    print(f"saved full checkpoint to {args.out}")
    return EXIT_OK


def cmd_finetune(cfg, args):
    seed = _seed(cfg, args)
    ds = _load_data(cfg)
    model, policy = model_for_policy(cfg.model, cfg.dvpt, cfg.policy,
                                     task=cfg.task, seed=seed)
    checkpoint.load_backbone(model, checkpoint.load_checkpoint(args.backbone))
    report = accounting.enumerate_trainable(model, policy)
    print(accounting.format_report(report, reference_total=_reference_total(cfg)))
    history = training.train_loop(
        model, ds.images, ds.labels, policy,
        epochs=cfg.optimizer.epochs, lr=cfg.optimizer.lr,
        batch_size=cfg.optimizer.batch_size, seed=seed,
    )
    csv = training.history_csv(history, cfg.task)
    sys.stdout.write(csv)
    if args.history:
        with open(args.history, "w") as fh:
            fh.write(csv)
    checkpoint.save_trainable(args.out, model)
    print(f"saved task checkpoint to {args.out}")
    return EXIT_OK


def cmd_eval(cfg, args):
    seed = _seed(cfg, args)
    ds = _load_data(cfg)
    model, _ = model_for_policy(cfg.model, cfg.dvpt, cfg.policy,
                                task=cfg.task, seed=seed)
    checkpoint.load_backbone(model, checkpoint.load_checkpoint(args.backbone))
    checkpoint.load_task_params(model, checkpoint.load_checkpoint(args.task_ckpt))
    report = training.evaluate(model, ds.images, ds.labels)
    print(report.csv_header())
    print(report.csv_row())
    print(report.key_values())
    return EXIT_OK


def cmd_count_params(cfg, args):
    report = accounting.report_from_config(cfg.model, cfg.dvpt, cfg.policy)
    reference = _reference_total(cfg)
    print(accounting.format_report(report, reference_total=reference))
    print(accounting.report_key_values(report, reference_total=reference))
    return EXIT_OK


def cmd_grad_check(cfg, args):
    seed = _seed(cfg, args)
    ds = _load_data(cfg)
    model, _ = model_for_policy(cfg.model, cfg.dvpt, cfg.policy,
                                task=cfg.task, seed=seed, dtype=np.float64)
    n = min(4, len(ds))
    result = training.grad_check(model, ds.images[:n], ds.labels[:n],
                                 samples=args.samples, tol=args.tol, seed=seed)
    print(f"max relative error: {result['max_rel_err']:.3e} (tol {result['tol']:.1e})")
    print("PASS" if result["passed"] else "FAIL")
    return EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(prog="dvpt",
                                     description="Prompt-adapter fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override optimizer seed")
        if out:
            p.add_argument("--out", required=True, help="output path")

    common(sub.add_parser("synth-data", help="generate a synthetic dataset file"), out=True)
    common(sub.add_parser("pretrain", help="full fine-tuning; saves all weights"), out=True)

    p = sub.add_parser("finetune", help="policy fine-tuning atop a frozen backbone")
    common(p, out=True)
    p.add_argument("--backbone", required=True, help="backbone checkpoint")
    p.add_argument("--history", default=None, help="write per-epoch CSV here")

    p = sub.add_parser("eval", help="evaluate a backbone + task checkpoint pair")
    common(p)
    p.add_argument("--backbone", required=True)
    p.add_argument("--task-ckpt", required=True)

    common(sub.add_parser("count-params", help="trainable-parameter report"))

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    common(p)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "count-params": cmd_count_params,
    "grad-check": cmd_grad_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _check_writable(getattr(args, "out", None), getattr(args, "history", None))
        return _COMMANDS[args.command](cfg, args)
    except CorruptFileError as exc:  # before DatasetError: corrupt dataset files subclass it
        print(f"corrupt file: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (ConfigError, DatasetError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArchitectureMismatchError as exc:
        print(f"architecture mismatch: {exc}", file=sys.stderr)
        return EXIT_ARCH_MISMATCH
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
