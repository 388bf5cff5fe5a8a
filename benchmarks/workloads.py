"""The three benchmark workloads.  Each is a closed loop with one caller.

finetune_dvpt / finetune_full
    Fine-tuning rounds at the ROADMAP mid config through the public
    ``train_loop`` (one epoch per round, including its evaluate and its
    frozen-tensor check), each followed by saving the task checkpoint.
serve_vitb16
    One-image requests through ``training.predict`` on a frozen ViT-B/16
    backbone, each naming one of a few task checkpoints; a request whose
    task differs from the loaded one first loads and applies that task's
    checkpoint.

A run builds its fixtures in a child process, sets up several times
(median reported), runs one warm-up round or request, then measures for
the requested seconds and checks every output afterwards.  Fine-tuning
repeats its set-up between rounds; serving sets up before its first
request.
"""

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import shapes
import spans
from dvpt import checkpoint, data, training
from dvpt import model as model_mod

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The forward scopes (spans.SCOPES) each workload runs, mapped to whether
# the scope must also record tape nodes there.  The traced run checks that
# these scopes, and no others, show work.
_VIT = {"vit.patch_embed": False, "vit.attn": True, "vit.ffn": True, "vit.head": True}
_PEFT = {"peft.prompts": True, "peft.adapter": True, "peft.cavpt": True}
LAYERS = {
    "dvpt": {**_VIT, **_PEFT, "model.assembly": False, "training.loss": True},
    "full_finetune": {**_VIT, "vit.patch_embed": True, "model.assembly": False,
                      "training.loss": True},
    "serve": {scope: False for scope in (*_VIT, *_PEFT, "model.assembly")},
}


@dataclass
class Result:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)  # end-to-end
    layer_metrics: dict = field(default_factory=dict)  # traced runs only
    unbounded: dict = field(default_factory=dict)  # name -> (value, unit), reported only
    samples: dict = field(default_factory=dict)  # metric -> sample count
    checks: list = field(default_factory=list)  # {"name", "ok", "detail"}
    ops_attempted: int = 0
    ops_failed: int = 0
    tracer: object = None

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def fail_op(self, what, exc):
        self.ops_failed += 1
        print(f"{what} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    @property
    def attempted(self):
        return self.ops_attempted + len(self.checks)

    @property
    def failed(self):
        return self.ops_failed + sum(not c["ok"] for c in self.checks)


def tail(values):
    """The highest sample with at least ten samples above it (the maximum
    when there are fewer than eleven)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_fixtures(kind, case, work):
    subprocess.run(
        [sys.executable, str(HERE / "fixtures.py"), kind, str(case), str(work)],
        check=True, timeout=150,
    )


def reference_losses(policy, case):
    table = json.loads(REFERENCE.read_text())
    return table["rtol"], table["atol"], table["losses"][policy][str(case)]


# ---------------------------------------------------------------------------
# fine-tuning

class Round(NamedTuple):
    first_step: int  # index into StepClock.steps
    seconds: float  # train_loop plus the checkpoint save
    save_s: float


def finetune_setup(spec, policy, work):
    """Everything between start-up and the first step: build the model for
    the policy, load the frozen backbone, load the dataset."""
    model, freeze = model_mod.model_for_policy(spec.vit, spec.dvpt, policy, seed=0)
    checkpoint.load_backbone(model, checkpoint.load_checkpoint(work / "backbone.ckpt"))
    dataset = data.load_dataset(work / "train.dvds")
    return model, freeze, dataset


def train_round(spec, model, freeze, dataset, index, task_path):
    """One fine-tuning round; returns its loss and the checkpoint save time."""
    history = training.train_loop(model, dataset.images, dataset.labels, freeze,
                                  epochs=1, lr=spec.lr, batch_size=spec.batch_size,
                                  seed=index)
    start = time.perf_counter()
    checkpoint.save_trainable(task_path, model)
    return history[0]["loss"], time.perf_counter() - start


def finetune(policy, seed, seconds, trace, work):
    spec = shapes.FINETUNE
    case = seed % shapes.CASES
    build_fixtures("finetune", case, work)
    task_path = work / "task.ckpt"
    result = Result(tracer=spans.Tracer() if trace else None)
    tracer = result.tracer
    losses, rounds = [], []
    first_checkpoint = None

    with spans.Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        clock = spans.StepClock(tracer)
        clock.install(patches)

        setup_s = []

        def timed_setup():
            start = time.perf_counter()
            built = finetune_setup(spec, policy, work)
            setup_s.append(time.perf_counter() - start)
            return built

        # Rounds train the first set-up's model.  The host's speed drifts
        # over seconds, so the other set-ups are spread over the run, a few
        # before each round, rather than taken in one burst.
        model, freeze, dataset = timed_setup()
        deadline = None
        while deadline is None or time.perf_counter() < deadline:
            index = len(losses)
            if index > 0:
                for _ in range(spec.setups_per_round):
                    timed_setup()
            if tracer is not None:
                tracer.track_memory(index == 0)
            if index == 1:
                deadline = time.perf_counter() + seconds
            first_step = len(clock.steps)
            start = time.perf_counter()
            result.ops_attempted += 1  # the checkpoint save
            try:
                loss, save_s = train_round(spec, model, freeze, dataset, index, task_path)
            except Exception as exc:  # noqa: BLE001 - reported, counted, run ends
                result.ops_attempted += len(clock.steps) - first_step
                result.ops_failed += len(clock.steps) - first_step - clock.finished(first_step)
                result.fail_op(f"round {index}", exc)
                break
            rounds.append(Round(first_step, time.perf_counter() - start, save_s))
            result.ops_attempted += len(clock.steps) - first_step
            losses.append(loss)
            if index == 0:
                first_checkpoint = task_path.read_bytes()
        if tracer is not None:
            tracer.track_memory(False)

    warm_steps = rounds[1].first_step if len(rounds) > 1 else len(clock.steps)
    timed = rounds[1:]
    step_ms = clock.durations_ms(warm_steps)
    result.metrics = {
        "setup_s": median(setup_s),
        "throughput_per_s": (len(timed) * spec.train_count / sum(r.seconds for r in timed)
                             if timed else 0.0),
        "latency_ms.p50": median(step_ms),
        "latency_ms.tail": tail(step_ms),
    }
    result.unbounded = {"checkpoint_save_ms.p50": (median([r.save_s * 1e3 for r in timed]), "ms")}
    result.samples = {"setup_s": len(setup_s), "throughput_per_s": len(timed),
                      "latency_ms.p50": len(step_ms), "latency_ms.tail": len(step_ms),
                      "checkpoint_save_ms.p50": len(timed)}

    check_losses(result, policy, case, losses)
    check_checkpoint_round_trip(result, model, task_path, work)
    if tracer is not None:
        replay = replay_first_round(result, spec, policy, work, losses, first_checkpoint)
        add_layer_metrics(result, range(warm_steps, len(clock.steps)), range(warm_steps),
                          median(step_ms), replay, LAYERS[policy])
    result.metrics["peak_rss_mib"] = peak_rss_mib()
    result.samples["peak_rss_mib"] = 1
    return result


def check_losses(result, policy, case, losses):
    rtol, atol, expected = reference_losses(policy, case)
    result.check("every round's loss is finite",
                 losses and all(math.isfinite(x) for x in losses), losses)
    if len(losses) < len(expected):
        result.check("reference rounds completed", False,
                     f"{len(losses)} of {len(expected)} rounds ran")
        return
    for index, (got, want) in enumerate(zip(losses, expected)):
        result.check(f"round {index} loss matches the reference",
                     abs(got - want) <= atol + rtol * abs(want), f"{got!r} vs {want!r}")


def check_checkpoint_round_trip(result, model, task_path, work):
    if not task_path.exists():
        result.check("a task checkpoint was saved", False)
        return
    loaded = checkpoint.load_checkpoint(task_path)
    trainable = {name for name, _ in model.trainable()}
    result.check("task checkpoint holds exactly the trainable tensors",
                 set(loaded) == trainable, sorted(set(loaded) ^ trainable))
    again = work / "task.again.ckpt"
    checkpoint.save_checkpoint(again, loaded)
    result.check("task checkpoint survives save -> load -> save byte-for-byte",
                 again.read_bytes() == task_path.read_bytes())


def replay_first_round(result, spec, policy, work, losses, first_checkpoint):
    """Re-run round 0 untraced on a fresh set-up; its loss and checkpoint
    must equal the traced round's bit for bit.  Returns the untraced step
    times, the base of the tracing overhead."""
    with spans.Patches() as patches:
        clock = spans.StepClock()
        clock.install(patches)
        model, freeze, dataset = finetune_setup(spec, policy, work)
        path = work / "task.replay.ckpt"
        loss, _ = train_round(spec, model, freeze, dataset, 0, path)
    result.check("traced round 0 loss is bitwise equal to untraced",
                 losses and loss == losses[0], f"{loss!r} vs {losses[:1]!r}")
    result.check("traced round 0 checkpoint is bitwise equal to untraced",
                 path.read_bytes() == first_checkpoint)
    return clock.durations_ms()


def add_layer_metrics(result, timed_ops, memory_ops, traced_ms, untraced_ms, layers):
    """Per-layer metrics, the tracing overhead (traced minus untraced
    median op time) and the checks that the scopes add up."""
    tracer = result.tracer
    result.layer_metrics = tracer.layer_metrics(timed_ops, memory_ops)
    base = median(untraced_ms)
    result.layer_metrics["trace.untraced_op_ms"] = base
    result.layer_metrics["trace.overhead_ms"] = traced_ms - base
    for name, problems in tracer.consistency(timed_ops, layers):
        result.check(name, not problems, "; ".join(problems[:3]))


# ---------------------------------------------------------------------------
# serving with task switching

def serve_setup(spec, work):
    """Build the dvpt model and load the frozen backbone."""
    model, _ = model_mod.model_for_policy(spec.vit, spec.dvpt, "dvpt", seed=0)
    checkpoint.load_backbone(model, checkpoint.load_checkpoint(work / "backbone.ckpt"))
    return model


def request_plan(rng, tasks, images):
    """Endless seeded (task, image) requests: sessions of 1 or 2 requests on
    one task, each followed by a switch to another task."""
    task = int(rng.integers(tasks))
    while True:
        for _ in range(int(rng.integers(1, 3))):
            yield task, int(rng.integers(images))
        task = (task + int(rng.integers(1, tasks))) % tasks


class Served(NamedTuple):
    task: int
    image: int
    logits: np.ndarray
    seconds: float
    switch_s: Optional[float]  # None when the task was already loaded


class Server:
    """Serves requests from one model, loading task checkpoints on demand."""

    def __init__(self, model, work):
        self.model, self.work, self.task = model, work, None

    def switch(self, task):
        checkpoint.load_task_params(
            self.model, checkpoint.load_checkpoint(self.work / f"task{task}.ckpt"))
        self.task = task

    def request(self, task, image):
        """Returns (logits, switch seconds or None)."""
        switch_s = None
        if task != self.task:
            start = time.perf_counter()
            self.switch(task)
            switch_s = time.perf_counter() - start
        return training.predict(self.model, image), switch_s


def serve(seed, seconds, trace, work):
    spec = shapes.SERVE
    build_fixtures("serve", seed, work)
    rng = np.random.default_rng([seed, 1])
    cfg = spec.vit
    images = rng.random((spec.images, cfg.image_h, cfg.image_w, cfg.channels), dtype=np.float32)
    plan = request_plan(rng, spec.tasks, spec.images)
    result = Result(tracer=spans.Tracer() if trace else None)
    tracer = result.tracer
    served = []

    with spans.Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        setup_s = []
        server = None
        for _ in range(spec.setup_reps):
            server = None  # free the previous model before building the next
            start = time.perf_counter()
            server = Server(serve_setup(spec, work), work)
            setup_s.append(time.perf_counter() - start)

        deadline = None
        while deadline is None or time.perf_counter() < deadline:
            index = len(served)
            if tracer is not None:
                tracer.track_memory(index == 0)
                tracer.op = index
            if index == 1:
                deadline = time.perf_counter() + seconds
            task, image = next(plan)
            result.ops_attempted += 1
            start = time.perf_counter()
            try:
                logits, switch_s = server.request(task, images[image:image + 1])
            except Exception as exc:  # noqa: BLE001 - reported, counted, run ends
                result.fail_op(f"request {index}", exc)
                break
            served.append(Served(task, image, logits, time.perf_counter() - start, switch_s))
        if tracer is not None:
            tracer.track_memory(False)
            tracer.op = None

    timed = served[1:]
    request_ms = [s.seconds * 1e3 for s in timed]
    switch_ms = [s.switch_s * 1e3 for s in timed if s.switch_s is not None]
    result.metrics = {
        "setup_s": median(setup_s),
        "throughput_per_s": len(timed) / sum(s.seconds for s in timed) if timed else 0.0,
        "latency_ms.p50": median(request_ms),
        "latency_ms.tail": tail(request_ms),
    }
    result.unbounded = {"task_switch_ms.p50": (median(switch_ms), "ms")}
    result.samples = {"setup_s": len(setup_s), "throughput_per_s": len(timed),
                      "latency_ms.p50": len(request_ms), "latency_ms.tail": len(request_ms),
                      "task_switch_ms.p50": len(switch_ms)}

    server = None
    untraced_ms = check_served_logits(result, spec, work, images, served)
    if tracer is not None:
        steady = [s.seconds * 1e3 for s in timed if s.switch_s is None]
        add_layer_metrics(result, range(1, len(served)), range(1), median(steady), untraced_ms,
                          LAYERS["serve"])
    result.metrics["peak_rss_mib"] = peak_rss_mib()
    result.samples["peak_rss_mib"] = 1
    return result


def check_served_logits(result, spec, work, images, served):
    """Every served logit is finite, repeats of a request agree, and each
    equals the logits of a freshly built backbone + task-checkpoint model.
    Returns the fresh model's predict times, which run untraced."""
    result.check("served logits are finite",
                 served and all(np.isfinite(s.logits).all() for s in served))
    first = {}
    for s in served:
        first.setdefault((s.task, s.image), s.logits)
    result.check("repeated requests give bitwise-equal logits",
                 all(np.array_equal(first[(s.task, s.image)], s.logits) for s in served))
    fresh = Server(serve_setup(spec, work), work)
    predict_ms, mismatched = [], []
    for task, image in sorted(first):
        fresh.switch(task)
        start = time.perf_counter()
        logits = training.predict(fresh.model, images[image:image + 1])
        predict_ms.append((time.perf_counter() - start) * 1e3)
        if not np.array_equal(logits, first[(task, image)]):
            mismatched.append((task, image))
    result.check("served logits equal a fresh backbone + task-checkpoint model's",
                 not mismatched, mismatched)
    return predict_ms
