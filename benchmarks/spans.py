"""Tracing from outside the package.

The wrappers replace module and class attributes that dvpt looks up at
call time (``vit.attention_residual``, ``Model.forward``,
``training.Tape`` ...), so they see the real call path while ``src/``
stays unchanged.  Spans stay in memory and are written out when the run
ends.
"""

import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from dvpt import checkpoint, data, model, peft, tensor, training, vit

# Span name -> forward scope.  Tape nodes recorded while a scope's span is
# the innermost open one belong to that scope; ``model.assembly`` is what
# Model.forward does outside every layer function, ``training.loss`` what
# batch_loss does outside Model.forward.
FORWARD_SCOPES = {
    "vit.patch_embed": "vit.patch_embed",
    "vit.attn": "vit.attn",
    "vit.ffn": "vit.ffn",
    "vit.head": "vit.head",
    "peft.prompts": "peft.prompts",
    "peft.adapter": "peft.adapter",
    "peft.cavpt": "peft.cavpt",
    "model.forward": "model.assembly",
    "training.loss": "training.loss",
}
SCOPES = tuple(FORWARD_SCOPES.values())

# Spans measured per call rather than per step or request.
CALL_SPANS = {
    "model.init": "model.init_ms",
    "training.evaluate": "training.evaluate_ms",
    "training.predict": "training.predict_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "checkpoint.apply": "checkpoint.apply_ms",
    "data.load": "data.load_ms",
}

# Absolute slack, in seconds, for sums of self times that must equal
# their parent span: only float rounding separates them.
SUM_TOLERANCE_S = 1e-9

_MIB = float(1 << 20)


class Patches:
    """Replaces attributes and restores the originals on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


class StepClock:
    """Times each training step from ``batch_loss`` entry to ``adam_step``
    exit, i.e. forward, backward and Adam.  Also tells the tracer, if any,
    which step is running."""

    def __init__(self, tracer=None):
        self.steps = []  # [start, end]; end stays None if the step failed
        self._tracer = tracer

    def install(self, patches):
        batch_loss, adam_step = training.batch_loss, training.adam_step

        def clocked_batch_loss(*args, **kwargs):
            if self._tracer is not None:
                self._tracer.op = len(self.steps)
            self.steps.append([time.perf_counter(), None])
            return batch_loss(*args, **kwargs)

        def clocked_adam_step(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            self.steps[-1][1] = time.perf_counter()
            if self._tracer is not None:
                self._tracer.op = None
            return result

        patches.set(training, "batch_loss", clocked_batch_loss)
        patches.set(training, "adam_step", clocked_adam_step)

    def finished(self, first=0):
        return sum(1 for _, end in self.steps[first:] if end is not None)

    def durations_ms(self, first=0):
        return [(end - start) * 1e3 for start, end in self.steps[first:] if end is not None]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, None
        self.parent, self.op, self.info = parent, op, {}

    @property
    def seconds(self):
        return self.end - self.start


class NodeRecord:
    """One tape node: its scope, backward time and the gradients it made."""

    __slots__ = ("op", "scope", "bwd_s", "computed", "useful", "nbytes")

    def __init__(self, op, scope):
        self.op, self.scope = op, scope
        self.bwd_s = 0.0
        self.computed = self.useful = self.nbytes = 0


def _path_bytes(path, *_args, **_kwargs):
    return {"bytes": os.path.getsize(path)}


def _tape_nodes(_loss, tape, *_args, **_kwargs):
    return {"nodes": len(tape)}


def _adam_scalars(trainable, *_args, **_kwargs):
    return {"scalars": sum(param.size for _, param in trainable)}


class Tracer:
    """Spans at each layer boundary plus per-node backward records.

    ``op`` is the id of the running step or request (None outside one);
    every span and node records it.  With ``memory`` on, forward and
    backward spans also record their tracemalloc peak above the memory in
    use when they began.
    """

    def __init__(self):
        self.spans = []
        self.nodes = []
        self.op = None
        self.memory = False
        self._open = []

    # -- recording ---------------------------------------------------------

    def track_memory(self, on):
        """Turn tracemalloc peaks on forward and backward spans on or off.
        tracemalloc slows every allocation, so it runs only while on."""
        self.memory = on
        if on and not tracemalloc.is_tracing():
            tracemalloc.start()
        elif not on and tracemalloc.is_tracing():
            tracemalloc.stop()

    def wrap(self, fn, name, measure=None):
        track_memory = name in ("model.forward", "tensor.backward")

        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            memory = track_memory and self.memory
            if memory:
                in_use = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if memory:
                span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1] - in_use
            if measure is not None:
                span.info.update(measure(*args, **kwargs))
            return result

        return traced

    def scope(self):
        if self._open:
            return FORWARD_SCOPES.get(self.spans[self._open[-1]].name, "other")
        return "other"

    def tape_class(self):
        tracer = self

        class TracingTape(tensor.Tape):
            """Tags each node with the forward scope open when it was
            recorded, and times its backward function."""

            def record(self, inputs, output, backward_fn):
                node = NodeRecord(tracer.op, tracer.scope())
                tracer.nodes.append(node)

                def timed_backward(out_grad):
                    start = time.perf_counter()
                    grads = backward_fn(out_grad)
                    node.bwd_s += time.perf_counter() - start
                    for source, grad in zip(inputs, grads):
                        if grad is not None:
                            node.computed += 1
                            node.nbytes += grad.nbytes
                            node.useful += bool(source.requires_grad)
                    return grads

                super().record(inputs, output, timed_backward)

        return TracingTape

    def install(self, patches):
        targets = (
            (vit, "patch_embed", "vit.patch_embed", None),
            (vit, "attention_residual", "vit.attn", None),
            (vit, "ffn_residual", "vit.ffn", None),
            (vit, "classification_head", "vit.head", None),
            (peft, "append_prompts", "peft.prompts", None),
            (peft, "adapter_branch", "peft.adapter", None),
            (peft, "cavpt", "peft.cavpt", None),
            (model.Model, "__init__", "model.init", None),
            (model.Model, "forward", "model.forward", None),
            (training, "batch_loss", "training.loss", None),
            # training imported backward by name, so both bindings are wrapped.
            (tensor, "backward", "tensor.backward", _tape_nodes),
            (training, "backward", "tensor.backward", _tape_nodes),
            (training, "adam_step", "training.adam", _adam_scalars),
            (training, "evaluate", "training.evaluate", None),
            (training, "predict", "training.predict", None),
            (checkpoint, "save_checkpoint", "checkpoint.save", _path_bytes),
            (checkpoint, "load_checkpoint", "checkpoint.load", _path_bytes),
            (checkpoint, "load_backbone", "checkpoint.apply", None),
            (checkpoint, "load_task_params", "checkpoint.apply", None),
            (data, "load_dataset", "data.load", None),
            (data, "save_dataset", "data.save", _path_bytes),
        )
        for owner, attr, name, measure in targets:
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name, measure))
        patches.set(training, "Tape", self.tape_class())

    # -- analysis ----------------------------------------------------------

    def _per_op(self):
        """op id -> summed quantities of that step or request."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.seconds
        ops = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            if span.op is None:
                continue
            totals = ops[span.op]
            scope = FORWARD_SCOPES.get(span.name)
            if scope is not None:
                totals[f"{scope}.fwd_s"] += span.seconds - child_s[index]
            if span.name == "model.forward":
                totals["forward_s"] += span.seconds
            elif span.name == "tensor.backward":
                totals["backward_s"] += span.seconds
                totals["tape_nodes"] += span.info["nodes"]
            elif span.name == "training.adam":
                totals["adam_s"] += span.seconds
                totals["adam_scalars"] += span.info["scalars"]
            if "peak_bytes" in span.info:
                key = "forward_peak" if span.name == "model.forward" else "backward_peak"
                totals[key] = max(totals[key], span.info["peak_bytes"])
            totals["min_self_s"] = min(totals["min_self_s"], span.seconds - child_s[index])
        for node in self.nodes:
            if node.op is None:
                continue
            totals = ops[node.op]
            totals[f"{node.scope}.nodes"] += 1
            totals[f"{node.scope}.bwd_s"] += node.bwd_s
            totals["backward_fn_s"] += node.bwd_s
            totals["grads_computed"] += node.computed
            totals["grads_useful"] += node.useful
            totals["grad_bytes"] += node.nbytes
        return ops

    def layer_metrics(self, timed_ops, memory_ops):
        """Per-layer metrics: medians per step or request over ``timed_ops``,
        memory peaks over ``memory_ops``, call timings over all calls."""
        per_op = self._per_op()

        def median(key, ops, scale=1.0):
            values = [per_op[op][key] for op in ops if op in per_op]
            return statistics.median(values) * scale if values else 0.0

        for op in timed_ops:
            totals = per_op[op]
            totals["backward_loop_s"] = totals["backward_s"] - totals["backward_fn_s"]
            computed = totals["grads_computed"]
            totals["grad_useful_ratio"] = totals["grads_useful"] / computed if computed else 0.0

        metrics = {
            "tensor.tape_nodes": median("tape_nodes", timed_ops),
            "tensor.backward_ms": median("backward_s", timed_ops, 1e3),
            "tensor.backward_fn_ms": median("backward_fn_s", timed_ops, 1e3),
            "tensor.backward_loop_ms": median("backward_loop_s", timed_ops, 1e3),
            "tensor.grad_useful_ratio": median("grad_useful_ratio", timed_ops),
            "tensor.grads_computed": median("grads_computed", timed_ops),
            "tensor.grad_bytes": median("grad_bytes", timed_ops),
            "tensor.forward_peak_mib": median("forward_peak", memory_ops, 1 / _MIB),
            "tensor.backward_peak_mib": median("backward_peak", memory_ops, 1 / _MIB),
            "model.forward_ms": median("forward_s", timed_ops, 1e3),
            "training.adam_ms": median("adam_s", timed_ops, 1e3),
            "training.adam_scalars": median("adam_scalars", timed_ops),
        }
        for scope in SCOPES:
            metrics[f"{scope}.fwd_ms"] = median(f"{scope}.fwd_s", timed_ops, 1e3)
            metrics[f"{scope}.bwd_ms"] = median(f"{scope}.bwd_s", timed_ops, 1e3)
            metrics[f"{scope}.nodes"] = median(f"{scope}.nodes", timed_ops)

        calls = defaultdict(list)
        for span in self.spans:
            calls[span.name].append(span)
        for name, metric in CALL_SPANS.items():
            found = calls.get(name, [])
            metrics[metric] = statistics.median(s.seconds for s in found) * 1e3 if found else 0.0
        for name, metric in (("checkpoint.save", "checkpoint.save_bytes"),
                             ("checkpoint.load", "checkpoint.load_bytes")):
            found = calls.get(name, [])
            metrics[metric] = statistics.median(s.info["bytes"] for s in found) if found else 0.0
        return metrics

    def consistency(self, timed_ops, layers):
        """(check name, problems found) pairs: the scopes must add up in
        every op of ``timed_ops``; an empty list means the check passed.

        ``layers`` maps each scope the workload runs to whether it must
        also record tape nodes.  A listed scope must show forward time, an
        unlisted one must show nothing, and an op without backward must
        record no tape node.  A layer whose wrapper stopped being called
        would move its time and nodes to ``model.assembly`` and fail here.
        """
        per_op = self._per_op()
        problems = {"nodes": [], "forward": [], "backward": [], "nesting": [], "layers": []}
        for op in timed_ops:
            totals = per_op.get(op)
            if totals is None:
                problems["nesting"].append(f"op {op}: no spans")
                continue
            for scope in SCOPES:
                fwd, nodes = totals[f"{scope}.fwd_s"], totals[f"{scope}.nodes"]
                if scope in layers:
                    ok = fwd > 0 and (nodes > 0 or not layers[scope])
                else:
                    ok = fwd == 0 and nodes == 0
                if not ok or (nodes and "backward_s" not in totals):
                    problems["layers"].append(f"op {op}: {scope} {fwd} s forward, {nodes} nodes")
            if "backward_s" in totals:
                scoped = sum(totals[f"{scope}.nodes"] for scope in SCOPES)
                if scoped != totals["tape_nodes"]:
                    problems["nodes"].append(f"op {op}: {scoped} != {totals['tape_nodes']}")
                if not 0.0 < totals["backward_fn_s"] <= totals["backward_s"]:
                    problems["backward"].append(
                        f"op {op}: fn {totals['backward_fn_s']} vs {totals['backward_s']}")
            forward = sum(totals[f"{scope}.fwd_s"] for scope in SCOPES if scope != "training.loss")
            if abs(forward - totals["forward_s"]) > SUM_TOLERANCE_S:
                problems["forward"].append(f"op {op}: {forward} != {totals['forward_s']}")
            if totals["min_self_s"] < -SUM_TOLERANCE_S:
                problems["nesting"].append(f"op {op}: negative self time")
        return [
            ("trace: scope node counts sum to tensor.tape_nodes", problems["nodes"]),
            ("trace: scope forward self times sum to model.forward_ms", problems["forward"]),
            ("trace: scope backward times sum within tensor.backward_ms", problems["backward"]),
            ("trace: spans nest with non-negative self time", problems["nesting"]),
            ("trace: each layer that runs shows forward time, and tape nodes where "
             "it trains; no other layer shows any", problems["layers"]),
        ]

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "op": span.op, "parent": span.parent,
                    "start_s": span.start - origin, "end_s": span.end - origin,
                    **span.info,
                }) + "\n")
