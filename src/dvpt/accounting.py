"""Trainable-parameter accounting.

Enumerating the ``model.param_shapes`` table that a model is built from
is the ground truth.  The closed form

    m * d' + ceil(L / s) * (2 * d * d' + d + d')

is a cross-check; for the standard ViT-B/16 adapter configuration it does
not match either the enumeration or the externally reported totals, so the
report carries an explicit term-by-term decomposition of the gap instead
of forcing agreement.
"""

import math
from dataclasses import dataclass, field

from . import model as model_mod
from .peft import ADAPTERS, FreezePolicy
from .vit import ConfigError, check_integers

# Reported totals for the ViT-B/16 configuration (m=50, d'=20, d=768,
# L=12), kept as reference constants for side-by-side comparison.
REFERENCE_TOTALS_VITB16 = {1: 457_446, 2: 268_414}


def reference_total(cfg, dvpt_cfg):
    """The reported trainable total when (cfg, dvpt_cfg) is the ViT-B/16
    configuration, else None."""
    if dvpt_cfg is None:
        return None
    if (dvpt_cfg.num_prompts, dvpt_cfg.hidden_dim, cfg.embed_dim, cfg.depth) != (50, 20, 768, 12):
        return None
    return REFERENCE_TOTALS_VITB16.get(dvpt_cfg.share_every)


def closed_form(m, d_prime, d, depth, share_every):
    """Closed-form trainable-parameter count for the adapter scheme."""
    check_integers(dict(m=m, d_prime=d_prime, d=d, depth=depth, share_every=share_every),
                   ConfigError, low=1)
    if share_every > depth:
        raise ConfigError(f"share_every {share_every} exceeds depth {depth}")
    blocks = -(-depth // share_every)
    return m * d_prime + blocks * (2 * d * d_prime + d + d_prime)


@dataclass
class ParamRow:
    name: str
    shape: tuple
    count: int
    trainable: bool


@dataclass
class ParamReport:
    rows: list = field(default_factory=list)
    trainable: int = 0
    frozen: int = 0
    closed_form_value: int = None
    discrepancy_terms: dict = None

    @property
    def total(self):
        return self.trainable + self.frozen

    @property
    def trainable_fraction(self):
        return self.trainable / self.total

    @property
    def discrepancy(self):
        if self.closed_form_value is None:
            return None
        return self.trainable - self.closed_form_value


def report_from_config(cfg, dvpt_cfg, mode):
    """Report on the shape table of the model variant that freeze policy
    ``mode`` implies, rows sorted by name; no tensor is allocated."""
    policy = FreezePolicy(mode)
    shapes = model_mod.param_shapes(cfg, *policy.model_args(dvpt_cfg))
    report = ParamReport()
    for name in sorted(shapes):
        shape = tuple(shapes[name])
        count = math.prod(shape)
        trainable = policy.is_trainable(name)
        report.rows.append(ParamRow(name, shape, count, trainable))
        if trainable:
            report.trainable += count
        else:
            report.frozen += count
    if policy.variant == ADAPTERS:
        m, dp, d = dvpt_cfg.num_prompts, dvpt_cfg.hidden_dim, cfg.embed_dim
        report.closed_form_value = closed_form(m, dp, d, cfg.depth, dvpt_cfg.share_every)
        # enumeration - closed form, term by term
        report.discrepancy_terms = {
            "head_layer": d * cfg.num_classes + cfg.num_classes,
            "gates": dvpt_cfg.num_blocks(cfg.depth),
            "prompt_width (m*(d-d'))": m * (d - dp),
        }
        if sum(report.discrepancy_terms.values()) != report.discrepancy:
            raise AssertionError(
                f"enumerated trainable count {report.trainable} != closed form "
                f"{report.closed_form_value} + {report.discrepancy_terms}")
    return report


def format_report(report, reference_total=None):
    """Plain-text table: per-tensor rows, totals, closed form, reference."""
    lines = []
    width = max(len(r.name) for r in report.rows)
    lines.append(f"{'name':<{width}}  {'shape':>16}  {'count':>12}  trainable")
    for r in report.rows:
        lines.append(
            f"{r.name:<{width}}  {str(r.shape):>16}  {r.count:>12,}  {'yes' if r.trainable else 'no'}"
        )
    lines.append("-" * (width + 46))
    lines.append(f"trainable: {report.trainable:,}")
    lines.append(f"frozen:    {report.frozen:,}")
    lines.append(f"total:     {report.total:,}")
    lines.append(f"trainable fraction: {report.trainable_fraction:.6f}")
    if report.closed_form_value is not None:
        lines.append(f"closed form: {report.closed_form_value:,}")
        lines.append(f"enumeration - closed form: {report.discrepancy:,}")
        for term, value in report.discrepancy_terms.items():
            lines.append(f"  {term}: {value:,}")
    if reference_total is not None:
        lines.append(f"reference reported total: {reference_total:,}")
        lines.append(f"reference - enumeration: {reference_total - report.trainable:,}")
    return "\n".join(lines)


def report_key_values(report, reference_total=None):
    """Machine-readable key=value lines for the same report."""
    kv = {
        "trainable": report.trainable,
        "frozen": report.frozen,
        "total": report.total,
        "trainable_fraction": f"{report.trainable_fraction:.8f}",
    }
    if report.closed_form_value is not None:
        kv["closed_form"] = report.closed_form_value
        kv["discrepancy"] = report.discrepancy
        for term, value in report.discrepancy_terms.items():
            kv[f"discrepancy.{term.split(' ')[0]}"] = value
    if reference_total is not None:
        kv["reference_total"] = reference_total
    return "\n".join(f"{k}={v}" for k, v in kv.items())
