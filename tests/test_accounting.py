import numpy as np
import pytest

from dvpt import accounting
from dvpt.accounting import (REFERENCE_TOTALS_VITB16, closed_form, format_report,
                             report_from_config, report_key_values)
from dvpt.model import model_for_policy
from dvpt.peft import POLICIES, DvptConfig
from dvpt.vit import ConfigError


class TestClosedForm:
    def test_vitb16_values(self):
        assert closed_form(50, 20, 768, 12, 1) == 379_096
        assert closed_form(50, 20, 768, 12, 2) == 190_048

    def test_single_shared_block_no_prompts_term(self):
        d, dp = 64, 8
        # m prompts contribute m*d'; with share_every == depth one block remains
        assert closed_form(1, dp, d, 6, 6) - 1 * dp == 2 * d * dp + d + dp

    def test_monotonicity(self):
        base = closed_form(10, 4, 32, 8, 2)
        assert closed_form(11, 4, 32, 8, 2) > base
        assert closed_form(10, 5, 32, 8, 2) > base
        assert closed_form(10, 4, 33, 8, 2) > base
        assert closed_form(10, 4, 32, 9, 2) > base
        assert closed_form(10, 4, 32, 8, 4) <= base

    def test_validation(self):
        with pytest.raises(ConfigError):
            closed_form(0, 4, 32, 8, 2)
        with pytest.raises(ConfigError):
            closed_form(10, 4, 32, 8, 9)

    def test_reference_constants_recorded(self):
        assert REFERENCE_TOTALS_VITB16 == {1: 457_446, 2: 268_414}


class TestEnumeration:
    def test_linear_probe_desk(self, desk_cfg):
        report = report_from_config(desk_cfg, None, "linear_probe")
        assert report.trainable == 32 * 5 + 5 == 165

    def test_dvpt_paper_scale(self, paper_cfg):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, 1, 0.0), "dvpt")
        assert report.trainable == 420_353
        report2 = report_from_config(paper_cfg, DvptConfig(50, 20, 2, 0.0), "dvpt")
        assert report2.trainable == 231_299

    def test_vpt_only_paper_scale(self, paper_cfg):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, 1, 0.0), "vpt_only")
        assert report.trainable == 38_400 + 3_845

    def test_full_finetune_fraction_one(self, desk_cfg):
        report = report_from_config(desk_cfg, None, "full_finetune")
        assert report.trainable_fraction == 1.0 and report.frozen == 0

    def test_rows_sum_to_totals(self, paper_cfg):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, 2, 0.0), "dvpt")
        assert sum(r.count for r in report.rows) == report.total
        assert sum(r.count for r in report.rows if r.trainable) == report.trainable
        assert report.trainable + report.frozen == report.total

    def test_matches_model_enumeration(self, desk_cfg, desk_dvpt):
        for mode in POLICIES:
            model, _ = model_for_policy(desk_cfg, desk_dvpt, mode)
            report = report_from_config(desk_cfg, desk_dvpt, mode)
            assert [(r.name, r.shape) for r in report.rows] == sorted(
                (name, t.shape) for name, t in model.params.items()), mode

    def test_consistent_with_optimizer_view(self, desk_cfg, desk_dvpt):
        for mode in POLICIES:
            model, _ = model_for_policy(desk_cfg, desk_dvpt, mode)
            report = report_from_config(desk_cfg, desk_dvpt, mode)
            assert [r.name for r in report.rows if r.trainable] == sorted(
                name for name, _ in model.trainable()), mode


class TestDiscrepancy:
    @pytest.mark.parametrize("share_every,expected", [(1, 420_353), (2, 231_299)])
    def test_decomposition_sums_exactly(self, paper_cfg, share_every, expected):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, share_every, 0.0), "dvpt")
        assert report.trainable == expected
        assert sum(report.discrepancy_terms.values()) == report.discrepancy

    def test_decomposition_on_arbitrary_config(self, desk_cfg, desk_dvpt):
        report = report_from_config(desk_cfg, desk_dvpt, "dvpt")
        assert sum(report.discrepancy_terms.values()) == report.discrepancy
        assert list(report.discrepancy_terms) == ["head_layer", "gates", "prompt_width (m*(d-d'))"]

    def test_enumeration_off_closed_form_raises(self, desk_cfg, desk_dvpt, monkeypatch):
        real = accounting.model_mod.param_shapes

        def one_extra_trainable_scalar(*args, **kwargs):
            return {**real(*args, **kwargs), "adapter0.extra": ()}

        monkeypatch.setattr(accounting.model_mod, "param_shapes", one_extra_trainable_scalar)
        with pytest.raises(AssertionError, match="closed form"):
            report_from_config(desk_cfg, desk_dvpt, "dvpt")

    def test_fraction_below_bound(self, paper_cfg):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, 1, 0.0), "dvpt")
        assert report.trainable_fraction < 0.006
        # consistent with the reported ~0.54% within +-0.15 percentage points
        assert abs(report.trainable_fraction - 0.0054) < 0.0015


class TestRendering:
    def test_text_report_mentions_reference(self, paper_cfg):
        report = report_from_config(paper_cfg, DvptConfig(50, 20, 1, 0.0), "dvpt")
        text = format_report(report, reference_total=REFERENCE_TOTALS_VITB16[1])
        assert "457,446" in text and "closed form: 379,096" in text
        assert "420,353" in text

    def test_key_values_parse(self, desk_cfg, desk_dvpt):
        report = report_from_config(desk_cfg, desk_dvpt, "dvpt")
        kv = dict(line.split("=", 1) for line in report_key_values(report).splitlines())
        assert int(kv["trainable"]) == report.trainable
        assert int(kv["closed_form"]) == report.closed_form_value
