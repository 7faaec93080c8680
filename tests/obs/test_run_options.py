"""RunOptions: coercion, legacy-keyword shims and facade integration."""

from __future__ import annotations

import warnings

import pytest

from repro import api
from repro.options import UNSET, RunOptions, coerce_options, merge_legacy
from repro.serve.config import ServeConfig

pytestmark = pytest.mark.obs


class TestCoercion:
    def test_none_gives_defaults(self):
        opts = RunOptions.coerce(None)
        assert opts == RunOptions()
        assert opts.use_cache is True and opts.workers == 1

    def test_instance_passes_through(self):
        opts = RunOptions(resume=True)
        assert RunOptions.coerce(opts) is opts

    def test_dict_builds_options(self):
        opts = RunOptions.coerce({"resume": True, "workers": 3})
        assert opts.resume is True and opts.workers == 3

    def test_unknown_dict_key_gets_did_you_mean(self):
        with pytest.raises(TypeError, match=r"did you mean 'workers'"):
            RunOptions.coerce({"worker": 2})

    def test_unknown_dict_key_lists_known_options(self):
        with pytest.raises(TypeError, match="known options"):
            RunOptions.coerce({"definitely_not_a_knob": 1})

    def test_removed_fast_option_refused(self):
        # A removed option must be refused, not silently accepted.
        with pytest.raises(TypeError, match="unknown option 'fast'"):
            RunOptions.coerce({"fast": True})

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="must be a RunOptions"):
            RunOptions.coerce(["resume"])

    def test_coerce_options_alias(self):
        assert coerce_options({"resume": True}).resume is True

    def test_workers_validated_on_construction(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            RunOptions(workers=0)
        with pytest.raises(TypeError, match="positive integer"):
            RunOptions(workers=2.5)


class TestWith:
    def test_with_replaces_and_keeps_rest(self):
        opts = RunOptions(resume=True)
        other = opts.with_(workers=4)
        assert other.workers == 4 and other.resume is True
        assert opts.workers == 1  # frozen original untouched

    def test_with_unknown_field_errors(self):
        with pytest.raises(TypeError, match=r"did you mean 'faults'"):
            RunOptions().with_(fauts=True)


class TestMergeLegacy:
    def test_unset_knobs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = merge_legacy(None, "caller", obs=UNSET, resume=UNSET)
        assert opts == RunOptions()

    def test_passed_knob_warns_and_applies(self):
        with pytest.warns(DeprecationWarning, match="resume= keyword"):
            opts = merge_legacy(None, "repro.api.run", resume=True)
        assert opts.resume is True

    def test_conflict_with_options_raises(self):
        with pytest.raises(ValueError, match="set it once, on options"):
            merge_legacy(RunOptions(resume=True), "caller", resume=False)

    def test_legacy_knob_alongside_other_options_fields_is_fine(self):
        with pytest.warns(DeprecationWarning):
            opts = merge_legacy(
                RunOptions(workers=2), "caller", resume=True
            )
        assert opts.resume is True and opts.workers == 2


class TestApiIntegration:
    def test_run_accepts_options(self):
        res = api.run("fig4_6", options=RunOptions(use_cache=False))
        assert res.run_options is not None
        assert res.run_options.use_cache is False
        assert res.value.ident == "fig4_6"

    def test_run_accepts_options_dict(self):
        res = api.run("fig4_6", options={"use_cache": False})
        assert res.run_options.use_cache is False


class TestServeConfigFromOptions:
    def test_maps_shared_knobs(self):
        cfg = ServeConfig.from_options(
            RunOptions(cache_dir="/tmp/c",
                       results_db="/tmp/r.sqlite", workers=3)
        )
        assert cfg.cache_dir == "/tmp/c"
        assert cfg.results_db == "/tmp/r.sqlite"
        assert cfg.pool_workers == 3

    def test_overrides_beat_mapped_fields(self):
        cfg = ServeConfig.from_options(
            RunOptions(workers=3), pool_workers=8, queue_limit=2
        )
        assert cfg.pool_workers == 8
        assert cfg.queue_limit == 2
