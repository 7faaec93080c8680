"""RunOptions: coercion, removed keyword spellings and facade integration."""

from __future__ import annotations

import pytest

from repro import api
from repro.options import RunOptions, coerce_options
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


class TestRemovedKeywords:
    """The per-knob keywords are gone: ``options=`` is the one spelling.
    A ``RunOptions`` field passed as a runner keyword must not reach the
    runner raw (``guard=True`` would skip guard resolution)."""

    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda: api.run("fig4_6", obs=True), "obs",
                     id="run-obs"),
        pytest.param(lambda: api.run("guard", guard=True), "guard",
                     id="run-guard"),
        pytest.param(lambda: api.run("fig4_6", faults=None), "faults",
                     id="run-faults"),
        pytest.param(lambda: api.profile("fig4_6", obs=True), "obs",
                     id="profile-obs"),
        pytest.param(lambda: api.profile("fig4_6", guard="halt"), "guard",
                     id="profile-guard"),
        pytest.param(lambda: api.profile("fig4_6", faults=None), "faults",
                     id="profile-faults"),
        pytest.param(lambda: api.run("fig4_6", results_db="x.db"),
                     "results_db", id="run-results_db"),
    ])
    def test_run_and_profile_name_the_options_spelling(self, call, name):
        with pytest.raises(TypeError,
                           match=rf"options=RunOptions\({name}=\.\.\.\)"):
            call()

    @pytest.mark.parametrize("name, value", [
        ("workers", 2), ("cache_dir", "c"), ("resume", True),
        ("obs", True), ("use_cache", False), ("results_db", "x.db"),
        ("fleet", "listen"), ("max_attempts", 2),
    ])
    def test_run_campaign_keywords_refused(self, name, value):
        with pytest.raises(TypeError, match=name):
            api.run_campaign(["sleep:0#x"], **{name: value})


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
