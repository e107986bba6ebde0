"""Unit tests for the scheduler registry."""

import pytest

from repro.scheduling import (
    canonical_scheduler_name,
    FPSOfflineScheduler,
    GAConfig,
    GAScheduler,
    GPIOCPScheduler,
    HeuristicScheduler,
    available_schedulers,
    create_scheduler,
    get_scheduler_factory,
    list_schedulers,
    register_scheduler,
    scheduler_registered,
    unregister_scheduler,
)


class TestBuiltinRegistrations:
    def test_all_paper_methods_are_registered(self):
        for name in ("fps-offline", "fps", "gpiocp", "static", "heuristic", "ga"):
            assert scheduler_registered(name)

    def test_create_returns_fresh_instances(self):
        first = create_scheduler("static")
        second = create_scheduler("static")
        assert isinstance(first, HeuristicScheduler)
        assert first is not second

    def test_create_by_canonical_name_and_alias(self):
        assert isinstance(create_scheduler("fps-offline"), FPSOfflineScheduler)
        assert isinstance(create_scheduler("fps"), FPSOfflineScheduler)
        assert isinstance(create_scheduler("gpiocp"), GPIOCPScheduler)

    def test_aliases_resolve_to_their_registered_name(self):
        assert canonical_scheduler_name("fps") == "fps-offline"
        assert canonical_scheduler_name("heuristic") == "static"
        assert canonical_scheduler_name("gpiocp") == "gpiocp"
        assert canonical_scheduler_name("no-such-method") == "no-such-method"

    def test_ga_config_is_forwarded(self):
        config = GAConfig(population_size=5, generations=2, seed=7)
        scheduler = create_scheduler("ga", config)
        assert isinstance(scheduler, GAScheduler)
        assert scheduler.config is config

    def test_available_contains_builtins_and_is_sorted(self):
        names = available_schedulers()
        assert list(names) == sorted(names)
        assert {"fps-offline", "gpiocp", "static", "ga"} <= set(names)

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="no-such-method"):
            create_scheduler("no-such-method")
        with pytest.raises(KeyError, match="gpiocp"):
            get_scheduler_factory("no-such-method")


class TestKeywordOverrides:
    def test_overrides_are_forwarded_to_the_factory(self):
        scheduler = create_scheduler("ga", generations=3, population_size=8, seed=1)
        assert scheduler.config.generations == 3
        assert scheduler.config.population_size == 8
        assert scheduler.config.seed == 1

    def test_overrides_compose_with_a_positional_config(self):
        base = GAConfig(population_size=5, generations=2, seed=7)
        scheduler = create_scheduler("ga", base, generations=9)
        assert scheduler.config.generations == 9
        assert scheduler.config.population_size == 5
        assert scheduler.config.seed == 7

    def test_plain_keyword_parameters_work_too(self):
        scheduler = create_scheduler("static", prefer_ideal_placement=True)
        assert scheduler.allocator.prefer_ideal_placement is True

    def test_rejected_keyword_names_the_factory(self):
        with pytest.raises(TypeError, match="GPIOCPScheduler"):
            create_scheduler("gpiocp", bogus=1)
        with pytest.raises(TypeError, match="'gpiocp'"):
            create_scheduler("gpiocp", bogus=1)

    def test_rejected_config_field_names_the_factory_and_lists_fields(self):
        with pytest.raises(TypeError, match="GAScheduler"):
            create_scheduler("ga", nonsense=2)
        with pytest.raises(TypeError, match="population_size"):
            create_scheduler("ga", nonsense=2)

    def test_factory_internal_type_errors_are_not_masked_without_overrides(self):
        def exploding():
            raise TypeError("internal failure")

        register_scheduler("test-exploding", exploding)
        try:
            with pytest.raises(TypeError, match="internal failure"):
                create_scheduler("test-exploding")
        finally:
            unregister_scheduler("test-exploding")


class TestRegistration:
    def test_register_decorator_and_unregister(self):
        @register_scheduler("test-dummy")
        class Dummy:
            def __init__(self):
                self.created = True

        try:
            assert scheduler_registered("test-dummy")
            assert create_scheduler("test-dummy").created
        finally:
            unregister_scheduler("test-dummy")
        assert not scheduler_registered("test-dummy")

    def test_register_direct_call_with_aliases(self):
        factory = lambda: "made"  # noqa: E731
        register_scheduler("test-direct", factory, aliases=("test-direct-alias",))
        try:
            assert create_scheduler("test-direct") == "made"
            assert create_scheduler("test-direct-alias") == "made"
        finally:
            unregister_scheduler("test-direct")
            unregister_scheduler("test-direct-alias")

    def test_duplicate_registration_rejected(self):
        register_scheduler("test-dup", lambda: 1)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("test-dup", lambda: 2)
            # Re-registering the *same* factory is a no-op, not an error.
            factory = get_scheduler_factory("test-dup")
            register_scheduler("test-dup", factory)
        finally:
            unregister_scheduler("test-dup")

    def test_overwrite_replaces_factory(self):
        register_scheduler("test-overwrite", lambda: "old")
        try:
            register_scheduler("test-overwrite", lambda: "new", overwrite=True)
            assert create_scheduler("test-overwrite") == "new"
        finally:
            unregister_scheduler("test-overwrite")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_scheduler("never-registered")

    def test_conflicting_alias_leaves_no_partial_registration(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("test-partial", lambda: 1, aliases=("fps",))
        assert not scheduler_registered("test-partial")


class TestListSchedulers:
    def test_covers_every_registered_name(self):
        listing = list_schedulers()
        assert set(listing) == set(available_schedulers())

    def test_aliases_point_at_the_same_factory(self):
        listing = list_schedulers()
        assert listing["fps"] == listing["fps-offline"]
        assert listing["heuristic"] == listing["static"]
        assert "HeuristicScheduler" in listing["static"]

    def test_reflects_dynamic_registrations(self):
        register_scheduler("test-listed", lambda: 1)
        try:
            assert "test-listed" in list_schedulers()
        finally:
            unregister_scheduler("test-listed")
        assert "test-listed" not in list_schedulers()
