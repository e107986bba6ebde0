"""Round-trip and versioning tests for the request/response envelopes."""

import json
import pickle

import pytest

from repro.core.serialization import PayloadVersionError, taskset_to_dict
from repro.service import (
    CACHE_HIT,
    REQUEST_KIND,
    RESPONSE_KIND,
    ScheduleRequest,
    ScheduleResponse,
    SchedulerSpec,
    execute_request,
)
from repro.taskgen import GeneratorConfig, SystemGenerator


@pytest.fixture(scope="module")
def task_set():
    return SystemGenerator(GeneratorConfig(), rng=5).generate(0.4)


@pytest.fixture(scope="module")
def request_(task_set):
    return ScheduleRequest(
        task_set=task_set,
        spec=SchedulerSpec.parse("static"),
        horizon=None,
        request_id="req-1",
    )


class TestScheduleRequest:
    def test_spec_strings_are_coerced(self, task_set):
        request = ScheduleRequest(task_set=task_set, spec="ga:seed=1")
        assert request.spec == SchedulerSpec.parse("ga:seed=1")

    def test_invalid_horizon_is_rejected(self, task_set):
        with pytest.raises(ValueError, match="horizon"):
            ScheduleRequest(task_set=task_set, spec="static", horizon=0)

    def test_json_round_trip(self, request_):
        recovered = ScheduleRequest.from_json(request_.to_json())
        assert recovered.request_id == request_.request_id
        assert recovered.spec == request_.spec
        assert recovered.horizon == request_.horizon
        assert taskset_to_dict(recovered.task_set) == taskset_to_dict(request_.task_set)
        assert recovered.content_key() == request_.content_key()

    def test_payload_is_versioned(self, request_):
        payload = request_.to_dict()
        assert payload["kind"] == REQUEST_KIND
        assert payload["version"] == 1

    def test_newer_request_version_is_refused(self, request_):
        payload = request_.to_dict()
        payload["version"] = 99
        with pytest.raises(PayloadVersionError):
            ScheduleRequest.from_dict(payload)

    def test_content_key_ignores_request_id(self, task_set):
        a = ScheduleRequest(task_set=task_set, spec="static", request_id="a")
        b = ScheduleRequest(task_set=task_set, spec="static", request_id="b")
        assert a.content_key() == b.content_key()

    def test_content_key_depends_on_spec_and_horizon(self, task_set):
        base = ScheduleRequest(task_set=task_set, spec="static")
        other_spec = ScheduleRequest(task_set=task_set, spec="gpiocp")
        other_horizon = ScheduleRequest(
            task_set=task_set, spec="static", horizon=task_set.hyperperiod() * 2
        )
        assert base.content_key() != other_spec.content_key()
        assert base.content_key() != other_horizon.content_key()

    def test_request_is_picklable(self, request_):
        clone = pickle.loads(pickle.dumps(request_))
        assert clone.content_key() == request_.content_key()

    def test_aliases_are_one_question(self, task_set):
        alias = ScheduleRequest(task_set=task_set, spec="fps")
        method = ScheduleRequest(task_set=task_set, spec="fps-offline")
        assert alias.spec == SchedulerSpec("fps-offline")
        assert alias.content_key() == method.content_key()

    def test_summary_is_its_own_question(self, task_set, request_):
        summary = ScheduleRequest(task_set=task_set, spec="static", summary=True)
        assert summary.content_key() != request_.content_key()
        payload = summary.to_dict()
        assert payload["version"] == 3 and payload["data"]["summary"] is True
        assert ScheduleRequest.from_dict(payload).content_key() == summary.content_key()
        assert "summary" not in request_.to_dict()["data"]

    def test_summary_response_has_the_figures_without_devices(self, task_set, request_):
        full = execute_request(request_)
        summary = execute_request(
            ScheduleRequest(task_set=task_set, spec="static", summary=True)
        )
        assert full.per_device and summary.per_device == {}
        for field in ("spec", "horizon", "schedulable", "psi", "upsilon", "best_psi", "best_upsilon"):
            assert getattr(summary, field) == getattr(full, field)


class TestScheduleResponse:
    def test_json_round_trip_preserves_everything(self, request_):
        response = execute_request(request_)
        recovered = ScheduleResponse.from_json(response.to_json())
        assert recovered == response

    def test_payload_is_versioned(self, request_):
        payload = execute_request(request_).to_dict()
        assert payload["kind"] == RESPONSE_KIND
        assert payload["version"] == 1
        assert json.loads(json.dumps(payload)) == payload

    def test_newer_response_version_is_refused(self, request_):
        payload = execute_request(request_).to_dict()
        payload["version"] = 99
        with pytest.raises(PayloadVersionError):
            ScheduleResponse.from_dict(payload)

    def test_result_dict_excludes_provenance(self, request_):
        response = execute_request(request_)
        result = response.result_dict()
        assert "cache" not in result
        assert "elapsed_s" not in result
        rebuilt = ScheduleResponse.from_result_dict(
            result, request_id="other", cache=CACHE_HIT, cache_key="k"
        )
        assert rebuilt.result_dict() == result
        assert rebuilt.cache == CACHE_HIT

    def test_device_schedules_match_direct_scheduling(self, request_, task_set):
        response = execute_request(request_)
        direct = SchedulerSpec.parse("static").resolve().schedule_taskset(task_set)
        rebuilt = response.device_schedules(task_set)
        assert set(rebuilt) == {
            device
            for device, result in direct.per_device.items()
            if result.schedule is not None
        }
        for device, schedule in rebuilt.items():
            expected = direct.per_device[device].schedule
            assert [(e.job.name, e.start) for e in schedule.sorted_entries()] == [
                (e.job.name, e.start) for e in expected.sorted_entries()
            ]

    def test_response_is_picklable(self, request_):
        response = execute_request(request_)
        assert pickle.loads(pickle.dumps(response)) == response
