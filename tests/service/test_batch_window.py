"""The batch window: in-order streaming delivery with bounded lookahead.

``submit_batch`` streams a batch through a window of requests and hands each
response to ``on_response`` in request order.  None of that may change an
answer: results and provenance equal the all-at-once definition (every
distinct key computed once, its first occurrence the miss, repeats hits) at
any worker count, chunk size and window position.
"""

import weakref

import pytest

from repro.obs.metrics import REQUESTS_TOTAL
from repro.service import (
    CACHE_DISABLED,
    CACHE_HIT,
    CACHE_MISS,
    ScheduleRequest,
    SchedulingService,
    execute_request,
)

SLOW_SPEC = "ga:population_size=24,generations=12"


def fast_requests(n_systems, methods=("static", "gpiocp"), copy=0):
    return [
        ScheduleRequest(
            scenario="short-hyperperiod",
            system_index=index,
            spec=method,
            request_id=f"{index}/{method}/{copy}",
        )
        for index in range(n_systems)
        for method in methods
    ]


def slow_request():
    return ScheduleRequest(scenario="paper-default", system_index=0, spec=SLOW_SPEC)


def repeated_batch():
    """40 requests over 8 distinct keys: every key repeats every 8 positions,
    so duplicates land both inside one window and in later ones."""
    return [request for copy in range(5) for request in fast_requests(4, copy=copy)]


def expected_provenance(requests, cached_keys, cache_enabled):
    """The all-at-once definition of each position's ``cache`` field."""
    seen = set()
    statuses = []
    for request in requests:
        key = request.content_key()
        if not cache_enabled:
            statuses.append(CACHE_DISABLED)
        elif key in cached_keys or key in seen:
            statuses.append(CACHE_HIT)
        else:
            statuses.append(CACHE_MISS)
        seen.add(key)
    return statuses


@pytest.fixture(scope="module")
def expected_results():
    return {
        request.content_key(): execute_request(request).result_dict()
        for request in fast_requests(4)
    }


class TestEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("chunksize", [1, 4, 32])
    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_matches_the_all_at_once_batch(
        self, expected_results, n_workers, chunksize, cache_enabled
    ):
        requests = repeated_batch()
        service_kwargs = {} if cache_enabled else {"cache": None}
        with SchedulingService(
            n_workers=n_workers, chunksize=chunksize, **service_kwargs
        ) as service:
            # Warm two keys first, so cache hits mix with in-batch repeats.
            warmed = fast_requests(1)
            service.submit_batch(warmed)
            cached = {request.content_key() for request in warmed} if cache_enabled else set()
            assert len(requests) > service.core.window

            delivered = []
            responses = service.submit_batch(
                requests, on_response=lambda position, response: delivered.append(
                    (position, response)
                )
            )
            traces = service.last_traces
            counts = {
                status: service.registry.counter_value(
                    REQUESTS_TOTAL, kind="schedule", cache=status
                )
                for status in (CACHE_HIT, CACHE_MISS, CACHE_DISABLED)
            }
            computed = service.computed

        # Every response is delivered exactly once, in request order, as the
        # very object the batch returns.
        assert [position for position, _ in delivered] == list(range(len(requests)))
        assert all(
            response is responses[position] for position, response in delivered
        )
        assert [response.result_dict() for response in responses] == [
            expected_results[request.content_key()] for request in requests
        ]
        statuses = expected_provenance(requests, cached, cache_enabled)
        assert [response.cache for response in responses] == statuses
        assert [response.request_id for response in responses] == [
            request.request_id for request in requests
        ]
        assert [response.cache_key for response in responses] == [
            request.content_key() for request in requests
        ]
        # Each distinct key was computed once (the warm-up computed two).
        assert computed == (8 if cache_enabled else 2 + 8)
        assert len(traces) == len(requests)
        assert all(trace["phases"][0]["phase"] == "cache-lookup" for trace in traces)
        warm_up = 2 if cache_enabled else 0
        for status in (CACHE_HIT, CACHE_MISS):
            assert counts[status] == statuses.count(status) + (
                warm_up if status == CACHE_MISS else 0
            )
        assert counts[CACHE_DISABLED] == statuses.count(CACHE_DISABLED) + (
            0 if cache_enabled else 2
        )

    def test_empty_batch(self):
        with SchedulingService(n_workers=2) as service:
            assert service.submit_batch([], on_response=pytest.fail) == []
            assert service.last_traces == []


class TestOrderAndBound:
    def test_slow_first_request_is_still_delivered_first(self):
        requests = [slow_request()] + fast_requests(12)
        delivered = []
        with SchedulingService(n_workers=2, cache=None) as service:
            responses = service.submit_batch(
                requests, on_response=lambda position, _: delivered.append(position)
            )
        assert delivered == list(range(len(requests)))
        assert responses[0].spec.startswith("ga")

    def test_no_more_than_a_window_is_ever_undelivered(self, monkeypatch):
        requests = [slow_request()] + fast_requests(24)
        counts = {"submitted": 0, "delivered": 0}
        outstanding = []
        with SchedulingService(n_workers=2, cache=None) as service:
            core = service.core
            original = core._chunk_payload

            def counting(chunk, trace_ids, submitted):
                counts["submitted"] += len(chunk)
                outstanding.append(counts["submitted"] - counts["delivered"])
                return original(chunk, trace_ids, submitted)

            monkeypatch.setattr(core, "_chunk_payload", counting)

            def on_response(position, response):
                counts["delivered"] += 1

            service.submit_batch(requests, on_response=on_response)
        assert counts == {"submitted": len(requests), "delivered": len(requests)}
        # The slow head holds delivery back while the window fills behind it,
        # but never past the window.
        assert max(outstanding) == core.window
        assert all(count <= core.window for count in outstanding)


class TestGeneratorBatches:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_a_generator_batch_holds_only_its_window(self, n_workers):
        """Requests are taken as the window reaches them and let go once delivered."""
        taken = []
        refs = []

        def track(request):
            refs.append(weakref.ref(request))
            return request

        def requests():
            # Built one by one: nothing but the batch holds a taken request.
            for index in range(20):
                for method in ("static", "gpiocp"):
                    taken.append(f"{index}/{method}/0")
                    yield track(
                        ScheduleRequest(
                            scenario="short-hyperperiod",
                            system_index=index,
                            spec=method,
                            request_id=taken[-1],
                        )
                    )

        ahead = []
        alive = []
        with SchedulingService(n_workers=n_workers, cache=None) as service:

            def on_response(position, response):
                ahead.append(len(taken) - position)
                alive.append(sum(ref() is not None for ref in refs[: position + 1]))

            responses = service.submit_batch(requests(), on_response=on_response)
            window = service.core.window
        assert [response.request_id for response in responses] == [
            request.request_id for request in fast_requests(20)
        ]
        assert max(ahead) <= window + 1
        assert alive == [0] * len(responses)


class TestInterrupts:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_every_delivered_response_is_in_the_cache(self, tmp_path, n_workers):
        backend = f"sqlite:path={tmp_path / 'cache.db'}"
        requests = fast_requests(10)
        delivered = []

        def interrupt_after_seven(position, response):
            if len(delivered) == 7:
                raise KeyboardInterrupt
            delivered.append(response)

        with SchedulingService(n_workers=n_workers, cache_backend=backend) as service:
            with pytest.raises(KeyboardInterrupt):
                service.submit_batch(requests, on_response=interrupt_after_seven)
        assert [response.request_id for response in delivered] == [
            request.request_id for request in requests[:7]
        ]
        # A fresh process on the same store finds every delivered result and
        # computes only what is missing.
        with SchedulingService(cache_backend=backend) as fresh:
            for response in delivered:
                assert fresh.cache.peek(response.cache_key) == response.result_dict()
            resumed = fresh.submit_batch(requests)
            assert fresh.computed <= len(requests) - 7
        assert all(response.cache == CACHE_HIT for response in resumed[:7])
        assert [response.result_dict() for response in resumed] == [
            execute_request(request).result_dict() for request in requests
        ]

    def test_a_failing_callback_propagates_and_the_service_carries_on(self):
        requests = fast_requests(10)

        def fail_on_third(position, response):
            if position == 2:
                raise ValueError("journal full")

        with SchedulingService(n_workers=2, cache=None) as service:
            with pytest.raises(ValueError, match="journal full"):
                service.submit_batch(requests, on_response=fail_on_third)
            again = service.submit_batch(requests)
        assert [response.result_dict() for response in again] == [
            execute_request(request).result_dict() for request in requests
        ]
