import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum import wire
from continuum.bus import LinkLatency, SimBroker
from continuum.pipeline import (
    SOURCE_NODE,
    ArrivalSchedule,
    Constant,
    PipelineSpec,
    StageSpec,
    Uniform,
    build_pipeline,
    pipeline_stats,
    run_pipeline,
    tandem_oracle,
    unit_doubles,
)


def chain_spec(service_ms: list[float], name: str = "chain", **stage_kwargs) -> PipelineSpec:
    stages = []
    for i, ms in enumerate(service_ms):
        last = i == len(service_ms) - 1
        stages.append(
            StageSpec(
                name=f"s{i}",
                node=f"fog:n{i}",
                input_topic=f"{name}/{i}",
                output_topic=None if last else f"{name}/{i + 1}",
                service=Constant(ms),
                **stage_kwargs,
            )
        )
    return PipelineSpec(name=name, source_topic=f"{name}/0", stages=tuple(stages))


SURVEILLANCE_SERVICES = [0.0, 1500.0, 1500.0, 14000.0, 0.0]


def surveillance_spec() -> PipelineSpec:
    names = ["capture", "compress", "resize", "extract_objects", "alert"]
    topics = ["cam/images", "cam/captured", "cam/compressed", "cam/resized", "cam/objects"]
    stages = []
    for i, (name, ms) in enumerate(zip(names, SURVEILLANCE_SERVICES)):
        stages.append(
            StageSpec(
                name=name,
                node="cloud:alerts" if i == 4 else f"fog:node{min(i, 2) + 1}",
                input_topic=topics[i],
                output_topic=None if i == 4 else topics[i + 1],
                service=Constant(ms),
                kind="serverless_function" if i >= 3 else "process",
            )
        )
    return PipelineSpec(name="surveillance", source_topic="cam/images", stages=tuple(stages))


def run_chain(spec, arrivals, seed=0, latency=None):
    broker = SimBroker(latency=latency)
    instance = build_pipeline(spec, broker)
    return run_pipeline(instance, arrivals, seed=seed)


# --- oracle unit behaviour ---


def test_oracle_single_item_is_sum_of_services():
    assert tandem_oracle([100.0], [[5.0], [7.0], [2.0]]) == [114.0]


def test_oracle_reproduces_surveillance_sequence():
    arrivals = [5000.0 * i for i in range(20)]
    services = [[ms] * 20 for ms in SURVEILLANCE_SERVICES]
    completions = tandem_oracle(arrivals, services)
    sojourns = [c - a for c, a in zip(completions, arrivals)]
    assert sojourns == [17000.0 + 9000.0 * i for i in range(20)]


def test_oracle_validates_lengths():
    with pytest.raises(ValueError):
        tandem_oracle([0.0, 1.0], [[5.0]])


# --- pipeline construction ---


def test_surveillance_pipeline_builds_with_five_subscriptions():
    broker = SimBroker()
    instance = build_pipeline(surveillance_spec(), broker)
    assert len(instance.stages) == 5
    assert len(broker._subs) == 5


def test_single_stage_pipeline_fed_by_source():
    traces, _ = run_chain(
        chain_spec([1000.0]), ArrivalSchedule(count=3, interval_ms=10_000.0)
    )
    assert [t.sojourn_ms for t in traces] == [1000.0, 1000.0, 1000.0]


def test_topic_chain_mismatch_names_both_stages():
    stages = (
        StageSpec("first", "fog:a", "p/0", "p/1", Constant(1.0)),
        StageSpec("second", "fog:b", "p/other", None, Constant(1.0)),
    )
    with pytest.raises(ValueError, match="first.*second"):
        PipelineSpec(name="p", source_topic="p/0", stages=stages)


def test_terminal_stage_must_not_publish():
    stages = (StageSpec("only", "fog:a", "p/0", "p/1", Constant(1.0)),)
    with pytest.raises(ValueError, match="terminal"):
        PipelineSpec(name="p", source_topic="p/0", stages=stages)


@pytest.mark.parametrize(
    "stages, stage, topic",
    [
        ((("a", "p/src", "p/a"), ("b", "p/a", "p/b"), ("c", "p/#", None)), "c", "p/src"),
        ((("a", "p/+", "p/a"), ("b", "p/a", None)), "a", "p/a"),
        ((("a", "p/src", "p/a"), ("b", "p/a", "p/a"), ("c", "p/a", None)), "b", "p/a"),
    ],
    ids=["hears-every-topic", "hears-its-own-output", "republishes-its-input"],
)
def test_stage_that_hears_a_topic_besides_its_upstreams_is_rejected(stages, stage, topic):
    # each such stage would see every item more than once, or loop on its own output
    specs = tuple(StageSpec(name, f"fog:{name}", src, out, Constant(1.0))
                  for name, src, out in stages)
    with pytest.raises(ValueError, match=rf"^stage '{stage}' would see each item more than "
                                         rf"once: its input '.*' also matches '{topic}'$"):
        PipelineSpec(name="p", source_topic="p/src", stages=specs)


def test_duplicate_stage_names_rejected():
    stages = (
        StageSpec("dup", "fog:a", "p/0", "p/1", Constant(1.0)),
        StageSpec("dup", "fog:b", "p/1", None, Constant(1.0)),
    )
    with pytest.raises(ValueError, match="unique"):
        PipelineSpec(name="p", source_topic="p/0", stages=stages)


def test_arrival_schedule_validation():
    with pytest.raises(ValueError):
        ArrivalSchedule(count=0, interval_ms=5.0)
    with pytest.raises(ValueError):
        ArrivalSchedule(count=3, interval_ms=0.0)
    with pytest.raises(ValueError):
        ArrivalSchedule(times_ms=(3.0, 3.0))
    assert ArrivalSchedule(times_ms=(0.0, 2.5, 7.0)).times() == [0.0, 2.5, 7.0]


@pytest.mark.parametrize("count, interval_ms", [(3, 1e308), (10**400, 1.0)],
                         ids=["overflowing-time", "count-beyond-float-range"])
def test_arrival_schedule_whose_last_time_is_not_finite_is_rejected(count, interval_ms):
    with pytest.raises(ValueError, match=r"^the last arrival time, .* is not finite$"):
        ArrivalSchedule(count=count, interval_ms=interval_ms)


# --- simulated runs ---


def test_first_item_sojourn_is_17s_with_empty_queues():
    traces, _ = run_chain(surveillance_spec(), ArrivalSchedule(count=20, interval_ms=5000.0))
    assert traces[0].sojourn_ms == 17_000.0


def test_queueing_law_and_stats():
    traces, records = run_chain(
        surveillance_spec(), ArrivalSchedule(count=20, interval_ms=5000.0)
    )
    sojourns = [t.sojourn_ms for t in traces]
    assert sojourns == [17_000.0 + 9000.0 * i for i in range(20)]
    stats = pipeline_stats(traces, records)
    assert stats.mean_sojourn_ms == 102_500.0
    assert stats.max_sojourn_ms == 188_000.0
    # bottleneck busy time over the makespan (last completion at 283 s)
    assert stats.per_stage_utilization["extract_objects"] == pytest.approx(280_000.0 / 283_000.0)


def test_event_queue_holds_in_flight_work_not_the_schedule():
    # arrivals every 100 ms into two 700 ms and 300 ms stages: items pile up in the
    # stage queues, while the event queue holds only the next arrival, the events
    # of items in service and deliveries in flight
    def event_queue_high_water(count: int) -> int:
        broker = SimBroker()
        instance = build_pipeline(chain_spec([700.0, 300.0]), broker)
        high = [0]

        def observe(env) -> None:
            high[0] = max(high[0], broker.clock.pending())

        broker.subscribe("cloud:observer", "chain/#", observe)
        traces, _ = run_pipeline(instance, ArrivalSchedule(count=count, interval_ms=100.0))
        assert len(traces) == count
        return high[0]

    assert event_queue_high_water(200) <= 8
    assert event_queue_high_water(400) <= 8


def test_uniform_services_equal_scalar_rng_uniform():
    # two stages share one generator; the draws cross several blocks of unit_doubles
    services = [Uniform(1000.0, 2000.0), Uniform(0.25, 3.5)]
    units = unit_doubles(np.random.default_rng(11))
    rng = np.random.default_rng(11)
    drawn = [services[i % 2].draw(units) for i in range(10_000)]
    scalar = [float(rng.uniform(s.lo_ms, s.hi_ms)) for s in services * 5_000]
    assert drawn == scalar


def test_service_that_ends_past_the_largest_finite_time_fails_naming_the_stage():
    # item 0 ends at 1e308 ms; item 1 starts there and would end at inf
    with pytest.raises(RuntimeError, match=r"^stage 's1': a service of 1e\+308 ms starting at "
                                           r"1e\+308 ms ends past the largest finite time$"):
        run_chain(chain_spec([1.0, 1e308]), ArrivalSchedule(count=2, interval_ms=1.0))


def test_records_are_filed_in_item_then_stage_order():
    # a two-server stage of uniform service lets later items overtake earlier ones
    spec = PipelineSpec(
        name="o",
        source_topic="o/0",
        stages=(
            StageSpec("wide", "fog:n0", "o/0", "o/1", Uniform(10.0, 900.0), servers=2),
            StageSpec("last", "fog:n1", "o/1", None, Constant(1.0), servers=2),
        ),
    )
    traces, records = run_chain(spec, ArrivalSchedule(count=40, interval_ms=50.0), seed=5)
    assert [(r.item_id, r.stage) for r in records] == [
        (i, s) for i in range(40) for s in ("wide", "last")
    ]
    completions = [t.completion_ms for t in traces]
    assert completions != sorted(completions)  # some item did overtake
    assert completions == [r.end_ms for r in records[1::2]]


def test_no_items_lost():
    traces, records = run_chain(
        chain_spec([700.0, 300.0]), ArrivalSchedule(count=17, interval_ms=100.0)
    )
    assert len(traces) == 17
    assert sorted(t.item_id for t in traces) == list(range(17))
    assert len(records) == 17 * 2


class SourceDroppingBroker(SimBroker):
    """Loses the source publish of one item."""

    def __init__(self, lost_item: int):
        super().__init__()
        self.lost_item = lost_item

    def publish(self, sender, topic, payload):
        if sender == SOURCE_NODE and wire.unpack(payload)["item_id"] == self.lost_item:
            return 0
        return super().publish(sender, topic, payload)


def test_stall_names_the_item_that_never_completed():
    instance = build_pipeline(chain_spec([700.0, 300.0]), SourceDroppingBroker(lost_item=2))
    with pytest.raises(RuntimeError, match=r"still awaiting \['item 2'\]$"):
        run_pipeline(instance, ArrivalSchedule(count=5, interval_ms=100.0))


NOT_ONE = "received a payload that is not one of this run's items"


@pytest.mark.parametrize(
    "payload, at_ms, error",
    [(wire.pack({"item_id": 99}), 50.0, NOT_ONE),
     (wire.pack({"frame": 1}), 50.0, NOT_ONE),
     # item 1 is in service at s1 from 200 to 300 ms, then complete
     (wire.pack({"item_id": 1}), 250.0, "received item 1 a second time"),
     (wire.pack({"item_id": 1}), 350.0, NOT_ONE)],
    ids=["unknown-item-id", "no-item-id", "copy-of-an-item-in-flight", "copy-of-a-completed-item"],
)
def test_foreign_payload_at_a_stage_fails_naming_stage_topic_and_sender(payload, at_ms, error):
    broker = SimBroker()
    instance = build_pipeline(chain_spec([100.0, 100.0]), broker)
    broker.call_at(at_ms, lambda: broker.publish("edge:intruder", "chain/1", payload))
    with pytest.raises(
        RuntimeError, match=rf"^stage 's1' {error} on topic 'chain/1' from 'edge:intruder'$"
    ):
        run_pipeline(instance, ArrivalSchedule(count=3, interval_ms=100.0))


def test_records_cost_a_fixed_few_bytes_per_item_stage():
    # five 10 ms stages fed every 100 ms: nothing queues, so what grows with the item
    # count is what the run keeps per item and stage
    def peak_bytes(count: int) -> int:
        instance = build_pipeline(chain_spec([10.0] * 5), SimBroker())
        gc.collect()
        tracemalloc.start()
        try:
            run_pipeline(instance, ArrivalSchedule(count=count, interval_ms=100.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(100)  # warm-up: first-call allocations are not per item
    growth = peak_bytes(4000) - peak_bytes(2000)
    assert growth <= 64 * 2000 * 5, f"{growth / (2000 * 5):.0f} B per added item-stage"


def test_fifo_and_work_conservation_per_stage():
    traces, records = run_chain(
        chain_spec([400.0, 900.0, 150.0]), ArrivalSchedule(count=25, interval_ms=300.0)
    )
    by_stage: dict[str, list] = {}
    for r in records:
        by_stage.setdefault(r.stage, []).append(r)
    for rows in by_stage.values():
        rows.sort(key=lambda r: r.enqueue_ms)
        previous_end = None
        for r in rows:
            assert r.enqueue_ms <= r.start_ms <= r.end_ms
            if previous_end is None:
                assert r.start_ms == r.enqueue_ms
            else:
                # single server: service starts exactly when both the item and
                # the server are available (work conservation + FIFO)
                assert r.start_ms == max(r.enqueue_ms, previous_end)
            previous_end = r.end_ms


def test_linear_queue_growth_past_warmup():
    traces, _ = run_chain(chain_spec([50.0, 800.0]), ArrivalSchedule(count=30, interval_ms=500.0))
    sojourns = [t.sojourn_ms for t in traces]
    diffs = [b - a for a, b in zip(sojourns[2:], sojourns[3:])]
    assert all(d == 300.0 for d in diffs)  # bottleneck 800 - arrival gap 500


def test_stage_handoff_includes_link_latency():
    latency = LinkLatency(default_ms=25.0)
    traces, records = run_chain(
        chain_spec([100.0, 100.0]), ArrivalSchedule(count=1, interval_ms=1.0), latency=latency
    )
    first, second = records
    assert second.enqueue_ms == first.end_ms + 25.0
    assert traces[0].sojourn_ms == 100.0 + 25.0 + 100.0 + 25.0  # source hop also pays latency


def test_simulator_matches_oracle_on_random_constant_configs():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        num_stages = int(rng.integers(1, 7))
        services = [float(rng.integers(0, 20_000)) for _ in range(num_stages)]
        count = int(rng.integers(1, 30))
        interval = float(rng.integers(1, 10_000))
        spec = chain_spec(services)
        traces, _ = run_chain(spec, ArrivalSchedule(count=count, interval_ms=interval))
        arrivals = [i * interval for i in range(count)]
        expected = tandem_oracle(arrivals, [[s] * count for s in services])
        assert [t.completion_ms for t in traces] == expected


@given(
    services=st.lists(st.integers(0, 5000), min_size=1, max_size=5),
    count=st.integers(1, 15),
    interval=st.integers(1, 4000),
)
@settings(max_examples=40, deadline=None)
def test_simulator_matches_oracle_property(services, count, interval):
    spec = chain_spec([float(s) for s in services])
    traces, _ = run_chain(spec, ArrivalSchedule(count=count, interval_ms=float(interval)))
    arrivals = [float(i * interval) for i in range(count)]
    expected = tandem_oracle(arrivals, [[float(s)] * count for s in services])
    assert [t.completion_ms for t in traces] == expected


def test_uniform_service_runs_are_seed_deterministic():
    spec = chain_spec([100.0, 100.0])
    spec = PipelineSpec(
        name=spec.name,
        source_topic=spec.source_topic,
        stages=(
            spec.stages[0],
            StageSpec("s1", "fog:n1", "chain/1", None, Uniform(50.0, 500.0)),
        ),
    )
    first = run_chain(spec, ArrivalSchedule(count=10, interval_ms=120.0), seed=3)
    second = run_chain(spec, ArrivalSchedule(count=10, interval_ms=120.0), seed=3)
    assert [t.completion_ms for t in first[0]] == [t.completion_ms for t in second[0]]
    third = run_chain(spec, ArrivalSchedule(count=10, interval_ms=120.0), seed=4)
    assert [t.completion_ms for t in first[0]] != [t.completion_ms for t in third[0]]


def test_cold_start_surcharge_on_first_call_and_after_idle():
    stage = StageSpec(
        "fn",
        "fog:n0",
        "c/0",
        None,
        Constant(100.0),
        kind="serverless_function",
        cold_start_ms=500.0,
        cold_idle_threshold_ms=1000.0,
    )
    spec = PipelineSpec(name="c", source_topic="c/0", stages=(stage,))
    traces, _ = run_chain(spec, ArrivalSchedule(times_ms=(0.0, 650.0, 5000.0)))
    # item 0 pays the cold start; item 1 arrives while warm (gap 50 < 1000);
    # item 2 arrives after a 4250 ms idle gap and pays it again
    assert [t.sojourn_ms for t in traces] == [600.0, 100.0, 600.0]


def test_process_kind_never_pays_cold_start():
    stage = StageSpec(
        "p", "fog:n0", "c/0", None, Constant(100.0), kind="process", cold_start_ms=500.0
    )
    spec = PipelineSpec(name="c", source_topic="c/0", stages=(stage,))
    traces, _ = run_chain(spec, ArrivalSchedule(count=2, interval_ms=5000.0))
    assert [t.sojourn_ms for t in traces] == [100.0, 100.0]


def test_multi_server_stage_overlaps_service():
    stage = StageSpec("k2", "fog:n0", "m/0", None, Constant(1000.0), servers=2)
    spec = PipelineSpec(name="m", source_topic="m/0", stages=(stage,))
    traces, _ = run_chain(spec, ArrivalSchedule(count=2, interval_ms=1.0))
    assert [t.sojourn_ms for t in traces] == [1000.0, 1000.0]


def test_pipeline_stats_single_item_and_empty():
    traces, records = run_chain(chain_spec([250.0]), ArrivalSchedule(count=1, interval_ms=1.0))
    stats = pipeline_stats(traces, records)
    assert stats.mean_sojourn_ms == stats.max_sojourn_ms == 250.0
    with pytest.raises(ValueError):
        pipeline_stats([], [])
