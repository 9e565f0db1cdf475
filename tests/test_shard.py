"""Tests for sharded campaign execution (`repro.runtime.shard`).

The shard coordinator's contract is byte-identity with the single-host
engine: same results, same store bytes, same canonical event log, for
any shard count, any transport, and any worker completion order.
These tests pin the keyspace partition, the wire protocol, the
coordinator/worker loop over both transports, dead-worker recovery,
kill-and-resume, and the merged fleet telemetry.
"""

import dataclasses
import json
import socket

import pytest

from repro.check import check_resume
from repro.runtime import (
    CallbackSink,
    CampaignError,
    CampaignPlan,
    ExecutionEngine,
    FailurePolicy,
    FaultPlan,
    FleetStatus,
    FleetStatusServer,
    InProcessShardTransport,
    JobOutcome,
    JsonlEventSink,
    ProcessShardTransport,
    ResultStore,
    ResumeState,
    ShardCoordinator,
    ShardPlan,
    ShardProtocolError,
    merge_event_streams,
    partition_indices,
    read_events,
    read_events_merged,
    shard_of,
)
from repro.runtime.events import JobFinished, JobStarted
from repro.runtime import shard as shard_module
from repro.runtime.shard import _SHARD_LOCAL_EVENTS
from repro.service.framing import decode_line, encode_line
from repro.sim.campaign import RunSpec
from repro.sim.serialize import run_result_to_dict


def specs_1b1s(count=5, instructions=120_000):
    pairs = [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm")]
    return [
        RunSpec(
            "1B1S",
            pairs[i % len(pairs)],
            "random",
            instructions,
            seed=i,
        )
        for i in range(count)
    ]


def canonical(results):
    return [
        json.dumps(run_result_to_dict(r), sort_keys=True) for r in results
    ]


def inprocess_coordinator(shards, **kwargs) -> ShardCoordinator:
    return ShardCoordinator(
        shards, transport_factory=InProcessShardTransport, **kwargs
    )


def dying_shard(specs) -> int:
    """A shard of a 2-shard fleet owning at least three of ``specs``."""
    owners = partition_indices([s.key() for s in specs], 2)
    shard = max(range(2), key=lambda s: len(owners[s]))
    assert len(owners[shard]) >= 3
    return shard


def die_after(monkeypatch, shard, *, ship, deaths):
    """Make ``shard``'s worker ship its first ``ship`` jobs, then die
    without reporting done -- for its first ``deaths`` plans.  Returns
    the global indices of every plan that shard's worker receives."""
    real = shard_module.run_worker
    plans = []

    def worker(plan, send):
        if plan.shard != shard:
            return real(plan, send)
        plans.append(plan.indices)
        if len(plans) > deaths:
            return real(plan, send)
        head = dataclasses.replace(
            plan,
            indices=plan.indices[:ship],
            specs=plan.specs[:ship],
            labels=plan.labels[:ship],
        )

        def forward(message):
            if message["msg"] != "done":
                send(message)

        real(head, forward)

    monkeypatch.setattr(shard_module, "run_worker", worker)
    return plans


def counters(snapshot):
    # Timer series carry wall-clock values; only the deterministic
    # counters must fold to identical totals.
    return {
        json.dumps([entry["name"], entry["labels"]], sort_keys=True):
            entry["data"]
        for entry in snapshot.to_dict()["series"]
        if entry["kind"] == "counter"
    }


def span_counts(node, path=()):
    path = (*path, node.label)
    counts = {path: node.count}
    for child in node.children.values():
        counts.update(span_counts(child, path))
    return counts


def replayed(events):
    # Event *order* follows each fleet's wall clock; the replayed
    # per-job facts may not.
    from repro.runtime import replay_timings

    return [
        (t.index, t.label, t.status, t.attempts)
        for t in replay_timings(events)
    ]


class TestPartition:
    def test_disjoint_cover(self):
        keys = [spec.key() for spec in specs_1b1s(12)]
        for shards in (1, 2, 3, 4, 7):
            owners = partition_indices(keys, shards)
            assert len(owners) == shards
            flat = sorted(i for indices in owners for i in indices)
            assert flat == list(range(len(keys)))
            for shard, indices in enumerate(owners):
                assert indices == sorted(indices)
                for index in indices:
                    assert shard_of(keys[index], shards) == shard

    def test_single_shard_owns_everything(self):
        keys = [spec.key() for spec in specs_1b1s(4)]
        assert partition_indices(keys, 1) == [list(range(4))]

    def test_stable_across_calls(self):
        keys = [spec.key() for spec in specs_1b1s(8)]
        assert partition_indices(keys, 3) == partition_indices(keys, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_of("ff", 0)
        with pytest.raises(ValueError):
            ShardCoordinator(0)


class TestProtocol:
    def make_plan(self, **overrides) -> ShardPlan:
        specs = specs_1b1s(3)
        defaults = dict(
            shard=1,
            shards=2,
            indices=(0, 2, 4),
            specs=tuple(specs),
            labels=("a", "b", "c"),
            store="/tmp/store",
            machine=None,
            batched=False,
            metrics=True,
            checks=False,
            max_attempts=2,
            checkpoint_every=4,
            fail_attempts={1: 99},
            sleep_seconds=None,
        )
        defaults.update(overrides)
        return ShardPlan(**defaults)

    def test_plan_roundtrips_through_the_wire(self):
        plan = self.make_plan()
        line = encode_line(plan.to_message())
        again = ShardPlan.from_message(decode_line(line))
        assert again == plan
        # JSON stringifies mapping keys; the codec restores ints.
        assert again.fail_attempts == {1: 99}

    def test_version_mismatch_rejected(self):
        message = self.make_plan().to_message()
        message["protocol"] = 999
        with pytest.raises(ShardProtocolError, match="version"):
            ShardPlan.from_message(message)

    def test_non_plan_message_rejected(self):
        with pytest.raises(ShardProtocolError, match="plan"):
            ShardPlan.from_message({"msg": "done"})

    def test_outcome_roundtrips_through_the_wire(self, tmp_path):
        specs = specs_1b1s(1)
        report = ExecutionEngine().run_many(specs, store=tmp_path)
        outcome = report.outcomes[0]
        line = encode_line({"outcome": outcome.to_dict()})
        again = JobOutcome.from_dict(decode_line(line)["outcome"])
        assert again.index == outcome.index
        assert again.spec == outcome.spec
        assert again.label == outcome.label
        assert again.cached == outcome.cached
        assert run_result_to_dict(again.result) == run_result_to_dict(
            outcome.result
        )


class TestCoordinator:
    def test_matches_serial_engine_at_any_shard_count(self, tmp_path):
        specs = specs_1b1s(6)
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        expected = canonical(serial.results)
        digests = {ResultStore(tmp_path / "serial").digest()}
        for shards in (1, 2, 4):
            store = tmp_path / f"s{shards}"
            report = inprocess_coordinator(shards).run(specs, store=store)
            assert canonical(report.results) == expected
            assert [o.index for o in report.outcomes] == list(
                range(len(specs))
            )
            digests.add(ResultStore(store).digest())
        assert len(digests) == 1

    def test_replayed_log_facts_are_shard_count_invariant(self, tmp_path):
        specs = specs_1b1s(5)
        logs = {}
        for shards in (1, 2, 4):
            path = tmp_path / f"log{shards}.jsonl"
            sink = JsonlEventSink(path)
            try:
                inprocess_coordinator(shards, log_sink=sink).run(
                    specs, store=tmp_path / f"store{shards}"
                )
            finally:
                sink.close()
            logs[shards] = replayed(read_events(path))
        assert logs[1] == logs[2] == logs[4]

    def test_collect_reports_failures_fail_fast_raises(self, tmp_path):
        specs = specs_1b1s(4)
        plan = FaultPlan(fail_attempts={2: 99})
        report = inprocess_coordinator(
            2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=plan,
        ).run(specs, store=tmp_path / "a")
        assert [o.index for o in report.failures] == [2]
        assert all(o.ok for i, o in enumerate(report.outcomes) if i != 2)
        with pytest.raises(CampaignError, match="failed"):
            inprocess_coordinator(2, fault_plan=plan).run(
                specs, store=tmp_path / "b"
            )

    def test_metrics_fold_into_fleet_totals(self, tmp_path):
        specs = specs_1b1s(4)
        serial = ExecutionEngine(metrics=True).run_many(
            specs, store=tmp_path / "serial"
        )
        fleet = inprocess_coordinator(2, metrics=True).run(
            specs, store=tmp_path / "fleet"
        )
        assert fleet.metrics is not None
        assert counters(fleet.metrics) == counters(serial.metrics)

    def test_shard_logs_are_standalone_campaign_logs(self, tmp_path):
        specs = specs_1b1s(5)
        log = tmp_path / "log.jsonl"
        sink = JsonlEventSink(log)
        try:
            inprocess_coordinator(
                2, log_sink=sink, shard_log_base=log
            ).run(specs, store=tmp_path / "store")
        finally:
            sink.close()
        seen = set()
        for shard in (0, 1):
            events = read_events(
                tmp_path / f"log.jsonl.shard{shard}.jsonl"
            )
            plans = [e for e in events if isinstance(e, CampaignPlan)]
            assert len(plans) == 1  # standalone, individually resumable
            state = ResumeState.from_events(events)
            assert state.pending == set()
            seen.update(state.keys)
        assert seen == {spec.key() for spec in specs}

    def test_resume_after_cut_matches_uninterrupted(self, tmp_path):
        specs = specs_1b1s(6)
        events = []
        coordinator = inprocess_coordinator(
            2, log_sink=CallbackSink(events.append)
        )
        full = coordinator.run(specs, store=tmp_path / "store")
        # Cut the durable log shortly after the plan record: the
        # resume state sees at most a few completions, the store has
        # everything -- resume must reconcile and match bit-for-bit.
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        state = ResumeState.from_events(events[: plan_at + 3])
        assert state.shards == 2
        resumed = inprocess_coordinator(2).run(
            specs, resume_from=state, store=tmp_path / "store"
        )
        assert check_resume(full, resumed).ok
        assert all(o.cached for o in resumed.outcomes)

    def test_dead_worker_recovers_in_process(self, tmp_path):
        specs = specs_1b1s(6)

        class DyingTransport(InProcessShardTransport):
            """Shard 1's worker vanishes before sending anything."""

            def start(self, plan, deliver):
                if plan.shard == 1:
                    deliver(None)  # EOF with no done message
                else:
                    super().start(plan, deliver)

        report = ShardCoordinator(
            2, transport_factory=DyingTransport
        ).run(specs, store=tmp_path / "store")
        assert len(report.outcomes) == len(specs)
        assert all(o.ok for o in report.outcomes)
        serial = ExecutionEngine().run_many(specs, store=tmp_path / "s2")
        assert canonical(report.results) == canonical(serial.results)

    def test_worker_dying_mid_shard_recovers_like_a_whole_fleet(
        self, tmp_path, monkeypatch
    ):
        specs = specs_1b1s(6)
        dying = dying_shard(specs)
        owned = partition_indices([s.key() for s in specs], 2)[dying]
        # The first remnant job fails once and passes on its retry.
        fault = FaultPlan(fail_attempts={owned[1]: 1})

        def fleet(name):
            log = tmp_path / f"{name}.jsonl"
            sink = JsonlEventSink(log)
            try:
                report = inprocess_coordinator(
                    2, metrics=True, spans=True, max_attempts=2,
                    fault_plan=fault, log_sink=sink,
                ).run(specs, store=tmp_path / name)
            finally:
                sink.close()
            return report, read_events(log)

        whole, whole_log = fleet("whole")
        plans = die_after(monkeypatch, dying, ship=1, deaths=1)
        with pytest.warns(UserWarning, match="re-running its"):
            cut, cut_log = fleet("cut")
        assert plans == [tuple(owned), tuple(owned[1:])]

        def facts(report):
            return [
                (o.index, o.label, o.attempts, o.cached, o.error)
                for o in report.outcomes
            ]

        assert facts(cut) == facts(whole)
        assert any(o.attempts == 2 for o in cut.outcomes)
        assert canonical(cut.results) == canonical(whole.results)
        assert counters(cut.metrics) == counters(whole.metrics)
        assert span_counts(cut.spans) == span_counts(whole.spans)
        assert replayed(cut_log) == replayed(whole_log)

    def test_remnant_that_dies_again_is_not_recovered_twice(
        self, tmp_path, monkeypatch
    ):
        specs = specs_1b1s(6)
        dying = dying_shard(specs)
        owned = partition_indices([s.key() for s in specs], 2)[dying]
        plans = die_after(monkeypatch, dying, ship=1, deaths=99)
        with pytest.warns(UserWarning, match="died before reporting done"):
            with pytest.raises(ShardProtocolError, match="no outcome"):
                inprocess_coordinator(2).run(
                    specs, store=tmp_path / "store"
                )
        assert plans == [tuple(owned), tuple(owned[1:])]

    def test_machine_list_rejected(self):
        from repro.config import STANDARD_MACHINES

        machines = [STANDARD_MACHINES["1B1S"]()]
        with pytest.raises(ValueError, match="single machine"):
            inprocess_coordinator(2).run(specs_1b1s(2), machines=machines)


class TestProcessTransport:
    def test_subprocess_fleet_matches_serial(self, tmp_path):
        specs = specs_1b1s(4)
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        report = ShardCoordinator(
            2, transport_factory=ProcessShardTransport
        ).run(specs, store=tmp_path / "fleet")
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )


class TestMergedStreams:
    def make_stream(self, shard, times):
        return [
            JobFinished(
                index=shard * 10 + i,
                label=f"s{shard}/{i}",
                wall_seconds=0.0,
                timestamp=t,
            )
            for i, t in enumerate(times)
        ]

    def test_sorts_by_timestamp_then_shard(self):
        a = self.make_stream(0, [1.0, 3.0])
        b = self.make_stream(1, [1.0, 2.0])
        merged = merge_event_streams([a, b])
        assert [e.index for e in merged] == [0, 10, 11, 1]

    def test_permuting_completion_order_is_invisible(self):
        streams = [
            self.make_stream(s, [0.5 * s + i for i in range(3)])
            for s in range(3)
        ]
        baseline = merge_event_streams(streams)
        # The merge is a pure function of the per-shard streams;
        # arrival interleavings do not exist in its input space, so
        # canonical order survives any completion order.  Equal
        # timestamps break ties by stream position, deterministically.
        assert merge_event_streams(list(streams)) == baseline

    def test_within_stream_order_is_stable_on_ties(self):
        stream = self.make_stream(0, [1.0, 1.0, 1.0])
        assert merge_event_streams([stream]) == stream

    def test_read_events_merged(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, shard, times in (
            (a, 0, [1.0, 3.0]),
            (b, 1, [2.0]),
        ):
            sink = JsonlEventSink(path)
            for event in self.make_stream(shard, times):
                sink.emit(event)
            sink.close()
        merged = read_events_merged([a, b])
        assert [e.index for e in merged] == [0, 10, 1]
        # One path degrades to plain read_events.
        assert [e.index for e in read_events_merged([a])] == [0, 1]


class TestFleetTelemetry:
    def test_status_counts_and_line(self):
        status = FleetStatus([2, 1])
        status.mark_started(0)
        status.record_event(
            0, JobFinished(index=0, label="a", wall_seconds=0.1)
        )
        snap = status.snapshot()
        assert snap["total"] == 3
        assert snap["done"] == 1
        assert snap["queued"] == 2
        assert snap["runs_per_s"] > 0
        assert snap["eta_seconds"] is not None
        line = status.format_line()
        assert "1/3 done" in line and "s0:1/2" in line

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="needs unix sockets"
    )
    def test_status_server_speaks_service_framing(self, tmp_path):
        status = FleetStatus([1])
        server = FleetStatusServer(status, tmp_path / "fleet.sock")
        server.start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "fleet.sock"))
                stream = sock.makefile("rw")
                for request, expect in (
                    ({"op": "ping"}, "pong"),
                    ({"op": "fleet"}, "fleet"),
                    ({"op": "nope"}, "error"),
                ):
                    stream.write(encode_line(request) + "\n")
                    stream.flush()
                    response = decode_line(stream.readline())
                    assert expect in response
                stream.write("not json\n")
                stream.flush()
                response = decode_line(stream.readline())
                assert not response["ok"]
                assert "bad json" in response["error"]
        finally:
            server.close()

    def test_coordinator_feeds_status(self, tmp_path):
        specs = specs_1b1s(4)
        coordinator = inprocess_coordinator(2)
        coordinator.run(specs, store=tmp_path / "store")
        snap = coordinator.status.snapshot()
        assert snap["done"] == len(specs)
        assert snap["failed"] == 0
        assert snap["queued"] == 0
        assert all(s["finished"] for s in snap["shards"])


class TestShardedStderrEvents:
    def test_live_sinks_see_every_job_event(self, tmp_path):
        specs = specs_1b1s(4)
        seen = []
        inprocess_coordinator(2, sinks=[CallbackSink(seen.append)]).run(
            specs, store=tmp_path / "store"
        )
        finished = [e for e in seen if isinstance(e, JobFinished)]
        started = [e for e in seen if isinstance(e, JobStarted)]
        assert len(finished) == len(specs)
        assert len(started) == len(specs)
