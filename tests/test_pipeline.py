"""Tests for the NN pipeline timing model and the time-mux baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.nn.pipeline import ACTPipelineModel, NeuronTiming
from repro.nn.timemux import TimeMultiplexedModel, compare_designs


class TestNeuronTiming:
    def test_latency_formula(self):
        # ceil(10/2)*1 + 2 = 7
        assert NeuronTiming(muladd_units=2).neuron_latency() == 7
        assert NeuronTiming(muladd_units=1).neuron_latency() == 12
        assert NeuronTiming(muladd_units=5).neuron_latency() == 4
        assert NeuronTiming(muladd_units=10).neuron_latency() == 3

    def test_more_units_never_slower(self):
        lats = [NeuronTiming(muladd_units=x).neuron_latency()
                for x in (1, 2, 5, 10)]
        assert lats == sorted(lats, reverse=True)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NeuronTiming(muladd_units=0)
        with pytest.raises(ConfigError):
            NeuronTiming(muladd_units=11)


def _waiting(pipe, cycle):
    """Brute-force occupancy: queued inputs that start after ``cycle``."""
    return sum(1 for s in pipe._pending_starts if s > cycle)


class TestPipelineModel:
    def test_accepts_when_empty(self):
        pipe = ACTPipelineModel(fifo_depth=4)
        accepted, retry, _ = pipe.offer(0)
        assert accepted and retry == 0

    def test_training_interval_is_4t(self):
        pipe = ACTPipelineModel()
        assert pipe.service_interval(training=True) == \
            4 * pipe.service_interval(training=False)

    def test_back_to_back_fills_fifo(self):
        pipe = ACTPipelineModel(fifo_depth=2)
        t = pipe.latency
        # one in service + 2 queued = full at cycle 0
        assert pipe.offer(0)[0]
        assert pipe.offer(0)[0]
        assert pipe.offer(0)[0]
        accepted, retry, _ = pipe.offer(0)
        assert not accepted
        assert retry > 0

    def test_retry_cycle_frees_slot(self):
        pipe = ACTPipelineModel(fifo_depth=1)
        assert pipe.offer(0)[0]
        assert pipe.offer(0)[0]
        accepted, retry, _ = pipe.offer(0)
        assert not accepted
        accepted2, _, _ = pipe.offer(retry)
        assert accepted2

    def test_slow_arrivals_never_stall(self):
        pipe = ACTPipelineModel(fifo_depth=1)
        t = pipe.service_interval(False)
        cycle = 0
        for _ in range(20):
            accepted, _, _ = pipe.offer(cycle)
            assert accepted
            cycle += t + 1

    @pytest.mark.parametrize("training", [False, True])
    def test_offer_results(self, training):
        """The second input starts one service interval after the
        first, so a third offer at cycle 0 finds the one-slot FIFO full
        until then."""
        pipe = ACTPipelineModel(fifo_depth=1)
        interval = pipe.service_interval(training)
        assert [pipe.offer(0, training=training) for _ in range(3)] == [
            (True, 0, 0), (True, 0, 0), (False, interval, 1)]

    def test_fifo_depth_validation(self):
        with pytest.raises(ConfigError):
            ACTPipelineModel(fifo_depth=0)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_depth(self, gaps, depth):
        pipe = ACTPipelineModel(fifo_depth=depth)
        cycle = 0
        for gap in gaps:
            cycle += gap
            waiting = _waiting(pipe, cycle)
            accepted, retry, occupancy = pipe.offer(cycle)
            assert occupancy == waiting <= depth
            if not accepted:
                assert occupancy == depth
                cycle = retry
                waiting = _waiting(pipe, cycle)
                accepted2, _, occupancy = pipe.offer(cycle)
                assert accepted2
                assert occupancy == waiting < depth
            assert _waiting(pipe, cycle) <= depth

    @given(st.lists(st.tuples(st.integers(0, 200), st.booleans()),
                    min_size=1, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_start_queue_non_decreasing(self, offers, depth):
        """offer() drains the start queue from its head and reports
        what is left as the occupancy, so the queue must stay sorted:
        each start is max(cycle, previous start + interval), whatever
        order the offer cycles arrive in and whichever mode is set."""
        pipe = ACTPipelineModel(fifo_depth=depth)
        for cycle, training in offers:
            waiting = _waiting(pipe, cycle)
            _, _, occupancy = pipe.offer(cycle, training=training)
            assert occupancy == waiting
            starts = list(pipe._pending_starts)
            assert starts == sorted(starts)


class TestTimeMux:
    def test_rounds(self):
        mux = TimeMultiplexedModel(n_pe=8)
        assert mux.rounds(8) == 2   # one hidden round + output
        assert mux.rounds(10) == 3

    def test_latency_grows_with_hidden(self):
        mux = TimeMultiplexedModel(n_pe=8)
        assert mux.input_latency(10) > mux.input_latency(4)

    def test_no_pipelining(self):
        mux = TimeMultiplexedModel()
        assert mux.steady_state_interval(10) == mux.input_latency(10)

    def test_throughput_inverse_of_interval(self):
        mux = TimeMultiplexedModel()
        assert mux.throughput(10) == pytest.approx(
            1.0 / mux.steady_state_interval(10))

    def test_act_beats_mux_on_throughput(self):
        for x in (1, 2, 5, 10):
            metrics = compare_designs(NeuronTiming(muladd_units=x))
            assert metrics["act_test_interval"] < metrics["mux_test_interval"]

    def test_compare_designs_keys(self):
        m = compare_designs()
        assert {"act_input_latency", "mux_input_latency",
                "act_train_interval", "mux_train_interval"} <= set(m)
