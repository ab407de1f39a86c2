"""Property-based tests of the fair-share network's physical invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Link, Network

transfer_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),    # start time
        st.floats(min_value=1.0, max_value=10_000.0),  # bytes
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=200.0)),  # cap
    ),
    min_size=1,
    max_size=12,
)


def run_network(specs, capacity=100.0, two_links=False):
    env = Environment()
    net = Network(env)
    link_a = Link(env, "a", capacity)
    link_b = Link(env, "b", capacity * 2)
    route = [link_a, link_b] if two_links else [link_a]
    finishes = {}

    def one(index, start, nbytes, cap):
        if start:
            yield env.timeout(start)
        yield net.transfer(route, nbytes, cap=cap, name=f"f{index}")
        finishes[index] = env.now

    for index, (start, nbytes, cap) in enumerate(specs):
        env.process(one(index, start, nbytes, cap))
    env.run()
    return env, net, link_a, finishes


class TestConservation:
    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_all_transfers_complete(self, specs):
        __, __, __, finishes = run_network(specs)
        assert len(finishes) == len(specs)

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_conserved(self, specs):
        __, __, link, __ = run_network(specs)
        total = sum(nbytes for __, nbytes, __ in specs)
        assert link.bytes_total == pytest.approx(total, rel=1e-6)

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_multi_link_routes_conserve_on_every_link(self, specs):
        __, __, link, __ = run_network(specs, two_links=True)
        total = sum(nbytes for __, nbytes, __ in specs)
        assert link.bytes_total == pytest.approx(total, rel=1e-6)


class TestCapacityRespect:
    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_rate_never_exceeds_capacity(self, specs):
        __, __, link, __ = run_network(specs, capacity=100.0)
        for __, rate in link.rate_log:
            assert rate <= 100.0 + 1e-6

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_makespan_lower_bound(self, specs):
        """No schedule can finish faster than total bytes / capacity."""
        env, __, __, finishes = run_network(specs, capacity=100.0)
        total = sum(nbytes for __, nbytes, __ in specs)
        first_start = min(start for start, __, __ in specs)
        assert env.now >= first_start + total / 100.0 - 1e-6

    @given(specs=transfer_specs)
    @settings(max_examples=60, deadline=None)
    def test_caps_respected_in_isolation(self, specs):
        """A single capped flow finishes no faster than bytes / cap."""
        for start, nbytes, cap in specs:
            if cap is None:
                continue
            env, __, __, finishes = run_network([(0.0, nbytes, cap)])
            assert env.now >= nbytes / min(cap, 100.0) - 1e-6


class TestFairness:
    @given(
        count=st.integers(min_value=2, max_value=10),
        nbytes=st.floats(min_value=100.0, max_value=5000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_flows_finish_together(self, count, nbytes):
        env, __, __, finishes = run_network([(0.0, nbytes, None)] * count)
        times = list(finishes.values())
        assert max(times) == pytest.approx(min(times), rel=1e-9)
        assert max(times) == pytest.approx(nbytes * count / 100.0, rel=1e-6)

    @given(small=st.floats(min_value=10.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_smaller_flow_finishes_first(self, small):
        env, __, __, finishes = run_network(
            [(0.0, small, None), (0.0, small * 10, None)]
        )
        assert finishes[0] < finishes[1]


# ------------------------------------------------- exact fair-share rates
def frozen_assign_rates(flow_set):
    """``Network._assign_rates`` as it stood before incremental counts.

    Verbatim apart from taking the flow set as an argument: every flow's
    rate must come out bit-identical from the live implementation, because
    simulated seconds (and the benchmark's sim references) are built from
    them.
    """
    import math

    from repro.sim.network import _EPS

    links = {}
    for flow in flow_set:
        flow.rate = 0.0
        for link in flow.route:
            links.setdefault(link, []).append(flow)

    remaining = {link: link.capacity for link in links}
    unfrozen = set(flow_set)

    while unfrozen:
        bottleneck_rate = math.inf
        bottleneck_link = None
        capped_flow = None
        for link, flows in links.items():
            count = sum(1 for f in flows if f in unfrozen)
            if count == 0:
                continue
            share = remaining[link] / count
            if share < bottleneck_rate - _EPS:
                bottleneck_rate = share
                bottleneck_link = link
                capped_flow = None
        for flow in unfrozen:
            if flow.cap is not None and flow.cap < bottleneck_rate - _EPS:
                bottleneck_rate = flow.cap
                bottleneck_link = None
                capped_flow = flow

        if capped_flow is not None:
            frozen = [capped_flow]
        elif bottleneck_link is not None:
            frozen = [f for f in links[bottleneck_link] if f in unfrozen]
        else:  # pragma: no cover - defensive: no links and no caps
            frozen = list(unfrozen)
            bottleneck_rate = 0.0

        for flow in frozen:
            flow.rate = max(0.0, bottleneck_rate)
            unfrozen.discard(flow)
            for link in flow.route:
                remaining[link] = max(0.0, remaining[link] - flow.rate)


capacities = st.one_of(
    st.sampled_from([0.0, 1.0, 3.0, 125e6, 1e9 / 3]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
flow_specs = st.lists(
    st.tuples(
        # route: link indices, repeats allowed (a flow crossing a link twice)
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
        st.one_of(st.none(), st.sampled_from([1.0, 9e6, 40e6, 1e-12]),
                  st.floats(min_value=1e-6, max_value=1e9)),
    ),
    min_size=1,
    max_size=24,
)


class TestExactRates:
    @given(st.lists(capacities, min_size=8, max_size=8), flow_specs)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_rates_equal_the_frozen_allocation(self, caps, specs):
        from repro.sim.kernel import Event
        from repro.sim.network import Flow

        env = Environment()
        net = Network(env)
        links = [Link(env, f"l{i}", 1.0) for i in range(8)]
        for link, capacity in zip(links, caps):
            link.set_capacity(capacity)
        for index, (route, cap) in enumerate(specs):
            net._flows.add(Flow(f"f{index}", [links[i] for i in route],
                                100.0, cap, Event(env)))
        net._assign_rates()
        got = [(flow.name, flow.rate) for flow in net._flows]
        frozen_assign_rates(net._flows)
        want = [(flow.name, flow.rate) for flow in net._flows]
        assert got == want
