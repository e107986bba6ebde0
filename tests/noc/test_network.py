"""Unit tests for routers, the NoC network and the latency model."""

import pytest

from repro.noc import (
    CommunicationLatencyModel,
    MeshTopology,
    NoCNetwork,
    Packet,
    Router,
    worst_case_latency,
)
from repro.noc.routing import xy_route


class TestRouter:
    def test_service_time(self):
        router = Router(node=(0, 0), routing_delay=2, flit_delay=1)
        assert router.service_time(Packet((0, 0), (1, 0), size_flits=4)) == 6

    def test_fifo_arbitration_serialises_conflicting_packets(self):
        router = Router(node=(0, 0), routing_delay=2, flit_delay=1)
        first = Packet((0, 0), (1, 0), size_flits=4)
        second = Packet((0, 0), (1, 0), size_flits=4)
        _, dep1 = router.forward(first, (1, 0), arrival_time=0)
        start2, dep2 = router.forward(second, (1, 0), arrival_time=1)
        assert dep1 == 6
        assert start2 == 6
        assert dep2 == 12
        assert router.total_blocking == 5

    def test_different_links_do_not_block_each_other(self):
        router = Router(node=(1, 1))
        a = Packet((1, 1), (2, 1), size_flits=4)
        b = Packet((1, 1), (1, 2), size_flits=4)
        router.forward(a, (2, 1), 0)
        start_b, _ = router.forward(b, (1, 2), 0)
        assert start_b == 0


class TestNoCNetwork:
    def test_latency_of_uncontended_packet(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh, routing_delay=2, flit_delay=1, injection_delay=1, ejection_delay=1)
        packet = Packet((0, 0), (3, 3), size_flits=4)
        delivered = network.send(packet, time=100)
        hops = mesh.manhattan_distance((0, 0), (3, 3))
        expected = 1 + hops * (2 + 4) + 1
        assert delivered == 100 + expected
        assert packet.latency == expected

    def test_latency_matches_analytical_model_without_contention(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        packet = Packet((0, 0), (2, 1), size_flits=4)
        network.send(packet, 0)
        model = CommunicationLatencyModel()
        assert packet.latency == model.no_contention_latency(hops=3, size_flits=4)

    def test_contention_increases_latency(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        first = Packet((0, 0), (3, 0), size_flits=8)
        second = Packet((0, 0), (3, 0), size_flits=4)
        network.send(first, 0)
        network.send(second, 0)
        solo = NoCNetwork(mesh)
        alone = Packet((0, 0), (3, 0), size_flits=4)
        solo.send(alone, 0)
        assert second.latency > alone.latency
        assert network.total_blocking() > 0

    def test_routes_are_reused_per_source_and_destination(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        first = Packet((0, 0), (3, 2), size_flits=4)
        second = Packet((0, 0), (3, 2), size_flits=4)
        network.send(first, 0)
        network.send(second, 1000)
        assert first.latency == second.latency
        assert network._routes == {((0, 0), (3, 2)): xy_route((0, 0), (3, 2), mesh)}

    @pytest.mark.parametrize("source, destination", [((0, 0), (4, 0)), ((5, 5), (0, 0))])
    def test_out_of_mesh_nodes_are_rejected_on_every_send(self, source, destination):
        network = NoCNetwork(MeshTopology(4, 4))
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the mesh"):
                network.send(Packet(source, destination, size_flits=4), 0)
        assert network._routes == {}

    def test_statistics(self):
        mesh = MeshTopology(3, 3)
        network = NoCNetwork(mesh)
        network.send(Packet((0, 0), (2, 2), size_flits=4, kind="io-request"), 0)
        network.send(Packet((1, 0), (2, 2), size_flits=4, kind="background"), 0)
        assert len(network.latencies()) == 2
        assert len(network.latencies(kind="io-request")) == 1
        assert network.mean_latency() > 0
        assert network.max_latency() >= network.mean_latency()


class TestWorstCaseLatency:
    def test_bound_dominates_observed_latency(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        interfering = Packet((1, 0), (3, 0), size_flits=8)
        network.send(interfering, 0)
        request = Packet((0, 0), (3, 0), size_flits=4)
        network.send(request, 0)
        bound = worst_case_latency(
            (0, 0), (3, 0), mesh, size_flits=4, interfering_sizes=[8]
        )
        assert request.latency <= bound

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet((0, 0), (1, 1), size_flits=0)
